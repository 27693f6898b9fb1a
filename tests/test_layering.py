"""Package layering: ldpc <- nr <- {phy, backends} <- bench.

A module of ``src/decodex/<package>/`` may import another decodex package
only when that package sits on a lower layer (phy and backends share one and
do not import each other), and only through the package itself
(``from ..nr import X``), never one of its submodules
(``from ..nr.pipeline import X``): each package's ``__init__`` is its API.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "decodex"
LAYER = {"ldpc": 0, "nr": 1, "phy": 2, "backends": 2, "bench": 3}


def _imports(path: Path):
    """(line, dotted module) of every import in ``path``, relative ones
    resolved; ``from .. import backends`` names the package it imports."""
    package = ["decodex", path.parent.name]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: 3 - node.level] if node.level else []  # 1: own package, 2: decodex
            names = [node.module] if node.module else [a.name for a in node.names]
            for name in names:
                yield node.lineno, ".".join(base + [name])


def layering_findings(src: Path = SRC) -> tuple[list[str], int]:
    """The imports that break the layering, and how many cross-package
    imports were checked."""
    findings = []
    checked = 0
    for path in sorted(src.glob("*/*.py")):
        own = path.parent.name
        for line, module in _imports(path):
            parts = module.split(".")
            if parts[0] != "decodex" or len(parts) < 2 or parts[1] == own:
                continue
            checked += 1
            where = f"{own}/{path.name}:{line} imports {module}"
            if LAYER.get(parts[1], LAYER[own]) >= LAYER[own]:
                findings.append(f"{where}: not on a lower layer")
            elif len(parts) > 2:
                findings.append(f"{where}: a submodule, not the package")
    return findings, checked


def test_packages_import_lower_layers_through_their_package():
    findings, checked = layering_findings()
    assert checked > 0
    assert findings == []
