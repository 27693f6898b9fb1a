"""Make the decodex sources of this checkout importable, and nothing else.

The benchmark measures the program in the checkout it sits in.  It never
falls back to another installed copy: a checkout without ``src/decodex``
makes the benchmark exit with an error before it measures anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def load() -> None:
    """Put ``<checkout>/src`` first on sys.path and import decodex from it."""
    package = SRC / "decodex"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no decodex sources at {package}")
    sys.path.insert(0, str(SRC))
    import decodex

    if Path(decodex.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported decodex from {decodex.__file__}, not {package}")
