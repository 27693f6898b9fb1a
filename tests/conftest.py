import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# pyproject.toml's pytest ``pythonpath`` reaches only the pytest process; child
# processes such as ``python -m decodex.bench.cli`` find src/ through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
