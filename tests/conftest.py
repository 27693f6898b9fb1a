import multiprocessing
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# pyproject.toml's pytest ``pythonpath`` reaches only the pytest process; child
# processes such as ``python -m decodex.bench.cli`` find src/ through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_suite():
    """A worker process that some test leaves running fails the suite."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.kill()
        child.join()
    assert leaked == [], f"child processes left running: {leaked}"
