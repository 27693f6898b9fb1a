"""The benchmark in perfbench/ wraps program entry points by module global
name: its tracer, its correctness gate and its latency taps.  Installing both for every
workload here makes a refactor that drops or renames a hooked name fail the
test suite, not only a benchmark run.  Nothing is written under perfbench/.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import check
    import hooks
    import tracing
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_hooks_find_their_names(name):
    with tracing.Tracer().install():
        pass
    with check.Gate(workloads.WORKLOADS[name], 12345).probes():
        pass


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_latency_taps_find_their_names(name):
    with hooks.latency_tap(workloads.WORKLOADS[name].latency_targets(), []):
        pass
