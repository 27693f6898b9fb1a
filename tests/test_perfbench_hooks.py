"""The benchmark in perfbench/ wraps program entry points by module global
name: its tracer, its correctness gate and its latency taps.  Installing both for every
workload here makes a refactor that drops or renames a hooked name fail the
test suite, not only a benchmark run.  Nothing is written under perfbench/.
"""

import sys
from pathlib import Path

import pytest

from decodex.bench import SweepConfig, run_sweep

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


def test_benchmark_sees_the_sweep_models():
    """A sweep reaches the accelerator models through the runner names the
    tracer spans and the gate's drain probe wrap."""
    config = SweepConfig(backends=("lookaside", "inline"), mcs_set=(0,), snr_grid_db=(20.0,),
                         prb_set=(2,), n_tb=2, seed=3)
    tracer = tracing.Tracer()
    with tracer.install():
        run_sweep(config)
    layers = {span[0] for span in tracer.spans}
    assert {"backends.lookaside", "backends.inline"} <= layers

    gate = check.Gate(workloads.WORKLOADS["sweep-4backend"], 12345)
    with gate.probes():
        run_sweep(config)
    # The payload probe checks each TB once; the drain probe checks each
    # lookaside call, one per TB.
    assert gate.checks == 2 * config.n_tb
    assert gate.failures == []
