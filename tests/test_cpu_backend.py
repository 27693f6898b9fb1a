"""Thread-of-execution semantics of the CPU worker-pool backend."""

import math
import os

import numpy as np
import pytest

from decodex.backends import cpu_decode_batch
from decodex.ldpc import decode_layered_minsum
from decodex.phy import generate_cell_vectors


def _descriptors(n_tb, mcs=4, prb=10, snr_db=8.0, seed=5):
    vecs = generate_cell_vectors(mcs, prb, snr_db, n_tb, seed)
    return [d for v in vecs for d in v.descriptors]


def test_single_tb_equals_direct_decode():
    descs = _descriptors(1)
    report = cpu_decode_batch(descs, workers=1)
    assert report.clock_type == "wall"
    for d, outcome in zip(descs, report.outcomes):
        direct = decode_layered_minsum(d.llr, d.cb_params, d.max_iterations)
        assert np.array_equal(outcome.bits, direct.bits)
        assert outcome.iterations_used == direct.iterations_used
        assert outcome.converged == direct.converged


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_identical_across_worker_counts(workers):
    descs = _descriptors(4)
    baseline = cpu_decode_batch(_descriptors(4), workers=1)
    report = cpu_decode_batch(descs, workers=workers)
    assert len(report.outcomes) == len(baseline.outcomes)
    for a, b in zip(baseline.outcomes, report.outcomes):
        assert (a.tb_id, a.cb_id) == (b.tb_id, b.cb_id)
        assert np.array_equal(a.bits, b.bits)
        assert a.iterations_used == b.iterations_used


def test_per_tb_latencies_recorded():
    report = cpu_decode_batch(_descriptors(3), workers=1)
    assert set(report.tb_latency_us) == {0, 1, 2}
    assert all(v > 0 for v in report.tb_latency_us.values())


def test_failed_blocks_do_not_abort_the_batch():
    descs = _descriptors(2, snr_db=-20.0)  # hopeless channel
    report = cpu_decode_batch(descs, workers=1)
    assert len(report.outcomes) == len(descs)
    assert report.failure is None  # non-convergence is a result, not a failure


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs >= 2 CPUs")
def test_multi_worker_speedup_on_identical_tbs():
    """TB-per-worker parallelism beats one worker on the same batch.

    The host's speed drifts, and the multi-worker time includes the pool's
    start-up.  So after one warm-up of each mode, each mode keeps its fastest
    time over 3 interleaved rounds that alternate which mode runs first.
    """
    descs = _descriptors(8, mcs=9, prb=100, snr_db=2.0, seed=9)
    workers = min(8, os.cpu_count())
    for w in (1, workers):
        cpu_decode_batch(descs, workers=w)
    fastest = {1: math.inf, workers: math.inf}
    for round_ in range(3):
        for w in (1, workers) if round_ % 2 else (workers, 1):
            fastest[w] = min(fastest[w], cpu_decode_batch(descs, workers=w).total_us)
    assert fastest[workers] / fastest[1] < 1.0


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        cpu_decode_batch(_descriptors(1), workers=0)
