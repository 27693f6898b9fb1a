"""Thread-of-execution semantics of the CPU worker-pool backend."""

import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from decodex.backends import (
    InlineModel,
    LookasideModel,
    cpu_decode_batch,
    inline_decode_parallel,
    lookaside_bulk_report,
    run_lookaside_bulk,
)
from decodex.ldpc import CodeBlockParams, decode_layered_minsum, encode
from decodex.nr import DecodeDescriptor
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

    The host's speed drifts.  So after one warm-up of each mode, which also
    starts the pool threads that the timed multi-worker calls reuse, each
    mode keeps its fastest time over 3 interleaved rounds that alternate
    which mode runs first.
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


def _same_outcomes(got, want):
    return [(o.tb_id, o.cb_id, o.bits.tobytes(), o.iterations_used) for o in got] == [
        (o.tb_id, o.cb_id, o.bits.tobytes(), o.iterations_used) for o in want]


def test_multi_worker_decode_starts_no_process():
    """The workers are threads of this process, kept from one call to the next."""
    descs = _descriptors(2)
    want = cpu_decode_batch(descs, workers=1).outcomes
    threads = threading.active_count()
    for _ in range(2):
        assert _same_outcomes(cpu_decode_batch(descs, workers=2).outcomes, want)
    assert multiprocessing.active_children() == []
    assert threading.active_count() <= threads + 2


def _mixed_descriptors(n_tb, seed=11):
    """One-block TBs that alternate between BG1 zc=384 and BG2 zc=16, noisy
    enough to take several iterations each."""
    rng = np.random.default_rng(seed)
    descs = []
    for tb_id in range(n_tb):
        params = CodeBlockParams(1, 384, 22) if tb_id % 2 == 0 else CodeBlockParams(2, 16, 10)
        cw = encode(rng.integers(0, 2, params.k, dtype=np.uint8), params)
        noisy = (1 - 2 * cw.astype(np.int32)) * 6 + rng.integers(-11, 12, params.n_full)
        llr = np.clip(noisy, -128, 127).astype(np.int8)
        descs.append(DecodeDescriptor(params, max_iterations=20, tb_id=tb_id, cb_id=0, llr=llr))
    return descs


def test_concurrent_kernel_calls_share_no_scratch():
    """Two worker threads run the kernel at once on codes of different
    shapes; scratch shared between them would corrupt both decodes."""
    descs = _mixed_descriptors(16)
    want = cpu_decode_batch(descs, workers=1).outcomes
    assert len({o.iterations_used for o in want}) > 1
    for _ in range(3):
        assert _same_outcomes(cpu_decode_batch(descs, workers=2).outcomes, want)


def _decode_in_child(descs, want):
    signal.alarm(20)  # a child that reached the parent's pool would wait for ever
    sys.exit(0 if _same_outcomes(cpu_decode_batch(descs, workers=2).outcomes, want) else 1)


def test_forked_child_decodes_on_its_own_pool():
    descs = _descriptors(2)
    want = cpu_decode_batch(descs, workers=1).outcomes
    cpu_decode_batch(descs, workers=2)  # the parent's pool exists when the child forks
    child = multiprocessing.get_context("fork").Process(target=_decode_in_child,
                                                        args=(descs, want))
    child.start()
    child.join(30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_process_with_a_pool_exits():
    code = ("from decodex.backends import cpu_decode_batch\n"
            "from decodex.phy import generate_cell_vectors\n"
            "vecs = generate_cell_vectors(4, 10, 8.0, 2, 5)\n"
            "cpu_decode_batch([d for v in vecs for d in v.descriptors], workers=2)\n")
    assert subprocess.run([sys.executable, "-c", code], timeout=30).returncode == 0


def test_backend_reports_are_frozen_values():
    descs = _descriptors(1)
    outcomes = cpu_decode_batch(descs).outcomes
    reports = [
        cpu_decode_batch(descs),
        run_lookaside_bulk(descs, LookasideModel(), outcomes),
        inline_decode_parallel([descs], InlineModel(), outcomes),
    ]
    for report in reports:
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.outcomes = []
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.failure = "set after the clock built the report"


def test_backend_report_fields_do_not_change_in_place():
    descs = _descriptors(1)
    outcomes = cpu_decode_batch(descs).outcomes
    reports = [
        cpu_decode_batch(descs),
        run_lookaside_bulk(descs, LookasideModel(), outcomes),
        inline_decode_parallel([descs], InlineModel(), outcomes),
        lookaside_bulk_report([], LookasideModel()),
    ]
    for report in reports:
        with pytest.raises(AttributeError):
            report.outcomes.append(outcomes[0])
        with pytest.raises(TypeError):
            report.tb_latency_us[0] = 1.0


@pytest.mark.parametrize("workers", [1, 2])
def test_outcomes_come_in_tb_then_cb_order(workers):
    """Descriptors handed over in reverse TB order, multi-CB TBs included,
    come back in (tb_id, cb_id) order, and bits_by_tb keeps the cb order."""
    vecs = generate_cell_vectors(9, 100, 20.0, 3, 5)
    descs = [d for v in reversed(vecs) for d in v.descriptors]
    report = cpu_decode_batch(descs, workers=workers)
    keys = [(o.tb_id, o.cb_id) for o in report.outcomes]
    assert keys == sorted((d.tb_id, d.cb_id) for d in descs)
    assert {cb for _, cb in keys} == {0, 1, 2}  # three CBs per TB
    by_tb = report.bits_by_tb()
    assert list(by_tb) == [0, 1, 2]
    for v in vecs:
        tb_id = v.descriptors[0].tb_id
        direct = [decode_layered_minsum(d.llr, d.cb_params, d.max_iterations).bits
                  for d in v.descriptors]
        assert len(by_tb[tb_id]) == len(direct)
        assert all(np.array_equal(a, b) for a, b in zip(by_tb[tb_id], direct))
