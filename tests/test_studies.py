"""Dispatch studies: bulk queueing, parallel launches, forced iterations."""

import pytest

from decodex.bench import run_bulk_study, run_iteration_study, run_parallel_study, studies
from decodex.ldpc import ConfigurationError


def test_bulk_ratio_is_one_for_single_op():
    row = run_bulk_study([1])[0]
    assert row.ratio == 1.0


def test_bulk_ratio_monotone():
    rows = run_bulk_study([1, 10, 100])
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios)


def test_parallel_study_single_ue_parity():
    row = run_parallel_study([1], 200)[0]
    assert row.sequential_kernel_us == pytest.approx(row.parallel_kernel_us)
    assert row.sequential_total_us == pytest.approx(row.parallel_total_us)


def test_parallel_study_prb_shares():
    rows = run_parallel_study([3], 200)
    assert rows[0].n_ue == 3  # 66/66/68 PRB split handled internally


def test_parallel_study_rejects_more_ues_than_prbs():
    with pytest.raises(ConfigurationError):
        run_parallel_study([201], 200)


def test_iteration_study_latency_grows_with_iterations():
    rows = run_iteration_study(k_list=[1936], rate_list=[0.33], iter_list=[2, 8], repeats=3)
    by_iters = {r.iterations: r.mean_us for r in rows}
    assert by_iters[8] > by_iters[2]


def test_iteration_study_rejects_zero_iterations():
    with pytest.raises(ValueError):
        run_iteration_study(k_list=[1936], rate_list=[0.33], iter_list=[0], repeats=1)


def test_iteration_study_rejects_multi_block_k():
    with pytest.raises(ConfigurationError):
        run_iteration_study(k_list=[9000], rate_list=[0.88], iter_list=[2], repeats=1)


def test_iteration_study_rejects_k_below_crc():
    with pytest.raises(ConfigurationError):
        run_iteration_study(k_list=[24], rate_list=[0.5], iter_list=[2], repeats=1)


def test_iteration_study_times_its_rows_round_robin(monkeypatch):
    """Every row is warmed up once, then each repeat round decodes every row
    once, so drift in host speed cannot reorder the rows."""
    from decodex.bench import studies
    from decodex.ldpc import DecodeResult

    calls = []

    def recording_decode(llr, params, max_iterations, early_termination):
        assert early_termination is False
        calls.append((params.k, max_iterations))
        return DecodeResult(bits=llr[: params.k] < 0, iterations_used=max_iterations,
                            converged=False)

    monkeypatch.setattr(studies, "decode_layered_minsum", recording_decode)
    rows = run_iteration_study(k_list=[1936, 4224], rate_list=[0.33], iter_list=[2, 8],
                               repeats=3)
    order = [(r.k, r.iterations) for r in rows]
    assert order == [(1936, 2), (1936, 8), (4224, 2), (4224, 8)]
    keys = calls[:4]
    assert len(set(keys)) == 4
    assert calls == keys * 4  # warm-up round, then 3 timed rounds


@pytest.mark.parametrize(
    "study",
    [
        lambda: run_bulk_study([]),
        lambda: run_bulk_study([0]),
        lambda: run_bulk_study([-1]),
        lambda: run_iteration_study(repeats=0),
    ],
    ids=["bulk-empty", "bulk-zero", "bulk-negative", "iteration-zero-repeats"],
)
def test_study_edge_inputs_are_named_errors(study):
    with pytest.raises(ConfigurationError):
        study()


class _Validated(Exception):
    """Raised in place of the study's first piece of work."""


def test_bulk_n_ops_is_bounded(monkeypatch):
    def stop(**kwargs):
        raise _Validated(kwargs["n_tb"])

    monkeypatch.setattr(studies, "generate_cell_vectors", stop)
    with pytest.raises(_Validated, match=str(studies.MAX_BULK_OPS)):
        run_bulk_study([1, studies.MAX_BULK_OPS])
    with pytest.raises(ConfigurationError, match=f"above its limit of {studies.MAX_BULK_OPS}"):
        run_bulk_study([1, studies.MAX_BULK_OPS + 1])


def test_iteration_repeats_are_bounded():
    rows = run_iteration_study(k_list=[1936], rate_list=[0.88], iter_list=[1],
                               repeats=studies.MAX_REPEATS)
    assert len(rows) == 1
    with pytest.raises(ConfigurationError, match=f"above its limit of {studies.MAX_REPEATS}"):
        run_iteration_study(repeats=studies.MAX_REPEATS + 1)
