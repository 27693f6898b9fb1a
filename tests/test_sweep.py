"""Sweep orchestration: completeness, determinism, cross-backend agreement."""

import dataclasses
import logging
import math

import pytest

from decodex.backends import InlineModel, LookasideModel
from decodex.ldpc import ConfigurationError
from decodex.bench import SweepConfig, run_cell, run_sweep, sweep


def test_record_count_is_the_cell_product():
    config = SweepConfig(
        backends=("lookaside", "inline-unified"),
        mcs_set=(0, 4),
        snr_grid_db=(8.0, 10.0),
        prb_set=(10,),
        n_tb=2,
        seed=5,
    )
    records = run_sweep(config)
    assert len(records) == 2 * 2 * 2 * 1


def test_virtual_sweep_is_reproducible():
    config = SweepConfig(
        backends=("lookaside",), mcs_set=(4,), snr_grid_db=(4.0,), prb_set=(10, 20),
        n_tb=3, seed=17,
    )
    assert run_sweep(config) == run_sweep(config)


def test_same_cell_same_seed_identical_records():
    a = run_cell("inline", 4, 6.0, 10, 3, seed=77)
    b = run_cell("inline", 4, 6.0, 10, 3, seed=77)
    assert a == b


def test_bler_identical_across_backends():
    """Timing models never alter the decoded data."""
    cells = [(4, 0.0, 10), (9, 2.0, 20), (0, -2.0, 15)]
    for mcs, snr, prb in cells:
        blers = {
            kind: run_cell(kind, mcs, snr, prb, 4, seed=123).bler
            for kind in ("cpu", "lookaside", "inline", "inline-unified")
        }
        assert len(set(blers.values())) == 1, blers


def test_sweep_shares_vectors_across_backends():
    """Within one sweep, every backend sees the same per-cell vectors."""
    config = SweepConfig(
        backends=("cpu", "lookaside", "inline-unified"),
        mcs_set=(4, 9), snr_grid_db=(0.0,), prb_set=(10,), n_tb=4, seed=88,
    )
    records = run_sweep(config)
    per_cell = {}
    for r in records:
        per_cell.setdefault((r.mcs, r.snr_db, r.prb), []).append(
            (r.bler, r.mean_iterations)
        )
    for cell, stats in per_cell.items():
        assert len(set(stats)) == 1, (cell, stats)


def test_iteration_stats_shared_across_backends():
    recs = [run_cell(k, 9, 4.0, 10, 3, seed=9) for k in ("cpu", "lookaside", "inline")]
    assert len({r.mean_iterations for r in recs}) == 1


def test_clock_types():
    assert run_cell("cpu", 0, 8.0, 5, 1, seed=1).clock_type == "wall"
    for kind in ("lookaside", "inline", "inline-unified"):
        assert run_cell(kind, 0, 8.0, 5, 1, seed=1).clock_type == "virtual"


def test_record_invariants():
    rec = run_cell("lookaside", 4, 8.0, 10, 4, seed=3)
    assert 0.0 <= rec.bler <= 1.0
    assert rec.p50_us <= rec.p99_us
    assert rec.mean_iterations <= 20


def _fail_generation(*_, **__):
    raise RuntimeError("vector generation failed")


def test_failing_cell_still_emits_a_record(monkeypatch):
    monkeypatch.setattr(sweep, "generate_cell_vectors", _fail_generation)
    config = SweepConfig(
        backends=("cpu",), mcs_set=(4,), snr_grid_db=(8.0,), prb_set=(10,), n_tb=1, seed=5,
    )
    records = run_sweep(config)
    assert len(records) == 1
    assert records[0].failure is not None
    assert math.isnan(records[0].bler)


def test_failing_cell_logs_its_traceback(monkeypatch, caplog):
    monkeypatch.setattr(sweep, "generate_cell_vectors", _fail_generation)
    config = SweepConfig(
        backends=("cpu", "lookaside"), mcs_set=(4,), snr_grid_db=(8.0,), prb_set=(10,),
        n_tb=1, seed=5,
    )
    with caplog.at_level(logging.WARNING, logger=sweep.__name__):
        records = run_sweep(config)
    assert [r.failure for r in records] == ["RuntimeError: vector generation failed"] * 2
    [logged] = caplog.records
    assert logged.getMessage() == "cell mcs=4 snr_db=8.0 prb=10 failed"
    assert logged.exc_info[0] is RuntimeError
    assert "Traceback" in caplog.text
    assert "in _fail_generation" in caplog.text


def test_bler_is_judged_against_the_transmitted_payload():
    """At -40 dB every LLR is zero: each CB decodes to the all-zero word,
    whose CRCs pass, though the transmitted payload was random."""
    assert run_cell("cpu", 4, -40.0, 10, 20, seed=1).bler == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(backends=())
    with pytest.raises(ValueError):
        SweepConfig(n_tb=0)
    with pytest.raises(ValueError):
        SweepConfig(backends=("quantum",))
    with pytest.raises(ValueError):
        SweepConfig(seed=-1)
    with pytest.raises(ValueError):
        SweepConfig(max_iterations=0)
    assert SweepConfig(max_iterations=255).max_iterations == 255
    with pytest.raises(ValueError, match=r"\[1, 255\]"):
        SweepConfig(max_iterations=256)
    with pytest.raises(ValueError):
        SweepConfig(mcs_set=(4, 40))
    with pytest.raises(ValueError):
        SweepConfig(prb_set=(50, 0))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        SweepConfig(workers=0)
    with pytest.raises(ValueError, match="lookaside takes no InlineModel"):
        SweepConfig(backends=("lookaside",), models={"lookaside": InlineModel()})


def test_n_tb_is_bounded():
    assert SweepConfig(n_tb=sweep.MAX_N_TB).n_tb == sweep.MAX_N_TB
    with pytest.raises(ConfigurationError, match=f"above its limit of {sweep.MAX_N_TB}"):
        SweepConfig(n_tb=sweep.MAX_N_TB + 1)


def test_grid_cells_are_bounded():
    def grid(cells):
        return SweepConfig(mcs_set=(0,), snr_grid_db=tuple(map(float, range(cells))),
                           prb_set=(1,))

    assert len(grid(sweep.MAX_CELLS).snr_grid_db) == sweep.MAX_CELLS
    with pytest.raises(ConfigurationError, match=f"above its limit of {sweep.MAX_CELLS}"):
        grid(sweep.MAX_CELLS + 1)


def test_model_override_reaches_the_backend():
    slow = dataclasses.replace(LookasideModel(), op_service=118.0, return_overhead=2.0)
    fast = run_cell("lookaside", 0, 8.0, 5, 2, seed=8)
    slowed = run_cell("lookaside", 0, 8.0, 5, 2, seed=8, model=slow)
    assert slowed.mean_us == fast.mean_us + 100.0
