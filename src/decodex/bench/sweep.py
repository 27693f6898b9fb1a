"""End-to-end sweep orchestration over (backend x MCS x SNR x PRB) cells.

Each grid cell generates fresh random transport blocks, runs the transmit
chain (encode, modulate, AWGN, demap, de-match) and decodes every code block
once, on the CPU worker pool.  Every backend then reduces the same decoded
outcomes to one SweepRecord.  The cpu backend's latency is the wall clock of
that decode, which takes the whole cell as one batch so the pool can spread
TBs across cores.  The virtual-clock backends add only their timing to each
TB's outcomes, one TB at a time (run_lookaside_bulk, or inline_decode_parallel
for one launch), so their reported latency is the isolated per-TB round trip.
Cells execute sequentially and derive their seeds from the master seed, so a
sweep is reproducible end to end (bit-exactly on virtual clocks).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .. import backends
from ..ldpc import DEFAULT_MAX_ITERATIONS, MAX_ITERATIONS, ConfigurationError
from ..nr import mcs_lookup, reassemble
from ..phy import generate_cell_vectors

log = logging.getLogger(__name__)

DEFAULT_MCS_SET = tuple(range(20))
DEFAULT_SNR_GRID = (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
DEFAULT_PRB_SET = (50, 100, 150, 200)
MAX_CELLS = 10_000  # MCS x SNR x PRB cells per sweep; the default grid has 560
DEFAULT_N_TB = 100
MAX_N_TB = 1_000  # TBs per cell, whose vectors a cell holds all at once
DEFAULT_SEED = 12345


def check_limit(name: str, value: int, limit: int) -> None:
    """Reject a configured amount of work above its limit."""
    if value > limit:
        raise ConfigurationError(f"{name} is {value}, above its limit of {limit}")


@dataclass(frozen=True)
class SweepConfig:
    backends: tuple[str, ...] = ("cpu",)
    mcs_set: tuple[int, ...] = DEFAULT_MCS_SET
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID
    prb_set: tuple[int, ...] = DEFAULT_PRB_SET
    n_tb: int = DEFAULT_N_TB
    seed: int = DEFAULT_SEED
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    workers: int = 1
    models: dict = field(default_factory=dict)  # backend kind -> LookasideModel | InlineModel

    def __post_init__(self):
        if not (self.backends and self.mcs_set and self.snr_grid_db and self.prb_set):
            raise ValueError("backends, mcs_set, snr_grid_db, prb_set must be non-empty")
        if self.n_tb < 1:
            raise ValueError("n_tb must be >= 1")
        check_limit("n_tb", self.n_tb, MAX_N_TB)
        check_limit("the number of grid cells",
                    len(self.mcs_set) * len(self.snr_grid_db) * len(self.prb_set), MAX_CELLS)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.max_iterations <= MAX_ITERATIONS:
            raise ValueError(f"max_iterations must be in [1, {MAX_ITERATIONS}]")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for mcs in self.mcs_set:
            mcs_lookup(mcs)
        if min(self.prb_set) < 1:
            raise ValueError(f"every prb must be >= 1: {self.prb_set}")
        unknown = set(self.backends) - set(backends.BACKEND_KINDS)
        if unknown:
            raise ValueError(f"unknown backends: {sorted(unknown)}")
        for kind, model in self.models.items():
            if model is not None and type(model) is not type(backends.DEFAULT_MODELS.get(kind)):
                raise ValueError(f"{kind} takes no {type(model).__name__}")


@dataclass(frozen=True)
class SweepRecord:
    backend: str
    mcs: int
    snr_db: float
    prb: int
    n_tb: int
    bler: float = math.nan
    mean_iterations: float = math.nan
    p50_us: float = math.nan
    p99_us: float = math.nan
    mean_us: float = math.nan
    utilization: float | None = None
    clock_type: str = field(init=False)
    failure: str | None = None  # not emitted; drives the harness exit code

    def __post_init__(self):
        object.__setattr__(self, "clock_type", "wall" if self.backend == "cpu" else "virtual")


EMIT_FIELDS = tuple(f.name for f in fields(SweepRecord) if f.name != "failure")


def cell_seed(master_seed: int, cell_index: int) -> int:
    """Stable per-cell seed from the master seed and the cell's position."""
    return int(np.random.SeedSequence([master_seed, cell_index]).generate_state(1)[0])


def _cell_records(
    config: SweepConfig, mcs: int, snr_db: float, prb: int, seed: int
) -> list[SweepRecord]:
    """Generate and decode one cell once, then reduce it to one record per
    backend of the config, in its order.

    A virtual backend delivers the decoded outcomes of the ops it completed.
    A TB fails when it is not fully delivered, when any of its CRCs (per-CB
    or TB-level) fail after decode, or when its reassembled payload differs
    from the transmitted one.  Backend failure states surface in the record
    instead of aborting.
    """
    vectors = generate_cell_vectors(mcs, prb, snr_db, config.n_tb, seed, config.max_iterations)
    batches = [v.descriptors for v in vectors]
    cpu = backends.cpu_decode_batch([d for b in batches for d in b], workers=config.workers)
    # TBs are numbered 0..n_tb-1 and outcomes come in (tb_id, cb_id) order
    ends = itertools.accumulate(len(b) for b in batches)
    outcomes = [cpu.outcomes[end - len(b):end] for b, end in zip(batches, ends)]
    results = [reassemble([o.bits for o in outs], v.tb) for v, outs in zip(vectors, outcomes)]
    tb_ok = [r.ok and np.array_equal(r.payload_bits, v.tb.payload_bits)
             for r, v in zip(results, vectors)]

    records = []
    for kind in config.backends:
        if kind == "cpu":
            reports, delivered = [cpu], outcomes
        else:
            model = config.models.get(kind) or backends.DEFAULT_MODELS[kind]
            runs = zip(batches, outcomes)
            if kind == "lookaside":
                reports = [backends.run_lookaside_bulk(b, model, outs) for b, outs in runs]
            else:
                reports = [backends.inline_decode_parallel([b], model, outs) for b, outs in runs]
            delivered = [r.outcomes for r in reports]
        errors = sum(not (ok and len(outs) == len(b))
                     for ok, outs, b in zip(tb_ok, delivered, batches))
        iterations = [o.iterations_used for outs in delivered for o in outs]
        utilizations = [r.utilization for r in reports if r.utilization is not None]
        lat = np.asarray([us for r in reports for us in r.tb_latency_us.values()])
        p50, p99 = np.percentile(lat, (50, 99)) if lat.size else (math.nan, math.nan)
        records.append(SweepRecord(
            kind, mcs, snr_db, prb, config.n_tb,
            bler=errors / config.n_tb,
            mean_iterations=float(np.mean(iterations)) if iterations else 0.0,
            p50_us=float(p50),
            p99_us=float(p99),
            mean_us=float(lat.mean()) if lat.size else math.nan,
            utilization=float(np.mean(utilizations)) if utilizations else None,
            failure=next((r.failure for r in reports if r.failure), None),
        ))
    return records


def run_cell(
    backend_kind: str,
    mcs: int,
    snr_db: float,
    prb: int,
    n_tb: int,
    seed: int,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    model: backends.LookasideModel | backends.InlineModel | None = None,
    workers: int = 1,
) -> SweepRecord:
    """Run one sweep cell on one backend and reduce it to a record."""
    config = SweepConfig(
        backends=(backend_kind,), n_tb=n_tb, max_iterations=max_iterations,
        workers=workers, models={backend_kind: model},
    )
    return _cell_records(config, mcs, snr_db, prb, seed)[0]


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Cartesian product of cells in deterministic order; always emits
    |backends| * |mcs| * |snr| * |prb| records, failures included, grouped by
    backend in config order.

    Each cell is generated and decoded once and every backend reduces the
    same outcomes, so the BLER/iteration columns agree across backends by
    construction.  The per-cell seed depends only on the (mcs, snr, prb)
    position.
    """
    grid = itertools.product(config.mcs_set, config.snr_grid_db, config.prb_set)
    columns: list[list[SweepRecord]] = [[] for _ in config.backends]
    for index, (mcs, snr_db, prb) in enumerate(grid):
        try:
            records = _cell_records(config, mcs, snr_db, prb, cell_seed(config.seed, index))
        except Exception as exc:  # cell-level failure must not abort the sweep
            log.warning("cell mcs=%s snr_db=%s prb=%s failed", mcs, snr_db, prb, exc_info=True)
            failure = f"{type(exc).__name__}: {exc}"
            records = [SweepRecord(kind, mcs, snr_db, prb, config.n_tb, failure=failure)
                       for kind in config.backends]
        for column, record in zip(columns, records):
            column.append(record)
    return [record for column in columns for record in column]
