"""The benchmark's workloads: what one pass runs, what it delivers, and which
of its outputs are deterministic.

A pass is one closed-loop call into the program: the benchmark submits the
whole grid (``run_sweep``) or the two studies and waits for the result.  All
inputs derive from the seed.  Calls go through the module attributes
(``sweep.run_sweep``, ``studies.run_bulk_study``) so the tracer can wrap them
like every other layer entry point.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

import decodex.backends as backends
import decodex.bench.studies as studies
import decodex.bench.sweep as sweep
from decodex.ldpc import encode, expand_base_graph, get_base_graph
from decodex.nr import compute_tb_size, make_transport_block, mcs_lookup, plan_transport_block

DEFAULT_SEED = 12345

# The bulk study's ops are single-CB TBs at this allocation (run_bulk_study).
BULK_STUDY_MCS = 0
BULK_STUDY_PRB = 2


def tb_bits(mcs: int, prb: int) -> int:
    return compute_tb_size(prb, mcs_lookup(mcs))


def warm_caches(allocations) -> float:
    """Load the BG tables (with their hash check) and build the expansion and
    encoder plan of every code-block shape the allocations produce.

    Returns the seconds spent in ``expand_base_graph``.
    """
    get_base_graph(1)
    expand_s = 0.0
    for mcs, prb in allocations:
        tb = make_transport_block(np.zeros(tb_bits(mcs, prb), dtype=np.uint8), mcs, prb)
        for params in set(plan_transport_block(tb).params):
            start = time.perf_counter()
            expand_base_graph(params.bg, params.zc, params.set_index)
            expand_s += time.perf_counter() - start
            encode(np.zeros(params.k, dtype=np.uint8), params)
    return expand_s


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    backends: tuple[str, ...]
    mcs_set: tuple[int, ...]
    snr_grid_db: tuple[float, ...]
    prb_set: tuple[int, ...]
    n_tb: int
    workers: int
    max_iterations: int
    zero_bler: bool  # every cell must decode error-free, at any seed

    def run_pass(self, seed: int):
        config = sweep.SweepConfig(
            backends=self.backends,
            mcs_set=self.mcs_set,
            snr_grid_db=self.snr_grid_db,
            prb_set=self.prb_set,
            n_tb=self.n_tb,
            seed=seed,
            workers=self.workers,
            max_iterations=self.max_iterations,
        )
        return sweep.run_sweep(config)

    def allocations(self) -> list[tuple[int, int]]:
        return [(m, p) for m in self.mcs_set for p in self.prb_set]

    def delivered(self) -> tuple[int, int]:
        """(TBs, payload bits) one pass delivers: every record counts."""
        per_grid = sum(tb_bits(m, p) for m, p in self.allocations()) * len(self.snr_grid_db)
        cells = len(self.backends) * len(self.allocations()) * len(self.snr_grid_db)
        return cells * self.n_tb, len(self.backends) * per_grid * self.n_tb

    def latency_targets(self):
        """Entry points whose reports carry the CPU per-TB wall latencies."""
        return [(backends, "cpu_decode_batch")]

    def outputs(self, records) -> dict[str, dict]:
        """Deterministic fields per record; virtual-clock timings included,
        wall-clock ones (the cpu backend's) left out."""
        out = {}
        for r in records:
            row = {"bler": r.bler, "mean_iterations": r.mean_iterations, "failure": r.failure}
            if r.clock_type == "virtual":
                row.update(p50_us=r.p50_us, p99_us=r.p99_us, mean_us=r.mean_us,
                           utilization=r.utilization)
            out[f"{r.backend}/mcs{r.mcs}/snr{r.snr_db:g}/prb{r.prb}"] = row
        return out

    def invariant_violations(self, outputs: dict[str, dict]) -> list[str]:
        bad = []
        by_cell: dict[str, list[tuple[float, float]]] = {}
        for key, row in outputs.items():
            bler, iters = row["bler"], row["mean_iterations"]
            if not (0.0 <= bler <= 1.0 and 1.0 <= iters <= self.max_iterations):
                bad.append(f"{key}: bler={bler} mean_iterations={iters} out of range")
            if self.zero_bler and bler != 0.0:
                bad.append(f"{key}: bler={bler}, expected 0")
            by_cell.setdefault(key.split("/", 1)[1], []).append((bler, iters))
        for cell, values in by_cell.items():
            if len(set(values)) != 1:
                bad.append(f"{cell}: backends disagree on (bler, mean_iterations): {values}")
        return bad


@dataclass(frozen=True)
class StudiesWorkload:
    name: str
    bulk_n_ops: tuple[int, ...]
    n_ue: tuple[int, ...]
    prb_total: int

    def run_pass(self, seed: int):
        bulk = studies.run_bulk_study(list(self.bulk_n_ops), seed=seed)
        parallel = studies.run_parallel_study(list(self.n_ue), self.prb_total, seed=seed)
        return bulk, parallel

    def _ue_prbs(self, n_ue: int) -> list[int]:
        # The split run_parallel_study makes: equal shares, remainder to the last UE.
        share = self.prb_total // n_ue
        return [share] * (n_ue - 1) + [self.prb_total - share * (n_ue - 1)]

    def allocations(self) -> list[tuple[int, int]]:
        ue = {(studies.DEFAULT_STUDY_MCS, p) for n in self.n_ue for p in self._ue_prbs(n)}
        return [(BULK_STUDY_MCS, BULK_STUDY_PRB)] + sorted(ue)

    def delivered(self) -> tuple[int, int]:
        """(TBs, payload bits) one pass delivers: each study op counts, once
        per dispatch mode (sequential and bulk, sequential and parallel)."""
        bulk_ops = sum(self.bulk_n_ops)
        ue_bits = sum(tb_bits(studies.DEFAULT_STUDY_MCS, p)
                      for n in self.n_ue for p in self._ue_prbs(n))
        tbs = 2 * (bulk_ops + sum(self.n_ue))
        return tbs, 2 * (bulk_ops * tb_bits(BULK_STUDY_MCS, BULK_STUDY_PRB) + ue_bits)

    def latency_targets(self):
        """The bulk study's queue calls: each op is a one-CB TB, delivered
        when the call returns.  The parallel study's few large TBs are left
        out of the latency distribution; they count in the throughput."""
        return [(studies, "run_lookaside_sequential"), (studies, "run_lookaside_bulk")]

    def outputs(self, result) -> dict[str, dict]:
        bulk, parallel = result
        out = {f"bulk/n{r.n_ops}": asdict(r) for r in bulk}
        out.update({f"parallel/ue{r.n_ue}": asdict(r) for r in parallel})
        return out

    def invariant_violations(self, outputs: dict[str, dict]) -> list[str]:
        bad = []
        for key, row in outputs.items():
            if not all(math.isfinite(v) and v > 0 for v in row.values()):
                bad.append(f"{key}: non-finite or non-positive value in {row}")
            if key.startswith("bulk/") and row["ratio"] < 1.0:
                bad.append(f"{key}: bulk slower than sequential")
            if key.startswith("parallel/") and (
                row["parallel_kernel_us"] > row["sequential_kernel_us"]
            ):
                bad.append(f"{key}: parallel launch slower than sequential")
        expected = len(self.bulk_n_ops) + len(self.n_ue)
        if len(outputs) != expected:
            bad.append(f"expected {expected} study rows, got {len(outputs)}")
        return bad


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="decode-waterfall",
            backends=("cpu",),
            mcs_set=(9, 17),
            snr_grid_db=(4.0, 10.0),
            prb_set=(50,),
            n_tb=6,
            workers=1,
            # The cap is 40, not the default 20, so that decode is about 91% of
            # host time (86% at 20) and encoder work barely shows here.
            max_iterations=40,
            zero_bler=False,
        ),
        SweepWorkload(
            name="sweep-4backend",
            backends=("cpu", "lookaside", "inline", "inline-unified"),
            mcs_set=(0, 4, 9, 13, 17),
            snr_grid_db=(20.0,),
            prb_set=(2, 20, 50, 200),
            n_tb=2,
            workers=2,
            max_iterations=sweep.DEFAULT_MAX_ITERATIONS,
            zero_bler=True,
        ),
        StudiesWorkload(
            name="dispatch-studies",
            # Not the 1000 ops of scripts/reproduce_studies.py: at 100 a pass
            # takes about 1.2 s instead of 7.5 s, so a run's medians rest on
            # many passes.  The queue (depth 1024) never fills at either size.
            bulk_n_ops=(1, 10, 100),
            n_ue=(1, 2, 5, 10),
            prb_total=200,
        ),
    )
}
