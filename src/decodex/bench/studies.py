"""Focused dispatch studies: bulk vs sequential queues, parallel launches,
and forced-iteration CPU scaling."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ..backends import (
    InlineModel,
    LookasideModel,
    cpu_decode_batch,
    inline_decode_parallel,
    inline_decode_sequential,
    inline_timing_parallel,
    inline_timing_sequential,
    run_lookaside_bulk,
    run_lookaside_sequential,
)
from ..ldpc import ConfigurationError, decode_layered_minsum
from ..nr import random_transport_block, rate_dematch, segment, select_base_graph
from ..phy import bits_to_llrs, generate_cell_vectors, prepare_tb_vectors
from .sweep import check_limit

DEFAULT_STUDY_MCS = 9
DEFAULT_STUDY_SNR_DB = 30.0
DEFAULT_BULK_SEED = 7
DEFAULT_BULK_N_OPS = (1, 10, 100, 1000)
MAX_BULK_OPS = 10_000  # ops in one bulk-study row, each a TB decoded up front
DEFAULT_REPEATS = 10
MAX_REPEATS = 1_000  # timed rounds of the iteration study


@dataclass(frozen=True)
class BulkStudyRow:
    n_ops: int
    sequential_tput: float  # ops per virtual us
    bulk_tput: float
    ratio: float


def run_bulk_study(
    n_ops_list: list[int],
    seed: int = DEFAULT_BULK_SEED,
) -> list[BulkStudyRow]:
    """Throughput of sequential vs bulk enqueue/dequeue over op-count sweeps,
    on the default lookaside model.

    Ops are single-CB transport blocks small enough that their real decode
    stays cheap; they are decoded once, for the largest row, through
    cpu_decode_batch.  Timing depends only on the model.
    """
    if not n_ops_list or min(n_ops_list) < 1:
        raise ConfigurationError(f"n_ops must be a non-empty list of counts >= 1: {n_ops_list}")
    check_limit("n_ops", max(n_ops_list), MAX_BULK_OPS)
    model = LookasideModel()
    rows = []
    n_max = max(n_ops_list)
    vectors = generate_cell_vectors(
        mcs=0, prb=2, snr_db=DEFAULT_STUDY_SNR_DB, n_tb=n_max, seed=seed
    )
    descriptors = [d for v in vectors for d in v.descriptors]
    outcomes = cpu_decode_batch(descriptors).outcomes
    for n_ops in n_ops_list:
        ops, outs = descriptors[:n_ops], outcomes[:n_ops]
        seq = run_lookaside_sequential(ops, model, outs)
        blk = run_lookaside_bulk(ops, model, outs)
        seq_tput = n_ops / seq.total_us
        blk_tput = n_ops / blk.total_us
        rows.append(
            BulkStudyRow(
                n_ops=n_ops,
                sequential_tput=seq_tput,
                bulk_tput=blk_tput,
                ratio=blk_tput / seq_tput,
            )
        )
    return rows


@dataclass(frozen=True)
class ParallelStudyRow:
    n_ue: int
    sequential_kernel_us: float
    parallel_kernel_us: float
    sequential_total_us: float
    parallel_total_us: float
    sequential_utilization: float
    parallel_utilization: float


def _split_prbs(prb_total: int, n_ue: int) -> list[int]:
    """Equal PRB shares per UE, remainder to the last UE."""
    share = prb_total // n_ue
    return [share] * (n_ue - 1) + [prb_total - share * (n_ue - 1)]


def run_parallel_study(
    n_ue_list: list[int],
    prb_total: int,
    mcs: int = DEFAULT_STUDY_MCS,
    seed: int = 2024,
) -> list[ParallelStudyRow]:
    """Sequential vs parallel launches at constant total data volume, on the
    default inline model.

    Each UE gets floor(prb_total / n_ue) PRBs (remainder to the last UE) and
    one TB, decoded once for both launch modes.  Kernel columns exclude
    transfers, total columns include them.
    """
    if not n_ue_list:
        raise ConfigurationError("n_ue must be a non-empty list of UE counts")
    model = InlineModel()
    rows = []
    for n_ue in n_ue_list:
        if n_ue < 1 or n_ue > prb_total:
            raise ConfigurationError(f"n_ue={n_ue} incompatible with prb_total={prb_total}")
        batches = []
        for ue, prb in enumerate(_split_prbs(prb_total, n_ue)):
            vec = prepare_tb_vectors(
                random_transport_block(mcs, prb, np.random.default_rng(seed ^ ue)),
                DEFAULT_STUDY_SNR_DB,
                seed ^ ue,
                tb_id=ue,
            )
            batches.append(vec.descriptors)

        outcomes = cpu_decode_batch([d for b in batches for d in b]).outcomes
        seq_report = inline_decode_sequential(batches, model, outcomes)
        par_report = inline_decode_parallel(batches, model, outcomes)
        seq_timing = inline_timing_sequential(batches, model)
        par_timing = inline_timing_parallel(batches, model)
        rows.append(
            ParallelStudyRow(
                n_ue=n_ue,
                sequential_kernel_us=seq_timing.kernel_us,
                parallel_kernel_us=par_timing.kernel_us,
                sequential_total_us=seq_report.total_us,
                parallel_total_us=par_report.total_us,
                sequential_utilization=seq_timing.utilization,
                parallel_utilization=par_timing.utilization,
            )
        )
    return rows


@dataclass(frozen=True)
class IterationStudyRow:
    k: int
    rate: float
    iterations: int
    mean_us: float


def run_iteration_study(
    k_list: list[int] = (1936, 4224, 8440),
    rate_list: list[float] = (0.33, 0.88),
    iter_list: list[int] = (2, 4, 8),
    repeats: int = DEFAULT_REPEATS,
) -> list[IterationStudyRow]:
    """Wall-clock CPU decode time with early termination disabled.

    K is the per-CB information length including the TB CRC; the code rate
    sets the rate-matched length E = ceil(K / rate).  Each row decodes the
    noise-free all-zero codeword: with early termination off, the decode
    does the same work whatever its LLRs.  Each of the ``repeats`` rounds
    times one decode of every row, so a drift in host speed spreads over all
    rows instead of reordering them.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    check_limit("repeats", repeats, MAX_REPEATS)
    if not (k_list and rate_list and iter_list):
        raise ConfigurationError("k, rate and iteration lists must be non-empty")
    if not all(0 < rate < 1 for rate in rate_list):
        raise ConfigurationError(f"code rates must be in (0, 1), got {list(rate_list)}")
    cases = []
    for k in k_list:
        for rate in rate_list:
            b = k - 24
            if b <= 0:
                raise ConfigurationError(f"K={k} leaves no payload after the TB CRC")
            bg = select_base_graph(b, rate)
            plan = segment(b, bg)
            if plan.c != 1:
                raise ConfigurationError(f"K={k} does not fit a single code block")
            e = math.ceil(k / rate)
            params = replace(plan.params[0], e=e)
            llr = rate_dematch(bits_to_llrs(np.zeros(e, np.uint8)), params)
            cases += [(k, rate, iters, llr, params) for iters in iter_list]

    def decode(case):
        _, _, iters, llr, params = case
        decode_layered_minsum(llr, params, max_iterations=iters, early_termination=False)

    for case in cases:  # untimed warmup absorbs matrix expansion and cache faults
        decode(case)
    times = [[] for _ in cases]
    for _ in range(repeats):
        for case, row_times in zip(cases, times):
            t0 = time.perf_counter()
            decode(case)
            row_times.append((time.perf_counter() - t0) * 1e6)
    return [
        IterationStudyRow(k=k, rate=rate, iterations=iters, mean_us=float(np.mean(row_times)))
        for (k, rate, iters, _, _), row_times in zip(cases, times)
    ]
