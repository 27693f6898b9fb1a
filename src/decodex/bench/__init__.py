"""Benchmark harness: sweeps, dispatch studies, and the decodex CLI."""

from .emit import parse_csv, render_csv, render_json
from .studies import (
    BulkStudyRow,
    IterationStudyRow,
    ParallelStudyRow,
    run_bulk_study,
    run_iteration_study,
    run_parallel_study,
)
from .sweep import SweepConfig, SweepRecord, cell_seed, run_cell, run_sweep

__all__ = [
    "BulkStudyRow",
    "IterationStudyRow",
    "ParallelStudyRow",
    "SweepConfig",
    "SweepRecord",
    "cell_seed",
    "parse_csv",
    "render_csv",
    "render_json",
    "run_bulk_study",
    "run_cell",
    "run_iteration_study",
    "run_parallel_study",
    "run_sweep",
]
