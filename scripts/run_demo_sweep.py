#!/usr/bin/env python3
"""Small end-to-end demo: sweep two backends over a 2x3 MCS/SNR grid.

Writes demo_sweep.csv next to this script and prints the grid to stdout.
Takes about a minute on a laptop; shrink n_tb for a quicker look.
"""

import pathlib

from decodex.bench import SweepConfig, emit, render_csv, run_sweep

config = SweepConfig(
    backends=("cpu", "lookaside", "inline-unified"),
    mcs_set=(4, 9),
    snr_grid_db=(0.0, 4.0, 8.0),
    prb_set=(50,),
    n_tb=20,
    seed=2025,
)

records = run_sweep(config)
out = pathlib.Path(__file__).parent / "demo_sweep.csv"
emit(records, "csv", out)
print(render_csv(records))
print(f"wrote {out}")
