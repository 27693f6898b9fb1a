"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s`.  Wall-clock criteria use
the real decoder; virtual-clock criteria are deterministic and asserted at
exact tolerances.
"""

import math

import numpy as np
import pytest

from decodex.backends import LookasideModel, cpu_decode_batch, run_lookaside_bulk
from decodex.bench import run_bulk_study, run_cell, run_iteration_study, run_parallel_study
from decodex.ldpc import decode_layered_minsum, encode
from decodex.nr.crc import CRC24A_POLY, CRC24B_POLY, crc24
from decodex.phy import generate_cell_vectors

from helpers import crc_bit_serial, error_patterns, ml_codeword, outcomes_of, toy_code_table


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- 1. codec correctness -------------------------------------------------

# (mcs, prb) cells covering BG1/BG2, C=1/C>1, Qm 2/4/6
ROUND_TRIP_CELLS = [
    (4, 8),     # BG2 C=1  Qm2
    (1, 80),    # BG2 C=2  Qm2
    (9, 25),    # BG1 C=1  Qm2
    (9, 100),   # BG1 C=3  Qm2
    (10, 6),    # BG2 C=1  Qm4
    (15, 60),   # BG1 C=3  Qm4
    (17, 4),    # BG2 C=1  Qm6
    (19, 50),   # BG1 C=3  Qm6
]


def test_criterion_1_codec_round_trip():
    from decodex.nr import reassemble

    failures = 0
    total = 0
    for idx, (mcs, prb) in enumerate(ROUND_TRIP_CELLS):
        vecs = generate_cell_vectors(mcs, prb, snr_db=30.0, n_tb=50, seed=1000 + idx)
        for vec in vecs:
            decoded = [
                decode_layered_minsum(d.llr, d.cb_params, d.max_iterations).bits
                for d in vec.descriptors
            ]
            res = reassemble(decoded, vec.tb)
            total += 1
            if not (res.ok and np.array_equal(res.payload_bits, vec.tb.payload_bits)):
                failures += 1
    _report(
        "criterion 1 (round-trip BLER = 0 at 30 dB)",
        failures == 0,
        f"{failures}/{total} TB failures over {len(ROUND_TRIP_CELLS)} cells",
    )


# --- 2. toy-code ML oracle ------------------------------------------------

def test_criterion_2_toy_ml_agreement():
    params, codewords, pm = toy_code_table(4)
    n = params.n_full

    def agreement(weight):
        unique = agree = 0
        for pos in error_patterns(n, weight):
            llr = np.full(n, 16, dtype=np.int8)
            llr[list(pos)] = -16
            ml_idx = ml_codeword(pm, llr)
            if ml_idx is None:
                continue
            unique += 1
            res = decode_layered_minsum(llr, params)
            if res.converged and np.array_equal(encode(res.bits, params), codewords[ml_idx]):
                agree += 1
        return agree, unique

    a1, u1 = agreement(1)
    a2, u2 = agreement(2)
    ok = (u1 == n) and (a1 == u1) and (a2 / u2 >= 0.95)
    _report(
        "criterion 2 (toy ML agreement)",
        ok,
        f"weight-1 {a1}/{u1}, weight-2 {a2}/{u2} ({100 * a2 / u2:.1f}% >= 95%)",
    )


# --- 3. CRC oracle --------------------------------------------------------

def test_criterion_3_crc_oracle():
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(1000):
        bits = rng.integers(0, 2, int(rng.integers(1, 256)), dtype=np.uint8)
        if crc24(bits, "A") != crc_bit_serial(bits, CRC24A_POLY):
            mismatches += 1
        if crc24(bits, "B") != crc_bit_serial(bits, CRC24B_POLY):
            mismatches += 1
    _report("criterion 3 (CRC24 A/B vs bit-serial oracle)", mismatches == 0,
            f"{mismatches} mismatches in 1000 messages x 2 variants")


# --- 4. SNR -> iterations trend --------------------------------------------

def test_criterion_4_iterations_track_snr():
    means = []
    for snr_db in (0.0, 4.0, 8.0):
        rec = run_cell("cpu", 9, snr_db, 100, 200, seed=404)
        means.append(rec.mean_iterations)
    ok = means[0] > means[1] > means[2]
    _report("criterion 4 (mean iterations fall as SNR rises)", ok,
            f"SNR 0/4/8 dB -> {means[0]:.2f} / {means[1]:.2f} / {means[2]:.2f}")


# --- 5 & 6. PRB scaling: CPU grows, lookaside stays flat -------------------

@pytest.fixture(scope="module")
def prb_sweep_records():
    """Mean per-TB CPU latency per PRB (the TBs run_cell's cpu cells decode,
    on one worker), and the lookaside records.

    The host's speed drifts between and within runs.  So after one warm-up
    decode per cell, which fills its shape caches, the cells' TBs are decoded
    one at a time with the four cells interleaved TB by TB, and each TB keeps
    its fastest latency over 3 such repeats.
    """
    prbs = (50, 100, 150, 200)
    cells = [generate_cell_vectors(9, prb, 8.0, 30, seed=505) for prb in prbs]
    for vectors in cells:
        cpu_decode_batch(vectors[0].descriptors, workers=1)
    fastest = [[math.inf] * 30 for _ in prbs]
    for _ in range(3):
        for i, same_index in enumerate(zip(*cells)):
            for per_tb, vec in zip(fastest, same_index):
                (us,) = cpu_decode_batch(vec.descriptors, workers=1).tb_latency_us.values()
                per_tb[i] = min(per_tb[i], us)
    cpu_means = [float(np.mean(per_tb)) for per_tb in fastest]
    look = [run_cell("lookaside", 9, 8.0, prb, 30, seed=505) for prb in prbs]
    return cpu_means, look


def test_criterion_5_cpu_latency_grows_with_prb(prb_sweep_records):
    means, _ = prb_sweep_records
    ok = all(a < b for a, b in zip(means, means[1:]))
    _report("criterion 5 (CPU latency strictly increasing in PRB)", ok,
            "PRB 50..200 -> " + " / ".join(f"{m:.0f}us" for m in means))


def test_criterion_6_lookaside_latency_flat_in_prb(prb_sweep_records):
    _, look = prb_sweep_records
    means = [r.mean_us for r in look]
    ratio = max(means) / min(means)
    _report("criterion 6 (lookaside PRB flatness)", ratio <= 1.10,
            f"max/min mean virtual latency = {ratio:.4f} <= 1.10")


# --- 7. bulk throughput ratio ----------------------------------------------

def test_criterion_7_bulk_throughput_ratio():
    rows = run_bulk_study([1, 10, 100, 1000])
    ratios = [r.ratio for r in rows]
    ok = (
        ratios[0] == 1.0
        and 24.0 <= ratios[-1] <= 30.0
        and all(a <= b for a, b in zip(ratios, ratios[1:]))
    )
    _report("criterion 7 (bulk/sequential throughput)", ok,
            "ratios " + " / ".join(f"{r:.2f}" for r in ratios) + " (1.0 exact, final in [24, 30])")


# --- 8. parallel kernel ratio and utilization ------------------------------

def test_criterion_8_parallel_kernel_ratio_and_utilization():
    rows = run_parallel_study([1, 2, 5, 10], 200)
    by_ue = {r.n_ue: r for r in rows}
    r1, r10 = by_ue[1], by_ue[10]
    ratio1 = r1.sequential_kernel_us / r1.parallel_kernel_us
    ratio10 = r10.sequential_kernel_us / r10.parallel_kernel_us
    par_utils = [by_ue[n].parallel_utilization for n in (1, 2, 5, 10)]
    seq_utils = [by_ue[n].sequential_utilization for n in (1, 2, 5, 10)]
    seq_spread = (max(seq_utils) - min(seq_utils)) / max(seq_utils)
    ok = (
        ratio1 == 1.0
        and 15.0 <= ratio10 <= 25.0
        and all(a < b for a, b in zip(par_utils, par_utils[1:]))
        and seq_spread <= 0.05
    )
    _report(
        "criterion 8 (parallel launch ratio/utilization)",
        ok,
        f"ratio(1)={ratio1:.2f}, ratio(10)={ratio10:.2f} in [15, 25], "
        f"parallel util {par_utils[0]:.3f}->{par_utils[-1]:.3f} strictly up, "
        f"sequential util spread {100 * seq_spread:.1f}% <= 5%",
    )


# --- 9. iteration/size study -----------------------------------------------

def test_criterion_9_latency_grows_with_iters_and_k():
    # The host's speed drifts, so after a warm-up each row keeps its fastest
    # mean over 10 short studies (2 timed decodes a row, about 1 s a study):
    # rows compared against each other are measured seconds apart at most.
    study = dict(k_list=[1936, 4224, 8440], rate_list=[0.33, 0.88], iter_list=[2, 4, 8])
    run_iteration_study(**study, repeats=1)
    table = {}
    for _ in range(10):
        for r in run_iteration_study(**study, repeats=2):
            key = (r.k, r.rate, r.iterations)
            table[key] = min(table.get(key, math.inf), r.mean_us)
    iters_ok = all(
        table[(k, rate, 2)] < table[(k, rate, 4)] < table[(k, rate, 8)]
        for k in (1936, 4224, 8440)
        for rate in (0.33, 0.88)
    )
    size_ok = all(
        table[(1936, 0.33, it)] < table[(4224, 0.33, it)] for it in (2, 4, 8)
    )
    _report(
        "criterion 9 (latency grows with iterations and K)",
        iters_ok and size_ok,
        f"iters monotone: {iters_ok}, K monotone at rate 0.33: {size_ok}; "
        f"e.g. K=8440@0.88: {table[(8440, 0.88, 2)]:.0f}/{table[(8440, 0.88, 4)]:.0f}/"
        f"{table[(8440, 0.88, 8)]:.0f} us",
    )


# --- 10. conservation and determinism ---------------------------------------

def test_criterion_10_conservation_and_determinism():
    rng = np.random.default_rng(1010)
    pool = [
        d
        for v in generate_cell_vectors(0, 2, 30.0, 48, seed=77)
        for d in v.descriptors
    ]
    outcomes = outcomes_of(pool)
    conserved = 0
    scenarios = 100
    for _ in range(scenarios):
        n = int(rng.integers(1, 41))
        depth = int(rng.integers(1, 65))
        model = LookasideModel()
        report = run_lookaside_bulk(pool[:n], model, outcomes[:n], depth=depth)
        if report.failure is None and report.enq_count == report.deq_count == n:
            conserved += 1

    a = run_lookaside_bulk(pool[:16], LookasideModel(), outcomes[:16])
    b = run_lookaside_bulk(pool[:16], LookasideModel(), outcomes[:16])
    reproducible = (
        a.tb_latency_us == b.tb_latency_us
        and a.total_us == b.total_us
        and all(np.array_equal(x.bits, y.bits) for x, y in zip(a.outcomes, b.outcomes))
    )

    cells_equal = 0
    n_cells = 20
    for i in range(n_cells):
        mcs = int(rng.integers(0, 10))
        snr = float(rng.uniform(-2, 8))
        prb = int(rng.integers(4, 20))
        blers = {
            kind: run_cell(kind, mcs, snr, prb, 2, seed=2000 + i).bler
            for kind in ("cpu", "lookaside", "inline", "inline-unified")
        }
        if len(set(blers.values())) == 1:
            cells_equal += 1

    ok = conserved == scenarios and reproducible and cells_equal == n_cells
    _report(
        "criterion 10 (conservation, determinism, cross-backend equality)",
        ok,
        f"enq==deq in {conserved}/{scenarios} scenarios, bit-reproducible={reproducible}, "
        f"BLER equal in {cells_equal}/{n_cells} cells",
    )


# --- 11. BLER waterfall ------------------------------------------------------

def test_criterion_11_bler_waterfall():
    blers = []
    for snr_db in (-2.0, 0.0, 2.0):
        rec = run_cell("cpu", 4, snr_db, 50, 300, seed=1111)
        blers.append(rec.bler)
    inversions = [
        (a, b) for a, b in zip(blers, blers[1:]) if b > a and not (a < 0.01 and b < 0.01)
    ]
    _report(
        "criterion 11 (BLER waterfall)",
        not inversions,
        f"BLER at -2/0/2 dB = {blers[0]:.3f} / {blers[1]:.3f} / {blers[2]:.3f}",
    )
