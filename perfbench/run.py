#!/usr/bin/env python3
"""decodex benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep-4backend --seed 1 --seconds 20 --trace 0

A run sets up, runs one gate pass that checks every deterministic output,
then repeats timed passes of the workload (closed loop: one caller submits
the pass and waits) for ``--seconds``, and at least three times.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--write-reference`` records the gate pass at the reference seed in
reference.json instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import program

SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_BEYOND_TAIL = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = program.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(workload: str) -> list[float]:
    """Wall time of SETUP_PROBES fresh processes that each set the workload up."""
    probe = program.ROOT / "perfbench" / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, str(probe), workload], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile, in steps of 0.1, with MIN_BEYOND_TAIL samples beyond
    it in MIN_PASSES passes; fixed per workload, not by how many passes ran.
    """
    n = samples_per_pass * MIN_PASSES
    return max(50.0, math.floor(1000 * (1 - MIN_BEYOND_TAIL / n)) / 10)


def another_pass(walls: list[float], begin: float, seconds: float, minimum: int) -> bool:
    """True while fewer than ``minimum`` passes are done, or while one more
    pass, as long as the slowest so far, still ends within ``seconds``."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - begin + max(walls) <= seconds


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``: the quarter lowest and the
    quarter highest (rounded down) are left out."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def timed_passes(workload, seed, seconds, gate) -> tuple[list[float], list[list[float]]]:
    """Untraced passes for ``seconds``, and at least MIN_PASSES of them.

    Returns each pass's wall time and its per-TB latency samples, in the
    order the pass delivered its TBs."""
    from hooks import latency_tap

    walls, samples = [], []
    begin = time.perf_counter()
    while another_pass(walls, begin, seconds, MIN_PASSES):
        samples.append([])
        with latency_tap(workload.latency_targets(), samples[-1]):
            start = time.perf_counter()
            result = workload.run_pass(seed)
            walls.append(time.perf_counter() - start)
        gate.check_pass(workload.outputs(result))
    return walls, samples


def end_to_end(workload, seed, seconds, gate, setup_times) -> tuple[dict, list[str]]:
    import numpy as np

    walls, samples = timed_passes(workload, seed, seconds, gate)
    tbs, bits = workload.delivered()
    # Every pass delivers the same TBs in the same order, so each TB's
    # latency is the median of its repeats; one slow call cannot set a
    # percentile on its own.  Throughput is the work of all passes over
    # their summed wall time, not a median over passes: the host switches
    # between speed levels about 30% apart every few seconds, and a median
    # of a few passes jumps between the levels where a mean moves with the
    # share of time spent in each.
    per_tb = np.median(np.array(samples), axis=0)
    pct = tail_percentile(len(per_tb))
    tail = float(np.percentile(per_tb, pct))
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup_times),
        "info_mbps": len(walls) * bits / 1e6 / sum(walls),
        "tb_per_s": len(walls) * tbs / sum(walls),
        "tb_latency_iqm_us": interquartile_mean(per_tb),
        "tb_latency_tail_us": tail,
        "peak_rss_mb": rss_self,
    }
    notes = [
        f"passes: {len(walls)} timed, walls_s={[round(w, 3) for w in walls]}, "
        f"gate pass {gate.gate_wall:.3f} s",
        f"setup_s: median of {len(setup_times)} fresh processes {[round(t, 3) for t in setup_times]}",
        f"per pass: {tbs} TBs, {bits / 1e6:.3f} Mbit of payload",
        f"tb latency: per-TB medians of {len(walls)} repeats of {len(per_tb)} TBs; "
        f"p50 {np.percentile(per_tb, 50):.1f} us; the tail "
        f"is p{pct:g}, which leaves {MIN_BEYOND_TAIL} of the {MIN_PASSES * len(per_tb)} "
        f"samples of {MIN_PASSES} passes beyond it",
        f"peak_rss_mb is this process; children (set-up probes and pool workers) "
        f"peaked at {rss_children:.1f} MB",
    ]
    sample_file = program.OUT / f"samples_{workload.name}_seed{seed}.json"
    sample_file.write_text(json.dumps({"walls_s": walls, "tb_latency_us": samples}))
    notes.append(f"pass walls and per-TB latency samples -> {sample_file.name}")
    return metrics, notes


def traced(workload, seed, seconds, gate, expand_s) -> tuple[dict, list[str]]:
    from tracing import Tracer, layer_metrics
    from decodex.ldpc import expand_base_graph

    tracer = Tracer()
    summaries = []
    spans = []
    untraced_walls = []
    begin = time.perf_counter()
    rounds = []
    while another_pass(rounds, begin, seconds, MIN_TRACED_PASSES):
        round_start = time.perf_counter()
        # Untraced and traced passes alternate, so drift hits both alike.
        start = time.perf_counter()
        gate.check_pass(workload.outputs(workload.run_pass(seed)))
        untraced_walls.append(time.perf_counter() - start)
        with tracer.install():
            tracer.reset()
            start = time.perf_counter()
            result = workload.run_pass(seed)
            wall = time.perf_counter() - start
        summaries.append(tracer.summarize(wall))
        spans.append(tracer.spans)
        gate.check_pass(workload.outputs(result))
        rounds.append(time.perf_counter() - round_start)
    untraced_wall = statistics.median(untraced_walls)
    misses = expand_base_graph.cache_info().misses
    metrics = layer_metrics(summaries, untraced_wall, expand_s, misses, gate)

    span_file = program.OUT / f"spans_{workload.name}_seed{seed}.jsonl"
    with open(span_file, "w") as f:
        for i, pass_spans in enumerate(spans):
            for span in pass_spans:
                f.write(json.dumps([i, *span]) + "\n")

    wall = metrics["trace.wall_s"]
    last = summaries[-1]
    shares = sorted(last["self_s"].items(), key=lambda kv: -kv[1])
    worker_s = sum(v for k, v in last["times"].items() if k.startswith("decode.worker_s."))
    notes = [
        f"traced passes: {len(summaries)}, walls_s={[round(s['wall_s'], 3) for s in summaries]}; "
        f"untraced walls_s={[round(w, 3) for w in untraced_walls]}; {last['n_spans']} spans per pass -> {span_file.name}",
        "self-time share of the traced wall (last pass): "
        + ", ".join(f"{k} {v / last['wall_s']:.1%}" for k, v in shares if v / last["wall_s"] >= 0.005),
        f"unaccounted by any layer: {metrics['trace.unaccounted_s']:.4f} s; "
        f"tracing overhead {metrics['trace.overhead_s']:+.3f} s of {wall:.3f} s",
    ]
    if worker_s:
        notes.append(
            f"pool workers decoded for {worker_s:.3f} s (from per-TB latencies; their spans do "
            "not come back): counted in ldpc.decode.*, while the parent waits inside backends.cpu")
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    program.load()
    import check
    from workloads import DEFAULT_SEED, WORKLOADS, warm_caches

    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    env = environment()

    setup_times = [] if args.trace or args.write_reference else measure_setup(workload.name)
    expand_s = warm_caches(workload.allocations())
    if args.write_reference:
        result = workload.run_pass(seed)
        check.write_reference(workload.name, seed, workload.outputs(result))
        print(f"wrote the {workload.name} reference at seed {seed}")
        return 0
    program.OUT.mkdir(exist_ok=True)
    gate = check.Gate(workload, seed)
    gate.run_gate_pass()

    if args.trace:
        metrics, notes = traced(workload, seed, args.seconds, gate, expand_s)
        declared = spec["per_layer"]
    else:
        metrics, notes = end_to_end(workload, seed, args.seconds, gate, setup_times)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    env["loadavg_end"] = os.getloadavg()

    failed = len(gate.failures)
    print(f"# env {json.dumps(env)}")
    print(f"# {workload.name} seed={seed} trace={args.trace} "
          f"({'exact reference' if gate.exact else 'invariants'} checked)")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_ratio':36s} {failed / gate.checks:14.6g} ratio")
    for note in notes:
        print(f"# {note}")
    print(f"# checks: {gate.checks} attempted, {failed} failed; "
          f"CRC-detected TB errors {gate.crc_detected_errors}, undetected {gate.undetected_errors}")
    for failure in gate.failures[:20]:
        print(f"# FAIL {failure}")

    out = {
        "correct": failed == 0,
        "attempted": gate.checks,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(out, workload=workload.name, seed=seed, trace=args.trace, env=env,
                  notes=notes, failures=gate.failures[:100])
    (program.OUT / f"{workload.name}_seed{seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
