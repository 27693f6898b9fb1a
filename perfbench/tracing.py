"""Traced run: spans around the program's layer entry points.

Each wrapped call records one span ``(layer, start, end, parent, cell, tag)``
in memory; the spans are written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children, and a
layer's self time sums its spans' self times, so the layers' self times
partition the traced wall.  Counts are taken at the same boundaries.

The cpu backend with ``workers=2`` decodes in forked pool processes whose
spans never come back.  For those calls the decode counts come from the
report's outcomes and the decode time from its per-TB latencies, which the
workers measure around their decode loop; no per-call split of that time is
available.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import decodex.backends as backends
import decodex.backends.cpu as cpu
import decodex.backends.inline as inline
import decodex.backends.lookaside as lookaside
import decodex.bench.studies as studies
import decodex.bench.sweep as sweep
import decodex.nr.pipeline as pipeline
import decodex.phy.vectors as vectors

from hooks import patched


class Tracer:
    def __init__(self):
        self._stack: list[int] = []
        self.cell = ""
        self.reset()

    def reset(self) -> None:
        """Start a new pass: drop its spans and zero its counts."""
        self.spans: list = []
        self.counts: Counter = Counter()  # exact counts, repeat across passes
        self.times: Counter = Counter()   # seconds measured outside spans
        self.distinct_cbs: dict = {}

    def span(self, layer, fn, observe=None, cell=None):
        """Wrap fn so each call records a span of ``layer``.  ``observe`` sees
        the result and arguments and may return a tag; ``cell`` names the
        cell the call works on, for its own span and every span inside it."""
        stack = self._stack

        def traced(*args, **kwargs):
            outer_cell = self.cell
            if cell is not None:
                self.cell = cell(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tag = observe(result, *args, **kwargs) if observe else None
            self.spans[index] = (layer, start, end, parent, self.cell, tag)
            self.cell = outer_cell
            return result

        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observers ------------------------------------------------------------

    def _on_decode(self, result, llr, params, **_):
        c = self.counts
        c["decode.calls"] += 1
        c["decode.iterations"] += result.iterations_used
        c[f"decode.iterations.bg{params.bg}"] += result.iterations_used
        c["decode.converged"] += int(result.converged)
        return params.bg

    def _on_encode(self, *_, **__):
        self.counts["encode.calls"] += 1

    def _on_prepare(self, vec, tb, snr_db, seed, **_):
        self.counts["generate.calls"] += 1
        self.counts["generate.cbs"] += len(vec.descriptors)
        key = (tb.mcs, tb.prb, float(snr_db), seed, hash(tb.payload_bits.tobytes()))
        self.distinct_cbs[key] = len(vec.descriptors)

    def _on_lookaside(self, report, *_, **__):
        self.counts["lookaside.ops"] += report.enq_count

    def _on_inline(self, report, *_, **__):
        self.counts["inline.codewords"] += len(report.outcomes)

    def _cpu_submit(self, fn):
        spanned = self.span("backends.cpu", fn)

        def submit(descriptors, *args, **kwargs):
            workers = kwargs.get("workers", args[0] if args else 1)
            before = self.counts["decode.calls"]
            start = time.perf_counter()
            report = spanned(descriptors, *args, **kwargs)
            wall = time.perf_counter() - start
            pooled = self.counts["decode.calls"] - before < len(report.outcomes)
            width = workers if pooled else 1
            busy = sum(report.tb_latency_us.values()) / 1e6
            t = self.times
            t["cpu.busy_s"] += busy
            t["cpu.capacity_s"] += wall * width
            t["cpu.overhead_s"] += wall - busy / width
            if pooled:  # decoded in forked workers: take counts and time from the report
                bg_of = {d.tb_id: d.cb_params.bg for d in descriptors}
                c = self.counts
                for o in report.outcomes:
                    c["decode.calls"] += 1
                    c["decode.iterations"] += o.iterations_used
                    c[f"decode.iterations.bg{bg_of[o.tb_id]}"] += o.iterations_used
                    c["decode.converged"] += int(o.converged)
                for tb_id, us in report.tb_latency_us.items():
                    t[f"decode.worker_s.bg{bg_of[tb_id]}"] += us / 1e6
            return report

        return submit

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every layer entry point at the module global it is called through."""
        def run_cell_id(backend, mcs, snr_db, prb, *_, **__):
            return f"{backend}/mcs{mcs}/snr{snr_db:g}/prb{prb}"

        def fixed(name):
            return lambda *_, **__: name

        plain = [
            (sweep, "run_sweep", "bench.sweep"),
            (sweep, "generate_cell_vectors", "phy.vectors"),
            (sweep, "reassemble", "nr.pipeline"),
            (studies, "generate_cell_vectors", "phy.vectors"),
            (studies, "random_transport_block", "nr.pipeline"),
            (studies, "inline_timing_sequential", "backends.inline"),
            (studies, "inline_timing_parallel", "backends.inline"),
            (vectors, "random_transport_block", "nr.pipeline"),
            (vectors, "plan_transport_block", "nr.pipeline"),
            (vectors, "build_tb_descriptors", "nr.pipeline"),
            (vectors, "code_block_bits", "nr.pipeline"),
            (vectors, "rate_match", "nr.ratematch.match"),
            (vectors, "rate_dematch", "nr.ratematch.dematch"),
            (vectors, "modulate", "phy.modem.modulate"),
            (vectors, "demap_llr", "phy.modem.demap"),
            (vectors, "transmit", "phy.channel.transmit"),
            (pipeline, "attach_crc", "nr.crc"),
            (pipeline, "check_crc", "nr.crc"),
        ]
        observed = [
            (sweep, "run_cell", "bench.sweep", None, run_cell_id),
            (studies, "run_bulk_study", "bench.studies", None, fixed("bulk")),
            (studies, "run_parallel_study", "bench.studies", None, fixed("parallel")),
            (vectors, "encode", "ldpc.encode", self._on_encode, None),
            (vectors, "prepare_tb_vectors", "phy.vectors", self._on_prepare, None),
            (studies, "prepare_tb_vectors", "phy.vectors", self._on_prepare, None),
        ]
        observed += [
            (m, "decode_layered_minsum", "ldpc.decode", self._on_decode, None)
            for m in (cpu, lookaside, inline)
        ]
        observed += [
            (m, name, "backends.lookaside", self._on_lookaside, None)
            for m in (backends, studies)
            for name in ("run_lookaside_sequential", "run_lookaside_bulk")
        ]
        observed += [
            (m, name, "backends.inline", self._on_inline, None)
            for m in (backends, studies)
            for name in ("inline_decode_sequential", "inline_decode_parallel")
        ]
        replacements = [(m, a, self.span(layer, getattr(m, a))) for m, a, layer in plain]
        replacements += [
            (m, a, self.span(layer, getattr(m, a), observe, cell))
            for m, a, layer, observe, cell in observed
        ]
        replacements.append((backends, "cpu_decode_batch", self._cpu_submit(backends.cpu_decode_batch)))
        replacements.append((lookaside, "lookaside_dequeue",
                             self.counter("lookaside.dequeue_calls", lookaside.lookaside_dequeue)))
        return patched(replacements)

    # -- reduction --------------------------------------------------------------

    def summarize(self, wall: float) -> dict:
        """Reduce the current pass's spans to per-layer self and inclusive time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        decode_by_bg: Counter = Counter()
        root_s = 0.0
        for i, (layer, start, end, parent, _, tag) in enumerate(spans):
            own = end - start - child[i]
            self_s[layer] += own
            if layer == "ldpc.decode":
                decode_by_bg[tag] += own
            if parent < 0:
                root_s += end - start
            if _outermost(spans, i):
                incl_s[layer] += end - start
        return {
            "wall_s": wall,
            "root_s": root_s,
            "self_s": self_s,
            "incl_s": incl_s,
            "decode_s_by_bg": decode_by_bg,
            "counts": dict(self.counts),
            "times": dict(self.times),
            "distinct_cbs": sum(self.distinct_cbs.values()),
            "n_spans": len(spans),
        }


def _outermost(spans, i) -> bool:
    """True when no enclosing span belongs to the same layer."""
    layer, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return False
        parent = spans[parent][3]
    return True


EXACT_COUNTS = ("decode.calls", "decode.iterations", "encode.calls", "generate.calls",
                "lookaside.dequeue_calls")


def layer_metrics(passes: list[dict], untraced_wall: float, expand_s: float,
                  expand_misses: int, gate) -> dict[str, float]:
    """Per-layer metrics: exact counts from one pass (checked to repeat on
    every traced pass), times as the median over traced passes."""
    first = passes[0]
    counts = first["counts"]
    for p in passes[1:]:
        for name in EXACT_COUNTS:
            gate.check(p["counts"].get(name, 0) == counts.get(name, 0),
                       f"trace count {name} differs between passes")
        gate.check(p["distinct_cbs"] == first["distinct_cbs"], "distinct CB count differs")

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def self_s(layer):
        return med(lambda p: p["self_s"].get(layer, 0.0))

    def decode_s(p, bg=None):
        worker = [v for k, v in p["times"].items()
                  if k.startswith("decode.worker_s.") and (bg is None or k.endswith(f"bg{bg}"))]
        spans = p["self_s"].get("ldpc.decode", 0.0) if bg is None else p["decode_s_by_bg"].get(bg, 0.0)
        return spans + sum(worker)

    def per(numerator_s, count, scale=1e6):
        return numerator_s * scale / count if count else 0.0

    decode_calls = counts.get("decode.calls", 0)
    m = {
        "ldpc.decode.calls": decode_calls,
        "ldpc.decode.iterations_total": counts.get("decode.iterations", 0),
        "ldpc.decode.converged_ratio": per(counts.get("decode.converged", 0), decode_calls, 1.0),
        "ldpc.decode.self_s": med(decode_s),
    }
    for bg in (1, 2):
        iters = counts.get(f"decode.iterations.bg{bg}", 0)
        m[f"ldpc.decode.us_per_iter.bg{bg}"] = per(med(lambda p: decode_s(p, bg)), iters)
    encodes = counts.get("encode.calls", 0)
    m.update({
        "ldpc.encode.calls": encodes,
        "ldpc.encode.self_s": self_s("ldpc.encode"),
        "ldpc.encode.us_per_cb": per(self_s("ldpc.encode"), encodes),
        "ldpc.basegraph.expand_misses": expand_misses,
        "ldpc.basegraph.expand_s": expand_s,
        "nr.pipeline.self_s": self_s("nr.pipeline"),
        "nr.crc.self_s": self_s("nr.crc"),
        "nr.ratematch.match_s": self_s("nr.ratematch.match"),
        "nr.ratematch.dematch_s": self_s("nr.ratematch.dematch"),
        "nr.pipeline.crc_detected_errors": gate.crc_detected_errors,
        "nr.pipeline.undetected_errors": gate.undetected_errors,
        "phy.modem.modulate_s": self_s("phy.modem.modulate"),
        "phy.modem.demap_s": self_s("phy.modem.demap"),
        "phy.channel.transmit_s": self_s("phy.channel.transmit"),
        "phy.vectors.generate_calls": counts.get("generate.calls", 0),
        "phy.vectors.generate_s": med(lambda p: p["incl_s"].get("phy.vectors", 0.0)),
        "bench.sweep.decodes_per_cb": per(decode_calls, first["distinct_cbs"], 1.0),
        "backends.cpu.submit_s": med(lambda p: p["incl_s"].get("backends.cpu", 0.0)),
        "backends.cpu.worker_busy_ratio": med(
            lambda p: per(p["times"].get("cpu.busy_s", 0.0), p["times"].get("cpu.capacity_s", 0.0), 1.0)),
        "backends.cpu.pool_overhead_s": med(lambda p: p["times"].get("cpu.overhead_s", 0.0)),
        "backends.lookaside.self_s": self_s("backends.lookaside"),
        "backends.lookaside.host_us_per_op": per(self_s("backends.lookaside"),
                                                 counts.get("lookaside.ops", 0)),
        "backends.lookaside.dequeue_calls": counts.get("lookaside.dequeue_calls", 0),
        "backends.inline.self_s": self_s("backends.inline"),
        "backends.inline.host_us_per_op": per(self_s("backends.inline"),
                                              counts.get("inline.codewords", 0)),
        "bench.sweep.self_s": self_s("bench.sweep"),
        "bench.studies.self_s": self_s("bench.studies"),
        "trace.wall_s": med(lambda p: p["wall_s"]),
        "trace.unaccounted_s": med(lambda p: p["wall_s"] - p["root_s"]),
        "trace.overhead_s": med(lambda p: p["wall_s"]) - untraced_wall,
    })
    return m
