"""Correctness gate: every deterministic output of a run is checked.

The first pass of a run is the gate pass.  At the reference seed its outputs
must equal the committed reference exactly; at any seed they must satisfy
the workload's invariants.  During the gate pass, probes on the program's
entry points check every delivered TB against the payload that was sent and
every lookaside drain for ``enq == deq``.  Every later pass must reproduce
the gate pass bit for bit.  Each comparison is one check; ``failed`` counts
the checks that did not hold.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import decodex.backends as backends
import decodex.bench.studies as studies
import decodex.bench.sweep as sweep
from decodex.nr import reassemble

from hooks import patched

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


def write_reference(workload: str, seed: int, outputs: dict) -> None:
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    data[workload] = {"seed": seed, "outputs": outputs}
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


class Gate:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference(workload.name)
        self.checks = 0
        self.failures: list[str] = []
        self.first: dict | None = None
        self.crc_detected_errors = 0
        self.undetected_errors = 0
        self.gate_wall = 0.0
        self._tb_of: dict[int, object] = {}
        self._keep: list = []

    @property
    def exact(self) -> bool:
        """True when this seed has a committed reference to match exactly."""
        return self.reference is not None and self.reference["seed"] == self.seed

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def check_pass(self, outputs: dict[str, dict]) -> None:
        if self.first is not None:
            self.check(outputs.keys() == self.first.keys(), "pass emitted other records")
            for key, row in outputs.items():
                self.check(row == self.first.get(key), f"{key}: differs from the gate pass")
            return
        self.first = outputs
        for key, row in outputs.items():
            self.check(row.get("failure") is None, f"{key}: failure state {row.get('failure')}")
        for problem in self.workload.invariant_violations(outputs):
            self.check(False, problem)
        self.check(bool(outputs), "pass emitted no records")
        if self.exact:
            expected = self.reference["outputs"]
            self.check(outputs.keys() == expected.keys(), "records differ from the reference")
            for key, row in expected.items():
                self.check(outputs.get(key) == row, f"{key}: {outputs.get(key)} != reference {row}")

    # -- probes active during the gate pass ---------------------------------

    def _check_tb(self, blocks, tb):
        result = reassemble(blocks, tb)
        if not result.ok:
            self.crc_detected_errors += 1  # a TB lost to noise: correct output
        wrong = result.ok and not np.array_equal(result.payload_bits, tb.payload_bits)
        self.undetected_errors += int(wrong)
        self.check(not wrong, f"TB passed its CRCs with a wrong payload (mcs={tb.mcs} prb={tb.prb})")
        return result

    def _remember_vectors(self, fn):
        def remember(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._keep.append(result)  # keeps ids unique for the pass
            for vec in result if isinstance(result, list) else [result]:
                for d in vec.descriptors:
                    self._tb_of[id(d)] = vec.tb
            return result

        return remember

    def _checked_backend(self, fn, check_payloads: bool):
        def checked(descriptors, *args, **kwargs):
            report = fn(descriptors, *args, **kwargs)
            flat = [d for item in descriptors for d in (item if isinstance(item, list) else [item])]
            if report.enq_count is not None:
                self.check(
                    report.failure is None and report.enq_count == report.deq_count == len(flat),
                    f"lookaside drain: enq={report.enq_count} deq={report.deq_count} "
                    f"ops={len(flat)} failure={report.failure}",
                )
            if check_payloads:
                tbs = {d.tb_id: self._tb_of[id(d)] for d in flat}
                decoded = report.bits_by_tb()
                self.check(decoded.keys() == tbs.keys(), "backend call lost TBs")
                for tb_id, tb in tbs.items():
                    if tb_id in decoded:
                        self._check_tb(decoded[tb_id], tb)
            return report

        return checked

    def probes(self):
        """Wrappers for the gate pass: payload checks and drain checks."""
        study_calls = ("run_lookaside_sequential", "run_lookaside_bulk",
                       "inline_decode_sequential", "inline_decode_parallel")
        replacements = [(sweep, "reassemble", self._check_tb)]
        replacements += [
            (backends, name, self._checked_backend(getattr(backends, name), False))
            for name in ("run_lookaside_sequential", "run_lookaside_bulk")
        ]
        replacements += [
            (studies, name, self._remember_vectors(getattr(studies, name)))
            for name in ("generate_cell_vectors", "prepare_tb_vectors")
        ]
        replacements += [
            (studies, name, self._checked_backend(getattr(studies, name), True))
            for name in study_calls
        ]
        return patched(replacements)

    def run_gate_pass(self) -> None:
        """Run the gate pass under the probes and check its outputs."""
        with self.probes():
            start = time.perf_counter()
            result = self.workload.run_pass(self.seed)
            self.gate_wall = time.perf_counter() - start
        self._tb_of.clear()
        self._keep.clear()
        self.check_pass(self.workload.outputs(result))
