"""Temporary wrappers on the module globals the program calls through."""

from __future__ import annotations

import time
from contextlib import contextmanager


@contextmanager
def patched(replacements):
    """Set each (module, attribute, value) for the duration of the block,
    then restore the originals in reverse order."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def latency_tap(targets, samples: list[float]):
    """Wrap backend entry points so every TB a call delivers adds its host
    service time in microseconds to ``samples``.

    A report stamped with wall-clock latencies (the cpu backend) gives them
    per TB, as its workers measured them.  A virtual-clock backend decodes its
    TBs one after another on the host, so each TB gets an equal share of the
    call's host wall time.
    """

    def wrap(fn):
        def tapped(*args, **kwargs):
            start = time.perf_counter()
            report = fn(*args, **kwargs)
            wall_us = (time.perf_counter() - start) * 1e6
            if report.clock_type == "wall":
                samples.extend(report.tb_latency_us.values())
            else:
                n = len(report.tb_latency_us)
                samples.extend([wall_us / n] * n)
            return report

        return tapped

    return patched([(m, name, wrap(getattr(m, name))) for m, name in targets])
