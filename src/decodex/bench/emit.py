"""Machine-readable sweep output: CSV and JSON."""

from __future__ import annotations

import json
import math
import typing

from .sweep import EMIT_FIELDS, SweepRecord

CSV_HEADER = ",".join(EMIT_FIELDS)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_csv(records: list, fields: tuple[str, ...] = EMIT_FIELDS) -> str:
    """One CSV row per record over ``fields``: floats to 6 significant
    digits, None as an empty cell."""
    lines = [",".join(fields)]
    for r in records:
        lines.append(",".join(_cell(getattr(r, f)) for f in fields))
    return "\n".join(lines) + "\n"


def _json_value(value):
    """A float as its CSV cell's text: a number when finite, else the text
    itself ("inf", "nan"), since RFC 8259 JSON has no non-finite numbers."""
    if not isinstance(value, float):
        return value
    text = _cell(value)
    return float(text) if math.isfinite(value) else text


def render_json(records: list[SweepRecord]) -> str:
    rows = [{f: _json_value(getattr(r, f)) for f in EMIT_FIELDS} for r in records]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def parse_csv(text: str) -> list[dict]:
    """Inverse of render_csv, for round-trip checks and downstream tooling:
    each column is parsed by the type of its SweepRecord field, and an empty
    cell of an optional field is None."""
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    hints = typing.get_type_hints(SweepRecord)
    out = []
    for ln in lines[1:]:
        row = {}
        for key, val in zip(EMIT_FIELDS, ln.split(",")):
            cast, *optional = typing.get_args(hints[key]) or (hints[key],)
            row[key] = None if optional and val == "" else cast(val)
        out.append(row)
    return out
