"""Command-line interface.

Subcommands: sweep, bulk-study, parallel-study, iter-study, vectors.
Every command writes its output through ``_write``: an output path of "-"
is stdout, and status lines go to stderr.
Exit codes: 0 on success, 1 on configuration errors (usage errors and
unwritable output paths included), 2 when any sweep cell reports a failure
state.  DECODEX_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import typing

from ..backends import DEFAULT_MODELS
from ..ldpc import ConfigurationError
from ..phy import dump_golden_vectors, generate_cell_vectors
from .emit import render_csv, render_json
from .studies import (
    DEFAULT_BULK_N_OPS,
    DEFAULT_STUDY_MCS,
    BulkStudyRow,
    IterationStudyRow,
    ParallelStudyRow,
    run_bulk_study,
    run_iteration_study,
    run_parallel_study,
)
from .sweep import DEFAULT_SEED, MAX_N_TB, SweepConfig, check_limit, run_sweep

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_CELL_FAILURE = 2


# [sweep] keys named differently from their SweepConfig field
_SWEEP_ALIASES = {"mcs": "mcs_set", "snr_db": "snr_grid_db", "prb": "prb_set"}


def _parse_list(text: str, cast):
    return tuple(cast(tok.strip()) for tok in text.split(",") if tok.strip())


def _env_seed(seed: int) -> int:
    """DECODEX_SEED, when set, overrides the configured seed."""
    text = os.environ.get("DECODEX_SEED", str(seed))
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"DECODEX_SEED must be an integer, got {text!r}") from None


def _section_kwargs(cls, section, names={}) -> dict:
    """Constructor arguments for dataclass ``cls`` from an INI section.

    Each key, renamed through ``names``, must be a field of ``cls`` typed
    int, float, str or a tuple of one of them, which takes a comma-separated
    list; its value is parsed by that type.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, text in section.items():
        name = names.get(key, key)
        hint = hints.get(name)
        cast = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else hint
        if cast not in (int, float, str):
            raise ConfigurationError(f"unknown key {key!r} in [{section.name}]")
        try:
            kwargs[name] = cast(text) if cast is hint else _parse_list(text, cast)
        except ValueError as exc:
            raise ConfigurationError(f"[{section.name}] {key}: {exc}") from None
    return kwargs


def load_sweep_config(path: str | None) -> SweepConfig:
    """Build a SweepConfig from an INI config file.

    Sections: [sweep] for the grid, [model.<backend>] for fields of that
    backend's LookasideModel or InlineModel (durations in microseconds,
    transfer_per_byte in us/byte).
    Values are literal: no interpolation, and no [DEFAULT] section.
    """
    kwargs = {}
    models = {}
    if path:
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            found = parser.read(path)
        except configparser.Error as exc:
            raise ConfigurationError(str(exc)) from None
        if not found:
            raise ConfigurationError(f"cannot read config file {path}")
        for name in parser.sections():
            kind = name.removeprefix("model.")
            if name == "sweep":
                kwargs = _section_kwargs(SweepConfig, parser[name], _SWEEP_ALIASES)
            elif name != kind and kind in DEFAULT_MODELS:
                overrides = _section_kwargs(type(DEFAULT_MODELS[kind]), parser[name])
                models[kind] = dataclasses.replace(DEFAULT_MODELS[kind], **overrides)
            else:
                raise ConfigurationError(f"unknown section [{name}]")
    kwargs["seed"] = _env_seed(kwargs.get("seed", DEFAULT_SEED))
    return SweepConfig(**kwargs, models=models)


def _check_out(path: str) -> None:
    """Fail before any work runs when output ``path`` is empty, a directory,
    or in a missing or unwritable directory; "-" is stdout."""
    if path == "-":
        return
    if not path:
        raise ConfigurationError("cannot write an empty output path")
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigurationError(f"cannot write {path}: {folder} is not a writable directory")
    if os.path.isdir(path):
        raise ConfigurationError(f"cannot write {path}: it is a directory")


def _write(text: str, out: str) -> None:
    """Write a command's output to stdout when ``out`` is "-", else to the file."""
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def _cmd_sweep(args) -> int:
    config = load_sweep_config(args.config)
    _check_out(args.out)
    records = run_sweep(config)
    _write(render_csv(records) if args.format == "csv" else render_json(records), args.out)
    failures = [r for r in records if r.failure]
    for r in failures:
        print(
            f"cell failure: backend={r.backend} mcs={r.mcs} snr={r.snr_db} "
            f"prb={r.prb}: {r.failure}",
            file=sys.stderr,
        )
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return EXIT_CELL_FAILURE if failures else EXIT_OK


def _render_table(row_type, rows) -> str:
    """Study rows as CSV with one column per field of ``row_type``."""
    return render_csv(rows, tuple(f.name for f in dataclasses.fields(row_type)))


def _cmd_bulk_study(args) -> int:
    n_ops = list(_parse_list(args.n_ops, int))
    _check_out(args.out)
    _write(_render_table(BulkStudyRow, run_bulk_study(n_ops)), args.out)
    return EXIT_OK


def _cmd_parallel_study(args) -> int:
    n_ue = list(_parse_list(args.ue, int))
    _check_out(args.out)
    rows = run_parallel_study(n_ue, args.prb, mcs=args.mcs)
    _write(_render_table(ParallelStudyRow, rows), args.out)
    return EXIT_OK


def _cmd_iter_study(args) -> int:
    _check_out(args.out)
    rows = run_iteration_study(
        k_list=list(_parse_list(args.k, int)),
        rate_list=list(_parse_list(args.rates, float)),
        iter_list=list(_parse_list(args.iters, int)),
    )
    _write(_render_table(IterationStudyRow, rows), args.out)
    return EXIT_OK


def _cmd_vectors(args) -> int:
    seed = _env_seed(args.seed)
    check_limit("n_tb", args.n_tb, MAX_N_TB)
    _check_out(args.dump)
    vectors = generate_cell_vectors(args.mcs, args.prb, args.snr, args.n_tb, seed)
    _write(dump_golden_vectors(vectors, args.snr, seed), args.dump)
    print(f"wrote {sum(len(v.descriptors) for v in vectors)} code blocks to {args.dump}",
          file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); 2 means a failed cell."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decodex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a backend x MCS x SNR x PRB sweep")
    p.add_argument("--config", help="config file ([sweep] and [model.*] sections)")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bulk-study", help="sequential vs bulk queue throughput")
    p.add_argument("--n-ops", default=",".join(map(str, DEFAULT_BULK_N_OPS)))
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bulk_study)

    p = sub.add_parser("parallel-study", help="sequential vs parallel launches")
    p.add_argument("--ue", default="1,2,5,10")
    p.add_argument("--prb", type=int, default=200)
    p.add_argument("--mcs", type=int, default=DEFAULT_STUDY_MCS)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_parallel_study)

    p = sub.add_parser("iter-study", help="forced-iteration CPU decode timing")
    p.add_argument("--k", default="1936,4224,8440")
    p.add_argument("--rates", default="0.33,0.88")
    p.add_argument("--iters", default="2,4,8")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_iter_study)

    p = sub.add_parser("vectors", help="dump golden test vectors")
    p.add_argument("--dump", required=True, help="output path")
    p.add_argument("--mcs", type=int, default=4)
    p.add_argument("--prb", type=int, default=20)
    p.add_argument("--snr", type=float, default=8.0)
    p.add_argument("--n-tb", type=int, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_vectors)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
