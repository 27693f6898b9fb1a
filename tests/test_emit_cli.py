"""Output formats and the command-line interface."""

import json
import math
import subprocess
import sys

import pytest

import decodex.bench.cli as cli
from decodex.bench import parse_csv, render_csv, render_json, run_cell, studies, sweep
from decodex.bench.cli import main
from decodex.bench.emit import CSV_HEADER

EXPECTED_HEADER = (
    "backend,mcs,snr_db,prb,n_tb,bler,mean_iterations,p50_us,p99_us,mean_us,"
    "utilization,clock_type"
)


@pytest.fixture(scope="module")
def records():
    return [
        run_cell("lookaside", 4, 8.0, 10, 2, seed=3),
        run_cell("inline-unified", 4, 8.0, 10, 2, seed=3),
    ]


def test_csv_header_is_bit_exact(records):
    assert CSV_HEADER == EXPECTED_HEADER
    assert render_csv(records).split("\n")[0] == EXPECTED_HEADER


def test_single_record_makes_two_lines(records):
    text = render_csv(records[:1])
    assert len(text.strip().split("\n")) == 2


def test_csv_round_trip(records):
    rows = parse_csv(render_csv(records))
    for rec, row in zip(records, rows):
        assert row["backend"] == rec.backend
        assert row["mcs"] == rec.mcs
        assert row["bler"] == pytest.approx(rec.bler, abs=1e-9)
        assert row["mean_us"] == pytest.approx(rec.mean_us, rel=1e-5)
        if rec.utilization is None:
            assert row["utilization"] is None


def test_json_keys_match_csv_columns(records):
    rows = json.loads(render_json(records))
    assert list(rows[0].keys()) == EXPECTED_HEADER.split(",")


def _write_config(path, body):
    path.write_text(body)
    return str(path)


def test_cli_sweep_csv(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.ini",
        "[sweep]\nbackends = lookaside\nmcs = 0\nsnr_db = 8\nprb = 5\nn_tb = 1\nseed = 4\n",
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 2


def _fail_generation(*_, **__):
    raise RuntimeError("vector generation failed")


def test_cli_sweep_exit_code_2_on_cell_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "generate_cell_vectors", _fail_generation)
    cfg = _write_config(
        tmp_path / "cfg.ini",
        "[sweep]\nbackends = cpu\nmcs = 0\nsnr_db = 8\nprb = 5\nn_tb = 1\n",
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert len(out.read_text().strip().split("\n")) == 2  # record still emitted


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write_config(tmp_path / "cfg.ini", "[sweep]\nbackends = warp-drive\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o.csv")]) == 1


def test_cli_model_section(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.ini",
        "[sweep]\nbackends = lookaside\nmcs = 0\nsnr_db = 8\nprb = 5\nn_tb = 1\n"
        "[model.lookaside]\nop_service = 118\n",
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    row = parse_csv(out.read_text())[0]
    assert row["mean_us"] >= 118


def test_cli_bad_model_key(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.ini",
        "[sweep]\nbackends = lookaside\n[model.lookaside]\nwarp_factor = 9\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1


_TINY_SWEEP = "[sweep]\nbackends = lookaside\nmcs = 0\nsnr_db = 8\nprb = 5\nn_tb = 1\n"


@pytest.mark.parametrize(
    "body",
    [
        _TINY_SWEEP + "n_tbs = 3\n",
        _TINY_SWEEP + "[swep]\nn_tb = 3\n",
        _TINY_SWEEP + "models = x\n",
        _TINY_SWEEP + "n_tb = 2\n",
        _TINY_SWEEP + "[sweep]\nseed = 2\n",
        _TINY_SWEEP + "[DEFAULT]\nn_tb = 3\n",
        "n_tb = 3\n",
        _TINY_SWEEP + "seed = -1\n",
        _TINY_SWEEP + "max_iterations = 0\n",
        _TINY_SWEEP + "max_iterations = 256\n",
        _TINY_SWEEP.replace("mcs = 0", "mcs = 40"),
        _TINY_SWEEP.replace("prb = 5", "prb = 0"),
        _TINY_SWEEP + "workers = -5\n",
        _TINY_SWEEP + "[model.inline]\nop_service = 500\n",
    ],
    ids=["unknown-key", "unknown-section", "models-key", "repeated-key",
         "repeated-section", "default-section", "no-section-header", "negative-seed",
         "zero-max-iterations", "max-iterations-above-cap", "unknown-mcs", "zero-prb",
         "negative-workers", "key-of-other-device"],
)
def test_cli_config_mistakes_are_configuration_errors(tmp_path, capsys, body):
    cfg = _write_config(tmp_path / "cfg.ini", body)
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_failed_cell_rows_are_pinned(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.ini",
        "[sweep]\nbackends = cpu, inline\nmcs = 0\nsnr_db = nan\nprb = 5\nn_tb = 1\n",
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert out.read_text().split("\n")[1:] == [
        "cpu,0,nan,5,1,nan,nan,nan,nan,nan,,wall",
        "inline,0,nan,5,1,nan,nan,nan,nan,nan,,virtual",
        "",
    ]
    row = parse_csv(out.read_text())[0]
    assert row["utilization"] is None
    assert row["clock_type"] == "wall"
    assert math.isnan(row["snr_db"]) and math.isnan(row["bler"])


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=reject)


def test_json_non_finite_floats_are_strings(tmp_path):
    """A non-finite float is its CSV cell's text in a string: the noise-free
    cell and the pinned failed cells are strict JSON."""
    out = tmp_path / "out.json"
    cfg = _write_config(
        tmp_path / "inf.ini",
        "[sweep]\nbackends = lookaside\nmcs = 0\nsnr_db = inf\nprb = 5\nn_tb = 1\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    [row] = _strict_json(out.read_text())
    assert (row["snr_db"], row["bler"]) == ("inf", 0.0)
    cfg = _write_config(
        tmp_path / "nan.ini",
        "[sweep]\nbackends = cpu, inline\nmcs = 0\nsnr_db = nan\nprb = 5\nn_tb = 1\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 2
    failed = dict.fromkeys(("bler", "mean_iterations", "p50_us", "p99_us", "mean_us"), "nan")
    assert _strict_json(out.read_text()) == [
        {"backend": "cpu", "mcs": 0, "snr_db": "nan", "prb": 5, "n_tb": 1, **failed,
         "utilization": None, "clock_type": "wall"},
        {"backend": "inline", "mcs": 0, "snr_db": "nan", "prb": 5, "n_tb": 1, **failed,
         "utilization": None, "clock_type": "virtual"},
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--out", "MISSING/o.csv"],
        ["bulk-study", "--out", "MISSING/o.csv"],
        ["parallel-study", "--out", "MISSING/o.csv"],
        ["iter-study", "--out", "MISSING/o.csv"],
        ["vectors", "--dump", "MISSING/golden.txt"],
        ["sweep", "--out", "TMPDIR"],
        ["bulk-study", "--out", ""],
        ["vectors", "--dump", ""],
    ],
    ids=["sweep", "bulk-study", "parallel-study", "iter-study", "vectors", "sweep-to-a-directory",
         "empty-study-out", "empty-vectors-dump"],
)
def test_cli_unwritable_output_runs_nothing(tmp_path, monkeypatch, capsys, argv):
    def ran(*_, **__):
        raise AssertionError("the job ran before its output path was checked")

    for name in ("run_sweep", "run_bulk_study", "run_parallel_study", "run_iteration_study",
                 "generate_cell_vectors"):
        monkeypatch.setattr(cli, name, ran)
    missing = tmp_path / "missing"
    assert main([a.replace("MISSING", str(missing)).replace("TMPDIR", str(tmp_path))
                 for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not missing.exists()


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = _write_config(
        tmp_path / "cfg.ini",
        "[sweep]\nbackends = lookaside\nmcs = 4\nsnr_db = 0\nprb = 10\nn_tb = 5\nseed = 1\n",
    )
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["sweep", "--config", cfg, "--out", str(out_a)])
    monkeypatch.setenv("DECODEX_SEED", "999")
    main(["sweep", "--config", cfg, "--out", str(out_b)])
    main(["sweep", "--config", cfg, "--out", str(out_c)])
    assert parse_csv(out_b.read_text()) == parse_csv(out_c.read_text())
    assert parse_csv(out_a.read_text()) != parse_csv(out_b.read_text())


@pytest.mark.parametrize(
    "argv, env_seed, name",
    [
        (["vectors", "--dump", "golden.txt", "--seed", "-1"], None, "seed"),
        (["vectors", "--dump", "golden.txt"], "-5", "seed"),
        (["vectors", "--dump", "golden.txt"], "abc", "DECODEX_SEED"),
        (["sweep", "--out", "o.csv"], "abc", "DECODEX_SEED"),
    ],
    ids=["negative-seed-option", "negative-env-seed", "non-integer-env-seed",
         "non-integer-env-seed-sweep"],
)
def test_cli_bad_seed_is_a_named_configuration_error(tmp_path, monkeypatch, capsys,
                                                      argv, env_seed, name):
    monkeypatch.chdir(tmp_path)
    if env_seed is not None:
        monkeypatch.setenv("DECODEX_SEED", env_seed)
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error:") and name in line
    assert list(tmp_path.iterdir()) == []


def test_cli_dash_is_stdout_for_every_command(tmp_path, monkeypatch, capsys):
    """"-" prints exactly the bytes the file output holds, status lines go to
    stderr, and no file named "-" appears."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path / "cfg.ini", _TINY_SWEEP)
    vectors = ["vectors", "--n-tb", "2", "--prb", "5", "--seed", "3", "--dump"]
    runs = [["sweep", "--config", cfg, "--format", fmt, "--out"] for fmt in ("csv", "json")]
    for argv in runs + [vectors]:
        assert main(argv + ["f.out"]) == 0
        assert capsys.readouterr().err.startswith("wrote ")
        assert main(argv + ["-"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (tmp_path / "f.out").read_text()
        assert captured.err.startswith("wrote ") and captured.err.count("\n") == 1
    assert not (tmp_path / "-").exists()


def test_cli_vectors_dump_format(tmp_path):
    out = tmp_path / "golden.txt"
    assert main(["vectors", "--dump", str(out), "--n-tb", "2", "--mcs", "4",
                 "--prb", "10", "--snr", "6", "--seed", "42"]) == 0
    lines = out.read_text().strip().split("\n")
    for ln in lines:
        bg, zc, e, snr_db, seed, payload_hex, llr_csv = ln.split(",", 6)
        assert int(bg) in (1, 2)
        assert int(zc) >= 2
        assert len(llr_csv.split(",")) == int(e)
        int(payload_hex, 16)
        assert float(snr_db) == 6.0


def test_cli_studies_to_stdout(capsys):
    assert main(["bulk-study", "--n-ops", "1,10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n_ops,sequential_tput,bulk_tput,ratio")
    assert main(["parallel-study", "--ue", "1,2", "--prb", "20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n_ue,sequential_kernel_us")


def test_cli_study_input_error_exit_code(capsys):
    for argv in (["bulk-study", "--n-ops", "0"], ["iter-study", "--rates", "0"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("configuration error:")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "decodex.bench.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["parallel-study", "--prb", "abc"], ["sweep"], ["bulk-study", "--n-ops", "abc"],
     ["sweep", "--out", "o.csv", "--format", "xml"]],
    ids=["bad-int-option", "missing-required-option", "bad-int-list", "unknown-format"],
)
def test_cli_usage_errors_are_configuration_errors(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out


@pytest.mark.parametrize("n_tb", ["0", "-1"])
def test_cli_vectors_rejects_no_tbs(tmp_path, capsys, n_tb):
    out = tmp_path / "golden.txt"
    assert main(["vectors", "--dump", str(out), "--n-tb", n_tb]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def _limit_configs(tmp_path):
    def sweep_config(body):
        return ["sweep", "--config", _write_config(tmp_path / "cfg.ini", body),
                "--out", str(tmp_path / "o.csv")]

    snrs = ",".join(map(str, range(sweep.MAX_CELLS + 1)))
    return {
        "n_tb": sweep_config(_TINY_SWEEP.replace("n_tb = 1", f"n_tb = {sweep.MAX_N_TB + 1}")),
        "cells": sweep_config(_TINY_SWEEP.replace("snr_db = 8", f"snr_db = {snrs}")),
        "n_ops": ["bulk-study", "--n-ops", f"1,{studies.MAX_BULK_OPS + 1}"],
        "vectors-n_tb": ["vectors", "--dump", str(tmp_path / "golden.txt"),
                         "--n-tb", str(sweep.MAX_N_TB + 1)],
    }


@pytest.mark.parametrize("limit", ["n_tb", "cells", "n_ops", "vectors-n_tb"])
def test_cli_work_above_a_limit_is_one_configuration_error(tmp_path, capsys, limit):
    assert main(_limit_configs(tmp_path)[limit]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("configuration error:")
    assert "above its limit of" in line
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) in ([], ["cfg.ini"])


@pytest.mark.parametrize(
    "argv",
    [
        ["parallel-study", "--ue", ""],
        ["iter-study", "--k", ""],
        ["iter-study", "--iters", ""],
        ["iter-study", "--rates", ""],
        ["iter-study", "--rates", "1.5"],
        ["iter-study", "--rates", "1"],
    ],
    ids=["no-ues", "no-k", "no-iterations", "no-rates", "rate-above-1", "rate-1"],
)
def test_cli_study_inputs_no_study_can_run(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.out == ""


def test_cli_oversized_tb_names_the_payload_and_the_code_block_limit(capsys):
    assert main(["vectors", "--dump", "-", "--prb", "100000"]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("configuration error:")
    assert "payload bits" in line and "MAX_CODE_BLOCKS = 256" in line
    assert captured.out == ""
