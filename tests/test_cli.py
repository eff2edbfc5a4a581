"""Command-line interface: subcommand round trips, exit codes and the
flat-key config parser."""

import json

import pytest

from qltest import SamplePath
from qltest.cli import (
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config_file,
)
from qltest.errors import ConfigError


@pytest.fixture(scope="module")
def path_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "path.csv"
    code = main([
        "simulate", "--model", "ou", "--theta", "0.5,0.5,0.25",
        "--n", "120", "--seed", "9", "--out", str(out),
    ])
    assert code == EXIT_OK
    return out


def test_simulate_writes_loadable_deterministic_csv(path_csv, tmp_path):
    path = SamplePath.from_csv(path_csv)
    assert path.n == 120
    again = tmp_path / "again.csv"
    assert main([
        "simulate", "--model", "ou", "--theta", "0.5,0.5,0.25",
        "--n", "120", "--seed", "9", "--out", str(again),
    ]) == EXIT_OK
    assert again.read_bytes() == path_csv.read_bytes()


def test_simulate_bad_theta_exits_2(tmp_path):
    code = main([
        "simulate", "--model", "ou", "--theta", "0.5,0.5",
        "--n", "50", "--seed", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_USAGE


def test_unknown_flag_exits_2(tmp_path):
    assert main(["simulate", "--bogus"]) == EXIT_USAGE


def test_estimate_json(path_csv, capsys):
    code = main(["estimate", "--input", str(path_csv), "--model", "ou", "--json"])
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(record["theta_hat"]) == 3
    assert all(0.01 <= v <= 5.0 for v in record["theta_hat"])
    assert isinstance(record["converged"], bool)


def test_estimate_missing_file_exits_2(tmp_path):
    assert main(["estimate", "--input", str(tmp_path / "no.csv"), "--model", "ou"]) == EXIT_USAGE


def test_test_subcommand_t(path_csv, capsys, tmp_path):
    report_csv = tmp_path / "reports.csv"
    code = main([
        "test", "--input", str(path_csv), "--model", "ou",
        "--null", "0.5,0.5,0.25", "--stat", "t", "--csv", str(report_csv),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("kind,n,delta,")
    assert out[1].startswith("T,120,")
    lines = report_csv.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row


def test_test_subcommand_step(path_csv, capsys):
    code = main([
        "test", "--input", str(path_csv), "--model", "ou",
        "--null", "0.5,0.5,0.25", "--stat", "step",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    kinds = [line.split(",")[0] for line in out[1:]]
    assert kinds == ["STEP_BETA", "STEP_ALPHA"]


@pytest.mark.parametrize("bad_row", ["0.1,abc", "0.1"])
def test_estimate_malformed_csv_row_exits_2(tmp_path, bad_row):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"t,x\n0.0,1.0\n{bad_row}\n0.2,1.1\n0.3,1.2\n")
    assert main(["estimate", "--input", str(csv_path), "--model", "ou"]) == EXIT_USAGE


def test_bs_without_threshold_exits_2(path_csv):
    code = main([
        "test", "--input", str(path_csv), "--model", "ou",
        "--null", "0.5,0.5,0.25", "--stat", "bs",
    ])
    assert code == EXIT_USAGE


def _write_config(path, extra=""):
    path.write_text(
        "model.id = ou\n"
        "model.theta0 = 0.5,0.5,0.25\n"
        "sim.n = 50\n"
        "mc.replications = 50\n"
        "mc.h_grid = 0.0,0.5\n"
        "mc.master_seed = 3\n"
        "mc.statistics = T\n"
        + extra
    )


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    _write_config(cfg, "mc.level = 0.10  # comment\n")
    config = parse_config_file(cfg)
    assert config.model_id == "ou"
    assert config.n == 50
    assert config.h_grid == (0.0, 0.5)
    assert config.level == 0.10
    assert config.statistics == ("T",)


def test_parse_config_file_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    _write_config(cfg, "mc.bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)
    _write_config(cfg, "mc.level = 0.1\nmc.level = 0.2\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)
    cfg.write_text("model.id = ou\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)
    _write_config(cfg, "model.box.lower = 0.01,0.01,0.01\n")  # upper missing
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_power_subcommand(tmp_path):
    cfg = tmp_path / "study.cfg"
    _write_config(cfg)
    out = tmp_path / "table.csv"
    assert main(["power", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    text = out.read_text().strip().splitlines()
    assert text[0].startswith("model,n,delta,")
    assert len(text) == 1 + 2  # two h rows, one statistic
    assert (tmp_path / "table.csv.config.txt").exists()


def test_power_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("not a config\n")
    assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
