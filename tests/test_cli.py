"""Command-line interface: subcommand round trips, exit codes and the
flat-key config parser."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qltest import ExperimentConfig, ParamVector, SamplePath, cli
from qltest.cli import (
    EXIT_ESTIMATION,
    EXIT_OK,
    EXIT_RAO,
    EXIT_USAGE,
    main,
    parse_config_file,
)
from qltest.errors import ConfigError
from qltest.hypotests import _STATISTICS


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


def test_non_numeric_theta_exits_2(path_csv, tmp_path, capsys):
    code = main([
        "simulate", "--model", "ou", "--theta", "a,b,c",
        "--n", "50", "--seed", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_USAGE
    assert "--theta" in capsys.readouterr().err
    code = main([
        "test", "--input", str(path_csv), "--model", "ou",
        "--null", "0.5,x,0.25", "--stat", "t",
    ])
    assert code == EXIT_USAGE
    assert "--null" in capsys.readouterr().err


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


@pytest.mark.parametrize("stat", [kind.lower() for kind in _STATISTICS] + ["step"])
def test_test_subcommand_every_stat(path_csv, capsys, stat):
    argv = ["test", "--input", str(path_csv), "--model", "ou",
            "--null", "0.5,0.5,0.25", "--stat", stat]
    if stat == "bs":
        argv += ["--threshold", "1"]
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    if stat == "rao" and code == EXIT_RAO:
        return  # singular information: the score statistic is undefined
    assert code == EXIT_OK
    kinds = [line.split(",")[0] for line in out[1:]]
    assert kinds == (["STEP_BETA", "STEP_ALPHA"] if stat == "step" else [stat.upper()])


@pytest.mark.parametrize("bad_row", ["0.1,abc", "0.1", "0.1,2.0,9"])
def test_estimate_malformed_csv_row_exits_2(tmp_path, bad_row):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"t,x\n0.0,1.0\n{bad_row}\n0.2,1.1\n0.3,1.2\n")
    assert main(["estimate", "--input", str(csv_path), "--model", "ou"]) == EXIT_USAGE


@pytest.mark.parametrize("command", [
    ["estimate"],
    ["estimate", "--adaptive"],
    ["test", "--null", "0.5,0.5,0.25", "--stat", "step"],
])
@pytest.mark.parametrize("observations", [3, 4])
def test_path_too_short_for_the_model_exits_3(tmp_path, capsys, command, observations):
    # OU has m1 + m2 = 3 parameters: every estimator needs 5 observations
    csv_path = tmp_path / "short.csv"
    rows = [f"{0.1 * i!r},{x!r}" for i, x in enumerate([1.0, 1.05, 0.98, 1.02][:observations])]
    csv_path.write_text("\n".join(["t,x"] + rows) + "\n")
    code = main(command + ["--input", str(csv_path), "--model", "ou"])
    assert code == EXIT_ESTIMATION
    assert "path too short" in capsys.readouterr().err


def test_bs_without_threshold_exits_2(path_csv):
    code = main([
        "test", "--input", str(path_csv), "--model", "ou",
        "--null", "0.5,0.5,0.25", "--stat", "bs",
    ])
    assert code == EXIT_USAGE


_CONFIG = (
    "model.id = ou\n"
    "model.theta0 = 0.5,0.5,0.25\n"
    "sim.n = 50\n"
    "mc.replications = 50\n"
    "mc.h_grid = 0.0,0.5\n"
    "mc.master_seed = 3\n"
    "mc.statistics = T\n"
)

# the optional numeric keys, for the property test
_FULL_CONFIG = _CONFIG + (
    "model.box.lower = 0.01,0.01,0.01\n"
    "model.box.upper = 5,5,5\n"
    "sim.refine = 30\n"
    "sim.x0 = 1.0\n"
    "mc.level = 0.05\n"
)


def _write_config(path, extra=""):
    path.write_text(_CONFIG + extra)


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    _write_config(cfg, "mc.level = 0.10  # comment\n")
    config = parse_config_file(cfg)
    assert config.model_id == "ou"
    assert config.n == 50
    assert config.h_grid == (0.0, 0.5)
    assert config.level == 0.10
    assert config.statistics == ("T",)


def test_parse_config_file_required_keys_only(tmp_path):
    # the optional keys take the dataclass defaults
    cfg = tmp_path / "study.cfg"
    cfg.write_text(_CONFIG.replace("mc.statistics = T\n", ""))
    expected = ExperimentConfig(model_id="ou", theta0=ParamVector([0.5, 0.5], [0.25]), n=50,
                                h_grid=(0.0, 0.5), replications=50, master_seed=3)
    config = parse_config_file(cfg)
    for field in ("model_id", "n", "h_grid", "replications", "master_seed", "level",
                  "statistics", "threshold_mode", "refine", "x0", "box"):
        assert getattr(config, field) == getattr(expected, field), field
    assert config.theta0.full.tolist() == [0.5, 0.5, 0.25]


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


def test_non_numeric_config_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(_CONFIG.replace("sim.n = 50", "sim.n = abc"))
    with pytest.raises(ConfigError, match="sim.n"):
        parse_config_file(cfg)
    assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
    assert f"{cfg}:sim.n" in capsys.readouterr().err


# every key whose value is read as a number or a list of numbers
_NUMERIC_KEYS = ("model.theta0", "model.box.lower", "model.box.upper", "sim.n", "sim.refine",
                 "sim.x0", "mc.replications", "mc.level", "mc.h_grid", "mc.master_seed")
_NUMBER = r"-?[0-9]{1,3}(\.[0-9]{0,3})?(e-?[0-9])?"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    key=st.sampled_from(_NUMERIC_KEYS),
    text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)
    | st.from_regex(rf"{_NUMBER}(,{_NUMBER}){{0,3}}", fullmatch=True),
)
def test_numeric_config_value_parses_or_raises_config_error(tmp_path_factory, key, text):
    cfg = tmp_path_factory.mktemp("prop") / "study.cfg"
    lines = [line for line in _FULL_CONFIG.splitlines() if not line.startswith(key + " ")]
    cfg.write_text("\n".join(lines + [f"{key} = {text}"]) + "\n", encoding="utf-8")
    try:
        config = parse_config_file(cfg)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
# one CSV cell: a number, a word numpy reads as a number or not, or any text
_CELL = (st.floats(width=64).map(repr)
         | st.sampled_from(["nan", "inf", "-inf", "1e999", "", " 2 ", "0x1p3", "1_0"])
         | _TEXT)


@st.composite
def _path_csv_text(draw):
    """Header and rows of a path CSV: equispaced rows, rows of numbers, or any text."""
    header = draw(st.sampled_from(["t,x", "t,x", " t , x ", "x,t", "t,x,x", "", None]))
    if header is None:
        header = draw(_TEXT)
    kind = draw(st.sampled_from(["equispaced", "numbers", "text"]))
    if kind == "equispaced":
        delta = draw(st.floats(-1.0, 1e300))
        xs = draw(st.lists(st.floats(), max_size=12))
        rows = [f"{i * delta!r},{x!r}" for i, x in enumerate(xs)]
    elif kind == "numbers":
        rows = [f"{t!r},{x!r}" for t, x in draw(st.lists(st.tuples(st.floats(), st.floats()),
                                                          max_size=8))]
    else:
        rows = draw(st.lists(st.builds("{},{}".format, _CELL, _CELL) | _TEXT, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + rows) + end


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_path_csv_text())
def test_path_csv_reads_or_raises_config_error(tmp_path_factory, text):
    # SamplePath.from_csv gives a path of finite values at a finite delta > 0,
    # or raises ConfigError; ``estimate --input`` then exits 2 on a rejected
    # file, and never 1 (unexpected) on an accepted one: it fits (0), or the
    # fit fails as a classified estimation failure (3), as on a path too short
    csv_path = tmp_path_factory.mktemp("path") / "path.csv"
    csv_path.write_text(text, encoding="utf-8", newline="")
    try:
        path = SamplePath.from_csv(csv_path)
    except ConfigError:
        path = None
    else:
        assert np.all(np.isfinite(path.values))
        assert math.isfinite(path.delta) and path.delta > 0
    code = main(["estimate", "--input", str(csv_path), "--model", "ou"])
    assert code in ((EXIT_USAGE,) if path is None else (EXIT_OK, EXIT_ESTIMATION))


@st.composite
def _bytes_of(draw, text):
    """Arbitrary bytes, or the UTF-8 bytes of a draw of ``text`` with
    arbitrary bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = draw(text).encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_bytes_of(_path_csv_text()))
def test_path_csv_bytes_read_or_raise_config_error(tmp_path_factory, data):
    # any bytes: a path or ConfigError, and ``estimate --input`` exits 0, 2
    # or 3, never 1 (unexpected)
    csv_path = tmp_path_factory.mktemp("bytes") / "path.csv"
    csv_path.write_bytes(data)
    try:
        path = SamplePath.from_csv(csv_path)
    except ConfigError:
        path = None
    code = main(["estimate", "--input", str(csv_path), "--model", "ou"])
    assert code in ((EXIT_USAGE,) if path is None else (EXIT_OK, EXIT_ESTIMATION))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_bytes_of(st.just(_FULL_CONFIG)))
def test_config_bytes_parse_or_raise_config_error(tmp_path_factory, data):
    cfg = tmp_path_factory.mktemp("bytes") / "study.cfg"
    cfg.write_bytes(data)
    try:
        config = parse_config_file(cfg)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


def test_non_utf8_input_exits_2(path_csv, tmp_path, capsys):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(path_csv.read_bytes().replace(b"t,x", b"t,x\xe9", 1))
    with pytest.raises(ConfigError, match="not UTF-8"):
        SamplePath.from_csv(csv_path)
    assert main(["estimate", "--input", str(csv_path), "--model", "ou"]) == EXIT_USAGE
    assert str(csv_path) in capsys.readouterr().err
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(_CONFIG.encode() + b"# r\xe9sum\xe9\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        parse_config_file(cfg)
    assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
    assert str(cfg) in capsys.readouterr().err


def test_unopenable_input_exits_2(tmp_path, monkeypatch):
    # a directory, and a file the process may not read
    assert main(["estimate", "--input", str(tmp_path), "--model", "ou"]) == EXIT_USAGE
    assert main(["power", "--config", str(tmp_path), "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(SamplePath, "from_csv", denied)
    assert main(["estimate", "--input", "locked.csv", "--model", "ou"]) == EXIT_USAGE
    monkeypatch.setattr(cli, "parse_config_file", denied)
    assert main(["power", "--config", "locked.cfg", "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE


def test_power_subcommand(tmp_path):
    cfg = tmp_path / "study.cfg"
    _write_config(cfg)
    out = tmp_path / "table.csv"
    assert main(["power", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    text = out.read_text().strip().splitlines()
    assert text[0].startswith("model,n,delta,")
    assert len(text) == 1 + 2  # two h rows, one statistic
    assert (tmp_path / "table.csv.config.txt").exists()


def test_power_x0_outside_the_domain_exits_2(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(_CONFIG.replace("model.id = ou", "model.id = cir")
                   .replace("0.5,0.5,0.25", "0.5,0.5,0.125") + "sim.x0 = -1\n")
    assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
    assert "x0" in capsys.readouterr().err


def test_power_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("not a config\n")
    assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
