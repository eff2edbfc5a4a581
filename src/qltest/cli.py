"""Command-line front end: simulate, estimate, test, power.

Exit codes: 0 ok, 2 usage/config, 3 estimation failure, 4 rao-undefined,
5 failure-budget breach, 1 unexpected error.  Text that does not read as a
number, in a flag or a config value, is a config error (exit 2) naming the
flag or the ``path:key``.  The ``test`` command's ``--stat`` choices are the
``hypotests`` registry's kinds plus ``step``, and every kind but ``step`` is
evaluated through that registry.  One table, ``_CONFIG_KEYS``, defines the
power-study config keys: ``parse_config_file`` reads a config through it, and
``power`` writes the ``<out>.config.txt`` sidecar through it, which reads back.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import (
    ConfigError,
    EstimationError,
    HarnessError,
    QltestError,
    RaoUndefinedError,
)
from .estimate import adaptive_estimate, initial_beta, mqle
from .hypotests import (
    _STATISTICS,
    _chi2_calibrated,
    _report,
    report_csv_header,
    report_csv_row,
    stepwise_alpha,
    stepwise_beta,
)
from .models import ParamBox, ParamVector, make_model
from .montecarlo import ExperimentConfig, run_table
from .quasilik import QLContext
from .simulate import SamplePath, SimConfig, euler_maruyama, observation_schedule

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_ESTIMATION = 3
EXIT_RAO = 4
EXIT_BUDGET = 5


def _reader(convert):
    """A reader of ``convert(text)`` that raises ConfigError naming ``where``
    when the text does not convert."""
    def read(text: str, where: str):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"{where}: cannot read {text!r} as {convert.__name__}") from None
    return read


def _parse_floats(text: str, where: str):
    read = _reader(float)
    return [read(p, where) for p in text.split(",") if p.strip() != ""]


def _reals_text(values) -> str:
    """A float or floats as text that reads back to the same floats."""
    return ",".join(repr(float(v)) for v in np.atleast_1d(values))


def _parse_theta(text: str, where: str) -> ParamVector:
    parts = _parse_floats(text, where)
    if len(parts) != 3:
        raise ConfigError(f"{where}: theta must be three comma-separated values a1,a2,b1")
    return ParamVector(np.array(parts[:2]), np.array(parts[2:]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qltest",
        description="Quasi-likelihood estimation and testing for discretely observed ergodic diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a sample path to CSV")
    p_sim.add_argument("--model", required=True, choices=["ou", "cir"])
    p_sim.add_argument("--theta", required=True, help="a1,a2,b1")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--refine", type=int, default=30)
    p_sim.add_argument("--x0", type=float, default=1.0)
    p_sim.add_argument("--delta", type=float, default=None,
                       help="observation step; default n**(-2/3)")
    p_sim.add_argument("--out", required=True)

    p_est = sub.add_parser("estimate", help="fit the quasi-likelihood estimator")
    p_est.add_argument("--input", required=True, help="sample path CSV (t,x)")
    p_est.add_argument("--model", required=True, choices=["ou", "cir"])
    p_est.add_argument("--adaptive", action="store_true")
    p_est.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a single-line JSON record")

    p_test = sub.add_parser("test", help="run one hypothesis test")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--model", required=True, choices=["ou", "cir"])
    p_test.add_argument("--null", required=True, help="a1,a2,b1 null parameter")
    p_test.add_argument("--stat", required=True,
                        choices=[kind.lower() for kind in _STATISTICS] + ["step"])
    p_test.add_argument("--level", type=float, default=0.05)
    p_test.add_argument("--threshold", type=float, default=None,
                        help="empirical threshold override")
    p_test.add_argument("--csv", default=None, help="append the report row to this CSV")

    p_pow = sub.add_parser("power", help="run a Monte Carlo power study")
    p_pow.add_argument("--config", required=True)
    p_pow.add_argument("--out", required=True)
    p_pow.add_argument("--workers", type=int, default=1)

    return parser


def cmd_simulate(args) -> int:
    theta = _parse_theta(args.theta, "--theta")
    model = make_model(args.model)
    if not model.in_domain(args.x0):
        raise ConfigError(f"--x0: {args.x0!r} lies outside the open state domain {model.state_domain}")
    delta = args.delta if args.delta is not None else observation_schedule(args.n)[1]
    config = SimConfig(n=args.n, delta=delta, x0=args.x0, seed=args.seed, refine=args.refine)
    path = euler_maruyama(model, theta, config)
    path.to_csv(args.out)
    return EXIT_OK


def _read_path(args, model) -> SamplePath:
    """The ``--input`` path; ConfigError when a value lies outside the state domain."""
    path = SamplePath.from_csv(args.input)
    if not model.in_domain(path.values):
        raise ConfigError(f"--input: a state value lies outside the open domain {model.state_domain}")
    return path


def cmd_estimate(args) -> int:
    model = make_model(args.model)
    path = _read_path(args, model)
    ctx = QLContext(model, path)
    fit = adaptive_estimate(ctx) if args.adaptive else mqle(ctx)
    record = {
        "theta_hat": [float(v) for v in fit.theta_hat.full],
        "objective": fit.objective,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "restarts_used": fit.restarts_used,
        "at_boundary": fit.at_boundary,
        "adaptive": fit.adaptive,
    }
    if args.as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        for key in sorted(record):
            print(f"{key} = {record[key]}")
    return EXIT_OK


def cmd_test(args) -> int:
    if not 0.0 < args.level < 1.0:
        raise ConfigError(f"--level: {args.level!r} does not lie in (0, 1)")
    model = make_model(args.model)
    path = _read_path(args, model)
    ctx = QLContext(model, path)
    theta0 = _parse_theta(args.null, "--null")
    model.check_theta(theta0)
    kind = args.stat.upper()
    if args.threshold is None and not _chi2_calibrated(kind):
        raise ConfigError(f"{kind} requires --threshold (no asymptotic calibration)")

    reports = []
    if kind == "STEP":
        pre = initial_beta(ctx)
        beta_tilde = pre.theta_hat.beta
        reports.append(stepwise_beta(ctx, beta_tilde, theta0.beta, args.level, args.threshold))
        ada = adaptive_estimate(ctx)
        reports.append(
            stepwise_alpha(ctx, ada.theta_hat.alpha, theta0.alpha, beta_tilde,
                           args.level, args.threshold)
        )
    else:
        fit = mqle(ctx)
        reports.append(_report(kind, ctx, fit.theta_hat, theta0, args.level, args.threshold))

    rows = [report_csv_row(r, path.n, path.delta) for r in reports]
    print(report_csv_header())
    for row in rows:
        print(row)
    if args.csv:
        import os

        write_header = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        with open(args.csv, "a") as fh:
            if write_header:
                fh.write(report_csv_header() + "\n")
            for row in rows:
                fh.write(row + "\n")
    return EXIT_OK


# Each config key: its ExperimentConfig field, a reader of its text and a
# writer of the field's value back to text.  The keys of the fields without
# a default are required; the two box keys are the bounds of the one ParamBox
# and come together.
_CONFIG_KEYS = {
    "model.id": ("model_id", _reader(str), str),
    "model.theta0": ("theta0", _parse_theta, lambda theta: _reals_text(theta.full)),
    "model.box.lower": ("box", _parse_floats, lambda box: _reals_text(box.lower)),
    "model.box.upper": ("box", _parse_floats, lambda box: _reals_text(box.upper)),
    "sim.n": ("n", _reader(int), str),
    "sim.refine": ("refine", _reader(int), str),
    "sim.x0": ("x0", _reader(float), _reals_text),
    "mc.replications": ("replications", _reader(int), str),
    "mc.level": ("level", _reader(float), _reals_text),
    "mc.h_grid": ("h_grid", _parse_floats, _reals_text),
    "mc.master_seed": ("master_seed", _reader(int), str),
    "mc.statistics": ("statistics", lambda text, where: [s.strip() for s in text.split(",")],
                      ",".join),
    "mc.threshold_mode": ("threshold_mode", _reader(str), str),
}

_REQUIRED_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)
                    if f.default is dataclasses.MISSING}


def parse_config_file(path) -> ExperimentConfig:
    """Flat dotted-key config: one `key = value` per line, # comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    given = {_CONFIG_KEYS[key][0] for key in values}
    missing = [key for key, (field, _, _) in _CONFIG_KEYS.items()
               if key not in values and (field in _REQUIRED_FIELDS or field in given)]
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    # each field's values, one per key in table order; the unset fields keep
    # the ExperimentConfig defaults
    read = {}
    for key, (field, reader, _) in _CONFIG_KEYS.items():
        if key in values:
            read.setdefault(field, []).append(reader(values[key], f"{path}:{key}"))
    if "box" in read:
        read["box"] = [ParamBox(*read["box"])]
    return ExperimentConfig(**{field: value for field, (value,) in read.items()})


def config_text(config: ExperimentConfig) -> str:
    """``config`` as a config file, one sorted line per key of a set field,
    which ``parse_config_file`` reads back to the same text."""
    lines = [f"{key} = {write(getattr(config, field))}"
             for key, (field, _, write) in sorted(_CONFIG_KEYS.items())
             if getattr(config, field) is not None]
    return "\n".join(lines) + "\n"


def cmd_power(args) -> int:
    """Write the table to ``--out`` and its config to ``<out>.config.txt``."""
    config = parse_config_file(args.config)
    run_table(config, args.out, workers=args.workers)
    with open(f"{args.out}.config.txt", "w", encoding="utf-8") as fh:
        fh.write(config_text(config))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "test":
            return cmd_test(args)
        if args.command == "power":
            return cmd_power(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        for line in exc.diagnostics:
            print(f"  {line}", file=sys.stderr)
        return EXIT_ESTIMATION
    except RaoUndefinedError as exc:
        print(f"rao statistic undefined: {exc}", file=sys.stderr)
        return EXIT_RAO
    except HarnessError as exc:
        print(f"failure budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QltestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
