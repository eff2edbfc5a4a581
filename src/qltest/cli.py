"""Command-line front end: simulate, estimate, test, power.

Exit codes: 0 ok, 2 usage/config, 3 estimation failure, 4 rao-undefined,
5 failure-budget breach, 1 unexpected error.  Text that does not read as a
number, in a flag or a config value, is a config error (exit 2) naming the
flag or the ``path:key``.  The ``test`` command's ``--stat`` choices are the
``hypotests`` registry's kinds plus ``step``, and every kind but ``step`` is
evaluated through that registry.
"""

from __future__ import annotations

import argparse
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


def _number(text: str, convert, where: str):
    """``convert(text)``; ConfigError naming ``where`` when it does not parse."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{where}: cannot read {text!r} as {convert.__name__}") from None


def _parse_floats(text: str, where: str):
    return [_number(p, float, where) for p in text.split(",") if p.strip() != ""]


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
    delta = args.delta if args.delta is not None else observation_schedule(args.n)[1]
    config = SimConfig(n=args.n, delta=delta, x0=args.x0, seed=args.seed, refine=args.refine)
    path = euler_maruyama(model, theta, config)
    path.to_csv(args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    model = make_model(args.model)
    path = SamplePath.from_csv(args.input)
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
    model = make_model(args.model)
    path = SamplePath.from_csv(args.input)
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


_CONFIG_KEYS = {
    "model.id",
    "model.theta0",
    "model.box.lower",
    "model.box.upper",
    "sim.n",
    "sim.refine",
    "sim.x0",
    "mc.replications",
    "mc.level",
    "mc.h_grid",
    "mc.master_seed",
    "mc.statistics",
    "mc.threshold_mode",
}

_REQUIRED_KEYS = {"model.id", "model.theta0", "sim.n", "mc.replications", "mc.h_grid", "mc.master_seed"}


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
    missing = _REQUIRED_KEYS - values.keys()
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    def number(key, convert):
        return _number(values[key], convert, f"{path}:{key}")

    def floats(key):
        return np.array(_parse_floats(values[key], f"{path}:{key}"))

    if ("model.box.lower" in values) != ("model.box.upper" in values):
        raise ConfigError("model.box.lower and model.box.upper must be given together")
    # the optional keys present in the file; ExperimentConfig holds the defaults
    optional = {}
    if "model.box.lower" in values:
        optional["box"] = ParamBox(floats("model.box.lower"), floats("model.box.upper"))
    if "mc.statistics" in values:
        optional["statistics"] = tuple(s.strip() for s in values["mc.statistics"].split(","))
    if "mc.threshold_mode" in values:
        optional["threshold_mode"] = values["mc.threshold_mode"]
    for key, field, convert in (("mc.level", "level", float), ("sim.refine", "refine", int),
                                ("sim.x0", "x0", float)):
        if key in values:
            optional[field] = number(key, convert)
    return ExperimentConfig(
        model_id=values["model.id"],
        theta0=_parse_theta(values["model.theta0"], f"{path}:model.theta0"),
        n=number("sim.n", int),
        h_grid=tuple(floats("mc.h_grid")),
        replications=number("mc.replications", int),
        master_seed=number("mc.master_seed", int),
        **optional,
    )


def cmd_power(args) -> int:
    config = parse_config_file(args.config)
    run_table(config, args.out, workers=args.workers)
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
