"""Replicated power studies: empirical null thresholds and power curves.

Each replication simulates one path at the local alternative
theta0 + phi(n)^{1/2} h, fits the maximum quasi-likelihood estimator
once, and evaluates every requested statistic against the null theta0
on that shared path and fit (paired design).  Per-replication seeds are
derived from (master_seed, replication index) only — independent of the
statistic kind and of h — so results are identical for any worker count
and the h columns are common-random-number coupled.  The paths of a block
of replications are simulated as one batch, which gives the same paths as
one simulation per replication.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    EstimationError,
    HarnessError,
    QltestError,
    RaoUndefinedError,
    StatisticError,
)
from .estimate import FitOptions, mqle, mqle_search
from .hypotests import _phi_ratios, _rate_sqrt
from .distributions import chi2_quantile
from .models import ParamBox, ParamVector, make_model
from .quasilik import QLContext, observed_info, ql_grad, ql_terms
from .simulate import (
    SamplePath,
    SimConfig,
    derive_seed_sequence,
    euler_maruyama,
    observation_schedule,
)

__all__ = [
    "ExperimentConfig",
    "PowerTable",
    "local_alternative",
    "null_threshold",
    "empirical_power",
    "run_table",
]

_FAILURE_BUDGET = 0.05

# what a statistic may raise on a bad path or fit; it counts as a failed
# replication.  Anything else is a bug and propagates.
_STATISTIC_ERRORS = (QltestError, FloatingPointError, np.linalg.LinAlgError)

# statistic kinds the harness can tabulate (stepwise tests are single-shot
# diagnostics, not power-table columns)
_TABLE_KINDS = ("T", "GQLRT", "WALD", "RAO", "AKL", "BS")

# multi-start budget per replication; a full default fit is used as
# fallback when the cheap fit fails
_MC_FIT_OPTS = FitOptions(n_starts=2, polish_top=1)


@dataclass(frozen=True)
class ExperimentConfig:
    model_id: str
    theta0: ParamVector
    n: int
    h_grid: tuple
    replications: int
    master_seed: int
    level: float = 0.05
    statistics: tuple = _TABLE_KINDS
    threshold_mode: str = "empirical"
    refine: int = 30
    x0: float = 1.0
    box: Optional[ParamBox] = None

    def __post_init__(self):
        object.__setattr__(self, "h_grid", tuple(float(h) for h in self.h_grid))
        object.__setattr__(self, "statistics", tuple(s.upper() for s in self.statistics))
        if 0.0 not in self.h_grid:
            raise ConfigError("h_grid must contain 0 (the null column)")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("level must lie in (0, 1)")
        if self.replications < 50:
            raise ConfigError("at least 50 replications are required")
        unknown = set(self.statistics) - set(_TABLE_KINDS)
        if unknown:
            raise ConfigError(f"unsupported statistics for power tables: {sorted(unknown)}")
        if self.threshold_mode not in ("empirical", "asymptotic"):
            raise ConfigError("threshold_mode must be 'empirical' or 'asymptotic'")
        if self.threshold_mode == "asymptotic" and "BS" in self.statistics:
            raise ConfigError("BS has no asymptotic calibration; use empirical thresholds")

    @property
    def delta(self) -> float:
        return observation_schedule(self.n)[1]

    def model(self):
        return make_model(self.model_id, self.box)


@dataclass(frozen=True)
class PowerTable:
    model_id: str
    n: int
    delta: float
    replications: int
    level: float
    threshold_mode: str
    h_grid: tuple
    statistics: tuple
    thresholds: dict  # kind -> threshold
    epow: dict  # (h, kind) -> rejection frequency
    failures: dict  # (h, kind) -> failed replication count

    def get(self, h: float, kind: str) -> float:
        return self.epow[(float(h), kind.upper())]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["model", "n", "delta", "R", "level", "threshold_mode", "h",
                 "statistic", "threshold", "epow", "failures"]
            )
            for h in self.h_grid:
                for kind in self.statistics:
                    writer.writerow(
                        [
                            self.model_id,
                            self.n,
                            repr(self.delta),
                            self.replications,
                            repr(self.level),
                            self.threshold_mode,
                            repr(float(h)),
                            kind,
                            repr(self.thresholds[kind]),
                            repr(self.epow[(h, kind)]),
                            self.failures[(h, kind)],
                        ]
                    )

    @classmethod
    def from_csv(cls, path) -> "PowerTable":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ConfigError("empty power table CSV")
        first = rows[0]
        h_grid, statistics = [], []
        thresholds, epow, failures = {}, {}, {}
        for row in rows:
            h = float(row["h"])
            kind = row["statistic"]
            if h not in h_grid:
                h_grid.append(h)
            if kind not in statistics:
                statistics.append(kind)
            thresholds[kind] = float(row["threshold"])
            epow[(h, kind)] = float(row["epow"])
            failures[(h, kind)] = int(row["failures"])
        return cls(
            model_id=first["model"],
            n=int(first["n"]),
            delta=float(first["delta"]),
            replications=int(first["R"]),
            level=float(first["level"]),
            threshold_mode=first["threshold_mode"],
            h_grid=tuple(h_grid),
            statistics=tuple(statistics),
            thresholds=thresholds,
            epow=epow,
            failures=failures,
        )


def local_alternative(theta0: ParamVector, h, n: int, delta: float, box: Optional[ParamBox] = None) -> ParamVector:
    """theta0 + h_a / sqrt(n delta) on alpha, + h_b / sqrt(n) on beta."""
    dim = theta0.dim
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        h = np.full(dim, float(h))
    if h.size != dim:
        raise ConfigError(f"h must be scalar or length {dim}")
    m1 = theta0.m1
    shift = np.concatenate(
        [h[:m1] / math.sqrt(n * delta), h[m1:] / math.sqrt(n)]
    )
    theta = ParamVector.from_full(theta0.full + shift, m1, theta0.m2)
    if box is not None and not box.contains(theta.full):
        bad = np.where((theta.full < box.lower) | (theta.full > box.upper))[0][0]
        raise ConfigError(
            f"local alternative leaves the box at coordinate {int(bad)}"
        )
    return theta


def _statistic_values(ctx, fit, theta_null, kinds, terms_hat=None, info_full=None):
    """Raw statistic values on a shared path and fit; per-kind failures."""
    out = {}
    theta_hat = fit.theta_hat
    n = ctx.path.n
    terms_null = ql_terms(ctx, theta_null)
    if terms_hat is None:
        terms_hat = ql_terms(ctx, theta_hat)
    diff = terms_null - terms_hat
    if info_full is None and ("WALD" in kinds or "RAO" in kinds):
        try:
            info_full = observed_info(ctx, theta_hat).full()
        except _STATISTIC_ERRORS:
            info_full = None
    for kind in kinds:
        try:
            if kind == "T":
                out[kind] = n * float(np.mean(diff * diff))
            elif kind == "GQLRT":
                out[kind] = 2.0 * float(np.sum(diff))
            elif kind == "WALD":
                if info_full is None or not np.all(np.isfinite(info_full)):
                    raise StatisticError("observed information unavailable")
                z = _rate_sqrt(ctx) * (theta_hat.full - theta_null.full)
                out[kind] = float(z @ info_full @ z)
            elif kind == "RAO":
                if (
                    info_full is None
                    or not np.all(np.isfinite(info_full))
                    or np.linalg.cond(info_full) > 1e12
                ):
                    raise RaoUndefinedError("observed information singular")
                score = ql_grad(ctx, theta_null) / _rate_sqrt(ctx)
                out[kind] = float(score @ np.linalg.solve(info_full, score))
            elif kind in ("AKL", "BS"):
                logr, r, _ = _phi_ratios(ctx, theta_hat, theta_null)
                if kind == "AKL":
                    vals = 1.0 - r + r * logr
                else:
                    vals = ((r - 1.0) / (r + 1.0)) ** 2
                out[kind] = 2.0 * float(np.sum(vals))
            if kind in out and not math.isfinite(out[kind]):
                del out[kind]
                out[kind + "!fail"] = True
        except _STATISTIC_ERRORS:
            out[kind + "!fail"] = True
    return out


def _replication_seed(master_seed: int, rep: int) -> int:
    """Simulation seed of replication ``rep``: a pure function of the pair."""
    return int(derive_seed_sequence(master_seed, rep).generate_state(1, dtype=np.uint64)[0])


def _replicate_block(args):
    """Replications ``reps`` of one h cell, in order.

    Their paths are simulated as one batch at the alternative, the
    Nelder-Mead starts of all their fits run as one lockstep search, and
    then each path's fit is polished and every kind evaluated on it.  Seeds
    depend only on (master_seed, rep): the h cells are coupled by common
    random numbers, as are all statistic kinds.
    """
    config, h_index, reps = args
    model = config.model()
    delta = config.delta
    theta_sim = local_alternative(config.theta0, config.h_grid[h_index], config.n, delta, model.box)
    # seed is unused: each replication brings its own
    sim = SimConfig(n=config.n, delta=delta, x0=config.x0, seed=0, refine=config.refine)
    seeds = [_replication_seed(config.master_seed, rep) for rep in reps]
    try:
        paths = euler_maruyama(model, theta_sim, sim, seeds)
    except ConfigError:
        paths = [None] * len(reps)
    ctxs = [QLContext(model, path) if isinstance(path, SamplePath) else None for path in paths]
    fitted = [ctx for ctx in ctxs if ctx is not None]
    searches = iter(mqle_search(fitted, _MC_FIT_OPTS) if fitted else ())
    return [
        _fit_and_evaluate(config, ctx, None if ctx is None else next(searches))
        for ctx in ctxs
    ]


def _fit_and_evaluate(config: ExperimentConfig, ctx, search):
    """The record of one replication; every kind fails without a usable path or fit."""
    failed = {kind + "!fail": True for kind in config.statistics}
    if ctx is None:
        return failed
    try:
        try:
            fit = mqle(ctx, _MC_FIT_OPTS, search=search)
        except EstimationError:
            fit = mqle(ctx)  # full multi-start fallback
    except (EstimationError, ConfigError):
        return failed
    return _statistic_values(ctx, fit, config.theta0, config.statistics)


def _collect_cell(config: ExperimentConfig, h_index: int, workers: int = 1):
    """All replications of one h cell, ordered by replication index.

    With several workers each takes one contiguous block of replications,
    so every batch stays as large as the split allows.
    """
    reps = list(range(config.replications))
    if workers <= 1:
        return _replicate_block((config, h_index, reps))
    block = -(-len(reps) // workers)
    tasks = [(config, h_index, reps[i : i + block]) for i in range(0, len(reps), block)]
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_replicate_block, tasks):
            results.extend(part)
    return results


def _cell_stats(records, kind):
    values = [r[kind] for r in records if kind in r]
    failures = sum(1 for r in records if kind + "!fail" in r)
    return values, failures


def _empirical_quantile(values, level):
    """Upper order statistic at rank ceil((1 - level) * m), ties by value."""
    ordered = sorted(values)
    m = len(ordered)
    rank = int(math.ceil((1.0 - level) * m))
    rank = min(max(rank, 1), m)
    return ordered[rank - 1]


def _check_budget(records, kinds, replications):
    counts = {}
    for kind in kinds:
        _, failures = _cell_stats(records, kind)
        counts[kind] = failures
    worst = max(counts.values()) if counts else 0
    if worst > _FAILURE_BUDGET * replications:
        raise HarnessError(
            f"failure budget exceeded: {worst}/{replications} failed replications",
            failure_counts=counts,
        )
    return counts


def null_threshold(config: ExperimentConfig, kind: str, workers: int = 1) -> float:
    """Empirical (1 - level)-quantile of the statistic under the null."""
    kind = kind.upper()
    null_index = config.h_grid.index(0.0)
    records = _collect_cell(config, null_index, workers)
    _check_budget(records, [kind], config.replications)
    values, _ = _cell_stats(records, kind)
    return float(_empirical_quantile(values, config.level))


def empirical_power(config: ExperimentConfig, workers: int = 1) -> PowerTable:
    """Rejection frequencies over the h grid for every requested kind."""
    cells = {
        h_index: _collect_cell(config, h_index, workers)
        for h_index in range(len(config.h_grid))
    }
    null_index = config.h_grid.index(0.0)
    _check_budget(cells[null_index], config.statistics, config.replications)

    df = config.theta0.dim
    thresholds = {}
    for kind in config.statistics:
        if config.threshold_mode == "empirical":
            values, _ = _cell_stats(cells[null_index], kind)
            thresholds[kind] = float(_empirical_quantile(values, config.level))
        else:
            thresholds[kind] = chi2_quantile(1.0 - config.level, df)

    epow, failures = {}, {}
    for h_index, h in enumerate(config.h_grid):
        records = cells[h_index]
        counts = _check_budget(records, config.statistics, config.replications)
        for kind in config.statistics:
            values, _ = _cell_stats(records, kind)
            rejections = sum(1 for v in values if v > thresholds[kind])
            epow[(h, kind)] = rejections / len(values) if values else math.nan
            failures[(h, kind)] = counts[kind]

    return PowerTable(
        model_id=config.model_id,
        n=config.n,
        delta=config.delta,
        replications=config.replications,
        level=config.level,
        threshold_mode=config.threshold_mode,
        h_grid=config.h_grid,
        statistics=config.statistics,
        thresholds=thresholds,
        epow=epow,
        failures=failures,
    )


def _config_echo_lines(config: ExperimentConfig):
    items = {
        "mc.h_grid": ",".join(repr(h) for h in config.h_grid),
        "mc.level": repr(config.level),
        "mc.master_seed": str(config.master_seed),
        "mc.replications": str(config.replications),
        "mc.statistics": ",".join(config.statistics),
        "mc.threshold_mode": config.threshold_mode,
        "model.id": config.model_id,
        "model.theta0": ",".join(repr(v) for v in config.theta0.full),
        "sim.delta": repr(config.delta),
        "sim.n": str(config.n),
        "sim.refine": str(config.refine),
        "sim.x0": repr(config.x0),
    }
    if config.box is not None:
        items["model.box.lower"] = ",".join(repr(v) for v in config.box.lower)
        items["model.box.upper"] = ",".join(repr(v) for v in config.box.upper)
    return [f"{k} = {items[k]}" for k in sorted(items)]


def run_table(config: ExperimentConfig, out_csv, workers: int = 1) -> PowerTable:
    """Run the full study, write the CSV and a config-echo sidecar."""
    table = empirical_power(config, workers)
    table.to_csv(out_csv)
    sidecar = str(out_csv) + ".config.txt"
    with open(sidecar, "w") as fh:
        fh.write("\n".join(_config_echo_lines(config)) + "\n")
    return table
