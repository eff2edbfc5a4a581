"""Replicated power studies: empirical null thresholds and power curves.

Each replication simulates one path at the local alternative
theta0 + phi(n)^{1/2} h, fits the maximum quasi-likelihood estimator
once, and evaluates every requested statistic against the null theta0
on that shared path and fit (paired design).  Per-replication seeds are
derived from (master_seed, replication index) only — independent of the
statistic kind and of h — so results are identical for any worker count
and the h columns are common-random-number coupled.  A table runs as one
block over its (h cell, replication) pairs: the paths of the block are
simulated as one batch, each at its cell's alternative, and all their fits
are one lockstep Nelder-Mead search and L-BFGS-B polish (``mqle_search``),
which gives the same paths and fits as one simulation and one fit per
replication.  A path whose fit fails (``EstimationError``) falls back to
the full multi-start ``mqle``.  With workers, each takes one contiguous run
of pairs.

An h cell is one (R, len(statistics)) float matrix, rows in replication
order.  NaN marks a failed replication of a kind: no path (every simulation
attempt left the domain), no fit, a classified error or a non-finite value.
A column's NaN count is its failure count; the threshold and the rejection
rate read its other values.

The statistics themselves are defined once, in the ``hypotests`` registry;
the harness evaluates each requested kind from that registry on pieces it
computes through its own ``ql_terms``, ``observed_info`` and ``ql_grad``
bindings, with the phi log-ratios taken from ``hypotests._phi_ratios`` once
per path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, EstimationError, HarnessError, QltestError, _check_count
from .estimate import FitOptions, mqle, mqle_search
from .hypotests import _STATISTICS, _Pieces, _check_level, _chi2_threshold, _phi_ratios
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
    statistics: tuple = tuple(_STATISTICS)
    threshold_mode: str = "empirical"
    refine: int = 30
    x0: float = 1.0
    box: Optional[ParamBox] = None

    def __post_init__(self):
        object.__setattr__(self, "h_grid", tuple(float(h) for h in self.h_grid))
        object.__setattr__(self, "statistics", tuple(s.upper() for s in self.statistics))
        if 0.0 not in self.h_grid:
            raise ConfigError("h_grid must contain 0 (the null column)")
        if len(set(self.h_grid)) < len(self.h_grid):
            raise ConfigError(f"h_grid repeats a value: {self.h_grid}")
        _check_level(self.level)
        _check_count("n", self.n, 2)
        _check_count("refine", self.refine, 1)
        _check_count("replications", self.replications, 50)
        unknown = set(self.statistics) - _STATISTICS.keys()
        if unknown:
            raise ConfigError(f"unsupported statistics for power tables: {sorted(unknown)}")
        if len(set(self.statistics)) < len(self.statistics):
            raise ConfigError(f"statistics repeat a kind: {self.statistics}")
        if self.threshold_mode not in ("empirical", "asymptotic"):
            raise ConfigError("threshold_mode must be 'empirical' or 'asymptotic'")
        uncalibrated = [k for k in self.statistics if not _STATISTICS[k].chi2]
        if self.threshold_mode == "asymptotic" and uncalibrated:
            raise ConfigError(
                f"{', '.join(uncalibrated)} has no asymptotic calibration; use empirical thresholds"
            )
        model = self.model()  # an unknown model id or a bad box fails here
        model.check_theta(self.theta0)
        fewest = model.m1 + model.m2 + 1  # every fit refuses a shorter path
        if self.n < fewest:
            raise ConfigError(f"n = {self.n!r} is too short to fit {fewest - 1} parameters: "
                              f"it must be at least {fewest}")
        if not model.in_domain(self.x0):
            raise ConfigError(
                f"x0 = {self.x0!r} lies outside the open state domain {model.state_domain}")

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
        cells = {(float(row["h"]), row["statistic"]): row for row in rows}
        return cls(
            model_id=first["model"],
            n=int(first["n"]),
            delta=float(first["delta"]),
            replications=int(first["R"]),
            level=float(first["level"]),
            threshold_mode=first["threshold_mode"],
            h_grid=tuple(dict.fromkeys(h for h, _ in cells)),
            statistics=tuple(dict.fromkeys(kind for _, kind in cells)),
            thresholds={kind: float(row["threshold"]) for (_, kind), row in cells.items()},
            epow={key: float(row["epow"]) for key, row in cells.items()},
            failures={key: int(row["failures"]) for key, row in cells.items()},
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


def _statistic_values(ctx, fit, theta_null, kinds):
    """Raw statistic values on a shared path and fit, in ``kinds`` order;
    NaN where a kind raised a classified error or is non-finite."""
    pieces = _Pieces(ctx, fit.theta_hat, theta_null, ql_terms, observed_info, ql_grad, _phi_ratios)
    row = np.full(len(kinds), np.nan)
    for j, kind in enumerate(kinds):
        try:
            row[j] = _STATISTICS[kind].value(pieces)
        except _STATISTIC_ERRORS:
            pass
    row[~np.isfinite(row)] = np.nan
    return row


def _replication_seed(master_seed: int, rep: int) -> int:
    """Simulation seed of replication ``rep``: a pure function of the pair."""
    return int(derive_seed_sequence(master_seed, rep).generate_state(1, dtype=np.uint64)[0])


def _table_block(args):
    """The rows of the (h_index, rep) pairs ``pairs`` of the table, in order.

    Their paths are simulated as one batch, each at its cell's alternative,
    the search and polish of all their fits run in lockstep, and then every
    kind is evaluated on each path's fit.  Seeds
    depend only on (master_seed, rep): the h cells are coupled by common
    random numbers, as are all statistic kinds.  A path that failed every
    simulation attempt leaves its row NaN.
    """
    config, pairs = args
    model = config.model()
    delta = config.delta
    alternatives = [local_alternative(config.theta0, h, config.n, delta, model.box)
                    for h in config.h_grid]
    # seed is unused: each replication brings its own
    sim = SimConfig(n=config.n, delta=delta, x0=config.x0, seed=0, refine=config.refine)
    thetas = [alternatives[h_index] for h_index, _ in pairs]
    seeds = [_replication_seed(config.master_seed, rep) for _, rep in pairs]
    paths = euler_maruyama(model, thetas, sim, seeds)
    rows = np.full((len(pairs), len(config.statistics)), np.nan)
    simulated = [i for i, path in enumerate(paths) if isinstance(path, SamplePath)]
    ctxs = [QLContext(model, paths[i]) for i in simulated]
    fits = mqle_search(ctxs, _MC_FIT_OPTS) if ctxs else []
    for i, ctx, entry in zip(simulated, ctxs, fits):
        rows[i] = _fit_and_evaluate(config, ctx, entry)
    return rows


def _fit_and_evaluate(config: ExperimentConfig, ctx, entry):
    """The row of one replication; NaN throughout when no fit succeeds.

    Only ``EstimationError`` is a failed fit: no fit raises ``ConfigError``
    on a simulated path, so one raised here is a bug and propagates.
    """
    try:
        try:
            fit = mqle(ctx, _MC_FIT_OPTS, polished=entry)
        except EstimationError:
            fit = mqle(ctx)  # full multi-start fallback
    except EstimationError:
        return math.nan
    return _statistic_values(ctx, fit, config.theta0, config.statistics)


def _collect_table(config: ExperimentConfig, workers: int = 1):
    """The value matrices of all h cells, shape (len(h_grid), R, kinds).

    The table's (h_index, rep) pairs, in cell-major order, run as one
    block.  With several workers each takes one contiguous run of pairs,
    which may straddle cells, so every batch stays as large as the split
    allows and the table starts one pool.
    """
    pairs = [(h_index, rep) for h_index in range(len(config.h_grid))
             for rep in range(config.replications)]
    if workers <= 1:
        rows = _table_block((config, pairs))
    else:
        # loaded here: concurrent.futures.process pulls in multiprocessing,
        # which a run with one worker never needs
        from concurrent.futures import ProcessPoolExecutor

        size = -(-len(pairs) // workers)
        tasks = [(config, pairs[i : i + size]) for i in range(0, len(pairs), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = np.concatenate(list(pool.map(_table_block, tasks)))
    return rows.reshape(len(config.h_grid), config.replications, len(config.statistics))


def _empirical_quantile(values, level):
    """Upper order statistic at rank ceil((1 - level) * m), ties by value."""
    ordered = sorted(values)
    m = len(ordered)
    rank = int(math.ceil((1.0 - level) * m))
    rank = min(max(rank, 1), m)
    return ordered[rank - 1]


def _check_budget(cell, kinds, replications):
    """Failed replications per kind, the NaN count of its column."""
    counts = dict(zip(kinds, np.isnan(cell).sum(axis=0).tolist()))
    worst = max(counts.values()) if counts else 0
    if worst > _FAILURE_BUDGET * replications:
        raise HarnessError(
            f"failure budget exceeded: {worst}/{replications} failed replications",
            failure_counts=counts,
        )
    return counts


def null_threshold(config: ExperimentConfig, kind: str, workers: int = 1) -> float:
    """Empirical (1 - level)-quantile of the statistic under the null.

    Only the null cell is run, and only ``kind`` is evaluated on it; a kind
    the harness cannot tabulate raises ConfigError.
    """
    config = replace(config, h_grid=(0.0,), statistics=(kind,), threshold_mode="empirical")
    return empirical_power(config, workers).thresholds[config.statistics[0]]


def empirical_power(config: ExperimentConfig, workers: int = 1) -> PowerTable:
    """Rejection frequencies over the h grid for every requested kind."""
    cells = _collect_table(config, workers)
    null = cells[config.h_grid.index(0.0)]
    _check_budget(null, config.statistics, config.replications)

    thresholds = {}
    for j, kind in enumerate(config.statistics):
        if config.threshold_mode == "empirical":
            column = null[~np.isnan(null[:, j]), j]
            thresholds[kind] = float(_empirical_quantile(column, config.level))
        else:
            thresholds[kind] = _chi2_threshold(kind, config.level, config.theta0.dim)

    epow, failures = {}, {}
    for h, cell in zip(config.h_grid, cells):
        counts = _check_budget(cell, config.statistics, config.replications)
        for j, kind in enumerate(config.statistics):
            column = cell[~np.isnan(cell[:, j]), j]
            rejections = int(np.sum(column > thresholds[kind]))
            epow[(h, kind)] = rejections / column.size if column.size else math.nan
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


def run_table(config: ExperimentConfig, out_csv, workers: int = 1) -> PowerTable:
    """Run the full study and write its CSV."""
    table = empirical_power(config, workers)
    table.to_csv(out_csv)
    return table
