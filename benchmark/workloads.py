"""The three benchmark workloads and the public calls they make.

Each workload is a closed loop over *units*: the next unit starts only after
the previous one has finished, in one process with ``workers=1``.

* ``mc_ou_n100`` -- one unit is one ``run_table`` call for OU at n = 100
  (h in {0, 0.5, 1.0}, R = 50, all six statistics, empirical thresholds).
  The fit dominates it, so it shows the estimate and quasilik layers.
* ``mc_cir_n1000`` -- one unit is one ``run_table`` call for CIR at n = 1000
  (h in {0, 0.2}, R = 50).  Simulation dominates it, and it runs the CIR
  domain clipping and resimulation code that a batched simulator must keep
  bit-identical.  h stays below 0.3, where every statistic has power 1 and
  the output check would tell nothing.
* ``fit_ou_n1000`` -- one unit is one observed OU path (exact transitions,
  n = 1000, delta = n^(-2/3)) analysed the way the CLI ``estimate`` and
  ``test`` commands do.  It calls no simulator, and it is the only workload
  that reaches the public ``hypotests`` and ``distributions`` code.

The workload seed only chooses inputs: it derives the ``master_seed`` of
each table, or seeds the benchmark's own exact-OU path generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import qltest
from qltest import estimate, hypotests, montecarlo, quasilik
from qltest.errors import QltestError
from qltest.estimate import FitOptions
from qltest.models import ParamVector, make_model
from qltest.montecarlo import ExperimentConfig, PowerTable
from qltest.quasilik import QLContext
from qltest.simulate import SamplePath, SimConfig, euler_maruyama, observation_schedule

LEVEL = 0.05
REPLICATIONS = 50
THETA0_OU = (0.5, 0.5, 0.25)
THETA0_CIR = (0.5, 0.5, 0.125)

# the warm-up input comes from a stream no unit index reaches
_WARMUP_STREAM = 2**31

# what a fit or statistic may raise on bad data; anything else is a bug
# and ends the run
OPERATION_ERRORS = (QltestError, FloatingPointError, np.linalg.LinAlgError)

# the public functions the benchmark itself calls; the traced run wraps
# these at the call site
BENCH_CALLS = (
    "run_table", "mqle", "initial_beta", "adaptive_estimate", "fisher_info",
    "t_statistic", "gqlrt_statistic", "wald_statistic", "rao_statistic",
    "phi_divergence_statistic", "stepwise_beta", "stepwise_alpha", "power_approximation",
)

# the names a module binds and calls internally; the traced run replaces
# them in that module's namespace, so only calls made from there are seen
MODULE_BINDINGS = (
    (montecarlo, ("euler_maruyama", "mqle", "ql_terms", "observed_info", "ql_grad")),
    (estimate, ("ql_total",)),
    (hypotests, ("ql_terms", "observed_info", "ql_grad",
                 "chi2_quantile", "chi2_cdf", "noncentral_chi2_cdf")),
)


def layer_of(fn) -> str:
    """The layer of a function is the package module that defines it."""
    return fn.__module__.rsplit(".", 1)[-1]


def raw_calls() -> dict:
    """The benchmark's calls, unwrapped (the untraced run uses these)."""
    return {name: getattr(qltest, name) for name in BENCH_CALLS}


def unit_seed(seed: int, k: int) -> int:
    """master_seed of table k: a pure function of (workload seed, k)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, dtype=np.uint64)[0])


def _theta(full) -> ParamVector:
    return ParamVector.from_full(np.asarray(full, dtype=float), 2, 1)


@dataclass
class Outcome:
    """What one unit did, read back after its timed call returned."""

    paths: int
    attempted: int
    failed: int
    record: dict = field(default_factory=dict)


class PowerStudy:
    """A ``run_table`` power study; one unit is one whole table."""

    count_units = 1  # units over which the traced run's counts are taken
    # spans a traced run must see on this workload; zero calls is reported
    expected_spans = (
        "bench.run_table", "montecarlo.euler_maruyama", "montecarlo.mqle",
        "montecarlo.ql_terms", "montecarlo.observed_info", "montecarlo.ql_grad",
        "estimate.ql_total", "hypotests.ql_terms",
    )

    def __init__(self, name, model_id, theta0, n, h_grid):
        self.name = name
        self.model_id = model_id
        self.theta0 = _theta(theta0)
        self.n = n
        self.h_grid = tuple(h_grid)
        self.statistics = ("T", "GQLRT", "WALD", "RAO", "AKL", "BS")

    @property
    def paths_per_unit(self) -> int:
        return len(self.h_grid) * REPLICATIONS

    def config(self, master_seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            model_id=self.model_id,
            theta0=self.theta0,
            n=self.n,
            h_grid=self.h_grid,
            replications=REPLICATIONS,
            master_seed=master_seed,
            level=LEVEL,
            statistics=self.statistics,
            threshold_mode="empirical",
            refine=30,
        )

    def prepare(self, seed: int, k: int, out_dir: Path):
        return self.config(unit_seed(seed, k)), out_dir / f"{self.name}-{k}.csv"

    def run(self, calls, unit):
        config, csv_path = unit
        calls["run_table"](config, csv_path, workers=1)

    def collect(self, unit, _result) -> Outcome:
        _, csv_path = unit
        table = PowerTable.from_csv(csv_path)
        return Outcome(
            paths=self.paths_per_unit,
            attempted=self.paths_per_unit * len(self.statistics),
            failed=sum(table.failures.values()),
            record=table_record(table),
        )

    def check(self, outcome: Outcome, reference) -> list:
        return checks.check_table(outcome.record, self, reference)

    def warm_up(self, seed: int):
        """One replication's worth of calls, so lazy imports and caches fill."""
        model = make_model(self.model_id)
        config = self.config(unit_seed(seed, _WARMUP_STREAM))
        sim = SimConfig(n=self.n, delta=config.delta, x0=config.x0,
                        seed=config.master_seed, refine=config.refine)
        ctx = QLContext(model, euler_maruyama(model, self.theta0, sim))
        fit = estimate.mqle(ctx, FitOptions(n_starts=2, polish_top=1))
        quasilik.ql_terms(ctx, self.theta0)
        quasilik.observed_info(ctx, fit.theta_hat)
        quasilik.ql_grad(ctx, self.theta0)


def table_record(table: PowerTable) -> dict:
    """A power table as plain JSON data: rows follow h, columns statistics."""
    return {
        "R": table.replications,
        "level": table.level,
        "h": list(table.h_grid),
        "statistics": list(table.statistics),
        "thresholds": [table.thresholds[k] for k in table.statistics],
        "epow": [[table.epow[(h, k)] for k in table.statistics] for h in table.h_grid],
        "failures": [[table.failures[(h, k)] for k in table.statistics] for h in table.h_grid],
    }


def ou_transition(theta, delta: float, x):
    """Exact OU transition law of X_{t+delta} given X_t = x: (mean, variance)."""
    a1, a2, b1 = theta
    decay = math.exp(-a1 * delta)
    mean = a2 + (np.asarray(x, dtype=float) - a2) * decay
    var = b1 * b1 * (1.0 - decay * decay) / (2.0 * a1)
    return mean, var


def exact_ou_path(theta, n: int, delta: float, x0: float, rng) -> np.ndarray:
    """X_0 = x0 and n exact OU transitions at spacing delta."""
    _, sd = ou_transition(theta, delta, 0.0)
    sd = math.sqrt(sd)
    z = rng.standard_normal(n)
    values = np.empty(n + 1)
    values[0] = x = x0
    for i in range(n):
        x = float(ou_transition(theta, delta, x)[0]) + sd * z[i]
        values[i + 1] = x
    return values


class FitAndTest:
    """Observed-data analysis of one exact OU path per unit, as the CLI does it."""

    name = "fit_ou_n1000"
    n = 1000
    paths_per_unit = 1
    count_units = 20
    expected_spans = tuple(f"bench.{name}" for name in BENCH_CALLS if name != "run_table") + (
        "estimate.ql_total", "hypotests.ql_terms", "hypotests.observed_info",
        "hypotests.ql_grad", "hypotests.chi2_quantile", "hypotests.chi2_cdf",
        "hypotests.noncentral_chi2_cdf",
    )

    def __init__(self):
        self.theta0 = _theta(THETA0_OU)
        self.model = make_model("ou")
        self.delta = observation_schedule(self.n)[1]
        self.power_h = np.ones(3)

    def path(self, seed: int, stream: int) -> SamplePath:
        rng = np.random.default_rng([seed, stream])
        values = exact_ou_path(THETA0_OU, self.n, self.delta, 1.0, rng)
        return SamplePath(delta=self.delta, values=values)

    def prepare(self, seed: int, k: int, _out_dir: Path):
        return self.path(seed, k)

    def run(self, calls, path) -> Outcome:
        """Fit, every statistic, the adaptive route and the power approximation."""
        out = Outcome(paths=1, attempted=0, failed=0)
        rec = out.record

        def attempt(name, *args):
            out.attempted += 1
            try:
                return calls[name](*args)
            except OPERATION_ERRORS:
                out.failed += 1
                return None

        ctx = QLContext(self.model, path)
        theta0 = self.theta0
        fit = attempt("mqle", ctx)
        if fit is not None:
            theta_hat = fit.theta_hat
            rec["theta_mqle"] = theta_hat.full.tolist()
            reports = [
                attempt("t_statistic", ctx, theta_hat, theta0, LEVEL),
                attempt("gqlrt_statistic", ctx, theta_hat, theta0, LEVEL),
                attempt("wald_statistic", ctx, theta_hat, theta0, LEVEL),
                attempt("rao_statistic", ctx, theta_hat, theta0, LEVEL),
                attempt("phi_divergence_statistic", ctx, theta_hat, theta0, "AKL", LEVEL),
            ]
            info = attempt("fisher_info", ctx, theta_hat)
            if info is not None:
                power = attempt("power_approximation", self.power_h, info, LEVEL, 3)
                if power is not None:
                    rec["power"] = power
        else:
            reports = []
        pre = attempt("initial_beta", ctx)
        if pre is not None:
            beta_tilde = pre.theta_hat.beta
            rec["beta_initial"] = beta_tilde.tolist()
            reports.append(attempt("stepwise_beta", ctx, beta_tilde, theta0.beta, LEVEL))
            ada = attempt("adaptive_estimate", ctx)
            if ada is not None:
                rec["theta_adaptive"] = ada.theta_hat.full.tolist()
                reports.append(attempt("stepwise_alpha", ctx, ada.theta_hat.alpha,
                                       theta0.alpha, beta_tilde, LEVEL))
        rec["stats"] = {r.kind: r.statistic for r in reports if r is not None}
        rec["p_values"] = {r.kind: r.p_value for r in reports if r is not None}
        return out

    def collect(self, _unit, result: Outcome) -> Outcome:
        return result

    def check(self, outcome: Outcome, reference) -> list:
        return checks.check_fit(outcome.record, self.model.box, reference)

    def warm_up(self, seed: int):
        self.run(raw_calls(), self.path(seed, _WARMUP_STREAM))


WORKLOADS = {
    "mc_ou_n100": lambda: PowerStudy("mc_ou_n100", "ou", THETA0_OU, 100, (0.0, 0.5, 1.0)),
    "mc_cir_n1000": lambda: PowerStudy("mc_cir_n1000", "cir", THETA0_CIR, 1000, (0.0, 0.2)),
    "fit_ou_n1000": FitAndTest,
}
