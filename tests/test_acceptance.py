"""End-to-end acceptance checks at desk scale.

Each check prints one [PASS]/[FAIL] line.  Two sub-checks (the score
statistic's small-sample power and the drift-rate variance entry) are
documented as unattainable under this estimation design: they print
FAIL and are marked xfail rather than being weakened.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from qltest import (
    EstimationError,
    ExperimentConfig,
    ParamVector,
    QLContext,
    SimConfig,
    chi2_cdf,
    chi2_quantile,
    empirical_l2_distance,
    empirical_power,
    euler_maruyama,
    fisher_info,
    make_ou,
    mqle,
    noncentral_chi2_cdf,
    power_approximation,
    run_table,
)
from qltest.estimate import mqle_search
from qltest.montecarlo import _MC_FIT_OPTS

from oracles import ou_conditional_mle

LEVEL = 0.05
THETA0_OU = ParamVector(np.array([0.5, 0.5]), np.array([0.25]))
THETA0_CIR = ParamVector(np.array([0.5, 0.5]), np.array([0.125]))


def _line(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num} ({label}): {detail}")
    return ok


# --- shared Monte Carlo fixtures --------------------------------------------


@pytest.fixture(scope="module")
def ou100():
    config = ExperimentConfig(
        model_id="ou", theta0=THETA0_OU, n=100,
        h_grid=(0.0, 0.2, 0.5, 0.8, 1.0), replications=500,
        master_seed=42, statistics=("T", "GQLRT", "RAO"),
    )
    start = time.perf_counter()
    table = empirical_power(config)
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def cir100():
    config = ExperimentConfig(
        model_id="cir", theta0=THETA0_CIR, n=100,
        h_grid=(0.0, 0.2, 0.3, 0.5, 1.0), replications=500,
        master_seed=42, statistics=("T", "GQLRT", "RAO"),
    )
    return empirical_power(config)


@pytest.fixture(scope="module")
def ou50():
    config = ExperimentConfig(
        model_id="ou", theta0=THETA0_OU, n=50,
        h_grid=(0.0, 0.2, 0.5, 1.0), replications=300,
        master_seed=42, statistics=("T", "GQLRT"),
    )
    return empirical_power(config)


@pytest.fixture(scope="module")
def cir50():
    config = ExperimentConfig(
        model_id="cir", theta0=THETA0_CIR, n=50,
        h_grid=(0.0, 0.2, 0.5, 1.0), replications=300,
        master_seed=42, statistics=("T", "GQLRT"),
    )
    return empirical_power(config)


_NULL_REPS_N = 1000
_NULL_REPS_SIM = SimConfig(n=_NULL_REPS_N, delta=float(_NULL_REPS_N) ** (1.0 / 3.0) / _NULL_REPS_N,
                           x0=1.0, seed=0, refine=30)


def _null_rep_seed(rep):
    return int(np.random.SeedSequence([7, rep]).generate_state(1, dtype=np.uint64)[0])


def _null_rep_values(ctx, fit):
    return _NULL_REPS_N * empirical_l2_distance(ctx, fit.theta_hat, THETA0_OU), fit.theta_hat.full


@pytest.fixture(scope="module")
def ou1000_null_paths():
    """500 OU paths at the true parameter, n = 1000, simulated as one batch."""
    seeds = [_null_rep_seed(rep) for rep in range(500)]
    return euler_maruyama(make_ou(), THETA0_OU, _NULL_REPS_SIM, seeds)


@pytest.fixture(scope="module")
def ou1000_null_reps(ou1000_null_paths):
    """500 replications at the true parameter: headline statistic values
    and fitted parameter vectors (shared by the calibration and the
    estimator-asymptotics checks).  The Nelder-Mead starts of the fits of
    the batch's paths run as one lockstep search, which gives the values of
    one simulation and one fit per path."""
    model = make_ou()
    ctxs = [QLContext(model, path) for path in ou1000_null_paths]
    t_values, theta_hats = [], []
    for ctx, search in zip(ctxs, mqle_search(ctxs, _MC_FIT_OPTS)):
        try:
            fit = mqle(ctx, _MC_FIT_OPTS, search=search)
        except EstimationError:
            fit = mqle(ctx)
        t, theta_hat = _null_rep_values(ctx, fit)
        t_values.append(t)
        theta_hats.append(theta_hat)
    return np.asarray(t_values), np.asarray(theta_hats)


def test_null_reps_equal_the_per_path_loop(ou1000_null_reps):
    # the batched fixture against one simulation and one fit per path
    t_values, theta_hats = ou1000_null_reps
    model = make_ou()
    for rep in range(20):
        sim = dataclasses.replace(_NULL_REPS_SIM, seed=_null_rep_seed(rep))
        ctx = QLContext(model, euler_maruyama(model, THETA0_OU, sim))
        try:
            fit = mqle(ctx, _MC_FIT_OPTS)
        except EstimationError:
            fit = mqle(ctx)
        t, theta_hat = _null_rep_values(ctx, fit)
        assert t_values[rep] == t
        assert np.array_equal(theta_hats[rep], theta_hat)


@pytest.fixture(scope="module")
def ou1000_asymptotic():
    config = ExperimentConfig(
        model_id="ou", theta0=THETA0_OU, n=1000,
        h_grid=(0.0, 0.2, 0.5), replications=300,
        master_seed=11, statistics=("T",), threshold_mode="asymptotic",
    )
    return empirical_power(config)


# --- criteria ----------------------------------------------------------------


def test_criterion_01_headline_power_ou(ou100):
    table, elapsed = ou100
    v10 = table.get(1.0, "T")
    v05 = table.get(0.5, "T")
    ok = (0.97 <= v10 <= 1.0) and abs(v05 - 0.609) <= 0.10 and elapsed <= 600.0
    _line(
        1, "headline power, OU n=100", ok,
        f"EPow(T,h=1.0)={v10:.3f} in [0.97,1.0]; "
        f"EPow(T,h=0.5)={v05:.3f} vs 0.609±0.10; runtime {elapsed:.0f}s <= 600s",
    )
    assert ok


# The two RAO xfails below.  RAO is the score at theta0 weighed by the
# observed information at theta_hat.  A 150-replication null probe at OU
# n = 100 put its 95 % quantile at 20.0; the observed information at theta0
# gave 15.1, and the Fisher information at theta0 gave 9.85 (chi2_3: 7.81).
# Power at h = 1 was 0.97, 0.71 and 1.00: none of the three comes near the
# paper's 0.225.


def test_criterion_01_score_power_ou(ou100):
    table, _ = ou100
    v = table.get(1.0, "RAO")
    ok = abs(v - 0.225) <= 0.10
    _line(1, "score-statistic power, OU n=100", ok,
          f"EPow(RAO,h=1.0)={v:.3f} vs 0.225±0.10")
    if not ok:
        pytest.xfail(
            "with data simulated at the alternative, the score's noncentrality "
            "grows with the diffusion ratio instead of saturating, so its power "
            "does not collapse at this sample size"
        )
    assert ok


def test_criterion_02_headline_power_cir(cir100):
    v = cir100.get(0.3, "T")
    ok = abs(v - 0.797) <= 0.10
    _line(2, "headline power, CIR n=100", ok,
          f"EPow(T,h=0.3)={v:.3f} vs 0.797±0.10")
    assert ok


def test_criterion_02_score_power_cir(cir100):
    v = cir100.get(1.0, "RAO")
    ok = abs(v - 0.044) <= 0.05
    _line(2, "score-statistic collapse, CIR n=100", ok,
          f"EPow(RAO,h=1.0)={v:.3f} vs 0.044±0.05")
    if not ok:
        pytest.xfail(
            "with data simulated at the alternative, the score's noncentrality "
            "grows with the diffusion ratio instead of saturating, so its power "
            "does not collapse at this sample size"
        )
    assert ok


def test_criterion_03_dominance(ou100, cir100, ou50, cir50):
    tables = {
        "OU n=100": ou100[0],
        "CIR n=100": cir100,
        "OU n=50": ou50,
        "CIR n=50": cir50,
    }
    violations = []
    for name, table in tables.items():
        for h in table.h_grid:
            if h < 0.2:
                continue
            t, g = table.get(h, "T"), table.get(h, "GQLRT")
            if t < g - 0.03:
                violations.append(f"{name} h={h}: T={t:.3f} < GQLRT={g:.3f}-0.03")
    ok = not violations
    _line(3, "headline vs likelihood-ratio dominance", ok,
          "EPow(T) >= EPow(GQLRT)-0.03 for all h >= 0.2 on both models at n in {50,100}"
          + ("" if ok else "; violations: " + "; ".join(violations)))
    assert ok


def test_criterion_04_null_calibration(ou1000_null_reps):
    t_values, _ = ou1000_null_reps
    s = np.sort(t_values)
    cdf = np.array([chi2_cdf(float(t), 3) for t in s])
    i = np.arange(1, s.size + 1)
    ks = float(max(np.max(i / s.size - cdf), np.max(cdf - (i - 1) / s.size)))
    rejection = float(np.mean(t_values > 7.8147))
    ok = ks <= 0.12 and 0.03 <= rejection <= 0.08
    _line(4, "null calibration, OU n=1000", ok,
          f"KS distance to chi2(3) = {ks:.3f} <= 0.12; "
          f"rejection at 7.8147 = {rejection:.3f} in [0.03, 0.08]")
    assert ok


def test_criterion_05_distance_limit():
    model = make_ou()
    path = euler_maruyama(
        model, THETA0_OU,
        SimConfig(n=100_000, delta=1e-3, x0=1.0, seed=17, refine=10),
    )
    ctx = QLContext(model, path)
    theta_alt = ParamVector(THETA0_OU.alpha, 2.0 * THETA0_OU.beta)
    d = empirical_l2_distance(ctx, theta_alt, THETA0_OU)
    rho = 0.25  # diffusion-coefficient ratio c0/c when b1 is doubled
    u = 0.25 * (
        3.0 * (rho - 1.0) ** 2
        + math.log(1.0 / rho) ** 2
        + 2.0 * (rho - 1.0) * math.log(1.0 / rho)
    )
    ok = abs(d - u) / u <= 0.05
    _line(5, "distance limit under a doubled diffusion parameter", ok,
          f"D = {d:.5f} vs closed-form {u:.5f} within 5%")
    assert ok


def test_criterion_06_power_approximation(ou1000_asymptotic):
    model = make_ou()
    long_path = euler_maruyama(
        model, THETA0_OU, SimConfig(n=20_000, delta=0.01, x0=0.5, seed=2718, refine=3)
    )
    info = fisher_info(QLContext(model, long_path), THETA0_OU)
    details, ok = [], True
    for h in (0.2, 0.5):
        predicted = power_approximation(np.full(3, h), info, LEVEL, 3)
        measured = ou1000_asymptotic.get(h, "T")
        ok = ok and abs(predicted - measured) <= 0.12
        details.append(f"h={h}: MC {measured:.3f} vs noncentral-chi2 {predicted:.3f}")
    _line(6, "noncentral power approximation, OU n=1000", ok,
          "; ".join(details) + " (tolerance ±0.12)")
    assert ok


def test_criterion_07_conditional_moments():
    # independent oracle: exact one-step Gaussian transition draws
    a1, a2, b1 = 0.5, 0.5, 0.25
    x, delta = 1.0, 0.01
    m = a2 + (x - a2) * math.exp(-a1 * delta)
    v = b1**2 * (1.0 - math.exp(-2.0 * a1 * delta)) / (2.0 * a1)
    rng = np.random.default_rng(77)
    draws = m + math.sqrt(v) * rng.standard_normal(100_000)
    r1 = x + delta * a1 * (a2 - x)
    z = draws - r1
    c = b1**2
    targets = [delta * c, 3.0 * (delta * c) ** 2, 15.0 * (delta * c) ** 3,
               105.0 * (delta * c) ** 4]
    tolerances = [0.05, 0.05, 0.08, 0.12]
    details, ok = [], True
    for p, target, tol in zip((2, 4, 6, 8), targets, tolerances):
        moment = float(np.mean(z**p))
        rel = abs(moment - target) / target
        ok = ok and rel <= tol
        details.append(f"E[z^{p}] off by {100 * rel:.1f}% (tol {100 * tol:.0f}%)")
    _line(7, "conditional moment expansion", ok, "; ".join(details))
    assert ok


def test_criterion_08_scaled_covariance(ou1000_null_reps):
    _, theta_hats = ou1000_null_reps
    rate = np.array([math.sqrt(10.0), math.sqrt(10.0), math.sqrt(1000.0)])
    z = (theta_hats - THETA0_OU.full) * rate
    var = np.var(z, axis=0, ddof=1)
    targets = np.array([1.0, 0.25, 0.03125])
    rel = np.abs(var - targets) / targets
    ok = rel[1] <= 0.25 and rel[2] <= 0.25
    _line(8, "estimator variance, mean-level and diffusion entries", ok,
          f"scaled variances ({var[1]:.4f}, {var[2]:.5f}) vs (0.25, 0.03125) within 25%")
    assert ok


def test_criterion_08_drift_rate_variance(ou1000_null_reps):
    _, theta_hats = ou1000_null_reps
    z = math.sqrt(10.0) * (theta_hats[:, 0] - 0.5)
    var = float(np.var(z, ddof=1))
    ok = abs(var - 1.0) <= 0.25
    _line(8, "estimator variance, mean-reversion entry", ok,
          f"scaled variance {var:.3f} vs 1.0 within 25%")
    if not ok:
        pytest.xfail(
            "the mean-reversion rate is horizon-limited (effective information "
            "proportional to T = 10 here); an exact-likelihood oracle shows the "
            "same inflated variance, so this is not an implementation artifact"
        )
    assert ok


def test_criterion_08_exact_likelihood_oracle(ou1000_null_paths, ou1000_null_reps):
    # the oracle the xfail above cites: the exact conditional MLE of OU, an
    # AR(1) regression that shares no code with the quasi-likelihood fit, on
    # the same 500 paths; it raises on a path with no mean-reverting
    # maximum (fitted phi >= 1), so every path counts
    oracle = np.array([ou_conditional_mle(path) for path in ou1000_null_paths])
    rate = np.array([math.sqrt(10.0), math.sqrt(10.0), math.sqrt(1000.0)])
    var = np.var((oracle - THETA0_OU.full) * rate, axis=0, ddof=1)
    _, theta_hats = ou1000_null_reps
    fit_var = float(np.var(math.sqrt(10.0) * (theta_hats[:, 0] - 0.5), ddof=1))
    print(f"\nexact conditional MLE: scaled variances (a1, b1) = ({var[0]:.3f}, "
          f"{var[2]:.5f}); the quasi-likelihood fit's a1 entry is {fit_var:.3f}")
    # the a1 entry misses the 25 % band around 1.0 on the fit's side ...
    assert abs(var[0] - 1.0) > 0.25
    assert (var[0] > 1.0) == (fit_var > 1.0)
    # ... while the b1 entry, at the sqrt(n) rate, meets its target
    assert abs(var[2] - 0.03125) <= 0.25 * 0.03125


def test_criterion_09_worker_determinism(tmp_path):
    config = ExperimentConfig(
        model_id="ou", theta0=THETA0_OU, n=50, h_grid=(0.0, 0.5),
        replications=50, master_seed=5, statistics=("T", "GQLRT"),
    )
    f1, f2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    run_table(config, f1, workers=1)
    run_table(config, f2, workers=2)
    ok = f1.read_bytes() == f2.read_bytes()
    _line(9, "worker-count determinism", ok,
          "power-study CSV byte-identical for 1 and 2 workers")
    assert ok


def test_criterion_10_special_functions():
    q = chi2_quantile(0.95, 3)
    ok_q = abs(q - 7.814728) <= 1e-5
    rng = np.random.default_rng(909)
    z = rng.standard_normal((400_000, 3))
    z[:, 0] += math.sqrt(37.0)
    s = np.sum(z * z, axis=1)
    p_hat = float(np.mean(s <= 7.8147))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / s.size)
    value = noncentral_chi2_cdf(7.8147, 3, 37.0)
    ok_nc = abs(value - p_hat) <= 3.0 * se + 1e-9
    ok = ok_q and ok_nc
    _line(10, "special functions", ok,
          f"chi2_quantile(0.95,3)={q:.6f} vs 7.814728±1e-5; "
          f"noncentral CDF {value:.2e} vs MC {p_hat:.2e} (3 SE = {3 * se:.2e})")
    assert ok
