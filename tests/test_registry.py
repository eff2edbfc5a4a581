"""The statistic registry: every tabulated kind is defined once, and the
public functions, the Monte Carlo harness and the registry agree bit for
bit on OU and CIR paths at n = 100 and 1000."""

import math

import numpy as np
import pytest

from qltest import (
    BoundaryError,
    ExperimentConfig,
    FitOptions,
    ParamVector,
    QLContext,
    SimConfig,
    euler_maruyama,
    gqlrt_statistic,
    make_model,
    mqle,
    phi_divergence_statistic,
    rao_statistic,
    t_statistic,
    wald_statistic,
)
from qltest import montecarlo
from qltest.hypotests import _STATISTICS, _Pieces, _phi_ratios
from qltest.montecarlo import _statistic_values
from qltest.quasilik import observed_info, ql_grad, ql_terms

THETA0 = {
    "ou": ParamVector([0.5, 0.5], [0.25]),
    "cir": ParamVector([0.5, 0.5], [0.125]),
}

PUBLIC = {
    "T": t_statistic,
    "GQLRT": gqlrt_statistic,
    "WALD": wald_statistic,
    "RAO": rao_statistic,
    "AKL": lambda ctx, th, t0: phi_divergence_statistic(ctx, th, t0, "AKL"),
    "BS": lambda ctx, th, t0: phi_divergence_statistic(ctx, th, t0, "BS", threshold=1.0),
}


def _cases():
    """(ctx, fit, theta0) for two paths each of OU and CIR at n = 100 and 1000."""
    cases = []
    for model_id, theta0 in THETA0.items():
        model = make_model(model_id)
        for n in (100, 1000):
            for seed in (3, 4):
                sim = SimConfig(n=n, delta=n ** (-2 / 3), x0=1.0, seed=seed, refine=30)
                ctx = QLContext(model, euler_maruyama(model, theta0, sim))
                cases.append((ctx, mqle(ctx, FitOptions(n_starts=2, polish_top=1)), theta0))
    return cases


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_registry_covers_the_tabulated_kinds():
    assert tuple(_STATISTICS) == ("T", "GQLRT", "WALD", "RAO", "AKL", "BS")
    assert [k for k, s in _STATISTICS.items() if not s.chi2] == ["BS"]
    config = ExperimentConfig(model_id="ou", theta0=THETA0["ou"], n=50, h_grid=(0.0,),
                              replications=50, master_seed=1)
    assert config.statistics == tuple(_STATISTICS)


def test_registry_harness_and_public_functions_agree(cases):
    for ctx, fit, theta0 in cases:
        theta_hat = fit.theta_hat
        harness = dict(zip(_STATISTICS, _statistic_values(ctx, fit, theta0, tuple(_STATISTICS))))
        for kind, stat in _STATISTICS.items():
            pieces = _Pieces(ctx, theta_hat, theta0, ql_terms, observed_info, ql_grad, _phi_ratios)
            public = PUBLIC[kind](ctx, theta_hat, theta0).statistic
            assert stat.value(pieces) == public
            assert harness[kind] == public


def test_gqlrt_is_the_sum_of_term_differences(cases):
    # summing the differences avoids the cancellation of two large sums:
    # the value stays within a few ulps of the exactly rounded sum
    for ctx, fit, theta0 in cases:
        exact = 2.0 * math.fsum(np.concatenate(
            [ql_terms(ctx, theta0), -ql_terms(ctx, fit.theta_hat)]))
        stat = gqlrt_statistic(ctx, fit.theta_hat, theta0).statistic
        assert stat == pytest.approx(exact, rel=1e-14, abs=1e-14)


def test_pieces_are_computed_once(cases):
    ctx, fit, theta0 = cases[0]
    calls = {"terms": 0, "info": 0, "phi": 0}

    def terms(*args):
        calls["terms"] += 1
        return ql_terms(*args)

    def info(*args):
        calls["info"] += 1
        raise BoundaryError("fit on the box edge")

    def phi(*args):
        calls["phi"] += 1
        return _phi_ratios(*args)

    pieces = _Pieces(ctx, fit.theta_hat, theta0, terms, info, ql_grad, phi)
    values = [_STATISTICS[k].value(pieces) for k in ("T", "GQLRT", "AKL", "BS")]
    assert all(math.isfinite(v) for v in values)
    for kind in ("WALD", "RAO"):
        with pytest.raises(BoundaryError):
            _STATISTICS[kind].value(pieces)
    assert calls == {"terms": 2, "info": 1, "phi": 1}


def test_harness_takes_phi_ratios_once_per_path(cases, monkeypatch):
    ctx, fit, theta0 = cases[0]
    calls = []

    def counted(*args):
        calls.append(args)
        return _phi_ratios(*args)

    monkeypatch.setattr(montecarlo, "_phi_ratios", counted)
    values = _statistic_values(ctx, fit, theta0, ("AKL", "BS"))
    assert values.shape == (2,) and np.all(np.isfinite(values))
    assert len(calls) == 1


def test_harness_counts_a_failed_piece_against_each_kind(cases, monkeypatch):
    ctx, fit, theta0 = cases[0]

    def on_the_edge(*args):
        raise BoundaryError("fit on the box edge")

    monkeypatch.setattr(montecarlo, "observed_info", on_the_edge)
    values = dict(zip(_STATISTICS, _statistic_values(ctx, fit, theta0, tuple(_STATISTICS))))
    assert math.isnan(values["WALD"]) and math.isnan(values["RAO"])
    assert all(math.isfinite(values[k]) for k in ("T", "GQLRT", "AKL", "BS"))
