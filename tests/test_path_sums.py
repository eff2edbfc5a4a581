"""The built-in models' path sums and the search certified on them.

OU's and CIR's ql_total is a closed form in a few sums over the path
(``models.PathSums``); each total comes with a bound E on its distance from
``ql_total`` as the per-observation terms compute it.  The bound must hold
for every parameter in the box, on ordinary paths, on OU paths of large
values and on CIR paths near the edge of the domain, and it must not be
vacuous.  The search that decides on these totals where their bounds
separate must be the exact search bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from qltest import (
    FitOptions,
    ParamBox,
    ParamVector,
    PathSums,
    QLContext,
    SamplePath,
    SimConfig,
    euler_maruyama,
    make_model,
    mqle,
    observation_schedule,
    ql_total,
)
from qltest import estimate
from qltest.estimate import _certified, _guarded, _heuristic_start, _nelder_mead, _start_points
from qltest.quasilik import _drift_free, _ql_rows, _split, _sums_rows

THETA0 = {"ou": ([0.5, 0.5], [0.25]), "cir": ([0.5, 0.5], [0.125])}


def _path(model_id, n, seed, scale=1.0, shift=0.0):
    """A simulated path, its values scaled and shifted (OU) or scaled (CIR)."""
    model = make_model(model_id)
    delta = observation_schedule(n)[1]
    path = euler_maruyama(model, ParamVector(*THETA0[model_id]),
                          SimConfig(n=n, delta=delta, x0=1.0, seed=seed))
    return QLContext(model, SamplePath(delta, shift + scale * path.values))


def _deviations(ctx, points):
    """|total - ql_total| and E of each parameter point (rows of ``points``)."""
    rows = _sums_rows([ctx])
    assert rows is not None
    value, bound = rows(np.zeros(len(points), dtype=int), points)
    exact = np.array([ql_total(ctx, ParamVector(p[:2], p[2:])) for p in points])
    return np.abs(value - exact), bound


_unit = st.floats(0.0, 1.0)


@settings(max_examples=120, deadline=None)
@given(
    model_id=st.sampled_from(["ou", "cir"]),
    n=st.sampled_from([5, 60, 1000]),
    seed=st.integers(0, 2**16),
    magnitude=st.floats(-6.0, 9.0),
    corner=st.lists(st.tuples(_unit, _unit, _unit), min_size=1, max_size=6),
)
def test_sums_total_lies_within_its_bound(model_id, n, seed, magnitude, corner):
    # OU: values shifted to about 10**magnitude; CIR: values scaled by
    # 10**min(magnitude, 0), down to about 1e-6 of a stationary path, so
    # near the edge of the domain
    if model_id == "ou":
        ctx = _path("ou", n, seed, shift=math.copysign(10.0 ** abs(magnitude), magnitude))
    else:
        ctx = _path("cir", n, seed, scale=10.0 ** min(magnitude, 0.0))
    box = ctx.model.box
    points = box.lower + np.array(corner) * (box.upper - box.lower)
    deviation, bound = _deviations(ctx, points)
    ratio = float(np.max(deviation / bound))
    target(ratio, label="max |total - ql_total| / E")
    assert ratio <= 1.0


def test_bound_is_neither_violated_nor_vacuous():
    # over random points of the box: the largest deviation reaches a visible
    # share of E (the bound is tight to a few orders of magnitude) and
    # never exceeds it
    rng = np.random.default_rng(2)
    ratios = {}
    for model_id, n, scale, shift in [("ou", 100, 1.0, 0.0), ("ou", 1000, 1.0, 0.0),
                                      ("ou", 100, 1.0, 1e6), ("cir", 100, 1.0, 0.0),
                                      ("cir", 1000, 1.0, 0.0), ("cir", 1000, 1e-4, 0.0)]:
        worst = 0.0
        for seed in range(4):
            ctx = _path(model_id, n, seed, scale=scale, shift=shift)
            box = ctx.model.box
            points = box.lower + rng.random((50, 3)) * (box.upper - box.lower)
            deviation, bound = _deviations(ctx, points)
            worst = max(worst, float(np.max(deviation / bound)))
        ratios[(model_id, n, scale, shift)] = worst
    print("max |total - ql_total| / E:", ratios)
    assert all(1e-5 < r <= 1.0 for r in ratios.values()), ratios


def test_np_log_is_within_the_assumed_4_ulps():
    # the bound assumes |fl(log z) - log z| <= 4 ulps; math.log is within 1
    rng = np.random.default_rng(0)
    z = np.concatenate([np.exp(rng.uniform(-700, 700, 20000)),
                        1.0 + rng.uniform(-1e-3, 1e-3, 2000)])
    ours = np.log(z)
    ref = np.array([math.log(v) for v in z])
    assert np.all(np.abs(ours - ref) <= 5 * np.spacing(np.abs(ref)))


def test_drift_free_context_has_no_path_sums():
    ctx = _path("ou", 100, 0)
    assert ctx.model.path_sums is not None
    free = _drift_free(ctx)
    assert free.model.path_sums is None
    assert _sums_rows([free]) is None
    # a model with other callbacks has none either, however it was built
    custom = dataclasses.replace(ctx.model, drift=lambda theta, x: 0.0 * x)
    assert custom.path_sums is None
    cir = make_model("cir")
    assert dataclasses.replace(cir, diff=make_model("ou").diff).path_sums is None
    assert dataclasses.replace(cir, name="renamed").path_sums is cir.path_sums


@pytest.mark.parametrize("case", ["large value", "cir edge", "beta overflow", "non-finite sums"])
def test_blocks_outside_the_proven_range_stay_exact(case):
    ctx = _path("cir" if case == "cir edge" else "ou", 50, 1)
    values, model = ctx.path.values.copy(), ctx.model
    if case == "large value":
        values[7] = 2.0**41
    elif case == "cir edge":
        values[7] = 2.0**-41
    elif case == "beta overflow":
        # c = beta^2 overflows near the top of this box
        model = make_model("ou", ParamBox([0.01, 0.01, 0.01], [5.0, 5.0, 1e200]))
    else:
        pair = model.path_sums
        model = dataclasses.replace(model, path_sums=PathSums(
            lambda xprev, *args: np.full((len(xprev), 6, 3), np.inf), pair.total,
            pair.callbacks))
    path = SamplePath(ctx.path.delta, values)
    assert _sums_rows([QLContext(model, path)] * 2) is None
    assert _sums_rows([ctx] * 2) is not None


def _block(model_id, n, count, starts_per_path):
    """The search rows of a block fit: each path's starts, its objective
    on ql_total and on the path sums, and the box."""
    ctxs = [_path(model_id, n, seed) for seed in range(count)]
    box = ctxs[0].model.box
    starts = [_start_points(box.lower, box.upper, starts_per_path, extra=_heuristic_start(ctx))
              for ctx in ctxs]
    path = np.repeat(np.arange(count), [len(s) for s in starts])
    exact = _guarded(_ql_rows(ctxs, _split(2)))
    sums = _sums_rows(ctxs)
    calls = []

    def f_rows(rows, points):
        calls.append(len(rows))
        return exact(path[rows], points)

    approx = _certified(lambda rows, points: sums(path[rows], points))
    return f_rows, approx, np.concatenate(starts), box, calls


@pytest.mark.parametrize("model_id, n, count, starts_per_path", [
    ("ou", 100, 60, 2), ("cir", 1000, 8, 2), ("cir", 100, 10, 8),
])
def test_certified_search_equals_the_exact_search(model_id, n, count, starts_per_path):
    f_rows, approx, starts, box, calls = _block(model_id, n, count, starts_per_path)
    exact = _nelder_mead(f_rows, starts, box.lower, box.upper, 600)
    evaluations = sum(calls)
    calls.clear()
    certified = _nelder_mead(f_rows, starts, box.lower, box.upper, 600, approx=approx)
    for a, b in zip(exact, certified):
        assert a.tobytes() == b.tobytes()
    # the sums decide most comparisons: few values are settled on ql_total
    assert 0 < sum(calls) < 0.1 * evaluations


_CHEAP = FitOptions(n_starts=2, polish_top=1)


@pytest.mark.parametrize("model_id, n, count", [("ou", 100, 260), ("cir", 1000, 26)])
def test_block_fits_are_the_same_on_the_path_sums(model_id, n, count, monkeypatch):
    # blocks of at least _SUMS_MIN_VALUES search values search on the sums;
    # every field of every fit equals that of the search on ql_total alone
    ctxs = [_path(model_id, n, seed) for seed in range(count)]
    assert 2 * count * n >= estimate._SUMS_MIN_VALUES
    used = []
    monkeypatch.setattr(estimate, "_sums_rows", lambda c: used.append(len(c)) or _sums_rows(c))
    on_sums = estimate.mqle_search(ctxs, _CHEAP)
    assert used == [count]
    monkeypatch.setattr(estimate, "_SUMS_MIN_VALUES", math.inf)
    on_ql_total = estimate.mqle_search(ctxs, _CHEAP)
    assert used == [count]
    for fit, ref in zip(on_sums, on_ql_total):
        assert fit.theta_hat.full.tobytes() == ref.theta_hat.full.tobytes()
        assert dataclasses.replace(fit, theta_hat=None) == dataclasses.replace(ref, theta_hat=None)
    # a single path is far below the size: mqle never searches on the sums
    mqle(ctxs[0], _CHEAP)
    assert used == [count]
