"""Tests of the benchmark's own code.

    python3 -m pytest benchmark/test_benchmark.py
"""

import copy
import math
import types

import numpy as np
import pytest

from program import import_qltest

import_qltest()

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


# --- exact OU generator ------------------------------------------------------


def test_exact_ou_matches_closed_form_transition():
    theta = (0.8, 0.5, 0.3)
    delta = 0.4
    rng = np.random.default_rng(7)
    paths = [workloads.exact_ou_path(theta, 40, delta, 3.0, rng) for _ in range(500)]
    prev = np.concatenate([p[:-1] for p in paths])
    nxt = np.concatenate([p[1:] for p in paths])
    a1, a2, b1 = theta
    # closed form: X_{t+d} | X_t = x ~ N(a2 + (x - a2) e^{-a1 d}, b1^2 (1 - e^{-2 a1 d}) / (2 a1))
    mean = a2 + (prev - a2) * math.exp(-a1 * delta)
    var = b1**2 * (1.0 - math.exp(-2.0 * a1 * delta)) / (2.0 * a1)
    assert workloads.ou_transition(theta, delta, prev)[1] == pytest.approx(var)
    resid = (nxt - mean) / math.sqrt(var)
    m = resid.size  # 20000 transitions
    assert abs(resid.mean()) < 4.0 / math.sqrt(m)
    assert abs(resid.var() - 1.0) < 4.0 * math.sqrt(2.0 / m)
    # residuals are uncorrelated with the previous state: the slope is right
    slope = np.sum((prev - a2) * (nxt - a2)) / np.sum((prev - a2) ** 2)
    assert slope == pytest.approx(math.exp(-a1 * delta), abs=0.01)


def test_fit_workload_inputs_depend_only_on_seed():
    w = workloads.FitAndTest()
    a, b, c = w.path(3, 0), w.path(3, 0), w.path(4, 0)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.n == 1000 and a.delta == pytest.approx(1000 ** (-2.0 / 3.0))


# --- spans and self time -------------------------------------------------------


def _scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds child [1, 4] (which holds leaf [2, 3]) and child [5, 9]
    tracer = Tracer(clock=_scripted_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    leaf = tracer.wrap(lambda: None, "leaf", "c")
    first = tracer.wrap(lambda: leaf(), "first", "b")
    second = tracer.wrap(lambda: None, "second", "b")

    def body():
        first()
        second()

    tracer.wrap(body, "outer", "a")()
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    selfs = self_times(tracer.spans)
    assert selfs[by_name["outer"]] == 3  # 10 - 3 - 4
    assert selfs[by_name["first"]] == 2  # 3 - 1
    assert selfs[by_name["leaf"]] == 1
    assert selfs[by_name["second"]] == 4
    assert tracer.spans[by_name["leaf"]].parent == by_name["first"]
    assert tracer.spans[by_name["outer"]].parent is None


def test_replace_records_errors_and_restore_puts_the_name_back():
    module = types.ModuleType("pkg.fake")

    def boom():
        raise ValueError("x")

    module.boom = boom
    tracer = Tracer()
    assert tracer.replace(module, "boom", "layer") == "fake.boom"
    with pytest.raises(ValueError):
        module.boom()
    assert tracer.spans[0].error
    tracer.restore()
    assert module.boom is boom


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, count = metrics.tail(range(1, 101))
    assert (value, pct, count) == (90, 90.0, 100)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# --- output checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def test_reference_is_recorded_for_every_seed_of_the_baseline(reference):
    for workload in workloads.WORKLOADS:
        for seed in range(1, 11):
            assert checks.reference_units(reference, workload, seed), (workload, seed)
    assert checks.reference_units(reference, "fit_ou_n1000", 10**6) == []


def test_reference_table_passes_and_perturbed_tables_fail(reference):
    study = workloads.WORKLOADS["mc_ou_n100"]()
    ref = checks.reference_units(reference, "mc_ou_n100", 1)[0]
    assert checks.check_table(copy.deepcopy(ref), study, ref) == []

    moved_cell = copy.deepcopy(ref)
    moved_cell["epow"][1][0] += 0.1
    assert checks.check_table(moved_cell, study, ref)

    moved_threshold = copy.deepcopy(ref)
    moved_threshold["thresholds"][2] *= 1.01
    assert checks.check_table(moved_threshold, study, ref)

    more_failures = copy.deepcopy(ref)
    more_failures["failures"][0][3] += 1
    assert checks.check_table(more_failures, study, ref)

    # structural rules hold for any seed, with no reference at hand
    oversized_null = copy.deepcopy(ref)
    oversized_null["epow"][0][0] = 0.2
    assert checks.check_table(oversized_null, study, None)


def test_fit_check_holds_theta_to_one_in_a_million(reference):
    box = workloads.FitAndTest().model.box
    ref = checks.reference_units(reference, "fit_ou_n1000", 1)[0]
    assert checks.check_fit(copy.deepcopy(ref), box, ref) == []

    moved = copy.deepcopy(ref)
    moved["theta_mqle"][0] += 2e-6
    assert checks.check_fit(moved, box, ref)

    moved_stat = copy.deepcopy(ref)
    moved_stat["stats"]["WALD"] *= 1.001
    assert checks.check_fit(moved_stat, box, ref)

    negative = copy.deepcopy(ref)
    negative["stats"]["T"] = -1.0
    assert checks.check_fit(negative, box, None)
