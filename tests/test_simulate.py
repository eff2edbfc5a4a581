"""Path simulation: determinism, schedule arithmetic, CSV round trips,
invariant-law moments, domain handling and bit-identity of batched paths."""

import dataclasses
import functools
import io
import math

import numpy as np
import pytest

from qltest import (
    ConfigError,
    DomainError,
    Model,
    ParamBox,
    ParamVector,
    SamplePath,
    SimConfig,
    SimulationError,
    euler_maruyama,
    make_cir,
    make_ou,
    observation_schedule,
)
from qltest import simulate
from qltest.simulate import derive_seed_sequence


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n=1, delta=0.01, x0=1.0, seed=1)
    with pytest.raises(ConfigError):
        SimConfig(n=10, delta=0.0, x0=1.0, seed=1)
    with pytest.raises(ConfigError):
        SimConfig(n=10, delta=0.01, x0=1.0, seed=1, refine=0)
    # a float n used to reach numpy's "expected a sequence of integers"
    for field, value in [("n", 20.5), ("n", 20.0), ("n", "20"), ("refine", 2.5),
                         ("refine", None)]:
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SimConfig(**dict(dict(n=20, delta=0.01, x0=1.0, seed=1), **{field: value}))


def test_sim_config_accepts_numpy_integer_sizes(ou_model, theta0_ou):
    numpy_sized = SimConfig(n=np.int64(20), delta=0.01, x0=1.0, seed=1, refine=np.int32(5))
    plain = SimConfig(n=20, delta=0.01, x0=1.0, seed=1, refine=5)
    np.testing.assert_array_equal(euler_maruyama(ou_model, theta0_ou, numpy_sized).values,
                                  euler_maruyama(ou_model, theta0_ou, plain).values)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_sim_config_rejects_a_non_finite_step(delta):
    # a NaN step fails no "<= 0" comparison, so it is checked as 0 < delta < inf
    with pytest.raises(ConfigError, match="positive and finite"):
        SimConfig(n=10, delta=delta, x0=1.0, seed=1)


def test_observation_schedule():
    T, delta = observation_schedule(1000)
    assert T == pytest.approx(10.0)
    assert delta == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        observation_schedule(1)


def test_derive_seed_sequence_deterministic_and_order_sensitive():
    a = derive_seed_sequence(1, 2).generate_state(2)
    b = derive_seed_sequence(1, 2).generate_state(2)
    c = derive_seed_sequence(2, 1).generate_state(2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_euler_maruyama_shape_and_determinism(ou_model, theta0_ou):
    config = SimConfig(n=200, delta=0.01, x0=1.0, seed=7, refine=5)
    p1 = euler_maruyama(ou_model, theta0_ou, config)
    p2 = euler_maruyama(ou_model, theta0_ou, config)
    assert p1.n == 200
    assert p1.values.size == 201
    assert p1.values[0] == 1.0
    np.testing.assert_array_equal(p1.values, p2.values)
    p3 = euler_maruyama(
        ou_model, theta0_ou, SimConfig(n=200, delta=0.01, x0=1.0, seed=8, refine=5)
    )
    assert not np.array_equal(p1.values, p3.values)


def test_euler_maruyama_rejects_bad_inputs(ou_model, cir_model, theta0_cir):
    config = SimConfig(n=50, delta=0.01, x0=1.0, seed=1)
    with pytest.raises(ConfigError):
        euler_maruyama(ou_model, ParamVector([0.5, 6.0], [0.25]), config)
    with pytest.raises(DomainError):
        euler_maruyama(
            cir_model, theta0_cir, SimConfig(n=50, delta=0.01, x0=-1.0, seed=1)
        )


def test_ou_invariant_moments(ou_model, theta0_ou):
    config = SimConfig(n=20000, delta=0.05, x0=1.0, seed=99, refine=2)
    path = euler_maruyama(ou_model, theta0_ou, config)
    body = path.values[400:]  # discard burn-in from x0 = 1
    law = ou_model.invariant_law(theta0_ou)
    assert float(np.mean(body)) == pytest.approx(law.mean(), abs=0.07)
    assert float(np.var(body)) == pytest.approx(law.var(), rel=0.30)


def test_cir_stays_positive(cir_model, theta0_cir):
    config = SimConfig(n=5000, delta=0.05, x0=1.0, seed=13, refine=4)
    path = euler_maruyama(cir_model, theta0_cir, config)
    assert np.all(path.values > 0.0)


def _const(value):
    def f(theta, x):
        return value * np.ones_like(np.asarray(x, dtype=float))

    return f


def test_escaping_path_raises_simulation_error():
    model = Model(
        m1=1,
        m2=1,
        drift=_const(100.0),
        diff=_const(1.0),
        drift_dx=_const(0.0),
        diffsq_dx=_const(0.0),
        diffsq_dxx=_const(0.0),
        state_domain=(0.0, 1.0),
        box=ParamBox([0.01, 0.01], [5.0, 5.0]),
        name="escape",
    )
    theta = ParamVector([1.0], [1.0])
    with pytest.raises(SimulationError) as exc:
        euler_maruyama(model, theta, SimConfig(n=5, delta=0.1, x0=0.5, seed=1, refine=1))
    assert exc.value.step_index == 1


def test_sample_path_properties_and_validation():
    path = SamplePath(delta=0.5, values=[0.0, 1.0, 2.0])
    assert path.n == 2
    np.testing.assert_allclose(path.times, [0.0, 0.5, 1.0])
    with pytest.raises(ConfigError):
        SamplePath(delta=0.5, values=[0.0, 1.0])
    with pytest.raises(ConfigError):
        SamplePath(delta=-0.5, values=[0.0, 1.0, 2.0])
    for delta in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="positive and finite"):
            SamplePath(delta=delta, values=[0.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        SamplePath(delta=0.5, values=[0.0, math.nan, 2.0])


def test_sample_path_csv_round_trip(ou_model, theta0_ou):
    path = euler_maruyama(
        ou_model, theta0_ou, SimConfig(n=50, delta=0.01, x0=1.0, seed=3)
    )
    buf = io.StringIO()
    path.to_csv(buf)
    buf.seek(0)
    back = SamplePath.from_csv(buf)
    assert back.delta == path.delta
    np.testing.assert_array_equal(back.values, path.values)


def test_sample_path_csv_validation():
    with pytest.raises(ConfigError):
        SamplePath.from_csv(io.StringIO("a,b\n0,1\n1,2\n2,3\n"))
    with pytest.raises(ConfigError):
        SamplePath.from_csv(io.StringIO("t,x\n0,1\n1,2\n"))
    with pytest.raises(ConfigError):
        SamplePath.from_csv(io.StringIO("t,x\n0,1\n1,2\n3,3\n"))  # not equispaced
    with pytest.raises(ConfigError, match="line 3"):
        SamplePath.from_csv(io.StringIO("t,x\n0,1\n0.1,abc\n0.2,3\n"))  # non-numeric
    with pytest.raises(ConfigError, match="line 3"):
        SamplePath.from_csv(io.StringIO("t,x\n0,1\n0.1\n0.2,3\n"))  # short row
    with pytest.raises(ConfigError, match="line 2"):
        SamplePath.from_csv(io.StringIO("t,x\n0,1,junk\n0.1,2,9\n0.2,3\n"))  # extra field
    with pytest.raises(ConfigError, match="positive and finite"):
        # both steps overflow to inf, so they look equal
        SamplePath.from_csv(io.StringIO("t,x\n-1.7e308,1\n1.7e308,2\ninf,3\n"))


_BATCH_SEEDS = [int(derive_seed_sequence(7, rep).generate_state(1, dtype=np.uint64)[0])
                for rep in range(50)]


@functools.lru_cache(maxsize=None)
def _single_paths(model_id, n):
    model, theta = _batch_setting(model_id)
    delta = observation_schedule(n)[1]
    return [
        euler_maruyama(model, theta, SimConfig(n=n, delta=delta, x0=1.0, seed=s)).values
        for s in _BATCH_SEEDS
    ]


def _batch_setting(model_id):
    if model_id == "ou":
        return make_ou(), ParamVector([0.5, 0.5], [0.25])
    return make_cir(), ParamVector([0.5, 0.5], [0.125])


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("model_id", ["ou", "cir"])
def test_batch_rows_equal_single_paths(model_id, n):
    # below, at and above the size where the array program takes over
    model, theta = _batch_setting(model_id)
    config = SimConfig(n=n, delta=observation_schedule(n)[1], x0=1.0, seed=0)
    single = _single_paths(model_id, n)
    crossover = simulate._BATCH_MIN_ROWS
    for rows in (1, crossover - 1, crossover, 50):
        batch = euler_maruyama(model, theta, config, _BATCH_SEEDS[:rows])
        assert len(batch) == rows
        for path, values in zip(batch, single):
            assert isinstance(path, SamplePath)
            assert path.delta == config.delta
            assert np.array_equal(path.values, values)


def test_batch_resimulates_rows_alone():
    # Brownian motion in (-1.1, 1.1): 23 rows leave the domain at their
    # first attempt, 22 of them stay in at a later one, and seed 24 leaves
    # it in all five
    model = Model(
        m1=1,
        m2=1,
        drift=_const(0.0),
        diff=_const(1.0),
        drift_dx=_const(0.0),
        diffsq_dx=_const(0.0),
        diffsq_dxx=_const(0.0),
        state_domain=(-1.1, 1.1),
        box=ParamBox([0.01, 0.01], [5.0, 5.0]),
        name="bm",
    )
    theta = ParamVector([1.0], [1.0])
    seeds = list(range(50))
    config = SimConfig(n=10, delta=0.1, x0=0.0, seed=0, refine=5)
    slots = euler_maruyama(model, theta, config, seeds)
    exhausted, resimulated = [], 0
    for seed, slot in zip(seeds, slots):
        single = SimConfig(n=10, delta=0.1, x0=0.0, seed=seed, refine=5)
        if isinstance(slot, SimulationError):
            exhausted.append(seed)
            with pytest.raises(SimulationError) as exc:
                euler_maruyama(model, theta, single)
            assert slot.step_index == exc.value.step_index
        else:
            assert np.array_equal(slot.values, euler_maruyama(model, theta, single).values)
            resimulated += simulate._path_attempt(model, theta, config, seed, 0)[1] != 0
    assert exhausted == [24]
    assert slots[24].step_index == 4
    assert resimulated == 22


# a CIR parameter far from the Feller condition: about half its paths leave
# (0, inf) at an observation time in their first attempt at n = 100
_CIR_LEAVING = ParamVector([0.5, 0.5], [1.0])


def _single_slot(model, theta, config, seed):
    """The single-seed call's path values, or its SimulationError."""
    try:
        return euler_maruyama(model, theta, dataclasses.replace(config, seed=seed)).values
    except SimulationError as exc:
        return exc


def _assert_slots_equal_single_calls(model, thetas, config, seeds, slots):
    assert len(slots) == len(seeds)
    for theta, seed, slot in zip(thetas, seeds, slots):
        single = _single_slot(model, theta, config, seed)
        if isinstance(single, SimulationError):
            assert isinstance(slot, SimulationError)
            assert slot.step_index == single.step_index
        else:
            assert isinstance(slot, SamplePath)
            assert np.array_equal(slot.values, single)


def _first_attempt_left(model, theta, config, seed):
    return simulate._path_attempt(model, theta, config, seed, 0)[1] != 0


@pytest.mark.parametrize("model_id", ["ou", "cir"])
def test_per_seed_theta_rows_equal_single_paths(model_id):
    # three parameters taking turns over the seeds, as the cells of a power
    # table do; on CIR the third one makes rows resimulate, and enough of
    # them to retry as a batch of stacked parameters
    model, theta = _batch_setting(model_id)
    others = {"ou": [ParamVector([1.2, 0.3], [0.6]), ParamVector([0.2, 1.5], [0.1])],
              "cir": [ParamVector([0.8, 0.6], [0.3]), _CIR_LEAVING]}[model_id]
    palette = [theta] + others
    config = SimConfig(n=100, delta=observation_schedule(100)[1], x0=1.0, seed=0)
    seeds = _BATCH_SEEDS[:45]
    thetas = [palette[i % 3] for i in range(len(seeds))]
    slots = euler_maruyama(model, thetas, config, seeds)
    _assert_slots_equal_single_calls(model, thetas, config, seeds, slots)
    if model_id == "cir":
        left = sum(_first_attempt_left(model, t, config, s) for t, s in zip(thetas, seeds))
        assert left >= simulate._BATCH_MIN_ROWS


def test_per_seed_theta_small_retry_set_keeps_each_rows_theta():
    # two of ten rows leave the domain in their first attempt: their retry
    # runs the scalar loop, each with its own parameter
    model, theta = _batch_setting("cir")
    config = SimConfig(n=100, delta=observation_schedule(100)[1], x0=1.0, seed=0)
    leaving = [s for s in _BATCH_SEEDS if _first_attempt_left(model, _CIR_LEAVING, config, s)][:2]
    staying = [s for s in _BATCH_SEEDS if s not in leaving][:8]
    seeds = staying + leaving
    thetas = [theta] * 8 + [_CIR_LEAVING] * 2
    assert not any(_first_attempt_left(model, theta, config, s) for s in staying)
    assert 0 < len(leaving) < simulate._BATCH_MIN_ROWS <= len(seeds)
    slots = euler_maruyama(model, thetas, config, seeds)
    _assert_slots_equal_single_calls(model, thetas, config, seeds, slots)


def test_per_seed_theta_is_checked(ou_model, theta0_ou):
    config = SimConfig(n=50, delta=0.01, x0=1.0, seed=0)
    outside = ParamVector([0.5, 6.0], [0.25])
    with pytest.raises(ConfigError, match="outside the parameter box"):
        euler_maruyama(ou_model, [theta0_ou] * 5 + [outside], config, list(range(6)))
    with pytest.raises(ConfigError, match="5 parameters for 6 seeds"):
        euler_maruyama(ou_model, [theta0_ou] * 5, config, list(range(6)))
