"""Path simulation: determinism, schedule arithmetic, CSV round trips,
invariant-law moments and domain handling."""

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
from qltest.simulate import derive_seed_sequence


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n=1, delta=0.01, x0=1.0, seed=1)
    with pytest.raises(ConfigError):
        SimConfig(n=10, delta=0.0, x0=1.0, seed=1)
    with pytest.raises(ConfigError):
        SimConfig(n=10, delta=0.01, x0=1.0, seed=1, refine=0)


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
