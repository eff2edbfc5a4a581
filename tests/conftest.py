"""Shared fixtures: built-in models, canonical parameters, one cached
long Ornstein-Uhlenbeck path with its fitted estimator."""

import dataclasses

import numpy as np
import pytest

from qltest import (
    ParamVector,
    QLContext,
    SimConfig,
    euler_maruyama,
    make_cir,
    make_ou,
    mqle,
)


@pytest.fixture(scope="session")
def ou_model():
    return make_ou()


@pytest.fixture(scope="session")
def cir_model():
    return make_cir()


def _diff_zero_below_one(theta, x):
    """A diffusion coefficient that is 0 where b1 <= 1."""
    b1 = theta.beta[0]
    return np.where(b1 > 1.0, b1, 0.0)


@pytest.fixture(scope="session")
def ou_c_zero_below_one(ou_model):
    """OU with c = 0 where b1 <= 1, inside the default box."""
    return dataclasses.replace(ou_model, diff=_diff_zero_below_one)


@pytest.fixture(scope="session")
def theta0_ou():
    return ParamVector(np.array([0.5, 0.5]), np.array([0.25]))


@pytest.fixture(scope="session")
def theta0_cir():
    return ParamVector(np.array([0.5, 0.5]), np.array([0.125]))


@pytest.fixture(scope="session")
def ou_path_1000(ou_model, theta0_ou):
    config = SimConfig(n=1000, delta=0.01, x0=1.0, seed=8675309, refine=10)
    return euler_maruyama(ou_model, theta0_ou, config)


@pytest.fixture(scope="session")
def ou_ctx_1000(ou_model, ou_path_1000):
    return QLContext(ou_model, ou_path_1000)


@pytest.fixture(scope="session")
def ou_fit_1000(ou_ctx_1000):
    return mqle(ou_ctx_1000)
