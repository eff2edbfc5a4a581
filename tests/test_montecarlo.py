"""Monte Carlo harness: local-alternative arithmetic, configuration
validation, quantile convention, CSV round trips and worker-count
determinism on a small study."""

import numpy as np
import pytest

from qltest import (
    ConfigError,
    ExperimentConfig,
    ParamBox,
    ParamVector,
    chi2_quantile,
    empirical_power,
    local_alternative,
    null_threshold,
    run_table,
)
from qltest import montecarlo
from qltest.montecarlo import PowerTable, _empirical_quantile


@pytest.fixture(scope="module")
def small_config(theta0_ou):
    return ExperimentConfig(
        model_id="ou",
        theta0=theta0_ou,
        n=50,
        h_grid=(0.0, 1.0),
        replications=50,
        master_seed=7,
        statistics=("T", "GQLRT"),
    )


@pytest.fixture(scope="module")
def small_table(small_config):
    return empirical_power(small_config)


def test_local_alternative_arithmetic(theta0_ou):
    # n = 1000, delta = 0.01: alpha shift 1/sqrt(10), beta shift 1/sqrt(1000)
    theta = local_alternative(theta0_ou, 1.0, 1000, 0.01)
    np.testing.assert_allclose(
        theta.full,
        [0.5 + 10**-0.5, 0.5 + 10**-0.5, 0.25 + 1000**-0.5],
        rtol=1e-12,
    )
    # h = 0 is the identity
    np.testing.assert_array_equal(
        local_alternative(theta0_ou, 0.0, 1000, 0.01).full, theta0_ou.full
    )


def test_local_alternative_vector_h(theta0_ou):
    theta = local_alternative(theta0_ou, [1.0, 0.0, 0.0], 1000, 0.01)
    np.testing.assert_allclose(theta.full, [0.5 + 10**-0.5, 0.5, 0.25], rtol=1e-12)
    with pytest.raises(ConfigError):
        local_alternative(theta0_ou, [1.0, 2.0], 1000, 0.01)


def test_local_alternative_box_exit(theta0_ou):
    box = ParamBox([0.01, 0.01, 0.01], [0.6, 5.0, 5.0])
    with pytest.raises(ConfigError, match="coordinate 0"):
        local_alternative(theta0_ou, 1.0, 1000, 0.01, box)


def test_config_validation(theta0_ou):
    kw = dict(model_id="ou", theta0=theta0_ou, n=50, replications=50, master_seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(h_grid=(0.5,), **kw)  # no null column
    with pytest.raises(ConfigError):
        ExperimentConfig(h_grid=(0.0,), replications=10, model_id="ou",
                         theta0=theta0_ou, n=50, master_seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(h_grid=(0.0,), level=1.5, **kw)
    with pytest.raises(ConfigError):
        ExperimentConfig(h_grid=(0.0,), statistics=("T", "STEP_BETA"), **kw)
    with pytest.raises(ConfigError):
        ExperimentConfig(h_grid=(0.0,), threshold_mode="bootstrap", **kw)
    with pytest.raises(ConfigError):
        ExperimentConfig(h_grid=(0.0,), statistics=("BS",),
                         threshold_mode="asymptotic", **kw)


def test_config_delta_schedule(theta0_ou):
    config = ExperimentConfig(
        model_id="ou", theta0=theta0_ou, n=1000, h_grid=(0.0,),
        replications=50, master_seed=1,
    )
    assert config.delta == pytest.approx(0.01)


def test_empirical_quantile_convention():
    # rank ceil((1 - level) m): the 95th smallest of 1..100 at level 0.05
    assert _empirical_quantile(list(range(1, 101)), 0.05) == 95
    assert _empirical_quantile([4.0, 2.0, 3.0, 1.0], 0.5) == 2.0
    assert _empirical_quantile([1.0], 0.05) == 1.0


def test_power_table_contents(small_config, small_table):
    table = small_table
    assert set(table.epow) == {(h, k) for h in (0.0, 1.0) for k in ("T", "GQLRT")}
    assert all(0.0 <= v <= 1.0 for v in table.epow.values())
    # by the order-statistic convention the null rejection rate is <= level
    assert table.get(0.0, "T") <= small_config.level + 1e-12
    # the alternative rejects at least as often as the null
    assert table.get(1.0, "T") >= table.get(0.0, "T")
    assert all(t > 0 for t in table.thresholds.values())
    assert all(f == 0 for f in table.failures.values())


def test_null_threshold_matches_table(small_config, small_table):
    assert null_threshold(small_config, "T") == small_table.thresholds["T"]


def test_power_table_csv_round_trip(small_table, tmp_path):
    out = tmp_path / "table.csv"
    small_table.to_csv(out)
    back = PowerTable.from_csv(out)
    assert back.model_id == small_table.model_id
    assert back.n == small_table.n
    assert back.h_grid == small_table.h_grid
    assert back.statistics == small_table.statistics
    assert back.thresholds == small_table.thresholds
    assert back.epow == small_table.epow
    assert back.failures == small_table.failures


def test_asymptotic_threshold_mode(theta0_ou):
    config = ExperimentConfig(
        model_id="ou", theta0=theta0_ou, n=50, h_grid=(0.0,),
        replications=50, master_seed=11, statistics=("T",),
        threshold_mode="asymptotic",
    )
    table = empirical_power(config)
    assert table.thresholds["T"] == pytest.approx(chi2_quantile(0.95, 3), abs=1e-10)
    assert 0.0 <= table.get(0.0, "T") <= 0.25


def test_worker_count_determinism(small_config, tmp_path):
    f1 = tmp_path / "serial.csv"
    f2 = tmp_path / "parallel.csv"
    t1 = run_table(small_config, f1, workers=1)
    t2 = run_table(small_config, f2, workers=2)
    assert f1.read_bytes() == f2.read_bytes()
    assert t1.epow == t2.epow
    # the config-echo sidecar is written next to the CSV
    sidecar = (tmp_path / "serial.csv.config.txt").read_text()
    assert "mc.master_seed = 7" in sidecar
    lines = [l for l in sidecar.strip().splitlines()]
    assert lines == sorted(lines)


def test_bug_in_a_statistic_propagates(theta0_ou, monkeypatch):
    # a programming error is not a failed replication to count against the
    # failure budget: it must reach the caller unchanged
    def broken(*args, **kwargs):
        raise TypeError("broken broadcast")

    monkeypatch.setattr(montecarlo, "_phi_ratios", broken)
    config = ExperimentConfig(
        model_id="ou", theta0=theta0_ou, n=50, h_grid=(0.0,),
        replications=50, master_seed=7, statistics=("AKL",),
    )
    with pytest.raises(TypeError, match="broken broadcast"):
        empirical_power(config)
