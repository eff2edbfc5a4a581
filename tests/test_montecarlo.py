"""Monte Carlo harness: local-alternative arithmetic, configuration
validation, quantile convention, CSV round trips, worker-count
determinism on a small study, a golden power table, and the accounting of
failed replications against the failure budget."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from qltest import (
    ConfigError,
    ExperimentConfig,
    HarnessError,
    ParamBox,
    ParamVector,
    chi2_quantile,
    empirical_power,
    local_alternative,
    null_threshold,
    run_table,
)
from qltest import montecarlo
from qltest.cli import EXIT_BUDGET, main
from qltest.errors import StatisticError
from qltest.hypotests import _STATISTICS
from qltest.montecarlo import PowerTable, _empirical_quantile
from qltest.quasilik import observed_info

GOLDEN_CSV = Path(__file__).parent / "data" / "power_ou_n100.csv"


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
    with pytest.raises(ConfigError, match="h_grid repeats"):
        ExperimentConfig(h_grid=(0.0, 0.0), **kw)
    with pytest.raises(ConfigError, match="repeat a kind"):
        ExperimentConfig(h_grid=(0.0,), statistics=("T", "t"), **kw)
    # the model is built with the config: its id, box, theta0 and x0 are checked
    with pytest.raises(ConfigError, match="outside the open state domain"):
        ExperimentConfig(model_id="cir", theta0=ParamVector([0.5, 0.5], [0.125]), n=50,
                         h_grid=(0.0,), replications=50, master_seed=1, x0=-1.0)
    with pytest.raises(ConfigError, match="unknown model id"):
        ExperimentConfig(h_grid=(0.0,), **dict(kw, model_id="gbm"))
    with pytest.raises(ConfigError, match="outside the parameter box"):
        ExperimentConfig(h_grid=(0.0,), **dict(kw, theta0=ParamVector([9.0, 0.5], [0.25])))
    # sizes are integers of at least their minimum; a float replication
    # count used to reach a TypeError from range
    for field, value, match in [
        ("replications", 50.5, "replications must be an integer"),
        ("replications", 49, "replications must be at least 50"),
        ("n", 50.5, "n must be an integer"),
        ("n", 1, "n must be at least 2"),
        ("refine", 2.5, "refine must be an integer"),
        ("refine", 0, "refine must be at least 1"),
    ]:
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(h_grid=(0.0,), **dict(kw, **{field: value}))
    # numpy integers are integers
    ExperimentConfig(h_grid=(0.0,), **dict(kw, n=np.int64(50), replications=np.int32(50),
                                           refine=np.int64(30)))


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
    # a kind the config does not tabulate, against a table that does
    null_only = dataclasses.replace(
        small_config, h_grid=(0.0,), statistics=small_config.statistics + ("WALD",))
    assert null_threshold(small_config, "wald") == empirical_power(null_only).thresholds["WALD"]
    with pytest.raises(ConfigError):
        null_threshold(small_config, "FOO")


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
    cir_config = ExperimentConfig(
        model_id="cir", theta0=ParamVector([0.5, 0.5], [0.125]), n=50,
        h_grid=(0.0, 1.0), replications=50, master_seed=5, statistics=("T", "WALD"),
    )
    for config in (small_config, cir_config):
        csvs, tables = [], []
        # the table's 100 (h, rep) pairs, cell-major: 3 workers take runs of
        # 34, 34 and 32 pairs, and the second run straddles the two cells
        for workers in (1, 2, 3):
            out = tmp_path / f"{config.model_id}-{workers}.csv"
            tables.append(run_table(config, out, workers=workers))
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        assert tables[0].epow == tables[1].epow == tables[2].epow


def test_replication_seed_is_the_derived_sub_seed():
    # the value the harness has always used: SeedSequence([master_seed, rep])
    expected = np.random.SeedSequence([7, 3]).generate_state(1, dtype=np.uint64)[0]
    assert montecarlo._replication_seed(7, 3) == int(expected)
    assert montecarlo._replication_seed(-1, 0) == montecarlo._replication_seed(2**64 - 1, 0)


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


def test_config_error_in_a_fit_propagates(theta0_ou, monkeypatch, tmp_path):
    # no fit raises ConfigError on a simulated path, so one raised there is
    # a bug, not a failed replication: it must not become a NaN row
    def broken(*args, **kwargs):
        raise ConfigError("broken fit options")

    monkeypatch.setattr(montecarlo, "mqle", broken)
    config = ExperimentConfig(
        model_id="ou", theta0=theta0_ou, n=50, h_grid=(0.0,),
        replications=50, master_seed=7, statistics=("T",),
    )
    with pytest.raises(ConfigError, match="broken fit options"):
        run_table(config, tmp_path / "table.csv")


@pytest.fixture(scope="module")
def golden_config():
    """The study of the golden table: OU n = 100, h {0, 1}, R = 50, all six kinds."""
    return ExperimentConfig(model_id="ou", theta0=ParamVector([0.5, 0.5], [0.25]), n=100,
                            h_grid=(0.0, 1.0), replications=50, master_seed=2018)


@pytest.fixture(scope="module")
def golden_table(golden_config):
    return empirical_power(golden_config)


@pytest.mark.parametrize("workers", [1, 2])
def test_power_csv_matches_the_golden_table(golden_config, workers, tmp_path):
    out = tmp_path / "table.csv"
    run_table(golden_config, out, workers=workers)
    assert out.read_bytes() == GOLDEN_CSV.read_bytes()


def _withholding_info(fail_reps, replications):
    """``observed_info`` that raises StatisticError on the replications
    ``fail_reps`` of every cell.  The harness asks for the information once
    per path, cell by cell in replication order, so the call count names the
    replication; ``calls`` lets a test check that assumption."""
    calls = []

    def info(ctx, theta):
        rep = len(calls) % replications
        calls.append(rep)
        if rep in fail_reps:
            raise StatisticError("information withheld")
        return observed_info(ctx, theta)

    return info, calls


def _recording(kind, seen):
    """The registry entry of ``kind``, recording each value (NaN on a raise)."""
    stat = _STATISTICS[kind]

    def value(pieces):
        try:
            v = stat.value(pieces)
        except Exception:
            seen.append(math.nan)
            raise
        seen.append(v)
        return v

    return dataclasses.replace(stat, value=value)


def test_partial_failures_are_counted_and_left_out(golden_config, golden_table, monkeypatch):
    R = golden_config.replications
    fail_reps = {7, 31}
    info, calls = _withholding_info(fail_reps, R)
    monkeypatch.setattr(montecarlo, "observed_info", info)
    seen = {"WALD": [], "RAO": []}
    for kind, values in seen.items():
        monkeypatch.setitem(_STATISTICS, kind, _recording(kind, values))
    table = empirical_power(golden_config)

    assert len(calls) == R * len(golden_config.h_grid)  # one call per path
    level = golden_config.level
    for kind, values in seen.items():
        cells = [values[i * R:(i + 1) * R] for i in range(len(golden_config.h_grid))]
        null = [v for v in cells[0] if not math.isnan(v)]
        threshold = _empirical_quantile(null, level)
        assert table.thresholds[kind] == threshold
        for h, cell in zip(golden_config.h_grid, cells):
            assert [i for i, v in enumerate(cell) if math.isnan(v)] == sorted(fail_reps)
            kept = [v for v in cell if not math.isnan(v)]
            assert table.failures[(h, kind)] == len(fail_reps)
            # the rejection rate is over the R - 2 replications that did not fail
            assert table.epow[(h, kind)] == sum(v > threshold for v in kept) / (R - len(fail_reps))
    for kind in ("T", "GQLRT", "AKL", "BS"):
        assert table.thresholds[kind] == golden_table.thresholds[kind]
        for h in golden_config.h_grid:
            assert table.epow[(h, kind)] == golden_table.epow[(h, kind)]
            assert table.failures[(h, kind)] == 0


def _small_budget_config():
    return ExperimentConfig(model_id="ou", theta0=ParamVector([0.5, 0.5], [0.25]), n=50,
                            h_grid=(0.0, 1.0), replications=50, master_seed=3,
                            statistics=("T", "WALD"))


def test_failure_budget_breach_carries_the_counts(monkeypatch):
    # 3 of 50 failed replications exceed the 5 % budget (2.5)
    info, _ = _withholding_info({1, 2, 3}, 50)
    monkeypatch.setattr(montecarlo, "observed_info", info)
    with pytest.raises(HarnessError, match="3/50") as caught:
        empirical_power(_small_budget_config())
    assert caught.value.failure_counts == {"T": 0, "WALD": 3}


def test_failure_budget_breach_exits_5(monkeypatch, tmp_path):
    info, _ = _withholding_info({1, 2, 3}, 50)
    monkeypatch.setattr(montecarlo, "observed_info", info)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "model.id = ou\nmodel.theta0 = 0.5,0.5,0.25\nsim.n = 50\n"
        "mc.replications = 50\nmc.h_grid = 0,1\nmc.master_seed = 3\n"
        "mc.statistics = T,WALD\n"
    )
    assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_BUDGET
