"""The import graph: what ``import qltest`` loads, and what a power study
loads on top of it.

scipy.stats (about 0.45 s and 23 MB) serves only the Sobol fill of fits with
more than two starts, and concurrent.futures.process (multiprocessing) only a
power study with several workers, so neither may load with the package.
Each check runs in a fresh interpreter: this test process has already
imported scipy.stats through other test modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_POWER_STUDY = """
import tempfile
from pathlib import Path
from qltest import ExperimentConfig, ParamVector, run_table
config = ExperimentConfig(model_id="ou", theta0=ParamVector([0.5, 0.5], [0.25]), n=50,
                          h_grid=(0.0, 1.0), replications=50, master_seed=3)
with tempfile.TemporaryDirectory() as tmp:
    run_table(config, Path(tmp) / "power.csv", workers=1)
"""

_DEFAULT_FIT = """
from qltest import ParamVector, QLContext, SimConfig, euler_maruyama, make_ou, mqle
model = make_ou()
path = euler_maruyama(model, ParamVector([0.5, 0.5], [0.25]),
                      SimConfig(n=100, delta=0.1, x0=1.0, seed=1))
mqle(QLContext(model, path))
"""


def _loaded(script, modules):
    """Which of ``modules`` are in sys.modules after ``script`` runs in a new
    interpreter that imports qltest from this checkout."""
    probe = f"import sys\n{script}\nprint(*[m in sys.modules for m in {modules!r}])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return dict(zip(modules, (flag == "True" for flag in out)))


def test_import_loads_neither_scipy_stats_nor_multiprocessing():
    loaded = _loaded("import qltest", ["qltest", "scipy.stats", "concurrent.futures.process"])
    assert loaded == {"qltest": True, "scipy.stats": False,
                      "concurrent.futures.process": False}


@pytest.mark.parametrize("script, expected", [
    (_POWER_STUDY, False),  # two starts a fit: no Sobol fill
    (_DEFAULT_FIT, True),  # eight starts: the fill loads the Sobol engine
], ids=["power_study", "default_mqle"])
def test_scipy_stats_loads_only_with_the_sobol_fill(script, expected):
    assert _loaded(script, ["scipy.stats"]) == {"scipy.stats": expected}
