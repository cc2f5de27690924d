"""Every exported name resolves, and importing the package loads no SciPy submodule."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import opendecay

MODULES = ["opendecay"] + [
    info.name
    for info in pkgutil.walk_packages(opendecay.__path__, prefix="opendecay.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from opendecay import *", namespace)
    assert set(opendecay.__all__) <= set(namespace)


_SCIPY_SUBMODULES = ("scipy.fft", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
                     "scipy.signal", "scipy.sparse", "scipy.special")
_SCIPY_FREE_SCENARIOS = ("spin_bloch", "spin_master", "bridge_check", "decay_scan",
                         "weak_compare", "qbm_limit")
_IMPORT_BUDGET = f"""
import json, sys
SUBMODULES = {_SCIPY_SUBMODULES!r}
def loaded(prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))
import opendecay
from opendecay.scenarios import parse_config, run_scenario
report = {{"import": loaded(SUBMODULES)}}
for name in {_SCIPY_FREE_SCENARIOS!r}:
    run_scenario(name, parse_config(name))
    report[name] = loaded(SUBMODULES)
from opendecay import acceptance
assert all(result.passed for result in acceptance.run_all((1, 2, 3, 4, 5, 6)))
report["criteria 1-6"] = loaded(SUBMODULES)
run_scenario("qbm_exact", parse_config("qbm_exact"))
report["qbm_exact"] = loaded("scipy.signal")
print(json.dumps(report))
"""


def test_scipy_submodules_load_on_first_use():
    # a SciPy submodule costs start-up time only once a computation calls
    # into it: the spin scenarios, qbm_limit and acceptance criteria 1-6
    # load none, and the package's convolutions go through scipy.fft alone
    # (scipy.signal would pull in scipy.stats and scipy.ndimage); pytest's
    # warning filters load scipy.sparse, so this runs in a fresh interpreter
    src = str(Path(opendecay.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET], env=env, check=True,
                         capture_output=True, text=True).stdout
    report = json.loads(out)
    assert report == {stage: [] for stage in ("import",) + _SCIPY_FREE_SCENARIOS
                      + ("criteria 1-6", "qbm_exact")}
