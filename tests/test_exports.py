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


_SCIPY_FREE_SCENARIOS = ("spin_bloch", "spin_master", "bridge_check", "decay_scan",
                         "weak_compare", "qbm_limit")
# Each stage runs after the ones before it in one fresh interpreter and
# reports what is loaded then: the public SciPy submodules, and numpy.fft.
_IMPORT_BUDGET = """
import json, sys
def loaded():
    subs = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
    subs = sorted("scipy." + s for s in subs if not s.startswith("_") and s != "version")
    return subs + (["numpy.fft"] if "numpy.fft" in sys.modules else [])
report = {}
import opendecay
report["import"] = loaded()
from opendecay import acceptance
from opendecay.scenarios import parse_config, run_scenario
for stage in json.loads(sys.argv[1]):
    name, _, rest = stage.partition(" ")
    if name == "criteria":
        numbers = [int(k) for k in rest.split(",")]
        assert all(result.passed for result in acceptance.run_all(numbers))
    else:
        run_scenario(name, parse_config(name, None, [kv.split("=") for kv in rest.split()]))
    report[stage] = loaded()
print(json.dumps(report))
"""
_NUMPY_FFT = ["numpy.fft"]
_BUDGETS = [
    # the spin scenarios, qbm_limit and criteria 1-6 load nothing; the
    # exponential-cutoff qbm path (G, the Theta pass, the coefficients) then
    # loads numpy.fft alone
    {"import": [], **{name: [] for name in _SCIPY_FREE_SCENARIOS}, "criteria 1,2,3,4,5,6": [],
     "qbm_exact": _NUMPY_FFT, "qbm_sweep lambda_list=0.4,0.2": _NUMPY_FFT,
     "criteria 8,9": _NUMPY_FFT, "criteria 10": ["scipy.sparse"] + _NUMPY_FFT},
    # the hard-cutoff qbm path takes its kernel moments by quadrature and
    # loads numpy.fft alone; exp1 of the Bromwich route loads scipy.special
    {"import": [], "qbm_exact shape=hard tau_points=5": _NUMPY_FFT,
     "qbm_sweep shape=hard lambda_list=0.4": _NUMPY_FFT},
    {"import": [], "criteria 7": ["scipy.special"] + _NUMPY_FFT},
]


def test_scipy_submodules_load_on_first_use():
    # a SciPy submodule costs start-up time only once a computation calls
    # into it, and numpy.fft is not loaded by importing the package; the
    # qbm path needs no scipy.fft, scipy.interpolate or scipy.linalg (and so
    # no scipy.optimize or scipy.spatial either). pytest's warning filters
    # load scipy.sparse, so each budget runs in a fresh interpreter.
    src = str(Path(opendecay.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for budget in _BUDGETS:
        stages = json.dumps([stage for stage in budget if stage != "import"])
        out = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, stages], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert json.loads(out) == budget
