"""Imports on demand: the package and the CLI load a command's modules only
when it runs, and numpy only where floats are fitted (netfit, kfit and
sigma-build).  Each check runs in a fresh interpreter, since this process has
long imported everything."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ridgekit
from ridgekit.rationals import Refusal

# ``__all__`` as the package built it from dir() when it imported every module
ALL_BEFORE_LAZY_IMPORTS = [
    "ActivationSpec", "Bolt", "BoltGenerationError", "BoltGenerator", "ClosedPathCertificate",
    "DensityPreconditionError", "DensityVerdict", "Direction", "DiscreteMeasure",
    "EncoderBudgetError", "FitBudgetError", "IncidenceStructure", "LevelTable", "Network",
    "NetworkTerm", "Point", "PointConfig", "PointTest", "PolynomialActivationError",
    "ProbeReport", "ProjectedMeasure", "RationalPoly", "RidgeSum", "RidgeTest", "SigmaOracle",
    "ThetaInterval", "UnivariateEncoding", "UnivariateFit", "activation", "approx_network",
    "approx_univariate", "bolt_measure", "bolts", "build_bolt_graph", "build_incidence",
    "build_k_network", "calkin_wilf_index", "calkin_wilf_rational", "code_rational",
    "decode_poly", "density_verdict", "encode_poly", "encode_univariate", "enumeration",
    "eval_network", "exactlinalg", "find_closed_bolt", "find_closed_path", "format_rational",
    "incidence", "integrate", "interpolate_ridge", "is_annihilating", "logistic_oracle",
    "measures", "netapprox", "orbits", "paper_orbit_generator", "polynomial_degree_probe",
    "pushforward", "rational_code", "rationalize", "rationals", "sigma_by_name", "sigma_eval",
    "smooth_step", "table_oracle", "table_oracle_from_csv", "tanh_ramp_oracle",
    "total_variation", "verify_bolt", "weak_star_probe",
]

REPORT = "\nimport json, sys\nprint(json.dumps([rc, 'numpy' in sys.modules]))"
COMMAND = "from ridgekit.cli import main\nrc = main(json.loads(sys.argv[1]))"


def fresh(code: str, *args: str) -> tuple[int | None, bool]:
    """Run ``code`` in a new interpreter that imports ridgekit from this
    checkout: the ``rc`` it sets, and whether numpy was imported."""
    src = str(Path(ridgekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\nrc = None\n{code}{REPORT}", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    rc, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    return rc, numpy_loaded


@pytest.mark.parametrize(
    "code",
    [
        "import ridgekit",
        "import ridgekit.cli",
        "import ridgekit\nridgekit.bolts.orbits",
        "import ridgekit.activation",
    ],
    ids=["ridgekit", "ridgekit.cli", "ridgekit.bolts", "ridgekit.activation"],
)
def test_imports_leave_numpy_unloaded(code):
    assert fresh(code) == (None, False)


NUMPY_FREE_RUNS = {
    "paths": (["--preset", "paper-5pt"], 2),
    "bolts": (["--preset", "grid-2x2"], 0),
    "orbits": (["--preset", "paper-orbit"], 0),
    "probe": (["--preset", "paper-orbit", "--N", "200"], 0),
    "ridgefit": (["--preset", "parallel-segments", "--f", "xy"], 0),
    "sigma-eval": (["--to", "2"], 0),
}

NUMPY_RUNS = {
    "netfit": (["--preset", "parallel-segments", "--f", "xy", "--eps", "1/10"], 0),
    "kfit": (["--preset", "monotone-curve", "--f", "norm", "--eps", "1/10"], 0),
    "sigma-build": (["--poly", "1,-1/2,1/3"], 0),
}


@pytest.mark.parametrize("command", NUMPY_FREE_RUNS)
def test_commands_that_fit_no_floats_leave_numpy_unloaded(tmp_path, command):
    argv, want = NUMPY_FREE_RUNS[command]
    argv = [command, *argv, "--out", str(tmp_path)]
    assert fresh(COMMAND, json.dumps(argv)) == (want, False)
    assert any(tmp_path.iterdir())


@pytest.mark.parametrize("command", NUMPY_RUNS)
def test_commands_that_fit_floats_still_run(tmp_path, command):
    argv, want = NUMPY_RUNS[command]
    argv = [command, *argv, "--out", str(tmp_path)]
    assert fresh(COMMAND, json.dumps(argv)) == (want, True)
    assert any(tmp_path.iterdir())


def test_all_is_unchanged_and_every_name_resolves():
    assert ridgekit.__all__ == ALL_BEFORE_LAZY_IMPORTS
    for name in ridgekit.__all__:
        value = getattr(ridgekit, name)
        module = ridgekit._MODULE_OF.get(name)
        if module is None:
            assert value is import_module(f"ridgekit.{name}")
        else:
            assert value is getattr(import_module(f"ridgekit.{module}"), name)
    assert set(ridgekit.__all__) <= set(dir(ridgekit))


def test_star_import_binds_the_same_names():
    namespace: dict = {}
    exec("from ridgekit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL_BEFORE_LAZY_IMPORTS


def test_modules_outside_all_resolve_and_unknown_names_do_not():
    assert ridgekit.kfit is import_module("ridgekit.kfit")
    assert ridgekit.presets is import_module("ridgekit.presets")
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        ridgekit.nonesuch


def test_the_cli_catches_every_refusal_through_one_base():
    refusals = [
        ridgekit.FitBudgetError,
        ridgekit.PolynomialActivationError,
        ridgekit.EncoderBudgetError,
        ridgekit.BoltGenerationError,
    ]
    assert all(issubclass(error, Refusal) for error in refusals)
    assert not issubclass(ridgekit.DensityPreconditionError, Refusal)
