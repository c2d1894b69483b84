"""The package's public API: each module's ``__all__``, exported once by the package."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffgen
from diffgen import FLOAT64, miller_expand

MODULES = ("explicit_form", "oracle", "scalars", "series", "solvers", "stencils")

PUBLIC_API = [
    "ApproxParams", "BudgetError", "BvpProblem", "CoefficientVector", "ConvergenceDiagnostic",
    "ErrorCoefficients", "ExactnessError", "FLOAT64", "Field", "Grid", "OpCount", "RATIONAL",
    "Scalar", "SingularMatrixError", "SolveReport", "Stencil", "WeightSeries", "__version__",
    "apply_stencil", "assemble_central", "assemble_fractional", "assemble_unified",
    "beta_coefficients", "bigdecimal", "compact_stencil", "consistency_moments",
    "convergence_diagnostic", "denominators", "derive_params", "error_coefficients",
    "field_from_name", "grunwald_weights", "iter_convergence_study", "miller_expand",
    "noncompact_stencil", "numerators", "numerators_direct", "parse_scalar", "poly_power_int",
    "power_law_fractional_bvp", "render_stencil", "shift_for_kind", "sine_bvp", "solve_bvp",
    "solve_dense", "study_csv", "study_table", "symbol_series", "unified_coefficient_rows",
    "vandermonde_solve",
]


def test_public_api_is_pinned():
    assert sorted(diffgen.__all__) == PUBLIC_API
    assert len(set(diffgen.__all__)) == len(diffgen.__all__)


def test_star_import_binds_exactly_the_public_api():
    namespace = {}
    exec("from diffgen import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_API
    assert all(namespace[name] is getattr(diffgen, name) for name in namespace)


@pytest.mark.parametrize("name", MODULES)
def test_module_api_is_exported_by_the_package(name):
    module = importlib.import_module(f"diffgen.{name}")
    assert set(module.__all__) <= set(diffgen.__all__)
    assert all(getattr(diffgen, n) is getattr(module, n) for n in module.__all__)


# CLI requests that never load scipy: rational and 50-digit work of every
# subcommand, f64 coefficients, stencils and Grünwald series, and the f64
# central and unified BVP solves
SCIPY_FREE_REQUESTS = [
    ["weights", "--alpha", "8/5", "--d", "2", "--p", "2", "--r", "1"],
    ["weights", "--alpha", "8/5", "--d", "2", "--p", "2", "--r", "1", "--mode", "f64"],
    ["stencil", "--kind", "central", "--d", "2", "--p", "2"],
    ["stencil", "--kind", "shifted", "--d", "2", "--p", "2", "--r", "1", "--mode", "f64"],
    ["expand", "--alpha", "3/2", "--K", "8", "--d", "1", "--p", "1", "--r", "0"],
    ["expand", "--alpha", "8/5", "--K", "8", "--d", "2", "--p", "2", "--r", "1", "--mode", "big"],
    ["expand", "--alpha", "8/5", "--K", "8", "--mode", "f64"],
    ["table", "--which", "5"],
    ["bvp", "--Nmax", "16"],
    ["bvp", "--mode", "big", "--scheme", "unified", "--Nmax", "8"],
    ["fbvp", "--alpha", "8/5", "--mode", "big", "--Nmax", "16"],
    ["oracle", "--dmax", "2", "--pmax", "2"],
]

# the f64 generator expansion, the first request that needs scipy's BLAS
F64_BASE, F64_GAMMA = (1.5, -2.0, 0.5), -0.75

FRESH_PROCESS = f"""
import contextlib, io, json, sys
import diffgen, diffgen.cli
from diffgen import FLOAT64, miller_expand
assert "scipy" not in sys.modules, "import diffgen loads scipy"
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = diffgen.cli.run(argv)
    assert status == 0, (argv, status)
    assert "scipy" not in sys.modules, f"diffgen {{' '.join(argv)}} loads scipy"
weights = miller_expand({F64_BASE!r}, {F64_GAMMA!r}, 64, FLOAT64).weights
assert "scipy.linalg.blas" in sys.modules, "the f64 expansion ran without scipy's BLAS"
print(json.dumps([w.hex() for w in weights]))
"""


def test_cli_requests_load_no_scipy_until_an_f64_expansion():
    # a fresh interpreter: this process has loaded scipy through other tests
    src = str(Path(diffgen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS, json.dumps(SCIPY_FREE_REQUESTS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    weights = miller_expand(F64_BASE, F64_GAMMA, 64, FLOAT64).weights
    assert json.loads(done.stdout) == [w.hex() for w in weights]
