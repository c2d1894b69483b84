"""The package's public API: each module's ``__all__``, exported once by the package."""

import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import diffgen
from diffgen import FLOAT64, miller_expand
from diffgen.oracle import esp_direct

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


# CLI requests that load no scipy: every subcommand, in every field it
# takes, the f64 generator expansion and the f64 BVP studies included
SCIPY_FREE_REQUESTS = [
    ["weights", "--alpha", "8/5", "--d", "2", "--p", "2", "--r", "1"],
    ["weights", "--alpha", "8/5", "--d", "2", "--p", "2", "--r", "1", "--mode", "f64"],
    ["stencil", "--kind", "central", "--d", "2", "--p", "2"],
    ["stencil", "--kind", "shifted", "--d", "2", "--p", "2", "--r", "1", "--mode", "f64"],
    ["expand", "--alpha", "3/2", "--K", "8", "--d", "1", "--p", "1", "--r", "0"],
    ["expand", "--alpha", "8/5", "--K", "8", "--d", "2", "--p", "2", "--r", "1", "--mode", "big"],
    ["expand", "--alpha", "8/5", "--K", "24", "--d", "2", "--p", "2", "--r", "1", "--mode", "f64"],
    ["expand", "--alpha", "8/5", "--K", "8", "--mode", "f64"],
    ["table", "--which", "5"],
    ["bvp", "--Nmax", "16"],
    ["bvp", "--mode", "big", "--scheme", "unified", "--Nmax", "8"],
    ["fbvp", "--alpha", "8/5", "--mode", "big", "--Nmax", "16"],
    ["fbvp", "--alpha", "8/5", "--mode", "f64", "--Nmax", "64"],
    ["fbvp", "--alpha", "8/5", "--mode", "f64", "--r", "0", "--Nmax", "64"],
    ["oracle", "--dmax", "2", "--pmax", "2"],
]

# an f64 expansion by the Miller recurrence, whose bits must not depend on the process
F64_BASE, F64_GAMMA = (1.5, -2.0, 0.5), -0.75

FRESH_PROCESS = f"""
import contextlib, io, json, sys
from fractions import Fraction
import diffgen, diffgen.cli
from diffgen import FLOAT64, miller_expand, power_law_fractional_bvp, solve_bvp, solve_dense
def scipy_idle(step):
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], f"{{step}} loads scipy"
scipy_idle("import diffgen, diffgen.cli")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = diffgen.cli.run(argv)
    assert status == 0, (argv, status)
    scipy_idle(f"diffgen {{' '.join(argv)}}")
weights = miller_expand({F64_BASE!r}, {F64_GAMMA!r}, 64, FLOAT64).weights
scipy_idle("an f64 miller_expand")
solve_bvp(power_law_fractional_bvp(Fraction(7, 5)), "fractional", 128)
scipy_idle("an f64 fractional solve_bvp")
import numpy
solve_dense(numpy.eye(3), numpy.ones(3))
assert "scipy.linalg" in sys.modules, "solve_dense on an ndarray ran without scipy's LU"
print(json.dumps([w.hex() for w in weights]))
"""


def _fresh_interpreter(code: str, *args: str) -> str:
    """The output of ``code`` run by a new interpreter that imports this diffgen."""
    src = str(Path(diffgen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_request_loads_scipy_but_a_dense_float_solve():
    # a fresh interpreter: this process has loaded scipy through other tests.
    # Only solve_dense on a numpy array loads it, for its LAPACK LU; the f64
    # weights have the same bits in both processes
    out = _fresh_interpreter(FRESH_PROCESS, json.dumps(SCIPY_FREE_REQUESTS))
    weights = miller_expand(F64_BASE, F64_GAMMA, 64, FLOAT64).weights
    assert json.loads(out) == [w.hex() for w in weights]


# CLI requests that need no array, so numpy never executes: coefficients and
# stencils in every field, the tables, the oracle, the Grünwald series and
# the generator expansions
NUMPY_FREE_REQUESTS = [
    ["weights", "--alpha", "8/5", "--d", "2", "--p", "2", "--r", "1", "--mode", mode]
    for mode in ("rational", "f64", "big")
] + [
    ["stencil", "--kind", "shifted", "--d", "2", "--p", "2", "--r", "1", "--mode", mode]
    for mode in ("rational", "f64", "big")
] + [
    ["expand", "--alpha", "8/5", "--K", "8", "--mode", mode] for mode in ("rational", "f64", "big")
] + [
    ["expand", "--alpha", "3/2", "--K", "8", "--d", "1", "--p", "1", "--r", "0"],
    ["expand", "--alpha", "8/5", "--K", "24", "--d", "2", "--p", "2", "--r", "1", "--mode", "f64"],
    ["expand", "--alpha", "8/5", "--K", "24", "--d", "2", "--p", "2", "--r", "1", "--mode", "big"],
] + [["table", "--which", "5"], ["oracle", "--dmax", "2", "--pmax", "2"]]

NUMPY_FRESH_PROCESS = """
import contextlib, io, json, sys
from fractions import Fraction
import diffgen, diffgen.cli
from diffgen import (FLOAT64, RATIONAL, apply_stencil, bigdecimal, compact_stencil,
                     miller_expand, power_law_fractional_bvp, sine_bvp, solve_bvp)
def numpy_idle(step):
    assert not [m for m in sys.modules if m.split(".")[0] == "numpy"], f"{step} imports numpy"
numpy_idle("import diffgen, diffgen.cli")
for field in (FLOAT64, bigdecimal(50)):
    sine_bvp(field), power_law_fractional_bvp(Fraction(8, 5), field)
    numpy_idle(f"building the problems in {field}")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = diffgen.cli.run(argv)
    assert status == 0, (argv, status)
    numpy_idle(f"diffgen {' '.join(argv)}")
for field in (RATIONAL, FLOAT64, bigdecimal(50)):
    stencil = compact_stencil(2, 2, 1, field)
    apply_stencil(stencil, lambda x: x * x * x, Fraction(1, 3), Fraction(1, 8))
    apply_stencil(stencil, [1, 2, 4, 8], 0, Fraction(1, 2))
    numpy_idle(f"a stencil in {field}")
    with field.context():
        base = tuple(field.of(b) for b in (Fraction(9, 4), -3, 1))
    miller_expand(base, Fraction(-1, 2), 64, field)
    miller_expand(base, Fraction(1, 2), 64, field)
    numpy_idle(f"a miller_expand in {field}")
report = solve_bvp(sine_bvp(FLOAT64), "central", 16)
assert "numpy.linalg" in sys.modules, "an f64 solve ran without numpy"
import numpy
assert RATIONAL.of(numpy.float32(0.1)) == Fraction(13421773, 134217728)
seven = bigdecimal(30).of(numpy.int64(7))
assert type(seven).__name__ == "Decimal" and seven == 7, repr(seven)
print(json.dumps([x.hex() for x in report.solution]))
"""


def test_numpy_executes_only_with_the_first_array_operation():
    # a fresh interpreter: this process has run numpy through other tests
    out = _fresh_interpreter(NUMPY_FRESH_PROCESS, json.dumps(NUMPY_FREE_REQUESTS))
    report = diffgen.solve_bvp(diffgen.sine_bvp(FLOAT64), "central", 16)
    assert json.loads(out) == [x.hex() for x in report.solution]
    # a numpy imported before diffgen is the one diffgen uses
    out = _fresh_interpreter("import numpy, diffgen; print(diffgen.scalars.np is numpy)")
    assert out.strip() == "True"


WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # every import of numpy now fails, as if it were not installed
import diffgen.cli
from diffgen import FLOAT64
assert diffgen.cli.run(["weights", "--alpha", "8/5", "--d", "2", "--p", "2", "--r", "1"]) == 0
generator = ["expand", "--alpha", "8/5", "--K", "3", "--d", "2", "--p", "2", "--r", "1"]
assert diffgen.cli.run(generator + ["--mode", "f64"]) == 0
assert diffgen.cli.run(generator + ["--mode", "big", "--digits", "50"]) == 0
try:
    FLOAT64.vector([1.0])
except ImportError as exc:
    print(exc)
"""


def test_without_numpy_only_an_array_operation_fails_and_names_it():
    lines = _fresh_interpreter(WITHOUT_NUMPY).splitlines()
    assert lines[:2] == ["3/4 -5/4 1/4 1/4", "error: 17/120"]
    assert lines[2] == "0.7944178807866091 -1.0592238410488122 0.035307461368293803"
    assert lines[3] == ("0.79441788078660918997100605009456420568479974936165 "
                        "-1.0592238410488122532946747334594189409130663324822 "
                        "0.035307461368293741776489157781980631363768877749407")
    assert len(lines) == 5 and "numpy" in lines[4]


FIRST_USE_FROM_THREADS = """
import sys, threading
from diffgen import FLOAT64, bigdecimal
barrier, results = threading.Barrier(4), []
def first_use(field):
    barrier.wait()
    try:
        results.append(str(field.vector([1, 2]).sum()))
    except Exception as exc:
        results.append(repr(exc))
threads = [threading.Thread(target=first_use, args=(field,))
           for field in (FLOAT64, FLOAT64, bigdecimal(30), bigdecimal(30))]
sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
print(sorted(results))
"""


def test_threads_that_first_touch_numpy_at_once_wait_for_one_import():
    # a module half executed by another thread would lack the attributes read here
    out = _fresh_interpreter(FIRST_USE_FROM_THREADS)
    assert out.strip() == "['3', '3', '3.0', '3.0']"


def _cv(d, p):
    return diffgen.beta_coefficients(diffgen.derive_params(d, d, p, 1))


# every count argument: (call with the count, the parameter's name, a valid value, low, high)
COUNT_ARGUMENTS = {
    "derive_params-d": (lambda v: diffgen.derive_params(1, v, 2, 0),
                        "base derivative order d", 2, 1, None),
    "derive_params-p": (lambda v: diffgen.derive_params(1, 1, v, 0), "accuracy order p", 2, 1, None),
    "denominators-d": (lambda v: diffgen.denominators(v, 2), "d", 2, 1, None),
    "denominators-p": (lambda v: diffgen.denominators(2, v), "p", 2, 1, None),
    "error_coefficients-count": (lambda v: diffgen.error_coefficients(_cv(2, 3), v),
                                 "count", 2, 1, 3),
    "grunwald_weights-truncation": (lambda v: diffgen.grunwald_weights(Fraction(1, 2), v),
                                    "truncation", 4, 1, None),
    "miller_expand-truncation": (lambda v: miller_expand([1, -1], Fraction(1, 2), v),
                                 "truncation", 4, 1, None),
    "poly_power_int-gamma": (lambda v: diffgen.poly_power_int([1, 1], v), "gamma", 2, 1, None),
    "esp_direct-k": (lambda v: esp_direct([1, 2, 3], v), "k", 2, 0, 3),
    "consistency_moments-k_max": (lambda v: diffgen.consistency_moments(_cv(2, 3), v),
                                  "k_max", 5, 4, None),
    "symbol_series-count": (lambda v: diffgen.symbol_series(_cv(2, 3), v), "count", 2, 0, None),
    "bigdecimal-digits": (diffgen.bigdecimal, "precision digits", 30, 15, None),
    "solve_bvp-N": (lambda v: diffgen.solve_bvp(diffgen.sine_bvp(), "central", v),
                    "number of intervals N", 8, 2, None),
    "solve_bvp-r": (lambda v: diffgen.solve_bvp(diffgen.power_law_fractional_bvp(Fraction(8, 5)),
                                                "fractional", 8, r=v), "shift r", 1, 0, None),
    "unified_coefficient_rows-N": (diffgen.unified_coefficient_rows,
                                   "number of intervals N", 4, 2, None),
    "noncompact_stencil-alpha": (lambda v: diffgen.noncompact_stencil(v, 1, 2, 0),
                                 "derivative order alpha", 2, 2, None),
    "noncompact_stencil-d": (lambda v: diffgen.noncompact_stencil(4, v, 2, 0),
                             "base derivative order d", 2, 1, None),
}


@pytest.mark.parametrize("site", COUNT_ARGUMENTS)
def test_every_count_argument_is_an_int_in_its_range(site):
    # a bool, a float, a numpy integer (even of a valid value) and an int out
    # of range are each refused with the parameter's name and the value
    call, name, valid, low, high = COUNT_ARGUMENTS[site]
    call(valid)
    above = [] if high is None else [high + 1]
    for value in [True, 2.5, np.int64(valid), low - 1, *above]:
        message = rf"^{re.escape(name)} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)
