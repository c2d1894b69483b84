"""The package's public API: each module's ``__all__``, exported once by the package."""

import importlib

import pytest

import diffgen

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
