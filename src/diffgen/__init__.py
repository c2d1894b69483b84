"""Difference-formula weights for classical and fractional derivatives.

One closed form covers the whole family: pick the derivative order alpha,
a base order d, an accuracy order p and a shift r, and the package produces
the generator-polynomial coefficients (exactly, in rational arithmetic),
their error terms, expanded weight series, classical stencils of any order
and shift, and boundary-value solvers built on top.
"""

from . import explicit_form, oracle, scalars, series, solvers, stencils
from .explicit_form import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .scalars import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .stencils import *  # noqa: F401,F403

__version__ = "0.1.0"

# the public API is each module's own __all__
__all__ = [name for module in (explicit_form, oracle, scalars, series, solvers, stencils)
           for name in module.__all__] + ["__version__"]
