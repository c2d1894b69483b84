"""Classical finite-difference stencils from generator coefficients.

A stencil packages the weights together with their grid offsets: weight k
multiplies the sample at x + (r - k)h, reading leftward from the largest
offset, and the whole sum is divided by h**alpha on application. Compact
stencils use the minimal p+d points (alpha = d); non-compact ones raise a
lower-order base to an integer power gamma = alpha/d >= 2 and use
gamma*(p+d-1)+1 points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .explicit_form import (
    ApproxParams,
    _finite,
    _warn,
    beta_coefficients,
    derive_params,
    error_coefficients,
)
from .scalars import RATIONAL, Field, Scalar, _integer, _over_common_denominator
from .series import poly_power_int

__all__ = [
    "Stencil",
    "shift_for_kind",
    "compact_stencil",
    "noncompact_stencil",
    "apply_stencil",
    "render_stencil",
]

KINDS = ("left", "right", "central", "shifted", "staggered")


@dataclass(frozen=True)
class Stencil:
    """A difference formula for a derivative of integer order.

    ``weights[k]`` multiplies the sample at ``x + offsets[k]*h`` with
    ``offsets[k] = shift - k``; the weighted sum is scaled by
    1/h**derivative_order. ``eval_fraction`` is the fractional part of the
    shift (nonzero means the evaluation point sits between grid points) and
    ``leading_error`` the coefficient of h**accuracy_order times the
    derivative of order ``error_derivative_order`` in the truncation error.
    """

    derivative_order: int
    accuracy_order: int
    shift: Scalar
    offsets: tuple[Scalar, ...]
    weights: tuple[Scalar, ...]
    eval_fraction: Scalar
    leading_error: Scalar
    error_derivative_order: int
    base_params: ApproxParams


def shift_for_kind(kind: str, d: int, p: int, r=None) -> Scalar:
    """Shift value for a named stencil kind.

    left -> 0, right -> p+d-1, central -> (p+d-1)/2 (a half-integer when
    p+d-1 is odd: the staggered-central formula), shifted -> the given
    integer r, staggered -> the given non-integer r. A shifted r outside
    [0, p+d-1] is kept, with a UserWarning naming the caller's line. An r
    given to left, right or central, which fix their own shift, raises
    ValueError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown stencil kind {kind!r}; expected one of {KINDS}")
    if r is not None and kind in ("left", "right", "central"):
        raise ValueError(f"kind {kind!r} fixes its own shift; give r = {r} to shifted or staggered")
    span = p + d - 1
    if kind == "left":
        return Fraction(0)
    if kind == "right":
        return Fraction(span)
    if kind == "central":
        return Fraction(span, 2)
    if r is None:
        raise ValueError(f"kind {kind!r} needs an explicit shift r")
    r = Fraction(r)
    if kind == "shifted":
        if r.denominator != 1:
            raise ValueError("shifted stencils need an integer shift; use 'staggered'")
        if not 0 <= r <= span:
            _warn(f"shift {r} lies outside the stencil support [0, {span}]; "
                  "the formula is extrapolative", UserWarning)
        return r
    if r.denominator == 1:
        raise ValueError("staggered stencils need a non-integer shift")
    return r


def _build(params: ApproxParams, weights, leading_error, field: Field) -> Stencil:
    with field.context():
        offsets = tuple(params.r - k for k in range(len(weights)))
    return Stencil(
        derivative_order=int(params.alpha),
        accuracy_order=params.p,
        shift=params.r,
        offsets=offsets,
        weights=tuple(weights),
        eval_fraction=field.of(Fraction(params.r) % 1),
        leading_error=leading_error,
        error_derivative_order=int(params.alpha) + params.p,
        base_params=params,
    )


def compact_stencil(d: int, p: int, r, field: Field = RATIONAL) -> Stencil:
    """Minimal-width formula for the d-th derivative, order p, shift r.

    Uses p+d points; the weights are the base coefficients themselves
    (exponent gamma = 1, no expansion).
    """
    params = derive_params(d, d, p, r, field)
    cv = beta_coefficients(params)
    err = error_coefficients(cv)
    return _build(params, cv.beta, err.leading, field)


def noncompact_stencil(alpha: int, d: int, p: int, r, field: Field = RATIONAL) -> Stencil:
    """Formula for the alpha-th derivative as an integer power of a
    lower-order base: alpha = gamma*d with gamma >= 2.

    The base coefficients use lam = r*d/alpha, then the weights are the
    exact gamma-fold convolution of the exact base, gamma*(p+d-1)+1 of them,
    each rounded once into ``field``.
    """
    _integer("derivative order alpha", alpha, 2)
    _integer("base derivative order d", d, 1)
    gamma, remainder = divmod(alpha, d)
    if remainder != 0 or gamma < 2:
        raise ValueError(
            f"non-compact form needs alpha = gamma*d with integer gamma >= 2; "
            f"got alpha={alpha}, d={d}"
        )
    params = derive_params(alpha, d, p, r, field)
    cv = beta_coefficients(params)
    err = error_coefficients(cv)
    weights = tuple(map(field.of, poly_power_int(cv.exact_beta, gamma)))
    return _build(params, weights, err.leading, field)


def apply_stencil(st: Stencil, samples, x, h) -> Scalar:
    """Evaluate the formula at x with spacing h.

    ``samples`` is either a callable f (sampled at x + offset*h) or a
    sequence of precomputed values aligned with ``st.offsets``; each sample
    is converted into the stencil's field (exactly in the rational field).
    Exact weights and samples are summed as integers over their denominators,
    divided once. An h, a sample (or, with a callable, an x) that is not
    finite raises ValueError naming it.
    """
    field = st.base_params.field
    with field.context():
        h = _finite("spacing h", h, field)
        if not h > 0:
            raise ValueError("spacing h must be positive")
        if callable(samples):
            x = _finite("point x", x, field)
            values = [samples(x + off * h) for off in st.offsets]
        else:
            values = list(samples)
            if len(values) != len(st.weights):
                raise ValueError(
                    f"need {len(st.weights)} samples, got {len(values)}"
                )
        values = [_finite(f"sample {k}", v, field) for k, v in enumerate(values)]
        weights, acc, scale = st.weights, field.zero, h**st.derivative_order
        exact_w = _over_common_denominator(weights)
        if exact_w:  # rational weights, so every sample is a Fraction too
            (weights, w_den), (values, v_den) = exact_w, _over_common_denominator(values)
            acc, scale = 0, scale * w_den * v_den
        for w, v in zip(weights, values):
            acc += w * v
        return acc / scale


def _json_value(value, field: Field):
    # a double is a JSON number; a fraction or a long decimal keeps its text
    return value if isinstance(value, float) else field.format(value)


def render_stencil(st: Stencil, format: str = "human") -> str:
    """Render as text: 'human' (weights left to right, the on-grid
    evaluation weight in parentheses), 'json', or 'csv'."""
    field = st.base_params.field
    if format == "human":
        parts = []
        for off, w in zip(st.offsets, st.weights):
            text = field.format(w)
            parts.append(f"({text})" if off == 0 else text)
        line = ", ".join(parts)
        if st.eval_fraction != 0:
            line += f" | eval offset {field.format(st.eval_fraction)}"
        return line + f" | error {field.format(st.leading_error)}"
    if format == "json":
        record = {
            "alpha": st.derivative_order,
            "d": st.base_params.d,
            "p": st.accuracy_order,
            "r": _json_value(st.shift, field),
            "lambda": _json_value(st.base_params.lam, field),
            "offsets": [_json_value(v, field) for v in st.offsets],
            "weights": [_json_value(v, field) for v in st.weights],
            "eval_fraction": _json_value(st.eval_fraction, field),
            "leading_error": _json_value(st.leading_error, field),
            "error_derivative_order": st.error_derivative_order,
        }
        return json.dumps(record)
    if format == "csv":
        lines = ["index,offset,weight"]
        for k, (off, w) in enumerate(zip(st.offsets, st.weights)):
            lines.append(f"{k},{field.format(off)},{field.format(w)}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {format!r}; expected human, json, or csv")
