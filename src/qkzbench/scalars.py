"""Exact scalars, tolerances, and the doubles a float-mode report writes.

Every scalar is a `fractions.Fraction` (arbitrary precision, always reduced,
denominator positive) or an int, printed and parsed as ``p/q``; operators
store them as Python-int numerators over one common denominator
(tensor.split, tensor.join).  The trigonometric family of operators stays
exactly computable because every matrix entry is a rational function of the
exponentials u_i = e^{x_i}, t = e^{eta}, h = e^{eta*hbar}; nothing
transcendental is evaluated until spectra are extracted in the
floating-point layer.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonPositiveTolerance

Rational = Fraction


def require_tolerance(tol):
    """tol itself if it is a usable gate: finite and strictly positive."""
    if not 0 < tol < math.inf:
        raise NonPositiveTolerance(
            f"tolerance must be finite and positive, got {tol}")
    return tol


def to_double(q):
    """The double of an exact value, inf beyond the double range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf
