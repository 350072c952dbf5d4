"""Scalar domains: exact big rationals and tolerance-equipped complex doubles.

Exact values are `fractions.Fraction` instances (arbitrary precision, always
reduced, denominator positive), printed and parsed as ``p/q``.  Operators
store them as Python-int numerators over one common denominator; each domain
supplies the three hooks for that storage: ``split`` (values to numerators
and a denominator), ``join`` (one numerator and the denominator back to a
value) and ``common`` (the factor shared by a denominator and numerators).
In the complex domain the numerators are the values and the denominator is
always 1.  The
trigonometric family of operators stays exactly computable because every
matrix entry is a rational function of the exponentials u_i = e^{x_i},
t = e^{eta}, h = e^{eta*hbar}; nothing transcendental is evaluated until
spectra are extracted in the floating-point layer.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import FloatOverflow, NonPositiveTolerance

Rational = Fraction


def require_tolerance(tol):
    """tol itself if it is a usable gate: finite and strictly positive."""
    if not 0 < tol < math.inf:
        raise NonPositiveTolerance(
            f"tolerance must be finite and positive, got {tol}")
    return tol


class RationalDomain:
    """Exact field of big rationals; equality is literal."""

    zero = Fraction(0)
    one = Fraction(1)
    threshold = Fraction(0)

    @staticmethod
    def coerce(x):
        return Fraction(x)

    @staticmethod
    def residual(a, b):
        return abs(a - b)

    @staticmethod
    def split(values):
        """Integer numerators of values over their least common denominator."""
        den = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    @staticmethod
    def join(num, den):
        return Fraction(num, den)

    @staticmethod
    def common(den, nums):
        """gcd of the denominator and all the numerators."""
        return 1 if den == 1 else math.gcd(den, *nums)

    def __repr__(self):
        return "RationalDomain()"


class ComplexDomain:
    """Complex doubles; equality is relative with an absolute floor at 1."""

    zero = complex(0)
    one = complex(1)

    def __init__(self, tol: float = 1e-10):
        self.threshold = require_tolerance(tol)

    def coerce(self, x):
        try:
            z = complex(x)
        except OverflowError as exc:
            raise FloatOverflow(f"{x} exceeds double range") from exc
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"non-finite scalar {x!r} not admitted")
        return z

    @staticmethod
    def residual(a, b):
        """|a - b| / max(1, |a|, |b|); inf where that is NaN, so that no
        running maximum or threshold comparison can pass over it."""
        r = abs(a - b) / max(1.0, abs(a), abs(b))
        return math.inf if math.isnan(r) else r

    @staticmethod
    def split(values):
        return list(values), 1

    @staticmethod
    def join(num, den):
        return complex(num)

    @staticmethod
    def common(den, nums):
        return 1

    def __repr__(self):
        return f"ComplexDomain(tol={self.threshold!r})"


EXACT = RationalDomain()
