import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkzbench.errors import FloatOverflow, NonPositiveTolerance
from qkzbench.scalars import EXACT, ComplexDomain, require_tolerance

FLOAT = ComplexDomain(1e-10)


def test_approx_eq_examples():
    # float equality: relative deviation with an absolute floor at 1
    assert FLOAT.residual(1.0 + 0j, 1.0 + 1e-14j) <= FLOAT.threshold
    assert FLOAT.residual(1e6 + 0j, 1e6 + 1e-5) <= FLOAT.threshold
    assert not FLOAT.residual(1.0 + 0j, 1.1 + 0j) <= FLOAT.threshold
    # absolute branch at small magnitude
    assert FLOAT.residual(0j, 5e-11 + 0j) <= FLOAT.threshold


def test_approx_eq_rejects_bad_tolerance():
    assert require_tolerance(1e-3) == 1e-3
    for bad in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(NonPositiveTolerance):
            require_tolerance(bad)
        with pytest.raises(NonPositiveTolerance):
            ComplexDomain(tol=bad)


def test_to_float():
    assert FLOAT.coerce(Fraction(1, 2)) == 0.5 + 0j
    assert FLOAT.coerce(Fraction(-3)) == -3.0 + 0j
    assert FLOAT.coerce(Fraction(1, 3)) == complex(1.0 / 3.0)


def test_to_float_overflow():
    with pytest.raises(FloatOverflow):
        FLOAT.coerce(Fraction(10) ** 400)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@given(rationals, rationals)
def test_to_float_homomorphism(a, b):
    # error is relative to the operand scale: sums may cancel catastrophically
    f = FLOAT.coerce
    scale = max(1.0, abs(float(a)), abs(float(b)))
    assert abs(f(a + b) - (f(a) + f(b))) <= 1e-15 * scale
    assert abs(f(a * b) - f(a) * f(b)) <= 1e-15 * scale * scale


def test_exact_domain_contract():
    assert EXACT.coerce(2) == Fraction(2)
    assert EXACT.residual(Fraction(1, 2), Fraction(2, 4)) == 0
    assert EXACT.residual(Fraction(1, 2), Fraction(-1, 4)) == Fraction(3, 4)


def test_complex_domain_contract():
    assert FLOAT.threshold == 1e-10
    assert FLOAT.coerce(Fraction(1, 2)) == 0.5 + 0j
    with pytest.raises(ValueError):
        FLOAT.coerce(float("nan"))


def test_nan_residual_is_inf():
    for a, b in ((complex(math.nan, 0), 0j), (1 + 0j, complex(0, math.nan)),
                 (complex(math.inf, 0), complex(math.inf, 0))):
        assert FLOAT.residual(a, b) == math.inf
