import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkzbench.errors import NonPositiveTolerance
from qkzbench.scalars import require_tolerance, to_double
from qkzbench.tensor import common, join, split


def test_approx_eq_rejects_bad_tolerance():
    assert require_tolerance(1e-3) == 1e-3
    for bad in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(NonPositiveTolerance):
            require_tolerance(bad)


def test_to_float():
    # the double a float-mode report writes for an exact value
    assert to_double(Fraction(1, 2)) == 0.5
    assert to_double(Fraction(-3)) == -3.0
    assert to_double(Fraction(1, 3)) == 1.0 / 3.0
    assert type(to_double(Fraction(0))) is float


def test_to_float_overflow():
    # float() of these raises OverflowError; the report writes inf
    assert to_double(Fraction(10) ** 400) == math.inf
    assert to_double(-Fraction(10) ** 400) == -math.inf
    assert to_double(Fraction(1, 10 ** 400)) == 0.0


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
    f = to_double
    scale = max(1.0, abs(float(a)), abs(float(b)))
    assert abs(f(a + b) - (f(a) + f(b))) <= 1e-15 * scale
    assert abs(f(a * b) - f(a) * f(b)) <= 1e-15 * scale * scale


def test_exact_domain_contract():
    # the storage hooks of the one exact domain: values to int numerators
    # over their least common denominator, and back
    values = [Fraction(1, 2), 3, Fraction(-5, 6), Fraction(0)]
    nums, den = split(values)
    assert (nums, den) == ([3, 18, -5, 0], 6)
    assert all(type(v) is int for v in nums + [den])
    assert [join(v, den) for v in nums] == values
    assert type(join(4, 2)) is Fraction and join(4, 2) == 2
    assert common(6, [3, 18, -5]) == 1 and common(12, [6, 18]) == 6
    assert common(1, [7, 9]) == 1
