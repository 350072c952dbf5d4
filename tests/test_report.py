import math
from fractions import Fraction

from qkzbench.report import verdict
from qkzbench.scalars import EXACT, ComplexDomain
from qkzbench.tensor import covector_residual, shared_space

FLOAT = ComplexDomain(1e-10)


def test_the_first_witness_wins_a_tie():
    r = verdict("c", EXACT, [(Fraction(1, 3), "a"), (Fraction(1, 2), "b"),
                             (Fraction(1, 2), "c"), (Fraction(1, 5), "d")])
    assert (r.status, r.residual, r.witness) == ("fail", Fraction(1, 2), "b")


def test_a_pass_drops_the_witness():
    r = verdict("c", FLOAT, [(1e-12, "a"), (1e-11, "b")])
    assert (r.status, r.residual, r.witness) == ("pass", 1e-11, None)
    r = verdict("c", FLOAT, [(1e-12, "a"), (1e-9, "b")])
    assert (r.status, r.residual, r.witness) == ("fail", 1e-9, "b")


def test_a_nan_comparison_fails_at_inf():
    space = shared_space(2, 1)
    nan = complex(math.nan)
    comparisons = [(FLOAT.residual(1j, 1j), "equal"),
                   (FLOAT.residual(nan, 0j), "nan"),
                   covector_residual(([0j, nan], 1), ([0j, 0j], 1), space, FLOAT)]
    r = verdict("c", FLOAT, comparisons)
    assert (r.status, r.residual, r.witness) == ("fail", math.inf, "nan")


def test_empty_comparisons_pass_at_the_domain_zero():
    for dom in (EXACT, FLOAT):
        r = verdict("c", dom, [])
        assert (r.status, r.residual, r.witness) == ("pass", 0, None)
        assert type(r.residual) is type(dom.residual(dom.zero, dom.zero))


def test_an_exact_pass_reports_fraction_zero():
    r = verdict("c", EXACT, iter([(Fraction(0), "a"), (Fraction(0), "b")]))
    assert r.passed and r.witness is None
    assert type(r.residual) is Fraction and r.residual == 0


def test_sector_becomes_a_tuple_and_params_a_dict():
    params = {"d": 1}
    r = verdict("c", EXACT, [], params=params, sector=[2, 1])
    assert (r.name, r.sector, r.params) == ("c", (2, 1), params)
    assert r.params is not params
    assert verdict("c", EXACT, []).sector is None
