from fractions import Fraction

from qkzbench.report import verdict


def test_the_first_witness_wins_a_tie():
    r = verdict("c", [(Fraction(1, 3), "a"), (Fraction(1, 2), "b"),
                      (Fraction(1, 2), "c"), (Fraction(1, 5), "d")])
    assert (r.status, r.residual, r.witness) == ("fail", Fraction(1, 2), "b")


def test_a_pass_drops_the_witness():
    # the correspondence passes a float threshold, its tolerance
    r = verdict("c", [(1e-12, "a"), (1e-11, "b")], threshold=1e-10)
    assert (r.status, r.residual, r.witness) == ("pass", 1e-11, None)
    r = verdict("c", [(1e-12, "a"), (1e-9, "b")], threshold=1e-10)
    assert (r.status, r.residual, r.witness) == ("fail", 1e-9, "b")


def test_empty_comparisons_pass_at_the_domain_zero():
    for threshold in (0, 1e-10):
        r = verdict("c", [], threshold=threshold)
        assert (r.status, r.residual, r.witness) == ("pass", 0, None)
        assert type(r.residual) is Fraction


def test_an_exact_pass_reports_fraction_zero():
    r = verdict("c", iter([(Fraction(0), "a"), (Fraction(0), "b")]))
    assert r.passed and r.witness is None
    assert type(r.residual) is Fraction and r.residual == 0


def test_an_exact_identity_fails_at_any_nonzero_residual():
    r = verdict("c", [(Fraction(1, 10 ** 400), "a")])
    assert (r.status, r.residual, r.witness) == ("fail", Fraction(1, 10 ** 400), "a")


def test_sector_becomes_a_tuple_and_params_a_dict():
    params = {"d": 1}
    r = verdict("c", [], params=params, sector=[2, 1])
    assert (r.name, r.sector, r.params) == ("c", (2, 1), params)
    assert r.params is not params
    assert verdict("c", []).sector is None
