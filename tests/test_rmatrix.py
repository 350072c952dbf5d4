import math
import random
from fractions import Fraction

import pytest

from qkzbench.errors import PoleHit
from qkzbench.rmatrix import (
    check_twist_commutation,
    check_unitarity,
    check_yang_baxter,
    r_rational,
    r_rational_tilde,
    r_trig,
    r_trig_entrywise,
    r_trig_tilde,
    sinh_ratio_down,
    sinh_ratio_up,
)
from qkzbench.scalars import to_double
from qkzbench.tensor import ChainOperator, Space, permutation, q_permutation

ETA = Fraction(1, 2)


def test_rational_at_zero_is_permutation():
    sp = Space(2, 2)
    assert r_rational(sp, 1, 2, Fraction(0), ETA) == permutation(sp, 1, 2)


def test_rational_at_eta():
    sp = Space(2, 2)
    expect = (ChainOperator.identity(sp) + permutation(sp, 1, 2)).scaled(
        Fraction(1, 2)
    )
    assert r_rational(sp, 1, 2, ETA, ETA) == expect


def test_rational_unitarity():
    sp = Space(2, 2)
    x = Fraction(1, 3)
    prod = r_rational(sp, 1, 2, x, ETA) @ r_rational(sp, 2, 1, -x, ETA)
    assert prod == ChainOperator.identity(sp)


def test_rational_pole():
    with pytest.raises(PoleHit):
        r_rational(Space(2, 2), 1, 2, -ETA, ETA)
    with pytest.raises(PoleHit):
        r_rational_tilde(Space(2, 2), 1, 2, Fraction(0), ETA)


def test_tilde_is_scaled_plain():
    sp = Space(2, 2)
    x, eta = Fraction(2, 7), Fraction(1, 3)
    lhs = r_rational_tilde(sp, 1, 2, x, eta)
    rhs = r_rational(sp, 1, 2, x, eta).scaled((x + eta) / x)
    assert lhs == rhs


def test_tilde_entries_decay_like_one_over_x():
    sp = Space(2, 2)
    ident = ChainOperator.identity(sp)
    near = r_rational_tilde(sp, 1, 2, Fraction(10**3), ETA) - ident
    far = r_rational_tilde(sp, 1, 2, Fraction(10**6), ETA) - ident
    for r, c, v in near.entries():
        assert far.entry(r, c) * 10**6 == v * 10**3


def test_tilde_product_at_opposite_eta_vanishes():
    # (I + P)(I - P) = I - P^2 = 0
    sp = Space(2, 2)
    prod = r_rational_tilde(sp, 1, 2, ETA, ETA) @ r_rational_tilde(
        sp, 2, 1, -ETA, ETA
    )
    assert not prod.rows


# ------------------------------------------------------------- trigonometric

def test_trig_at_u_one_is_permutation():
    sp = Space(2, 2)
    assert r_trig(sp, 1, 2, Fraction(1), Fraction(2)) == permutation(sp, 1, 2)


@pytest.mark.parametrize("N", [2, 3])
def test_trig_forms_agree(N):
    u, t = Fraction(3, 2), Fraction(2)
    # adjacent sites and sites with one between them, each pair both ways
    for sp, i, j in ((Space(N, 2), 1, 2), (Space(N, 3), 3, 1)):
        assert r_trig(sp, i, j, u, t) == r_trig_entrywise(sp, i, j, u, t)
        assert r_trig(sp, j, i, u, t) == r_trig_entrywise(sp, j, i, u, t)


def test_trig_unitarity():
    sp = Space(2, 2)
    u, t = Fraction(5, 4), Fraction(3)
    prod = r_trig(sp, 1, 2, u, t) @ r_trig(sp, 2, 1, 1 / u, t)
    assert prod == ChainOperator.identity(sp)


def test_trig_pole_guards():
    with pytest.raises(PoleHit):
        r_trig(Space(2, 2), 1, 2, Fraction(1, 2), Fraction(2))  # (ut)^2 = 1
    with pytest.raises(PoleHit):
        r_trig_tilde(Space(2, 2), 1, 2, Fraction(1), Fraction(2))  # u^2 = 1
    with pytest.raises(PoleHit):
        r_trig_tilde(Space(2, 2), 1, 2, Fraction(-1), Fraction(2))


def test_trig_tilde_is_scaled_plain():
    sp = Space(2, 2)
    u, t = Fraction(3, 2), Fraction(2)
    c = sinh_ratio_down(u, t)
    assert r_trig_tilde(sp, 1, 2, u, t) == r_trig(sp, 1, 2, u, t).scaled(c)


def test_sinh_ratios_are_mutually_inverse():
    u, t = Fraction(7, 5), Fraction(3, 2)
    assert sinh_ratio_up(u, t) * sinh_ratio_down(u, t) == 1


# ------------------------------------------------------------------ checks

def test_yang_baxter_rational():
    r = check_yang_baxter("rational", [Fraction(2, 3)], [Fraction(1, 5)], ETA, 2)
    assert r.passed and r.residual == 0


def test_yang_baxter_rational_degenerate_point():
    # y = 0 makes the 23-factor a plain swap; the identity still holds
    r = check_yang_baxter("rational", [Fraction(2, 3)], [Fraction(0)], ETA, 2)
    assert r.passed


def test_yang_baxter_trig():
    r = check_yang_baxter(
        "trigonometric", [Fraction(2)], [Fraction(3, 2)], Fraction(5, 4), 3
    )
    assert r.passed and r.residual == 0


@pytest.mark.parametrize("flavor,N", [("rational", 2), ("rational", 3),
                                      ("trigonometric", 2), ("trigonometric", 3)])
def test_unitarity_random_points(flavor, N):
    rng = random.Random(11)
    coupling = Fraction(1, 2) if flavor == "rational" else Fraction(2)
    done = 0
    while done < 20:
        p = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        if flavor == "rational":
            if p in (coupling, -coupling):
                continue
        else:
            # both factors must be regular: (p t)^2 != 1 and (t/p)^2 != 1
            if p == 0 or (p * p * coupling * coupling == 1) or (
                p * p == coupling * coupling
            ):
                continue
        r = check_unitarity(flavor, [p], coupling, N)
        assert r.passed and r.residual == 0
        done += 1


@pytest.mark.parametrize("flavor", ["rational", "trigonometric"])
def test_twist_commutation(flavor):
    coupling = Fraction(1, 2) if flavor == "rational" else Fraction(2)
    g = (Fraction(2), Fraction(3), Fraction(-5, 7))
    r = check_twist_commutation(flavor, [Fraction(3, 7)], coupling, g, 3)
    assert r.passed and r.residual == 0


# --------------------------------------------------- one-pass builds, values

def _sum_forms(space, i, j, arg, coupling):
    """Each R builder written as the sum of full-space operators it stands
    for, built on demand (a builder's poles differ from the others')."""
    I = ChainOperator.identity(space)
    P = permutation(space, i, j)
    Q = q_permutation(space, i, j, coupling)
    x, c = arg, coupling
    return {
        r_rational: lambda: P.scaled(c / (x + c)) + I.scaled(x / (x + c)),
        r_rational_tilde: lambda: I + P.scaled(c / x),
        r_trig: lambda: P + (I - Q).scaled(sinh_ratio_up(x, c)),
        r_trig_tilde: lambda: I - Q + P.scaled(sinh_ratio_down(x, c)),
    }


# x = 0 (the rational swap) and u = +-1 (the trigonometric swap) sit on a
# pole of the tilde variants, so only the plain builders take them
_ARGS = (Fraction(3, 7), Fraction(-5, 2), Fraction(7, 3))
_BUILDER_ARGS = {
    r_rational: _ARGS + (Fraction(0),),
    r_rational_tilde: _ARGS,
    r_trig: _ARGS + (Fraction(1), Fraction(-1)),
    r_trig_tilde: _ARGS,
}


def _sums_in_doubles(space, i, j, arg, coupling):
    """The same sums as _sum_forms, their coefficients evaluated in doubles:
    {builder: {(row, col): double}} over the exact entries of I, P and Pq."""
    I, P, Q = ({(r, c): float(v) for r, c, v in op.entries()} for op in (
        ChainOperator.identity(space), permutation(space, i, j),
        q_permutation(space, i, j, coupling)))
    x, c = float(arg), float(coupling)

    def combine(*terms):
        out = {}
        for s, op in terms:
            for key, v in op.items():
                out[key] = out.get(key, 0.0) + s * v
        return {key: v for key, v in out.items() if v != 0}

    up = c * (x * x - 1) / (x * x * c * c - 1)  # sinh x / sinh(x + eta)
    return {
        r_rational: lambda: combine((c / (x + c), P), (x / (x + c), I)),
        r_rational_tilde: lambda: combine((1.0, I), (c / x, P)),
        r_trig: lambda: combine((1.0, P), (up, I), (-up, Q)),
        r_trig_tilde: lambda: combine((1.0, I), (-1.0, Q), (1 / up, P)),
    }


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("N,n,i,j",
                         [(2, 3, 1, 3), (2, 3, 3, 2), (3, 3, 2, 1), (3, 2, 1, 2)])
def test_one_pass_builds_keep_the_order_of_their_sums(mode, N, n, i, j):
    # each builder hands its entries to swap_embed directly; they are the
    # values of the operator sum it stands for, exactly over Fraction, and
    # their doubles lie within 4 ulp of that sum evaluated in doubles
    sp = Space(N, n)
    for build, args in _BUILDER_ARGS.items():
        for arg in args:
            got = {(r, c): v for r, c, v in build(sp, i, j, arg, Fraction(2))
                   .entries()}
            if mode == "exact":
                want = {(r, c): v for r, c, v in _sum_forms(
                    sp, i, j, arg, Fraction(2))[build]().entries()}
                assert got == want, (build.__name__, arg)
                continue
            want = _sums_in_doubles(sp, i, j, arg, Fraction(2))[build]()
            assert set(got) == set(want), (build.__name__, arg)
            for key, v in got.items():
                v, w = to_double(v), want[key]
                assert abs(v - w) <= 4 * math.ulp(max(abs(v), abs(w))), (
                    build.__name__, arg, key, v, w)