import itertools
import math
import random
from fractions import Fraction

import pytest

from qkzbench import correspond
from qkzbench.chain import ModelConfig
from qkzbench.correspond import (
    COMPLEX128,
    MPMATH,
    check_correspondence,
    diagonalize_sector,
    match_distance,
    velocity_scale,
)
from qkzbench.errors import MatchFailure
from qkzbench.tensor import all_sectors, sector_dimension
from qkzbench.verify import elementary_symmetric, twist_targets

ETA = Fraction(1, 2)
HBAR = Fraction(1, 3)
X3 = (Fraction(0), Fraction(2, 5), Fraction(9, 7))
G2 = (Fraction(2), Fraction(3))

CFG = ModelConfig.rational(2, 3, ETA, HBAR, X3, G2)
TCFG2 = ModelConfig.trigonometric(
    2, 2, Fraction(2), Fraction(5, 4), (Fraction(1), Fraction(3, 2)), G2
)


def test_single_site_sectors():
    cfg = ModelConfig.rational(2, 1, ETA, HBAR, (Fraction(0),), G2)
    for a, M in ((1, (1, 0)), (2, (0, 1))):
        (st,) = diagonalize_sector(cfg, M)
        assert st.eigenvalues[0] == complex(G2[a - 1])
        assert st.residuals == [0.0]


def test_one_dimensional_sector_sum_rule():
    cfg = ModelConfig.rational(2, 2, ETA, HBAR, X3[:2], G2)
    (st,) = diagonalize_sector(cfg, (2, 0))
    assert abs(sum(st.eigenvalues) - 2 * complex(G2[0])) < 1e-12


def test_sector_eigenvalue_sums():
    # every joint eigenstate satisfies the sum rule: sum_i lambda_i = 7
    states = diagonalize_sector(CFG, (2, 1), rng=random.Random(3))
    assert len(states) == sector_dimension((2, 1))
    for st in states:
        assert abs(sum(st.eigenvalues) - 7) < 1e-10


def test_eigenstate_counts():
    rng = random.Random(3)
    for M in all_sectors(2, 3):
        assert len(diagonalize_sector(CFG, M, rng=rng)) == sector_dimension(M)


def test_diagonalize_rejects_bad_tol():
    with pytest.raises(ValueError):
        diagonalize_sector(CFG, (2, 1), tol=0)


# --------------------------------------------------------------- backends

def test_backends_agree_on_joint_spectrum():
    # one algorithm, two precisions: the same draws give the same states
    for M in all_sectors(2, 3):
        lo = diagonalize_sector(CFG, M, rng=random.Random(4), backend=COMPLEX128)
        hi = diagonalize_sector(CFG, M, tol=correspond.MP_GATE,
                                rng=random.Random(4), backend=MPMATH)
        assert len(lo) == len(hi) == sector_dimension(M)
        for a, b in zip(lo, hi):
            assert max(abs(x - complex(y))
                       for x, y in zip(a.eigenvalues, b.eigenvalues)) < 1e-10
            assert max(b.residuals) <= correspond.MP_GATE


def test_velocity_scale_flavors():
    assert velocity_scale(CFG) == ETA
    assert velocity_scale(TCFG2) == (Fraction(2) - Fraction(1, 2)) / 2


# ---------------------------------------------------------------------- Lax

def test_lax_spectrum_invariant_under_relabeling():
    # renaming the particles conjugates L by a permutation matrix, so the
    # correspondence holds on every relabeled chain, with the same targets
    perm = [2, 0, 1]
    cfg_perm = ModelConfig.rational(2, 3, ETA, HBAR, tuple(X3[p] for p in perm), G2)
    for cfg in (CFG, cfg_perm):
        rep = check_correspondence(cfg, (2, 1), rng=random.Random(5))
        assert rep.passed, rep.worst
        for row in rep.rows:
            assert [round(z.real, 9) for z in row.lax_spectrum] == [2.0, 2.0, 3.0]


# ------------------------------------------------------------------ matching

def test_match_distance_exact_assignment():
    vals = [1 + 0j, 2 + 0j, 3 + 0j]
    assert match_distance(vals, [3 + 0j, 1 + 0j, 2 + 0j]) == 0.0
    assert match_distance(vals, [1 + 0j, 2 + 0j, 3.5 + 0j]) == 0.5


def test_match_distance_beyond_seven_is_optimal():
    # sorting both multisets by (real, imaginary) pairs 1j with 0 and 0.1
    # with 0.1 + 1j (distance 1); the optimal assignment stays at 0.1
    far = [10 + 0j, 20 + 0j, 30 + 0j, 40 + 0j, 50 + 0j, 60 + 0j]
    vals = [0.1 + 0j, 1j] + far
    targets = [0j, 0.1 + 1j] + far
    assert match_distance(vals, targets) == 0.1


def test_match_distance_agrees_with_brute_force():
    rng = random.Random(2)
    for n in range(1, 7):
        for _ in range(30):
            # a coarse grid, so that ties and repeated points occur
            draw = lambda: complex(rng.randint(-3, 3), rng.randint(-3, 3)) / 2
            vals = [draw() for _ in range(n)]
            targets = [draw() for _ in range(n)]
            best = min(
                max(abs(vals[i] - targets[p[i]]) for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert match_distance(vals, targets) == best


def test_match_distance_nan_is_inf():
    assert match_distance([complex(math.nan, 0), 1 + 0j], [1 + 0j, 0j]) == math.inf


def test_correspondence_fails_on_nan_distance(monkeypatch):
    # a NaN anywhere in the running maximum must fail the check
    monkeypatch.setattr(correspond, "match_distance", lambda v, t: math.nan)
    rep = check_correspondence(CFG, (2, 1), rng=random.Random(7))
    assert not rep.passed
    assert rep.worst == math.inf


def test_match_distance_size_mismatch():
    with pytest.raises(MatchFailure):
        match_distance([1 + 0j], [1 + 0j, 2 + 0j])


# ----------------------------------------------------------- correspondence

def test_rational_targets_are_twist_multiset():
    assert twist_targets(CFG, (2, 1)) == [G2[0], G2[0], G2[1]]


def test_trig_targets_are_strings():
    t = TCFG2.t
    assert twist_targets(TCFG2, (2, 0)) == [
        G2[0] / t,
        G2[0] * t,
    ]


def test_string_centers_multiply_to_power():
    # prod_alpha g t^{2 alpha - M + 1} = g^M for every length, exactly
    g, t = Fraction(5, 3), Fraction(7, 2)
    for m in range(1, 6):
        prod = Fraction(1)
        for alpha in range(m):
            prod *= g * t ** (2 * alpha - m + 1)
        assert prod == g**m


def test_correspondence_rational_all_sectors():
    rng = random.Random(7)
    for M in all_sectors(2, 3):
        rep = check_correspondence(CFG, M, tol=1e-8, rng=rng)
        assert rep.passed, (M, rep.worst)
        assert len(rep.rows) == sector_dimension(M)
        for row in rep.rows:
            assert row.match_distance <= 1e-8
            assert row.hamiltonian_deviation <= 1e-8


def test_correspondence_trig_string_example():
    # sector (2, 0) at t = 2: the string is {g_1/2, 2 g_1} = {1, 4}
    rep = check_correspondence(TCFG2, (2, 0), tol=1e-8, rng=random.Random(7))
    assert rep.passed
    (row,) = rep.rows
    assert [round(z.real, 6) for z in row.target] == [1.0, 4.0]
    assert row.match_distance <= 1e-8


def test_correspondence_single_site():
    # a 1 x 1 Lax matrix: its one eigenvalue is the twist entry of the sector
    for cfg in (ModelConfig.rational(2, 1, ETA, HBAR, (Fraction(0),), G2),
                ModelConfig.trigonometric(2, 1, Fraction(2), Fraction(5, 4),
                                          (Fraction(1),), G2)):
        for M, g in (((1, 0), G2[0]), ((0, 1), G2[1])):
            rep = check_correspondence(cfg, M, rng=random.Random(7))
            assert rep.passed
            (row,) = rep.rows
            assert row.lax_spectrum == [complex(g)]


def test_correspondence_velocity_trace_identity():
    # sum_i xdot_i / scale = sum_a g_a M_a within 1e-10
    rng = random.Random(9)
    scale = complex(velocity_scale(CFG))
    for M in all_sectors(2, 3):
        rep = check_correspondence(CFG, M, rng=rng)
        expect = sum(float(g) * m for g, m in zip(G2, M))
        for row in rep.rows:
            total = sum(row.velocities) / scale
            assert abs(total - expect) < 1e-10


def test_correspondence_invariants_match_energy_levels():
    # the classical invariants sit on the level set e_d(multiset)
    rng = random.Random(11)
    targets = twist_targets(CFG, (2, 1))
    rep = check_correspondence(CFG, (2, 1), rng=rng)
    for row in rep.rows:
        for d in range(1, 4):
            e_d = float(elementary_symmetric(targets, d))
            assert abs(row.invariants[d - 1] - e_d) < 1e-8
            # and the reported spectrum reproduces them
            got = elementary_symmetric(row.lax_spectrum, d)
            assert abs(got - e_d) < 1e-8
