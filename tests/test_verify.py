import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzbench import chain, cli, rmatrix, verify
from qkzbench.chain import ModelConfig, hamiltonian, sum_rule
from qkzbench.errors import FlavorMismatch, GenericPositionViolation, PoleHit
from qkzbench.rmatrix import r_trig
from qkzbench.tensor import (
    ChainOperator,
    Space,
    all_sectors,
    covector_residual,
    omega_q,
    permutation,
    split,
    weight_of,
)
from qkzbench.verify import (
    check_det_identity,
    check_k_projection,
    check_macdonald_eigenvalue,
    check_omega_invariance,
    check_proposition_higher,
    check_symmetric_identity,
    elementary_from_power_sums,
    elementary_symmetric,
    principal_minors,
    sector_sums,
    twist_targets,
)
from qkzbench.chain import qkz_operator

ETA = Fraction(1, 2)
HBAR = Fraction(1, 3)
X3 = (Fraction(0), Fraction(2, 5), Fraction(9, 7))
G2 = (Fraction(2), Fraction(3))

CFG = ModelConfig.rational(2, 3, ETA, HBAR, X3, G2)
TCFG = ModelConfig.trigonometric(
    2, 3, Fraction(2), Fraction(5, 4), (Fraction(1), Fraction(3, 2), Fraction(7, 3)), G2
)


# ------------------------------------------------------------ covector lemmas

def test_omega_invariance_rational():
    r = check_omega_invariance(CFG)
    assert r.passed and r.residual == 0


def test_omega_invariance_trig():
    r = check_omega_invariance(TCFG)
    assert r.passed and r.residual == 0


@pytest.mark.parametrize("cfg,swaps", [(CFG, 0), (TCFG, TCFG.n - 1)],
                         ids=["rational", "trig"])
def test_omega_invariance_pushes_through_the_plain_swap_only_at_q_not_1(
        cfg, swaps, monkeypatch):
    # at q = 1 the push through P^q_ij is the push through P_ij, and serves
    # as the target of the R comparisons
    calls = []
    permutation = verify.permutation
    monkeypatch.setattr(verify, "permutation",
                        lambda *a: calls.append(a[1:]) or permutation(*a))
    r = check_omega_invariance(cfg)
    assert r.passed and r.residual == 0
    assert len(calls) == swaps


# twist_targets and the flavor covector are one formula each, read through
# cfg.q; here they meet the per-flavor formulas they replace, written out

@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_twist_targets_are_the_per_flavor_formulas(cfg):
    for M in all_sectors(cfg.N, cfg.n):
        if cfg.is_rational:  # the twist multiset: g_a repeated M_a times
            want = [g for g, m in zip(cfg.g, M) for _ in range(m)]
        else:  # the strings g_a t^{2 alpha - M_a + 1}
            t = cfg.coupling
            want = [g * t ** (2 * alpha - m + 1)
                    for g, m in zip(cfg.g, M) for alpha in range(m)]
        got = twist_targets(cfg, M)
        assert got == want and all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_flavor_covector_is_the_per_flavor_formula(cfg):
    # <Omega| has every component 1; <Omega_q| has t to the number of
    # inversions of the state (pairs k < l with j_k > j_l)
    sp = cfg.space()
    want = [Fraction(1) if cfg.is_rational else cfg.coupling ** sum(
        1 for a, b in itertools.combinations(J, 2) if a > b) for J in sp.states]
    assert verify._flavor_covector(cfg.replace()) == split(want)


def test_trig_covector_needs_descending_index_order():
    # regression guard: with the reversed pair (i-1, i) the relation breaks
    sp = TCFG.space()
    wq = split(omega_q(sp, TCFG.coupling))
    u = Fraction(5, 3)
    lhs = r_trig(sp, 1, 2, u, TCFG.coupling).push_left(*wq)
    rhs = permutation(sp, 1, 2).push_left(*wq)
    res, wit = covector_residual(lhs, rhs, sp)
    assert res != 0 and wit is not None


@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_k_projection(cfg):
    for i in range(1, cfg.n + 1):
        r = check_k_projection(cfg, i)
        assert r.passed and r.residual == 0


def test_k_projection_at_hbar_zero_is_trivial():
    assert check_k_projection(CFG.at_hbar_zero(), 2).passed


def test_k_projection_three_colors():
    cfg = ModelConfig.trigonometric(
        3, 3, Fraction(2), Fraction(3, 2),
        (Fraction(1), Fraction(3, 2), Fraction(7, 3)),
        (Fraction(2), Fraction(3), Fraction(5)),
    )
    for i in (1, 2, 3):
        assert check_k_projection(cfg, i).passed


# ------------------------------------------------------- higher proposition

def test_proposition_single_site_matches_projection():
    assert check_proposition_higher(CFG, (2,)).passed


@pytest.mark.parametrize("sites", [(1, 3), (1, 2), (2, 3), (1, 2, 3)])
def test_proposition_rational(sites):
    r = check_proposition_higher(CFG, sites)
    assert r.passed and r.residual == 0


@pytest.mark.parametrize("sites", [(1, 2), (1, 3), (1, 2, 3)])
def test_proposition_trig(sites):
    r = check_proposition_higher(TCFG, sites)
    assert r.passed and r.residual == 0


def test_proposition_rhs_order_independent():
    # the unshifted connection operators commute, so any evaluation order
    # of the right-hand side gives the same covector
    sp = CFG.space()
    cfg0 = CFG.at_hbar_zero()
    w = split(omega_q(sp, Fraction(1)))
    results = []
    for order in itertools.permutations((1, 2, 3)):
        cov = w
        for s in order:
            cov = qkz_operator(cfg0, s).push_left(*cov)
        results.append(cov)
    for cov in results[1:]:
        res, _ = covector_residual(cov, results[0], sp)
        assert res == 0


def _chain_25(flavor):
    if flavor == "rational":
        x = (Fraction(0), Fraction(2, 5), Fraction(9, 7), Fraction(-3, 4), Fraction(5, 3))
        return ModelConfig.rational(2, 5, ETA, HBAR, x, G2)
    u = (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 5), Fraction(11, 4))
    return ModelConfig.trigonometric(2, 5, Fraction(2), Fraction(5, 4), u, G2)


@pytest.mark.parametrize("flavor", ["rational", "trig"])
def test_proposition_prefix_fold_matches_fresh_right_sides(flavor):
    cfg = _chain_25(flavor)
    subsets = [S for d in range(1, cfg.n + 1)
               for S in itertools.combinations(range(1, cfg.n + 1), d)]
    fresh = [check_proposition_higher(cfg, S) for S in subsets]
    assert all(r.passed for r in fresh)
    # the CLI's size-ordered walk with one shared map of right sides
    rc = cli.RunConfig(cfg, ["proposition-higher"], "all")
    assert list(cli._check_proposition(rc, None)) == fresh
    # the reverse walk builds each prefix into the map before it is read
    right_sides = {}
    for S, want in reversed(list(zip(subsets, fresh))):
        assert check_proposition_higher(cfg, S, right_sides) == want
    assert set(right_sides) == set(subsets)
    cfg0 = cfg.at_hbar_zero()
    w0 = verify._flavor_covector(cfg)
    for S, rhs in right_sides.items():
        assert rhs == verify._right_side(cfg0, w0, S, {}), S


@pytest.mark.parametrize("flavor", ["rational", "trig"])
def test_proposition_family_pushes_each_right_side_once(flavor, monkeypatch):
    # the factor memo hides a repeated push from the R-factor count, so the
    # pushes are counted: |S| for the left side of each subset S, and one
    # for its right side
    cfg = _chain_25(flavor)
    pushes = []
    push = verify.qkz_covector_numerators
    monkeypatch.setattr(verify, "qkz_covector_numerators",
                        lambda c, *a: pushes.append(c is cfg) or push(c, *a))
    rc = cli.RunConfig(cfg, ["proposition-higher"], "all")
    assert all(r.passed for r in cli._check_proposition(rc, None))
    assert pushes.count(True) == cfg.n * 2 ** (cfg.n - 1)
    assert pushes.count(False) == 2 ** cfg.n - 1


@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_proposition_fails_on_a_perturbed_stored_right_side(cfg):
    right_sides = {}
    assert check_proposition_higher(cfg, (1,), right_sides).passed
    nums, den = right_sides[(1,)]
    nums = list(nums)
    nums[2] += 1
    right_sides[(1,)] = (nums, den)
    for sites in [(1, 2), (1, 3)]:
        r = check_proposition_higher(cfg, sites, right_sides)
        _assert_fails_with_state_witness(r, cfg)
    # a subset that does not extend the perturbed prefix still passes
    assert check_proposition_higher(cfg, (2, 3), right_sides).passed


# ------------------------------------------- negative controls, covector side

def _perturb_flavor_covector(monkeypatch):
    # component 2 is the state (1, 2, 1), inside a sector of dimension 3; the
    # checks read the memoized (numerators, den) pair, so the value 1 is
    # added to a copy of it as den
    original = verify._flavor_covector

    def perturbed(cfg):
        nums, den = original(cfg)
        nums = list(nums)
        nums[2] += den
        return nums, den

    monkeypatch.setattr(verify, "_flavor_covector", perturbed)


def _assert_fails_with_state_witness(r, cfg):
    assert not r.passed and r.residual != 0
    assert r.witness in cfg.space().states


@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_omega_invariance_fails_on_a_perturbed_component(cfg, monkeypatch):
    # component 2 is the state (1, 2, 1); a swap or R factor that moves it
    # reads the perturbed value, so the witness carries the same letters.
    # A fresh copy of the config has an empty memo, so that its flavor
    # covector is split afresh from the perturbed omega_q (at q = 1 on the
    # rational flavor)
    original = verify.omega_q

    def perturbed(*args):
        w = list(original(*args))
        w[2] = w[2] + 1
        return w

    monkeypatch.setattr(verify, "omega_q", perturbed)
    cfg = cfg.replace()
    r = check_omega_invariance(cfg)
    _assert_fails_with_state_witness(r, cfg)
    assert weight_of(r.witness, cfg.N) == (2, 1)


@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_k_projection_fails_on_perturbed_covector(cfg, monkeypatch):
    _perturb_flavor_covector(monkeypatch)
    for i in (2, 3):
        _assert_fails_with_state_witness(check_k_projection(cfg, i), cfg)


@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_proposition_fails_on_perturbed_covector(cfg, monkeypatch):
    _perturb_flavor_covector(monkeypatch)
    for sites in [(2,), (3,), (1, 3), (2, 3)]:
        _assert_fails_with_state_witness(check_proposition_higher(cfg, sites), cfg)


# ------------------------------------- negative controls, integer storage
# A wrong numerator or a wrong common denominator inside a built operator or
# a pushed covector must show as a nonzero exact residual.

def _perturb_k(monkeypatch, site, change):
    """Make chain.qkz_operator return change(K) for the unshifted K_site."""
    original = chain.qkz_operator

    def perturbed(cfg, i, shifted_sites=()):
        K = original(cfg, i, shifted_sites)
        return change(K) if i == site and not shifted_sites else K

    monkeypatch.setattr(chain, "qkz_operator", perturbed)


def _bump_numerator(K):
    rows = {r: dict(row) for r, row in K.rows.items()}
    r = next(iter(rows))
    c = next(iter(rows[r]))
    rows[r][c] += 1
    return ChainOperator.from_numerators(K.space, rows, K.den)


def _scale_denominator(K):
    return ChainOperator.from_numerators(K.space, K.rows, K.den * 3)


@pytest.mark.parametrize("change", [_bump_numerator, _scale_denominator],
                         ids=["numerator", "denominator"])
@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_qkz_compat_fails_on_perturbed_storage(cfg, change, monkeypatch):
    _perturb_k(monkeypatch, 1, change)
    states = cfg.space().states
    for j in (2, 3):
        r = chain.qkz_compatibility(cfg, 1, j)
        assert not r.passed and r.residual != 0
        assert len(r.witness) == 2 and all(J in states for J in r.witness)
    # the unperturbed pair still passes
    assert chain.qkz_compatibility(cfg, 2, 3).passed


@pytest.mark.parametrize("cfg", [
    ModelConfig.rational(2, 4, ETA, HBAR, X3 + (Fraction(-3, 4),), G2),
    ModelConfig.trigonometric(2, 4, Fraction(2), Fraction(5, 4), (
        Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 5)), G2),
], ids=["rational", "trig"])
def test_one_unshifted_k1_serves_and_fails_every_pair_with_site_1(cfg, monkeypatch):
    # the qkz-compat family builds each unshifted K_i once, so one wrong K_1
    # fails the n - 1 pairs that read it, and only those
    _perturb_k(monkeypatch, 1, _bump_numerator)
    perturbed, unshifted = chain.qkz_operator, []

    def counted(cfg, i, shifted_sites=()):
        if not shifted_sites:
            unshifted.append(i)
        return perturbed(cfg, i, shifted_sites)

    monkeypatch.setattr(chain, "qkz_operator", counted)
    results = cli.run(cli.RunConfig(model=cfg, checks=["qkz-compat"],
                                    sectors="all")).results
    assert sorted(unshifted) == [1, 2, 3, 4]
    states = cfg.space().states
    assert len(results) == 6
    for r in results:
        if 1 in (r.params["i"], r.params["j"]):
            assert not r.passed and r.residual != 0, r.params
            assert len(r.witness) == 2 and all(J in states for J in r.witness)
        else:
            assert r.passed and r.residual == 0, r.params


@pytest.mark.parametrize("change", [
    lambda nums, den: ([v + (k == 2) for k, v in enumerate(nums)], den),
    lambda nums, den: (nums, den * 3),
], ids=["numerator", "denominator"])
@pytest.mark.parametrize("cfg", [CFG, TCFG], ids=["rational", "trig"])
def test_k_projection_fails_on_perturbed_pushed_covector(cfg, change, monkeypatch):
    # the pair <w| K_i (at the config's own hbar) changes one numerator, or
    # its denominator alone, after the push through the factors
    original = verify.qkz_covector_numerators

    def perturbed(c, cov, i, shifted_sites=(), left_block=False):
        out = original(c, cov, i, shifted_sites, left_block)
        return change(*out) if c is cfg and not left_block else out

    monkeypatch.setattr(verify, "qkz_covector_numerators", perturbed)
    for i in (1, 2, 3):
        _assert_fails_with_state_witness(check_k_projection(cfg, i), cfg)


# -------------------------------------------------------- determinant layer

def _ed_bruteforce(values, d):
    return sum(
        (math.prod(combo) for combo in itertools.combinations(values, d)),
        Fraction(0),
    )


def test_elementary_symmetric_against_bruteforce():
    rng = random.Random(5)
    for _ in range(20):
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
        for d in range(6):
            assert elementary_symmetric(vals, d) == [
                _ed_bruteforce(vals, k) for k in range(d + 1)]


def test_elementary_from_power_sums_matches_multiset():
    vals = [Fraction(2), Fraction(2), Fraction(3)]
    ps = [sum(v**k for v in vals) for k in range(1, 4)]
    for d in (1, 2, 3):
        assert elementary_from_power_sums(ps, d) == elementary_symmetric(vals, d)


def test_det_identity_single_site():
    cfg = ModelConfig.rational(2, 1, ETA, HBAR, (Fraction(0),), G2)
    for a, M in ((1, (1, 0)), (2, (0, 1))):
        r = check_det_identity(cfg, M)
        assert r.passed and r.residual == 0


def test_det_identity_example_sector():
    r = check_det_identity(CFG, (2, 1))
    assert r.passed and r.residual == 0 and r.params == {}


def test_det_identity_all_sectors():
    for M in all_sectors(2, 3):
        assert check_det_identity(CFG, M).passed


def test_det_identity_default_samples_for_seven_sites():
    # all eight coefficients of the degree-7 polynomial in z are compared
    x7 = (0, Fraction(2, 5), Fraction(9, 7), Fraction(-3, 4), Fraction(5, 3),
          Fraction(-8, 5), Fraction(13, 4))
    cfg = ModelConfig.rational(2, 7, ETA, HBAR, x7, G2)
    r = check_det_identity(cfg, (7, 0))
    assert r.passed and r.residual == 0
    assert len(sector_sums(cfg, (7, 0)).det_sums) == 8


def test_det_identity_rejects_trig():
    with pytest.raises(FlavorMismatch):
        check_det_identity(TCFG, (2, 1))


def _with_sector_hamiltonians(monkeypatch, hams):
    """A fresh copy of CFG whose sector tables are built from the
    restrictions of the full-space operators hams (a negative control):
    verify.sector_hamiltonians is patched before the copy's first build."""
    monkeypatch.setattr(verify, "sector_hamiltonians",
                        lambda cfg, sector: [H.restrict(sector) for H in hams])
    return CFG.replace()


def test_det_identity_negative_control(monkeypatch):
    # Hamiltonians from a perturbed twist must not satisfy the original's
    # determinant identity
    bad = ModelConfig.rational(2, 3, ETA, HBAR, X3, (G2[0] + 1, G2[1]))
    foreign = [hamiltonian(bad, i) for i in (1, 2, 3)]
    r = check_det_identity(_with_sector_hamiltonians(monkeypatch, foreign), (2, 1))
    assert not r.passed
    assert r.residual != 0
    assert r.witness is not None


def test_noncommuting_hamiltonians_fail_on_the_commutator(monkeypatch):
    # H_1 of CFG with H_2, H_3 of a chain with x_3 moved do not commute; the
    # pass compares each stored H_a H_b with H_b H_a and both checks fail
    moved = ModelConfig.rational(2, 3, ETA, HBAR, X3[:2] + (Fraction(-3, 4),), G2)
    mixed = [hamiltonian(CFG, 1), hamiltonian(moved, 2), hamiltonian(moved, 3)]
    M = (2, 1)
    cfg = _with_sector_hamiltonians(monkeypatch, mixed)
    table = sector_sums(cfg, M)
    commutator, pair = table.commutator
    states = table.space.states
    assert commutator != 0 and pair[0] in states and pair[1] in states
    for r in (check_det_identity(cfg, M), check_symmetric_identity(cfg, M, 2)):
        assert not r.passed and r.residual >= commutator
        assert len(r.witness) == 2
        assert r.witness[0] in states and r.witness[1] in states


@pytest.mark.parametrize("k", range(CFG.n + 1))
def test_det_identity_fails_on_a_perturbed_coefficient(k):
    # the stored table of a fresh copy of CFG is perturbed in place
    M, cfg = (2, 1), CFG.replace()
    table = sector_sums(cfg, M)
    det_sums = table.det_sums
    assert check_det_identity(cfg, M).residual == 0
    r, c = k % table.space.dim, (k + 1) % table.space.dim
    det_sums[k] = det_sums[k] + ChainOperator.from_entries(
        table.space, [(r, c, Fraction(1, 97))])
    res = check_det_identity(cfg, M)
    assert not res.passed and res.residual != 0
    assert res.witness == (table.space.states[r], table.space.states[c])


def _perm_sign(perm):
    inv = sum(1 for a, b in itertools.combinations(range(len(perm)), 2)
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def _permutation_sum_det(cfg, ops, z):
    """Reference: det(z d_ij - eta H_i / (x_j - x_i + eta)) as the n!-term
    signed permutation sum of operator entries, products in row order."""
    n = cfg.n
    sub = ops[0].space
    ident = ChainOperator.identity(sub)
    mat = [
        [
            (ident.scaled(z) if i == j else ChainOperator.zero(sub))
            - ops[i].scaled(cfg.coupling
                            / (cfg.points[j] - cfg.points[i] + cfg.coupling))
            for j in range(n)
        ]
        for i in range(n)
    ]
    det = ChainOperator.zero(sub)
    for perm in itertools.permutations(range(n)):
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = term @ mat[i][perm[i]]
        det = det + term.scaled(Fraction(_perm_sign(perm)))
    return det


def _stored(op):
    """What an operator stores: its numerators and their one denominator.
    Both are reduced, so equal operators store equal pairs; comparing the
    numerators alone would equate operators that differ by a scale factor."""
    return op.rows, op.den


def _principal_minor_det(table, z):
    """The determinant from the stored det_sums, by Horner's rule in z."""
    det = None
    for A in table.det_sums:
        det = A if det is None else det.scaled(z) + A
    return det


X4 = X3 + (Fraction(-3, 4),)
G3 = G2 + (Fraction(5),)


@pytest.mark.parametrize("N,n", [(2, 3), (3, 3), (2, 4)])
def test_principal_minor_det_equals_permutation_sum(N, n):
    cfg = ModelConfig.rational(N, n, ETA, HBAR, X4[:n], G3[:N])
    zs = [(-1) ** (k + 1) * ((k + 1) // 2) for k in range(n + 1)]
    for M in all_sectors(N, n):
        table = sector_sums(cfg, M)
        for z in zs:
            ref = _permutation_sum_det(cfg, table.ops, Fraction(z))
            got = _principal_minor_det(table, Fraction(z))
            assert _stored(got) == _stored(ref)
        assert check_det_identity(cfg, M).residual == 0


def test_principal_minor_det_on_foreign_operators(monkeypatch):
    # the perturbed-twist negative control (test_det_identity_negative_control)
    # meets the same determinant as before
    bad = ModelConfig.rational(2, 3, ETA, HBAR, X3, (G2[0] + 1, G2[1]))
    foreign = [hamiltonian(bad, i) for i in (1, 2, 3)]
    cfg = _with_sector_hamiltonians(monkeypatch, foreign)
    table = sector_sums(cfg, (2, 1))
    assert _stored(table.ops[0]) == _stored(foreign[0].restrict((2, 1)))
    for z in (0, 1, -1, 2):
        ref = _permutation_sum_det(cfg, table.ops, Fraction(z))
        assert _stored(_principal_minor_det(table, Fraction(z))) == _stored(ref)


def _permutation_minor(cfg, S):
    """Reference: det(C_SS), C_ij = eta / (x_j - x_i + eta), as the signed
    |S|!-term permutation sum."""
    total = Fraction(0)
    for perm in itertools.permutations(S):
        term = Fraction(_perm_sign(perm))
        for i, j in zip(S, perm):
            term *= cfg.coupling / (cfg.points[j] - cfg.points[i] + cfg.coupling)
        total += term
    return total


@pytest.mark.parametrize("N,n", [(2, 4), (3, 3)])
def test_elimination_minors_equal_permutation_sum(N, n):
    cfg = ModelConfig.rational(N, n, ETA, HBAR, X4[:n], G3[:N])
    minors = principal_minors(cfg)
    subsets = [S for k in range(n + 1) for S in itertools.combinations(range(n), k)]
    assert list(minors) == subsets
    for S in subsets:
        assert minors[S] == _permutation_minor(cfg, S), S
    assert principal_minors(cfg) is minors


@pytest.mark.parametrize("S", [(), (1,), (0, 2), (0, 1, 2)])
def test_det_identity_fails_on_a_scaled_minor(S, monkeypatch):
    assert check_det_identity(CFG, (2, 1)).residual == 0
    scaled = dict(principal_minors(CFG))
    scaled[S] *= Fraction(98, 97)
    monkeypatch.setattr(verify, "principal_minors", lambda cfg: scaled)
    # a fresh copy of CFG makes its pass after the patch
    r = check_det_identity(CFG.replace(), (2, 1))
    assert not r.passed and r.residual != 0
    assert r.witness is not None


@pytest.mark.parametrize("S", [(1,), (0, 2), (0, 1, 2)])
def test_symmetric_identity_fails_on_a_scaled_cauchy_weight(S, monkeypatch):
    M = (2, 1)
    # the table of a fresh copy of CFG is built, and its det_sums stored,
    # before the patch; the copy's Cauchy weight comparisons, memoized per
    # degree, are made after it
    cfg = CFG.replace()
    sector_sums(cfg, M)
    scaled = dict(principal_minors(cfg))
    scaled[S] *= Fraction(98, 97)
    monkeypatch.setattr(verify, "principal_minors", lambda cfg: scaled)
    r = check_symmetric_identity(cfg, M, len(S))
    assert not r.passed and r.residual != 0
    assert r.witness == ("Cauchy weight", S)
    # the other degrees and the determinant read only the stored sums
    for d in range(1, cfg.n + 1):
        if d != len(S):
            assert check_symmetric_identity(cfg, M, d).residual == 0
    assert check_det_identity(cfg, M).residual == 0


def test_symmetric_identity_fails_on_a_wrong_twist_multiset(monkeypatch):
    # the multiset g_a x M_a feeds only the multiset-form comparison; the
    # twist side of a fresh copy of CFG is built after the patch
    monkeypatch.setattr(verify, "twist_targets",
                        lambda cfg, sector: [Fraction(2), Fraction(2), Fraction(4)])
    cfg = CFG.replace()
    for d in (1, 2, 3):
        r = check_symmetric_identity(cfg, (2, 1), d)
        assert not r.passed and r.residual != 0
        assert r.witness == ("multiset form", d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_symmetric_identity_fails_on_a_wrong_newton_value(d, monkeypatch):
    # shift the Newton values of e_0..e_n and the multiset ones alike: the
    # explicit power-sum expansion is the first comparison that disagrees,
    # and the operator comparison after it deviates by the same 1; the twist
    # side of a fresh copy of CFG is built after the patch
    newton, multiset = elementary_from_power_sums, elementary_symmetric
    monkeypatch.setattr(verify, "elementary_from_power_sums",
                        lambda ps, k: [e + 1 for e in newton(ps, k)])
    monkeypatch.setattr(verify, "elementary_symmetric",
                        lambda values, k: [e + 1 for e in multiset(values, k)])
    r = check_symmetric_identity(CFG.replace(), (2, 1), d)
    assert not r.passed and r.residual == 1
    assert r.witness == ("power-sum expansion", d)


def test_a_full_verify_makes_one_twist_side_per_sector(monkeypatch):
    # det-identity, symmetric-identity and macdonald-eigenvalue read one
    # twist side per sector: one recurrence for e_0..e_n and one pass of
    # Newton's identities, where a call per coefficient and degree made 40
    # recurrences on this chain
    calls = []
    for name in ("elementary_symmetric", "elementary_from_power_sums"):
        def counted(values, d, name=name, f=getattr(verify, name)):
            calls.append(name)
            return f(values, d)
        monkeypatch.setattr(verify, name, counted)
    rc = cli.load_config(Path(__file__).parent / "data" / "rational.cfg")
    results = cli.run(rc).results
    assert results and all(r.passed for r in results)
    sectors = len(all_sectors(rc.model.N, rc.model.n))
    assert calls.count("elementary_symmetric") == sectors
    assert calls.count("elementary_from_power_sums") == sectors


# -------------------------------------------------------- sector subset sums

def test_sector_sums_are_built_once(monkeypatch):
    # a fresh copy of CFG, its sector Hamiltonians restricted before the
    # products are counted
    cfg = CFG.replace()
    ops = chain.sector_hamiltonians(cfg, (2, 1))
    assert _stored(ops[1]) == _stored(hamiltonian(CFG, 2).restrict((2, 1)))
    # one pass makes one product per subset of two or more sites, and one
    # reversed product H_b H_a per pair a < b for the commutator
    products = []
    matmul = ChainOperator.__matmul__
    monkeypatch.setattr(ChainOperator, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    per_pass = 2 ** CFG.n - CFG.n - 1 + math.comb(CFG.n, 2)
    table = sector_sums(cfg, (2, 1))
    assert len(products) == per_pass
    assert table.ops is ops
    assert sector_sums(cfg, (2, 1)) is table
    det_sums = table.det_sums
    assert sector_sums(cfg, (2, 1)).det_sums is det_sums
    assert len(det_sums) == CFG.n + 1
    # an equal config makes its own pass, to the same sums
    other = sector_sums(CFG, (2, 1))
    assert [_stored(A) for A in other.det_sums] == [_stored(A) for A in det_sums]
    assert other.commutator == table.commutator == (0, None)
    # the checks read the stored sums and commutator and make no product
    del products[:]
    assert check_det_identity(cfg, (2, 1)).passed
    for d in (1, 2, 3):
        assert check_symmetric_identity(cfg, (2, 1), d).passed
        assert check_macdonald_eigenvalue(cfg, (2, 1), d).passed
    assert products == []


def test_each_hamiltonian_is_restricted_once_per_sector(monkeypatch):
    # the subset pass and the eigensolver of a float verify read one
    # restriction of each H_i per sector; restricting in both made 24 here
    restricted = []
    restrict = ChainOperator.restrict
    monkeypatch.setattr(ChainOperator, "restrict",
                        lambda op, M: restricted.append((id(op), tuple(M))) or restrict(op, M))
    rc = cli.load_config(Path(__file__).parent / "data" / "rational-float.cfg")
    results = cli.run(rc).results
    assert results and all(r.passed for r in results)
    assert len(restricted) == len(set(restricted)) == rc.model.n * len(
        all_sectors(rc.model.N, rc.model.n))


def test_sector_sums_keep_left_to_right_order(monkeypatch):
    # each H_S is ((H_a H_b) H_c), as a plain left-to-right loop builds it,
    # and each det_sums[k] sums its terms in itertools.combinations order
    # a fresh copy of CFG, its sector Hamiltonians and minors built first
    cfg = CFG.replace()
    H, minors = chain.sector_hamiltonians(cfg, (2, 1)), principal_minors(cfg)
    products, sums = [], []
    matmul, combination = ChainOperator.__matmul__, ChainOperator.combination

    def recorded(a, b):
        products.append((a, b, matmul(a, b)))
        return products[-1][2]

    monkeypatch.setattr(ChainOperator, "__matmul__", recorded)
    monkeypatch.setattr(ChainOperator, "combination", staticmethod(
        lambda terms: sums.append(list(terms)) or combination(terms)))
    table = sector_sums(cfg, (2, 1))
    monkeypatch.undo()
    assert table.ops is H
    made = iter(products)
    level = {(i,): H[i] for i in range(CFG.n)}
    for k in range(2, CFG.n + 1):
        subsets = list(itertools.combinations(range(CFG.n), k))
        for S in subsets:
            a, b, level[S] = next(made)
            assert a is level[S[:-1]] and b is H[S[-1]], S
        if k == 2:  # the commutator products H_b H_a
            for S, (a, b, _) in zip(subsets, made):
                assert (a, b) == (H[S[1]], H[S[0]])
    assert next(made, None) is None
    assert [[s for s, _ in terms] for terms in sums] == [
        [(-1) ** k * minors[S] for S in itertools.combinations(range(CFG.n), k)]
        for k in range(CFG.n + 1)]
    # the sums themselves, against a reference loop
    for k in range(CFG.n + 1):
        det = ChainOperator.zero(table.space)
        for S in itertools.combinations(range(CFG.n), k):
            P = (functools.reduce(operator.matmul, [H[i] for i in S]) if S
                 else table.identity)
            det = det + P.scaled((-1) ** k * minors[S])
        assert _stored(table.det_sums[k]) == _stored(det), k


def test_symmetric_and_eigenvalue_checks_read_one_weighted_sum(monkeypatch):
    # the one weighted sum of degree d is (-1)^d det_sums[d]
    # a twist no other test uses, so the perturbed table below dies with cfg
    cfg = ModelConfig.rational(2, 3, ETA, HBAR, X3, (Fraction(5), Fraction(7)))
    M = (2, 1)
    for d in (1, 2, 3):
        assert check_symmetric_identity(cfg, M, d).residual == 0
    table = sector_sums(cfg, M)
    stored = table.det_sums
    products = []
    matmul = ChainOperator.__matmul__
    monkeypatch.setattr(ChainOperator, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    for d in (1, 2, 3):
        assert check_macdonald_eigenvalue(cfg, M, d).residual == 0
    assert products == [] and table.det_sums is stored
    # both checks now see a perturbed stored sum of degree 2, and only that
    stored[2] = stored[2].scaled(Fraction(98, 97))
    for check in (check_symmetric_identity, check_macdonald_eigenvalue):
        r = check(cfg, M, 2)
        assert not r.passed and r.residual != 0 and r.witness is not None
        assert check(cfg, M, 3).passed


# ----------------------------------------------------- symmetric identities

def test_symmetric_identity_first_degree_is_sum_rule():
    assert sum_rule(CFG).passed
    for M in all_sectors(2, 3):
        assert check_symmetric_identity(CFG, M, 1).passed


def test_symmetric_identity_second_degree_explicit():
    M = (2, 1)
    r = check_symmetric_identity(CFG, M, 2)
    assert r.passed
    p1 = 2 * G2[0] + 1 * G2[1]
    p2 = 2 * G2[0] ** 2 + 1 * G2[1] ** 2
    expect = Fraction(1, 2) * p1**2 - Fraction(1, 2) * p2
    lhs = sector_sums(CFG, M).det_sums[2]
    sub = Space(2, 3, M)
    assert lhs == ChainOperator.identity(sub).scaled(expect)


def test_symmetric_identity_top_degree():
    for M in all_sectors(2, 3):
        r = check_symmetric_identity(CFG, M, 3)
        assert r.passed and r.residual == 0


def test_symmetric_identity_rejects_bad_degree():
    with pytest.raises(ValueError):
        check_symmetric_identity(CFG, (2, 1), 4)


# -------------------------------------------------------------- eigenvalues

def test_macdonald_eigenvalue_examples():
    # E_1 = 2*2 + 3*1 = 7 and E_2 = e_2(2,2,3) = 16
    M = (2, 1)
    assert twist_targets(CFG, M) == [Fraction(2), Fraction(2), Fraction(3)]
    assert elementary_symmetric(twist_targets(CFG, M), 2) == [1, 7, 16]
    for d in (1, 2, 3):
        r = check_macdonald_eigenvalue(CFG, M, d)
        assert r.passed and r.residual == 0


def test_macdonald_eigenvalue_trig_strings():
    for M in all_sectors(2, 3):
        r = check_macdonald_eigenvalue(TCFG, M, 1)
        assert r.passed and r.residual == 0


def test_macdonald_eigenvalue_trig_single_occupancy():
    cfg = ModelConfig.trigonometric(
        3, 2, Fraction(2), Fraction(5, 4), (Fraction(1), Fraction(3, 2)),
        (Fraction(2), Fraction(3), Fraction(5)),
    )
    # all M_a in {0, 1}: sinh(eta M_a)/sinh(eta) is 0 or 1, so E is a plain sum
    t, tinv = cfg.coupling, 1 / cfg.coupling
    for M in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        expect = sum(g for g, m in zip(cfg.g, M) if m)
        value = sum(
            g * (t**m - tinv**m) / (t - tinv) for g, m in zip(cfg.g, M)
        )
        assert value == expect
        assert check_macdonald_eigenvalue(cfg, M, 1).passed


def test_macdonald_eigenvalue_fails_on_a_wrong_twist_multiset(monkeypatch):
    # E_1 from the multiset feeds the weighted twist sum and the sector
    # trace; the twist side of a fresh copy of CFG is built after the patch
    monkeypatch.setattr(verify, "twist_targets",
                        lambda cfg, sector: [Fraction(2), Fraction(2), Fraction(4)])
    r = check_macdonald_eigenvalue(CFG.replace(), (2, 1), 1)
    assert not r.passed and r.residual != 0


def test_macdonald_eigenvalue_trig_fails_on_a_wrong_string(monkeypatch):
    # the strings feed only the string-sum comparison; E and the trace of
    # H_1 + ... + H_n come from the sinh sum and still agree
    strings = twist_targets

    def moved(cfg, sector):
        out = strings(cfg, sector)
        return out[:-1] + [out[-1] + 1]

    monkeypatch.setattr(verify, "twist_targets", moved)
    r = check_macdonald_eigenvalue(TCFG, (2, 1), 1)
    assert not r.passed and r.residual == 1
    assert r.witness == "string sum"


def test_macdonald_eigenvalue_trig_rejects_higher_degree():
    with pytest.raises(FlavorMismatch):
        check_macdonald_eigenvalue(TCFG, (2, 1), 2)


def test_det_identity_polynomial_degree():
    # the z-polynomial on every sector has degree exactly n: its leading
    # coefficient det_sums[0], compared at k = 0, is 1 = (-1)^0 e_0
    for M in all_sectors(2, 3):
        assert check_det_identity(CFG, M).passed
        table = sector_sums(CFG, M)
        assert len(table.det_sums) == CFG.n + 1
        assert _stored(table.det_sums[0]) == _stored(table.identity)


def _random_generic_rational(rng, N, n):
    while True:
        try:
            eta = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            x = tuple(
                Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n)
            )
            g = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(N)
            )
            hbar = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            return ModelConfig.rational(N, n, eta, hbar, x, g)
        except GenericPositionViolation:
            continue


@pytest.mark.parametrize("N,n", [(2, 3), (3, 2)])
def test_suite_on_random_generic_draws(N, n):
    rng = random.Random(1000 + 10 * N + n)
    draws = 0
    while draws < 3:
        cfg = _random_generic_rational(rng, N, n)
        try:
            for i in range(1, n + 1):
                assert check_k_projection(cfg, i).residual == 0
            for M in all_sectors(N, n):
                assert check_det_identity(cfg, M).residual == 0
                assert check_symmetric_identity(cfg, M, 1).residual == 0
        except (GenericPositionViolation, PoleHit):
            continue  # hbar shift met a pole; draw again
        draws += 1


# ------------------------------------------------------ perturbed entries

@settings(max_examples=30, deadline=None)
@given(site=st.integers(1, 3), r=st.integers(0, 7),
       shift=st.sampled_from([Fraction(1, 97), Fraction(-2), Fraction(7, 3)]))
def test_a_perturbed_hamiltonian_entry_fails_only_where_it_enters(site, r, shift):
    # one diagonal entry of one H_i is moved; every check that reads it
    # fails, and no check on another sector notices
    rc = cli.load_config(Path(__file__).parent / "data" / "rational.cfg")
    built = chain.hamiltonian

    def perturbed(cfg, i):
        H = built(cfg, i)
        if i != site:
            return H
        return ChainOperator.from_entries(
            H.space, [*H.entries(), (r, r, shift)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "hamiltonian", perturbed)
        results = cli.run(rc).results
    hit = weight_of(Space(2, 3).states[r], 2)
    by_name = {}
    for res in results:
        by_name.setdefault(res.name, []).append(res)
    for name in ("pole-expansion", "sum-rule"):
        (res,) = by_name[name]
        assert not res.passed and res.residual > 0, name
    for name in ("det-identity", "symmetric-identity", "macdonald-eigenvalue"):
        for res in by_name[name]:
            if res.sector != hit:
                assert res.passed, (name, res.sector, res.params)
            elif name != "macdonald-eigenvalue" or res.params["d"] == 1:
                assert not res.passed and res.residual > 0, (name, res.params)


def _holds_k2(res):
    # the operators K_2, and the covectors pushed through K_2, carry R_21
    p = res.params
    return ((res.name == "qkz-compat" and 2 in (p["i"], p["j"]))
            or (res.name == "k-projection" and p["i"] == 2)
            or (res.name == "proposition-higher" and 2 in p["sites"]))


def _holds_transfer(res):
    # T(x) is traced from the extended chain, whose H_1 carries R~_12
    return res.name in ("transfer-commute", "pole-expansion")


@pytest.mark.parametrize("chain_file,builder,pair,extra_site,hit", [
    ("rational", "r_rational", (2, 1), 0, _holds_k2),
    ("trig", "r_trig", (2, 1), 0, _holds_k2),
    ("rational", "r_rational_tilde", (1, 2), 1, _holds_transfer),
    ("trig", "r_trig_tilde", (1, 2), 1, _holds_transfer),
], ids=["rational-r_rational", "trig-r_trig", "rational-r_rational_tilde",
        "trig-r_trig_tilde"])
def test_a_perturbed_factor_entry_fails_only_where_it_enters(
        chain_file, builder, pair, extra_site, hit):
    # the swap entries of one two-site factor are scaled by 98/97: on the chain
    # itself for K_i and the covectors, on the chain with the auxiliary site
    # for T(x).  r_factor looks its builders up when called, so the chain
    # folds build the perturbed factor; the R-level checks work on 2 or 3
    # sites and do not
    rc = cli.load_config(Path(__file__).parent / "data" / f"{chain_file}.cfg")
    sites = rc.model.n + extra_site
    build = getattr(rmatrix, builder)

    def perturbed(space, i, j, point, coupling, *rest):
        R = build(space, i, j, point, coupling, *rest)
        if (i, j) != pair or space.n != sites:
            return R
        return ChainOperator.from_entries(space, [
            (r, c, v if r == c else v * Fraction(98, 97)) for r, c, v in R.entries()])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmatrix, builder, perturbed)
        results = cli.run(rc).results
    assert any(hit(res) for res in results)
    for res in results:
        if hit(res):
            assert not res.passed and res.residual > 0, (res.name, res.params)
        else:
            assert res.passed, (res.name, res.sector, res.params)
