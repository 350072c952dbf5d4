import collections
import functools
import gc
import itertools
import operator
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzbench import chain, cli, rmatrix
from qkzbench.chain import (
    ModelConfig,
    _chain_factors,
    _fresh_points,
    check_transfer_commute,
    hamiltonian,
    hamiltonian_prefactor,
    hamiltonian_sum,
    pole_expansion,
    qkz_compatibility,
    qkz_covector_numerators,
    qkz_operator,
    sum_rule,
    transfer_matrix,
    twist_energy,
    weight_diagonal,
)
from qkzbench.errors import (
    BadSite,
    GenericPositionViolation,
    PoleHit,
)
from qkzbench.rmatrix import r_factor, sinh_ratio_down
from qkzbench.scalars import to_double
from qkzbench.tensor import (
    ChainOperator,
    Space,
    all_sectors,
    site_embed,
    split,
    weight_of,
)
from references import site_embed_reference, state_diagonal_reference

ETA = Fraction(1, 2)
HBAR = Fraction(1, 3)
X3 = (Fraction(0), Fraction(2, 5), Fraction(9, 7))
X4 = X3 + (Fraction(-3, 4),)
G2 = (Fraction(2), Fraction(3))


def rational_cfg(n=3, x=X3):
    return ModelConfig.rational(2, n, ETA, HBAR, x[:n], G2)


def trig_cfg(n=3):
    u = (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 5))[:n]
    return ModelConfig.trigonometric(2, n, Fraction(2), Fraction(5, 4), u, G2)


# ------------------------------------------------------------------- configs

def test_validate_rejects_coinciding_positions():
    with pytest.raises(GenericPositionViolation):
        ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(1), Fraction(1)), G2)


def test_validate_rejects_eta_separated_positions():
    with pytest.raises(GenericPositionViolation, match="eta"):
        ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(0), ETA), G2)
    with pytest.raises(GenericPositionViolation, match="eta"):
        ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(0), -ETA), G2)


def test_validate_rejects_zero_eta_and_twist():
    with pytest.raises(GenericPositionViolation):
        ModelConfig.rational(2, 2, Fraction(0), HBAR, (Fraction(0), Fraction(1)), G2)
    with pytest.raises(GenericPositionViolation):
        ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(0), Fraction(1)),
                             (Fraction(0), Fraction(3)))


def test_validate_trig_collisions():
    t, h = Fraction(2), Fraction(5, 4)
    with pytest.raises(GenericPositionViolation):
        ModelConfig.trigonometric(2, 2, t, h, (Fraction(1), Fraction(-1)), G2)
    with pytest.raises(GenericPositionViolation):
        ModelConfig.trigonometric(2, 2, t, h, (Fraction(1), Fraction(2)), G2)
    with pytest.raises(GenericPositionViolation):
        ModelConfig.trigonometric(2, 2, Fraction(1), h, (Fraction(1), Fraction(3)), G2)


def _hand_written_rejects(flavor, coupling, step, points):
    """The pole conditions as they were written out per flavor before
    validate read them through ModelConfig.sinh, coupled and relative.  For
    i < j the shifted factors R_ij and R_ji meet x_i - x_j - eta*hbar and
    its negative, so that difference must not be +-eta either."""
    n = len(points)
    if flavor == chain.RATIONAL:
        eta, x = coupling, points
        if eta == 0:
            return True
        for i in range(n):
            for j in range(i + 1, n):
                d = x[i] - x[j]
                if d == 0 or d == eta or d == -eta:
                    return True
                if d - eta * step in (eta, -eta):
                    return True
        return False
    t, h, u = coupling, step, points
    if t == 0 or h == 0 or t * t == 1 or any(ui == 0 for ui in u):
        return True
    for i in range(n):
        for j in range(i + 1, n):
            ui2, uj2 = u[i] * u[i], u[j] * u[j]
            if ui2 == uj2 or ui2 * t * t == uj2 or uj2 * t * t == ui2:
                return True
            if ui2 * t * t == uj2 * h * h or uj2 * h * h * t * t == ui2:
                return True
    return False


_POOL = tuple(Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3))
# a move puts a point on a pole of the pair it forms with an earlier one,
# unshifted or shifted by the qKZ step; the points are permuted afterwards,
# so both orders of the pair occur
_MOVES = {chain.RATIONAL: (lambda p, eta, s: p, lambda p, eta, s: p + eta,
                           lambda p, eta, s: p - eta,
                           lambda p, eta, s: p + eta * s + eta,
                           lambda p, eta, s: p + eta * s - eta),
          chain.TRIGONOMETRIC: (lambda p, t, h: p, lambda p, t, h: -p,
                                lambda p, t, h: p * t, lambda p, t, h: -p * t,
                                lambda p, t, h: p * h * t,
                                lambda p, t, h: -p * h / t if t else p)}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_validate_matches_the_hand_written_pole_conditions(data):
    flavor = data.draw(st.sampled_from(sorted(chain.PARAMETERS)))
    coupling = data.draw(st.sampled_from(_POOL))
    step = data.draw(st.sampled_from((Fraction(0), HBAR, Fraction(5, 4))))
    points = [data.draw(st.sampled_from(_POOL))]
    for _ in range(data.draw(st.integers(1, 3))):
        move = data.draw(st.sampled_from((None,) + _MOVES[flavor]))
        points.append(data.draw(st.sampled_from(_POOL)) if move is None
                      else move(data.draw(st.sampled_from(points)), coupling, step))
    points = data.draw(st.permutations(points))
    try:
        ModelConfig.build(flavor, 2, len(points), coupling, step, points, G2)
        rejected = False
    except GenericPositionViolation:
        rejected = True
    assert rejected == _hand_written_rejects(flavor, coupling, step, points)


def test_config_holds_one_parameter_triple():
    assert list(ModelConfig.FIELDS) == [
        "flavor", "N", "n", "g", "coupling", "step", "points"]
    cfg = rational_cfg()
    assert (cfg.coupling, cfg.step, cfg.points) == (ETA, HBAR, X3)
    # a rational chain has nowhere to keep a trigonometric parameter
    with pytest.raises(TypeError):
        cfg.replace(t=Fraction(2))
    # and its fields stay as built
    with pytest.raises(AttributeError):
        cfg.step = Fraction(1)
    with pytest.raises(AttributeError):
        del cfg.points


@pytest.mark.parametrize("v", [Fraction(3), Fraction(-2, 5), Fraction(7, 3)])
def test_sinh_of_coupled_over_sinh_is_the_tilde_ratio(v):
    trig, rat = trig_cfg(), rational_cfg()
    assert (trig.sinh(trig.coupled(v)) / trig.sinh(v)
            == sinh_ratio_down(v, trig.coupling))
    assert rat.sinh(rat.coupled(v)) / rat.sinh(v) == (v + ETA) / v


# ----------------------------------------------------------------- operators

def test_single_site_connection_is_twist():
    cfg = ModelConfig.rational(2, 1, ETA, HBAR, (Fraction(0),), G2)
    sp = cfg.space()
    g_op = site_embed(sp, cfg.twist_table(), 1)
    assert qkz_operator(cfg, 1) == g_op
    assert hamiltonian(cfg, 1) == g_op


def test_connection_respects_weight_sectors():
    cfg = rational_cfg()
    K = qkz_operator(cfg.at_hbar_zero(), 2)
    for M in all_sectors(2, 3):
        K.restrict(M)  # must not raise


def _assert_proportional_with_the_memo_warm(cfg):
    """H_i = hamiltonian_prefactor * K_i^(0) for every site of a fresh
    config, each H_i built after K_i and K_i^(0) have put their factors in
    the memo.  At hbar = 0 every R_ij of K_i^(0) sits at the argument of the
    R~_ij of H_i, so an H_i that read a memoized factor would be K_i^(0)
    itself."""
    cfg0 = cfg.at_hbar_zero()
    for i in range(1, cfg.n + 1):
        qkz_operator(cfg, i)
        K0 = qkz_operator(cfg0, i)
        H = hamiltonian(cfg, i)
        assert H == K0.scaled(hamiltonian_prefactor(cfg, i)) and H != K0


def test_proportionality_between_h_and_k0():
    for n in (3, 4):
        _assert_proportional_with_the_memo_warm(rational_cfg(n, X4))


def test_trig_proportionality_between_h_and_k0():
    for n in (3, 4):
        _assert_proportional_with_the_memo_warm(trig_cfg(n))


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_conserved_family_commutes(make):
    cfg = make()
    hams = [hamiltonian(cfg, i) for i in (1, 2, 3)]
    weights = [state_diagonal_reference(cfg.space(), lambda J, a=a: J.count(a))
               for a in (1, 2)]
    for A, B in itertools.combinations(hams + weights, 2):
        assert A @ B == B @ A


def test_weight_diagonal_basics():
    cfg = rational_cfg()
    sp = cfg.space()
    total = weight_diagonal(cfg, sum)
    assert total == ChainOperator.identity(sp).scaled(Fraction(3))
    M1 = weight_diagonal(cfg, lambda M: M[0])
    assert M1 == state_diagonal_reference(sp, lambda J: J.count(1))
    k = sp.index_of((1, 1, 2))
    assert M1.entry(k, k) == 2
    # on one sector a function of the weight is a scaled identity
    assert M1.restrict((2, 1)) == ChainOperator.identity(Space(2, 3, (2, 1))).scaled(2)


def test_weight_diagonal_calls_value_once_per_weight():
    u = (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 5), Fraction(11, 4),
         Fraction(13, 7))
    cfg = ModelConfig.trigonometric(2, 6, Fraction(2), Fraction(5, 4), u, G2)
    calls = []
    op = weight_diagonal(cfg, lambda M: calls.append(M) or M[0] - M[1])
    assert len(calls) == 7 and set(calls) == set(all_sectors(2, 6))
    assert op == state_diagonal_reference(cfg.space(), lambda J: J.count(1) - J.count(2))


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_twist_energy_is_the_sinh_sum(make):
    # sum_a g_a sinh(eta M_a) / sinh(eta): sum_a g_a M_a on the rational
    # flavor, sum_a g_a (t^M_a - t^-M_a) / (t - 1/t) on the trigonometric
    cfg = make()
    t = cfg.coupling
    for M in all_sectors(2, 3):
        want = (sum(g * m for g, m in zip(cfg.g, M)) if cfg.is_rational else
                sum(g * (t**m - t**-m) / (t - 1 / t) for g, m in zip(cfg.g, M)))
        assert twist_energy(cfg, M) == want


# ------------------------------------------------------------ transfer matrix

def test_transfer_matrix_single_site_oracle():
    # hand-derived: T(x) = tr(g) I + eta g^(1) / (x - x_1)
    cfg = ModelConfig.rational(2, 1, ETA, HBAR, (Fraction(1, 4),), G2)
    sp = cfg.space()
    x0 = Fraction(3)
    expect = ChainOperator.identity(sp).scaled(Fraction(5)) + site_embed(
        sp, cfg.twist_table(), 1
    ).scaled(ETA / (x0 - Fraction(1, 4)))
    assert transfer_matrix(cfg, x0) == expect


def test_transfer_matrices_commute():
    cfg = rational_cfg()
    t1 = transfer_matrix(cfg, Fraction(3))
    t2 = transfer_matrix(cfg, Fraction(-7, 2))
    assert t1 @ t2 == t2 @ t1


def test_transfer_matrix_pole():
    cfg = rational_cfg()
    with pytest.raises(PoleHit):
        transfer_matrix(cfg, cfg.points[1])


def test_transfer_constant_term_is_twist_trace():
    # subtracting the residue sum leaves tr(g) I at any regular point
    cfg = rational_cfg(n=2, x=(Fraction(0), Fraction(2, 5)))
    sp = cfg.space()
    hams = [hamiltonian(cfg, i) for i in (1, 2)]
    for x0 in (Fraction(10**3), Fraction(10**6)):
        rest = transfer_matrix(cfg, x0)
        for j, H in enumerate(hams):
            rest = rest - H.scaled(ETA / (x0 - cfg.points[j]))
        assert rest == ChainOperator.identity(sp).scaled(Fraction(5))


def test_pole_expansion_rational():
    r = pole_expansion(rational_cfg(n=2, x=(Fraction(0), Fraction(2, 5))))
    assert r.passed and r.residual == 0 and r.witness is None


def test_pole_expansion_trig_boundary_values():
    # C = T(x) - sinh(eta) sum_k H_k coth(x - x_k) at one point; its values
    # at x -> +-infinity are sum_a g_a t^{+-M_a}
    cfg = trig_cfg(n=2)
    hams = [hamiltonian(cfg, i) for i in (1, 2)]
    sh = (cfg.coupling - 1 / cfg.coupling) / 2
    x0 = Fraction(5)
    const = transfer_matrix(cfg, x0)
    for u, H in zip(cfg.points, hams):
        v = x0 / u
        const = const - H.scaled(sh * (v * v + 1) / (v * v - 1))
    total = hams[0] + hams[1]
    t = cfg.coupling
    for sign in (1, -1):
        expect = state_diagonal_reference(cfg.space(), lambda J: sum(
            g * t ** (sign * J.count(a)) for a, g in enumerate(cfg.g, start=1)))
        assert const + total.scaled(sign * sh) == expect
    r = pole_expansion(cfg)
    assert r.passed and r.residual == 0


def _reference_transfer(cfg, x0):
    """T(x0) from the N x N monodromy: R~_{0k}(x0 - x_k) as an N x N matrix
    of one-site chain operators, multiplied over k = n, ..., 1 and traced
    against the twist."""
    space, N = cfg.space(), cfg.N
    x0 = Fraction(x0)
    ident = ChainOperator.identity(space)

    def aux(k):
        out = {}
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                if cfg.is_rational:
                    coef = cfg.coupling / (x0 - cfg.points[k - 1])
                else:
                    t = cfg.coupling
                    w = 1 if a == b else (t if a > b else 1 / t)
                    coef = sinh_ratio_down(x0 / cfg.points[k - 1], t) - w
                op = site_embed_reference(space, {(b, a): coef}, k)
                out[(a, b)] = op + ident if a == b else op
        return out

    mono = aux(cfg.n)
    for k in range(cfg.n - 1, 0, -1):
        nxt = aux(k)
        mono = {(a, b): functools.reduce(operator.add, (
            mono[(a, c)] @ nxt[(c, b)] for c in range(1, N + 1)))
            for a in range(1, N + 1) for b in range(1, N + 1)}
    return functools.reduce(operator.add, (
        mono[(a, a)].scaled(cfg.g[a - 1]) for a in range(1, N + 1)))


def _transfer_configs():
    g3 = (Fraction(2), Fraction(3), Fraction(5))
    u4 = (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(5, 2))
    return [
        rational_cfg(),
        ModelConfig.rational(3, 3, ETA, HBAR, X3, g3),
        ModelConfig.trigonometric(2, 4, Fraction(2), Fraction(5, 4), u4, G2),
        ModelConfig.trigonometric(3, 3, Fraction(2), Fraction(5, 4), u4[:3], g3),
    ]


TRANSFER_IDS = ["rational23", "rational33", "trig24", "trig33"]


@pytest.mark.parametrize("cfg", _transfer_configs(), ids=TRANSFER_IDS)
def test_transfer_matrix_equals_monodromy_reference(cfg):
    for x0 in _fresh_points(cfg, 3):
        got, want = transfer_matrix(cfg, x0), _reference_transfer(cfg, x0)
        assert (got.rows, got.den) == (want.rows, want.den), x0
        assert got.space == cfg.space()


@pytest.mark.parametrize("cfg", _transfer_configs(), ids=TRANSFER_IDS)
def test_transfer_matrix_equals_monodromy_reference_in_floats(cfg):
    # a float-mode run reads the exact T(x) too; the doubles of its entries
    # are those of the exact reference, entry by entry, at points off the
    # sample grid as well
    for x0 in _fresh_points(cfg, 3) + [Fraction(-11, 4), Fraction(23, 6)]:
        got, want = (
            {(r, c): to_double(v) for r, c, v in op.entries()}
            for op in (transfer_matrix(cfg, x0), _reference_transfer(cfg, x0)))
        assert got == want, x0


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_transfer_matrix_at_eta_separated_point(make):
    # x0 - x_1 = eta (u0 = u_1 t) would fail validation of a chain site, but
    # it is no pole of R~, so T is defined there
    cfg = make()
    x0 = cfg.coupled(cfg.points[0])
    got, want = transfer_matrix(cfg, x0), _reference_transfer(cfg, x0)
    assert (got.rows, got.den) == (want.rows, want.den)


def _is_basis_pair(cfg, witness):
    return len(witness) == 2 and set(witness) <= set(cfg.space().states)


def _perturb_h2(monkeypatch):
    """chain.hamiltonian patched so that one entry of H_2 moves by 1/den."""
    build = chain.hamiltonian

    def perturbed(cfg, i):
        H = build(cfg, i)
        if i != 2:
            return H
        r = next(iter(H.rows))
        c = next(iter(H.rows[r]))
        rows = dict(H.rows)
        rows[r] = {**H.rows[r], c: H.rows[r][c] + 1}
        return ChainOperator(H.space, rows, H.den)

    monkeypatch.setattr(chain, "hamiltonian", perturbed)


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_pole_expansion_fails_on_a_perturbed_hamiltonian(make, monkeypatch):
    _perturb_h2(monkeypatch)
    cfg = make()
    r = pole_expansion(cfg)
    assert not r.passed and r.residual > 0
    assert _is_basis_pair(cfg, r.witness)


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_transfer_commute_fails_on_a_perturbed_transfer_matrix(make, monkeypatch):
    # T(x) + x E_12 at site 1
    build = chain.transfer_matrix
    monkeypatch.setattr(chain, "transfer_matrix", lambda cfg, x: build(cfg, x)
                        + site_embed_reference(cfg.space(), {(1, 2): x}, 1))
    cfg = make()
    r = check_transfer_commute(cfg)
    assert not r.passed and r.residual > 0
    assert _is_basis_pair(cfg, r.witness)


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_transfer_commute_check(make):
    assert check_transfer_commute(make()).passed


def test_transfer_commute_at_random_pairs():
    import random

    rng = random.Random(23)
    cfg = rational_cfg()
    pairs = []
    while len(pairs) < 5:
        p = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        if all(p != xj and q != xj for xj in cfg.points) and p != q:
            pairs.append((p, q))
    for p, q in pairs:
        tp, tq = transfer_matrix(cfg, p), transfer_matrix(cfg, q)
        assert tp @ tq == tq @ tp


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_everything_is_block_diagonal(make):
    # K_i, H_i and T(x) all respect the weight decomposition
    cfg = make()
    ops = [qkz_operator(cfg, i) for i in (1, 2)]
    ops.append(hamiltonian(cfg, 3))
    ops.append(transfer_matrix(cfg, Fraction(4)))
    for op in ops:
        for M in all_sectors(2, 3):
            op.restrict(M)  # must not raise


# -------------------------------------------------------------- sum rules

def test_sum_rule_rational():
    r = sum_rule(rational_cfg())
    assert r.passed and r.residual == 0


def test_sum_rule_trig():
    r = sum_rule(trig_cfg())
    assert r.passed and r.residual == 0


def test_sum_rule_single_site():
    cfg = ModelConfig.rational(2, 1, ETA, HBAR, (Fraction(0),), G2)
    assert sum_rule(cfg).passed


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_sum_rule_fails_on_a_moved_twist_energy(make, monkeypatch):
    # the energy of the weight (2, 1) moves by 1/97: the sum rule fails by
    # exactly that, at a diagonal pair of a state of that weight
    energy = chain.twist_energy
    monkeypatch.setattr(chain, "twist_energy", lambda cfg, M: energy(cfg, M) + (
        Fraction(1, 97) if M == (2, 1) else 0))
    cfg = make()
    r = sum_rule(cfg)
    assert not r.passed and r.residual == Fraction(1, 97)
    J, K = r.witness
    assert J == K and weight_of(J, cfg.N) == (2, 1)


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_sum_rule_fails_on_a_perturbed_hamiltonian(make, monkeypatch):
    _perturb_h2(monkeypatch)
    cfg = make()
    r = sum_rule(cfg)
    assert not r.passed and r.residual > 0
    assert _is_basis_pair(cfg, r.witness)


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_hamiltonian_sum_is_built_once(make):
    # sum-rule, the trigonometric boundary relations of pole-expansion and
    # the trigonometric macdonald-eigenvalue read one sum per config
    cfg = make()
    total = hamiltonian_sum(cfg)
    assert total is hamiltonian_sum(cfg)
    want = hamiltonian(cfg, 1)
    for i in range(2, cfg.n + 1):
        want = want + hamiltonian(cfg, i)
    assert total.rows == want.rows and total.den == want.den
    assert hamiltonian_sum(cfg.replace()) is not total


def test_sum_rule_on_top_sector():
    # on the single-state sector (n, 0) both sides are the same multiple of 1
    cfg = trig_cfg(n=2)
    lhs = (hamiltonian(cfg, 1) + hamiltonian(cfg, 2)).restrict((2, 0))
    t = cfg.coupling
    scalar = cfg.g[0] * (t**2 - t**-2) / (t - 1 / t)
    sub = Space(2, 2, (2, 0))
    assert lhs == ChainOperator.identity(sub).scaled(scalar)


# ---------------------------------------------------------------- qKZ system

def test_qkz_compatibility_rational():
    cfg = rational_cfg(n=2, x=(Fraction(0), Fraction(2, 5)))
    assert qkz_compatibility(cfg, 1, 2).passed


def test_qkz_compatibility_at_hbar_zero():
    cfg = rational_cfg().at_hbar_zero()
    for i, j in itertools.combinations((1, 2, 3), 2):
        assert qkz_compatibility(cfg, i, j).passed


def test_qkz_compatibility_trig():
    cfg = trig_cfg()
    for i, j in itertools.combinations((1, 2, 3), 2):
        r = qkz_compatibility(cfg, i, j)
        assert r.passed and r.residual == 0


# x_2 - x_1 + eta*hbar = -eta with eta=1/2, hbar=1 puts K_2's shifted factor
# R_21 on the pole of R; ModelConfig.replace skips validate, which rejects it
SHIFTED_POLE = {"step": Fraction(1), "points": (Fraction(0), Fraction(-1))}


def test_shifted_argument_can_hit_pole():
    with pytest.raises(GenericPositionViolation,
                       match=r"sinh\(x_2 - x_1 \+ eta\*hbar \+ eta\) = 0"):
        ModelConfig.rational(2, 2, ETA, Fraction(1), (Fraction(0), Fraction(-1)), G2)
    # past validate, the builder's own guard still stops the factor
    cfg = rational_cfg(n=2).replace(**SHIFTED_POLE)
    with pytest.raises(PoleHit):
        qkz_operator(cfg, 2)


def test_validate_rejects_only_the_shifted_arguments_the_checks_build():
    # ROADMAP's trigonometric sweep config: u_1 / (u_2 h) * t = -1 puts R_12
    # of K_1 with site 2 shifted (qkz-compat) on the pole of R
    with pytest.raises(GenericPositionViolation,
                       match=r"sinh\(x_1 - x_2 - eta\*hbar \+ eta\) = 0"):
        ModelConfig.trigonometric(3, 3, Fraction(5, 9), Fraction(1, 3), (
            Fraction(-1), Fraction(-5, 3), Fraction(-17, 11)),
            (Fraction(2), Fraction(3), Fraction(5)))
    # trig24 has u_1 / u_4 * h * t = 1, but R_14 meets u_1 / u_4 / h only and
    # R_41 meets u_4 / u_1 * h, so the config stays valid and its checks pass
    cfg = _covector_configs()[2]
    assert cfg.points[0] / cfg.points[3] * cfg.step * cfg.coupling == 1
    for i, j in itertools.combinations(range(1, cfg.n + 1), 2):
        assert qkz_compatibility(cfg, i, j).passed


def test_equal_configs_hash_alike_and_build_their_own():
    a = rational_cfg()
    b = ModelConfig.rational(2, 3, Fraction(1, 2), Fraction(1, 3),
                             (Fraction(0), Fraction(2, 5), Fraction(9, 7)), G2)
    assert a is not b and a == b
    # the field tuple
    fields = tuple(getattr(a, name) for name in ModelConfig.FIELDS)
    assert hash(a) == hash(b) == hash(fields)
    # builds live on the config object, so equal configs build apart
    H = hamiltonian(a, 2)
    assert hamiltonian(a, 2) is H
    assert hamiltonian(b, 2) is not H and hamiltonian(b, 2) == H
    assert chain.memo(a, "probe", object) is not chain.memo(b, "probe", object)


# ------------------------------------------------------------ covector path

def _covector_configs():
    rational33 = ModelConfig.rational(3, 3, ETA, HBAR, X3,
                                      (Fraction(2), Fraction(3), Fraction(5)))
    trig24 = ModelConfig.trigonometric(
        2, 4, Fraction(2), Fraction(5, 4),
        (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(5, 2)), G2)
    return [rational33, rational33.at_hbar_zero(), trig24, trig24.at_hbar_zero()]


def _shift_sets(cfg, i):
    others = [s for s in range(1, cfg.n + 1) if s != i]
    return [()] + [(s,) for s in others] + [tuple(others)]


@pytest.mark.parametrize("cfg", _covector_configs(),
                         ids=["rational33", "rational33-hbar0", "trig24", "trig24-hbar0"])
def test_qkz_covector_equals_operator_product(cfg):
    # a covector with distinct entries, so no cancellation hides a wrong factor
    # the numerator fold is reduced, so it equals the split of the values
    sp = cfg.space()
    w = [Fraction((-1) ** k * (k + 1), k + 3) for k in range(sp.dim)]
    for i in range(1, cfg.n + 1):
        for S in _shift_sets(cfg, i):
            want = qkz_operator(cfg, i, S).apply_left(w)
            assert qkz_covector_numerators(cfg, split(w), i, S) == split(want), (i, S)
            left = qkz_covector_numerators(cfg, split(w), i, S, left_block=True)
            if i == 1:
                assert left == split(w)
                continue
            block = functools.reduce(operator.matmul, itertools.islice(
                _chain_factors(cfg, i, S, tilde=False), i - 1))
            assert left == split(block.apply_left(w)), (i, S)


def test_qkz_covector_rejects_bad_site_and_hits_poles():
    cfg = rational_cfg()
    w = ([1] * cfg.space().dim, 1)
    for i in (0, cfg.n + 1):
        with pytest.raises(BadSite):
            qkz_covector_numerators(cfg, w, i)
        with pytest.raises(BadSite):
            qkz_covector_numerators(cfg, w, i, left_block=True)
    # the pole of test_shifted_argument_can_hit_pole sits in the left block
    cfg = rational_cfg(n=2).replace(**SHIFTED_POLE)
    with pytest.raises(PoleHit):
        qkz_covector_numerators(cfg, ([1] * 4, 1), 2, left_block=True)


# ------------------------------------------------------------------ H_i memo

def test_hamiltonian_is_built_once_per_config_and_site():
    cfg = rational_cfg()
    assert hamiltonian(cfg, 2) is hamiltonian(cfg, 2)
    # an equal config built separately builds its own
    assert hamiltonian(rational_cfg(), 2) is not hamiltonian(cfg, 2)
    assert hamiltonian(cfg, 1) is not hamiltonian(cfg, 2)


def test_hamiltonian_memo_does_not_keep_its_config_alive():
    cfg = ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(7), Fraction(11)), G2)
    hamiltonian(cfg, 1)
    ref = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert ref() is None


# ------------------------------------------------------- qKZ factor memo

DATA = Path(__file__).parent / "data"
BUILDERS = ("r_rational", "r_rational_tilde", "r_trig", "r_trig_tilde")


def _count_builds(monkeypatch):
    """Counter of (builder, chain length, i, j, argument) over every call of
    an R builder from now on; r_factor looks the builders up when called."""
    builds = collections.Counter()
    for name in BUILDERS:
        def counted(space, i, j, point, coupling,
                    name=name, build=getattr(rmatrix, name)):
            builds[name, space.n, i, j, point] += 1
            return build(space, i, j, point, coupling)
        monkeypatch.setattr(rmatrix, name, counted)
    return builds


@pytest.mark.parametrize("name", ["trig", "rational", "trig-float", "rational-float"])
def test_a_full_verify_builds_each_factor_once(name, monkeypatch):
    builds = _count_builds(monkeypatch)
    results = cli.run(cli.load_config(DATA / f"{name}.cfg")).results
    assert results and all(r.passed for r in results)
    assert builds and set(builds.values()) == {1}


@pytest.mark.parametrize("name", ["trig", "rational"])
def test_a_full_verify_hashes_no_config(name, monkeypatch):
    # the memo is a dict on the config object, so no lookup hashes the config
    hashes = []
    field_hash = ModelConfig.__hash__
    monkeypatch.setattr(ModelConfig, "__hash__",
                        lambda cfg: hashes.append(cfg) or field_hash(cfg))
    results = cli.run(cli.load_config(DATA / f"{name}.cfg")).results
    assert results and all(r.passed for r in results)
    assert hashes == []


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_at_hbar_zero_is_one_object_per_config(make):
    cfg = make()
    cfg0 = cfg.at_hbar_zero()
    assert cfg.at_hbar_zero() is cfg0 and cfg0.at_hbar_zero() is cfg0
    assert make().at_hbar_zero() == cfg0 != cfg
    assert cfg0.step == (0 if cfg.is_rational else 1)
    assert cfg0.replace(step=cfg.step) == cfg


def test_factor_memo_is_shared_with_hbar_zero_and_outlives_a_collection(
        monkeypatch):
    builds = _count_builds(monkeypatch)
    cfg = rational_cfg()
    # an equal config builds its own factors and takes them along when it
    # dies; K_2 holds R_21 and R_23
    qkz_operator(rational_cfg(), 2)
    gc.collect()
    qkz_operator(cfg, 2)
    assert sum(builds.values()) == 4
    builds.clear()
    gc.collect()
    qkz_operator(cfg, 2)
    assert not builds
    # at hbar = 0 only the left block's R_21 moves its argument
    qkz_operator(cfg.at_hbar_zero(), 2)
    assert list(builds) == [("r_rational", 3, 2, 1, X3[1] - X3[0])]


def test_factor_memo_does_not_keep_its_config_alive():
    # every build, a factor under cfg.at_hbar_zero() or H_i under cfg, is
    # freed with the config object that made it
    class Build:
        pass

    cfg = ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(7), Fraction(17)), G2)
    qkz_operator(cfg, 2)
    hamiltonian(cfg, 1)
    cfg0 = cfg.at_hbar_zero()
    assert ("g", 2) in cfg0._builds and ("H", 1) in cfg._builds
    refs = [weakref.ref(c) for c in (cfg, cfg0)]
    refs += [weakref.ref(chain.memo(c, "probe", Build)) for c in (cfg, cfg0)]
    del cfg, cfg0
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def rational_step_off():
    return ModelConfig.rational(2, 3, ETA, 0, X3, G2)


def trig_step_off():
    u = trig_cfg().points
    return ModelConfig.trigonometric(2, 3, Fraction(2), Fraction(1), u, G2)


STEP_ON = [rational_cfg, trig_cfg]
ALL_STEPS = STEP_ON + [rational_step_off, trig_step_off]


def _qkz_passes(cfg):
    """(i, shifted sites) of every chain product qkz-compat forms: each K_i,
    and K_i with one other site shifted."""
    sites = range(1, cfg.n + 1)
    return [(i, S) for i in sites for S in [set()] + [{s} for s in sites if s != i]]


def _qkz_arguments(cfg, i, shifted):
    """(j, argument) of each R factor of K_i, in product order, written out:
    x_i - x_j + k eta hbar (u_i / u_j h^k) at k net qKZ steps, one for the
    place left of the twist and one for a shifted site i, less one for a
    shifted site j."""
    left = [(j, 1) for j in range(i - 1, 0, -1)]
    for j, k in left + [(j, 0) for j in range(cfg.n, i, -1)]:
        k += (i in shifted) - (j in shifted)
        p, q = cfg.points[i - 1], cfg.points[j - 1]
        yield j, (p - q + k * cfg.coupling * cfg.step if cfg.is_rational
                  else p / q * cfg.step ** k)


@pytest.mark.parametrize("make", ALL_STEPS)
def test_each_memoized_factor_is_a_fresh_build(make):
    # every factor of every chain product of qkz-compat is the build at its
    # written-out argument, and is read from the memo on the next pass
    cfg = make()
    space = cfg.space()
    for i, j in itertools.permutations(range(1, cfg.n + 1), 2):
        assert qkz_compatibility(cfg, i, j).passed
    kept = set()
    for i, shifted in _qkz_passes(cfg):
        factors = list(_chain_factors(cfg, i, shifted, False))
        assert all(F is G for F, G in zip(factors, _chain_factors(cfg, i, shifted, False)))
        kept.update(map(id, factors))
        twist = factors.pop(i - 1)
        fresh = site_embed(space, cfg.twist_table(), i)
        assert (twist.rows, twist.den) == (fresh.rows, fresh.den)
        for F, (j, arg) in zip(factors, _qkz_arguments(cfg, i, shifted), strict=True):
            fresh = r_factor(cfg.flavor, space, i, j, arg, cfg.coupling)
            assert (F.rows, F.den) == (fresh.rows, fresh.den), (i, j, shifted)
    # n twists, and each R_ij at two arguments with the step on: at k = 1
    # and 0 left of the twist (i > j), at 0 and -1 right of it (i < j); at
    # one with the step off
    steps = 2 if cfg.at_hbar_zero() is not cfg else 1
    assert len(kept) == cfg.n + steps * cfg.n * (cfg.n - 1)


@pytest.mark.parametrize("make", STEP_ON)
def test_factors_without_a_net_step_are_shared_with_hbar_zero(make):
    cfg = make()
    cfg0 = cfg.at_hbar_zero()
    for i in range(1, cfg.n + 1):
        zero = list(_chain_factors(cfg0, i, (), False))
        K = list(_chain_factors(cfg, i, (), False))
        # the twist and the factors right of it carry no step in K_i ...
        assert all(F is G for F, G in zip(K[i - 1:], zero[i - 1:], strict=True))
        for m, j in enumerate(range(i - 1, 0, -1)):
            # ... a factor left of it one step, undone when site j is shifted
            assert K[m] is not zero[m] and K[m] != zero[m]
            assert list(_chain_factors(cfg, i, {j}, False))[m] is zero[m]


@pytest.mark.parametrize("make", ALL_STEPS)
def test_a_factor_lookup_hit_forms_no_argument(make, monkeypatch):
    # a second pass of qkz-compat finds every factor again without forming
    # an argument, and builds nothing
    builds = _count_builds(monkeypatch)
    cfg = make()
    pairs = list(itertools.permutations(range(1, cfg.n + 1), 2))
    for i, j in pairs:
        assert qkz_compatibility(cfg, i, j).passed
    built, calls = sum(builds.values()), []
    for name in ("relative", "shifted"):
        monkeypatch.setattr(ModelConfig, name, lambda c, *a, f=getattr(ModelConfig, name):
                            calls.append(1) or f(c, *a))
    for i, j in pairs:
        assert qkz_compatibility(cfg, i, j).passed
    assert calls == [] and sum(builds.values()) == built


@pytest.mark.parametrize("make", STEP_ON)
def test_r_and_tilde_r_at_one_argument_are_distinct_entries(make):
    # at hbar = 0 the R_21 of K_2^(0) and the R~_21 of H_2 share an argument;
    # H_2 = prefactor * K_2^(0), whichever is built first
    for first in ("H", "K"):
        cfg0 = make().at_hbar_zero()
        space = cfg0.space()
        builds = {"H": lambda: hamiltonian(cfg0, 2), "K": lambda: qkz_operator(cfg0, 2)}
        ops = {first: builds[first]()}
        ops.update((name, build()) for name, build in builds.items() if name not in ops)
        assert ops["H"] == ops["K"].scaled(hamiltonian_prefactor(cfg0, 2)) != ops["K"]
        arg = X3[1] - X3[0] if cfg0.is_rational else cfg0.points[1] / cfg0.points[0]
        R = next(_chain_factors(cfg0, 2, (), False))
        tilde = next(_chain_factors(cfg0, 2, (), True))
        assert R == r_factor(cfg0.flavor, space, 2, 1, arg, cfg0.coupling) != tilde
        assert tilde == r_factor(cfg0.flavor, space, 2, 1, arg, cfg0.coupling, True)
        assert hamiltonian(cfg0, 2) is ops["H"]


@pytest.mark.parametrize("make", [rational_cfg, trig_cfg])
def test_transfer_matrix_is_built_once_per_config_and_point(make, monkeypatch):
    cfg = make()
    x0 = Fraction(11, 5)
    T = transfer_matrix(cfg, x0)
    assert transfer_matrix(cfg, x0) is T
    # an equal config builds its own
    fresh = transfer_matrix(make(), x0)
    assert fresh is not T and fresh == T
    assert (fresh.rows, fresh.den) == (T.rows, T.den)
    # transfer-commute samples the first four points of pole-expansion, so a
    # fresh config that runs both builds T(x) at n + 1 points
    builds = []
    product = chain._chain_product
    monkeypatch.setattr(chain, "_chain_product",
                        lambda c, *a, **k: builds.append(c.n) or product(c, *a, **k))
    cfg = make()
    assert check_transfer_commute(cfg).passed and pole_expansion(cfg).passed
    assert builds.count(cfg.n + 1) == cfg.n + 1


def test_transfer_memo_does_not_keep_its_config_alive():
    cfg = ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(7), Fraction(13)), G2)
    transfer_matrix(cfg, Fraction(3))
    ref = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert ref() is None
