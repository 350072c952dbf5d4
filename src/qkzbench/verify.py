"""The identity suite: covector lemmas, higher-operator projections, the
operator determinant identity and its symmetric-function consequences.

Every check returns a CheckResult with an exact residual (0 on pass).  Checks never assume what they are supposed to prove: the
determinant and symmetric-function checks first assert that the Hamiltonians
commute, because the principal-minor expansion of an operator-valued
determinant holds only for commuting entries.

The covector checks keep each covector a (numerators, den) pair, from the
flavor covector (split once per config) through every push to the
comparison, which forms a Fraction only at an entry that differs.

On a weight sector the determinant, symmetric-function and eigenvalue checks
read one operator sum per degree d, det_sums[d] = (-1)^d sum_{|S|=d} det(C_SS)
H_S over the ordered products H_S of the restricted Hamiltonians.  One
level-by-level pass per config and sector stores those sums (SectorSums) and
the commutator residual of its level-2 products, and no H_S outlives it; the
minors det(C_SS) are computed once per config.  The scalars they are
compared with, e_0..e_n of the twist multiset and the Newton values of its
power sums, are computed once per config and sector too (twist_side), with
the targets and their e_0..e_n that the correspondence reads.  The
determinant identity is compared coefficient by coefficient in z on the
stored sums.  The rational
Macdonald weights are the same minors in closed form (Cauchy's determinant),
so the symmetric-function check compares them as scalars, subset by subset.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .chain import (hamiltonian_sum, memo, qkz_covector_numerators,
                    sector_hamiltonians, twist_energy)
from .errors import FlavorMismatch, PoleHit
from .report import largest_residual, verdict
from .rmatrix import r_rational, r_trig
from .tensor import (
    ChainOperator,
    covector_residual,
    omega,
    omega_q,
    permutation,
    q_permutation,
    shared_space,
    split,
)

_RATIONAL_ARGS = (Fraction(3, 7), Fraction(-5, 3), Fraction(12, 5))
_TRIG_ARGS = (Fraction(5, 3), Fraction(7, 2), Fraction(2, 9))


def _flavor_covector(cfg):
    """<Omega| or <Omega_q| as a (numerators, den) pair, once per config."""
    return memo(cfg, "flavor covector", lambda: split(
        omega(cfg.space()) if cfg.is_rational
        else omega_q(cfg.space(), cfg.coupling)))


def check_omega_invariance(cfg):
    """Left-invariance of the projection covector.

    Rational: <Omega| R_ij(x) = <Omega| for every ordered pair.
    Trigonometric: <Omega_q| R_{i,i-1}(x) = <Omega_q| P_{i,i-1} for i = 2..n
    (and <Omega_q| is fixed by the deformed swaps P^t_{i,i-1}).  Cleared of
    denominators, both have degree 1 in x (or u^2), so the three fixed
    points, at most one a pole, prove them for every x.
    """
    space = cfg.space()
    w = _flavor_covector(cfg)

    def comparisons():
        if cfg.is_rational:
            eta = cfg.coupling
            for i in range(1, cfg.n + 1):
                for j in range(1, cfg.n + 1):
                    if i == j:
                        continue
                    yield covector_residual(
                        permutation(space, i, j).push_left(*w), w, space)
                    for x in _RATIONAL_ARGS:
                        if x + eta == 0:
                            continue
                        R = r_rational(space, i, j, x, eta)
                        yield covector_residual(R.push_left(*w), w, space)
        else:
            t = cfg.coupling
            for i in range(2, cfg.n + 1):
                pq = q_permutation(space, i, i - 1, t)
                yield covector_residual(pq.push_left(*w), w, space)
                target = permutation(space, i, i - 1).push_left(*w)
                for u in _TRIG_ARGS:
                    if u * u * t * t == 1:
                        continue
                    R = r_trig(space, i, i - 1, u, t)
                    yield covector_residual(R.push_left(*w), target, space)

    return verdict("omega", comparisons(), params={"flavor": cfg.flavor})


def check_k_projection(cfg, i):
    """<Omega| K_i with the qKZ step on equals <Omega| K_i with it off.

    Also verifies the intermediate step used in the proofs: the covector
    times the shifted left block equals the covector times the bare
    permutation product P_{i,i-1} ... P_{i1}.  The covector meets the
    factors of K_i one at a time; K_i itself is never formed.
    """
    space = cfg.space()
    w = _flavor_covector(cfg)
    lhs = qkz_covector_numerators(cfg, w, i)
    rhs = qkz_covector_numerators(cfg.at_hbar_zero(), w, i)
    comparisons = [covector_residual(lhs, rhs, space)]
    if i >= 2:
        left = qkz_covector_numerators(cfg, w, i, left_block=True)
        pprod = w
        for j in range(i - 1, 0, -1):
            pprod = permutation(space, i, j).push_left(*pprod)
        comparisons.append(covector_residual(left, pprod, space))
    return verdict("k-projection", comparisons, params={"i": i})


def _right_side(cfg0, w0, sites, right_sides):
    """w0 K^(0)_{s_1} ... K^(0)_{s_d} as a (numerators, den) pair: the right
    side of sites[:-1] pushed through K^(0)_{s_d}, kept in right_sides."""
    if not sites:
        return w0
    rhs = right_sides.get(sites)
    if rhs is None:
        prev = _right_side(cfg0, w0, sites[:-1], right_sides)
        rhs = right_sides[sites] = qkz_covector_numerators(cfg0, prev, sites[-1])
    return rhs


def check_proposition_higher(cfg, sites, right_sides=None):
    """Covector identity behind the higher-operator projection.

    For an ordered subset i_1 < ... < i_d, the covector times the nested
    shifted product K_{i_d}(shifts i_1..i_{d-1}) ... K_{i_2}(shift i_1) K_{i_1}
    equals the covector times K^(0)_{i_1} ... K^(0)_{i_d}.  This is the
    operator content from which the difference-operator eigenproblem follows
    for every qKZ solution, without constructing one.  Both sides push the
    covector through the R factors one at a time and never form a K_i; the
    covector stays a (numerators, den) pair through the comparison.

    The right side is a prefix fold: ``right_sides`` maps site tuples to
    right sides, and the one of ``sites`` is that of ``sites[:-1]`` (read
    from the map, or built into it first) pushed through K^(0)_{i_d}.  A
    caller that visits the subsets in size order with one map makes one
    right-side push per subset.
    """
    sites = tuple(sorted(set(int(s) for s in sites)))
    if not sites:
        raise ValueError("need a nonempty set of distinct sites")
    space = cfg.space()
    w0 = _flavor_covector(cfg)
    lhs = w0
    for pos in range(len(sites), 0, -1):
        lhs = qkz_covector_numerators(cfg, lhs, sites[pos - 1], sites[: pos - 1])
    rhs = _right_side(cfg.at_hbar_zero(), w0, sites,
                      {} if right_sides is None else right_sides)
    return verdict("proposition-higher", [covector_residual(
        lhs, rhs, space)], params={"sites": sites})


# --------------------------------------------------------- determinant layer

def _require_rational(cfg, what):
    if not cfg.is_rational:
        raise FlavorMismatch(f"{what} is defined for the rational flavor only")


class SectorSums:
    """The Hamiltonians restricted to one weight sector (``ops[i]`` is
    H_{i+1}, read from sector_hamiltonians) and the coefficients of their
    operator determinant.

    The constructor visits the sorted subsets S of the 0-based sites level
    by level, in itertools.combinations order, builds H_S = H_{S[:-1]} @
    H_{S[-1]} (left to right) from the previous level and drops that level.
    It keeps det_sums[k] = (-1)^k sum_{|S|=k} det(C_SS) H_S, with the minors
    of principal_minors.  At level 2 it also compares each H_a H_b (a < b)
    with H_b H_a and keeps the largest entry of the difference and its
    witness as ``commutator``.
    """

    def __init__(self, cfg, sector):
        self.space = shared_space(cfg.N, cfg.n, sector)
        self.ops = sector_hamiltonians(cfg, sector)
        self.identity = ChainOperator.identity(self.space)
        self.det_sums = []
        self.commutator = largest_residual(())  # no pairs below n = 2
        minors = principal_minors(cfg)
        level = {(): self.identity}
        for k in range(cfg.n + 1):
            if k:
                level = {S: level[S[:-1]] @ self.ops[S[-1]] if k > 1
                         else self.ops[S[0]]
                         for S in itertools.combinations(range(cfg.n), k)}
            if k == 2:
                self.commutator = largest_residual(
                    (P.residual(self.ops[b] @ self.ops[a])
                          for (a, b), P in level.items()))
            sign = (-1) ** k
            self.det_sums.append(ChainOperator.combination(
                [(sign * minors[S], P) for S, P in level.items()]))


def sector_sums(cfg, sector):
    """The SectorSums of cfg's Hamiltonians on a sector, built once per
    config and sector from their one restriction (sector_hamiltonians)."""
    key = tuple(sector)
    return memo(cfg, ("sector sums", key), lambda: SectorSums(cfg, key))


def elementary_symmetric(values, d):
    """[e_0, ..., e_d] of a list of scalars, by one pass of the standard
    recurrence."""
    e = [1] + [0] * d
    for v in values:
        for k in range(d, 0, -1):
            e[k] = e[k] + v * e[k - 1]
    return e


def elementary_from_power_sums(ps, d):
    """[e_0, ..., e_d] from power sums p_1..p_d via Newton's identities."""
    e = [1]
    for m in range(1, d + 1):
        s = 0
        for k in range(1, m + 1):
            s += (-1) ** (k - 1) * ps[k - 1] * e[m - k]
        e.append(s / m)
    return e


def twist_targets(cfg, sector):
    """The spectrum the classical Lax matrix must have on a weight sector.

    Rational: the twist multiset, g_a repeated M_a times.  Trigonometric:
    the multiplicative strings g_a t^{2 alpha - M_a + 1}, alpha = 0..M_a-1.
    """
    out = []
    for a, m in enumerate(sector):
        if cfg.is_rational:
            out.extend([cfg.g[a]] * m)
        else:
            t = cfg.coupling
            out.extend(cfg.g[a] * t ** (2 * alpha - m + 1) for alpha in range(m))
    return out


def twist_side(cfg, sector):
    """The scalar side of one weight sector, once per config and sector, as
    (targets, multiset, ps, newton): the targets (twist_targets), their
    e_0..e_n (on the rational flavor those of the twist multiset), the power
    sums p_k = sum_a M_a g_a^k for k = 1..n, and the e_0..e_n that Newton's
    identities give from them."""
    def build():
        targets = twist_targets(cfg, key)
        ps = [sum(m * g ** k for m, g in zip(key, cfg.g)) for k in range(1, cfg.n + 1)]
        return (targets, elementary_symmetric(targets, cfg.n), ps,
                elementary_from_power_sums(ps, cfg.n))

    key = tuple(sector)
    return memo(cfg, ("twist side", key), build)


def _eliminate(rows, m):
    """Gauss-Jordan elimination, in place, of an m x m nonsingular matrix
    given as m rows: each pivot row is divided by its pivot and cleared from
    every other row.  Returns the determinant."""
    det = 1
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pv = rows[col][col]
        det = det * pv
        rows[col] = [e / pv for e in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[col])]
    return det


def velocity_scale(cfg):
    """sinh(eta): eta, or (t - 1/t)/2 in exponential variables, exactly."""
    return cfg.sinh(cfg.coupling)


def lax_denominator(cfg, i, j):
    """sinh(x_i - x_j + eta), exactly."""
    den = cfg.sinh(cfg.coupled(cfg.relative(cfg.points[i - 1], cfg.points[j - 1])))
    if den == 0:
        raise PoleHit(f"Lax denominator vanishes at ({i}, {j})")
    return den


def principal_minors(cfg):
    """det(C_SS) for every sorted subset S of the 0-based sites, with
    C_ij = sinh(eta) / sinh(x_j - x_i + eta) from the scale and denominators
    of the Lax matrix.  Each minor is an elimination of its submatrix, once
    per config; symmetric-identity compares them with their Cauchy closed
    form, and the correspondence sums the Lax characteristic coefficients
    from them."""
    def build():
        C = [[velocity_scale(cfg) / lax_denominator(cfg, j + 1, i + 1)
              for j in range(cfg.n)] for i in range(cfg.n)]
        return {S: _eliminate([[C[i][j] for j in S] for i in S], len(S))
                for k in range(cfg.n + 1)
                for S in itertools.combinations(range(cfg.n), k)}

    return memo(cfg, "principal minors", build)


def check_det_identity(cfg, sector):
    """Operator determinant det(z d_ij - eta H_i / (x_j - x_i + eta)) on a
    weight sector against prod_a (z - g_a)^{M_a}, as polynomials in z.

    The matrix is z - D_H C with D_H = diag(H_1, ..., H_n), and its
    principal-minor expansion sum_k det_sums[k] z^{n-k} is legitimate because
    the sector Hamiltonians commute (the pass's commutator residual, read
    first).  Each stored coefficient det_sums[k] is compared with
    (-1)^k e_k of the twist multiset times the identity, so a failure names
    a basis pair.
    """
    _require_rational(cfg, "the determinant identity")
    table = sector_sums(cfg, sector)
    comparisons = [table.commutator]
    multiset = twist_side(cfg, sector)[1]
    for k, coeff in enumerate(table.det_sums):
        expect = (-1) ** k * multiset[k]
        comparisons.append(coeff.residual(table.identity.scaled(expect)))
    return verdict("det-identity", comparisons, sector=sector)


def _cauchy_weights(cfg, d):
    """(residual, witness) of each Cauchy weight w_S, |S| = d, against the
    principal minor det(C_SS), once per config and degree."""
    def compare(S):
        sh, pts = cfg.sinh(cfg.coupling), cfg.points
        weight = Fraction(1)
        for a, b in itertools.combinations(S, 2):
            diff = cfg.sinh(cfg.relative(pts[a], pts[b]))
            weight = weight / (1 - sh * sh / (diff * diff))
        return abs(weight - principal_minors(cfg)[S]), ("Cauchy weight", S)

    return memo(cfg, ("Cauchy weights", d), lambda: [
        compare(S) for S in itertools.combinations(range(cfg.n), d)])


def check_symmetric_identity(cfg, sector, d):
    """Cauchy-weighted Hamiltonian products against e_d of the twist power
    sums.

    The left side sum_{|S|=d} w_S H_S, w_S = prod_{a<b in S} (1 - sinh^2 eta /
    sinh^2(x_a - x_b))^{-1}, is (-1)^d det_sums[d], because w_S is the
    principal minor det(C_SS) of the Cauchy matrix; that scalar identity is
    checked for every S with |S| = d.  On a sector the right side is the
    scalar e_d evaluated from p_k = sum_a M_a g_a^k; for d <= 3 the explicit
    expansions in the power sums are cross-checked, and the multiset form
    e_d(g_1 x M_1, ...) must agree as well.  The left side is required to be
    that scalar times the identity, not merely to have the right trace.
    """
    _require_rational(cfg, "the symmetric-function identity")
    if not (1 <= d <= cfg.n):
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    table = sector_sums(cfg, sector)
    comparisons = [table.commutator]
    comparisons += _cauchy_weights(cfg, d)
    _, multiset, ps, newton = twist_side(cfg, sector)
    value = newton[d]

    comparisons.append((abs(value - multiset[d]), ("multiset form", d)))
    if d == 1:
        explicit = ps[0]
    elif d == 2:
        explicit = (ps[0] * ps[0] - ps[1]) / 2
    elif d == 3:
        explicit = ps[0] ** 3 / 6 - ps[1] * ps[0] / 2 + ps[2] / 3
    if d <= 3:
        comparisons.append((abs(value - explicit),
                            ("power-sum expansion", d)))

    comparisons.append(
        table.det_sums[d].residual(table.identity.scaled((-1) ** d * value)))
    return verdict("symmetric-identity", comparisons, sector=sector,
                   params={"d": d})


def check_macdonald_eigenvalue(cfg, sector, d):
    """Eigenvalue of the d-th difference operator on a weight sector.

    Rational: E_d = e_d of the twist multiset must equal the normalized trace
    of (-1)^d det_sums[d], the Cauchy-weighted product sum that
    symmetric-identity reads.
    For d = 1 it is cross-checked against twist_energy, sum_a g_a M_a.
    Trigonometric (d = 1 only): E = twist_energy, sum_a g_a sinh(eta
    M_a)/sinh(eta), cross-checked against the multiplicative-string sum
    sum_a sum_alpha g_a t^{2 alpha - M_a + 1}, against H_1 + ... + H_n.
    """
    comparisons = []
    if cfg.is_rational:
        if not (1 <= d <= cfg.n):
            raise ValueError(f"need 1 <= d <= n, got d={d}")
        energy = twist_side(cfg, sector)[1][d]
        if d == 1:
            comparisons.append((abs(energy - twist_energy(cfg, sector)),
                                "weighted twist sum"))
        sign = (-1) ** d
        lhs = sector_sums(cfg, sector).det_sums[d]
    else:
        if d != 1:
            raise FlavorMismatch(
                "only the first trigonometric eigenvalue is part of the suite"
            )
        energy = twist_energy(cfg, sector)
        strings = sum(twist_targets(cfg, sector))
        comparisons.append((abs(energy - strings), "string sum"))
        sign = 1
        lhs = hamiltonian_sum(cfg).restrict(sector)
    trace = sign * lhs.trace()
    comparisons.append((abs(trace - energy * lhs.space.dim), "sector trace"))
    return verdict("macdonald-eigenvalue", comparisons, sector=sector,
                   params={"d": d})
