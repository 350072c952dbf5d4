"""Composite spin-chain operators and their exact identities.

Everything here is built from chain products of two-site R-matrices around a
diagonal twist: the qKZ connection operators K_i (plain R-matrices, shifted
left block), the commuting Hamiltonians H_i (tilde R-matrices, no shifts),
the diagonals of a function of the weight (weight_diagonal), and the
transfer matrix T(x) whose pole expansion generates the H_i.  T(x) is the
H_1 product of the chain with one auxiliary site at x in front, traced over
that site.  A check that needs only a covector times K_i applies the
covector to the factors one at a time (qkz_covector_numerators) and never
forms K_i.
"""
from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .errors import BadSite, GenericPositionViolation
from .report import verdict
from .rmatrix import r_factor, sinh_exp
from .tensor import ChainOperator, shared_space, site_embed, weight_of

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"

# each flavor's (coupling, step, points) parameter names, in builder order:
# config keys, builder keywords and describe() keys; a config holds the values
# as its coupling, step and points fields
PARAMETERS = {RATIONAL: ("eta", "hbar", "x"), TRIGONOMETRIC: ("t", "h", "u")}


class ModelConfig:
    """Parameters of one inhomogeneous twisted chain.

    One triple serves both flavors: the coupling (eta, or t = e^{eta}), the
    qKZ step (hbar, or h = e^{eta*hbar}) and the spectral points (x_i, or
    u_i = e^{x_i}); the exponentials keep every trigonometric operator entry
    rational.  PARAMETERS names the triple for input and output only;
    relative, shifted, sinh, coupled and repeated hold each flavor's spectral
    convention, so that a formula both flavors share (a pole, a sinh ratio)
    is written once.  The twist g = diag(g_1, ..., g_N) is shared by both
    flavors.

    A config is immutable, equal to and hashed like another of its class by
    its FIELDS, and weak-referenceable; its builds (_hbar_off, _builds) are
    cached on the instance.  It is a plain class, not a dataclass, so that
    no command imports dataclasses and inspect at start-up.
    """

    FIELDS = ("flavor", "N", "n", "g", "coupling", "step", "points")

    def __init__(self, flavor, N, n, g, coupling, step, points):
        vars(self).update(flavor=flavor, N=N, n=n, g=g, coupling=coupling,
                          step=step, points=points)

    def __setattr__(self, name, *value):  # and, without a value, __delattr__
        raise AttributeError(f"cannot set or delete {name!r} of a frozen ModelConfig")

    __delattr__ = __setattr__

    def _fields(self):
        return tuple(getattr(self, f) for f in self.FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def replace(self, **changes):
        """A new config with some fields changed, not validated."""
        fields = dict(zip(self.FIELDS, self._fields()), **changes)
        return self.__class__(**fields)

    # ------------------------------------------------------------ builders
    @classmethod
    def build(cls, flavor, N, n, coupling, step, points, g):
        """A validated exact chain, its parameters in PARAMETERS order."""
        cfg = cls(flavor, int(N), int(n), tuple(map(Fraction, g)), Fraction(coupling),
                  Fraction(step), tuple(map(Fraction, points)))
        cfg.validate()
        return cfg

    @classmethod
    def rational(cls, N, n, eta, hbar, x, g):
        return cls.build(RATIONAL, N, n, eta, hbar, x, g)

    @classmethod
    def trigonometric(cls, N, n, t, h, u, g):
        return cls.build(TRIGONOMETRIC, N, n, t, h, u, g)

    @property
    def is_rational(self):
        return self.flavor == RATIONAL

    def relative(self, p, q):
        """The spectral argument of p against q: p - q, or p / q."""
        return p - q if self.is_rational else p / q

    def shifted(self, p):
        """The point p moved by the qKZ step: p + eta*hbar, or p * h."""
        return p + self.coupling * self.step if self.is_rational else p * self.step

    def sinh(self, v):
        """sinh of the spectral argument v: v itself (the rational flavor is
        the sinh x -> x limit), or sinh_exp(v) of v = e^x."""
        return v if self.is_rational else sinh_exp(v)

    def coupled(self, v):
        """The spectral argument v moved by the coupling: v + eta, or v * t."""
        return v + self.coupling if self.is_rational else v * self.coupling

    def repeated(self, m):
        """The spectral argument of the coupling taken m times: m * eta, or t^m."""
        return m * self.coupling if self.is_rational else self.coupling ** m

    def validate(self):
        """Generic-position and non-degeneracy requirements, checked eagerly:
        sinh(eta) != 0, and for every ordered pair i != j both
        sinh(x_i - x_j) != 0 (no pole of R~) and sinh(x_i - x_j + eta) != 0
        (no pole of R), read through sinh, coupled and relative; nor may R_ij
        meet its pole at x_i - x_j + eta*hbar (i > j, left of the twist in K_i)
        or x_i - x_j - eta*hbar (i < j, site j shifted, as in qkz-compat)."""
        if self.N < 1 or self.n < 1:
            raise GenericPositionViolation(f"need N, n >= 1, got N={self.N}, n={self.n}")
        if len(self.g) != self.N:
            raise GenericPositionViolation(f"twist needs {self.N} entries, got {len(self.g)}")
        for a, ga in enumerate(self.g, start=1):
            if ga == 0:
                raise GenericPositionViolation(f"twist entry g_{a} = 0")
        if len(self.points) != self.n:
            raise GenericPositionViolation(
                f"need {self.n} inhomogeneities, got {len(self.points)}")
        # exponentials vanish nowhere
        if not self.is_rational and 0 in (self.coupling, self.step, *self.points):
            raise GenericPositionViolation("t, h and every u_i must be nonzero")
        if self.sinh(self.coupling) == 0:
            raise GenericPositionViolation("sinh(eta) = 0")
        for i, p in enumerate(self.points, start=1):
            for j, q in enumerate(self.points, start=1):
                if i == j:
                    continue
                r = self.relative(p, q)
                if self.sinh(r) == 0:
                    raise GenericPositionViolation(f"sinh(x_{i} - x_{j}) = 0")
                if self.sinh(self.coupled(r)) == 0:
                    raise GenericPositionViolation(f"sinh(x_{i} - x_{j} + eta) = 0")
                r = self.shifted(r) if i > j else self.relative(p, self.shifted(q))
                if self.sinh(self.coupled(r)) == 0:
                    raise GenericPositionViolation(
                        f"sinh(x_{i} - x_{j} {'+' if i > j else '-'} eta*hbar + eta) = 0")

    def at_hbar_zero(self):
        """The same chain with the qKZ step switched off (K becomes K^(0)).

        One object per config, made on the first call; a chain whose step is
        off already is its own.  Both chains keep their twists and their qKZ
        factors with no net step in the memo of this object (_chain_factors)."""
        return self._hbar_off or self

    @functools.cached_property
    def _hbar_off(self):
        # None if the step is off already: a config holding itself would be
        # a reference cycle
        off = Fraction(0 if self.is_rational else 1)
        if self.step == off:
            return None
        return self.replace(step=off)

    @functools.cached_property
    def _builds(self):
        return {}

    def space(self):
        return shared_space(self.N, self.n)

    def twist_table(self):
        return {(a, a): ga for a, ga in enumerate(self.g, start=1)}

    def describe(self):
        """Plain-dict echo of the parameters (for reports)."""
        coupling, step, points = PARAMETERS[self.flavor]
        return {"flavor": self.flavor, "N": self.N, "n": self.n,
                "g": [str(v) for v in self.g],
                coupling: str(self.coupling), step: str(self.step),
                points: [str(v) for v in self.points]}


# --------------------------------------------------------------- chain builds

def memo(cfg, key, build):
    """build() for this config and key, called on the first request only.

    The builds are the chain factors of _chain_factors: the twists ("g", i)
    and the qKZ factors ("R", i, j) with no net step, under
    cfg.at_hbar_zero() so that cfg and its hbar = 0 copy share them, and the
    qKZ factors ("R", i, j, k) at k != 0 net steps, under cfg; H_i, their
    sum, T(x), the sector restrictions of the H_i and their sums, the
    principal minors and their integer form, the Cauchy weight comparisons,
    the twist side of each sector and the flavor covector.  A build lives as long as the config object
    that made it; equal configs build apart."""
    built = cfg._builds
    if key not in built:
        built[key] = build()
    return built[key]


def _chain_factors(cfg, i, shifted_sites, tilde):
    """The factors of the chain product around the twist at site i, in
    product order: R_{i,i-1} ... R_{i,1}, g_i, R_{i,n} ... R_{i,i+1}, each
    built (or read from the memo) when the iteration reaches it.

    A qKZ factor (not tilde) R_ij sits at the argument of point i against
    point j, each moved by the qKZ step if its site is shifted, and moved
    once more left of g_i: k = [left of g_i] + [i shifted] - [j shifted]
    net steps.  It is found in the memo by its sites and k alone, so a hit
    forms no argument; with the step off, k = 0 throughout.  The tilde
    factors carry no shift, and H_i and T(x) are memoized whole, so each of
    their R~ factors is built once and kept nowhere.
    """
    if not (1 <= i <= cfg.n):
        raise BadSite(f"site {i} outside 1..{cfg.n}")
    space = cfg.space()
    shifted = frozenset(shifted_sites)
    cfg0 = cfg.at_hbar_zero()

    def build(j, plus):
        p, q = cfg.points[i - 1], cfg.points[j - 1]
        arg = cfg.relative(cfg.shifted(p) if i in shifted else p,
                           cfg.shifted(q) if j in shifted else q)
        return r_factor(cfg.flavor, space, i, j, cfg.shifted(arg) if plus else arg,
                        cfg.coupling, tilde)

    def factor(j, plus):
        if tilde:
            return build(j, False)
        k = plus + (i in shifted) - (j in shifted) if cfg0 is not cfg else 0
        if k:
            return memo(cfg, ("R", i, j, k), lambda: build(j, plus))
        return memo(cfg0, ("R", i, j), lambda: build(j, plus))

    for j in range(i - 1, 0, -1):
        yield factor(j, True)
    yield memo(cfg0, ("g", i), lambda: site_embed(space, cfg.twist_table(), i))
    for j in range(cfg.n, i, -1):
        yield factor(j, False)


def _chain_product(cfg, i, shifted_sites, tilde):
    return functools.reduce(
        operator.matmul, _chain_factors(cfg, i, shifted_sites, tilde))


def qkz_operator(cfg, i, shifted_sites=()):
    """qKZ connection operator K_i, as one chain operator.

    The R factors to the left of the twist carry the extra eta*hbar shift;
    shifted_sites first replaces x_s -> x_s + eta*hbar (u_s -> u_s h) for the
    listed sites, which is how nested connection operators such as
    K_j(x_i + eta*hbar) are formed.  With hbar = 0 and no shifts this is the
    commuting Hamiltonian generator K_i^(0).  A check that needs only a
    covector times K_i uses qkz_covector_numerators, never this product.
    """
    return _chain_product(cfg, i, shifted_sites, tilde=False)


def qkz_covector_numerators(cfg, cov, i, shifted_sites=(), left_block=False):
    """The covector cov . K_i, applied one factor of K_i at a time.

    Equal to qkz_operator(cfg, i, shifted_sites).apply_left(cov) in exact
    arithmetic, without the N^n x N^n product.  With left_block, only the
    shifted R factors left of the twist are applied.  The covector is a
    (numerators, den) pair in and out, each push reduces it once
    (ChainOperator.push_left), and no Fraction is formed."""
    factors = _chain_factors(cfg, i, shifted_sites, tilde=False)
    for k, f in enumerate(factors):
        if left_block and k == i - 1:
            break
        cov = f.push_left(*cov)
    return cov


def hamiltonian(cfg, i):
    """Non-local Hamiltonian H_i: the tilde-R chain product around the twist.

    Proportional to K_i^(0) by the product of (x_i - x_j + eta)/(x_i - x_j)
    (sinh ratios in the trigonometric case).  Built once per config and
    site; the returned operator is shared, like every ChainOperator immutable.
    """
    return memo(cfg, ("H", i), lambda: _chain_product(cfg, i, frozenset(), tilde=True))


def sector_hamiltonians(cfg, sector):
    """[H_1, ..., H_n] restricted to one weight sector, once per config and
    sector: the determinant layer and the eigensolver read the same list."""
    sector = tuple(int(m) for m in sector)
    return memo(cfg, ("H on", sector), lambda: [
        hamiltonian(cfg, i).restrict(sector) for i in range(1, cfg.n + 1)])


def hamiltonian_sum(cfg):
    """H_1 + ... + H_n, built once per config."""
    return memo(cfg, "H sum", lambda: ChainOperator.combination(
        [(1, hamiltonian(cfg, i)) for i in range(1, cfg.n + 1)]))


def hamiltonian_prefactor(cfg, i):
    """The scalar relating H_i to K_i^(0): the product over j != i of
    sinh(r + eta) / sinh(r), r the argument of site i against site j."""
    f = Fraction(1)
    p = cfg.points[i - 1]
    for j, q in enumerate(cfg.points, start=1):
        if j != i:
            r = cfg.relative(p, q)
            f = f * cfg.sinh(cfg.coupled(r)) / cfg.sinh(r)
    return f


def weight_diagonal(cfg, value):
    """The diagonal operator with value(M) at every basis state of weight M;
    value is called once per weight."""
    space = cfg.space()
    weights = [weight_of(J, cfg.N) for J in space.states]
    values = {M: value(M) for M in dict.fromkeys(weights)}
    return ChainOperator.diagonal(space, map(values.get, weights))


def twist_energy(cfg, weight):
    """E_1 = sum_a g_a sinh(eta M_a) / sinh(eta) at the weight (M_1, ...,
    M_N), read through repeated and sinh: sum_a g_a M_a on the rational
    flavor.  The right side of the sum rule and the first Ruijsenaars
    eigenvalue of the sector."""
    return sum(g * cfg.sinh(cfg.repeated(m))
               for g, m in zip(cfg.g, weight)) / cfg.sinh(cfg.coupling)


# ------------------------------------------------------------ transfer matrix

def transfer_matrix(cfg, x0):
    """T(x0) = tr_0 g_0 R~_{0n}(x0 - x_n) ... R~_{01}(x0 - x_1).

    The auxiliary space 0 is one more site in front of the chain, at x0 (its
    exponential in the trigonometric flavor): the monodromy is the chain
    product of H_1 on that longer chain, and T(x0) its partial trace over
    site 1.  The longer chain is not validated, because x0 - x_j = +-eta is no
    pole of R~.  Built once per config and point.
    """
    x0 = Fraction(x0)
    ext = cfg.replace(n=cfg.n + 1, points=(x0,) + cfg.points)
    return memo(cfg, ("T", x0),
                lambda: _chain_product(ext, 1, (), tilde=True).trace_first_site())


def _fresh_points(cfg, count):
    """Deterministic spectral sample points avoiding all poles of T."""
    pts = []
    k = 0
    while len(pts) < count:
        c = Fraction(17 + 29 * k, 13)
        k += 1
        if all(cfg.sinh(cfg.relative(c, p)) != 0 for p in cfg.points):
            pts.append(c)
    return pts


def _expansion_residuals(cfg, pts):
    """T(x) against its pole expansion at each sample, then (trigonometric
    flavor) the two boundary values."""
    space = cfg.space()
    hams = [hamiltonian(cfg, i) for i in range(1, cfg.n + 1)]
    if cfg.is_rational:
        eta, x, trace_g = cfg.coupling, cfg.points, sum(cfg.g)
        identity = ChainOperator.identity(space)
        for s in pts:
            rhs = ChainOperator.combination(
                [(trace_g, identity)] + [(eta / (s - xj), H) for xj, H in zip(x, hams)])
            yield transfer_matrix(cfg, s).residual(rhs)
        return

    t, u = cfg.coupling, cfg.points
    sh = sinh_exp(t)

    def coth_sum(u0):
        vs = [u0 / uk for uk in u]
        return ChainOperator.combination(
            [(sh * (v * v + 1) / (v * v - 1), H) for v, H in zip(vs, hams)])

    const = transfer_matrix(cfg, pts[0]) - coth_sum(pts[0])
    for s in pts[1:]:
        yield transfer_matrix(cfg, s).residual(const + coth_sum(s))
    total = hamiltonian_sum(cfg)
    for sign in (1, -1):
        rhs = ChainOperator.combination(
            [(1, const), (sh if sign > 0 else -sh, total)])
        yield rhs.residual(weight_diagonal(cfg, lambda M: sum(
            g * cfg.repeated(sign * m) for g, m in zip(cfg.g, M))))


def pole_expansion(cfg):
    """T(x) rebuilt from the directly constructed Hamiltonians.

    Rational: T(x) = tr(g) I + sum_j eta H_j / (x - x_j).  Trigonometric:
    T(x) = C + sinh(eta) sum_k H_k coth(x - x_k); C is taken from the first
    sample, the remaining n samples confirm it, and the boundary relations
    C +- sinh(eta) sum_k H_k = sum_a g_a t^{+-M_a} pin the two-sided
    behavior at x -> +-infinity.  Times prod_j (x - x_j), or (u^2 - u_j^2),
    both sides have degree <= n in x (or u^2), so n+1 distinct positive
    points prove the expansion.  The result carries the largest residual
    over all of these and, on failure, the basis pair where it occurs.
    """
    pts = _fresh_points(cfg, cfg.n + 1)
    return verdict("pole-expansion", _expansion_residuals(cfg, pts))


# ------------------------------------------------------------------ sum rules

def sum_rule(cfg):
    """sum_i H_i = sum_a g_a sinh(eta M_a) / sinh(eta), exactly: the right
    side is twist_energy at the weight of each basis state (sum_a g_a M_a
    on the rational flavor)."""
    rhs = weight_diagonal(cfg, lambda M: twist_energy(cfg, M))
    return verdict("sum-rule", [hamiltonian_sum(cfg).residual(rhs)],
                   params={"flavor": cfg.flavor})


def qkz_compatibility(cfg, i, j, unshifted=None):
    """Compatibility of the qKZ system for the pair (i, j).

    K_j with site i shifted by eta*hbar, times K_i, must equal the mirrored
    product; this is the discrete flatness of the connection.  ``unshifted``
    maps sites to their unshifted K_i: one that is missing is built through
    qkz_operator into it, so a caller that runs a family of pairs with one
    map builds each unshifted K_i once.
    """
    if i == j:
        raise BadSite("compatibility needs two distinct sites")
    unshifted = {} if unshifted is None else unshifted
    for s in (i, j):
        if s not in unshifted:
            unshifted[s] = qkz_operator(cfg, s)
    lhs = qkz_operator(cfg, j, {i}) @ unshifted[i]
    rhs = qkz_operator(cfg, i, {j}) @ unshifted[j]
    return verdict("qkz-compat", [lhs.residual(rhs)],
                   params={"i": i, "j": j})


def check_transfer_commute(cfg):
    """[T(x), T(x')] = 0 at two pairs of sampled spectral points."""
    pts = _fresh_points(cfg, 4)
    pairs = [(pts[0], pts[1]), (pts[2], pts[3])]

    def commutators():
        for p, q in pairs:
            tp, tq = transfer_matrix(cfg, p), transfer_matrix(cfg, q)
            yield (tp @ tq).residual(tq @ tp)

    return verdict("transfer-commute", commutators(),
                   params={"pairs": [(str(p), str(q)) for p, q in pairs]})
