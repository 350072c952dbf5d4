"""Joint spectra of the commuting chain Hamiltonians and the classical
Lax-matrix side of the spectral correspondence.

Operators are built exactly, restricted to a weight sector, and only then
handed to the joint eigensolver, which runs over one of two precision
backends: complex doubles through numpy (LAPACK) for spectrum listings, and
mpmath at a fixed 60 working digits for the correspondence check; numpy is
imported on the first complex-double call, so the correspondence check never
loads it.  For every joint eigenstate the Hamiltonian eigenvalues define
particle velocities; the Lax matrix they define (never built, see the
Numerical note) must have the twist multiset {g_a with multiplicity M_a}
as its spectrum (rational flavor) or the multiplicative strings
g_a * t^{2 alpha - M_a + 1}, alpha = 0..M_a-1 (trigonometric flavor).

Velocity normalization: rational velocities are eta * lambda_i; in the
trigonometric flavor they are sinh(eta) * lambda_i.  The latter is forced by
the string targets: tr L = sum_i xdot_i / sinh(eta) must equal the sum of
the strings, which the sum rule identifies with sum_i lambda_i.  Both scales
degenerate to eta * lambda as eta -> 0.

Numerical note: on the correspondence level sets the Lax matrix is defective
(repeated targets sit in Jordan blocks), so a multiplicity-m eigenvalue
moves by eps^(1/m) under a perturbation eps, and an eigensolver converges
slowly on it.  The check never builds or diagonalizes it.  The Lax matrix is
L = C^T diag(lambda), with C the matrix of verify.principal_minors, so its
characteristic coefficients are c_k = (-1)^k sum_{|S|=k} det(C_SS)
prod_{j in S} lambda_j.  mpmath.iv interval arithmetic encloses them from the
exact minors and the computed 60-digit eigenvalues, and Rouche's theorem
(S. M. Rump, J. Comput. Appl. Math. 156, 2003) certifies that exactly m
roots lie within a radius r of each distinct target of multiplicity m.  What
is certified is the characteristic polynomial of the Lax matrix with exact C
at the computed eigenvalues; the largest r bounds the distance from its
roots to the target multiset.  Double precision serves the spectrum
listings.
"""
from __future__ import annotations

import collections
import contextlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import iv

from .chain import hamiltonian
from .errors import DegeneracyUnresolved, NonConvergence
from .scalars import require_tolerance
from .verify import (elementary_symmetric, principal_minors, twist_targets,
                     velocity_scale)

MP_DPS = 60  # working digits of the mpmath backend
with mpmath.workdps(MP_DPS):
    # its eigensolver residual gate: half the working digits
    MP_GATE = mpmath.mpf(10) ** (-MP_DPS // 2)


@dataclass
class JointEigenstate:
    """Joint eigenvalues lambda_i of all sector Hamiltonians on one common
    eigenvector v, with residuals[i] = ||H_i v - lambda_i v||_2 for the
    normalized v."""

    sector: tuple
    eigenvalues: list
    residuals: list


@dataclass
class CorrespondenceRow:
    eigenvalues: list
    velocities: list
    target: list
    invariants: list
    radius: float
    hamiltonian_deviation: float


@dataclass
class CorrespondenceReport:
    sector: tuple
    rows: list = field(default_factory=list)
    status: str = "pass"
    worst: float = 0.0

    @property
    def passed(self):
        return self.status == "pass"


def _peak(values):
    """The largest of the values, reading NaN as inf so that no gate passes it."""
    return max((math.inf if math.isnan(x) else x for x in values), default=0.0)


# ------------------------------------------------------- precision backends

def _mp_scalar(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
    if isinstance(v, complex):
        return mpmath.mpc(v.real, v.imag)
    return mpmath.mpf(v)


class _Complex128:
    """Complex doubles through numpy, imported on first use."""

    name = "complex128"
    context = contextlib.nullcontext

    scalar = staticmethod(complex)

    @staticmethod
    def operators(ops, dim):
        """The dense matrix of each operator."""
        import numpy as np
        mats = []
        for op in ops:
            m = np.zeros((dim, dim), dtype=complex)
            for r, c, v in op.entries():
                m[r, c] = complex(v)
            mats.append(m)
        return mats

    @staticmethod
    def combination(mats, coeffs, dim):
        return sum(k * m for k, m in zip(coeffs, mats))

    @staticmethod
    def eigenvectors(a):
        import numpy as np
        try:
            _, vecs = np.linalg.eig(a)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(str(exc)) from exc
        return [vecs[:, k] for k in range(a.shape[0])]

    @staticmethod
    def norm(v):
        import numpy as np
        return np.linalg.norm(v)

    @staticmethod
    def apply(m, v):
        return m @ v

    @staticmethod
    def rayleigh(v, w):
        return complex(v.conj() @ w)

    @staticmethod
    def residual(w, v, lam):
        import numpy as np
        return float(np.linalg.norm(w - lam * v))


COMPLEX128 = _Complex128()


class _Mpmath:
    """mpmath at MP_DPS working digits."""

    name = f"mpmath at {MP_DPS} digits"

    @staticmethod
    def context():
        return mpmath.workdps(MP_DPS)

    scalar = staticmethod(_mp_scalar)

    @staticmethod
    def operators(ops, dim):
        """The nonzero entries of each operator as {row: (columns, values)}."""
        out = []
        for op in ops:
            rows = {}
            for r, c, v in op.entries():
                cols, vals = rows.setdefault(r, ([], []))
                cols.append(c)
                vals.append(_mp_scalar(v))
            out.append(rows)
        return out

    @staticmethod
    def combination(ops, coeffs, dim):
        """sum_i coeffs[i] H_i as a dense matrix, each entry summed in the
        order of the operators."""
        m = mpmath.zeros(dim, dim)
        for rows, k in zip(ops, coeffs):
            for r, (cols, vals) in rows.items():
                for c, x in zip(cols, vals):
                    m[r, c] += k * x
        return m

    @staticmethod
    def eigenvectors(a):
        try:
            _, vecs = mpmath.eig(a)
        except Exception as exc:  # mpmath raises bare exceptions
            raise NonConvergence(str(exc)) from exc
        return [mpmath.matrix([vecs[r, k] for r in range(a.rows)])
                for k in range(a.rows)]

    norm = staticmethod(mpmath.norm)

    @staticmethod
    def apply(rows, v):
        """H v as a list, one fdot per nonzero row of H."""
        w = [mpmath.mpf(0)] * v.rows
        for r, (cols, vals) in rows.items():
            w[r] = mpmath.fdot(vals, [v[c] for c in cols])
        return w

    @staticmethod
    def rayleigh(v, w):
        return mpmath.fdot([x.conjugate() for x in v], w)

    @staticmethod
    def residual(w, v, lam):
        return mpmath.norm([x - lam * y for x, y in zip(w, v)])


MPMATH = _Mpmath()


# ----------------------------------------------------------- joint spectrum

def diagonalize_sector(cfg, sector, tol=1e-10, rng=None, backend=COMPLEX128):
    """Joint eigenstates of {H_i} on one weight sector, sorted by their
    eigenvalue tuples.

    Diagonalizes a random real combination of the Hamiltonians (a generic
    combination separates the joint spectrum), reads each eigenvalue back as
    a Rayleigh quotient and gates the residuals at tol, re-drawing the
    combination up to three times.  One-dimensional sectors bypass the
    eigensolver.  The backend sets the precision of every step after the
    exact build: COMPLEX128 for spectrum listings, MPMATH (gated at MP_GATE)
    for the correspondence.  It also holds the operators: numpy as dense
    matrices, mpmath as their nonzero entries, which form the combination
    and the products H_i v.
    """
    gate = require_tolerance(tol)
    rng = rng if rng is not None else random.Random(0)
    sector = tuple(int(m) for m in sector)
    ops = [hamiltonian(cfg, i).restrict(sector) for i in range(1, cfg.n + 1)]
    dim = ops[0].space.dim
    with backend.context():
        if dim == 1:
            return [JointEigenstate(
                sector, [backend.scalar(op.entry(0, 0)) for op in ops],
                [0.0] * len(ops))]
        forms = backend.operators(ops, dim)
        worst_seen = None
        for _ in range(3):
            combo = backend.combination(
                forms, [rng.uniform(0.5, 1.5) for _ in forms], dim)
            states = []
            ok = True
            for v in backend.eigenvectors(combo):
                norm = backend.norm(v)
                if norm == 0:
                    ok = False
                    break
                v = v / norm
                ws = [backend.apply(a, v) for a in forms]
                lams = [backend.rayleigh(v, w) for w in ws]
                rs = [backend.residual(w, v, lam) for w, lam in zip(ws, lams)]
                bad = _peak(rs)
                if worst_seen is None or bad < worst_seen:
                    worst_seen = bad
                if not (bad <= gate):
                    ok = False
                states.append(JointEigenstate(sector, lams, rs))
            if ok:
                states.sort(key=lambda st: tuple(
                    (lam.real, lam.imag) for lam in st.eigenvalues))
                return states
    raise DegeneracyUnresolved(
        f"residual {worst_seen} above {gate} after 3 combination draws "
        f"on sector {sector} ({backend.name})"
    )


# perfbench/probes.py traces the eigensolver under this name, counting the
# mpmath.eig calls made inside it as combination draws
_joint_eigenvalues_mp = diagonalize_sector


# ------------------------------------------------------------------ Lax side

@contextlib.contextmanager
def _iv_workdps(dps):
    old, iv.dps = iv.dps, dps
    try:
        yield
    finally:
        iv.dps = old


def _iv_exact(q):
    """An interval enclosing the rational q; a float converts as it is, and
    a NaN reads as the whole line."""
    if isinstance(q, float):
        return iv.mpf(q)
    return iv.mpf(q.numerator) / q.denominator


def _lax_coefficients(minors, lams, n):
    """c_1..c_n, det(z - L) = z^n + sum_k c_k z^(n-k), for L = C^T
    diag(lams), from the minors det(C_SS) by subset S:
    c_k = (-1)^k sum_{|S|=k} det(C_SS) prod_{j in S} lams_j, each level of
    subset products built from the level before.  Interval minors and point
    intervals lams give enclosures; exact ones give the exact c_k."""
    coeffs, level = [], {}
    for k in range(1, n + 1):
        level = {S: level[S[:-1]] * lams[S[-1]] if k > 1 else lams[S[0]]
                 for S in itertools.combinations(range(n), k)}
        total = sum(minors[S] * p for S, p in level.items())
        coeffs.append(-total if k % 2 else total)
    return coeffs


def _rouche_radius(errs, g, m, others):
    """The least power of two r with exactly m roots within r of the target
    g, or inf, given enclosures errs[k - 1] of |c~_k - c_k|, k = 1..n.

    Rouche's theorem on |z - g| = r, where |c~(z) - c(z)| is at most
    sum_k |c~_k - c_k| (|g| + r)^(n-k) and |c(z)| at least
    r^m prod (|t - g| - r) over the `others`; r < min |t - g| / 2 keeps
    distinct targets apart.  The ladder starts at the rung below the r -> 0
    estimate, below which no rung passes.
    """
    gaps = [abs(t - g) for t in others]
    gap_ivs = [_iv_exact(d) for d in gaps]  # converted once, not per rung
    mod_g = _iv_exact(abs(g))

    def error(rho):  # sum_k errs[k - 1] rho^(n-k), by Horner's rule
        acc = iv.mpf(0)
        for e in errs:
            acc = acc * rho + e
        return acc

    err0 = error(mod_g)
    if err0.b == 0:
        return 0.0  # the polynomials agree exactly
    est = mpmath.mpf(err0.a if err0.a > 0 else err0.b) / _mp_scalar(
        math.prod(gaps, start=Fraction(1)))
    j = int(mpmath.floor(mpmath.log(est, 2) / m))
    while not gaps or Fraction(2) ** j < min(gaps) / 2:
        r = iv.mpf(mpmath.ldexp(1, j))
        if error(mod_g + r) < r**m * math.prod(d - r for d in gap_ivs):
            return math.ldexp(1.0, j)
        j += 1
    return math.inf


def certified_radius(errs, targets):
    """The largest _rouche_radius over the distinct targets: a rigorous
    bound on the distance from the roots to the target multiset,
    multiplicities included, since disjoint circles hold all n roots.  A
    non-finite error enclosure reads inf."""
    if not all(mpmath.isfinite(mpmath.mpf(e.b)) for e in errs):
        return math.inf
    return max(_rouche_radius(errs, g, m, [t for t in targets if t != g])
               for g, m in collections.Counter(targets).items())


def check_correspondence(cfg, sector, tol=1e-8, rng=None):
    """Lax characteristic polynomials against their targets.

    For every joint eigenstate (MPMATH backend): the eigenvalues lambda_j,
    the velocities scale * lambda_j, and enclosures of the characteristic
    coefficients c~_k of the Lax matrix C^T diag(lambda), summed from the
    exact principal minors det(C_SS) at the computed eigenvalues; the Lax
    matrix itself is never formed.  Both the certified radius of the roots
    around the targets and max_k |c~_k - c_k|, against prod_t (z - t), must
    be within tol.  The reported invariants are the classical Hamiltonians
    (-1)^k c~_k, to be compared with e_k(targets).
    """
    sector = tuple(int(m) for m in sector)
    rng = rng if rng is not None else random.Random(0)
    targets_exact = twist_targets(cfg, sector)
    report = CorrespondenceReport(sector=sector)
    worst = 0.0
    with mpmath.workdps(MP_DPS), _iv_workdps(MP_DPS):
        target_coeffs = [_iv_exact((-1) ** k * elementary_symmetric(targets_exact, k))
                         for k in range(1, cfg.n + 1)]
        target = [complex(_mp_scalar(t)) for t in sorted(targets_exact)]
        scale = _mp_scalar(velocity_scale(cfg))
        minors = {S: _iv_exact(d) for S, d in principal_minors(cfg).items() if S}
        for state in diagonalize_sector(cfg, sector, tol=MP_GATE, rng=rng,
                                        backend=MPMATH):
            lams = state.eigenvalues
            # each eigenvalue enters as its point interval; exactly real
            # ones get real intervals, which are cheaper
            coeffs = _lax_coefficients(
                minors, [iv.mpc(lam.real, lam.imag) if lam.imag else iv.mpf(lam.real)
                         for lam in lams], cfg.n)
            errs = [abs(c - e) for c, e in zip(coeffs, target_coeffs)]
            radius = certified_radius(errs, targets_exact)
            hdev = _peak(float(mpmath.mpf(e.b)) for e in errs)
            report.rows.append(
                CorrespondenceRow(
                    eigenvalues=[complex(l) for l in lams],
                    velocities=[complex(scale * lam) for lam in lams],
                    target=list(target),
                    invariants=[complex((-1) ** k * mpmath.mpc(c.real.mid, c.imag.mid))
                                for k, c in enumerate(coeffs, 1)],
                    radius=radius,
                    hamiltonian_deviation=hdev,
                )
            )
            worst = _peak((worst, radius, hdev))
    report.worst = worst
    report.status = "pass" if worst <= tol else "fail"
    return report
