"""Joint spectra of the commuting chain Hamiltonians and the classical
Lax-matrix side of the spectral correspondence.

Operators are built exactly, restricted to a weight sector, and only then
handed to the joint eigensolver, which runs over one of two precision
backends: complex doubles through numpy (LAPACK) for spectrum listings, and
mpmath at a fixed 60 working digits for the correspondence check.  For every
joint eigenstate the Hamiltonian eigenvalues define particle velocities; the
Lax matrix built from them must have the twist multiset {g_a with
multiplicity M_a} as its spectrum (rational flavor) or the multiplicative
strings g_a * t^{2 alpha - M_a + 1}, alpha = 0..M_a-1 (trigonometric flavor).

Velocity normalization: rational velocities are eta * lambda_i; in the
trigonometric flavor they are sinh(eta) * lambda_i.  The latter is forced by
the string targets: tr L = sum_i xdot_i / sinh(eta) must equal the sum of
the strings, which the sum rule identifies with sum_i lambda_i.  Both scales
degenerate to eta * lambda as eta -> 0.

Numerical note: on the correspondence level sets the Lax matrix is defective
(repeated target eigenvalues sit in Jordan blocks), so extracting its
spectrum in double precision splits a multiplicity-m eigenvalue by
eps^(1/m) ~ 1e-5.  The correspondence check therefore runs the eigensolver
and the Lax spectra through mpmath; double precision, several times faster,
serves the spectrum listings.
"""
from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .chain import hamiltonian
from .errors import DegeneracyUnresolved, MatchFailure, NonConvergence, PoleHit
from .scalars import require_tolerance
from .verify import elementary_symmetric, twist_targets

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
    lax_spectrum: list
    target: list
    invariants: list
    match_distance: float
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


def _nan_as_inf(x):
    return math.inf if math.isnan(x) else x


def _peak(values):
    """The largest of the values, reading NaN as inf so that no gate passes it."""
    return max(map(_nan_as_inf, values), default=0.0)


# ------------------------------------------------------- precision backends

def _mp_scalar(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
    if isinstance(v, complex):
        return mpmath.mpc(v.real, v.imag)
    return mpmath.mpf(v)


class _Complex128:
    """Complex doubles through numpy."""

    name = "complex128"
    context = contextlib.nullcontext

    @staticmethod
    def matrix(op, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for r, c, v in op.entries():
            m[r, c] = complex(v)
        return m

    @staticmethod
    def eigenvectors(a):
        try:
            _, vecs = np.linalg.eig(a)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(str(exc)) from exc
        return [vecs[:, k] for k in range(a.shape[0])]

    norm = staticmethod(np.linalg.norm)

    @staticmethod
    def rayleigh(m, v):
        return complex(v.conj() @ (m @ v))

    @staticmethod
    def residual(m, v, lam):
        return float(np.linalg.norm(m @ v - lam * v))


COMPLEX128 = _Complex128()


class _Mpmath:
    """mpmath at MP_DPS working digits."""

    name = f"mpmath at {MP_DPS} digits"

    @staticmethod
    def context():
        return mpmath.workdps(MP_DPS)

    @staticmethod
    def matrix(op, dim):
        m = mpmath.zeros(dim, dim)
        for r, c, v in op.entries():
            m[r, c] = _mp_scalar(v)
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
    def rayleigh(m, v):
        return (v.H * (m * v))[0, 0]

    @staticmethod
    def residual(m, v, lam):
        return mpmath.norm(m * v - lam * v)


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
    for the correspondence.
    """
    gate = require_tolerance(tol)
    rng = rng if rng is not None else random.Random(0)
    sector = tuple(int(m) for m in sector)
    ops = [hamiltonian(cfg, i).restrict(sector) for i in range(1, cfg.n + 1)]
    dim = ops[0].space.dim
    with backend.context():
        mats = [backend.matrix(op, dim) for op in ops]
        if dim == 1:
            return [JointEigenstate(sector, [m[0, 0] for m in mats],
                                    [0.0] * len(mats))]
        worst_seen = None
        for _ in range(3):
            combo = sum(rng.uniform(0.5, 1.5) * m for m in mats)
            states = []
            ok = True
            for v in backend.eigenvectors(combo):
                norm = backend.norm(v)
                if norm == 0:
                    ok = False
                    break
                v = v / norm
                lams = [backend.rayleigh(m, v) for m in mats]
                rs = [backend.residual(m, v, lam) for m, lam in zip(mats, lams)]
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

def velocity_scale(cfg):
    """eta (rational) or sinh(eta) = (t - 1/t)/2 (trigonometric), exactly."""
    if cfg.is_rational:
        return cfg.eta
    return (cfg.t - cfg.domain.inverse(cfg.t)) / 2


def lax_denominator(cfg, i, j):
    """x_i - x_j + eta, or its sinh in exponential variables, exactly."""
    if cfg.is_rational:
        den = cfg.x[i - 1] - cfg.x[j - 1] + cfg.eta
    else:
        v = cfg.u[i - 1] * cfg.t / cfg.u[j - 1]
        den = (v - cfg.domain.inverse(cfg.domain.coerce(v))) / 2
    if den == 0:
        raise PoleHit(f"Lax denominator vanishes at ({i}, {j})")
    return den


def _perfect_matching(dist, cap):
    """Whether rows and columns pair up one-to-one along entries <= cap
    (augmenting paths)."""
    owner = [None] * len(dist)

    def augment(i, seen):
        for j, d in enumerate(dist[i]):
            if d <= cap and j not in seen:
                seen.add(j)
                if owner[j] is None or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(dist)))


def match_distance(values, targets):
    """Bottleneck distance between two complex multisets: the least, over
    one-to-one assignments, of the largest |value - target|.

    Exact for every size: the optimum is one of the pairwise distances, so
    a binary search over them for the least one that still admits a perfect
    matching finds it.  A NaN distance counts as inf.
    """
    if len(values) != len(targets):
        raise MatchFailure(f"multiset sizes differ: {len(values)} vs {len(targets)}")
    if not values:
        return 0.0
    dist = [[_nan_as_inf(abs(v - t)) for t in targets] for v in values]
    levels = sorted({d for row in dist for d in row})
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(dist, levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def check_correspondence(cfg, sector, tol=1e-8, rng=None):
    """Lax spectra and characteristic invariants against their targets.

    For every joint eigenstate (MPMATH backend): velocities from the
    eigenvalues, the Lax matrix from the velocities, then (i) its spectrum
    must match the target multiset and (ii) its characteristic invariants
    must match the elementary symmetric polynomials of the target, both
    within tol.
    """
    sector = tuple(int(m) for m in sector)
    rng = rng if rng is not None else random.Random(0)
    targets_exact = twist_targets(cfg, sector)
    target_inv = [
        elementary_symmetric(targets_exact, d) for d in range(1, cfg.n + 1)
    ]
    report = CorrespondenceReport(sector=sector)
    worst = 0.0
    with mpmath.workdps(MP_DPS):
        targets_mp = [_mp_scalar(t) for t in targets_exact]
        inv_mp = [_mp_scalar(t) for t in target_inv]
        scale = _mp_scalar(velocity_scale(cfg))
        dens = [
            [_mp_scalar(lax_denominator(cfg, i, j)) for j in range(1, cfg.n + 1)]
            for i in range(1, cfg.n + 1)
        ]
        for state in diagonalize_sector(cfg, sector, tol=MP_GATE, rng=rng,
                                        backend=MPMATH):
            lams = state.eigenvalues
            velocities = [scale * lam for lam in lams]
            lax = mpmath.matrix(cfg.n, cfg.n)
            for i in range(cfg.n):
                for j in range(cfg.n):
                    lax[i, j] = velocities[j] / dens[i][j]
            try:
                # eigenvalues only; a 1 x 1 matrix still comes with vectors
                spectrum = mpmath.eig(lax, left=False, right=False)
            except Exception as exc:
                raise NonConvergence(str(exc)) from exc
            spectrum = list(spectrum[0] if cfg.n == 1 else spectrum)
            dist = match_distance(spectrum, targets_mp)
            invariants = [
                elementary_symmetric(spectrum, d) for d in range(1, cfg.n + 1)
            ]
            hdev = _peak(float(abs(a - b)) for a, b in zip(invariants, inv_mp))
            key = lambda z: (mpmath.re(z), mpmath.im(z))
            report.rows.append(
                CorrespondenceRow(
                    eigenvalues=[complex(l) for l in lams],
                    velocities=[complex(v) for v in velocities],
                    lax_spectrum=[complex(z) for z in sorted(spectrum, key=key)],
                    target=[complex(z) for z in sorted(targets_mp, key=key)],
                    invariants=[complex(v) for v in invariants],
                    match_distance=dist,
                    hamiltonian_deviation=hdev,
                )
            )
            worst = _peak((worst, dist, hdev))
    report.worst = worst
    report.status = "pass" if worst <= tol else "fail"
    return report
