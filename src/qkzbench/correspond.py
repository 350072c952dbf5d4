"""Joint spectra of the commuting chain Hamiltonians and the classical
Lax-matrix side of the spectral correspondence.

Operators are built exactly, restricted to a weight sector, and only then
handed to the joint eigensolver, which needs no package beyond the standard
library: a double start on Python lists, each eigenpair then refined by
Newton's method with exact integer residuals at a fixed-point scale 2^-B
(J. J. Dongarra, C. B. Moler and J. H. Wilkinson, SIAM J. Numer. Anal. 20,
1983), its eigenvalues read back exactly.  Spectrum listings run it at 60
digits, the correspondence check at the digits its targets need.

For every joint eigenstate the Hamiltonian eigenvalues define particle
velocities; the Lax matrix they define (never built, see the Numerical
note) must have the twist multiset {g_a with multiplicity M_a}
as its spectrum (rational flavor) or the multiplicative strings
g_a * t^{2 alpha - M_a + 1}, alpha = 0..M_a-1 (trigonometric flavor).

Velocity normalization: rational velocities are eta * lambda_i; in the
trigonometric flavor they are sinh(eta) * lambda_i.  The latter is forced by
the string targets: tr L = sum_i xdot_i / sinh(eta) must equal the sum of
the strings, which the sum rule identifies with sum_i lambda_i.  Both scales
degenerate to eta * lambda as eta -> 0.

Numerical note: on the correspondence level sets the Lax matrix is defective
(repeated targets sit in Jordan blocks), so a multiplicity-m eigenvalue
moves by eps^(1/m) under a perturbation eps.  The check never builds or
diagonalizes it.  It is L = C^T diag(lambda), with C the matrix of
verify.principal_minors, so its characteristic coefficients are c_k =
(-1)^k sum_{|S|=k} det(C_SS) prod_{j in S} lambda_j.  The refined
eigenvalues are exact dyadic (Gaussian) rationals, good to D = max(60,
ceil(m log10(1/tol)) + 20) digits, m the largest target multiplicity of the
sector, and the minors are exact.  So the c~_k at the computed eigenvalues
are summed exactly in (Gaussian) integers, and each |c~_k - c_k|, against
the target polynomial prod_t (z - t), is bounded above by an integer square
root.  Rouche's theorem (S. M. Rump, J. Comput. Appl. Math. 156, 2003), in
exact integer comparisons, certifies that exactly m roots lie within a
power-of-two radius r of each distinct target of multiplicity m.  What is
certified is the characteristic polynomial of the Lax matrix with exact C
at the computed eigenvalues; the largest r bounds the distance from its
roots to the target multiset.  Pass or fail is decided on the exact radii
and coefficient errors; the report writes each as the least double not
below it.
"""
from __future__ import annotations

import cmath
import collections
import decimal
import itertools
import math
import random
from fractions import Fraction

from .chain import memo, sector_hamiltonians
from .errors import DegeneracyUnresolved, NonConvergence
from .scalars import require_tolerance
from .tensor import ChainOperator
from .verify import principal_minors, twist_side, velocity_scale

MP_DPS = 60  # the working digits of spectrum, the fewest of the correspondence


# Joint eigenvalues lambda_i of all sector Hamiltonians on one common
# eigenvector v, exact (Fraction, or Gaussian if not real), with residuals[i]
# the least multiple of 2^-(2 B) not below ||H_i v - lambda_i v||_2 / ||v||_2,
# a Fraction.
JointEigenstate = collections.namedtuple("JointEigenstate", "eigenvalues residuals")

CorrespondenceRow = collections.namedtuple("CorrespondenceRow", (
    "eigenvalues", "velocities", "target", "invariants", "radius",
    "hamiltonian_deviation"))


class CorrespondenceReport:
    def __init__(self, sector, rows=None, status="pass", worst=0.0):
        self.sector, self.status, self.worst = sector, status, worst
        self.rows = [] if rows is None else rows

    @property
    def passed(self):
        return self.status == "pass"


class Gaussian(collections.namedtuple("Gaussian", "real imag")):
    """An exact non-real eigenvalue, real + imag i with Fraction parts."""

    __slots__ = ()

    def __complex__(self):
        return complex(float(self.real), float(self.imag))

    def __mul__(self, k):  # by a rational k, not the repetition of a tuple
        return Gaussian(self.real * k, self.imag * k)

    __rmul__ = __mul__


def _shown(x):
    """x as a message writes it: a Fraction to four significant digits, at
    whatever exponent."""
    if isinstance(x, Fraction):
        return str(decimal.Context(prec=4).divide(x.numerator, x.denominator))
    return str(x)


def _ceil_sqrt(n):
    """The least integer r with r^2 >= n, for an integer n >= 0."""
    r = math.isqrt(n)
    return r + (r * r < n)


def _upper(q):
    """The least double not below the rational q >= 0 (inf above the double
    range): a positive q never reads 0.0."""
    try:
        x = float(q)
    except OverflowError:
        return math.inf
    return math.nextafter(x, math.inf) if x < q else x


# ------------------------------------------------------------- eigensolver

EPS = 2.0 ** -52  # the spacing of doubles at 1


def _eigenvalues(a):
    """The eigenvalues of the square list matrix a in complex doubles: pivoted
    Hessenberg elimination, then Wilkinson-shifted QR with deflation."""
    h, n = [[complex(x) for x in row] for row in a], len(a)
    for k in range(1, n - 1):
        q = max(range(k, n), key=lambda i: abs(h[i][k - 1]))
        h[k], h[q] = h[q], h[k]
        for row in h:
            row[k], row[q] = row[q], row[k]
        for i in range(k + 1, n):
            if h[i][k - 1]:  # row i -= f row k, then column k += f column i
                f = h[i][k - 1] / h[k][k - 1]
                h[i] = [x - f * y for x, y in zip(h[i], h[k])]
                for row in h:
                    row[k] += f * row[i]
    norm, out, hi, steps = max(abs(x) for row in h for x in row), [], n - 1, 0
    while hi >= 0:  # QR steps on h[:hi + 1] until h[hi][hi - 1] is negligible
        below = abs(h[hi][hi - 1]) if hi else 0
        if below <= EPS * (abs(h[hi - 1][hi - 1]) + abs(h[hi][hi]) or norm):
            out.append(h[hi][hi])
            hi, steps = hi - 1, 0
            continue
        if steps == 30:
            raise NonConvergence("shifted QR did not converge in 30 steps")
        steps += 1
        a, b, c, d = h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi]
        root = cmath.sqrt(((a - d) / 2) ** 2 + b * c)  # the eigenvalue nearer d
        shift = min((a + d) / 2 + root, (a + d) / 2 - root, key=lambda e: abs(e - d))
        shift += abs(c) if steps % 10 == 0 else 0  # an exceptional shift
        rotations = []
        for k in range(hi + 1):
            h[k][k] -= shift
        for k in range(hi):  # h - shift = QR by Givens rotations, ...
            x, y = h[k][k], h[k + 1][k]
            r = math.hypot(abs(x), abs(y))
            cs, sn = (x / r, y / r) if r else (1, 0)
            top, low = h[k], h[k + 1]
            for j in range(k, hi + 1):
                top[j], low[j] = (cs.conjugate() * top[j] + sn.conjugate() * low[j],
                                  cs * low[j] - sn * top[j])
            rotations.append((cs, sn))
        for k, (cs, sn) in enumerate(rotations):  # ... then RQ + shift
            for row in h[:k + 2]:
                row[k], row[k + 1] = (
                    row[k] * cs + row[k + 1] * sn,
                    row[k + 1] * cs.conjugate() - row[k] * sn.conjugate())
        for k in range(hi + 1):
            h[k][k] += shift
    return out


def _lu_solver(m, floor):
    """A solver of m x = b by row-pivoted LU in place, a pivot of 0 set to floor."""
    n, perm = len(m), list(range(len(m)))
    for k in range(n):
        q = max(range(k, n), key=lambda i: abs(m[i][k]))
        m[k], m[q], perm[k], perm[q] = m[q], m[k], perm[q], perm[k]
        pivot = m[k]
        pivot[k] = pivot[k] or floor
        for row in m[k + 1:]:
            f = row[k] = row[k] / pivot[k]
            row[k + 1:] = [x - f * y for x, y in zip(row[k + 1:], pivot[k + 1:])]

    def solve(b):
        x = [b[i] for i in perm]
        for i in range(n):
            x[i] -= sum(m[i][j] * x[j] for j in range(i))
        for i in reversed(range(n)):
            x[i] = (x[i] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
        return x
    return solve


def _fixed(z, bits):
    """round(z 2^bits) for a finite complex double z, exactly, as a
    Gaussian integer (re, im)."""
    out = []
    for num, den in (z.real.as_integer_ratio(), z.imag.as_integer_ratio()):
        k = bits + 1 - den.bit_length()  # den = 2^(bit_length - 1)
        out.append(num << k if k >= 0 else (num + (1 << -k - 1)) >> -k)
    return tuple(out)


def _times(row, vec, real):
    """sum_c row[c] vec[c] for a row {column: int} and Gaussian integers,
    the imaginary sum skipped when vec is real."""
    return (sum(x * vec[c][0] for c, x in row.items()),
            0 if real else sum(x * vec[c][1] for c, x in row.items()))


def _defect(ws, mu, vec, bits):
    """w_k 2^bits - mu vec_k for Gaussian integers w_k, mu and vec_k."""
    return [((wr << bits) - mu[0] * vr + mu[1] * vi,
             (wi << bits) - mu[0] * vi - mu[1] * vr)
            for (wr, wi), (vr, vi) in zip(ws, vec)]


def _bits(digits):
    """The fixed-point scale 2^-bits that holds `digits` decimal digits."""
    return math.ceil(digits * math.log2(10))


def _eigenvectors(combo, bits):
    """Each eigenvector of the exact combination as (p, vec), v = vec 2^-bits
    with v_p = 1, up to the first whose correction fails to halve or that
    repeats another.  From each eigenvalue mu of the double start (real if
    nearer the real axis than a quarter of its distance to all others, since
    a real matrix has conjugate pairs): inverse iteration in doubles, then
    Newton's method on A v = mu v, v_p = 1, its Jacobian (A - mu, column p
    set to -v) factored once in doubles and every residual exact."""
    rows = [combo.rows.get(r, {}) for r in range(combo.space.dim)]
    den, seen = combo.den, []
    a = [[row.get(c, 0) / den for c in range(len(rows))] for row in rows]
    floor = EPS * max(abs(x) for row in a for x in row) or EPS
    mus = _eigenvalues(a)
    for k, mu in enumerate(mus):
        if 4 * abs(mu.imag) < min([abs(nu - mu) for nu in mus[:k] + mus[k + 1:]],
                                  default=math.inf):
            mu = complex(mu.real)
        jac = [[x - mu * (r == c) for c, x in enumerate(row)]
               for r, row in enumerate(a)]
        solve = _lu_solver([row[:] for row in jac], floor)
        v = solve(solve([1.0] * len(a)))
        p = max(range(len(v)), key=lambda i: abs(v[i]))
        v = [x / v[p] for x in v]
        if not all(map(cmath.isfinite, v + [mu])):
            raise NonConvergence(f"non-finite double start {mu}")
        for row, x in zip(jac, v):
            row[p] = -x
        # the unknowns: v_k for k != p, and mu in place of v_p = 1
        solve, u = _lu_solver(jac, floor), [_fixed(x, bits) for x in v]
        u[p], last = _fixed(mu, bits), math.inf
        while True:
            # res = den 2^(2 bits) (A v - mu v), exactly; over den 2^s it
            # fits doubles and gives the correction step 2^(s - 2 bits)
            vec = u[:p] + [(1 << bits, 0)] + u[p + 1:]
            real = not any(y for _, y in vec)
            res = _defect([_times(row, vec, real) for row in rows],
                          (den * u[p][0], den * u[p][1]), vec, bits)
            top = max(abs(x) for pair in res for x in pair)
            s = max(0, top.bit_length() - den.bit_length())
            step = solve([-complex(x / (den << s), y / (den << s)) for x, y in res])
            size = max(map(abs, step))  # as log2 in units of 2^-bits:
            size = math.log2(size) + s - bits if size else -math.inf
            if size < 0 or not size < last - 1:
                break
            last = size
            u = [(x + dx, y + dy) for (x, y), (dx, dy) in
                 zip(u, (_fixed(z, s - bits) for z in step))]
        if not size < 0 or any(abs(u[p][0] - x) + abs(u[p][1] - y) < 1 << bits // 2
                               for x, y in seen):
            return
        seen.append(u[p])
        yield p, vec


def _joint(ops, p, vec, bits):
    """lambda_i = (H_i v)_p, exact since v_p = 1 (a Fraction, or a Gaussian if
    not real), and the residuals ||H_i v - lambda_i v|| / ||v|| from the exact
    H_i v, each rounded up to a multiple of 2^-(2 bits), so that the gate
    compares them exactly."""
    real, k = not any(y for _, y in vec), 2 * bits
    norm2, lams, rs = sum(x * x + y * y for x, y in vec), [], []
    for op in ops:
        ws = [_times(op.rows.get(r, {}), vec, real) for r in range(len(vec))]
        err = sum(x * x + y * y for x, y in _defect(ws, ws[p], vec, bits))
        scale = op.den << bits
        re, im = (Fraction(x, scale) for x in ws[p])
        lams.append(Gaussian(re, im) if im else re)
        # the residual is sqrt(err / norm2) / scale, bounded above
        bound = -(-(err << 2 * k) // (norm2 * scale * scale))
        rs.append(Fraction(_ceil_sqrt(bound), 1 << k))
    return lams, rs


# ----------------------------------------------------------- joint spectrum

def diagonalize_sector(cfg, sector, tol=1e-10, rng=None, digits=MP_DPS):
    """Joint eigenstates of {H_i} on one weight sector, sorted by their
    eigenvalue tuples.

    Diagonalizes a random real combination of the Hamiltonians (a generic
    combination separates the joint spectrum), formed exactly: each
    eigenpair of the double start is refined in Gaussian integers at the
    fixed-point scale of `digits` digits, its eigenvalues read back exactly
    from H_i v, and the residuals gated exactly at tol, re-drawing the
    combination up to three times.  One-dimensional sectors bypass the
    eigensolver.
    """
    gate = require_tolerance(tol)
    rng = rng if rng is not None else random.Random(0)
    sector = tuple(int(m) for m in sector)
    ops = sector_hamiltonians(cfg, sector)
    dim = ops[0].space.dim
    if dim == 1:
        return [JointEigenstate([Fraction(op.entry(0, 0)) for op in ops],
                                [Fraction(0)] * len(ops))]
    bits, worst_seen = _bits(digits), math.inf
    for _ in range(3):
        # sum_i c_i H_i, exact: each double c_i is the dyadic rational it is
        combo = ChainOperator.combination(
            [(Fraction(rng.uniform(0.5, 1.5)), op) for op in ops])
        states = [JointEigenstate(*_joint(ops, p, vec, bits))
                  for p, vec in _eigenvectors(combo, bits)]
        peaks = [max(st.residuals) for st in states]
        worst_seen = min([worst_seen, *peaks])
        if len(states) == dim and all(bad <= gate for bad in peaks):
            states.sort(key=lambda st: tuple(
                (lam.real, lam.imag) for lam in st.eigenvalues))
            return states
    raise DegeneracyUnresolved(
        f"residual {_shown(worst_seen)} above {_shown(gate)} after 3 combination draws "
        f"on sector {sector} (integer refinement at {digits} digits)"
    )


# perfbench/probes.py traces the eigensolver under this name
_joint_eigenvalues_mp = diagonalize_sector


# ------------------------------------------------------------------ Lax side

def _integer_minors(cfg):
    """The minors det(C_SS), S nonempty, as integers over one denominator
    dm: (minors by S, dm), once per config."""
    def build():
        minors = {S: d for S, d in principal_minors(cfg).items() if S}
        dm = math.lcm(*(d.denominator for d in minors.values()))
        return {S: int(d * dm) for S, d in minors.items()}, dm

    return memo(cfg, "integer minors", build)


def _lax_coefficients(minors, dm, lams, n):
    """c_1..c_n, det(z - L) = z^n + sum_k c_k z^(n-k), for L = C^T
    diag(lams), exactly, from the minors det(C_SS) = minors[S] / dm by
    subset S: c_k = (-1)^k sum_{|S|=k} det(C_SS) prod_{j in S} lams_j.  The
    lams (rational or Gaussian) are put over one denominator L and each
    level of subset products is built in Gaussian integers from the level
    before; c_k is returned as (re, im, dm L^k), re + im i its numerator."""
    big = math.lcm(*(q.denominator for lam in lams for q in (lam.real, lam.imag)))
    zs = [(int(lam.real * big), int(lam.imag * big)) for lam in lams]
    coeffs, level = [], {(): (1, 0)}
    for k in range(1, n + 1):
        prev, level = level, {}
        for S in itertools.combinations(range(n), k):
            (a, b), (x, y) = prev[S[:-1]], zs[S[-1]]
            level[S] = (a * x - b * y, a * y + b * x)
        re = sum(minors[S] * x for S, (x, _) in level.items())
        im = sum(minors[S] * y for S, (_, y) in level.items())
        sign = -1 if k % 2 else 1
        coeffs.append((sign * re, sign * im, dm * big**k))
    return coeffs


def _floor_log2(num, den):
    """floor(log2(num / den)) for integers num, den > 0, exactly."""
    e = num.bit_length() - den.bit_length()
    return e if num << max(0, -e) >= den << max(0, e) else e - 1


def _rouche_radius(errs, g, m, others):
    """The least power of two r with exactly m roots within r of the target
    g, or inf, given upper bounds errs[k - 1] of |c~_k - c_k|, k = 1..n;
    0 if the polynomials agree exactly.

    Rouche's theorem on |z - g| = r, where |c~(z) - c(z)| is at most
    sum_k |c~_k - c_k| (|g| + r)^(n-k) and |c(z)| at least
    r^m prod (|t - g| - r) over the `others`; r < min |t - g| / 2 keeps
    distinct targets apart.  The ladder starts at the rung below the r -> 0
    estimate, below which no rung passes.  It is exact: the errors, |g| and
    the gaps |t - g| are put over one denominator q, and each rung r = rn
    2^-s compares integers cleared of denominators.
    """
    if not any(errs):
        return Fraction(0)  # the polynomials agree exactly
    gaps = [abs(t - g) for t in others]
    q = math.lcm(*(x.denominator for x in (*errs, g, *gaps)))

    def over(x):  # the numerator of x over q
        return x.numerator * (q // x.denominator)

    a, b, big_g = [over(e) for e in errs], [over(d) for d in gaps], over(abs(g))
    top = m - 1  # = n - 1 - len(b)

    def error(x, w):  # q w^(n-1) times the error bound at x / w, by Horner's rule
        acc, wk = 0, 1
        for ak in a:
            acc, wk = acc * x + ak * wk, wk * w
        return acc

    j = _floor_log2(error(big_g, q) * q ** len(b), q ** len(a) * math.prod(b)) // m
    while True:
        s = max(0, -j)
        rn, w = 1 << (j + s), q << s
        if b and 2 * q * rn >= min(b) << s:
            return math.inf
        # error(|g| + r) < r^m prod (gap - r), times q w^(n-1) 2^(s m)
        if (error((big_g << s) + rn * q, w) << s * m) < (
                rn**m * math.prod((bt << s) - rn * q for bt in b) * q * w**top):
            return Fraction(rn, 1 << s)
        j += 1


def certified_radius(errs, targets):
    """The largest _rouche_radius over the distinct targets: a rigorous
    bound on the distance from the roots to the target multiset,
    multiplicities included, since disjoint circles hold all n roots."""
    return max(_rouche_radius(errs, g, m, [t for t in targets if t != g])
               for g, m in collections.Counter(targets).items())


def check_correspondence(cfg, sector, tol=1e-8, rng=None):
    """Lax characteristic polynomials against their targets.

    For every joint eigenstate (refined at the sector's working digits D,
    its residuals gated exactly at 10^-(D // 2)): the exact eigenvalues
    lambda_j, the velocities scale * lambda_j, and the characteristic
    coefficients c~_k of the Lax matrix C^T diag(lambda), summed exactly
    from the principal minors det(C_SS); the Lax matrix itself is never
    formed.  Both the certified radius of the roots around the targets and
    max_k |c~_k - c_k|, against prod_t (z - t) (the targets and their e_k
    from verify.twist_side), must be within tol, judged
    exactly; the report writes them as doubles rounded up.  The reported
    invariants are the classical Hamiltonians (-1)^k c~_k, to be compared
    with e_k(targets).
    """
    sector = tuple(int(m) for m in sector)
    rng = rng if rng is not None else random.Random(0)
    targets_exact, elementary = twist_side(cfg, sector)[:2]
    # a root of multiplicity m moves by about err^(1/m), so coefficients
    # good to 10^-digits keep its certified radius below tol
    multiplicity = max(collections.Counter(targets_exact).values())
    digits = max(MP_DPS, math.ceil(-multiplicity * math.log10(tol)) + 20)
    report = CorrespondenceReport(sector=sector)
    target_coeffs = [(-1) ** k * e for k, e in enumerate(elementary) if k]
    target = [complex(t) for t in sorted(targets_exact)]
    scale, minors = velocity_scale(cfg), _integer_minors(cfg)
    worst = Fraction(0)
    for state in diagonalize_sector(cfg, sector, tol=Fraction(1, 10 ** (digits // 2)),
                                    rng=rng, digits=digits):
        lams = state.eigenvalues
        coeffs = _lax_coefficients(*minors, lams, cfg.n)
        invariants, errs = [], []
        for k, ((re, im, den), c) in enumerate(zip(coeffs, target_coeffs), 1):
            sign = (-1) ** k  # int / int rounds correctly
            invariants.append(complex(sign * re / den, sign * im / den))
            # |c~_k - c_k| = |x + y i| / (den c.denominator), bounded above
            x, y = re * c.denominator - c.numerator * den, im * c.denominator
            errs.append(Fraction(_ceil_sqrt(x * x + y * y) if y else abs(x),
                                 den * c.denominator))
        radius, hdev = certified_radius(errs, targets_exact), max(errs)
        report.rows.append(
            CorrespondenceRow(
                eigenvalues=[complex(lam) for lam in lams],
                velocities=[complex(scale * lam) for lam in lams],
                target=list(target),
                invariants=invariants,
                radius=_upper(radius),
                hamiltonian_deviation=_upper(hdev),
            )
        )
        worst = max(worst, radius, hdev)
    report.worst = _upper(worst)
    report.status = "pass" if worst <= Fraction(tol) else "fail"
    return report
