import collections
import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import mpmath  # the test-only references below; the package never loads it
from mpmath import iv

from qkzbench import correspond
from qkzbench.cli import load_config, main
from qkzbench.chain import ModelConfig, hamiltonian
from qkzbench.correspond import (
    certified_radius,
    check_correspondence,
    diagonalize_sector,
    velocity_scale,
)
from qkzbench.errors import DegeneracyUnresolved, NonConvergence
from qkzbench.tensor import all_sectors
from qkzbench.verify import (elementary_symmetric, lax_denominator,
                             principal_minors, twist_targets)

ETA = Fraction(1, 2)
HBAR = Fraction(1, 3)
X3 = (Fraction(0), Fraction(2, 5), Fraction(9, 7))
G2 = (Fraction(2), Fraction(3))

CFG = ModelConfig.rational(2, 3, ETA, HBAR, X3, G2)
TCFG2 = ModelConfig.trigonometric(
    2, 2, Fraction(2), Fraction(5, 4), (Fraction(1), Fraction(3, 2)), G2
)


def _dim(cfg, M):
    return hamiltonian(cfg, 1).restrict(M).space.dim


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
    assert len(states) == _dim(CFG, (2, 1))
    for st in states:
        assert abs(sum(st.eigenvalues) - 7) < 1e-10


def test_eigenstate_counts():
    rng = random.Random(3)
    for M in all_sectors(2, 3):
        assert len(diagonalize_sector(CFG, M, rng=rng)) == _dim(CFG, M)


def test_diagonalize_rejects_bad_tol():
    with pytest.raises(ValueError):
        diagonalize_sector(CFG, (2, 1), tol=0)


def _mix_eigenvectors(monkeypatch):
    """Make the refinement yield each eigenvector plus its neighbour, which
    are no joint eigenvectors; returns the list of combinations it was asked
    to diagonalize."""
    draws = []
    eigenvectors = correspond._eigenvectors

    def mixed(combo, bits):
        draws.append(combo)
        found = list(eigenvectors(combo, bits))
        for (p, vec), (_, prev) in zip(found, found[-1:] + found[:-1]):
            yield p, [(x + a, y + b) for (x, y), (a, b) in zip(vec, prev)]

    monkeypatch.setattr(correspond, "_eigenvectors", mixed)
    return draws


def test_diagonalize_gives_up_after_three_draws(monkeypatch):
    draws = _mix_eigenvectors(monkeypatch)
    with pytest.raises(DegeneracyUnresolved, match="after 3 combination draws"):
        diagonalize_sector(CFG, (2, 1), rng=random.Random(0))
    assert len(draws) == 3


def test_spectrum_reports_an_unresolved_sector_as_one_error_line(monkeypatch,
                                                                 capsys):
    draws = _mix_eigenvectors(monkeypatch)
    cfg = Path(__file__).parent / "data" / "rational.cfg"
    assert main(["spectrum", "--config", str(cfg), "--sector", "2,1"]) == 3
    out, err = capsys.readouterr()
    assert len(draws) == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "after 3 combination draws" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["correspond", "spectrum"])
def test_correspond_reports_a_failed_eigensolve_with_exit_code_3(monkeypatch,
                                                                   capsys, command):
    def fail(a):
        raise NonConvergence("no convergence")

    monkeypatch.setattr(correspond, "_eigenvalues", fail)
    cfg = Path(__file__).parent / "data" / "rational.cfg"
    assert main([command, "--config", str(cfg), "--sector", "2,1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no convergence\n"


def test_correspond_reports_a_nan_double_start_with_exit_code_3(monkeypatch,
                                                                 capsys):
    # a NaN in the double start fails loudly, never as a traceback or a pass
    monkeypatch.setattr(correspond, "_eigenvalues", lambda a: [complex(math.nan)] * len(a))
    cfg = Path(__file__).parent / "data" / "rational.cfg"
    assert main(["correspond", "--config", str(cfg), "--sector", "2,1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: non-finite double start")
    assert err.count("\n") == 1 and "Traceback" not in err


class _Ones(random.Random):
    def uniform(self, a, b):
        return 1.0


def test_refinement_fails_every_draw_of_a_scalar_combination():
    # with every coefficient 1 the combination is sum_i H_i, which the sum
    # rule makes a scalar on each sector: it separates nothing, so no draw
    # may pass the joint residual gate
    cfg = load_config(str(Path(__file__).parent / "data" / "rational-float.cfg")).model
    for M in ((2, 1), (1, 2)):
        with pytest.raises(DegeneracyUnresolved, match="after 3 combination draws"):
            check_correspondence(cfg, M, rng=_Ones())


def test_refinement_fails_a_draw_that_finds_one_eigenpair_twice(monkeypatch):
    # starts that all sit at one eigenvalue refine to one eigenpair, which
    # passes the joint gate each time; a draw that lists it dim times fails
    real = correspond._eigenvalues
    monkeypatch.setattr(correspond, "_eigenvalues", lambda a: real(a)[:1] * len(a))
    with pytest.raises(DegeneracyUnresolved, match="after 3 combination draws"):
        check_correspondence(CFG, (2, 1), rng=random.Random(7))


def test_correspond_at_tol_1e_300_writes_no_positive_bound_as_zero(capsys):
    # at 620 working digits the deviations are near 1e-620, below the double
    # range: they are judged exactly and written rounded up, as the least
    # subnormal, so that 0.0 is left to the rows whose Lax polynomial is
    # exactly the target one (the one-dimensional sectors)
    cfg = Path(__file__).parent / "data" / "rational.cfg"
    assert main(["correspond", "--config", str(cfg), "--tol", "1e-300"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for sector in doc["sectors"]:
        assert sector["status"] == "pass" and sector["worst"] <= 1e-300
        exact = len(sector["rows"]) == 1
        for row in sector["rows"]:
            for bound in (row["radius"], row["hamiltonian_deviation"]):
                assert (bound == 0.0) == exact, sector["sector"]


def test_bounds_are_written_as_doubles_rounded_up():
    smallest = math.ldexp(1.0, -1074)
    assert correspond._upper(0) == 0.0
    assert correspond._upper(Fraction(2) ** -1074) == smallest
    assert correspond._upper(Fraction(2) ** -1100) == smallest
    assert correspond._upper(Fraction(1, 3)) > Fraction(1, 3)
    assert correspond._upper(Fraction(10) ** 400) == math.inf
    assert correspond._upper(math.inf) == math.inf


def test_correspond_certifies_the_septuple_targets_of_a_seven_site_chain(capsys):
    # sectors [0, 7] and [7, 0] hold one state whose Lax spectrum is one
    # target of multiplicity 7: 60 digits certify it only to 3e-8 and 1.5e-8,
    # so these sectors work at 7 * 8 + 20 = 76 digits
    cfg = Path(__file__).parent / "data" / "rational-2-7.cfg"
    assert main(["correspond", "--config", str(cfg), "--sector", "0,7",
                 "--sector", "7,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["status"] for s in doc["sectors"]] == ["pass", "pass"]
    assert all(s["worst"] <= 1e-8 for s in doc["sectors"])


# ------------------------------------------------------------- eigensolver

def _mp(x):
    """An exact rational or Gaussian x at mpmath's working precision."""
    re, im = (mpmath.mpf(q.numerator) / q.denominator
              for q in (Fraction(x.real), Fraction(x.imag)))
    return mpmath.mpc(re, im) if im else re


def _mpmath_eig_states(cfg, M, rng):
    """Reference joint eigenvalues: 60-digit mpmath.eig of the combination
    that the same draws give, read back as Rayleigh quotients and sorted as
    diagonalize_sector sorts them."""
    ops = [hamiltonian(cfg, i).restrict(M) for i in range(1, cfg.n + 1)]
    dim = ops[0].space.dim
    with mpmath.workdps(60):
        mats = []
        for op in ops:
            m = mpmath.zeros(dim, dim)
            for r, c, v in op.entries():
                m[r, c] = _mp(v)
            mats.append(m)
        combo = sum((rng.uniform(0.5, 1.5) * m for m in mats), mpmath.zeros(dim, dim))
        _, vecs = mpmath.eig(combo)
        states = []
        for k in range(dim):
            v = vecs[:, k] / mpmath.norm(vecs[:, k])
            states.append([mpmath.fdot([x.conjugate() for x in v], m * v) for m in mats])
    return sorted(states, key=lambda lams: tuple((complex(l).real, complex(l).imag)
                                                 for l in lams))


def test_backends_agree_on_joint_spectrum():
    # on every sector of both float goldens, the refined eigenvalues agree
    # with a 60-digit mpmath.eig of the same combination and pass the
    # 60-digit gate
    gate = Fraction(1, 10**30)
    for config in ("rational-float.cfg", "trig-float.cfg"):
        cfg = load_config(str(Path(__file__).parent / "data" / config)).model
        for M in all_sectors(cfg.N, cfg.n):
            states = diagonalize_sector(cfg, M, tol=gate, rng=random.Random(4), digits=60)
            assert len(states) == _dim(cfg, M)
            ref = (_mpmath_eig_states(cfg, M, random.Random(4)) if len(states) > 1
                   else [st.eigenvalues for st in states])
            for st, want in zip(states, ref):
                with mpmath.workdps(60):
                    assert max(abs(_mp(y) - z)
                               for y, z in zip(st.eigenvalues, want)) < 1e-50
                assert max(st.residuals) <= gate


def test_refined_residuals_bound_the_true_residuals():
    # on vectors that are no eigenvectors, real and complex: each eigenvalue
    # is (H_i v)_p exactly, and each residual is the least multiple of
    # 2^-(2 bits) not below ||H_i v - lambda_i v|| / ||v||, compared exactly
    bits = correspond._bits(60)
    k = 2 * bits
    ops = [hamiltonian(CFG, i).restrict((2, 1)) for i in range(1, 4)]
    one = 1 << bits
    for vec in ([(one, 0), (3 * one // 4, 0), (-5 * one // 8, 0)],
                [(one, 0), (one // 3, one // 7), (-one // 5, 2 * one // 9)]):
        v = [(Fraction(x, one), Fraction(y, one)) for x, y in vec]
        lams, residuals = correspond._joint(ops, 0, vec, bits)
        for op, lam, bound in zip(ops, lams, residuals):
            hv = []
            for r in range(len(v)):
                row = op.rows.get(r, {})
                hv.append(tuple(sum(x * v[c][part] for c, x in row.items()) / op.den
                                for part in (0, 1)))
            assert (Fraction(lam.real), Fraction(lam.imag)) == hv[0]
            square = sum((a - lam.real * x + lam.imag * y) ** 2
                         + (b - lam.real * y - lam.imag * x) ** 2
                         for (a, b), (x, y) in zip(hv, v)) / sum(
                             x * x + y * y for x, y in v)
            assert (bound - Fraction(1, 1 << k)) ** 2 < square <= bound**2


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
            assert row.radius <= 1e-8
            # e_k of the spectrum {2, 2, 3}
            assert [round(z.real, 9) for z in row.invariants] == [7.0, 16.0, 12.0]


# ------------------------------------------------------------- certificate

def _errs(roots, targets):
    """|c_k(roots) - c_k(targets)|, exactly, for rational roots: the
    coefficients of prod (z - t) are (-1)^k e_k."""
    return [abs(elementary_symmetric(roots, k) - elementary_symmetric(targets, k))
            for k in range(1, len(targets) + 1)]


def _bottleneck(values, targets):
    n = len(values)
    return min(
        max(abs(values[i] - targets[p[i]]) for i in range(n))
        for p in itertools.permutations(range(n))
    )


def test_certified_radius_of_exact_and_shifted_roots():
    targets = [Fraction(3), Fraction(1), Fraction(2)]
    roots = [Fraction(1), Fraction(2), Fraction(3)]
    assert certified_radius(_errs(roots, targets), targets) == 0.0
    shifted = [Fraction(1), Fraction(2), Fraction(301, 100)]
    r = certified_radius(_errs(shifted, targets), targets)
    # the coefficient-wise bound is loose by about |g|^(n-1), but finite
    assert 0.01 <= r < 0.5
    # a root halfway between two targets cannot be assigned to either
    halfway = [Fraction(1), Fraction(2), Fraction(5, 2)]
    assert certified_radius(_errs(halfway, targets), targets) == math.inf


def test_certified_radius_counts_multiplicities():
    # {2, 2, 3} and {2, 3, 3} have the same distinct values, but the circle
    # around 2 holds two roots of one and one root of the other
    twice = [Fraction(2), Fraction(2), Fraction(3)]
    once = [Fraction(2), Fraction(3), Fraction(3)]
    assert certified_radius(_errs(once, twice), twice) == math.inf
    # a double root split by 2e-6 moves its circle by about 1e-6
    split = [Fraction(2) - Fraction(1, 10**6), Fraction(2) + Fraction(1, 10**6),
             Fraction(3)]
    r = certified_radius(_errs(split, twice), twice)
    assert 1e-6 <= r <= 4e-6


def test_certified_radius_bounds_brute_force_distance():
    # the radius is rigorous: never below the true bottleneck distance
    rng = random.Random(2)
    for n in range(1, 6):
        for _ in range(20):
            # a coarse grid, so that repeated targets occur
            targets = [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]
            roots = [t + Fraction(rng.randint(-50, 50), 10**rng.randint(3, 9))
                     for t in targets]
            r = certified_radius(_errs(roots, targets), targets)
            assert r >= _bottleneck(roots, targets)


def test_correspondence_fails_on_scaled_velocity(monkeypatch):
    # one velocity (through its Hamiltonian eigenvalue) scaled by 1 + 1e-6
    real = correspond.diagonalize_sector

    def perturbed(*args, **kwargs):
        states = real(*args, **kwargs)
        for st in states:
            st.eigenvalues[0] = st.eigenvalues[0] * (Fraction(1) + Fraction(1, 10**6))
        return states

    monkeypatch.setattr(correspond, "diagonalize_sector", perturbed)
    for M in ((2, 1), (1, 2)):
        rep = check_correspondence(CFG, M, rng=random.Random(7))
        assert rep.status == "fail"
        assert rep.worst > 1e-8


def test_correspondence_fails_on_moved_target(monkeypatch):
    monkeypatch.setattr(correspond, "twist_targets", lambda cfg, M: (
        [twist_targets(cfg, M)[0] + Fraction(1, 10**6)] + twist_targets(cfg, M)[1:]))
    for cfg, M in ((CFG, (2, 1)), (CFG, (1, 2)), (TCFG2, (1, 1))):
        rep = check_correspondence(cfg, M, rng=random.Random(7))
        assert rep.status == "fail"
        assert rep.worst > 1e-8


def test_certified_radius_bounds_the_eig_distance(monkeypatch):
    # reference: the eigenvalues mpmath.eig finds for each Lax matrix sit
    # within the certified radius of the targets.  The certificate covers
    # L_ij = scale lambda_j / lax_denominator(i, j) with exact denominators
    # at the exact refined eigenvalues.  The test builds L from those at
    # twice the working digits: rounding L to 60 digits and eigensolving it
    # there moves its spectrum by more than the radius.  A radius of 0 claims
    # that the polynomials agree exactly, which mpmath.eig cannot confirm (a
    # triple root moves by eps^(1/3)); there the exact characteristic
    # polynomial of L is compared with prod_t (z - t) instead
    states = []
    real = correspond.diagonalize_sector

    def spy(*args, **kwargs):
        states[:] = real(*args, **kwargs)
        return states

    monkeypatch.setattr(correspond, "diagonalize_sector", spy)
    g3 = G2 + (Fraction(5),)
    chains = (
        CFG,
        ModelConfig.rational(3, 3, ETA, HBAR, X3, g3),
        ModelConfig.trigonometric(
            2, 4, Fraction(2), Fraction(5, 4),
            (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 5)), G2),
    )
    for cfg in chains:
        rng = random.Random(7)
        n = cfg.n
        for M in all_sectors(cfg.N, n):
            rep = check_correspondence(cfg, M, rng=rng)
            assert len(states) == len(rep.rows) == _dim(cfg, M)
            scale = velocity_scale(cfg)
            with mpmath.workdps(2 * correspond.MP_DPS):
                targets = [_mp(t) for t in twist_targets(cfg, M)]
                dens = [[_mp(lax_denominator(cfg, i + 1, j + 1))
                         for j in range(n)] for i in range(n)]
                for st, row in zip(states, rep.rows):
                    exact = [scale * lam for lam in st.eigenvalues]
                    assert [complex(v) for v in exact] == row.velocities
                    if row.radius == 0:
                        lax = [[exact[j] / lax_denominator(cfg, i + 1, j + 1)
                                for j in range(n)] for i in range(n)]
                        assert _faddeev_leverrier(lax) == [
                            (-1) ** k * elementary_symmetric(twist_targets(cfg, M), k)
                            for k in range(1, n + 1)], M
                        continue
                    velocities = [_mp(v) for v in exact]
                    lax = mpmath.matrix([[velocities[j] / dens[i][j] for j in range(n)]
                                         for i in range(n)])
                    spectrum = mpmath.eig(lax, left=False, right=False)
                    spectrum = list(spectrum[0] if n == 1 else spectrum)
                    assert row.radius >= _bottleneck(spectrum, targets), M
                    assert row.radius <= 1e-10, M


def _iv_radius(cfg, M, lams, digits):
    """The radius that an mpmath.iv certificate gives at the eigenvalues
    lams: the Lax coefficients enclosed in intervals at `digits` digits from
    enclosures of the exact minors and eigenvalues, then Rouche's ladder on
    the enclosures.  A reference for the exact certificate."""
    def enclose(q):
        return iv.mpf(q.numerator) / q.denominator

    old, iv.dps = iv.dps, digits
    try:
        n, targets = cfg.n, twist_targets(cfg, M)
        minors = {S: enclose(d) for S, d in principal_minors(cfg).items() if S}
        lams = [iv.mpc(enclose(Fraction(lam.real)), enclose(Fraction(lam.imag)))
                if lam.imag else enclose(lam) for lam in lams]
        errs, level = [], {(): iv.mpf(1)}
        for k in range(1, n + 1):
            level = {S: level[S[:-1]] * lams[S[-1]]
                     for S in itertools.combinations(range(n), k)}
            c = (-1) ** k * sum(minors[S] * p for S, p in level.items())
            errs.append(abs(c - enclose((-1) ** k * elementary_symmetric(targets, k))))

        def error(rho):
            acc = iv.mpf(0)
            for e in errs:
                acc = acc * rho + e
            return acc

        radius = 0.0
        for g, m in collections.Counter(targets).items():
            gaps = [abs(t - g) for t in targets if t != g]
            err0 = error(enclose(abs(g)))
            if err0.b == 0:
                continue
            est = mpmath.mpf(err0.a if err0.a > 0 else err0.b) / math.prod(
                (mpmath.mpf(d.numerator) / d.denominator for d in gaps), start=1)
            j = int(mpmath.floor(mpmath.log(est, 2) / m))
            while not gaps or Fraction(2) ** j < min(gaps) / 2:
                r = iv.mpf(mpmath.ldexp(1, j))
                if error(enclose(abs(g)) + r) < r**m * math.prod(
                        enclose(d) - r for d in gaps):
                    break
                j += 1
            else:
                return math.inf
            radius = max(radius, math.ldexp(1.0, j))
        return radius
    finally:
        iv.dps = old


@pytest.mark.parametrize("config", ["rational.cfg", "trig.cfg", "rational-float.cfg"])
def test_no_radius_exceeds_the_interval_reference(monkeypatch, config):
    # on every row of the three chains, the exact certificate is at least as
    # tight as interval enclosures of the same sums at the working digits;
    # the one-dimensional sectors certify radius 0
    states = []
    real = correspond.diagonalize_sector

    def spy(*args, **kwargs):
        states[:] = real(*args, **kwargs)
        return states

    monkeypatch.setattr(correspond, "diagonalize_sector", spy)
    rc = load_config(str(Path(__file__).parent / "data" / config))
    cfg, rng, tol = rc.model, random.Random(rc.seed), 1e-8
    for M in all_sectors(cfg.N, cfg.n):
        rep = check_correspondence(cfg, M, tol=tol, rng=rng)
        m = max(collections.Counter(twist_targets(cfg, M)).values())
        digits = max(correspond.MP_DPS, math.ceil(-m * math.log10(tol)) + 20)
        assert rep.passed and len(rep.rows) == len(states), M
        for st, row in zip(states, rep.rows):
            assert row.radius <= _iv_radius(cfg, M, st.eigenvalues, digits), M
            assert row.radius > 0 or len(states) == 1, M


def _faddeev_leverrier(a):
    """c_1..c_n of det(z - a) = z^n + sum_k c_k z^(n-k) over Fraction:
    M_1 = I, c_k = -tr(a M_k)/k, M_{k+1} = a M_k + c_k I."""
    n = len(a)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = []
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
        m = [[am[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
    return coeffs


def test_lax_coefficients_from_minors_match_faddeev_leverrier():
    # the principal-minor route is exact: its coefficients are those of
    # L = C^T diag(lambda), L_ij = scale lambda_j / den(i, j), over Fraction
    # for rational lambda and within 1e-12 of complex doubles for Gaussian
    rng = random.Random(5)
    for cfg in (ModelConfig.rational(3, 3, ETA, HBAR, X3, G2 + (Fraction(5),)),
                ModelConfig.trigonometric(
                    2, 4, Fraction(2), Fraction(5, 4),
                    (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 5)),
                    G2)):
        n, scale = cfg.n, velocity_scale(cfg)
        for _ in range(3):
            lams = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
            lax = [[scale * lams[j] / lax_denominator(cfg, i + 1, j + 1)
                    for j in range(n)] for i in range(n)]
            coeffs = correspond._lax_coefficients(
                *correspond._integer_minors(cfg), lams, n)
            assert all(im == 0 for _, im, _ in coeffs)
            exact = [Fraction(re, den) for re, _, den in coeffs]
            assert exact == _faddeev_leverrier(lax)
            lams = [correspond.Gaussian(lam, Fraction(rng.randint(1, 40), 7))
                    for lam in lams]
            lax = [[complex(scale * lams[j]) / float(lax_denominator(cfg, i + 1, j + 1))
                    for j in range(n)] for i in range(n)]
            coeffs = correspond._lax_coefficients(
                *correspond._integer_minors(cfg), lams, n)
            for (re, im, den), c in zip(coeffs, _faddeev_leverrier(lax)):
                got = complex(Fraction(re, den), Fraction(im, den))
                assert abs(got - c) <= 1e-12 * abs(c)


def test_integer_minors_are_built_once_per_config():
    cfg = dataclasses.replace(CFG)
    minors = correspond._integer_minors(cfg)
    assert correspond._integer_minors(cfg) is minors
    assert minors == correspond._integer_minors(dataclasses.replace(CFG))


def test_correspondence_fails_on_a_scaled_minor(monkeypatch):
    # det(C_SS) for S = {0, 1} scaled by 98/97 moves c_2 off its target on
    # every sector of both chains.  A fresh copy of each config has an empty
    # memo, so that its integer minors are built from the scaled ones
    real = correspond.principal_minors
    monkeypatch.setattr(correspond, "principal_minors", lambda cfg: {
        **real(cfg), (0, 1): real(cfg)[(0, 1)] * Fraction(98, 97)})
    for cfg in map(dataclasses.replace, (CFG, TCFG2)):
        rng = random.Random(7)
        for M in all_sectors(cfg.N, cfg.n):
            rep = check_correspondence(cfg, M, rng=rng)
            assert rep.status == "fail", (cfg.flavor, M)
            assert rep.worst > 1e-8


# ----------------------------------------------------------- correspondence

def test_rational_targets_are_twist_multiset():
    assert twist_targets(CFG, (2, 1)) == [G2[0], G2[0], G2[1]]


def test_trig_targets_are_strings():
    t = TCFG2.coupling
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
        assert len(rep.rows) == _dim(CFG, M)
        for row in rep.rows:
            assert row.radius <= 1e-8
            assert row.hamiltonian_deviation <= 1e-8


def test_correspondence_trig_string_example():
    # sector (2, 0) at t = 2: the string is {g_1/2, 2 g_1} = {1, 4}
    rep = check_correspondence(TCFG2, (2, 0), tol=1e-8, rng=random.Random(7))
    assert rep.passed
    (row,) = rep.rows
    assert [round(z.real, 6) for z in row.target] == [1.0, 4.0]
    assert row.radius <= 1e-8


def test_correspondence_single_site():
    # a 1 x 1 Lax matrix: its one eigenvalue is the twist entry of the sector
    for cfg in (ModelConfig.rational(2, 1, ETA, HBAR, (Fraction(0),), G2),
                ModelConfig.trigonometric(2, 1, Fraction(2), Fraction(5, 4),
                                          (Fraction(1),), G2)):
        for M, g in (((1, 0), G2[0]), ((0, 1), G2[1])):
            rep = check_correspondence(cfg, M, rng=random.Random(7))
            assert rep.passed
            (row,) = rep.rows
            assert row.invariants == [complex(g)]
            assert row.radius <= 1e-50


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
        # and the certified spectrum is the multiset itself
        assert row.radius <= 1e-8
