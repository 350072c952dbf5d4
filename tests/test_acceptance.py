"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every identity check below must come back with residual exactly zero in the
exact scalar domain; the spectral correspondence is numerical and gated at
1e-8.  Each criterion also carries a wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""
import itertools
import json
import random
import time
from fractions import Fraction

from qkzbench import verify
from qkzbench.chain import (
    ModelConfig,
    check_transfer_commute,
    hamiltonian,
    pole_expansion,
    qkz_compatibility,
    sum_rule,
)
from qkzbench.cli import emit, load_config, run
from qkzbench.correspond import check_correspondence
from qkzbench.errors import GenericPositionViolation, PoleHit
from qkzbench.rmatrix import (
    check_twist_commutation,
    check_unitarity,
    check_yang_baxter,
)
from qkzbench.tensor import all_sectors
from qkzbench.verify import (
    check_det_identity,
    check_k_projection,
    check_macdonald_eigenvalue,
    check_omega_invariance,
    check_proposition_higher,
    check_symmetric_identity,
)

X_POOL = (Fraction(0), Fraction(2, 5), Fraction(9, 7), Fraction(-3, 4))
U_POOL = (Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 5))
ETA = Fraction(1, 2)
HBAR = Fraction(1, 3)
T = Fraction(2)
H = Fraction(5, 4)
G = (Fraction(2), Fraction(3), Fraction(5))


def rational_cfg(N, n, hbar=HBAR):
    return ModelConfig.rational(N, n, ETA, hbar, X_POOL[:n], G[:N])


def trig_cfg(N, n, h=H):
    return ModelConfig.trigonometric(N, n, T, h, U_POOL[:n], G[:N])


def _report(k, ok, detail=""):
    line = f"[criterion {k:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)


def _draw(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        if not nonzero or v != 0:
            return v


def test_criterion_01_ybe_unitarity_twist_commutation():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for N in (2, 3):
        for _ in range(10):
            # rational draw
            eta = _draw(rng, nonzero=True)
            while True:
                x, y = _draw(rng), _draw(rng)
                if x + eta != 0 and y + eta != 0 and x - y + eta != 0:
                    break
            g = tuple(_draw(rng, nonzero=True) for _ in range(N))
            assert check_yang_baxter("rational", [x], [y], eta, N).residual == 0
            s = x if x not in (eta, -eta) else eta / 3
            assert check_unitarity("rational", [s], eta, N).residual == 0
            assert check_twist_commutation("rational", [x], eta, g, N).residual == 0
            # trigonometric draw
            while True:
                t = _draw(rng, nonzero=True)
                if t * t != 1:
                    break
            pts = []
            while len(pts) < 2:
                u = _draw(rng, nonzero=True)
                if u * u * t * t != 1:
                    pts.append(u)
            ux, uy = pts
            if (ux / uy) ** 2 * t * t == 1:
                uy = uy * 3  # nudge off the single excluded ratio
            assert check_yang_baxter("trigonometric", [ux], [uy], t, N).residual == 0
            if ux * ux != t * t:
                assert check_unitarity("trigonometric", [ux], t, N).residual == 0
            assert check_twist_commutation(
                "trigonometric", [ux], t, g, N
            ).residual == 0
            checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 20 and elapsed < 5
    _report(1, ok, f"{checked} draws, {elapsed:.2f}s (< 5s)")
    assert ok


def test_criterion_02_transfer_commutativity_and_pole_expansion():
    t0 = time.monotonic()
    ok = True
    for make in (rational_cfg, trig_cfg):
        for N in (2, 3):
            for n in (1, 2, 3, 4):
                cfg = make(N, n)
                ok = ok and pole_expansion(cfg).passed
                ok = ok and check_transfer_commute(cfg).passed
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _report(2, ok, f"N<=3, n<=4, both flavors, {elapsed:.2f}s (< 30s)")
    assert ok


def test_criterion_03_sum_rules():
    t0 = time.monotonic()
    ok = True
    for make in (rational_cfg, trig_cfg):
        for N in (2, 3):
            for n in (1, 2, 3, 4):
                r = sum_rule(make(N, n))
                ok = ok and r.passed and r.residual == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    _report(3, ok, f"{elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_04_qkz_compatibility():
    t0 = time.monotonic()
    rng = random.Random(404)
    ok = True
    for n in (2, 3, 4):
        for _ in range(2):
            while True:
                try:
                    cfg = rational_cfg(2, n, hbar=_draw(rng))
                    results = [
                        qkz_compatibility(cfg, i, j)
                        for i, j in itertools.combinations(range(1, n + 1), 2)
                    ]
                    break
                except (GenericPositionViolation, PoleHit):
                    continue  # shifted argument met a pole; redraw hbar
            ok = ok and all(r.passed and r.residual == 0 for r in results)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _report(4, ok, f"all pairs, N=2, n<=4, {elapsed:.2f}s (< 30s)")
    assert ok


def test_criterion_05_covector_lemmas():
    t0 = time.monotonic()
    ok = True
    for make in (rational_cfg, trig_cfg):
        for N in (2, 3):
            for n in (1, 2, 3, 4):
                cfg = make(N, n)
                ok = ok and check_omega_invariance(cfg).passed
                for i in range(1, n + 1):
                    r = check_k_projection(cfg, i)
                    ok = ok and r.passed and r.residual == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    _report(5, ok, f"{elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_06_higher_proposition():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        cfg = rational_cfg(2, n)
        for d in range(1, n + 1):
            for sites in itertools.combinations(range(1, n + 1), d):
                r = check_proposition_higher(cfg, sites)
                ok = ok and r.passed and r.residual == 0
    for n in (1, 2, 3):
        cfg = trig_cfg(2, n)
        for d in range(1, n + 1):
            for sites in itertools.combinations(range(1, n + 1), d):
                r = check_proposition_higher(cfg, sites)
                ok = ok and r.passed and r.residual == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(6, ok, f"all site subsets, {elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_07_determinant_identity():
    t0 = time.monotonic()
    ok = True
    for N in (2, 3):
        for n in (1, 2, 3, 4):
            cfg = rational_cfg(N, n)
            for M in all_sectors(N, n):
                r = check_det_identity(cfg, M)
                ok = ok and r.passed and r.residual == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(7, ok, f"every sector, N<=3, n<=4, {elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_08_symmetric_identity_and_eigenvalues():
    t0 = time.monotonic()
    ok = True
    for N in (2, 3):
        for n in (3, 4):
            cfg = rational_cfg(N, n)
            for M in all_sectors(N, n):
                for d in range(1, min(3, n) + 1):
                    rs = check_symmetric_identity(cfg, M, d)
                    rm = check_macdonald_eigenvalue(cfg, M, d)
                    ok = ok and rs.passed and rs.residual == 0
                    ok = ok and rm.passed and rm.residual == 0
    # trigonometric eigenvalue (first degree) with its string cross-check
    for N in (2, 3):
        cfg = trig_cfg(N, 3)
        for M in all_sectors(N, 3):
            r = check_macdonald_eigenvalue(cfg, M, 1)
            ok = ok and r.passed and r.residual == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(8, ok, f"{elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_09_quantum_classical_correspondence():
    t0 = time.monotonic()
    rng = random.Random(909)
    ok = True
    cfg = rational_cfg(2, 3)
    for M in all_sectors(2, 3):
        rep = check_correspondence(cfg, M, tol=1e-8, rng=rng)
        ok = ok and rep.passed
        for row in rep.rows:
            ok = ok and row.radius <= 1e-8
            ok = ok and row.hamiltonian_deviation <= 1e-8
    for n in (2, 3):
        cfg = trig_cfg(2, n)
        for M in all_sectors(2, n):
            rep = check_correspondence(cfg, M, tol=1e-8, rng=rng)
            ok = ok and rep.passed
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(9, ok, f"{elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_10_negative_controls(monkeypatch):
    t0 = time.monotonic()
    # twist perturbation: foreign Hamiltonians, restricted into the sector
    # tables of a fresh chain, must produce a loud failure
    bad = ModelConfig.rational(2, 3, ETA, HBAR, X_POOL[:3],
                               (G[0] + 1, G[1]))
    foreign = [hamiltonian(bad, i) for i in (1, 2, 3)]
    monkeypatch.setattr(verify, "sector_hamiltonians",
                        lambda cfg, sector: [H.restrict(sector) for H in foreign])
    r = check_det_identity(rational_cfg(2, 3), (2, 1))
    control_a = (not r.passed) and r.residual != 0 and r.witness is not None
    # generic-position violation is rejected loudly, not passed silently
    try:
        ModelConfig.rational(2, 2, ETA, HBAR, (Fraction(0), ETA), G[:2])
        control_b = False
    except GenericPositionViolation:
        control_b = True
    elapsed = time.monotonic() - t0
    ok = control_a and control_b
    _report(10, ok, f"perturbed twist + position collision, {elapsed:.2f}s")
    assert ok


def test_criterion_11_deterministic_reports(tmp_path):
    t0 = time.monotonic()
    p = tmp_path / "chain.cfg"
    p.write_text(
        "model = rational\nN = 2\nn = 3\neta = 1/2\nhbar = 1/3\n"
        "x = [0, 2/5, 9/7]\ng = [2, 3]\nseed = 17\ntol = 1e-10\nmode = exact\n"
    )
    rc = load_config(str(p))
    rc.checks = ["ybe", "unitarity", "sum-rule", "qkz-compat", "det-identity"]
    first = emit(run(rc), "json")
    second = emit(run(rc), "json")
    exact_identical = first == second

    rc.mode = "float"
    rc.tol = 1e-8
    rc.checks = ["correspondence"]
    third = emit(run(rc), "json")
    fourth = emit(run(rc), "json")
    float_identical = third == fourth

    parsed = json.loads(first)
    ok = (
        exact_identical
        and float_identical
        and parsed["overall"] == "pass"
        and parsed["config"]["seed"] == 17
    )
    elapsed = time.monotonic() - t0
    _report(11, ok, f"byte-identical json, {elapsed:.2f}s")
    assert ok
