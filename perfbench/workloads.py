"""Workload definitions and seeded parameter generation.

Each workload fixes the flavor, N, n and mode.  The workload seed draws the
inhomogeneities (x or u) and the twist g from small-rational pools and keeps
only draws in generic position, so every check is well defined.  Each value
keeps a denominator of the reference chain; the seed draws its numerator and
the order of the sites.  This keeps the bit size of exact entries, and so the
run time, close from seed to seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flavor: str
    N: int
    n: int
    mode: str
    tol: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-rational",
            "Sector-restricted Fraction products dominate: det-identity and "
            "symmetric-identity on all 15 sectors, with H_i rebuilt hundreds of "
            "times for 4 distinct operators.",
            "rational", 3, 4, "exact",
        ),
        Workload(
            "exact-trig",
            "Full-space (dim 64) sparse construction of nested shifted K_i and "
            "covector products; no determinant check and few H_i builds, so it "
            "bypasses sector algebra and operator reuse.",
            "trigonometric", 2, 6, "exact",
        ),
        Workload(
            "float-rational",
            "The exact-rational chain in complex doubles plus the mpmath "
            "eigensolver of the correspondence check; shows float-path and "
            "eigensolver cost and precision.",
            "rational", 3, 4, "float", 1e-10,
        ),
    )
}

# Reference chains; the seed draws x (or u) and g, the rest stays fixed.
ETA, HBAR = F(1, 2), F(1, 3)
X_DENOMINATORS = (1, 5, 7, 4)            # reference x = [0, 2/5, 9/7, -3/4]
T, H = F(2), F(5, 4)
U_DENOMINATORS = (1, 2, 3, 5, 4, 7)      # reference u = [1, 3/2, 7/3, 9/5, 11/4, 13/7]
TWIST_POOL = (2, 3, 4, 5, 6, 7)
MIN_GAP = F(1, 4)  # keeps eta / (x_j - x_i + eta) small, for the float gate


def _draw(rng, denominators, lo, hi):
    """One value p/d per denominator d, with lo <= p/d <= hi and gcd(p, d) = 1."""
    out = []
    for d in denominators:
        ps = [p for p in range(math.ceil(lo * d), math.floor(hi * d) + 1)
              if math.gcd(p, d) == 1]
        out.append(F(rng.choice(ps), d))
    rng.shuffle(out)
    return out


def _rational_generic(x):
    for i in range(len(x)):
        for j in range(len(x)):
            if i != j:
                d = x[i] - x[j]
                if abs(d) < MIN_GAP or abs(d + ETA) < MIN_GAP:
                    return False
    return True


# Ratios u_i/u_j that would put an R factor, a nested shift or a sinh ratio
# on a pole: t^a h^b for small |a|, |b|.
_TRIG_BAD_RATIOS = {T ** a * H ** b for a in range(-2, 3) for b in range(-3, 4)}


def _trig_generic(u):
    return all(u[i] / u[j] not in _TRIG_BAD_RATIOS
               for i in range(len(u)) for j in range(len(u)) if i != j)


def generate(workload, seed):
    """Parameters of the chain for one workload and seed, as a dict."""
    w = WORKLOADS[workload]
    rng = random.Random(seed)
    g = rng.sample(TWIST_POOL, w.N)
    if w.flavor == "rational":
        while True:
            x = _draw(rng, X_DENOMINATORS, -2, 2)
            if _rational_generic(x):
                break
        params = {"model": "rational", "N": w.N, "n": w.n, "eta": ETA,
                  "hbar": HBAR, "x": x, "g": g}
    else:
        while True:
            u = _draw(rng, U_DENOMINATORS, 1, F(7, 2))
            if _trig_generic(u):
                break
        params = {"model": "trigonometric", "N": w.N, "n": w.n, "t": T,
                  "h": H, "u": u, "g": g}
    if w.mode == "float":
        params["mode"] = "float"
        params["tol"] = w.tol
    return params


def config_text(params):
    """The flat ``key = value`` config file the workbench reads."""
    def fmt(v):
        if isinstance(v, list):
            return "[" + ", ".join(str(e) for e in v) + "]"
        return repr(v) if isinstance(v, float) else str(v)

    return "".join(f"{k} = {fmt(v)}\n" for k, v in params.items())


if __name__ == "__main__":
    import sys

    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 9)
    for name in WORKLOADS:
        for seed in range(first, last + 1):
            p = generate(name, seed)
            drawn = p.get("x") or p["u"]
            print(f"{name} seed {seed}: {'x' if 'x' in p else 'u'} = "
                  f"[{', '.join(map(str, drawn))}], g = {p['g']}")
