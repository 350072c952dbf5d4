"""Two-site R-matrices, rational and trigonometric, embedded into V^(tensor n).

The rational family is R_ij(x) = (x I + eta P_ij) / (x + eta); the
unnormalized variant is Rt_ij(x) = I + (eta/x) P_ij.

The trigonometric family is parameterized multiplicatively: a matrix at
spectral difference x carries u = e^x and the deformation t = e^eta, so
sinh ratios become rational functions of (u, t) and all identities can be
checked with exact arithmetic.

Each of the four builders computes its entries (equal letters kept,
distinct letters kept, distinct letters swapped) and hands them to
tensor.swap_embed.  r_factor is the one place that picks a builder for a
flavor; the chain products and the R-level checks both go through it.
r_trig_entrywise builds the trigonometric matrix a second, independent way,
from its explicit entry table, so that a transcription error in either
encoding shows when they are compared.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import NonInvertibleQ, PoleHit
from .report import verdict
from .tensor import (
    ChainOperator,
    shared_space,
    site_embed,
    swap_embed,
    two_site_embed,
)


def r_rational(space, i, j, x, eta):
    """(x I + eta P_ij) / (x + eta); at x = 0 this is the plain swap."""
    x, eta = Fraction(x), Fraction(eta)
    den = x + eta
    if den == 0:
        raise PoleHit(f"spectral point x = -eta = {x}")
    p = eta / den
    return swap_embed(space, i, j, x / den, 1, (p, p))


def r_rational_tilde(space, i, j, x, eta):
    """I + (eta/x) P_ij, the variant normalized to 1 at infinity times (x+eta)/x."""
    x, eta = Fraction(x), Fraction(eta)
    if x == 0:
        raise PoleHit("spectral point x = 0")
    p = eta / x
    return swap_embed(space, i, j, 1, 1 + p, (p, p))


def sinh_exp(v):
    """sinh(x) = (v - 1/v) / 2 as a function of v = e^x."""
    return (v - 1 / v) / 2


def sinh_ratio_up(u, t):
    """sinh(x) / sinh(x + eta) as a rational function of u = e^x, t = e^eta."""
    u, t = Fraction(u), Fraction(t)
    den = u * u * t * t - 1
    if den == 0:
        raise PoleHit("sinh(x + eta) = 0, i.e. (u t)^2 = 1")
    return t * (u * u - 1) / den


def sinh_ratio_down(u, t):
    """sinh(x + eta) / sinh(x) in the same exponential variables."""
    u, t = Fraction(u), Fraction(t)
    den = t * (u * u - 1)
    if den == 0:
        raise PoleHit("sinh(x) = 0, i.e. u^2 = 1")
    return (u * u * t * t - 1) / den


def r_trig(space, i, j, u, t):
    """P_ij + [sinh x / sinh(x+eta)] (I - Pq_ij) with q = t, u = e^x."""
    if u == 0:
        raise NonInvertibleQ("u = e^x must be nonzero")
    s, q = sinh_ratio_up(u, t), Fraction(t)
    return swap_embed(space, i, j, s, 1, (1 - s * q, 1 - s * (1 / q)))


def r_trig_entrywise(space, i, j, u, t):
    """The same trigonometric R-matrix from its explicit entry table.

    Diagonal: 1 on equal letters, sinh x / sinh(x+eta) on distinct ones;
    off-diagonal swap weights are e^{+-x} sinh(eta) / sinh(x+eta).
    """
    if u == 0:
        raise NonInvertibleQ("u = e^x must be nonzero")
    u, t = Fraction(u), Fraction(t)
    den = u * u * t * t - 1
    if den == 0:
        raise PoleHit("sinh(x + eta) = 0, i.e. (u t)^2 = 1")
    alpha = t * (u * u - 1) / den      # sinh x / sinh(x+eta)
    beta = u * (t * t - 1) / den       # sinh eta / sinh(x+eta)
    table = {}
    N = space.N
    for a in range(1, N + 1):
        table[((a, a), (a, a))] = 1
        for b in range(1, N + 1):
            if a != b:
                table[((a, b), (a, b))] = alpha
    for a in range(1, N + 1):
        for b in range(a + 1, N + 1):
            table[((a, b), (b, a))] = beta * u
            table[((b, a), (a, b))] = beta / u
    return two_site_embed(space, i, j, table)


def r_trig_tilde(space, i, j, u, t):
    """I - Pq_ij + [sinh(x+eta)/sinh x] P_ij; proportional to r_trig."""
    if u == 0:
        raise NonInvertibleQ("u = e^x must be nonzero")
    c, q = sinh_ratio_down(u, t), Fraction(t)
    return swap_embed(space, i, j, 1, c, (c - q, c - 1 / q))


def r_factor(flavor, space, i, j, point, coupling, tilde=False):
    """R_ij of the given flavor, or its tilde variant, at the spectral point
    x (u = e^x) with coupling eta (t = e^eta).  Each builder is looked up
    when called, so a replaced module attribute is the one that runs."""
    if flavor == "rational":
        build = r_rational_tilde if tilde else r_rational
    elif flavor == "trigonometric":
        build = r_trig_tilde if tilde else r_trig
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return build(space, i, j, point, coupling)


def check_yang_baxter(flavor, point1, point2, coupling, N):
    """Triple-product test R12 R13 R23 = R23 R13 R12 on V^(tensor 3).

    point1/point2 are the two independent spectral values (x, y) in the
    rational case or their exponentials (u_x, u_y) in the trigonometric one;
    the 12-argument is the difference x - y, i.e. the ratio u_x / u_y.
    """
    space = shared_space(N, 3)
    point1, point2 = Fraction(point1), Fraction(point2)
    p12 = point1 - point2 if flavor == "rational" else point1 / point2
    r12 = r_factor(flavor, space, 1, 2, p12, coupling)
    r13 = r_factor(flavor, space, 1, 3, point1, coupling)
    r23 = r_factor(flavor, space, 2, 3, point2, coupling)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return verdict(
        "ybe", [lhs.residual(rhs)],
        params={"flavor": flavor, "points": (str(point1), str(point2)), "N": N})


def check_unitarity(flavor, point, coupling, N):
    """R_12(s) R_21(-s) = I on V^(tensor 2); -s maps to 1/u multiplicatively."""
    space = shared_space(N, 2)
    fwd = r_factor(flavor, space, 1, 2, point, coupling)
    p = Fraction(point)
    back = r_factor(flavor, space, 2, 1, -p if flavor == "rational" else 1 / p,
                    coupling)
    return verdict(
        "unitarity",
        [(fwd @ back).residual(ChainOperator.identity(space))],
        params={"flavor": flavor, "point": str(point), "N": N})


def check_twist_commutation(flavor, point, coupling, g, N):
    """[g (x) g, R(x)] = 0 for a diagonal twist g on V^(tensor 2)."""
    space = shared_space(N, 2)
    r = r_factor(flavor, space, 1, 2, point, coupling)
    table = {(a, a): Fraction(ga) for a, ga in enumerate(g, start=1)}
    gg = site_embed(space, table, 1) @ site_embed(space, table, 2)
    return verdict("twist-commute", [(gg @ r).residual(r @ gg)],
                   params={"flavor": flavor, "point": str(point), "N": N})
