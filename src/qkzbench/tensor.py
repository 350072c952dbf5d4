"""Basis bookkeeping and sparse operator algebra on V^(tensor n), V = C^N.

Basis states are tuples J = (j_1, ..., j_n) with letters in 1..N; site 1 is
the leftmost tensor factor and the linear index is big-endian,
index(J) = sum_k (j_k - 1) * N^(n-k).  Operators are stored as row-major
sparse maps of numerators over one common denominator (Python ints in the
exact domain, so a product or a whole linear combination runs in integer
arithmetic with one gcd pass), reduced and without explicit zeros; everything
is immutable after construction.  Scalars enter and leave as domain values.
"""
from __future__ import annotations

import functools
import itertools
import math

from .errors import (
    BadSite,
    BadWeight,
    DimensionMismatch,
    DomainMismatch,
    NonInvertibleQ,
    NotBlockDiagonal,
)
from .scalars import EXACT


def weight_of(state, N):
    """Occupation counts (M_1, ..., M_N) of the letters of a basis state."""
    counts = [0] * N
    for a in state:
        counts[a - 1] += 1
    return tuple(counts)


def enumerate_sector(N, n, weights):
    """All length-n states with letter a appearing weights[a-1] times, lex order."""
    weights = tuple(int(m) for m in weights)
    if len(weights) != N or any(m < 0 for m in weights) or sum(weights) != n:
        raise BadWeight(f"{weights} is not a weight of {n} sites with {N} colors")
    return [J for J in itertools.product(range(1, N + 1), repeat=n)
            if weight_of(J, N) == weights]


def all_sectors(N, n):
    """Every weight vector (M_1, ..., M_N) with sum n, lexicographic order:
    the weights of the sorted states, one per sector."""
    return sorted(weight_of(J, N) for J in
                  itertools.combinations_with_replacement(range(1, N + 1), n))


def inversion_length(state):
    """Number of pairs k < l with j_k > j_l.

    For a multi-index this equals the minimal number of adjacent
    transpositions needed to reach it from its sorted form.
    """
    n = len(state)
    return sum(
        1 for k in range(n) for l in range(k + 1, n) if state[k] > state[l]
    )


class Space:
    """The full space V^(tensor n) (sector=None) or one weight sector of it."""

    __slots__ = ("N", "n", "sector", "states", "dim", "_pos")

    def __init__(self, N, n, sector=None):
        if N < 1 or n < 1:
            raise ValueError(f"need N, n >= 1, got N={N}, n={n}")
        self.N = int(N)
        self.n = int(n)
        if sector is None:
            self.sector = None
            self.states = tuple(itertools.product(range(1, N + 1), repeat=n))
        else:
            self.sector = tuple(int(m) for m in sector)
            self.states = tuple(enumerate_sector(N, n, self.sector))
        self.dim = len(self.states)
        self._pos = {J: k for k, J in enumerate(self.states)}

    def index_of(self, state):
        return self._pos[state]

    def key(self):
        return (self.N, self.n, self.sector)

    def __eq__(self, other):
        return isinstance(other, Space) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.sector is None:
            return f"Space(N={self.N}, n={self.n})"
        return f"Space(N={self.N}, n={self.n}, sector={self.sector})"


_SPACES = functools.cache(Space)


@functools.cache
def _sector_positions(N, n, sector):
    """{full-space index: position in the sector} of a sector's states, built
    on the first request only; an index that is no key lies outside it."""
    full = shared_space(N, n)
    return {full.index_of(J): k for k, J in enumerate(shared_space(N, n, sector).states)}


def _nonzero(rows):
    """rows with no stored zero and no empty row, in place: a row is rebuilt
    only where it holds a zero, which almost no row does."""
    for r in [r for r, row in rows.items() if not row or 0 in row.values()]:
        row = {c: v for c, v in rows[r].items() if v != 0}
        if row:
            rows[r] = row
        else:
            del rows[r]
    return rows


def shared_space(N, n, sector=None):
    """The Space of (N, n, sector), built on the first request only and then
    shared: a Space is never changed after construction, and building one
    enumerates the N^n basis states."""
    return _SPACES(int(N), int(n), None if sector is None else tuple(map(int, sector)))


class ChainOperator:
    """Sparse linear operator on a Space over a fixed scalar domain.

    The matrix element sending basis column c to row r is
    ``domain.join(rows[r][c], den)``: ``rows`` holds numerators (Python ints
    in the exact domain) over one positive common denominator ``den``.  The
    storage is kept reduced: gcd(den, all numerators) = 1 and no stored
    zeros, so equal operators have equal (rows, den).  In the complex domain
    the numerators are the values and ``den`` is 1.  Values cross the
    interface (entry, entries, trace, apply_left, scaled, combination) as
    domain scalars; push_left, the kernel of apply_left, takes and returns a
    covector as (numerators, den), for a covector pushed through many
    operators in a row, and covector_residual compares two such pairs.
    """

    __slots__ = ("space", "domain", "rows", "den")

    def __init__(self, space, domain, rows, den=1):
        self.space = space
        self.domain = domain
        self.rows = rows
        self.den = den

    # ---------------------------------------------------------------- build
    @classmethod
    def from_numerators(cls, space, domain, rows, den):
        """Operator from nonzero numerators over den, divided by their
        common factor with den."""
        nums = itertools.chain.from_iterable(map(dict.values, rows.values()))
        g = domain.common(den, nums)
        if g != 1:
            den //= g
            rows = {r: {c: v // g for c, v in row.items()} for r, row in rows.items()}
        return cls(space, domain, rows, den)

    @classmethod
    def zero(cls, space, domain=EXACT):
        return cls(space, domain, {})

    @classmethod
    def identity(cls, space, domain=EXACT):
        (one,), _ = domain.split([domain.one])
        return cls(space, domain, {k: {k: one} for k in range(space.dim)})

    @classmethod
    def diagonal(cls, space, values, domain=EXACT):
        """Diagonal operator from a per-basis-state list of scalars."""
        nums, den = domain.split(list(values))
        return cls(space, domain,
                   {k: {k: v} for k, v in enumerate(nums) if v != 0}, den)

    @classmethod
    def from_entries(cls, space, entries, domain=EXACT):
        """Accumulate (row, col, value) triples, dropping zeros."""
        entries = list(entries)
        nums, den = domain.split([v for _, _, v in entries])
        rows = {}
        for (r, c, _), v in zip(entries, nums):
            acc = rows.setdefault(r, {})
            acc[c] = acc.get(c, 0) + v
        return cls.from_numerators(space, domain, _nonzero(rows), den)

    # ---------------------------------------------------------------- query
    def entry(self, r, c):
        v = self.rows.get(r, {}).get(c)
        return self.domain.zero if v is None else self.domain.join(v, self.den)

    def entries(self):
        join, den = self.domain.join, self.den
        for r, row in self.rows.items():
            for c, v in row.items():
                yield r, c, join(v, den)

    @property
    def nnz(self):
        return sum(len(row) for row in self.rows.values())

    def trace(self):
        t = 0
        for r, row in self.rows.items():
            v = row.get(r)
            if v is not None:
                t = t + v
        return self.domain.join(t, self.den)

    # -------------------------------------------------------------- algebra
    def _check_compat(self, other):
        if self.space.key() != other.space.key():
            raise DimensionMismatch(f"{self.space} vs {other.space}")
        if self.domain is not other.domain:
            raise DomainMismatch(f"{self.domain} vs {other.domain}")

    @staticmethod
    def combination(terms):
        """sum_k s_k A_k of a nonempty list of (scalar, operator) pairs on one
        space and domain, in one pass: the terms over one common denominator,
        their numerators summed in term order into one row map, one reduction.
        A complex entry is acc + s_k v as in a chain of sums; a factor 1 is skipped."""
        first = terms[0][1]
        dom, parts = first.domain, []
        for s, op in terms:
            first._check_compat(op)
            (p,), q = dom.split([s])
            if p != 0:
                parts.append((p, q * op.den, op.rows))
        den = math.lcm(*(d for _, d, _ in parts))
        out = {}
        for p, d, rows in parts:
            f = p * (den // d) if d != den else p
            for r, row in rows.items():
                acc = out.get(r)
                if acc is None:
                    out[r] = dict(row) if f == 1 else {c: v * f for c, v in row.items()}
                else:
                    for c, v in row.items():
                        acc[c] = acc.get(c, 0) + (v * f if f != 1 else v)
        return ChainOperator.from_numerators(first.space, dom, _nonzero(out), den)

    def __add__(self, other):
        one = self.domain.one
        return ChainOperator.combination([(one, self), (one, other)])

    def __sub__(self, other):
        one = self.domain.one
        return ChainOperator.combination([(one, self), (-one, other)])

    def __neg__(self):
        return ChainOperator.combination([(-self.domain.one, self)])

    def scaled(self, s):
        return ChainOperator.combination([(s, self)])

    def __matmul__(self, other):
        """Matrix product self . other (other is applied first)."""
        self._check_compat(other)
        orows = other.rows
        out = {}
        for r, arow in self.rows.items():
            acc = {}
            for k, v in arow.items():
                brow = orows.get(k)
                if brow is None:
                    continue
                for c, w in brow.items():
                    acc[c] = acc.get(c, 0) + v * w
            if 0 in acc.values():
                acc = {c: s for c, s in acc.items() if s != 0}
            if acc:
                out[r] = acc
        return ChainOperator.from_numerators(self.space, self.domain, out,
                                             self.den * other.den)

    def apply_left(self, cov):
        """Covector-matrix product cov . self."""
        out, den = self.push_left(*self.domain.split(cov))
        join = self.domain.join
        return [join(s, den) for s in out]

    def push_left(self, nums, cden):
        """cov . self on numerators: the covector nums / cden in, the product
        out as (numerators, den), divided by their common factor with den."""
        if len(nums) != self.space.dim:
            raise DimensionMismatch(f"covector of length {len(nums)} on {self.space}")
        out = [0] * self.space.dim
        for r, row in self.rows.items():
            w = nums[r]
            if w == 0:
                continue
            for c, v in row.items():
                out[c] += w * v
        den = self.den * cden
        g = self.domain.common(den, out)
        if g != 1:
            den //= g
            out = [s // g for s in out]
        return out, den

    def restrict(self, sector):
        """The block of a full-space operator on one weight sector.

        Raises NotBlockDiagonal if any stored entry couples the sector to
        its complement; entries entirely outside the sector are ignored.
        """
        space = self.space
        if space.sector is not None:
            raise DimensionMismatch("restrict expects a full-space operator")
        sub = shared_space(space.N, space.n, sector)
        pos = _sector_positions(space.N, space.n, sub.sector)
        rows = {}
        for r, row in self.rows.items():
            pr = pos.get(r)
            for c, v in row.items():
                pc = pos.get(c)
                if pr is not None and pc is not None:
                    rows.setdefault(pr, {})[pc] = v
                elif (pr is None) != (pc is None):
                    raise NotBlockDiagonal(
                        f"entry {space.states[r]} <- {space.states[c]} leaves "
                        f"sector {sub.sector}"
                    )
        return ChainOperator.from_numerators(sub, self.domain, rows, self.den)

    def trace_first_site(self):
        """Partial trace over tensor factor 1 of a full-space operator: the
        operator on the remaining n - 1 sites, renumbered from 1."""
        space = self.space
        if space.sector is not None or space.n < 2:
            raise DimensionMismatch(f"no first site to trace out of {space}")
        sub = shared_space(space.N, space.n - 1)
        rows = {}
        for r, row in self.rows.items():
            a, rr = divmod(r, sub.dim)  # site 1 is the leading digit
            acc = rows.setdefault(rr, {})
            for c, v in row.items():
                b, cc = divmod(c, sub.dim)
                if a == b:
                    acc[cc] = acc.get(cc, 0) + v
        return ChainOperator.from_numerators(sub, self.domain, _nonzero(rows), self.den)

    # ------------------------------------------------------------ compare
    def residual(self, other):
        """Largest entrywise deviation and the basis pair where it occurs."""
        self._check_compat(other)
        dom = self.domain
        join, da, db = dom.join, self.den, other.den
        worst = dom.residual(dom.zero, dom.zero)
        witness = None
        for r in set(self.rows) | set(other.rows):
            arow = self.rows.get(r, {})
            brow = other.rows.get(r, {})
            for c in set(arow) | set(brow):
                a, b = arow.get(c, 0), brow.get(c, 0)
                # equal numerators over one denominator deviate by exactly 0
                # (a - b, not a == b: inf - inf is NaN and must be measured)
                if da == db and a - b == 0:
                    continue
                d = dom.residual(join(a, da), join(b, db))
                if d > worst:
                    worst = d
                    witness = (self.space.states[r], self.space.states[c])
        return worst, witness

    def __eq__(self, other):
        if not isinstance(other, ChainOperator):
            return NotImplemented
        return self.residual(other)[0] <= self.domain.threshold

    __hash__ = None

    def __repr__(self):
        return f"ChainOperator({self.space!r}, nnz={self.nnz})"


# ------------------------------------------------------------------ covectors

def omega(space, domain=EXACT):
    """Covector with every component equal to 1 over the space's basis."""
    return [domain.one] * space.dim


def omega_q(space, q, domain=EXACT):
    """Covector whose component on J is q**inversion_length(J)."""
    if q == 0:
        raise NonInvertibleQ("q must be invertible")
    q = domain.coerce(q)
    return [q ** inversion_length(J) for J in space.states]


def covector_residual(u, v, space, domain=EXACT):
    """Largest componentwise deviation between two (numerators, den)
    covectors and its first state, by the entry rule of
    ChainOperator.residual: a value is formed only where entries differ."""
    (a, da), (b, db) = u, v
    if len(a) != space.dim or len(b) != space.dim:
        raise DimensionMismatch("covector length does not match the space")
    join, same = domain.join, da == db
    worst = domain.residual(domain.zero, domain.zero)
    witness = None
    for k, (x, y) in enumerate(zip(a, b)):
        # x - y, not x == y: inf - inf is NaN and must be measured
        if same and x - y == 0:
            continue
        d = domain.residual(join(x, da), join(y, db))
        if d > worst:
            worst = d
            witness = space.states[k]
    return worst, witness


# ----------------------------------------------------------------- embeddings

def _check_pair(space, i, j):
    if not (1 <= i <= space.n and 1 <= j <= space.n):
        raise BadSite(f"sites ({i}, {j}) outside 1..{space.n}")
    if i == j:
        raise BadSite(f"need two distinct sites, got ({i}, {j})")


def _one_site_columns(op, N):
    """Column map {b: [(a, value)]} of an N x N one-site matrix given as a
    dict keyed by 1-based (row, col) pairs."""
    cols = {}
    for (a, b), v in op.items():
        if not (1 <= a <= N and 1 <= b <= N):
            raise ValueError(f"matrix indices ({a}, {b}) outside 1..{N}")
        if v == 0:
            continue
        cols.setdefault(b, []).append((a, v))
    return cols


def site_embed(space, op, i, domain=EXACT):
    """Act with an N x N matrix {(row, col): value} on tensor factor i
    (1-based), identity elsewhere."""
    if space.sector is not None:
        raise DimensionMismatch("site_embed builds on the full space")
    if not (1 <= i <= space.n):
        raise BadSite(f"site {i} outside 1..{space.n}")
    cols = _one_site_columns(op, space.N)
    step = space.N ** (space.n - i)

    def entries():
        for ci, J in enumerate(space.states):
            b = J[i - 1]
            for a, v in cols.get(b, ()):
                yield ci + (a - b) * step, ci, v

    return ChainOperator.from_entries(space, entries(), domain)


def permutation(space, i, j, domain=EXACT):
    """Swap of the tensor factors at sites i and j."""
    one = domain.one
    return swap_embed(space, i, j, 0, one, (one, one), domain)


def q_permutation(space, i, j, q, domain=EXACT):
    """Deformed swap: letters (a at site i, b at site j) are exchanged with a
    factor q when a < b, 1/q when a > b, and 1 when a = b.

    Satisfies q_permutation(i, j, q) == q_permutation(j, i, 1/q).
    """
    _check_pair(space, i, j)
    if q == 0:
        raise NonInvertibleQ("q must be invertible")
    q = domain.coerce(q)
    return swap_embed(space, i, j, 0, domain.one, (q, 1 / q), domain)


def two_site_embed(space, i, j, table, domain=EXACT):
    """Operator acting on factors (i, j) from a table {((c, d), (a, b)): v}.

    The column pair (a, b) holds the letters at (site i, site j) and (c, d)
    their image; all other factors are untouched.
    """
    _check_pair(space, i, j)
    bycol = {}
    for ((c, d), (a, b)), v in table.items():
        if v != 0:
            bycol.setdefault((a, b), []).append(((c, d), v))

    def entries():
        for ci, J in enumerate(space.states):
            for (c, d), v in bycol.get((J[i - 1], J[j - 1]), ()):
                JJ = list(J)
                JJ[i - 1], JJ[j - 1] = c, d
                try:
                    ri = space.index_of(tuple(JJ))
                except KeyError:
                    raise NotBlockDiagonal(
                        f"image {tuple(JJ)} of {J} leaves sector {space.sector}"
                    ) from None
                yield ri, ci, v

    return ChainOperator.from_entries(space, entries(), domain)


def swap_embed(space, i, j, diagonal, fixed, swap, domain=EXACT):
    """Operator on the full space that keeps or exchanges the letters (a, b)
    at sites (i, j), built in one pass over the basis.

    A state keeps its letters with the weight `fixed` if a = b and
    `diagonal` otherwise; it is sent to (b, a) with the weight swap[0] if
    a < b and swap[1] if a > b.  Each basis state gives one row, in basis
    order: the weight that keeps its letters first, then the one that takes
    them from the swapped state.  Zeros, and rows left empty, are not stored.
    """
    _check_pair(space, i, j)
    if space.sector is not None:
        raise DimensionMismatch("swap_embed builds on the full space")
    (diagonal, fixed, up, down), den = domain.split([diagonal, fixed, *swap])
    step = space.N ** (space.n - i) - space.N ** (space.n - j)
    rows = {}
    for k, J in enumerate(space.states):
        a, b = J[i - 1], J[j - 1]
        if a == b:
            row = ((k, fixed),)
        else:
            row = ((k, diagonal), (k + (b - a) * step, up if b < a else down))
        row = {c: v for c, v in row if v != 0}
        if row:
            rows[k] = row
    return ChainOperator.from_numerators(space, domain, rows, den)
