"""Basis bookkeeping and sparse operator algebra on V^(tensor n), V = C^N.

Basis states are tuples J = (j_1, ..., j_n) with letters in 1..N; site 1 is
the leftmost tensor factor and the linear index is big-endian,
index(J) = sum_k (j_k - 1) * N^(n-k).  Operators are stored as row-major
sparse maps of Python-int numerators over one common denominator (so a
product or a whole linear combination runs in integer arithmetic with one gcd
pass), reduced and without explicit zeros; everything is immutable after
construction.  Scalars enter and leave as Fractions (or ints); split, join
and common convert between them and the stored numerators.

A general ChainOperator holds one dict of numerators per row.  A Factor,
the one form of every chain factor, holds per basis state one diagonal
numerator and one swap numerator sent to the partner state: for a two-site
factor (swap_embed: R, R~, P, P^q) the partner index comes from one table
per (N, n, i, j), and a diagonal operator (ChainOperator.diagonal: the
twists g_i through site_embed, the weight operators) has no swap weight and
is its own partner.  A Factor forms its rows only when general code reads
them.  A product with a Factor on the right spreads each row of the left
operand onto the diagonal and partner columns; any other product meets row
by row.  Both read the left operand through _iter_rows, so a Factor there
forms no rows.  push_left through a Factor is one list comprehension.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import (
    BadSite,
    BadWeight,
    DimensionMismatch,
    NonInvertibleQ,
    NotBlockDiagonal,
)


def split(values):
    """Integer numerators of values over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def join(num, den):
    """The value num / den: the one place a stored numerator becomes a Fraction."""
    return Fraction(num, den)


def common(den, nums):
    """gcd of the denominator and all the numerators."""
    return 1 if den == 1 else math.gcd(den, *nums)


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
    """The full space V^(tensor n) (sector=None) or one weight sector of it.

    There is one Space per (N, n, sector): the first request builds it,
    enumerating its states, and every later one returns that object, so
    operators share a space exactly when they hold the same object.  A Space
    is never changed after construction; a request that raises builds and
    keeps nothing."""

    __slots__ = ("N", "n", "sector", "states", "dim", "_pos")
    _built = {}

    def __new__(cls, N, n, sector=None):
        key = int(N), int(n), None if sector is None else tuple(map(int, sector))
        space = cls._built.get(key)
        if space is None:
            N, n, sector = key
            if N < 1 or n < 1:
                raise ValueError(f"need N, n >= 1, got N={N}, n={n}")
            if sector is None:
                states = itertools.product(range(1, N + 1), repeat=n)
            else:
                states = enumerate_sector(N, n, sector)
            space = super().__new__(cls)
            space.N, space.n, space.sector = key
            space.states = tuple(states)
            space.dim = len(space.states)
            space._pos = {J: k for k, J in enumerate(space.states)}
            cls._built[key] = space
        return space

    def index_of(self, state):
        return self._pos[state]

    def __repr__(self):
        if self.sector is None:
            return f"Space(N={self.N}, n={self.n})"
        return f"Space(N={self.N}, n={self.n}, sector={self.sector})"


@functools.cache
def _sector_positions(N, n, sector):
    """{full-space index: position in the sector} of a sector's states, built
    on the first request only; an index that is no key lies outside it."""
    full = Space(N, n)
    return {full.index_of(J): k for k, J in enumerate(Space(N, n, sector).states)}


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


class ChainOperator:
    """Sparse linear operator on a Space with exact rational entries.

    The matrix element sending basis column c to row r is
    ``Fraction(rows[r][c], den)``: ``rows`` holds Python-int numerators over
    one positive common denominator ``den``.  The storage is kept reduced:
    gcd(den, all numerators) = 1 and no stored zeros, so equal operators
    have equal (rows, den).  Values cross the interface (entry, entries,
    trace, apply_left, scaled, combination) as Fractions; push_left, the
    kernel of apply_left, takes and returns a covector as (numerators, den),
    for a covector pushed through many operators in a row, and
    covector_residual compares two such pairs.
    """

    __slots__ = ("space", "rows", "den")

    def __init__(self, space, rows, den=1):
        self.space = space
        self.rows = rows
        self.den = den

    # ---------------------------------------------------------------- build
    @classmethod
    def from_numerators(cls, space, rows, den):
        """Operator from nonzero numerators over den, divided by their
        common factor with den."""
        nums = itertools.chain.from_iterable(map(dict.values, rows.values()))
        g = common(den, nums)
        if g != 1:
            den //= g
            rows = {r: {c: v // g for c, v in row.items()} for r, row in rows.items()}
        return cls(space, rows, den)

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def identity(cls, space):
        return cls(space, {k: {k: 1} for k in range(space.dim)})

    @classmethod
    def diagonal(cls, space, values):
        """Diagonal operator from a per-basis-state list of scalars: a Factor
        with no swap weight.  split leaves the numerators reduced."""
        nums, den = split(list(values))
        return Factor(space, nums, [0] * space.dim, range(space.dim), den)

    @classmethod
    def from_entries(cls, space, entries):
        """Accumulate (row, col, value) triples, dropping zeros."""
        entries = list(entries)
        nums, den = split([v for _, _, v in entries])
        rows = {}
        for (r, c, _), v in zip(entries, nums):
            acc = rows.setdefault(r, {})
            acc[c] = acc.get(c, 0) + v
        return cls.from_numerators(space, _nonzero(rows), den)

    # ---------------------------------------------------------------- query
    def entry(self, r, c):
        v = self.rows.get(r, {}).get(c)
        return Fraction(0) if v is None else join(v, self.den)

    def entries(self):
        den = self.den
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
        return join(t, self.den)

    # -------------------------------------------------------------- algebra
    def _check_compat(self, other):
        if self.space is not other.space:
            raise DimensionMismatch(f"{self.space} vs {other.space}")

    @staticmethod
    def combination(terms):
        """sum_k s_k A_k of a nonempty list of (scalar, operator) pairs on one
        space, in one pass: the terms over one common denominator, their
        numerators summed in term order into one row map, one reduction."""
        first, parts = terms[0][1], []
        for s, op in terms:
            first._check_compat(op)
            if s != 0:
                parts.append((s.numerator, s.denominator * op.den, op.rows))
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
        return ChainOperator.from_numerators(first.space, _nonzero(out), den)

    def __add__(self, other):
        return ChainOperator.combination([(1, self), (1, other)])

    def __sub__(self, other):
        return ChainOperator.combination([(1, self), (-1, other)])

    def __neg__(self):
        return ChainOperator.combination([(-1, self)])

    def scaled(self, s):
        return ChainOperator.combination([(s, self)])

    def __matmul__(self, other):
        """Matrix product self . other (other is applied first).  A factor on
        the right multiplies by its own kernel; any other right operand meets
        the row-by-row kernel below."""
        self._check_compat(other)
        if isinstance(other, Factor):
            out = other._right_of(self)
        else:
            orows = other.rows
            out = {}
            for r, arow in self._iter_rows():
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
        return ChainOperator.from_numerators(self.space, out, self.den * other.den)

    def _iter_rows(self):
        """(row, {column: numerator}) of every stored row, in row order."""
        return self.rows.items()

    def apply_left(self, cov):
        """Covector-matrix product cov . self."""
        out, den = self.push_left(*split(cov))
        return [join(s, den) for s in out]

    def push_left(self, nums, cden):
        """cov . self on numerators: the covector nums / cden in, the product
        out as (numerators, den), divided by their common factor with den."""
        if len(nums) != self.space.dim:
            raise DimensionMismatch(f"covector of length {len(nums)} on {self.space}")
        out, den = self._push(nums), self.den * cden
        g = common(den, out)
        if g != 1:
            den //= g
            out = [s // g for s in out]
        return out, den

    def _push(self, nums):
        """The numerators of nums . self, over den times the covector's."""
        out = [0] * self.space.dim
        for r, row in self.rows.items():
            w = nums[r]
            if w == 0:
                continue
            for c, v in row.items():
                out[c] += w * v
        return out

    def restrict(self, sector):
        """The block of a full-space operator on one weight sector.

        Raises NotBlockDiagonal if any stored entry couples the sector to
        its complement; entries entirely outside the sector are ignored.
        """
        space = self.space
        if space.sector is not None:
            raise DimensionMismatch("restrict expects a full-space operator")
        sub = Space(space.N, space.n, sector)
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
        return ChainOperator.from_numerators(sub, rows, self.den)

    def trace_first_site(self):
        """Partial trace over tensor factor 1 of a full-space operator: the
        operator on the remaining n - 1 sites, renumbered from 1."""
        space = self.space
        if space.sector is not None or space.n < 2:
            raise DimensionMismatch(f"no first site to trace out of {space}")
        sub = Space(space.N, space.n - 1)
        rows = {}
        for r, row in self.rows.items():
            a, rr = divmod(r, sub.dim)  # site 1 is the leading digit
            acc = rows.setdefault(rr, {})
            for c, v in row.items():
                b, cc = divmod(c, sub.dim)
                if a == b:
                    acc[cc] = acc.get(cc, 0) + v
        return ChainOperator.from_numerators(sub, _nonzero(rows), self.den)

    # ------------------------------------------------------------ compare
    def residual(self, other):
        """Largest entrywise deviation and the basis pair where it occurs."""
        self._check_compat(other)
        da, db = self.den, other.den
        worst, witness = Fraction(0), None
        for r in set(self.rows) | set(other.rows):
            arow = self.rows.get(r, {})
            brow = other.rows.get(r, {})
            for c in set(arow) | set(brow):
                a, b = arow.get(c, 0), brow.get(c, 0)
                # equal numerators over one denominator deviate by exactly 0
                if da == db and a == b:
                    continue
                d = abs(join(a, da) - join(b, db))
                if d > worst:
                    worst = d
                    witness = (self.space.states[r], self.space.states[c])
        return worst, witness

    def __eq__(self, other):
        if not isinstance(other, ChainOperator):
            return NotImplemented
        return self.residual(other)[0] == 0

    __hash__ = None

    def __repr__(self):
        return f"ChainOperator({self.space!r}, nnz={self.nnz})"


# -------------------------------------------------------------------- factors

class Factor(ChainOperator):
    """A chain factor stored by its structure over one denominator: row k
    holds diag[k] at column k and swap[k] at column partner[k], the state
    with the letters of two sites exchanged (k itself, with swap[k] = 0,
    where they are equal).  Row k stores its own column first, then its
    partner's; a zero is no entry.  A diagonal factor has swap weights 0
    and the partner table range(dim).  ``rows`` is formed on the first
    read and then kept, equal to the reduced (rows, den) of the same
    entries; products (_iter_rows on the left, _right_of on the right) and
    pushes (_push) through a factor never read it."""

    __slots__ = ("diag", "swap", "partner", "_rows")

    def __init__(self, space, diag, swap, partner, den):
        self.space, self.den, self._rows = space, den, None
        self.diag, self.swap, self.partner = diag, swap, partner

    @property
    def rows(self):
        if self._rows is None:
            self._rows = dict(self._iter_rows())
        return self._rows

    def _iter_rows(self):
        for k, (d, s, p) in enumerate(zip(self.diag, self.swap, self.partner)):
            if s:
                yield k, {k: d, p: s} if d else {p: s}
            elif d:
                yield k, {k: d}

    def _right_of(self, a):
        """The rows of a . self: row k of self spreads a's entry at column k
        onto columns k and partner[k]."""
        diag, swap, partner = self.diag, self.swap, self.partner
        out = {}
        for r, arow in a._iter_rows():
            acc = {}
            for k, v in arow.items():
                d = diag[k]
                if d:
                    acc[k] = acc.get(k, 0) + v * d
                s = swap[k]
                if s:
                    p = partner[k]
                    acc[p] = acc.get(p, 0) + v * s
            if 0 in acc.values():
                acc = {c: v for c, v in acc.items() if v != 0}
            if acc:
                out[r] = acc
        return out

    def _push(self, nums):
        swap = self.swap
        return [w * d + nums[p] * swap[p] for w, d, p in zip(nums, self.diag, self.partner)]


# ------------------------------------------------------------------ covectors

def omega_q(space, q):
    """Covector whose component on J is q**inversion_length(J); at q = 1
    every component is 1 (<Omega|)."""
    if q == 0:
        raise NonInvertibleQ("q must be invertible")
    q = Fraction(q)
    return [q ** inversion_length(J) for J in space.states]


def covector_residual(u, v, space):
    """Largest componentwise deviation between two (numerators, den)
    covectors and its first state, by the entry rule of
    ChainOperator.residual: a value is formed only where entries differ."""
    (a, da), (b, db) = u, v
    if len(a) != space.dim or len(b) != space.dim:
        raise DimensionMismatch("covector length does not match the space")
    same, worst, witness = da == db, Fraction(0), None
    for k, (x, y) in enumerate(zip(a, b)):
        if same and x == y:
            continue
        d = abs(join(x, da) - join(y, db))
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


def site_embed(space, values, i):
    """Act with the diagonal N x N matrix of the N given values (the twist g
    itself) on tensor factor i (1-based), identity elsewhere: a diagonal
    Factor."""
    if space.sector is not None:
        raise DimensionMismatch("site_embed builds on the full space")
    if not (1 <= i <= space.n):
        raise BadSite(f"site {i} outside 1..{space.n}")
    N = space.N
    if len(values) != N:
        raise ValueError(f"{len(values)} diagonal values on a site with {N} colors")
    step = N ** (space.n - i)
    return ChainOperator.diagonal(space, [values[k // step % N] for k in range(space.dim)])


def permutation(space, i, j):
    """Swap of the tensor factors at sites i and j."""
    return swap_embed(space, i, j, 0, 1, (1, 1))


def q_permutation(space, i, j, q):
    """Deformed swap: letters (a at site i, b at site j) are exchanged with a
    factor q when a < b, 1/q when a > b, and 1 when a = b.

    Satisfies q_permutation(i, j, q) == q_permutation(j, i, 1/q).
    """
    _check_pair(space, i, j)
    if q == 0:
        raise NonInvertibleQ("q must be invertible")
    q = Fraction(q)
    return swap_embed(space, i, j, 0, 1, (q, 1 / q))


@functools.cache
def _swap_table(N, n, i, j):
    """(kind, partner) of every full-space state, by index: kind 0 if the
    letters (a, b) at sites (i, j) are equal, 1 if b < a, 2 if b > a, and
    partner the index of the state with a and b exchanged.  Built on the
    first request only, like _sector_positions, and shared by every factor
    on these sites."""
    step = N ** (n - i) - N ** (n - j)
    kind, partner = [], []
    for k, J in enumerate(Space(N, n).states):
        a, b = J[i - 1], J[j - 1]
        kind.append(0 if a == b else 1 if b < a else 2)
        partner.append(k + (b - a) * step)
    return kind, partner


def swap_embed(space, i, j, diagonal, fixed, swap):
    """Factor on the full space that keeps or exchanges the letters
    (a, b) at sites (i, j).

    A state keeps its letters with the weight `fixed` if a = b and
    `diagonal` otherwise; it is sent to (b, a) with the weight swap[0] if
    a < b and swap[1] if a > b.  The four weights go over one denominator
    once, reduced by the common factor of the ones that occur, and each
    state reads its two numerators by its kind in _swap_table.
    """
    _check_pair(space, i, j)
    if space.sector is not None:
        raise DimensionMismatch("swap_embed builds on the full space")
    (diagonal, fixed, up, down), den = split([diagonal, fixed, *swap])
    # letters that differ, and so the last three weights, need N > 1
    g = common(den, (fixed, diagonal, up, down) if space.N > 1 else (fixed,))
    fixed, diagonal, up, down = (v // g for v in (fixed, diagonal, up, down))
    kept, swapped = (fixed, diagonal, diagonal), (0, up, down)
    kind, partner = _swap_table(space.N, space.n, i, j)
    return Factor(space, [kept[t] for t in kind], [swapped[t] for t in kind],
                  partner, den // g)
