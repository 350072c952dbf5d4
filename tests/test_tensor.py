import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzbench import tensor
from qkzbench.errors import (
    BadSite,
    BadWeight,
    DimensionMismatch,
    NonInvertibleQ,
    NotBlockDiagonal,
)
from qkzbench.tensor import (
    ChainOperator,
    Space,
    all_sectors,
    covector_residual,
    enumerate_sector,
    inversion_length,
    omega_q,
    permutation,
    q_permutation,
    join,
    site_embed,
    split,
    weight_of,
)
from references import site_embed_reference


# ----------------------------------------------------------------- sectors

def test_enumerate_sector_example():
    assert enumerate_sector(2, 3, (2, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_enumerate_sector_single_state():
    assert enumerate_sector(2, 2, (2, 0)) == [(1, 1)]


def test_enumerate_sector_against_bruteforce():
    # oracle: deduplicated permutations of the letter multiset
    got = enumerate_sector(3, 3, (1, 1, 1))
    oracle = sorted(set(itertools.permutations((1, 2, 3))))
    assert got == oracle
    assert len(got) == 6


def test_enumerate_sector_bad_weight():
    with pytest.raises(BadWeight):
        enumerate_sector(2, 3, (1, 1))
    with pytest.raises(BadWeight):
        enumerate_sector(2, 3, (2, 2))


@pytest.mark.parametrize("N,n", [(2, 2), (2, 4), (3, 3), (3, 4)])
def test_sector_dimensions_sum_to_full(N, n):
    full = ChainOperator.identity(Space(N, n))
    dims = [full.restrict(M).space.dim for M in all_sectors(N, n)]
    assert sum(dims) == N**n
    for M, dim in zip(all_sectors(N, n), dims):
        assert len(enumerate_sector(N, n, M)) == dim
        # the multinomial n! / (M_1! ... M_N!)
        assert dim == math.factorial(n) // math.prod(map(math.factorial, M))


# --------------------------------------------------------- inversion length

def _min_adjacent_swaps(state):
    """Oracle: BFS over adjacent transpositions from the sorted word."""
    start = tuple(sorted(state))
    target = tuple(state)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == target:
            return seen[cur]
        for k in range(len(cur) - 1):
            nxt = list(cur)
            nxt[k], nxt[k + 1] = nxt[k + 1], nxt[k]
            nxt = tuple(nxt)
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    raise AssertionError("unreachable permutation")


def test_inversion_length_examples():
    assert inversion_length((1, 2, 3)) == 0
    assert inversion_length((2, 1)) == 1
    assert inversion_length((2, 1, 2, 1)) == 3


@pytest.mark.parametrize("N,n", [(2, 4), (2, 5), (3, 4), (3, 5)])
def test_inversion_length_is_minimal_swap_count(N, n):
    for state in itertools.product(range(1, N + 1), repeat=n):
        assert inversion_length(state) == _min_adjacent_swaps(state)


# ----------------------------------------------------------------- operators

def test_site_embed_matrix_unit():
    # the diagonal unit E_22 at site 1 projects onto the states with letter
    # 2 there
    sp = Space(2, 2)
    op = site_embed(sp, [0, Fraction(1)], 1)
    for J in sp.states:
        k = sp.index_of(J)
        assert op.entry(k, k) == (J[0] == 2)
    assert op.nnz == 2


def test_site_embed_identity_and_diag():
    sp = Space(2, 2)
    assert site_embed(sp, [1, Fraction(1)], 2) == ChainOperator.identity(sp)
    op = site_embed(sp, (Fraction(2), Fraction(3)), 2)
    for J in sp.states:
        k = sp.index_of(J)
        assert op.entry(k, k) == (2 if J[1] == 1 else 3)


def test_site_embed_bad_site():
    sp = Space(2, 2)
    with pytest.raises(BadSite):
        site_embed(sp, [1, 1], 3)


def _apply(op, vec):
    """The matrix-vector product op . vec, read from the stored entries."""
    out = [Fraction(0)] * op.space.dim
    for r, c, v in op.entries():
        out[r] += v * vec[c]
    return out


def test_permutation_swap_and_involution():
    sp = Space(2, 2)
    P = permutation(sp, 1, 2)
    vec = [Fraction(0)] * sp.dim
    vec[sp.index_of((1, 2))] = Fraction(1)
    out = _apply(P, vec)
    assert out[sp.index_of((2, 1))] == 1
    assert P @ P == ChainOperator.identity(sp)


def test_swap_builds_need_the_full_space():
    # the two-site builders act on the full space, as site_embed does; a
    # sector block comes from restrict
    sp = Space(2, 3, (2, 1))
    with pytest.raises(DimensionMismatch):
        permutation(sp, 1, 2)
    with pytest.raises(DimensionMismatch):
        q_permutation(sp, 1, 2, Fraction(3, 2))
    with pytest.raises(DimensionMismatch):
        site_embed(sp, [1, 1], 1)


def test_permutation_fixes_omega():
    sp = Space(2, 3)
    w = split(omega_q(sp, Fraction(1)))
    for i, j in itertools.permutations(range(1, 4), 2):
        res, _ = covector_residual(permutation(sp, i, j).push_left(*w), w, sp)
        assert res == 0


def test_q_permutation_action():
    sp = Space(2, 2)
    q = Fraction(3, 2)
    Pq = q_permutation(sp, 1, 2, q)
    vec = [Fraction(0)] * sp.dim
    vec[sp.index_of((1, 2))] = Fraction(1)
    out = _apply(Pq, vec)
    assert out[sp.index_of((2, 1))] == q  # a < b picks up q
    vec = [Fraction(0)] * sp.dim
    vec[sp.index_of((2, 2))] = Fraction(1)
    assert _apply(Pq, vec)[sp.index_of((2, 2))] == 1


def test_q_permutation_is_involution():
    # the deformed swap squares to the identity: the q and 1/q factors cancel
    sp = Space(3, 2)
    Pq = q_permutation(sp, 1, 2, Fraction(3, 2))
    assert Pq @ Pq == ChainOperator.identity(sp)


@pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(-5, 7), Fraction(4)])
def test_q_permutation_index_reversal(q):
    sp = Space(3, 3)
    assert q_permutation(sp, 1, 3, q) == q_permutation(sp, 3, 1, 1 / q)


def test_q_permutation_rejects_zero_q():
    with pytest.raises(NonInvertibleQ):
        q_permutation(Space(2, 2), 1, 2, Fraction(0))


def test_q_permutation_at_one_is_permutation():
    sp = Space(2, 3)
    assert q_permutation(sp, 2, 3, Fraction(1)) == permutation(sp, 2, 3)


# ----------------------------------------------------------------- covectors

# <Omega| is <Omega_q| at q = 1

def test_omega_components():
    sp = Space(2, 2)
    assert omega_q(sp, Fraction(1)) == [Fraction(1)] * 4


def test_omega_on_sector():
    sp = Space(2, 3, (2, 1))
    assert omega_q(sp, Fraction(1)) == [Fraction(1)] * 3


def test_omega_q_components():
    sp = Space(2, 2)
    q = Fraction(5, 3)
    # inversion counts on (1,1),(1,2),(2,1),(2,2) are 0,0,1,0
    assert omega_q(sp, q) == [1, 1, q, 1]


def test_omega_q_at_one_is_omega():
    # every component is the exact 1, also from the inverted states
    sp = Space(2, 3)
    w = omega_q(sp, Fraction(1))
    assert w == [1] * sp.dim and all(type(v) is Fraction for v in w)


def test_omega_q_fixed_by_descending_q_swaps():
    sp = Space(2, 3)
    q = Fraction(2)
    wq = split(omega_q(sp, q))
    for i in (2, 3):
        out = q_permutation(sp, i, i - 1, q).push_left(*wq)
        res, _ = covector_residual(out, wq, sp)
        assert res == 0


# ------------------------------------------------------------------- algebra

def test_compose_with_identity():
    sp = Space(2, 2)
    P = permutation(sp, 1, 2)
    assert P @ ChainOperator.identity(sp) == P


def _random_sparse(sp, rng):
    entries = []
    for _ in range(6):
        entries.append(
            (
                rng.randrange(sp.dim),
                rng.randrange(sp.dim),
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
            )
        )
    return ChainOperator.from_entries(sp, entries)


def test_compose_associative_on_random_triples():
    sp = Space(2, 3)
    rng = random.Random(42)
    for _ in range(20):
        A, B, C = (_random_sparse(sp, rng) for _ in range(3))
        assert (A @ B) @ C == A @ (B @ C)


def test_add_scale_and_apply_left():
    sp = Space(2, 2)
    P = permutation(sp, 1, 2)
    ident = ChainOperator.identity(sp)
    assert (P + P) == P.scaled(Fraction(2))
    assert not (P - P).rows
    w = omega_q(sp, Fraction(1))
    assert P.apply_left(w) == w


def test_dimension_mismatch_raises():
    A = ChainOperator.identity(Space(2, 2))
    B = ChainOperator.identity(Space(2, 3))
    with pytest.raises(DimensionMismatch):
        A @ B
    with pytest.raises(DimensionMismatch):
        B.apply_left([Fraction(1)] * 4)
    with pytest.raises(DimensionMismatch):
        B.push_left([1] * 4, 1)


# ------------------------------------------------------------------ restrict

def _count_operator(sp, a):
    values = [Fraction(J.count(a)) for J in sp.states]
    return ChainOperator.diagonal(sp, values)


def test_restrict_weight_operator_is_scalar():
    sp = Space(2, 3)
    M = (2, 1)
    op = _count_operator(sp, 1).restrict(M)
    sub = Space(2, 3, M)
    assert op == ChainOperator.identity(sub).scaled(Fraction(2))


def test_restrict_identity():
    sp = Space(3, 2)
    M = (1, 1, 0)
    sub = Space(3, 2, M)
    assert ChainOperator.identity(sp).restrict(M) == ChainOperator.identity(sub)
    assert sub.dim == 2


def test_restrict_shares_one_space_per_sector():
    full = ChainOperator.identity(Space(2, 3))
    sub = Space(2, 3, [2, 1])
    assert sub is Space(2, 3, (2, 1))
    assert full.restrict((2, 1)).space is sub
    assert full.restrict([2, 1]).space is sub


def test_one_space_per_key():
    # N and n become ints and the sector a tuple before the lookup
    assert Space(2, 3, [2, 1]) is Space(2, 3, (2, 1)) is Space(2.0, 3, (2.0, 1))
    assert Space(2, 3) is Space(2, 3, None) is not Space(2, 3, (2, 1))
    # operators built on two separate requests multiply and compare
    A = permutation(Space(2, 3), 1, 3)
    B = ChainOperator.identity(Space(2, 3))
    assert A @ A == B and (A @ B).residual(A) == (0, None)
    with pytest.raises(DimensionMismatch):
        A @ ChainOperator.identity(Space(2, 3, (2, 1)))


@pytest.mark.parametrize("key,error", [((2, 3, (2, 2)), BadWeight),
                                       ((2, 3, (3, 1, 0)), BadWeight),
                                       ((0, 3), ValueError), ((2, 0), ValueError)])
def test_a_refused_space_is_not_kept(key, error):
    built = dict(Space._built)
    for _ in range(2):
        with pytest.raises(error):
            Space(*key)
        assert Space._built == built


def test_restrict_raising_operator_fails():
    sp = Space(2, 2)
    raising = site_embed_reference(sp, {(1, 2): Fraction(1)}, 1)
    with pytest.raises(NotBlockDiagonal):
        raising.restrict((1, 1))


def test_weight_of():
    assert weight_of((1, 1, 2), 2) == (2, 1)
    assert weight_of((3, 1, 3), 3) == (1, 0, 2)


small_states = st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple)


@settings(max_examples=60)
@given(small_states)
def test_inversion_length_property(state):
    assert inversion_length(state) == _min_adjacent_swaps(state)


def test_covector_residual_forms_values_only_where_entries_differ(monkeypatch):
    sp = Space(2, 3)
    w = split([Fraction(k + 1, 3) for k in range(sp.dim)])
    joined = []
    monkeypatch.setattr(tensor, "join", lambda num, den: joined.append(num) or join(num, den))
    assert covector_residual(w, (list(w[0]), w[1]), sp) == (0, None)
    assert joined == []
    # one numerator differs: only that entry is formed, on both sides
    nums = list(w[0])
    nums[5] += 1
    assert covector_residual(w, (nums, w[1]), sp) == (Fraction(1, 3), sp.states[5])
    assert joined == [w[0][5], nums[5]]
    # a denominator alone differs: every entry is measured, and the first
    # state of the largest deviation is the witness
    res, witness = covector_residual(w, (w[0], 2 * w[1]), sp)
    assert (res, witness) == (Fraction(4, 3), sp.states[7])
    with pytest.raises(DimensionMismatch):
        covector_residual(w, (w[0][1:], w[1]), sp)


# ------------------------------------- numerators over a common denominator
# Each operator result is compared with a plain dict-of-Fraction reference
# and checked for the reduced storage: den >= 1, gcd(den, numerators) = 1,
# integer numerators, no stored zeros and no empty rows.

SP3 = Space(2, 3)
fractions_st = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
entries_st = st.lists(
    st.tuples(st.integers(0, SP3.dim - 1), st.integers(0, SP3.dim - 1), fractions_st),
    max_size=12)
covector_st = st.lists(fractions_st, min_size=SP3.dim, max_size=SP3.dim)


def _reference(entries):
    ref = {}
    for r, c, v in entries:
        ref[(r, c)] = ref.get((r, c), 0) + v
    return {k: v for k, v in ref.items() if v != 0}


def _values(op):
    """The entries of op as a dict, after asserting its reduced storage."""
    nums = [v for row in op.rows.values() for v in row.values()]
    assert type(op.den) is int and op.den >= 1
    assert all(type(v) is int and v != 0 for v in nums)
    assert all(op.rows.values())
    assert math.gcd(op.den, *nums) == 1
    out = {(r, c): v for r, c, v in op.entries()}
    assert all(type(v) is Fraction for v in out.values())
    return out


def _product(a, b):
    out = {}
    for (r, k), v in a.items():
        for (k2, c), w in b.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), 0) + v * w
    return {key: v for key, v in out.items() if v != 0}


@settings(max_examples=80, deadline=None)
@given(entries_st, entries_st, fractions_st)
def test_exact_algebra_matches_fraction_reference(ea, eb, s):
    A = ChainOperator.from_entries(SP3, ea)
    B = ChainOperator.from_entries(SP3, eb)
    a, b = _reference(ea), _reference(eb)
    assert _values(A) == a and _values(B) == b
    assert _values(A @ B) == _product(a, b)
    keys = set(a) | set(b)
    total = {k: a.get(k, 0) + b.get(k, 0) for k in keys}
    diff = {k: a.get(k, 0) - b.get(k, 0) for k in keys}
    assert _values(A + B) == {k: v for k, v in total.items() if v != 0}
    assert _values(A - B) == {k: v for k, v in diff.items() if v != 0}
    assert _values(A.scaled(s)) == {k: s * v for k, v in a.items() if s * v != 0}
    assert _values(-A) == {k: -v for k, v in a.items()}
    assert A.trace() == sum((v for (r, c), v in a.items() if r == c), Fraction(0))
    for r in range(SP3.dim):
        for c in range(SP3.dim):
            assert A.entry(r, c) == a.get((r, c), 0)


@settings(max_examples=80, deadline=None)
@given(entries_st, entries_st)
def test_exact_sums_that_cancel(ea, extra):
    A = ChainOperator.from_entries(SP3, ea)
    negated = [(r, c, -v) for r, c, v in ea]
    B = ChainOperator.from_entries(SP3, negated + extra)
    # A + B leaves only the extra entries; A - A and A + (-A) are zero
    assert _values(A + B) == _reference(extra)
    for Z in (A - A, A + (-A), A.scaled(Fraction(0))):
        assert _values(Z) == {} and Z.rows == {} and Z.den == 1
    # halves that add up to integers give denominator 1
    half = ChainOperator.from_entries(SP3, [(r, c, v / 2) for r, c, v in ea])
    whole = half + half
    assert _values(whole) == _values(A) and whole.den == A.den


@settings(max_examples=80, deadline=None)
@given(entries_st, covector_st, covector_st)
def test_exact_apply_and_apply_left_match_reference(ea, vec, cov):
    A = ChainOperator.from_entries(SP3, ea)
    a = _reference(ea)
    got = _apply(A, vec)
    assert all(type(v) is Fraction for v in got)
    assert got == [sum((v * vec[c] for (r2, c), v in a.items() if r2 == r),
                       Fraction(0)) for r in range(SP3.dim)]
    got = A.apply_left(cov)
    assert all(type(v) is Fraction for v in got)
    assert got == [sum((cov[r] * v for (r, c2), v in a.items() if c2 == c),
                       Fraction(0)) for c in range(SP3.dim)]


# ------------------------------------------------------ linear combinations

@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(fractions_st, entries_st), min_size=1, max_size=4))
def test_combination_matches_fraction_reference(terms):
    # each term has its own denominator, and a zero scalar drops its term
    ops = [(s, ChainOperator.from_entries(SP3, ea)) for s, ea in terms]
    want = {}
    for s, ea in terms:
        for key, v in _reference(ea).items():
            want[key] = want.get(key, 0) + s * v
    got = ChainOperator.combination(ops)
    assert _values(got) == {k: v for k, v in want.items() if v != 0}
    assert ChainOperator.combination([(Fraction(0), A) for _, A in ops]).rows == {}


def test_combination_over_mixed_denominators():
    sp = Space(2, 2)
    A = ChainOperator.from_entries(sp, [(0, 0, Fraction(1, 3)), (1, 2, Fraction(5, 4))])
    B = ChainOperator.from_entries(sp, [(0, 0, Fraction(1, 6)), (3, 3, Fraction(2, 7))])
    C = ChainOperator.combination([(Fraction(2, 5), A), (Fraction(-3, 2), B),
                                   (Fraction(0), A)])
    assert _values(C) == {(0, 0): Fraction(-7, 60), (1, 2): Fraction(1, 2),
                          (3, 3): Fraction(-3, 7)}
    assert C.den == 420


def test_combination_cancelling_to_zero_stores_nothing():
    sp = Space(2, 2)
    A = ChainOperator.from_entries(sp, [(0, 1, Fraction(2, 3)), (2, 2, Fraction(1, 9))])
    Z = ChainOperator.combination([(Fraction(3), A), (Fraction(-1), A.scaled(3))])
    assert Z.rows == {} and Z.den == 1 and Z == ChainOperator.zero(sp)


def test_no_stored_zero_after_cancelling_products_and_sums():
    sp = Space(2, 2)
    # row 0 of A @ B cancels entirely, entry (1, 0) cancels in a kept row
    A = ChainOperator.from_entries(sp, [(0, 0, Fraction(1)), (0, 1, Fraction(1)),
                                        (1, 0, Fraction(2)), (1, 1, Fraction(-1)),
                                        (1, 2, Fraction(1))])
    B = ChainOperator.from_entries(sp, [(0, 0, Fraction(1)), (1, 0, Fraction(-1)),
                                        (2, 0, Fraction(1)), (2, 3, Fraction(5))])
    AB = A @ B
    assert _values(AB) == {(1, 0): Fraction(4), (1, 3): Fraction(5)}
    assert 0 not in AB.rows
    # a sum that cancels one row and one entry of another
    C = ChainOperator.from_entries(sp, [(1, 0, Fraction(-4)), (3, 3, Fraction(1))])
    S = AB + C
    assert _values(S) == {(1, 3): Fraction(5), (3, 3): Fraction(1)}
    assert S.rows == {1: {3: 5}, 3: {3: 1}}
    D = ChainOperator.from_entries(sp, [(1, 3, Fraction(-5))])
    assert (S + D).rows == {3: {3: 1}}
    # entries that cancel while they are accumulated
    E = ChainOperator.from_entries(sp, [(2, 1, Fraction(1, 2)), (2, 1, Fraction(-1, 2)),
                                        (0, 0, Fraction(0)), (3, 0, Fraction(1))])
    assert E.rows == {3: {0: 1}}


def test_combination_needs_one_space_and_one_domain():
    sp = Space(2, 2)
    A = ChainOperator.identity(sp)
    one = Fraction(1)
    with pytest.raises(DimensionMismatch):
        ChainOperator.combination([(one, A), (one, ChainOperator.identity(Space(2, 3)))])
    with pytest.raises(DimensionMismatch):
        ChainOperator.combination([(one, A), (Fraction(0), ChainOperator.identity(Space(3, 2)))])
    # int and Fraction scalars are one domain: an int factor is its Fraction
    B = site_embed_reference(sp, {(1, 2): Fraction(3, 4)}, 1)
    got = ChainOperator.combination([(2, A), (-1, B)])
    want = ChainOperator.combination([(Fraction(2), A), (Fraction(-1), B)])
    assert (got.rows, got.den) == (want.rows, want.den)


# dyadic values keep every denominator a power of two
dyadic_st = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4]))
PUSH_CASES = {"exact": fractions_st, "dyadic": dyadic_st}


@pytest.mark.parametrize("case", PUSH_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_push_left_matches_reference_and_stays_reduced(case, data):
    values = PUSH_CASES[case]
    entries = st.lists(st.tuples(st.integers(0, SP3.dim - 1),
                                 st.integers(0, SP3.dim - 1), values), max_size=12)
    ops = data.draw(st.lists(entries, min_size=1, max_size=3))
    ref = data.draw(st.lists(values, min_size=SP3.dim, max_size=SP3.dim))
    cov = split(ref)
    for ea in ops:
        a = _reference(ea)
        A = ChainOperator.from_entries(SP3, ea)
        cov = A.push_left(*cov)
        ref = [sum((ref[r] * v for (r, c2), v in a.items() if c2 == c), Fraction(0))
               for c in range(SP3.dim)]
        nums, den = cov
        assert type(den) is int and den > 0
        assert all(type(v) is int for v in nums)
        assert math.gcd(den, *nums) == 1
        assert [join(v, den) for v in nums] == ref


@settings(max_examples=60, deadline=None)
@given(entries_st, st.sampled_from(all_sectors(2, 3)))
def test_exact_restrict_matches_reference(ea, sector):
    # keep the block-diagonal entries, so every sector can be restricted to
    weight = [weight_of(J, 2) for J in SP3.states]
    ea = [(r, c, v) for r, c, v in ea if weight[r] == weight[c]]
    A = ChainOperator.from_entries(SP3, ea)
    sub = Space(2, 3, sector)
    pos = {SP3.index_of(J): k for k, J in enumerate(sub.states)}
    want = {(pos[r], pos[c]): v for (r, c), v in _reference(ea).items()
            if r in pos and c in pos}
    assert _values(A.restrict(sector)) == want


@settings(max_examples=60, deadline=None)
@given(entries_st)
def test_exact_trace_first_site_matches_reference(ea):
    A = ChainOperator.from_entries(SP3, ea)
    sub = Space(2, 2)
    want = {}
    for (r, c), v in _reference(ea).items():
        (a, *rest), (b, *cest) = SP3.states[r], SP3.states[c]
        if a == b:
            key = (sub.index_of(tuple(rest)), sub.index_of(tuple(cest)))
            want[key] = want.get(key, 0) + v
    traced = A.trace_first_site()
    assert traced.space == sub
    assert _values(traced) == {k: v for k, v in want.items() if v != 0}


def test_trace_first_site_of_a_product_state_operator():
    # tr_1 (A (x) I (x) B) = tr(A) I (x) B
    A = {(1, 1): Fraction(2), (1, 2): Fraction(5), (2, 2): Fraction(-1, 3)}
    B = {(1, 2): Fraction(7), (2, 1): Fraction(1, 2)}
    sp = Space(2, 3)
    op = site_embed_reference(sp, A, 1) @ site_embed_reference(sp, B, 3)
    want = site_embed_reference(Space(2, 2), B, 2).scaled(Fraction(5, 3))
    assert op.trace_first_site() == want
    with pytest.raises(DimensionMismatch):
        ChainOperator.identity(Space(2, 1)).trace_first_site()
    with pytest.raises(DimensionMismatch):
        ChainOperator.identity(Space(2, 3, (2, 1))).trace_first_site()


def test_values_cross_the_interface_as_domain_scalars():
    # the joint eigensolver reads entry() of one-dimensional sectors and the
    # benchmark's tracer counts the bits of Fraction entries(): both need
    # Fraction values, even for int input
    sp = Space(2, 2)
    op = ChainOperator.from_entries(sp, [(0, 1, Fraction(3, 4)), (3, 3, -2)])
    vec = [Fraction(k + 1, 5) for k in range(sp.dim)]
    values = [op.entry(0, 1), op.entry(1, 2), op.trace(),
              ChainOperator.zero(sp).trace(), ChainOperator.identity(sp).entry(1, 1)]
    values += [v for _, _, v in op.entries()] + op.apply_left(vec) + op.apply_left([1] * 4)
    assert all(type(v) is Fraction for v in values)


# ------------------------------------------------------- structured factors
# The per-state builds that swap_embed, ChainOperator.diagonal and site_embed
# replace, kept as references: one row dict per basis state, reduced by
# from_numerators or from_entries (site_embed_reference, in references.py).

def _swap_embed_reference(space, i, j, diagonal, fixed, swap):
    (diagonal, fixed, up, down), den = split([diagonal, fixed, *swap])
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
    return ChainOperator.from_numerators(space, rows, den)


def _layout(op):
    """den and the rows in storage order, each row in its entry order."""
    return op.den, [(r, list(row.items())) for r, row in op.rows.items()]


def _general(op):
    """The same rows and den held by a general ChainOperator."""
    return ChainOperator(op.space, op.rows, op.den)


# zeros come often: a zero weight drops entries and can empty a row
weights_st = st.one_of(st.just(Fraction(0)), fractions_st)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), N=st.sampled_from([1, 2, 3]), n=st.sampled_from([2, 3, 4]))
def test_structured_factors_and_kernels_match_the_per_state_references(data, N, n):
    sp = Space(N, n)
    i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
    diagonal, fixed, up, down = (data.draw(weights_st) for _ in range(4))
    twist = [data.draw(weights_st) for _ in range(N)]
    table = {(a, a): v for a, v in enumerate(twist, start=1)}
    entries = st.lists(st.tuples(st.integers(0, sp.dim - 1), st.integers(0, sp.dim - 1),
                                 fractions_st), max_size=3 * sp.dim)
    A = ChainOperator.from_entries(sp, data.draw(entries))
    B = ChainOperator.from_entries(sp, data.draw(entries))
    cov = split(data.draw(st.lists(weights_st, min_size=sp.dim, max_size=sp.dim)))
    values = data.draw(st.lists(weights_st, min_size=sp.dim, max_size=sp.dim))
    cases = [(tensor.swap_embed(sp, i, j, diagonal, fixed, (up, down)),
              _swap_embed_reference(sp, i, j, diagonal, fixed, (up, down))),
             # r_rational at x = 0 is the plain swap, with no diagonal weight
             (permutation(sp, i, j), _swap_embed_reference(sp, i, j, 0, 1, (1, 1))),
             (tensor.swap_embed(sp, i, j, diagonal, fixed, (0, 0)),
              _swap_embed_reference(sp, i, j, diagonal, fixed, (0, 0))),
             (site_embed(sp, twist, i), site_embed_reference(sp, table, i)),
             (ChainOperator.diagonal(sp, values),
              ChainOperator.from_entries(sp, [(k, k, v) for k, v in enumerate(values)]))]
    for F, ref in cases:
        G = site_embed(sp, twist, j)
        # a factor on either side is read through its structure: no rows formed
        got = [A @ F, F @ B, F @ G, G @ F, F @ F, F.push_left(*cov)]
        assert F._rows is None and G._rows is None
        want = [A @ _general(F), _general(F) @ B, _general(F) @ _general(G),
                _general(G) @ _general(F), _general(F) @ _general(F),
                _general(F).push_left(*cov)]
        assert _layout(F) == _layout(ref)
        for P, Q in zip(got[:5], want[:5]):
            assert type(P) is ChainOperator and _layout(P) == _layout(Q)
        assert got[5] == want[5]
        assert (F.nnz, F.trace(), F == ref) == (ref.nnz, ref.trace(), True)
    # the twists and diagonal operators are factors without a swap weight
    for F, _ in cases[3:]:
        assert type(F) is tensor.Factor and F.partner == range(sp.dim)
        assert not any(F.swap)


def test_site_embed_takes_only_a_diagonal_matrix():
    # the matrix is its N diagonal values, g itself; N - 1 or N + 1 of them
    # is no matrix on a site
    for N in (1, 2, 3):
        sp = Space(N, 2)
        for values in ([Fraction(2)] * (N - 1), [Fraction(2)] * (N + 1)):
            with pytest.raises(ValueError, match=f"{len(values)} diagonal values"):
                site_embed(sp, values, 2)
    # a zero value is no entry
    sp = Space(2, 3)
    op = site_embed(sp, [0, Fraction(5)], 2)
    assert type(op) is tensor.Factor
    assert _layout(op) == _layout(site_embed_reference(sp, {(2, 2): Fraction(5)}, 2))


def test_factors_on_one_pair_of_sites_share_one_partner_table():
    sp = Space(3, 3)
    F = tensor.swap_embed(sp, 1, 3, Fraction(1, 2), 1, (2, 3))
    assert F.partner is permutation(sp, 1, 3).partner
    assert F.partner is not permutation(sp, 3, 1).partner
