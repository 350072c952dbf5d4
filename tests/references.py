"""Per-state reference builds shared by the tests."""
from qkzbench.tensor import ChainOperator


def site_embed_reference(space, op, i):
    """An N x N matrix {(row, col): value}, diagonal or not, acting on tensor
    factor i (1-based) and as the identity elsewhere, built entry by entry
    and reduced by from_entries."""
    step = space.N ** (space.n - i)
    return ChainOperator.from_entries(space, (
        (ci + (a - b) * step, ci, v)
        for ci, J in enumerate(space.states)
        for (a, b), v in op.items() if b == J[i - 1]))


def state_diagonal_reference(space, value):
    """The diagonal operator with value(J) at each basis state J, built
    entry by entry and reduced by from_entries."""
    return ChainOperator.from_entries(
        space, ((k, k, value(J)) for k, J in enumerate(space.states)))
