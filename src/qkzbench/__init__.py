"""Verification workbench for twisted inhomogeneous spin chains.

Builds the R-matrices, connection operators, Hamiltonians and transfer
matrices of the rational and trigonometric GL(N) chains over exact rational
scalars, machine-checks their operator identities with zero residual, and
verifies the spectral correspondence with the classical Ruijsenaars-type
Lax matrices numerically.
"""

from .chain import ModelConfig, hamiltonian, qkz_operator, transfer_matrix
from .scalars import Rational
from .tensor import ChainOperator, Space

__version__ = "0.1.0"

__all__ = [
    "ChainOperator",
    "ModelConfig",
    "Rational",
    "Space",
    "hamiltonian",
    "qkz_operator",
    "transfer_matrix",
    "__version__",
]
