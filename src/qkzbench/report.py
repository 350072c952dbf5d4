"""Structured pass/fail records shared by all identity checks."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class CheckResult:
    """Outcome of a single machine-checked identity.

    residual is a scalar magnitude: an exact Fraction, exactly 0 on a pass,
    for every identity, and a double for the correspondence.  witness, when present,
    points at the offending entry (typically a pair of basis states) or
    carries an error message.
    """

    name: str
    status: str
    residual: object
    params: dict = field(default_factory=dict)
    sector: tuple | None = None
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def largest_residual(comparisons):
    """The largest residual of a check's (residual, witness) comparisons,
    taken in order, and the witness of its first occurrence; an exact 0 and
    no witness when none exceeds it."""
    worst, witness = Fraction(0), None
    for res, wit in comparisons:
        if res > worst:
            worst, witness = res, wit
    return worst, witness


def verdict(name, comparisons, params=None, sector=None, threshold=0):
    """The CheckResult of a check's comparisons: their largest residual
    (largest_residual) judged against the threshold, with the witness kept
    on a failure only.  An exact identity holds at threshold 0; only the
    correspondence, a certified numerical bound, passes its tolerance.
    Every check of rmatrix, chain and verify ends here."""
    residual, witness = largest_residual(comparisons)
    ok = residual <= threshold
    return CheckResult(
        name=name,
        status="pass" if ok else "fail",
        residual=residual,
        params=dict(params or {}),
        sector=tuple(sector) if sector is not None else None,
        witness=None if ok else witness,
    )


def error_result(name, exc):
    """Record an exception as a failed check instead of aborting the suite."""
    return CheckResult(name=name, status="fail", residual=None,
                       witness=f"{type(exc).__name__}: {exc}")
