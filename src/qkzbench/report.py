"""Structured pass/fail records shared by all identity checks."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of a single machine-checked identity.

    residual is a scalar magnitude (a Fraction in the exact domain, a float
    otherwise); it is exactly 0 for exact passes.  witness, when present,
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


def largest_residual(domain, comparisons):
    """The largest residual of a check's (residual, witness) comparisons,
    taken in order, and the witness of its first occurrence; the zero
    residual and no witness when none exceeds it."""
    worst, witness = domain.residual(domain.zero, domain.zero), None
    for res, wit in comparisons:
        if res > worst:
            worst, witness = res, wit
    return worst, witness


def verdict(name, domain, comparisons, params=None, sector=None):
    """The CheckResult of a check's comparisons: their largest residual
    (largest_residual) judged against the domain's threshold, with the
    witness kept on a failure only.  Every check of rmatrix, chain and
    verify ends here."""
    residual, witness = largest_residual(domain, comparisons)
    ok = residual <= domain.threshold
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
