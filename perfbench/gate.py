"""Correctness gate: judge one JSON report of ``workbench verify``.

The gate compares meaning, not bytes.  A result fails if its status is not
``pass``, if an exact residual is not ``"0"``, or if a float residual is not
``<= tol`` (so NaN fails).  Each check must appear exactly as often, and on
exactly the sectors, that (flavor, N, n, mode) imply; every missing or extra
result counts as attempted and failed.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement


def all_sectors(N, n):
    """Every weight (M_1, ..., M_N) with sum n; worked out here, not taken
    from the program under test."""
    out = set()
    for combo in combinations_with_replacement(range(N), n):
        out.add(tuple(combo.count(a) for a in range(N)))
    return sorted(out)


def expected_counts(flavor, N, n, mode):
    """Expected number of results per (check name, sector) for a full run."""
    rational = flavor == "rational"
    exp = Counter()
    for name in ("ybe", "unitarity", "twist-commute", "transfer-commute",
                 "pole-expansion", "sum-rule", "omega"):
        exp[(name, None)] = 1
    exp[("qkz-compat", None)] = n * (n - 1) // 2
    exp[("k-projection", None)] = n
    exp[("proposition-higher", None)] = 2 ** n - 1
    for M in all_sectors(N, n):
        if rational:
            exp[("det-identity", M)] = 1
            exp[("symmetric-identity", M)] = n
        exp[("macdonald-eigenvalue", M)] = n if rational else 1
        if mode == "float":
            exp[("correspondence", M)] = 1
    return exp


@dataclass
class Verdict:
    attempted: int
    failed: int
    residual_max: float  # largest finite residual (0.0 if all are exact)

    @property
    def fail_frac(self):
        return self.failed / self.attempted


def _bad(result, mode, tol):
    if result.get("status") != "pass":
        return True
    res = result.get("residual")
    if mode == "exact":
        return res != "0"
    # float mode: a number within tol; NaN compares false and so fails
    if isinstance(res, bool) or not isinstance(res, (int, float)):
        return True
    return not (res <= tol)


def _as_float(res):
    """A reported residual as a float (Fraction text in exact mode), or NaN
    if there is none: an error result carries no residual."""
    if isinstance(res, (int, float)) and not isinstance(res, bool):
        return float(res)
    try:
        return float(Fraction(res))
    except (TypeError, ValueError, ZeroDivisionError):
        return math.nan


def judge(report_text, exit_code, expected, mode, tol=None):
    """Verdict for one run: report_text is the JSON the command printed."""
    total = sum(expected.values())
    try:
        doc = json.loads(report_text)
        results = doc["results"]
        keyed = [((r["name"], tuple(r["sector"]) if r.get("sector") else None), r)
                 for r in results]
    except (ValueError, KeyError, TypeError):
        return Verdict(total, total, 0.0)
    seen = Counter(k for k, _ in keyed)
    bad = Counter(k for k, r in keyed if _bad(r, mode, tol))
    attempted = failed = 0
    for key in set(expected) | set(seen):
        e, s = expected.get(key, 0), seen.get(key, 0)
        attempted += max(e, s)
        failed += min(max(e, s), bad.get(key, 0) + abs(e - s))
    if exit_code != 0:
        failed = max(failed, 1)
    residuals = (_as_float(r.get("residual")) for _, r in keyed)
    residual_max = max((v for v in residuals if math.isfinite(v)), default=0.0)
    return Verdict(attempted, failed, residual_max)
