"""Command-line front end: flat-text configs, check orchestration, reports.

Config files are flat ``key = value`` text with ``[a, b, c]`` lists and no
nesting; rationals are written ``p/q``.  Keys: model, N, n, eta, hbar, x
(rational flavor) or u, t, h (trigonometric flavor), g, seed, tol, mode;
tol must be finite and positive.  A key of the other flavor is an error.

Every identity check runs on the exact chain in both modes; mode = float
adds the correspondence, whose classical Lax spectra are the one numerical
check, to "all", a run that names it runs it in either mode, and tol gates
that check only.  A float-mode JSON report writes each residual as a double.

Exit codes: 0 every check passed, 1 at least one failed, 2 the command could
not run: a config error, a workbench error outside any single check, or no
memory left, 3 the eigensolver of `spectrum` or `correspond` could not
resolve a joint spectrum or did not converge.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import chain, rmatrix, verify
from .chain import ModelConfig
from .errors import (
    DegeneracyUnresolved,
    GenericPositionViolation,
    NonConvergence,
    NonPositiveTolerance,
    ParseError,
    WorkbenchError,
)
from .report import error_result, verdict
from .scalars import require_tolerance, to_double
from .tensor import all_sectors

_RATIONAL_ONLY = {"det-identity", "symmetric-identity"}


class RunConfig:
    def __init__(self, model, checks, sectors, tol=1e-10, seed=0, mode="exact"):
        # sectors: "all" or a list of weight tuples
        self.model, self.checks, self.sectors = model, checks, sectors
        self.tol, self.seed, self.mode = tol, seed, mode


class RunReport:
    def __init__(self, config, results=None, timings=None):
        self.config = config
        self.results = [] if results is None else results
        self.timings = [] if timings is None else timings  # millis, parallel to results

    @property
    def overall(self):
        # an empty check list passes vacuously
        return "pass" if all(r.passed for r in self.results) else "fail"


# ------------------------------------------------------------------- parsing

# each flavor's coupling and step are scalars, its points a list
_SCALAR_KEYS = {key for keys in chain.PARAMETERS.values() for key in keys[:2]}
_LIST_KEYS = {"g", *(keys[2] for keys in chain.PARAMETERS.values())}
_INT_KEYS = {"N", "n", "seed"}


def parse_int(text):
    """Every integer of the command line: ASCII digits after an optional "-",
    blanks stripped; int() would also take "1_0", "+1" and non-ASCII digits."""
    body = text.strip()
    digits = body[1:] if body.startswith("-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(body)


def _parse_value(key, text, line):
    try:
        if key in _INT_KEYS:
            return parse_int(text)
        if key == "tol":
            return float(text)
        if key in ("model", "mode"):
            return text
        if key in _SCALAR_KEYS:
            return Fraction(text)
        if key in _LIST_KEYS:
            body = text.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise ValueError("expected a [ ... ] list")
            inner = body[1:-1].strip()
            if not inner:
                return []
            return [Fraction(part.strip()) for part in inner.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad value for {key!r}: {exc}", line=line) from None
    raise ParseError(f"unknown key {key!r}", line=line)


def load_config(path):
    """Parse and validate a flat key = value config file into a RunConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}") from None
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        raw[key] = _parse_value(key, value, lineno)

    def need(key):
        if key not in raw:
            raise ParseError(f"missing key {key!r}")
        return raw[key]

    model = need("model")
    if model not in chain.PARAMETERS:
        raise ParseError(f"model must be rational or trigonometric, got {model!r}")
    for flavor, keys in chain.PARAMETERS.items():
        for key in keys:
            if flavor != model and key in raw:
                raise ParseError(f"key {key!r} belongs to the {flavor} flavor, "
                                 f"not to a {model} config")
    N, n = need("N"), need("n")
    g = need("g")
    tol = require_tolerance(raw.get("tol", 1e-10))
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ParseError(f"mode must be exact or float, got {mode!r}")
    cfg = ModelConfig.build(model, N, n, *map(need, chain.PARAMETERS[model]), g)
    return RunConfig(
        model=cfg,
        checks=["all"],
        sectors="all",
        tol=tol,
        seed=raw.get("seed", 0),
        mode=mode,
    )


def parse_sector(text, N, n):
    try:
        sector = tuple(map(parse_int, text.split(",")))
    except ValueError:
        sector = None
    if sector is None or "-" in text:  # a part that is no integer, or negative
        raise ParseError(f"bad sector {text!r}")
    if len(sector) != N or sum(sector) != n:
        raise ParseError(f"sector {sector} is not a weight of {n} sites, {N} colors")
    return sector


# ------------------------------------------------------------ check registry

def _draw_spectral(model, rng):
    """A generic spectral sample away from the flavor's poles, an exact
    Fraction."""
    while True:
        v = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        if model.is_rational:
            if v + model.coupling != 0:
                return v
        else:
            t = model.coupling
            if v != 0 and v * v * t * t != 1 and v * v != 1:
                return v


def _check_ybe(rc, sectors, rng):
    cfg, out = rc.model, []
    while len(out) < 3:
        p1 = _draw_spectral(cfg, rng)
        p2 = _draw_spectral(cfg, rng)
        r = cfg.relative(p1, p2)  # the 12-argument: no pole of R or R~
        if cfg.sinh(r) == 0 or cfg.sinh(cfg.coupled(r)) == 0:
            continue
        out.append(rmatrix.check_yang_baxter(cfg.flavor, p1, p2, cfg.coupling, cfg.N))
    yield verdict("ybe", [(s.residual, s.witness) for s in out],
                  params={"samples": len(out)})


def _check_unitarity(rc, sectors, rng):
    cfg, out = rc.model, []
    while len(out) < 3:
        p = _draw_spectral(cfg, rng)
        if cfg.is_rational and p - cfg.coupling == 0:
            continue  # the reversed factor would sit on a pole
        if not cfg.is_rational and p * p == cfg.coupling ** 2:
            continue
        out.append(rmatrix.check_unitarity(cfg.flavor, p, cfg.coupling, cfg.N))
    yield verdict("unitarity", [(s.residual, s.witness) for s in out],
                  params={"samples": len(out)})


def _check_twist(rc, sectors, rng):
    cfg = rc.model
    yield rmatrix.check_twist_commutation(
        cfg.flavor, _draw_spectral(cfg, rng), cfg.coupling, cfg.g, cfg.N)


def _check_transfer_commute(rc, sectors, rng):
    yield chain.check_transfer_commute(rc.model)


def _check_pole_expansion(rc, sectors, rng):
    yield chain.pole_expansion(rc.model)


def _check_sum_rule(rc, sectors, rng):
    yield chain.sum_rule(rc.model)


def _check_qkz_compat(rc, sectors, rng):
    # each unshifted K_i is built once for the family, and dropped with it
    cfg, unshifted = rc.model, {}
    for i in range(1, cfg.n + 1):
        for j in range(i + 1, cfg.n + 1):
            yield chain.qkz_compatibility(cfg, i, j, unshifted)


def _check_omega(rc, sectors, rng):
    yield verify.check_omega_invariance(rc.model)


def _check_k_projection(rc, sectors, rng):
    for i in range(1, rc.model.n + 1):
        yield verify.check_k_projection(rc.model, i)


def _check_proposition(rc, sectors, rng):
    # each right side extends that of its subset's prefix by one push; a size
    # level is dropped once the next one is done
    cfg, right_sides = rc.model, {}
    for d in range(1, cfg.n + 1):
        for sites in itertools.combinations(range(1, cfg.n + 1), d):
            yield verify.check_proposition_higher(cfg, sites, right_sides)
        for sites in itertools.combinations(range(1, cfg.n + 1), d - 1):
            right_sides.pop(sites, None)


def _check_det_identity(rc, sectors, rng):
    for M in sectors:
        yield verify.check_det_identity(rc.model, M)


def _check_symmetric(rc, sectors, rng):
    for M in sectors:
        for d in range(1, rc.model.n + 1):
            yield verify.check_symmetric_identity(rc.model, M, d)


def _check_macdonald(rc, sectors, rng):
    cfg = rc.model
    degrees = range(1, cfg.n + 1) if cfg.is_rational else (1,)
    for M in sectors:
        for d in degrees:
            yield verify.check_macdonald_eigenvalue(cfg, M, d)


def _check_correspondence(rc, sectors, rng):
    from . import correspond  # the eigensolver, loaded only by a run of this check
    for M in sectors:
        # floats enter only at the eigensolver boundary
        rep = correspond.check_correspondence(rc.model, M, tol=rc.tol, rng=rng)
        yield verdict("correspondence", [(rep.worst, None)],
                      sector=rep.sector, params={"eigenstates": len(rep.rows)},
                      threshold=rc.tol)


_REGISTRY = {
    "ybe": _check_ybe,
    "unitarity": _check_unitarity,
    "twist-commute": _check_twist,
    "transfer-commute": _check_transfer_commute,
    "pole-expansion": _check_pole_expansion,
    "sum-rule": _check_sum_rule,
    "qkz-compat": _check_qkz_compat,
    "omega": _check_omega,
    "k-projection": _check_k_projection,
    "proposition-higher": _check_proposition,
    "det-identity": _check_det_identity,
    "symmetric-identity": _check_symmetric,
    "macdonald-eigenvalue": _check_macdonald,
    "correspondence": _check_correspondence,
}
CHECK_NAMES = tuple(_REGISTRY)


def _applicable_checks(rc):
    """Expansion of "all": every check that can run on this flavor and mode."""
    names = []
    for name in CHECK_NAMES:
        if name in _RATIONAL_ONLY and not rc.model.is_rational:
            continue
        if name == "correspondence" and rc.mode == "exact":
            continue
        names.append(name)
    return names


def run(rc: RunConfig) -> RunReport:
    """Dispatch the selected checks; deterministic for a fixed seed.

    Each check family yields its results one by one, and each result is
    timed on its own.  Module errors become failed CheckResults, never
    mid-suite aborts: a family that raises one reports a single error result
    in place of all of its results, timed from the family's start.
    """
    rng = random.Random(rc.seed)
    sectors = _sector_list(rc)
    names = []
    for name in rc.checks:
        if name == "all":
            names.extend(_applicable_checks(rc))
        elif name in _REGISTRY:
            names.append(name)
        else:
            raise ParseError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    report = RunReport(config=_describe_run(rc))
    for name in dict.fromkeys(names):  # each check once, in the order first named
        results, timings = [], []
        start = t0 = time.perf_counter()
        try:
            for r in _REGISTRY[name](rc, sectors, rng):
                t1 = time.perf_counter()
                results.append(r)
                timings.append((t1 - t0) * 1000.0)
                t0 = t1
        except WorkbenchError as exc:
            results = [error_result(name, exc)]
            timings = [(time.perf_counter() - start) * 1000.0]
        report.results.extend(results)
        report.timings.extend(timings)
    return report


def _describe_run(rc):
    d = rc.model.describe()
    d["seed"] = rc.seed
    d["tol"] = rc.tol
    d["mode"] = rc.mode
    d["checks"] = list(rc.checks)
    d["sectors"] = (
        "all" if rc.sectors == "all" else [list(s) for s in rc.sectors]
    )
    return d


# ------------------------------------------------------------------ emitting

def _result_to_dict(r, millis=None, doubles=False):
    """A result as JSON data; with doubles (a float-mode report) its residual
    is the double of the exact value."""
    residual = r.residual
    if doubles and residual is not None:
        residual = to_double(residual)
    d = {
        "name": r.name,
        "sector": list(r.sector) if r.sector is not None else None,
        "status": r.status,
        "residual": _json_safe(residual),
    }
    if r.params:
        d["params"] = {k: _json_safe(v) for k, v in r.params.items()}
    if r.witness is not None:
        d["witness"] = _json_safe(r.witness)
    if millis is not None:
        d["millis"] = round(millis, 3)
    return d


def _json_safe(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return [_json_safe(v.real), _json_safe(v.imag)]
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)  # "inf", "-inf" or "nan": JSON has no such number
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    return str(v)


def emit(report: RunReport, fmt: str = "text", timings: bool = False) -> str:
    """Render a report; json output is byte-stable for a fixed config and seed
    (per-check wall-clock appears only when timings is requested)."""
    overall = report.overall
    if fmt == "json":
        doubles = report.config.get("mode") == "float"
        doc = {
            "config": report.config,
            "results": [
                _result_to_dict(r, m if timings else None, doubles)
                for r, m in zip(report.results, report.timings)
            ],
            "overall": overall,
        }
        return json.dumps(doc, indent=2)
    lines = []
    header = (
        f"{'check':<22} {'sector':<10} {'params':<16} {'status':<7} "
        f"{'residual':<13} ms"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r, m in zip(report.results, report.timings):
        sector = ",".join(str(x) for x in r.sector) if r.sector else "-"
        params = ",".join(f"{k}={_compact(v)}" for k, v in r.params.items()) or "-"
        if r.residual is None:
            res = "-"
        elif isinstance(r.residual, Fraction) and r.residual == 0:
            res = "0"
        else:
            res = f"{to_double(r.residual):.3e}"
        lines.append(
            f"{r.name:<22} {sector:<10} {params:<16} {r.status:<7} "
            f"{res:<13} {m:8.1f}"
        )
        if r.witness is not None:
            lines.append(f"    witness: {r.witness}")
    lines.append(f"overall: {overall}")
    return "\n".join(lines)


def _compact(v):
    if isinstance(v, (list, tuple)):
        return "/".join(str(x) for x in v)
    return str(v)


# ----------------------------------------------------------------- commands

def _select(args):
    """The RunConfig of a command: its config file, with the seed (--seed,
    else the file's) and the sectors (--sector, else "all") it runs on, so
    that every report echoes what it used."""
    rc = load_config(args.config)
    if args.seed is not None:
        rc.seed = args.seed
    if args.sector:  # each sector once, in the order first named
        rc.sectors = list(dict.fromkeys(
            parse_sector(s, rc.model.N, rc.model.n) for s in args.sector))
    return rc


def _sector_list(rc):
    if rc.sectors == "all":
        return all_sectors(rc.model.N, rc.model.n)
    return list(rc.sectors)


def _cmd_verify(args):
    rc = _select(args)
    if args.check:
        rc.checks = list(args.check)
    if args.tol is not None:
        rc.tol = require_tolerance(args.tol)
    report = run(rc)
    print(emit(report, args.format, timings=args.timings))
    return 0 if report.overall == "pass" else 1


def _cmd_spectrum(args):
    from . import correspond
    rc = _select(args)
    rng = random.Random(rc.seed)
    doc = {"config": _describe_run(rc), "sectors": []}
    for M in _sector_list(rc):
        states = correspond.diagonalize_sector(rc.model, M, tol=rc.tol, rng=rng)
        doc["sectors"].append(
            {
                "sector": list(M),
                "states": [
                    {
                        "eigenvalues": _json_safe(
                            [complex(lam) for lam in st.eigenvalues]),
                        "residuals": _json_safe(
                            [correspond._upper(r) for r in st.residuals]),
                    }
                    for st in states
                ],
            }
        )
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_correspond(args):
    from . import correspond
    rc = _select(args)
    rng = random.Random(rc.seed)
    rc.tol = require_tolerance(args.tol if args.tol is not None else 1e-8)
    doc = {"config": _describe_run(rc), "sectors": []}
    ok = True
    for M in _sector_list(rc):
        rep = correspond.check_correspondence(rc.model, M, tol=rc.tol, rng=rng)
        ok = ok and rep.passed
        doc["sectors"].append(
            {
                "sector": list(M),
                "status": rep.status,
                "worst": _json_safe(rep.worst),
                "rows": [
                    {
                        "eigenvalues": _json_safe(row.eigenvalues),
                        "velocities": _json_safe(row.velocities),
                        "target": _json_safe(row.target),
                        "invariants": _json_safe(row.invariants),
                        "radius": _json_safe(row.radius),
                        "hamiltonian_deviation": _json_safe(row.hamiltonian_deviation),
                    }
                    for row in rep.rows
                ],
            }
        )
    doc["overall"] = "pass" if ok else "fail"
    print(json.dumps(doc, indent=2))
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="Machine-check the operator identities of twisted "
        "inhomogeneous spin chains and their spectral correspondence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity checks from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--check", action="append", metavar="NAME",
                   help=f"one of: all, {', '.join(CHECK_NAMES)}")
    p.add_argument("--sector", action="append", metavar="M1,M2,...")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=parse_int)
    p.add_argument("--timings", action="store_true",
                   help="include each result's wall clock in json output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="joint sector spectra of the Hamiltonians")
    p.add_argument("--config", required=True)
    p.add_argument("--sector", action="append", metavar="M1,M2,...")
    p.add_argument("--seed", type=parse_int)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("correspond",
                       help="certified Lax spectra against their targets")
    p.add_argument("--config", required=True)
    p.add_argument("--sector", action="append", metavar="M1,M2,...")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=parse_int)
    p.set_defaults(func=_cmd_correspond)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NonPositiveTolerance, GenericPositionViolation,
            OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegeneracyUnresolved, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
