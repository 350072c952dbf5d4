"""Span recording around the public functions of each qkzbench layer.

``install()`` wraps the layer functions in place and returns a Tracer.  A
wrapped call records a span (id, parent span, name, start, end) in memory;
counts are taken at the same boundaries.  Modules that import a function by
name hold their own reference to it, so every qkzbench module attribute that
is the original function is replaced, not only the defining one.

This runs only in a child process that exists for one traced run, so the
wrappers are never removed.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

# (metric prefix, module, function) per check family; the CLI calls each of
# these through its module attribute, once per reported result or sample.
CHECKS = (
    ("rmatrix.ybe", "rmatrix", "check_yang_baxter"),
    ("rmatrix.unitarity", "rmatrix", "check_unitarity"),
    ("rmatrix.twist_commute", "rmatrix", "check_twist_commutation"),
    ("chain.transfer_commute", "chain", "check_transfer_commute"),
    ("chain.pole_expansion", "chain", "pole_expansion"),
    ("chain.sum_rule", "chain", "sum_rule"),
    ("chain.qkz_compat", "chain", "qkz_compatibility"),
    ("verify.omega", "verify", "check_omega_invariance"),
    ("verify.k_projection", "verify", "check_k_projection"),
    ("verify.proposition_higher", "verify", "check_proposition_higher"),
    ("verify.det_identity", "verify", "check_det_identity"),
    ("verify.symmetric_identity", "verify", "check_symmetric_identity"),
    ("verify.macdonald_eigenvalue", "verify", "check_macdonald_eigenvalue"),
    ("correspond.correspondence", "correspond", "check_correspondence"),
)
CHECK_SPANS = frozenset(name for name, _, _ in CHECKS)
# checks whose second argument is a sector, recorded on their spans
SECTOR_SPANS = frozenset({"verify.det_identity", "verify.symmetric_identity",
                          "verify.macdonald_eigenvalue",
                          "correspond.correspondence"})

R_FACTORS = ("r_rational", "r_rational_tilde", "r_trig", "r_trig_tilde",
             "r_trig_entrywise")

# metric name -> span names whose outermost occurrences it times
TIMED = {
    "tensor.matmul_s": ("tensor.matmul",),
    "tensor.linear_s": ("tensor.add", "tensor.sub", "tensor.scaled"),
    "tensor.apply_left_s": ("tensor.apply_left",),
    "tensor.restrict_s": ("tensor.restrict",),
    "tensor.residual_s": ("tensor.residual", "tensor.covector_residual"),
    "rmatrix.factor_s": ("rmatrix.factor",),
    "chain.hamiltonian_s": ("chain.hamiltonian",),
    "chain.qkz_operator_s": ("chain.qkz_operator",),
    "chain.transfer_matrix_s": ("chain.transfer_matrix",),
    "correspond.eig_s": ("correspond.eig",),
    "cli.emit_s": ("cli.emit",),
    **{f"{name}_s": (name,) for name in CHECK_SPANS},
}

COUNTED = {
    "tensor.matmul_calls": "tensor.matmul",
    "rmatrix.factor_calls": "rmatrix.factor",
    "chain.hamiltonian_calls": "chain.hamiltonian",
    "chain.qkz_operator_calls": "chain.qkz_operator",
    "correspond.eig_calls": "correspond.eig",
}


# span name -> the timed metrics it contributes to
_GROUPS = {}
for _metric, _names in TIMED.items():
    for _name in _names:
        _GROUPS.setdefault(_name, []).append(_metric)
for _name in CHECK_SPANS:
    _GROUPS[_name].append("checks")


class Tracer:
    def __init__(self):
        self.spans = []     # [id, parent, name, start, end, attrs]
        self._open = []     # ids of the spans being executed, innermost last
        self.counts = Counter()
        self.timed = Counter()   # metric -> time of its outermost spans
        self._active = Counter()  # metric -> open spans contributing to it
        self.built = set()  # keys of the distinct H_i / K_i built
        self.bits = []      # bit sizes of the entries of each distinct H_i / K_i

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) returns span attributes
        (or None), after(args, kwargs, result) records counts."""
        spans, stack = self.spans, self._open
        timed, active = self.timed, self._active
        groups = tuple(_GROUPS.get(name, ()))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, name, 0.0, 0.0,
                    before(args, kwargs) if before else None]
            spans.append(span)
            stack.append(sid)
            for g in groups:
                active[g] += 1
            span[3] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                for g in groups:
                    active[g] -= 1
                    if not active[g]:
                        timed[g] += span[4] - span[3]
            if after:
                after(args, kwargs, return_value)
            return return_value

        return traced

    # ------------------------------------------------------------ counting
    def record_build(self, key, op):
        if key in self.built:
            return
        self.built.add(key)
        for _, _, v in op.entries():
            if isinstance(v, Fraction):
                self.bits.append(v.numerator.bit_length() + v.denominator.bit_length())

    def count_mults(self, args, kwargs):
        a, b = args
        orows = b.rows
        self.counts["tensor.matmul_mults"] += sum(
            len(orows.get(k, ())) for row in a.rows.values() for k in row
        )

    def count_product(self, args, kwargs, out):
        self.counts["tensor.product_nnz"] += out.nnz

    # -------------------------------------------------------------- report
    def metrics(self, wall_s):
        """Per-layer metrics of one traced run, by name."""
        spans = self.spans
        out = {metric: self.timed[metric] for metric in TIMED}
        calls = Counter(s[2] for s in spans)
        for metric, name in COUNTED.items():
            out[metric] = calls[name]
        out["tensor.matmul_mults"] = self.counts["tensor.matmul_mults"]
        out["tensor.product_nnz"] = self.counts["tensor.product_nnz"]
        out["scalars.entry_bits_max"] = max(self.bits, default=0)
        out["scalars.entry_bits_mean"] = (
            sum(self.bits) / len(self.bits) if self.bits else 0.0)
        out["chain.hamiltonian_distinct"] = sum(1 for k in self.built if k[0] == "H")
        builds = out["chain.hamiltonian_calls"] + out["chain.qkz_operator_calls"]
        out["chain.build_reuse"] = len(self.built) / builds if builds else 0.0
        out["correspond.draws"] = sum(
            1 for s in spans
            if s[2] == "correspond.eig" and s[1] is not None
            and spans[s[1]][2] == "correspond.joint_eigenvalues"
        )
        out["verify.det_identity_sector_max_s"] = max(
            (s[4] - s[3] for s in spans if s[2] == "verify.det_identity"),
            default=0.0)
        out["cli.dispatch_s"] = wall_s - self.timed["checks"]
        return out

    def self_times(self):
        """Span name -> (calls, inclusive s, self s); self time is a span's
        duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        table = {}
        for s in self.spans:
            calls, incl, own = table.get(s[2], (0, 0.0, 0.0))
            d = s[4] - s[3]
            table[s[2]] = (calls + 1, incl + d, own + d - child[s[0]])
        return table

    def write_spans(self, path, run_id):
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"run": run_id, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def _replace_everywhere(orig, wrapped):
    """Point every qkzbench module attribute that is orig at wrapped."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("qkzbench"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _sector_attr(args, kwargs):
    return {"sector": list(kwargs.get("sector", args[1]))}


def install():
    """Wrap every layer boundary of the imported qkzbench package."""
    import mpmath
    import qkzbench.chain as chain
    import qkzbench.cli as cli
    import qkzbench.correspond as correspond
    import qkzbench.rmatrix as rmatrix
    import qkzbench.tensor as tensor

    tr = Tracer()

    def patch(mod, attr, name, before=None, after=None):
        orig = getattr(mod, attr)
        _replace_everywhere(orig, tr.wrap(name, orig, before, after))

    for name, mod, attr in CHECKS:
        patch(importlib.import_module(f"qkzbench.{mod}"), attr, name,
              before=_sector_attr if name in SECTOR_SPANS else None)

    for attr in R_FACTORS:
        patch(rmatrix, attr, "rmatrix.factor")

    def built_h(args, kwargs, out):
        tr.record_build(("H", args[0], args[1]), out)

    def built_k(args, kwargs, out):
        shifted = kwargs.get("shifted_sites", args[2] if len(args) > 2 else ())
        tr.record_build(("K", args[0], args[1], frozenset(shifted)), out)

    patch(chain, "hamiltonian", "chain.hamiltonian", after=built_h)
    patch(chain, "qkz_operator", "chain.qkz_operator", after=built_k)
    patch(chain, "transfer_matrix", "chain.transfer_matrix")
    patch(tensor, "covector_residual", "tensor.covector_residual")
    patch(correspond, "_joint_eigenvalues_mp", "correspond.joint_eigenvalues")
    patch(cli, "emit", "cli.emit")

    op = tensor.ChainOperator
    for attr, name, before, after in (
        ("__matmul__", "tensor.matmul", tr.count_mults, tr.count_product),
        ("__add__", "tensor.add", None, None),
        ("__sub__", "tensor.sub", None, None),
        ("scaled", "tensor.scaled", None, None),
        ("apply_left", "tensor.apply_left", None, None),
        ("restrict", "tensor.restrict", None, None),
        ("residual", "tensor.residual", None, None),
    ):
        setattr(op, attr, tr.wrap(name, getattr(op, attr), before, after))

    # correspond calls mpmath.eig through the module, once per draw and once
    # per Lax matrix
    mpmath.eig = tr.wrap("correspond.eig", mpmath.eig)
    return tr
