"""Benchmark of ``workbench verify`` on three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the workbench is imported from its ``src``.
The seed draws the chain parameters (see workloads.py), which are written to
a config file under ``.perfbench/``.  Every measured step runs in a fresh
interpreter (child.py) with BLAS threads pinned to 1, one at a time:

* runs: each child runs the whole workload in process through
  ``qkzbench.cli.main`` once.  Runs are started while the next one is
  expected to end less than half a run after ``--seconds``; ``wall_s`` and
  ``peak_rss_mb`` are medians over the runs;
* set-up: before each untraced run, SETUP_SAMPLES interpreters each import
  ``qkzbench.cli`` and load the config; ``setup_s`` is the median over all
  of them.

With ``--trace 1`` untraced and traced runs alternate; the traced ones wrap
the layer functions (probes.py), write their spans to
``.perfbench/trace-<workload>-seed<N>.jsonl`` and give the per-layer
metrics (medians over traced runs), and ``trace.overhead_s`` is the traced
minus the untraced median wall time.

Every run's JSON report passes through the correctness gate (gate.py).  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from gate import expected_counts, judge
from workloads import WORKLOADS, config_text, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # per untraced run
DEADLINE_S = 170  # the whole benchmark must end well within 180 s

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tensor.matmul_calls": "count",
    "tensor.matmul_mults": "count",
    "tensor.matmul_s": "s",
    "tensor.linear_s": "s",
    "tensor.apply_left_s": "s",
    "tensor.product_nnz": "count",
    "tensor.restrict_s": "s",
    "tensor.residual_s": "s",
    "scalars.entry_bits_max": "bits",
    "scalars.entry_bits_mean": "bits",
    "rmatrix.factor_calls": "count",
    "rmatrix.factor_s": "s",
    "chain.hamiltonian_calls": "count",
    "chain.hamiltonian_distinct": "count",
    "chain.hamiltonian_s": "s",
    "chain.qkz_operator_calls": "count",
    "chain.qkz_operator_s": "s",
    "chain.transfer_matrix_s": "s",
    "chain.build_reuse": "ratio",
    "rmatrix.ybe_s": "s",
    "rmatrix.unitarity_s": "s",
    "rmatrix.twist_commute_s": "s",
    "chain.transfer_commute_s": "s",
    "chain.pole_expansion_s": "s",
    "chain.sum_rule_s": "s",
    "chain.qkz_compat_s": "s",
    "verify.omega_s": "s",
    "verify.k_projection_s": "s",
    "verify.proposition_higher_s": "s",
    "verify.det_identity_s": "s",
    "verify.det_identity_sector_max_s": "s",
    "verify.symmetric_identity_s": "s",
    "verify.macdonald_eigenvalue_s": "s",
    "correspond.correspondence_s": "s",
    "correspond.eig_calls": "count",
    "correspond.eig_s": "s",
    "correspond.draws": "count",
    "cli.emit_s": "s",
    "cli.dispatch_s": "s",
    "gate.fail_frac": "ratio",
    "gate.residual_max": "1",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        src = ROOT / "src"
        if not (src / "qkzbench" / "cli.py").is_file():
            raise BenchError(f"no qkzbench sources under {src}")
        self.src = str(src)
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        work = ROOT / ".perfbench"
        work.mkdir(exist_ok=True)
        self.params = generate(workload, seed)
        self.config = work / f"{workload}-seed{seed}.cfg"
        self.config.write_text(config_text(self.params), encoding="utf-8")
        self.spans = work / f"trace-{workload}-seed{seed}.jsonl"
        if trace:
            self.spans.unlink(missing_ok=True)
        w = self.workload
        self.expected = expected_counts(w.flavor, w.N, w.n, w.mode)
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.verdicts = []

    def child(self, *args):
        """Run child.py to completion and return its JSON result."""
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *map(str, args)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[0]} did not end in {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"child {args[0]} exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def one_run(self, traced, run_id):
        args = ["run", self.src, self.config, self.seed, int(traced)]
        if traced:
            args += [self.spans, run_id]
        out = self.child(*args)
        mode, tol = self.workload.mode, self.workload.tol
        verdict = judge(out["report"], out["exit"], self.expected, mode, tol)
        self.verdicts.append(verdict)
        return out

    def measure(self):
        """Alternate run kinds while the next run is expected to end less
        than half a run after --seconds, so windows centre on --seconds.

        Untraced runs only with trace off; untraced and traced runs in turn
        with trace on.  SETUP_SAMPLES set-up children precede each untraced
        run, so that set-up is sampled over the whole window like the runs.
        Returns ({traced: [child results]}, [set-up seconds]).
        """
        kinds = [False, True] if self.trace else [False]
        runs = {k: [] for k in kinds}
        took = {k: [] for k in kinds}
        setups = []
        t0 = time.perf_counter()
        turn = 0
        while True:
            kind = kinds[turn % len(kinds)]
            start = time.perf_counter()
            if not kind:
                setups += [self.child("setup", self.src, self.config)["setup_s"]
                           for _ in range(SETUP_SAMPLES)]
            runs[kind].append(self.one_run(kind, len(runs[kind])))
            took[kind].append(time.perf_counter() - start)
            turn += 1
            nxt = kinds[turn % len(kinds)]
            guess = statistics.median(took[nxt] or took[kind])
            if turn >= len(kinds) and time.perf_counter() - t0 + guess / 2 > self.seconds:
                return runs, setups

    def totals(self):
        attempted = sum(v.attempted for v in self.verdicts)
        failed = sum(v.failed for v in self.verdicts)
        return attempted, failed


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
    }


def _fmt_params(params):
    return {k: [str(v) for v in vs] if isinstance(vs, list) else str(vs)
            for k, vs in params.items()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"workload {args.workload}: {bench.workload.why}")
        print("params", json.dumps(_fmt_params(bench.params)))
        print("machine", json.dumps(machine_facts()))
        runs, setups = bench.measure()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    plain = runs[False]
    walls = [r["wall_s"] for r in plain]
    q1, q3 = _quartiles(walls)
    print(f"wall_s median {statistics.median(walls):.3f} s over {len(walls)} runs "
          f"(quartiles {q1:.3f}..{q3:.3f}): "
          + " ".join(f"{w:.3f}" for w in walls))
    setup = statistics.median(setups)
    print(f"setup_s median {setup:.4f} s over {len(setups)} interpreters")
    attempted, failed = bench.totals()
    print(f"gate: {failed} of {attempted} results failed over "
          f"{len(bench.verdicts)} runs")

    if args.trace:
        traced = runs[True]
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in PER_LAYER if name in traced[0]["layers"]
        }
        metrics["gate.fail_frac"] = failed / attempted
        metrics["gate.residual_max"] = max(v.residual_max for v in bench.verdicts)
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        units = PER_LAYER
        print(f"trace: {len(traced)} traced runs, spans in {bench.spans.name}")
        rows = sorted(traced[-1]["self_times"].items(), key=lambda kv: -kv[1][2])
        print(f"{'span':<32} {'calls':>8} {'incl_s':>9} {'self_s':>9}")
        for name, (calls, incl, own) in rows:
            print(f"{name:<32} {calls:>8} {incl:>9.3f} {own:>9.3f}")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
