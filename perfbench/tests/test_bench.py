"""Seeded inputs, repeatable trace counts and the refusal to run without the
program's sources."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER, Bench
from workloads import WORKLOADS, generate

PERFBENCH = Path(__file__).resolve().parent.parent

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = [name for name in PER_LAYER if name.endswith("_calls")] + [
    "tensor.matmul_mults", "chain.hamiltonian_distinct", "correspond.draws"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert any(generate(workload, 7) != generate(workload, s) for s in range(8, 12))


def test_float_workload_runs_the_exact_rational_chain():
    for seed in range(5):
        exact = generate("exact-rational", seed)
        fl = generate("float-rational", seed)
        assert {k: v for k, v in fl.items() if k not in ("mode", "tol")} == exact


def test_two_traced_runs_give_identical_counts():
    bench = Bench("float-rational", 3, seconds=0, trace=True)
    first, second = (bench.one_run(True, k)["layers"] for k in range(2))
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["correspond.draws"] > 0 and first["tensor.matmul_mults"] > 0
    assert bench.totals() == (2 * 182, 0)
    names = set(first) | {"gate.fail_frac", "gate.residual_max",
                          "trace.wall_s", "trace.overhead_s"}
    assert names == set(PER_LAYER)


def test_benchmark_json_matches_the_code():
    doc = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-trig",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
