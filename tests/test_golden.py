"""Golden reports: the command-line output for fixed configs.

The files in tests/data were written by the workbench itself, e.g.

    PYTHONPATH=src python -m qkzbench.cli verify --config tests/data/rational.cfg \
        --format json > tests/data/verify-rational.json

and pin its observable behaviour: a refactor must reproduce every report
byte for byte, and a deliberate change regenerates the files.  One report
per float chain fails on purpose: at a tolerance of 1e-300 the float chain
fails most of its results, so that report pins residuals and witnesses of
failures too.  `spectrum` reads its eigenvalues straight from LAPACK, whose
last bits may differ between builds, so it is compared numerically at 1e-12
instead.
"""
import json
from pathlib import Path

import pytest

from qkzbench.cli import main

DATA = Path(__file__).parent / "data"

# (command, chain, golden report, exit code)
BYTE_EXACT = [
    (["verify", "--format", "json"], "rational", "verify-rational.json", 0),
    (["verify", "--format", "json"], "trig", "verify-trig.json", 0),
    (["verify", "--format", "json"], "rational-float", "verify-rational-float.json", 0),
    (["verify", "--format", "json", "--tol", "1e-300"], "rational-float",
     "verify-rational-float-fail.json", 1),
    (["verify", "--format", "json"], "trig-float", "verify-trig-float.json", 0),
    (["verify", "--format", "json", "--tol", "1e-300"], "trig-float",
     "verify-trig-float-fail.json", 1),
    (["correspond"], "rational", "correspond-rational.json", 0),
    (["correspond"], "trig", "correspond-trig.json", 0),
]


def _run(capsys, command, chain, code=0):
    assert main([command[0], "--config", str(DATA / f"{chain}.cfg"),
                 *command[1:]]) == code
    return capsys.readouterr().out


@pytest.mark.parametrize("command,chain,golden,code", BYTE_EXACT,
                         ids=[g for _, _, g, _ in BYTE_EXACT])
def test_report_is_byte_identical(capsys, command, chain, golden, code):
    assert _run(capsys, command, chain, code) == (DATA / golden).read_text()


def _assert_close(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, (int, float)), path
        assert abs(got - want) <= 1e-12, (path, got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{k}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for k in want:
            _assert_close(got[k], want[k], f"{path}.{k}")
    else:
        assert got == want, path


@pytest.mark.parametrize("chain", ["rational", "trig"])
def test_spectrum_matches_golden(capsys, chain):
    got = json.loads(_run(capsys, ["spectrum"], chain))
    want = json.loads((DATA / f"spectrum-{chain}.json").read_text())
    _assert_close(got, want)
