"""Golden reports: the command-line output for fixed configs.

The files in tests/data were written by the workbench itself, e.g.

    PYTHONPATH=src python -m qkzbench.cli verify --config tests/data/rational.cfg \
        --format json > tests/data/verify-rational.json

and pin its observable behaviour: a refactor must reproduce every report
byte for byte, and a deliberate change regenerates the files.  One report
per float chain fails on purpose: at a tolerance of 1e-300 the float chain
fails most of its results, so that report pins residuals and witnesses of
failures too.  `spectrum` refines its eigenpairs in exact integers from a
double start computed in pure Python, so its report is byte-exact as well.
"""
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
    (["spectrum"], "rational", "spectrum-rational.json", 0),
    (["spectrum"], "trig", "spectrum-trig.json", 0),
]


def _run(capsys, command, chain, code=0):
    assert main([command[0], "--config", str(DATA / f"{chain}.cfg"),
                 *command[1:]]) == code
    return capsys.readouterr().out


@pytest.mark.parametrize("command,chain,golden,code", BYTE_EXACT,
                         ids=[g for _, _, g, _ in BYTE_EXACT])
def test_report_is_byte_identical(capsys, command, chain, golden, code):
    assert _run(capsys, command, chain, code) == (DATA / golden).read_text()

