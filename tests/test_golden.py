"""Golden reports: the command-line output for fixed configs.

The files in tests/data were written by the workbench itself, e.g.

    PYTHONPATH=src python -m qkzbench.cli verify --config tests/data/rational.cfg \
        --format json > tests/data/verify-rational.json

and pin its observable behaviour: a refactor must reproduce every report
byte for byte, and a deliberate change regenerates the files.  Every
identity check is exact in both modes, so a float-mode report differs from
the exact one only in its correspondence results and in writing each
residual as a double.  Two verify reports fail on purpose: each runs with an
exact negative control patched in, so that the failing residuals and their
witnesses (basis pairs, basis states and Cauchy weights) are pinned too.
`spectrum` refines its eigenpairs in exact integers from a double start
computed in pure Python, so its report is byte-exact as well.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qkzbench import rmatrix, verify
from qkzbench.cli import main
from qkzbench.tensor import ChainOperator

DATA = Path(__file__).parent / "data"

# (command, chain, golden report, exit code)
BYTE_EXACT = [
    (["verify", "--format", "json"], "rational", "verify-rational.json", 0),
    (["verify", "--format", "json"], "trig", "verify-trig.json", 0),
    (["verify", "--format", "json"], "rational-float", "verify-rational-float.json", 0),
    (["verify", "--format", "json"], "trig-float", "verify-trig-float.json", 0),
    (["verify", "--format", "json"], "rational-3-2", "verify-rational-3-2.json", 0),
    (["verify", "--format", "json"], "trig-4-3", "verify-trig-4-3.json", 0),
    (["verify", "--format", "json"], "rational-3-4", "verify-rational-3-4.json", 0),
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


# ---------------------------------------------------------- negative controls

def _scaled_first_minor(monkeypatch):
    """det(C_SS) for S = {0} scaled by 98/97 in the minors build: the
    determinant, symmetric and eigenvalue identities fail, at basis pairs
    and Cauchy weights."""
    minors = verify.principal_minors

    def scaled(cfg):
        out = dict(minors(cfg))
        out[(0,)] *= Fraction(98, 97)
        return out

    monkeypatch.setattr(verify, "principal_minors", scaled)


def _scaled_swaps_of_r21(monkeypatch):
    """The swap entries of R_21 on the chain scaled by 98/97: qKZ flatness
    fails at basis pairs, the covector checks through K_2 at basis states."""
    build = rmatrix.r_trig

    def scaled(space, i, j, point, coupling, *rest):
        R = build(space, i, j, point, coupling, *rest)
        if (i, j) != (2, 1) or space.n != 3:
            return R
        return ChainOperator.from_entries(space, [
            (r, c, v if r == c else v * Fraction(98, 97)) for r, c, v in R.entries()])

    monkeypatch.setattr(rmatrix, "r_trig", scaled)


# (chain, golden report, negative control)
FAILING = [
    ("rational", "verify-rational-fail.json", _scaled_first_minor),
    ("trig", "verify-trig-fail.json", _scaled_swaps_of_r21),
]


@pytest.mark.parametrize("chain,golden,control", FAILING,
                         ids=[g for _, g, _ in FAILING])
def test_failing_report_is_byte_identical(capsys, monkeypatch, chain, golden, control):
    control(monkeypatch)
    out = _run(capsys, ["verify", "--format", "json"], chain, 1)
    assert out == (DATA / golden).read_text()


def _witness_kind(w):
    if isinstance(w, str):
        return "label"
    if isinstance(w[0], str):
        return w[0]
    return "basis pair" if isinstance(w[0], list) else "basis state"


def test_failing_reports_carry_every_kind_of_witness():
    kinds = {_witness_kind(r["witness"])
             for _, golden, _ in FAILING
             for r in json.loads((DATA / golden).read_text())["results"]
             if "witness" in r}
    assert kinds == {"basis pair", "basis state", "Cauchy weight", "label"}
