"""No command loads dataclasses, inspect, numpy or mpmath.

The exact checks run over Fraction and need neither numpy nor mpmath.  The
joint eigensolver of `spectrum` and of the correspondence refines a double
start on Python lists in exact integers, and the correspondence certifies
its Lax spectra in exact integers too, so no command loads either.  The
records (ModelConfig, CheckResult, the run and correspondence records) are
plain classes and named tuples, so that starting a command does not load
dataclasses, and with it inspect, ast and dis.
Each test runs in a fresh interpreter and reads sys.modules at its end,
against what a bare interpreter (python -c pass) loads on its own.
"""
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
HEAVY = {"dataclasses", "inspect", "numpy", "mpmath"}

SCRIPT = """\
import contextlib, io, json, sys
from qkzbench import cli
cli.load_config(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print(json.dumps([code, sorted(sys.modules)]))
"""


def _python(*args):
    """The last output line of a fresh interpreter run with the source tree
    on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


@functools.cache
def _bare():
    """The modules a bare interpreter has loaded when its code starts."""
    return set(_python("-c", "import sys; print(*sys.modules)").split())


def _loaded(config, *argv):
    """(exit code, the heavy modules loaded beyond a bare interpreter) after
    importing the CLI, loading the config and, given argv, running
    cli.main(argv) on it."""
    path = str(DATA / config)
    if argv:
        argv = (*argv, "--config", path)
    code, modules = json.loads(_python("-c", SCRIPT, path, *argv))
    return code, sorted(HEAVY & set(modules) - _bare())


def test_importing_the_cli_and_loading_a_config_loads_neither():
    assert _loaded("rational.cfg") == (0, [])


@pytest.mark.parametrize("config", ["rational.cfg", "trig.cfg"])
def test_exact_verify_loads_neither(config):
    assert _loaded(config, "verify") == (0, [])


@pytest.mark.parametrize("config,command", [("rational-float.cfg", "verify"),
                                            ("rational.cfg", "correspond"),
                                            ("rational.cfg", "spectrum")])
def test_the_correspondence_loads_neither(config, command):
    assert _loaded(config, command) == (0, [])
