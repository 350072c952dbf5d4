"""No command loads numpy or mpmath.

The exact checks run over Fraction and need neither.  The joint
eigensolver of `spectrum` and of the correspondence refines a double start
on Python lists in exact integers, and the correspondence certifies its Lax
spectra in exact integers too, so no command loads either.
Each test runs in a fresh interpreter and reads sys.modules at its end.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

SCRIPT = """\
import contextlib, io, json, sys
from qkzbench import cli
cli.load_config(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print(json.dumps([code, sorted({'numpy', 'mpmath'} & set(sys.modules))]))
"""


def _loaded(config, *argv):
    """(exit code, the heavy modules loaded) after importing the CLI, loading
    the config and, given argv, running cli.main(argv) on it."""
    path = str(DATA / config)
    if argv:
        argv = (*argv, "--config", path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, path, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


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
