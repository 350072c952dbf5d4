"""The correctness gate on real reports and on doctored ones (negative
controls: each doctored report must raise fail_frac)."""
import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

import qkzbench.cli as cli
from gate import expected_counts, judge
from workloads import WORKLOADS

CHAIN = ("model = rational\nN = 2\nn = 3\neta = 1/2\nhbar = 1/3\n"
         "x = [0, 2/5, 9/7]\ng = [2, 3]\n")
FLOAT = "mode = float\ntol = 1e-10\n"
TOL = 1e-10


@functools.lru_cache(maxsize=None)
def report(mode):
    """(expected counts, JSON report) of a full verify run on a small chain."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "chain.cfg"
        path.write_text(CHAIN + (FLOAT if mode == "float" else ""))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["verify", "--config", str(path), "--format", "json"]) == 0
    return expected_counts("rational", 2, 3, mode), buf.getvalue()


def doctored(text, edit):
    doc = json.loads(text)
    edit(doc["results"])
    return json.dumps(doc)


def set_first(key, value):
    def edit(results):
        results[0][key] = value
    return edit


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_clean_report_passes(mode):
    expected, text = report(mode)
    v = judge(text, 0, expected, mode, TOL)
    assert (v.attempted, v.failed, v.fail_frac) == (sum(expected.values()), 0, 0)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_failed_status_fails(mode):
    expected, text = report(mode)
    bad = doctored(text, set_first("status", "fail"))
    assert judge(bad, 0, expected, mode, TOL).fail_frac > 0


def test_nan_residual_fails():
    expected, text = report("float")
    bad = doctored(text, set_first("residual", math.nan))
    assert "NaN" in bad
    assert judge(bad, 0, expected, "float", TOL).fail_frac > 0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_missing_sector_result_fails(mode):
    expected, text = report(mode)

    def drop_one_sector(results):
        k = next(i for i, r in enumerate(results) if r["name"] == "det-identity")
        del results[k]

    v = judge(doctored(text, drop_one_sector), 0, expected, mode, TOL)
    assert v.fail_frac > 0
    assert v.attempted == sum(expected.values())


def test_duplicated_result_fails():
    expected, text = report("exact")
    bad = doctored(text, lambda results: results.append(dict(results[-1])))
    assert judge(bad, 0, expected, "exact", TOL).failed == 1


def test_nonzero_exit_fails():
    expected, text = report("exact")
    assert judge(text, 1, expected, "exact", TOL).failed == 1


def test_unparsable_report_fails_everything():
    expected, _ = report("exact")
    v = judge("Traceback (most recent call last):", 1, expected, "exact", TOL)
    assert v.failed == v.attempted == sum(expected.values())


@pytest.mark.parametrize("residual", [2e-10, math.inf, None, "0"])
def test_float_residual_outside_tol_fails(residual):
    expected, text = report("float")
    bad = doctored(text, set_first("residual", residual))
    assert judge(bad, 0, expected, "float", TOL).failed == 1


@pytest.mark.parametrize("residual", ["1/3", 0.0, None])
def test_exact_residual_must_be_zero_text(residual):
    expected, text = report("exact")
    bad = doctored(text, set_first("residual", residual))
    assert judge(bad, 0, expected, "exact", TOL).failed == 1


def test_expected_counts_of_the_workloads():
    totals = {}
    for name, w in WORKLOADS.items():
        exp = expected_counts(w.flavor, w.N, w.n, w.mode)
        totals[name] = sum(exp.values())
        per_check = {}
        for (check, _), k in exp.items():
            per_check[check] = per_check.get(check, 0) + k
        assert per_check["qkz-compat"] == w.n * (w.n - 1) // 2
        assert per_check["proposition-higher"] == 2 ** w.n - 1
    assert totals == {"exact-rational": 167, "exact-trig": 98, "float-rational": 182}
