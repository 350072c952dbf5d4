import contextlib
import importlib
import io
import itertools
import json
import math
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkzbench
from qkzbench import chain, cli, rmatrix, tensor, verify
from qkzbench.cli import (
    CHECK_NAMES,
    emit,
    load_config,
    main,
    parse_int,
    parse_sector,
    run,
)
from qkzbench.errors import (
    GenericPositionViolation,
    NonPositiveTolerance,
    ParseError,
    PoleHit,
)
from qkzbench.report import error_result, verdict

RATIONAL_CFG = """\
# sample chain
model = rational
N = 2
n = 3
eta = 1/2
hbar = 1/3
x = [0, 2/5, 9/7]
g = [2, 3]
seed = 1
tol = 1e-10
mode = exact
"""

TRIG_CFG = """\
model = trigonometric
N = 2
n = 2
t = 2
h = 5/4
u = [1, 3/2]
g = [2, 3]
"""


@pytest.fixture
def rational_path(tmp_path):
    p = tmp_path / "rational.cfg"
    p.write_text(RATIONAL_CFG)
    return str(p)


@pytest.fixture
def trig_path(tmp_path):
    p = tmp_path / "trig.cfg"
    p.write_text(TRIG_CFG)
    return str(p)


# ------------------------------------------------------------------- parsing

def test_load_valid_config(rational_path):
    rc = load_config(rational_path)
    assert rc.model.N == 2 and rc.model.n == 3
    assert rc.model.coupling == Fraction(1, 2)
    assert rc.model.points == (0, Fraction(2, 5), Fraction(9, 7))
    assert rc.seed == 1 and rc.mode == "exact"


def test_load_config_generic_position_violation(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(
        "model = rational\nN = 2\nn = 2\neta = 1/2\nhbar = 1/3\n"
        "x = [0, 1/2]\ng = [2, 3]\n"
    )
    with pytest.raises(GenericPositionViolation, match="eta"):
        load_config(str(p))


def test_load_config_missing_t(tmp_path):
    p = tmp_path / "trig.cfg"
    p.write_text("model = trigonometric\nN = 2\nn = 2\nh = 5/4\nu = [1, 3/2]\ng = [2, 3]\n")
    with pytest.raises(ParseError, match="t"):
        load_config(str(p))


def test_load_config_rejects_zero_tol(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(RATIONAL_CFG.replace("tol = 1e-10", "tol = 0"))
    with pytest.raises(NonPositiveTolerance):
        load_config(str(p))


def test_load_config_syntax_errors(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("model rational\n")
    with pytest.raises(ParseError, match="line 1"):
        load_config(str(p))
    p.write_text("model = rational\nmodel = rational\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_config(str(p))
    p.write_text("bogus = 1\n")
    with pytest.raises(ParseError, match="unknown"):
        load_config(str(p))
    p.write_text("x = 1, 2\n")
    with pytest.raises(ParseError, match="list"):
        load_config(str(p))


@pytest.mark.parametrize("flavor,key,value", [
    ("rational", "t", "2"), ("rational", "h", "5/4"),
    ("rational", "u", "[1, 3/2, 7/3]"), ("trigonometric", "eta", "1/2"),
    ("trigonometric", "hbar", "1/3"), ("trigonometric", "x", "[0, 2/5]"),
])
def test_load_config_rejects_keys_of_the_other_flavor(tmp_path, flavor, key, value):
    p = tmp_path / "c.cfg"
    text = RATIONAL_CFG if flavor == "rational" else TRIG_CFG
    p.write_text(text + f"{key} = {value}\n")
    with pytest.raises(ParseError, match=f"key '{key}'"):
        load_config(str(p))


# each reads as a sector of an N = 2, n = 3 chain once empty parts and
# spaces are dropped, or through int(), which also takes underscores, a sign
# and non-ASCII digits, or once a minus sign is dropped; none is the sector
# typed
MALFORMED_SECTORS = ["1,,2", "2,1,", ",2,1", "0 3,0", "0_3,0", "+2,1", "\u0662,1",
                     "2,\u0661", "3,-0"]

# int() reads the first three as 10, 2 and 2; every integer of the command
# line (config keys, --seed and sector parts) refuses them all
MALFORMED_INTEGERS = ["1_0", "+2", "\u0662", "- 2", "2.0", "0x2", "", "-"]


def test_parse_int():
    assert parse_int(" 7 ") == 7 and parse_int("-3") == -3 and parse_int("0") == 0
    for text in MALFORMED_INTEGERS:
        with pytest.raises(ValueError):
            parse_int(text)


@pytest.mark.parametrize("text", MALFORMED_INTEGERS)
@pytest.mark.parametrize("key", ["N", "n", "seed"])
def test_main_rejects_a_malformed_config_integer(tmp_path, capsys, key, text):
    lines = RATIONAL_CFG.splitlines()
    (k,) = [k for k, line in enumerate(lines) if line.startswith(f"{key} = ")]
    lines[k] = f"{key} = {text}"
    p = tmp_path / "c.cfg"
    p.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {k + 1}: bad value for '{key}'")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", MALFORMED_INTEGERS)
@pytest.mark.parametrize("command", ["verify", "spectrum", "correspond"])
def test_main_rejects_a_malformed_seed(rational_path, capsys, command, text):
    # argparse refuses the value before the command runs, with exit 2
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", rational_path, f"--seed={text}"])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


def test_parse_sector():
    assert parse_sector("2,1", 2, 3) == (2, 1)
    assert parse_sector(" 2 , 1 ", 2, 3) == (2, 1)
    with pytest.raises(ParseError):
        parse_sector("2,2", 2, 3)
    with pytest.raises(ParseError):
        parse_sector("1,1,1", 2, 3)
    for text in MALFORMED_SECTORS:
        with pytest.raises(ParseError, match="bad sector"):
            parse_sector(text, 2, 3)


@pytest.mark.parametrize("text", MALFORMED_SECTORS)
def test_main_rejects_a_malformed_sector(rational_path, capsys, text):
    assert main(["verify", "--config", rational_path, "--check", "ybe",
                 "--sector", text]) == 2
    assert "bad sector" in capsys.readouterr().err


def test_main_runs_a_repeated_sector_once(rational_path, capsys):
    assert main(["verify", "--config", rational_path, "--check", "det-identity",
                 "--sector", "3,0", "--sector", "2,1", "--sector", "3,0",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["sector"] for r in doc["results"]] == [[3, 0], [2, 1]]
    assert doc["config"]["sectors"] == [[3, 0], [2, 1]]
    for command in ("spectrum", "correspond"):
        assert main([command, "--config", rational_path,
                     "--sector", "2,1", "--sector", "2,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["sector"] for s in doc["sectors"]] == [[2, 1]]
        assert doc["config"]["sectors"] == [[2, 1]]


def test_main_runs_a_repeated_check_once(rational_path, capsys):
    # each check runs once, in the order first named; the echo keeps the
    # checks as written
    assert main(["verify", "--config", rational_path, "--check", "sum-rule",
                 "--check", "all", "--check", "ybe", "--check", "sum-rule",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = list(dict.fromkeys(r["name"] for r in doc["results"]))
    assert names[:2] == ["sum-rule", "ybe"]
    assert [r["name"] for r in doc["results"]].count("ybe") == 1
    assert [r["name"] for r in doc["results"]].count("sum-rule") == 1
    assert doc["config"]["checks"] == ["sum-rule", "all", "ybe", "sum-rule"]


# ------------------------------------------------------------------- running

def test_run_single_check(rational_path):
    rc = load_config(rational_path)
    rc.checks = ["ybe"]
    report = run(rc)
    assert len(report.results) == 1
    assert report.results[0].passed
    assert report.overall == "pass"


def test_run_empty_check_list(rational_path):
    rc = load_config(rational_path)
    rc.checks = []
    report = run(rc)
    assert report.results == [] and report.overall == "pass"


def test_run_unknown_check(rational_path):
    rc = load_config(rational_path)
    rc.checks = ["nonsense"]
    with pytest.raises(ParseError):
        run(rc)


def test_run_full_suite(rational_path):
    rc = load_config(rational_path)
    report = run(rc)
    assert report.overall == "pass"
    names = {r.name for r in report.results}
    # exact mode: every applicable check ran, correspondence stayed out
    assert "det-identity" in names and "correspondence" not in names
    sector_rows = [r for r in report.results if r.name == "det-identity"]
    assert len(sector_rows) == 4


def test_run_correspondence_in_exact_mode(rational_path, capsys):
    # a run that names the correspondence runs it in either mode; "all"
    # adds it in float mode only
    argv = ["verify", "--config", rational_path, "--check", "correspondence",
            "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["mode"] == "exact"
    assert [r["name"] for r in doc["results"]] == ["correspondence"] * 4
    assert {r["status"] for r in doc["results"]} == {"pass"}


def test_run_float_mode_correspondence(rational_path):
    rc = load_config(rational_path)
    rc.mode = "float"
    rc.tol = 1e-8
    rc.checks = ["correspondence"]
    rc.sectors = [(2, 1)]
    report = run(rc)
    assert report.overall == "pass"
    assert report.results[0].sector == (2, 1)


def test_trig_full_suite(trig_path):
    rc = load_config(trig_path)
    report = run(rc)
    assert report.overall == "pass"
    names = {r.name for r in report.results}
    assert "det-identity" not in names  # rational-only checks filtered from "all"


# ------------------------------------------------------------------ emitting

def test_emit_json_round_trip(rational_path):
    rc = load_config(rational_path)
    rc.checks = ["ybe", "sum-rule", "det-identity"]
    report = run(rc)
    doc = json.loads(emit(report, "json"))
    assert doc["overall"] == "pass"
    assert [r["status"] for r in doc["results"]] == ["pass"] * len(doc["results"])
    assert [r["name"] for r in doc["results"]] == [r.name for r in report.results]
    for got, r in zip(doc["results"], report.results):
        if isinstance(r.residual, Fraction):
            assert got["residual"] == str(r.residual)


def test_emit_json_deterministic(rational_path):
    rc = load_config(rational_path)
    rc.checks = ["ybe", "qkz-compat", "det-identity"]
    first = emit(run(rc), "json")
    second = emit(run(rc), "json")
    assert first == second


def test_emit_json_timings_are_opt_in(rational_path):
    rc = load_config(rational_path)
    rc.checks = ["ybe"]
    report = run(rc)
    assert "millis" not in emit(report, "json")
    assert "millis" in emit(report, "json", timings=True)


def test_timings_are_per_result(rational_path, monkeypatch):
    # a clock whose k-th reading is 1 + 2 + ... + k seconds: every interval
    # between readings is longer than the one before
    readings = itertools.accumulate(itertools.count(1))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(readings)))
    rc = load_config(rational_path)
    rc.checks = ["qkz-compat"]
    doc = json.loads(emit(run(rc), "json", timings=True))
    assert [r["params"] for r in doc["results"]] == [
        {"i": 1, "j": 2}, {"i": 1, "j": 3}, {"i": 2, "j": 3}]
    assert [r["millis"] for r in doc["results"]] == [2000.0, 3000.0, 4000.0]


def test_family_that_raises_reports_one_error(rational_path, monkeypatch):
    # results yielded before the error are dropped, as when a family ran
    # to completion before its results were collected
    real = cli.verify.check_det_identity

    def second_sector_hits_a_pole(cfg, sector):
        if sector == (1, 2):
            raise PoleHit("injected")
        return real(cfg, sector)

    monkeypatch.setattr(cli.verify, "check_det_identity", second_sector_hits_a_pole)
    rc = load_config(rational_path)
    rc.checks = ["det-identity"]
    report = run(rc)
    assert len(report.results) == len(report.timings) == 1
    assert report.results[0].status == "fail"
    assert report.results[0].witness == "PoleHit: injected"


@pytest.mark.parametrize("name", ["rational", "trig", "rational-float", "trig-float"])
def test_every_result_is_made_by_verdict_or_error_result(monkeypatch, name):
    # report.verdict judges every check and report.error_result records every
    # error, so each reported result is an object that one of them returned.
    # They are kept and compared with `is`: ids of collected results recur
    for module in pkgutil.iter_modules(qkzbench.__path__):
        importlib.import_module(f"qkzbench.{module.name}")
    made = []
    for fn in (verdict, error_result):
        def kept(*args, _fn=fn, **kwargs):
            made.append(_fn(*args, **kwargs))
            return made[-1]

        for module in [m for key, m in sys.modules.items()
                       if key.partition(".")[0] == "qkzbench"]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, kept)
    results = run(load_config(Path(__file__).parent / "data" / f"{name}.cfg")).results
    assert results
    assert [(r.name, r.sector) for r in results
            if not any(r is m for m in made)] == []


def test_emit_text_contains_table(rational_path):
    rc = load_config(rational_path)
    rc.checks = ["sum-rule"]
    text = emit(run(rc), "text")
    assert "sum-rule" in text and "overall: pass" in text


# ---------------------------------------------------------------- entry point

def test_main_verify_pass(rational_path, capsys):
    code = main(["verify", "--config", rational_path, "--check", "ybe"])
    out = capsys.readouterr().out
    assert code == 0 and "overall: pass" in out


def test_main_verify_failure_exit_code(trig_path, capsys):
    # a rational-only check named on the trigonometric flavor fails loudly
    code = main(["verify", "--config", trig_path, "--check", "det-identity"])
    assert code == 1
    assert "fail" in capsys.readouterr().out


def test_main_config_error_exit_code(tmp_path, capsys):
    # non-generic positions, zero twist entries and too few x are config errors
    p = tmp_path / "bad.cfg"
    for x, g, message in (("[0, 1/2]", "[2, 3]", "sinh(x_1 - x_2 + eta) = 0"),
                          ("[0, 2/5]", "[0, 3]", "twist entry g_1 = 0"),
                          ("[0]", "[2, 3]", "need 2 inhomogeneities, got 1")):
        p.write_text("model = rational\nN = 2\nn = 2\neta = 1/2\nhbar = 0\n"
                     f"x = {x}\ng = {g}\n")
        assert main(["verify", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command,builder", [("verify", "r_rational"),
                                             ("correspond", "r_rational_tilde")])
@pytest.mark.parametrize("message,err", [("", "error: out of memory\n"),
                                         ("no room", "error: out of memory: no room\n")])
def test_main_out_of_memory_is_exit_2(rational_path, capsys, monkeypatch,
                                      command, builder, message, err):
    # the command cannot run: one line on stderr, no traceback, no report
    def exhausted(*args):
        raise MemoryError(message)
    monkeypatch.setattr(rmatrix, builder, exhausted)
    assert main([command, "--config", rational_path]) == 2
    assert capsys.readouterr() == ("", err)


def _write_long_chain(tmp_path, n):
    # integer points with eta = 1/2 and hbar = 1/3 meet no pole
    p = tmp_path / f"long-{n}.cfg"
    p.write_text("model = rational\nN = 2\nn = %d\neta = 1/2\nhbar = 1/3\n"
                 "x = [%s]\ng = [2, 3]\n" % (n, ", ".join(map(str, range(n)))))
    return str(p)


def _refuse_spaces(monkeypatch):
    # Space.__new__ builds each space, and returns the one it built before
    def refuse(*args):
        raise AssertionError("a Space was requested")
    monkeypatch.setattr(tensor.Space, "__new__", refuse)


def test_main_refuses_an_oversized_chain_before_building_it(tmp_path, capsys,
                                                            monkeypatch):
    # T(x) of 30 sites lists 2^31 states; the config is refused on load
    _refuse_spaces(monkeypatch)
    path = _write_long_chain(tmp_path, 30)
    assert main(["verify", "--config", path, "--check", "transfer-commute"]) == 2
    assert capsys.readouterr().err == (
        f"config error: 2^31 states exceed {chain.MAX_STATES}\n")


def test_a_chain_at_the_state_bound_loads(tmp_path, monkeypatch):
    _refuse_spaces(monkeypatch)
    assert 2 ** 17 == chain.MAX_STATES
    assert load_config(_write_long_chain(tmp_path, 16)).model.n == 16
    with pytest.raises(GenericPositionViolation, match="2\\^18 states"):
        load_config(_write_long_chain(tmp_path, 17))


@pytest.mark.parametrize("line,text", [(5, "eta = 1/0"), (7, "x = [0, 1/0, 9/7]")])
def test_main_zero_denominator_is_a_config_error(tmp_path, capsys, line, text):
    p = tmp_path / "c.cfg"
    lines = RATIONAL_CFG.splitlines()
    key = text.split()[0]
    assert lines[line - 1].startswith(f"{key} = ")
    lines[line - 1] = text
    p.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: bad value for '{key}'")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "spectrum", "correspond"])
def test_main_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    p = tmp_path / "c.cfg"
    p.write_bytes(b"\xff" + RATIONAL_CFG.encode())
    assert main([command, "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: not UTF-8 text: invalid start byte\n"


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")
    return json.loads(text, parse_constant=refuse)


def test_json_safe_writes_non_finite_floats_as_strings():
    values = [math.inf, -math.inf, math.nan, complex(math.nan, 1), 0.5]
    assert cli._json_safe(values) == ["inf", "-inf", "nan", ["nan", 1.0], 0.5]


def test_correspond_report_with_an_inf_radius_is_strict_json(monkeypatch, capsys):
    # every target moved by 1/2: no circle around a target holds its roots
    targets = verify.twist_targets
    monkeypatch.setattr(verify, "twist_targets", lambda cfg, sector: [
        t + Fraction(1, 2) for t in targets(cfg, sector)])
    path = Path(__file__).parent / "data" / "rational.cfg"
    assert main(["correspond", "--config", str(path), "--sector", "2,1"]) == 1
    (sector,) = _strict_json(capsys.readouterr().out)["sectors"]
    assert sector["worst"] == "inf"
    assert {row["radius"] for row in sector["rows"]} == {"inf"}


def test_main_missing_file(capsys):
    assert main(["verify", "--config", "/nonexistent.cfg"]) == 2


def test_main_rejects_bad_tol(rational_path, capsys):
    assert main(["verify", "--config", rational_path, "--tol", "0"]) == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_main_rejects_unusable_tol(rational_path, capsys, tol):
    assert main(["verify", "--config", rational_path, "--tol", tol]) == 2
    assert main(["correspond", "--config", rational_path, "--tol", tol]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_load_config_rejects_nonfinite_tol(tmp_path, tol):
    p = tmp_path / "c.cfg"
    p.write_text(RATIONAL_CFG.replace("tol = 1e-10", f"tol = {tol}"))
    with pytest.raises(NonPositiveTolerance):
        load_config(str(p))


def test_main_float_verify_of_a_huge_parameter_exits_as_correspond_does(tmp_path, capsys):
    # x_3 = 10^400 is beyond double range; every identity runs on the exact
    # chain, and the correspondence reads exact minors too
    p = tmp_path / "huge.cfg"
    p.write_text(RATIONAL_CFG.replace("x = [0, 2/5, 9/7]", f"x = [0, 2/5, {10**400}]")
                 .replace("mode = exact", "mode = float"))
    assert main(["correspond", "--config", str(p)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(p), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    results = _strict_json(out)["results"]
    assert {r["residual"] for r in results if r["name"] != "correspondence"} == {0.0}


def test_float_report_writes_inf_beyond_double_range():
    # float() of the residual raises OverflowError; the report writes "inf"
    huge = Fraction(10 ** 400)
    result = verdict("sum-rule", [(huge, ((1, 1), (2, 1)))])
    for mode, written in (("float", "inf"), ("exact", str(huge))):
        report = cli.RunReport(config={"mode": mode}, results=[result], timings=[0.0])
        (doc,) = _strict_json(emit(report, "json"))["results"]
        assert (doc["status"], doc["residual"]) == ("fail", written)
    assert "inf" in emit(cli.RunReport(config={"mode": "float"}, results=[result],
                                       timings=[0.0]))


# the exact-trig benchmark chain at seed 1
TRIG_SEED_1_CFG = """\
model = trigonometric
N = 2
n = 6
t = 2
h = 5/4
u = [5/2, 13/4, 8/3, 11/5, 3, 18/7]
g = [3, 6]
seed = 1
tol = 1e-10
mode = float
"""


def test_float_mode_passes_true_identities(tmp_path, capsys):
    # in complex doubles these two failed at 1.342e-09 and 6.985e-10
    p = tmp_path / "trig-seed-1.cfg"
    p.write_text(TRIG_SEED_1_CFG)
    assert main(["verify", "--config", str(p), "--format", "json",
                 "--check", "pole-expansion", "--check", "sum-rule"]) == 0
    results = _strict_json(capsys.readouterr().out)["results"]
    assert [(r["name"], r["status"], r["residual"]) for r in results] == [
        ("pole-expansion", "pass", 0.0), ("sum-rule", "pass", 0.0)]


def test_main_spectrum(rational_path, capsys):
    code = main(["spectrum", "--config", rational_path, "--sector", "2,1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sectors"][0]["sector"] == [2, 1]
    assert len(doc["sectors"][0]["states"]) == 3


def test_main_correspond(rational_path, capsys):
    code = main(["correspond", "--config", rational_path, "--sector", "2,1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "pass"
    rows = doc["sectors"][0]["rows"]
    assert len(rows) == 3
    for row in rows:
        assert row["radius"] <= 1e-8


@pytest.mark.parametrize("command", ["spectrum", "correspond"])
def test_report_echoes_seed_and_sector_overrides(rational_path, capsys, command):
    assert main([command, "--config", rational_path,
                 "--seed", "7", "--sector", "2,1"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["seed"] == 7
    assert config["sectors"] == [[2, 1]]
    assert main([command, "--config", rational_path]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["seed"] == 1 and config["sectors"] == "all"


def test_correspond_echoes_the_tolerance_it_gates_at(rational_path, capsys):
    assert main(["correspond", "--config", rational_path, "--sector", "2,1",
                 "--tol", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1e-6
    # without --tol the command gates at 1e-8, whatever the file's tol
    assert main(["correspond", "--config", rational_path, "--sector", "2,1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1e-8


def test_check_registry_is_published():
    assert len(CHECK_NAMES) == 14
    assert "ybe" in CHECK_NAMES and "correspondence" in CHECK_NAMES


# at seed 39 one Yang-Baxter draw has the exact ratio p1 / p2 = 4/5 = -1/t, a
# pole of R12; in complex doubles it reads 0.7999..., so a pole guard decided
# on the float config missed it and ybe failed at residual 0.339
YBE_POLE_CFG = """\
model = trigonometric
N = 2
n = 4
t = -5/4
h = -7/4
u = [6/7, 11/10, 10/11, 1]
g = [3/2, 3]
seed = 39
tol = 1e-10
mode = {mode}
"""


def _ybe_pole_run(tmp_path, mode):
    p = tmp_path / f"ybe-pole-{mode}.cfg"
    p.write_text(YBE_POLE_CFG.format(mode=mode))
    rc = load_config(str(p))
    rc.checks = ["ybe", "unitarity", "twist-commute"]
    return run(rc).results


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_spectral_draws_avoid_poles_of_the_exact_config(tmp_path, mode):
    ybe, unitarity, twist = _ybe_pole_run(tmp_path, mode)
    assert ybe.passed and unitarity.passed and twist.passed
    # both modes draw the same exact points and check them exactly
    assert twist.params["point"] == "-2"
    assert (ybe.residual, unitarity.residual, twist.residual) == (0, 0, 0)


def test_float_ybe_on_the_pole_config_fails_a_perturbed_coupling(tmp_path,
                                                                   monkeypatch):
    # the control: R12 built at a coupling moved by 1e-6 breaks the relation
    r_factor = rmatrix.r_factor

    def perturbed(flavor, space, i, j, point, coupling, tilde=False):
        if space.n == 3 and (i, j) == (1, 2):
            coupling *= Fraction(98, 97)
        return r_factor(flavor, space, i, j, point, coupling, tilde)

    monkeypatch.setattr(rmatrix, "r_factor", perturbed)
    ybe, _, _ = _ybe_pole_run(tmp_path, "float")
    assert not ybe.passed and ybe.residual > 1e-8


# ------------------------------------------------------ shifted-point poles
# A qKZ factor meets x_i - x_j + eta*hbar (i > j) or x_i - x_j - eta*hbar
# (i < j, site j shifted).  On a pole of R it is a config error in both
# modes: before, exact mode failed qkz-compat with a PoleHit witness and
# float mode at an O(1) residual on a true identity.
SHIFTED_POLE_CFGS = {
    # x_1 - x_2 - eta*hbar = 1/3 = -eta
    "rational": ("model = rational\nN = 3\nn = 2\neta = -1/3\nhbar = 16\n"
                 "x = [-1, 4]\ng = [-17/7, 6/11, 5/2]\nseed = 56\n",
                 "sinh(x_1 - x_2 - eta*hbar + eta) = 0"),
    # u_2 / (u_3 h) * t = -1
    "trig": ("model = trigonometric\nN = 3\nn = 3\nt = -10\nh = 5/3\n"
             "u = [1, 3/8, 9/4]\ng = [2, 3, 5]\nseed = 1\n",
             "sinh(x_2 - x_3 - eta*hbar + eta) = 0"),
}


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("flavor", sorted(SHIFTED_POLE_CFGS))
def test_a_shifted_point_on_a_pole_is_a_config_error(tmp_path, flavor, mode):
    text, message = SHIFTED_POLE_CFGS[flavor]
    p = tmp_path / "pole.cfg"
    p.write_text(text + f"mode = {mode}\n")
    code, out, err = _main_quietly(["verify", "--config", str(p),
                                    "--check", "qkz-compat"])
    assert (code, out, err) == (2, "", f"config error: {message}\n")


@pytest.fixture(scope="module")
def sweep_path(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep") / "chain.cfg"


_SWEEP_POOL = tuple(Fraction(p, q) for p in range(-4, 5) if p for q in (1, 2, 3))
# each later point is drawn freely, or moved from an earlier one onto a pole
# of the pair, unshifted or shifted by the qKZ step
_SWEEP = {
    "rational": ("eta", "hbar", "x",
                 (Fraction(-1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)),
                 (Fraction(1), Fraction(-1, 2), Fraction(16), Fraction(1, 3)),
                 lambda p, eta, s: (p + eta, p - eta, p + eta * s + eta,
                                    p + eta * s - eta, p - eta * s + eta)),
    "trigonometric": ("t", "h", "u",
                      (Fraction(2), Fraction(-1, 2), Fraction(5, 9), Fraction(-10)),
                      (Fraction(5, 4), Fraction(1, 3), Fraction(-7, 4), Fraction(5, 3)),
                      lambda p, t, h: (p * t, -p * t, p * h * t, p * h / t,
                                       -p * h * t)),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exact_configs_near_poles_pass_or_are_config_errors(sweep_path, data):
    # every check an exact verify runs; a config that reaches a pole must be
    # refused before any check builds a factor, never fail a check
    flavor = data.draw(st.sampled_from(sorted(_SWEEP)))
    coupling_key, step_key, points_key, couplings, steps, moves = _SWEEP[flavor]
    coupling = data.draw(st.sampled_from(couplings))
    step = data.draw(st.sampled_from(steps))
    points = [data.draw(st.sampled_from(_SWEEP_POOL))]
    for _ in range(data.draw(st.integers(1, 2))):
        p = data.draw(st.sampled_from(points))
        free = data.draw(st.sampled_from([v for v in _SWEEP_POOL if v not in points]))
        points.append(data.draw(st.sampled_from((free,) * 5 + moves(p, coupling, step))))
    points = data.draw(st.permutations(points))
    sweep_path.write_text(
        f"model = {flavor}\nN = 2\nn = {len(points)}\n"
        f"{coupling_key} = {coupling}\n{step_key} = {step}\n"
        f"{points_key} = [{', '.join(map(str, points))}]\ng = [2, 3]\nseed = 1\n")
    code, out, err = _main_quietly(["verify", "--config", str(sweep_path),
                                    "--format", "json"])
    assert code in (0, 2), out
    assert "PoleHit" not in out
    if code == 2:
        assert err.startswith("config error: ")
