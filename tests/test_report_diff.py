"""tests/report_diff.py names every differing JSON path, with both values."""
import json

from report_diff import ABSENT, diff_paths, differences, main


def test_every_differing_leaf_is_named_by_its_path():
    old = {"results": [{"name": "ybe", "params": {"samples": 3}, "residual": 0}],
           "overall": "pass"}
    new = {"results": [{"name": "ybe", "params": {"points": ["8"]}, "residual": 0.0},
                       {"name": "unitarity"}],
           "overall": "pass"}
    assert list(differences(old, new)) == [
        ("results[0].params.samples", 3, ABSENT),
        ("results[0].params.points", ABSENT, ["8"]),
        ("results[0].residual", 0, 0.0),  # equal numbers, different JSON text
        ("results[1]", ABSENT, {"name": "unitarity"}),
    ]
    assert list(differences(old, old)) == []


def test_directories_compare_the_reports_they_share(tmp_path, capsys):
    for side, residual in (("old", "0"), ("new", "1/2")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "verify.json").write_text(json.dumps({"residual": residual}))
    (tmp_path / "new" / "spectrum.json").write_text("{}")
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    assert len(list(diff_paths(old, new))) == 2
    assert main([old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "spectrum.json: (absent) -> (present)",
        'verify.json: residual: "0" -> "1/2"',
    ]
    assert main([old, old]) == 0
