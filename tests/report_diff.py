"""Print every JSON path at which two reports differ, with both values.

    python tests/report_diff.py OLD.json NEW.json
    python tests/report_diff.py OLD_DIR NEW_DIR

Each line reads ``path: old -> new``, values in compact JSON and
``(absent)`` for a key or list entry that only one side has.  A path starts
at the document root, e.g. ``results[0].params.points``; given two
directories, each line starts with the name of the *.json file it is from,
and a file that only one directory holds reads ``(present)`` on its side.
Two values differ when their JSON text differs, so 0 and 0.0 do.  The exit
status is 0 when nothing differs, 1 otherwise and 2 on a wrong call.
Standard library only.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ABSENT, PRESENT = object(), object()  # written "(absent)" and "(present)"


def differences(old, new, path=""):
    """(path, old value, new value) of every differing leaf, in document
    order; ABSENT stands for a missing key or list entry."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from differences(old.get(key, ABSENT), new.get(key, ABSENT),
                                   f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from differences(old[i] if i < len(old) else ABSENT,
                                   new[i] if i < len(new) else ABSENT, f"{path}[{i}]")
    elif _text(old) != _text(new):
        yield path, old, new


def _text(value):
    if value is ABSENT or value is PRESENT:
        return "(absent)" if value is ABSENT else "(present)"
    return json.dumps(value)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def diff_paths(old, new):
    """(path, old value, new value) of every difference between two report
    files, or between the *.json files of two directories."""
    old, new = Path(old), Path(new)
    if not (old.is_dir() and new.is_dir()):
        yield from differences(_load(old), _load(new))
        return
    names = sorted({p.name for d in (old, new) for p in d.glob("*.json")})
    for name in names:
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            yield name, *(PRESENT if p.exists() else ABSENT for p in (a, b))
            continue
        for path, x, y in differences(_load(a), _load(b)):
            yield f"{name}: {path}", x, y


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found = False
    for path, old, new in diff_paths(*args):
        found = True
        print(f"{path}: {_text(old)} -> {_text(new)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
