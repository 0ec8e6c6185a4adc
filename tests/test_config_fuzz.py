"""Property test of the CLI exit-code contract on mutated configs.

One field of configs/default.json on a 16x16 grid is set to a value of the
wrong kind or an extreme magnitude (an integer literal past the float range
among them).  The fields are every key of ``report.CONFIG_KEYS``, set even
where default.json omits it, each section that holds them, and each list
entry default.json writes.  Whatever the mutation, ``weinstein run`` must
return 0, 1, 2 or 3 without an escaping exception, exit 1 must come with a
report whose ``ok`` is false, and exit 2 or 3 with exactly one stderr line.
Size keys reach only budgets that refuse them before anything is allocated.
Renaming one key that default.json writes (appending ``_x``) must exit 2: a
required key goes missing or an unknown one appears.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from weinstein.cli import main
from weinstein.report import CONFIG_KEYS

DEFAULT = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.json"
BAD_VALUES = ("x", [1], {}, None, True, -1,
              0, 1e300, -1e300, 1e-300, 1e-8, 1e8, 10**400)


def _base():
    doc = json.loads(DEFAULT.read_text())
    doc["grid"]["counts"] = [16, 16]
    return doc


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _entries(path, value):
    """Each entry of a list, at any depth, as key paths."""
    for i, entry in enumerate(value if isinstance(value, list) else ()):
        yield path + (i,)
        yield from _entries(path + (i,), entry)


def _paths(base):
    """Each key of CONFIG_KEYS, its section and each list entry that
    ``base`` writes there, as key paths."""
    for key in CONFIG_KEYS:
        path = tuple(key.path.split("."))
        yield from (path[:i] for i in range(1, len(path) + 1))
        yield from _entries(path, _parent(base, path).get(path[-1]))


BASE = _base()
PATHS = sorted(set(_paths(BASE)), key=repr)
KEY_PATHS = [p for p in PATHS if isinstance(p[-1], str)
             and p[-1] in _parent(BASE, p)]


def _run(doc, tmp):
    cfg = pathlib.Path(tmp) / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = pathlib.Path(tmp) / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(cfg), "--out", str(out),
                     "--format", "json"])
    err = err.getvalue()
    if code in (2, 3):
        assert err.count("\n") == 1 and "Traceback" not in err, err
    return code, out


@settings(derandomize=True, deadline=None, max_examples=40)
@given(path=st.sampled_from(PATHS), value=st.sampled_from(BAD_VALUES),
       renamed=st.sampled_from(KEY_PATHS))
def test_mutated_config_exit_contract(path, value, renamed):
    doc = _base()
    _parent(doc, path)[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _run(doc, tmp)
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert json.loads((out / "report.json").read_text())["ok"] is False
    doc = _base()
    node = _parent(doc, renamed)
    node[renamed[-1] + "_x"] = node.pop(renamed[-1])
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(doc, tmp)[0] == 2
