"""Property test of the CLI exit-code contract on mutated configs.

One field of configs/default.json (a section, a leaf or a list entry) is
replaced by a value of the wrong kind or an extreme magnitude on a 16x16
grid; whatever the mutation, ``weinstein run`` must return 0, 1, 2 or 3
without an escaping exception, exit 1 must come with a report whose ``ok``
is false, and exit 2 or 3 with exactly one stderr line.  Size keys reach
only budgets that refuse them before anything is allocated.  Renaming one
dict key (appending ``_x``) must exit 2: a required key goes missing or an
unknown one appears.
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

DEFAULT = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.json"
BAD_VALUES = ("x", [1], {}, None, True, -1,
              0, 1e300, -1e300, 1e-300, 1e-8, 1e8)


def _base():
    doc = json.loads(DEFAULT.read_text())
    doc["grid"]["counts"] = [16, 16]
    return doc


def _paths(node, prefix=()):
    """Every section, leaf and list entry of a JSON tree, as key paths."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = sorted(_paths(_base()), key=repr)
KEY_PATHS = [p for p in PATHS if isinstance(p[-1], str)]


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


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
