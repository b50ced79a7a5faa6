"""Fuzz the JSON loaders through the command line.

Each case starts from a document built from a shipped fixture (an algebra, a
bimonoid, a map, a calculus with inline relations, a relations file), puts
another JSON value at one place in it, and runs the subcommand that reads it.
Whatever the value, the program must exit 0, 1, 2 or 64 and print one JSON
document: no traceback and no internal-invariant exit (70).  Every place
gets every value a lenient reader mistakes for another; Hypothesis draws
arbitrary values besides.  Dimensions stay at most 3, and the search is
derandomized so a run is repeatable.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from omegacalc.cli import main  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "omegacalc" / "fixtures"


def fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def identity_map(doc):
    n = doc["dim"]
    return {"source": doc, "target": doc,
            "matrix": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}


# 1 (x) b^2 - b (x) b for the last basis element b of Q[Z/2], k[x]/x^2 and
# k[x]/x^3, in A (x) A coordinates: each lies in the kernel of multiplication
QZ2_RELATION = ["1", "0", "0", "-1"]
X2_RELATION = ["0", "0", "0", "-1"]
X3_RELATION = ["0", "0", "1", "0", "-1", "0", "0", "0", "0"]

# name -> (document to fuzz, the other files, argv); "{doc}" is the fuzzed
# file and any other name in braces one of the other files
CASES = {
    "algebra": (fixture("f3x3"), {}, ["check", "{doc}"]),
    "algebra-prolong": (fixture("qx2"), {"rel": {"generators": [X2_RELATION]}},
                        ["prolong", "{doc}", "--calculus", "quotient:rel.json",
                         "--max-degree", "2"]),
    "bimonoid": (fixture("qz2"), {"rel": {"generators": [QZ2_RELATION]}},
                 ["bicovariant", "{doc}", "--relations", "rel.json"]),
    "map": (identity_map(fixture("f2x2")),
            {"calc": {"algebra": fixture("f2x2"), "kind": "universal"}},
            ["extend", "--map", "{doc}", "--calculus", "{calc}"]),
    "calculus": ({"algebra": fixture("f3x3"), "kind": "quotient", "relations": [X3_RELATION]},
                 {"map": identity_map(fixture("f3x3"))},
                 ["restrict", "--map", "{map}", "--calculus", "{doc}"]),
    "relations": ({"generators": [QZ2_RELATION]}, {},
                  ["bicovariant", str(FIXTURES / "qz2.json"), "--relations", "{doc}"]),
}


def places(doc, path=()):
    """Every place in doc a value can be put: the root, each key of a dict,
    and the first entry of each list (the others have the same role)."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from places(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from places(doc[0], path + (0,))


def put(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


# values that a lenient reader takes for another: 1e400 is read as
# infinity, int() truncates 5.5 and converts "7" and true
EDGES = [1e400, math.nan, 5.5, "7", True, None, [], {}]
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["Q", "1", "-1", "1/2", "x", "NaN"])
    | st.text(max_size=6)
)
json_values = st.sampled_from(EDGES) | st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["Fp", "dim", "x"]) | st.text(max_size=3), inner,
                      max_size=2),
    max_leaves=8,
)


def run(doc, others, argv):
    """Write doc and the other files into a scratch directory and run argv on
    them; returns the exit code and stdout."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        names = {}
        for key, content in {"doc": doc, **others}.items():
            target = Path(tmp) / f"{key}.json"
            target.write_text(json.dumps(content))
            names[key] = str(target)
        with contextlib.redirect_stdout(out):
            code = main([arg.format(**names) for arg in argv] + ["--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_edge_value_at_every_place_ends_in_a_documented_exit(name):
    doc, others, argv = CASES[name]
    for path in places(doc):
        for value in EDGES:
            code, out = run(put(doc, path, value), others, argv)
            assert code in (0, 1, 2, 64), (path, value, code, out)
            json.loads(out)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_fuzzed_document_ends_in_a_documented_exit(name, data):
    doc, others, argv = CASES[name]
    path = data.draw(st.sampled_from(list(places(doc))), label="place")
    value = data.draw(json_values, label="value")
    code, out = run(put(doc, path, value), others, argv)
    assert code in (0, 1, 2, 64), (code, out)
    json.loads(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_unfuzzed_documents_are_accepted(name):
    # the fuzz starts from documents every command accepts
    code, out = run(*CASES[name])
    assert code == 0, out
    json.loads(out)
