"""A fixture document with one node replaced never makes the CLI exit 3.

Each example takes a packaged fixture document, replaces one node (any
depth) with a random JSON value, writes it to a file and runs
``fixture PATH --verify``.  Malformed data must be an input error (exit 1)
or a domain error (exit 2), never an internal error (exit 3); a harmless
replacement, such as a new description, still exits 0.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecones.cli import run
from cyclecones.fixtures import FIXTURE_NAMES, load

DOCUMENTS = {name: load(name).raw for name in FIXTURE_NAMES}


def _paths(node, prefix=()):
    """Every key path below ``node``, parents before children."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {name: list(_paths(doc)) for name, doc in DOCUMENTS.items()}

# the characters of names, monomials, profiles and rationals in the documents
TEXT = st.text(alphabet="DSTCE123^*:,/- x", max_size=8)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.fractions().map(str)
    | TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=6,
)

MUTATIONS = st.sampled_from(FIXTURE_NAMES).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(PATHS[name]), JSON_VALUES)
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(MUTATIONS)
def test_mutated_fixture_document_never_exits_3(mutation):
    name, path, value = mutation
    doc = copy.deepcopy(DOCUMENTS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / f"{name}.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        document, code = run(["fixture", str(target), "--verify"])
    assert code in (0, 1, 2), (path, value, document["payload"])
