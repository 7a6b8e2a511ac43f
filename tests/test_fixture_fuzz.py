"""A JSON document with one node replaced never makes the CLI exit 3.

Each example takes a document, replaces one node (any depth) with a
random JSON value, writes it to a file and runs a command on it: a
packaged fixture under ``fixture PATH --verify``, or the README's cone,
pairing and geometry documents under ``cone``, ``bck`` and
``decompose --geometry``.  Malformed data must be an input error (exit 1)
or a domain error (exit 2), never an internal error (exit 3); a harmless
replacement, such as a new description, still exits 0.
"""

import copy
import dataclasses
import inspect
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecones.cli import run
from cyclecones.errors import InputError
from cyclecones.fixtures import FIXTURE_NAMES, checks, load, verify_claims

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


def _replaced(doc, path, value):
    """A copy of ``doc`` whose node at ``path`` is ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _exit_code(doc, name, argv):
    """The exit code of ``argv`` with ``doc`` written to a file standing for
    ``PATH`` in it, and the result document."""
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / f"{name}.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        document, code = run([str(target) if a == "PATH" else a for a in argv])
    return code, document


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(MUTATIONS)
def test_mutated_fixture_document_never_exits_3(mutation):
    name, path, value = mutation
    doc = _replaced(DOCUMENTS[name], path, value)
    code, document = _exit_code(doc, name, ["fixture", "PATH", "--verify"])
    assert code in (0, 1, 2), (path, value, document["payload"])


# the README's JSON schema examples, each with the commands that read it
INPUTS = {
    "cone": (
        {"basis": "demo.div", "dim": 2,
         "generators": [["1", "0"], ["1", "2"]],
         "inequalities": [["0", "1"], ["2", "-1"]]},
        [["cone", op, "--input", "PATH"] for op in ("convert", "dual", "rays")]
        + [["cone", "contains", "--input", "PATH", "--vector", "1,1"]],
    ),
    "gram": (
        {"labels": ["a", "b"], "gram": [["-2", "1"], ["1", "-2"]]},
        [["bck", "--gram", "PATH", "--class", "1,2", *flag]
         for flag in ((), ("--brute-force",))],
    ),
    "geometry": (
        {"name": "demo", "basis": "plane", "dim": 2,
         "mov": {"generators": [["1", "1"], ["0", "1"]]},
         "eff": {"generators": [["1", "0"], ["0", "1"]]},
         "objective": ["1", "1"]},
        [["decompose", "--geometry", "PATH", "--class", "3,1"]],
    ),
}

INPUT_MUTATIONS = st.sampled_from(sorted(INPUTS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.sampled_from(INPUTS[name][1]),
        st.sampled_from([(), *_paths(INPUTS[name][0])]),
        JSON_VALUES,
    )
)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_input_documents_run_as_given(name):
    doc, commands = INPUTS[name]
    for argv in commands:
        code, document = _exit_code(doc, name, argv)
        assert code == 0, (argv, document["payload"])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(INPUT_MUTATIONS)
def test_mutated_input_document_never_exits_3(mutation):
    name, argv, path, value = mutation
    doc = _replaced(INPUTS[name][0], path, value)
    code, document = _exit_code(doc, name, argv)
    assert code in (0, 1, 2), (argv, path, value, document["payload"])


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_each_node_of_an_input_document_takes_every_json_type(name):
    # the sweep the random examples above may miss: every node replaced by
    # a value of each JSON type, under the document's first command
    doc, commands = INPUTS[name]
    for path in [(), *_paths(doc)]:
        for value in (None, True, 0, "x", [], {}):
            code, document = _exit_code(_replaced(doc, path, value), name, commands[0])
            assert code in (0, 1, 2), (path, value, document["payload"])


def test_each_class_argument_takes_every_class_of_another_basis():
    # every class-naming argument of every packaged claim, and each entry of a
    # list of classes, replaced by each declared class of another basis, the
    # claim run alone: it is an input error naming the claim (exit 1), never a
    # verdict or a fault
    runs = 0
    for name in FIXTURE_NAMES:
        fixture = load(name)
        for claim in fixture.claims:
            params = inspect.signature(checks.CHECKS[claim.check]).parameters
            for key, value in claim.args.items():
                kind = params[key].annotation
                if kind not in ("ClassVector", "list[ClassVector]"):
                    continue
                names = value if kind == "list[ClassVector]" else [value]
                for i, class_name in enumerate(names):
                    basis = fixture.vector(class_name).basis
                    others = [c for b, table in fixture.vectors.items() if b != basis
                              for c in table]
                    for other in others:
                        given = [*names[:i], other, *names[i + 1:]]
                        args = {**claim.args, key: given if kind.startswith("list") else other}
                        one = dataclasses.replace(claim, args=args)
                        with pytest.raises(InputError) as caught:
                            verify_claims(dataclasses.replace(fixture, claims=(one,)))
                        assert f"claim {claim.id!r}: " in caught.value.message, (one, caught)
                        runs += 1
    assert runs == 180
