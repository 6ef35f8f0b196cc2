"""Mutated fixture documents through ``documents.parse`` and ``cli.main``.

One mutation table applies to every kind in ``documents.KINDS``: a dropped
key, a value of the wrong JSON type, an array shape that disagrees with the
dimensions, a dimension above its cap, and a scalar that is not rational or
is longer than the literal cap.  ``cli.main`` must end every mutant with
exit code 0, 1 or 2, and ``documents.parse`` may raise only the exception
families the CLI maps to exit codes."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lie2alg import cli, cohom, defo, documents, el2, exactla as xla
from lie2alg.dkcore import ChainMapError, CompositionError
from test_documents import all_kind_objects

# the exceptions cli.main turns into exit code 2 (input) or 1 (violation)
DOCUMENTED = (documents.ParseError, xla.ShapeError, CompositionError, ChainMapError, defo.DegreeError,
              el2.InvalidStructureError, el2.PairingError, cohom.CocycleError, cohom.TransferError,
              defo.MaurerCartanError)

FIXTURES = {json.loads(text)["kind"]: json.loads(text) for text in map(documents.serialize, all_kind_objects())}

# the subcommands each kind is run through
COMMANDS = {
    "complex": [["check"]],
    "el2": [["check"], ["ss"], ["classify"]],
    "morphism": [["check"]],
    "two_morphism": [["check"]],
    "lie_algebra": [["check"], ["cohomology", "--ce"]],
    "leibniz_algebra": [["check"]],
    "representation": [["check"], ["cohomology"]],
    "cocycle_pair": [["check"]],
    "graded_l3": [["mc"], ["inner-sym"]],
    "mc_problem": [["mc"], ["inner-sym"]],
}

# the degrees of a graded algebra with a cap (MAX_COMPLEX_DIM); n0, n1 and
# dim have one everywhere (MAX_COMPLEX_DIM, MAX_VALIDATION_WORK)
CAPPED = {"-2", "-1", "0"}
ABOVE_CAPS = (documents.MAX_COMPLEX_DIM + 1, 25, 98, 3000, 10**9)
WRONG_TYPES = (None, True, 1.5, "x", [], {}, 7)
BAD_SCALARS = (1.5, True, None, [], "0.5", "1e3", "1/0", "abc", "NaN", 10**1001, "1/" + "3" * 1001)


def _is_array(node) -> bool:
    return isinstance(node, dict) and set(node) == {"shape", "entries"}


def _positions(node, path=()):
    """The (holder path, key) of every value in a document, not descending
    into an array's entries."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path, key
        if not (isinstance(node, dict) and key == "entries" and _is_array(node)):
            yield from _positions(value, path + (key,))


def _holder(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def drop_key(doc, draw):
    keys = [(p, k) for p, k in _positions(doc) if isinstance(_holder(doc, p), dict)]
    path, key = draw(st.sampled_from(keys))
    del _holder(doc, path)[key]


def wrong_type(doc, draw):
    path, key = draw(st.sampled_from(list(_positions(doc))))
    holder = _holder(doc, path)
    holder[key] = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(holder[key])]))


def wrong_shape(doc, draw):
    arrays = [(p, k) for p, k in _positions(doc) if _is_array(_holder(doc, p)[k])]
    path, key = draw(st.sampled_from(arrays))
    shape = list(_holder(doc, path)[key]["shape"])
    change = draw(st.sampled_from(["grow", "shrink", "append", "drop"]))
    if change == "append" or not shape:
        shape.append(1)
    elif change == "drop":
        shape.pop()
    else:
        axis = draw(st.integers(0, len(shape) - 1))
        shape[axis] = shape[axis] + 1 if change == "grow" or shape[axis] == 0 else shape[axis] - 1
    _holder(doc, path)[key] = {"shape": shape, "entries": [0] * math.prod(shape)}


def dimension_above_cap(doc, draw):
    dims = [(p, k) for p, k in _positions(doc) if k in ("n0", "n1", "dim") or p[-1:] == ("dims",) and k in CAPPED]
    path, key = draw(st.sampled_from(dims))
    _holder(doc, path)[key] = draw(st.sampled_from(ABOVE_CAPS))


def bad_scalar(doc, draw):
    arrays = [(p, k) for p, k in _positions(doc) if _is_array(_holder(doc, p)[k]) and _holder(doc, p)[k]["entries"]]
    path, key = draw(st.sampled_from(arrays))
    entries = _holder(doc, path)[key]["entries"]
    entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(BAD_SCALARS))


MUTATIONS = {"drop-key": drop_key, "wrong-type": wrong_type, "wrong-shape": wrong_shape,
             "dimension-above-cap": dimension_above_cap, "bad-scalar": bad_scalar}


def test_every_kind_has_commands_and_fixture():
    assert list(COMMANDS) == list(documents.KINDS) == list(FIXTURES)


@settings(max_examples=250, deadline=2000)
@given(kind=st.sampled_from(list(documents.KINDS)), mutation=st.sampled_from(list(MUTATIONS)), data=st.data())
def test_mutated_documents_end_in_an_exit_code(kind, mutation, data):
    doc = json.loads(json.dumps(FIXTURES[kind]))
    MUTATIONS[mutation](doc, data.draw)
    text = json.dumps(doc)
    try:
        documents.parse(text)
    except DOCUMENTED:
        pass
    command = data.draw(st.sampled_from(COMMANDS[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2)
