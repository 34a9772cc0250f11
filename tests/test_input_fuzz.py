"""Mutated algebra files and element expressions at the parse boundary.

Valid files of small named algebras are mutated in shape, literals, unit,
labels, dimension and grading.  ``algebra_from_dict`` must either build an
algebra or raise ``MalformedInputError``, and ``cdalg check`` must exit with
0, 1 or 3 (2 is argparse's usage error), printing a JSON error on stderr
whenever it fails.  Random element expressions go through ``parse_element``
and ``cdalg ann`` under the same rules.  The one-pass reader is compared
with the three-pass reference reader on valid and malformed files alike.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from cdalg import (
    CdalgError,
    Element,
    MalformedInputError,
    algebra_from_dict,
    algebra_to_dict,
    named_algebra,
    parse_element,
)
from cdalg.cli import main

import slow_reference as ref
from test_table import scaled_form

ODD_VALUES = st.one_of(
    st.sampled_from(["1/2", "-3", "0", "1/0", "abc", "", " 2", "1.5", "1e3", "0x10", "-0/5"]),
    st.integers(-3, 3),
    st.integers(2**63, 2**70),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.just([]),
    st.just({"p": 1}),
)


def _table(name):
    bundle = named_algebra(name)
    return algebra_to_dict(bundle.algebra, bundle.grading)


@st.composite
def mutated_files(draw):
    data = json.loads(json.dumps(_table(draw(st.sampled_from(["C", "H", "J3"])))))
    n = data["dim"]
    for _ in range(draw(st.integers(1, 3))):
        what = draw(st.sampled_from(
            ["rational", "rational", "rational", "partition", "literal", "literal",
             "cell", "row", "unit", "labels", "dim", "grading", "drop"]
        ))
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        constants = data.get("constants")
        intact = (
            isinstance(constants, list) and len(constants) == n
            and all(isinstance(r, list) and len(r) == n for r in constants)
            and all(isinstance(c, list) and len(c) == n for r in constants for c in r)
        )
        if what == "rational" and intact and 0 not in (i, j):
            # A valid entry off the unit's row and column keeps the unit axioms.
            constants[i][j][k] = draw(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2"]))
        elif what == "partition":
            odd = [m for m in range(1, n) if draw(st.booleans())]
            data["grading"] = {"even": [m for m in range(n) if m not in odd], "odd": odd}
        elif what == "literal" and intact:
            constants[i][j][k] = draw(ODD_VALUES)
        elif what == "cell" and intact:
            constants[i][j] = draw(st.sampled_from(
                [constants[i][j][:-1], constants[i][j] + ["0"], "0", None]
            ))
        elif what == "row" and intact:
            constants[i] = draw(st.sampled_from([constants[i][:-1], [], 7]))
        elif what == "unit":
            data["unit"] = draw(st.one_of(st.integers(-2, n + 1), ODD_VALUES))
        elif what == "labels":
            data["labels"] = draw(st.one_of(
                st.lists(st.one_of(st.text(max_size=3), ODD_VALUES), max_size=n + 1), ODD_VALUES
            ))
        elif what == "dim":
            data["dim"] = draw(st.one_of(st.integers(-1, n + 1), ODD_VALUES))
        elif what == "grading":
            index = st.one_of(st.integers(-1, n), ODD_VALUES)
            data["grading"] = draw(st.one_of(
                st.fixed_dictionaries({"even": st.lists(index, max_size=n),
                                       "odd": st.lists(index, max_size=n)}),
                st.fixed_dictionaries({"even": st.lists(index, max_size=n)}),
                ODD_VALUES,
            ))
        elif what == "drop" and data:
            data.pop(draw(st.sampled_from(sorted(data))))
    return data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_files())
@example({"dim": float("inf"), "constants": [[["1"]]], "unit": 0})
@example({"dim": True, "constants": [[["1"]]], "unit": 0})
@example({"dim": 1, "constants": [[[True]]], "unit": 0})
@example({"dim": 1, "constants": [[["1"]]], "unit": 0, "grading": {"even": [False]}})
def test_algebra_from_dict_builds_or_rejects(data):
    try:
        algebra_from_dict(data)
    except MalformedInputError:
        pass


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_files())
def test_check_exits_cleanly_on_mutated_files(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "algebra.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--budget", "20"])
    event(f"exit {code}")
    assert code in (0, 1, 3)
    if code == 0:
        assert set(json.loads(out.getvalue())) == {"flags", "witnesses"}
    else:
        error = json.loads(err.getvalue())
        assert error["kind"] == "malformed-input" if code == 3 else error["kind"] != "malformed-input"


def _read(reader, data):
    """What a reader makes of ``data``: the algebra's constants, its table
    (checked canonical), unit and labels and the grading, or the error's
    type and text."""
    try:
        algebra, grading = reader(copy.deepcopy(data))
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)
    parts = None if grading is None else (
        grading.even_rows, grading.odd_rows, grading.even, grading.odd
    )
    return algebra.constants, scaled_form(algebra), algebra.unit, algebra.labels, parts


# Valid spellings of rationals, zeros among them, as strings and integers.
LITERALS = st.one_of(
    st.sampled_from(["0", "-0", "0/7", "+0", "00", "1", "-1", "2/4", "-3/2", " 2", "7/1"]),
    st.integers(-3, 3),
    st.integers(2**63, 2**70),
)


@st.composite
def respelled_files(draw):
    """A named table with entries off the unit's row and column respelled,
    some as other valid literals, a few as invalid ones."""
    data = _table(draw(st.sampled_from(["C", "H", "J3", "O", "TO"])))
    n = data["dim"]
    for _ in range(draw(st.integers(1, 12))):
        i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        k = draw(st.integers(0, n - 1))
        value = draw(st.one_of(LITERALS, LITERALS, LITERALS, ODD_VALUES))
        data["constants"][i][j][k] = value
    return data


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(respelled_files(), mutated_files()))
def test_reader_agrees_with_three_pass_reference(data):
    outcome = _read(algebra_from_dict, data)
    event("rejected" if isinstance(outcome[0], type) else "built")
    assert outcome == _read(ref.algebra_from_dict, data)


def _set(i, j, k, value):
    def mangle(data):
        data["constants"][i][j][k] = value
    return mangle


def _set_cell(i, j, value):
    def mangle(data):
        data["constants"][i][j] = value
    return mangle


@pytest.mark.parametrize("mangle", [
    _set(1, 2, 3, True), _set(1, 2, 3, False), _set(2, 2, 0, 1.0), _set(1, 1, 0, -1.5),
    _set(1, 2, 3, ["1"]), _set(1, 2, 3, [[1]]), _set(1, 2, 3, {"p": 1}), _set(1, 2, 3, None),
    _set(1, 2, 3, "1/0"), _set(1, 2, 3, "abc"), _set(1, 2, 3, ""),
    _set(1, 2, 0, "-0"), _set(1, 2, 0, "0/7"), _set(1, 2, 3, 1), _set(1, 2, 0, 0),
    _set(3, 3, 0, -1), _set(1, 2, 3, 2**64),
    # Two bad entries: the first in row-major order is named.
    lambda d: (_set(1, 2, 3, "x")(d), _set(2, 1, 0, True)(d)),
    lambda d: (_set(3, 1, 0, "x")(d), _set(1, 3, 2, 1.5)(d)),
    # A cell spelled like an earlier one, but with a bool or a float where
    # that one has an int: the bad entry is still named.
    lambda d: (_set_cell(1, 2, ["0", "0", "0", 1])(d), _set_cell(3, 1, ["0", "0", "0", True])(d)),
    lambda d: (_set_cell(1, 2, ["0", "0", 0, "1"])(d), _set_cell(3, 1, ["0", "0", 0.0, "1"])(d)),
    lambda d: (_set_cell(2, 3, ["0", "1", "0", "0"])(d), _set_cell(3, 2, ["0", True, "0", "0"])(d)),
    # A bad shape is reported before any bad literal.
    lambda d: (_set(1, 1, 0, "1/0")(d), _set_cell(3, 3, ["0", "0"])(d)),
    _set_cell(1, 2, "0"), _set_cell(1, 2, ["0"] * 5), _set_cell(1, 2, None),
    lambda d: d["constants"].append(d["constants"][0]),
    lambda d: d["constants"][2].pop(),
    lambda d: d.update(constants=[]),
    lambda d: d.update(dim=3),
    lambda d: d.update(unit=1),
    lambda d: d.update(labels=["1", "i", "j"]),
    lambda d: d.update(grading={"even": [0, 1], "odd": [2]}),
    lambda d: d.update(grading={"even": [0, 3], "odd": [1, 2]}),
    lambda d: d.update(grading={"even": [0, 1], "odd": [3, 2]}),
    lambda d: d.update(grading={"even": [0, 1, 2], "odd": [3]}),
])
def test_reader_agrees_on_respelled_and_malformed_quaternions(mangle):
    data = _table("H")
    mangle(data)
    assert _read(algebra_from_dict, data) == _read(ref.algebra_from_dict, data)


# Labels of O and J3 (e1, E_1, e_7, ...), digits, the operators and spaces.
EXPRESSIONS = st.lists(
    st.one_of(
        st.sampled_from(["e1", "e7", "E_1", "e_3", "e8", "x", "1", "e"]),
        st.sampled_from(list("0123456789+-*/ ")),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, st.sampled_from(["O", "J3"]))
@example("1/0", "O")
@example("2/0*e1", "O")
@example("0/0", "J3")
def test_parse_element_builds_or_rejects(expr, name):
    algebra = named_algebra(name).algebra
    try:
        x = parse_element(expr, algebra)
    except CdalgError:
        return
    assert isinstance(x, Element) and x.dim == algebra.dim


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS, st.sampled_from(["O", "J3"]))
@example("1/0", "O")
@example("-e1", "O")
@example("--", "O")
def test_ann_exits_cleanly_on_random_elements(expr, name):
    # "--element=" keeps an expression that starts with "-" from being read
    # as an option.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["ann", name, f"--element={expr}"])
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert set(json.loads(out.getvalue())) == {"element", "dim", "basis"}
    else:
        error = json.loads(err.getvalue())
        assert error["kind"] == "malformed-input" if code == 3 else error["kind"] != "malformed-input"
