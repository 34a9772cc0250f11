"""File format round trips and the element-expression grammar."""

import copy
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from cdalg import (
    Algebra,
    MalformedInputError,
    NonUnitalError,
    algebra_from_dict,
    algebra_to_dict,
    change_of_basis,
    load_algebra,
    named_algebra,
    parse_element,
    rotated_copy,
    save_algebra,
)
from cdalg.cli import element_text, main

import slow_reference as ref
from test_table import scaled_form

F = Fraction


def test_algebra_round_trip(tmp_path, twisted_octonions):
    path = tmp_path / "to.json"
    save_algebra(str(path), twisted_octonions.algebra, twisted_octonions.grading)
    loaded, grading = load_algebra(str(path))
    assert loaded == twisted_octonions.algebra
    assert loaded.labels == twisted_octonions.algebra.labels
    assert grading == twisted_octonions.grading


def test_rationals_round_trip_exactly(tmp_path):
    from cdalg import build_3d

    alg = build_3d(F(22, 7), F(355, 113))
    path = tmp_path / "a.json"
    save_algebra(str(path), alg)
    loaded, _ = load_algebra(str(path))
    assert loaded.constants == alg.constants


def test_dict_validation_errors():
    with pytest.raises(MalformedInputError):
        algebra_from_dict({"dim": 2, "constants": [[["1"]]]})
    with pytest.raises(MalformedInputError):
        algebra_from_dict(
            {"dim": 1, "unit": 0, "constants": [[["1/0"]]]}
        )
    with pytest.raises(MalformedInputError):
        algebra_from_dict([1, 2, 3])
    for dim in (True, 1.0, "1", float("inf")):
        with pytest.raises(MalformedInputError):
            algebra_from_dict({"dim": dim, "unit": 0, "constants": [[["1"]]]})


def test_bad_grading_rejected(sedenions):
    data = algebra_to_dict(sedenions.algebra, sedenions.grading)
    data["grading"] = {"even": [0, 1], "odd": [2]}
    with pytest.raises(MalformedInputError):
        algebra_from_dict(data)


def test_missing_file():
    with pytest.raises(MalformedInputError):
        load_algebra("/nonexistent/path.json")


def test_parse_simple_difference(twisted_octonions):
    alg = twisted_octonions.algebra
    x = parse_element("f1-f4", alg)
    assert x.coords == (F(0), F(1), F(0), F(0), F(-1), F(0), F(0), F(0))


def test_parse_unit(twisted_octonions):
    alg = twisted_octonions.algebra
    assert parse_element("1", alg) == alg.one()
    assert parse_element("-2", alg) == alg.scalar(-2)


def test_parse_alias_and_halves(sedenions):
    alg = sedenions.algebra
    x = parse_element("e_8/2 + e8/2", alg)
    assert x == alg.basis_element(8)


def test_parse_fraction_coefficient(sedenions):
    alg = sedenions.algebra
    x = parse_element("2/3*e8 + 1", alg)
    assert x.coords[8] == F(2, 3)
    assert x.coords[0] == 1


def test_parse_spaces_and_signs(quaternions):
    alg = quaternions.algebra
    x = parse_element(" - e1 + 3 * ".replace("*", "") + "e2", alg)
    assert x.coords == (F(0), F(-1), F(3), F(0))


def test_parse_unknown_label(quaternions):
    with pytest.raises(MalformedInputError):
        parse_element("q7", quaternions.algebra)


def test_parse_malformed(quaternions):
    for bad in ("", "++", "e1*", "1//2", "e1/0", "1/0", "2/0*e1", "e2 - 0/0*e1"):
        with pytest.raises(MalformedInputError):
            parse_element(bad, quaternions.algebra)


def test_parse_scalar_needs_unit():
    from cdalg import Algebra

    alg = Algebra([[[F(0)]]], unit=None)
    with pytest.raises(NonUnitalError):
        parse_element("3", alg)


def test_parse_unit_label_after_a_coefficient(octonions):
    """``c*1`` is how the CLI prints a unit coefficient c other than +-1."""
    alg = octonions.algebra
    assert parse_element("2*1 - e2", alg) == alg.scalar(2) - alg.basis_element(2)
    assert parse_element("-1/2*1", alg) == alg.scalar(F(-1, 2))
    assert parse_element("3*1/4 + e1", alg) == alg.scalar(F(3, 4)) + alg.basis_element(1)
    for bad in ("*1", "2*12", "e1*1", "2*1e1"):
        with pytest.raises(MalformedInputError):
            parse_element(bad, alg)


@pytest.mark.parametrize("name", ["R", "C", "H", "O", "S", "A5", "A6", "TO", "TS", "J1", "J6"])
def test_printed_elements_parse_back(name):
    """parse_element reads back every element the CLI prints, unit terms
    included."""
    alg = named_algebra(name).algebra
    rng = random.Random(f"print:{name}")
    values = [0, 0, 1, -1, 2, -3, F(1, 2), F(-5, 3), F(7, 4)]
    for _ in range(20):
        x = alg.element([rng.choice(values) for _ in range(alg.dim)])
        assert parse_element(element_text(alg, x), alg) == x


def test_cli_reads_back_the_element_it_echoes(capsys):
    assert main(["ann", "O", "--element", "2 - e2"]) == 0
    echoed = json.loads(capsys.readouterr().out)["element"]
    assert echoed == "2*1 - e2"
    assert main(["ann", "O", "--element", echoed]) == 0
    assert json.loads(capsys.readouterr().out)["element"] == echoed


# ---------------------------------------------------------------------------
# the one-pass integer reader against the reference reader
# ---------------------------------------------------------------------------


def _loaded(reader, data):
    """``(D, C, dtype)``, unit, labels and grading as ``reader`` builds them
    from ``data``, or the error's type and text."""
    try:
        algebra, grading = reader(copy.deepcopy(data))
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)
    parts = None if grading is None else (
        grading.even_rows, grading.odd_rows, grading.even, grading.odd, grading.index_partition()
    )
    return scaled_form(algebra), algebra.unit, algebra.labels, parts


def _file(name):
    bundle = named_algebra(name)
    return json.loads(json.dumps(algebra_to_dict(bundle.algebra, bundle.grading)))


@pytest.mark.parametrize("name", ["R", "C", "H", "O", "S", "A5", "A6", "TO", "TS", "J1", "J6"])
def test_reader_matches_reference_on_named_tables(name):
    data = _file(name)
    got = _loaded(algebra_from_dict, data)
    assert got == _loaded(ref.algebra_from_dict, data)
    assert got[0][2] == np.int64


def test_reader_matches_reference_on_rotated_and_wide_tables():
    rotated, grading, _ = rotated_copy(named_algebra("TO").algebra, random.Random(3),
                                       named_algebra("TO").grading)
    wide = change_of_basis(named_algebra("C").algebra, [[1, 0], [0, F(2**40, 3)]], unit_index=0)
    for algebra, g in ((rotated, grading), (wide, None)):
        data = json.loads(json.dumps(algebra_to_dict(algebra, g)))
        got = _loaded(algebra_from_dict, data)
        assert got == _loaded(ref.algebra_from_dict, data)
    assert got[0][2] == object  # b_1^2 = -2^80/9: D = 9 and C holds -2^80, past 2^63


def _complex(**cells):
    """C as a file, with the cells named ``"ij"`` replaced."""
    data = _file("C")
    for ij, cell in cells.items():
        data["constants"][int(ij[1])][int(ij[2])] = cell
    return data


@pytest.mark.parametrize("data, error", [
    # Two spellings of one rational, in one cell and across cells.
    (_complex(c11=["-2/2", "0/5"], c01=["0", "2/2"], c10=["-0", "1"]), None),
    ({"dim": 2, "constants": [[["1/2", "2/4"], ["0", "1/2"]], [["2/4", "0"], ["3/6", "-1"]]]},
     None),
    # An int cell after the string cell it equals, and after it a bool.
    (_complex(c10=[0, 1]), None),
    (_complex(c01=[0, 1], c10=[0, True]), "rationals must be strings or integers, got True"),
    (_complex(c01=["0", "1"], c10=["0", True]), "rationals must be strings or integers, got True"),
    (_complex(c10=[False, "1"]), "rationals must be strings or integers, got False"),
    # Unhashable entries: the first bad entry in row-major order is named.
    (_complex(c11=["-1", ["0"]]), "rationals must be strings or integers, got ['0']"),
    (_complex(c10=["0", {"p": 1}], c11=["x", "0"]), "rationals must be strings or integers, "
                                                    "got {'p': 1}"),
    (_complex(c01=["0", "1/0"], c10=["0", "1/0"]), "bad rational literal '1/0'"),
    (_complex(c10=["0", 2**64], c11=["-1", 2**70]), "unit axiom fails: b_1 * 1 != b_1"),
])
def test_reader_spellings_and_errors(data, error):
    got = _loaded(algebra_from_dict, data)
    assert got == _loaded(ref.algebra_from_dict, data)
    if error is None:
        assert not isinstance(got[0], type)
    else:
        assert got == (MalformedInputError, error)


def test_reader_builds_no_fraction_per_entry(monkeypatch):
    """An all-string file: one Fraction per distinct literal, not per entry
    of the tensor (4,096 on S)."""
    data = _file("S")
    algebra_from_dict(copy.deepcopy(data))  # caches warm
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    algebra, _ = algebra_from_dict(data)
    monkeypatch.undo()
    assert len(made) <= 2  # "1" and "-1"; "0" is known
    assert algebra == named_algebra("S").algebra


def test_labels_that_collide_under_the_grammar_are_rejected(tmp_path, capsys):
    data = _file("H")
    data["labels"] = ["1", "e1", "E_1", "e3"]
    message = ("labels 'e1' and 'E_1' collide: labels match case-insensitively "
               "with underscores ignored")
    assert _loaded(algebra_from_dict, data) == (MalformedInputError, message)
    assert _loaded(ref.algebra_from_dict, data) == (MalformedInputError, message)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    assert main(["ann", str(path), "--element", "e1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message, "kind": "malformed-input"}
    for labels in (["1", "a", "A", "b"], ["x_y", "xy", "1", "z"], ["1", "1", "e2", "e3"]):
        data["labels"] = labels
        assert _loaded(algebra_from_dict, data)[0] is MalformedInputError
    data["labels"] = ["1", "e1", "e_2", "E3"]
    assert _loaded(algebra_from_dict, data)[2] == ("1", "e1", "e_2", "E3")


def test_algebra_rejects_labels_that_collide_under_the_grammar():
    """The rule lives in ``Algebra``, so an algebra built through the API
    cannot carry such labels, and ``save_algebra`` never writes a file the
    reader rejects."""
    constants = named_algebra("H").algebra.constants
    with pytest.raises(ValueError, match="labels 'a' and 'A' collide"):
        Algebra(constants, unit=0, labels=["1", "a", "A", "b"])
    with pytest.raises(ValueError, match="labels 'e_1' and 'E1' collide"):
        change_of_basis(Algebra(constants, unit=0), np.identity(4, dtype=int).tolist(), 0,
                        labels=["1", "e_1", "e2", "E1"])
