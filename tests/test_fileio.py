"""File format round trips and the element-expression grammar."""

from fractions import Fraction

import pytest

from cdalg import (
    MalformedInputError,
    NonUnitalError,
    algebra_from_dict,
    algebra_to_dict,
    load_algebra,
    parse_element,
    save_algebra,
)

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
