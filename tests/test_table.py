"""One table per algebra: every producer gives the table the public
constructor gives, and every entry path raises the same errors.

An ``Algebra`` holds its structure constants as one integer tensor ``C``
over the least denominator ``D`` (``cdalg.kernel.ScaledTensor``).  The
public constructor scales rationals; the doubling, the change of basis, the
induced algebra of a closed subspace and the file reader hand over
integers.  Rebuilding any algebra from its ``constants`` view must give an
equal algebra with an equal hash and the same ``(D, C, dtype)``;
``Algebra.multiply`` must agree with the ``Fraction`` loop it replaced.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    Algebra,
    Element,
    algebra_from_dict,
    algebra_to_dict,
    build_3d,
    build_4d,
    cayley_dickson_tower,
    change_of_basis,
    load_algebra,
    named_algebra,
)
from cdalg.analysis import _even_part_rows, _induced_algebra, rotated_copy
from cdalg.cli import main
from cdalg.errors import DimensionMismatchError, MalformedInputError
from cdalg.kernel import INT64_LIMIT, ScaledTensor, scaled_tensor

import slow_reference as ref
from test_check import nonunital_tables
from test_local_complexity import SMALL, tables

F0, F1 = Fraction(0), Fraction(1)
BIG = [2**70, Fraction(1, 3**45), -(2**64) - 1]


def scaled_form(algebra):
    """``(D, C, dtype)`` of the algebra's table, after checking that it is
    canonical: ``D`` is the least positive denominator, ``max_abs`` is
    ``max |C|``, and ``C`` is int64 exactly when that is below 2^63."""
    table = scaled_tensor(algebra)
    values = [v for v in table.c.ravel().tolist() if v]
    assert table.den > 0 and gcd(table.den, *values) == 1
    assert table.max_abs == max(map(abs, values), default=0)
    assert table.c.dtype == (np.int64 if table.max_abs < INT64_LIMIT else object)
    return table.den, table.c.tolist(), table.c.dtype


def assert_constructor_agrees(algebra):
    rebuilt = Algebra(algebra.constants, algebra.unit, algebra.labels)
    assert rebuilt == algebra
    assert hash(rebuilt) == hash(algebra)
    assert scaled_form(rebuilt) == scaled_form(algebra)
    assert rebuilt.labels == algebra.labels


def _scaled_c(scale: int):
    """C with b_1 scaled by ``scale``: b_1^2 = -scale^2, and D = 1."""
    return change_of_basis(named_algebra("C").algebra, [[F1, F0], [F0, Fraction(scale)]],
                           unit_index=0)


# isqrt(2^63 - 1)^2 is the largest square below 2^63.
JUST_BELOW, AT_LEAST = isqrt(INT64_LIMIT - 1), isqrt(INT64_LIMIT - 1) + 1


def _producers():
    for inv in cayley_dickson_tower(6):
        yield f"tower-{inv.dim}", lambda inv=inv: inv.algebra
    for name in ("TO", "TS", "J3", "J6"):
        yield name, lambda name=name: named_algebra(name).algebra
    for t, s in ((0, 0), (1, 2), (Fraction(1, 2), 3)):
        yield f"build_3d-{t}-{s}", lambda t=t, s=s: build_3d(t, s)
    for seed in range(3):
        rng = random.Random(seed)
        T = [[rng.choice(SMALL) for _ in range(3)] for _ in range(3)]
        u = [rng.choice(SMALL) for _ in range(3)]
        yield f"build_4d-{seed}", lambda T=T, u=u: build_4d(T, u)
    for name in ("O", "TS", "A5"):
        yield f"file-{name}", lambda name=name: algebra_from_dict(
            json.loads(json.dumps(algebra_to_dict(named_algebra(name).algebra))))[0]
    yield "file-rotated-TO", lambda: algebra_from_dict(algebra_to_dict(
        rotated_copy(named_algebra("TO").algebra, random.Random(1))[0]))[0]
    yield "change_of_basis-past-int64", lambda: change_of_basis(
        named_algebra("O").algebra,
        [[F1 if r == s else F0 for s in range(8)] for r in range(7)]
        + [[F0, Fraction(2**70), Fraction(1, 3**45), F0, F0, F0, F0, F1]],
        unit_index=0)
    yield "just-below-2^63", lambda: _scaled_c(JUST_BELOW)
    yield "at-least-2^63", lambda: _scaled_c(AT_LEAST)
    for name in ("S", "TS"):
        def even_part(name=name):
            bundle = named_algebra(name)
            rotated, grading, _ = rotated_copy(bundle.algebra, random.Random(name), bundle.grading)
            return _induced_algebra(rotated, _even_part_rows(rotated, grading))
        yield f"even-part-{name}", even_part


PRODUCERS = dict(_producers())


@pytest.mark.parametrize("name", list(PRODUCERS))
def test_every_producer_gives_the_constructor_table(name):
    assert_constructor_agrees(PRODUCERS[name]())


def test_the_int64_switch_sits_at_2_63():
    assert scaled_tensor(_scaled_c(JUST_BELOW)).max_abs == JUST_BELOW**2 < INT64_LIMIT
    assert scaled_tensor(_scaled_c(JUST_BELOW)).c.dtype == np.int64
    assert scaled_tensor(_scaled_c(AT_LEAST)).max_abs == AT_LEAST**2 >= INT64_LIMIT
    assert scaled_tensor(_scaled_c(AT_LEAST)).c.dtype == object


@pytest.mark.parametrize("values, den, want", [
    # A common factor of C and D is divided out, and the dtype follows.
    ([2**64, -(2**63)], 4, ([2**62, -(2**61)], 1, np.int64)),
    ([2**63, 1], 1, ([2**63, 1], 1, object)),
    ([INT64_LIMIT - 1, 0], 3, ([INT64_LIMIT - 1, 0], 3, np.int64)),
    ([6, 0], 4, ([3, 0], 2, np.int64)),
    ([0, 0], 5, ([0, 0], 1, np.int64)),
])
def test_integer_tables_are_reduced_to_the_least_denominator(values, den, want):
    c = np.zeros((2, 2, 2), dtype=object)
    c[1, 1] = values
    table = ScaledTensor(c, den)
    assert (table.c[1, 1].tolist(), table.den, table.c.dtype) == want
    rationals = [[[Fraction(int(v), den) for v in cell] for cell in row] for row in c.tolist()]
    assert table == ScaledTensor.of_rationals(rationals)
    assert hash(table) == hash(ScaledTensor.of_rationals(rationals))


# -- multiply against the Fraction loop ---------------------------------------


@st.composite
def elements(draw, n, values):
    return Element(tuple(Fraction(draw(st.sampled_from(values))) for _ in range(n)))


@st.composite
def big_tables(draw):
    """Small unital or non-unital tables with entries past 2^63."""
    n = draw(st.integers(1, 3))
    entries = st.sampled_from([0, 0, 1, -1, Fraction(1, 2)] + BIG)
    c = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            c[0][i] = c[i][0] = [F1 if k == i else F0 for k in range(n)]
        return Algebra(c, unit=0)
    return Algebra(c)


@settings(max_examples=150, deadline=None)
@given(st.one_of(tables(), nonunital_tables(), big_tables()), st.data())
def test_multiply_matches_fraction_loop(algebra, data):
    values = data.draw(st.sampled_from([SMALL, SMALL + BIG, [0]]))
    x = data.draw(elements(algebra.dim, values))
    y = data.draw(elements(algebra.dim, values))
    assert algebra.multiply(x, y) == ref.multiply(algebra, x, y)


@pytest.mark.parametrize("name", ["O", "TS", "A5"])
def test_multiply_matches_fraction_loop_on_named_and_rotated(name):
    algebra = named_algebra(name).algebra
    rng = random.Random(name)
    rotated = rotated_copy(algebra, rng)[0] if algebra.dim <= 16 else algebra
    for alg in (algebra, rotated):
        n = alg.dim
        for _ in range(4):
            x, y = (Element(tuple(Fraction(rng.choice(SMALL)) for _ in range(n))) for _ in "xy")
            assert alg.multiply(x, y) == ref.multiply(alg, x, y)
        for i, j in ((0, 1), (1, 2), (n - 1, n - 2)):
            bi, bj = alg.basis_element(i), alg.basis_element(j)
            assert alg.multiply(bi, bj) == ref.multiply(alg, bi, bj) == alg.table_entry(i, j)


def test_multiply_rejects_a_foreign_element():
    h = named_algebra("H").algebra
    for fn in (h.multiply, lambda x, y: ref.multiply(h, x, y)):
        with pytest.raises(DimensionMismatchError, match="element does not conform"):
            fn(h.one(), Element((F1, F0)))


# -- constructor errors on every entry path ------------------------------------


def _unital_3d(breaks):
    """A 3-dimensional table with unit 0, the cells of ``breaks`` replaced
    by (coordinate 1, coordinate 2) of the product."""
    n = 3
    c = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = c[i][0][i] = F1
    for (i, j), (a, b) in breaks.items():
        c[i][j] = [F0, Fraction(a), Fraction(b)]
    return c


UNIT_BREAKS = [
    ({(0, 1): (0, 0), (1, 0): (0, 0)}, "unit axiom fails: 1 * b_1 != b_1"),
    ({(1, 0): (1, 2), (0, 2): (1, 1)}, "unit axiom fails: b_1 * 1 != b_1"),
    ({(2, 0): (2, 1)}, "unit axiom fails: b_2 * 1 != b_2"),
    ({(0, 2): (0, 2), (2, 0): (0, 3)}, "unit axiom fails: 1 * b_2 != b_2"),
    ({(0, 0): (0, 0)}, "unit axiom fails: 1 * b_0 != b_0"),
    ({(0, 1): (Fraction(1, 2), 0)}, "unit axiom fails: 1 * b_1 != b_1"),
]


def _run_check(tmp_path, data) -> tuple[int, str, str]:
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


def _as_file(constants, unit, labels=None):
    data = {"dim": len(constants), "unit": unit,
            "constants": [[[str(v) for v in cell] for cell in row] for row in constants]}
    if labels is not None:
        data["labels"] = labels
    return data


@pytest.mark.parametrize("breaks, message", UNIT_BREAKS)
def test_unit_axiom_errors_agree_on_every_path(tmp_path, breaks, message):
    """The lowest failing index first, the left law before the right one."""
    c = _unital_3d(breaks)
    with pytest.raises(ValueError) as exc:
        Algebra(c, unit=0)
    assert str(exc.value) == message
    with pytest.raises(MalformedInputError) as exc:
        algebra_from_dict(_as_file(c, 0))
    assert str(exc.value) == message
    path = tmp_path / "direct.json"
    path.write_text(json.dumps(_as_file(c, 0)))
    with pytest.raises(MalformedInputError) as exc:
        load_algebra(str(path))
    assert str(exc.value) == message
    code, out, err = _run_check(tmp_path, _as_file(c, 0))
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": message, "kind": "malformed-input"}
    # The producers' path: an identity change of basis that names unit 0.
    nonunital = Algebra(c)
    with pytest.raises(ValueError) as exc:
        change_of_basis(nonunital, [[F1 if r == s else F0 for s in range(3)] for r in range(3)],
                        unit_index=0)
    assert str(exc.value) == message


def test_a_unit_the_rows_do_not_keep_fails_as_the_constructor_does():
    """H in the basis (1, e1, e2, e3) with unit index 1."""
    h = named_algebra("H").algebra
    rows = [[F1 if r == s else F0 for s in range(4)] for r in range(4)]
    with pytest.raises(ValueError) as got:
        change_of_basis(h, rows, unit_index=1)
    with pytest.raises(ValueError) as want:
        Algebra(h.constants, unit=1)
    assert str(got.value) == str(want.value) == "unit axiom fails: 1 * b_0 != b_0"


@pytest.mark.parametrize("constants", [
    [[[F1, F0], [F0, F1]], [[F0, F1], [F0]]],  # a short cell
    [[[F1, F0], [F0, F1]], [[F0, F1]]],  # a short row
    [[[F1, F0], [F0, F1]], [[F0, F1], [F1, F0], [F0, F0]]],  # a long row
    [[[F1, F0, F0], [F0, F1]], [[F0, F1], [F1, F0]]],  # a long cell
])
def test_a_wrong_shape_raises_dimension_mismatch(tmp_path, constants):
    with pytest.raises(DimensionMismatchError, match="structure tensor is not n x n x n"):
        Algebra(constants, unit=0)
    data = {"dim": 2, "unit": 0,
            "constants": [[[str(v) for v in cell] for cell in row] for row in constants]}
    with pytest.raises(MalformedInputError, match="'constants' must be nested lists of shape"):
        algebra_from_dict(data)
    assert _run_check(tmp_path, data)[0] == 3


def test_labels_and_unit_index_are_checked_on_every_path(tmp_path):
    h = named_algebra("H").algebra
    rows = [[F1 if r == s else F0 for s in range(4)] for r in range(4)]
    with pytest.raises(DimensionMismatchError, match="label count differs from dimension"):
        Algebra(h.constants, unit=0, labels=["1", "i"])
    with pytest.raises(DimensionMismatchError, match="label count differs from dimension"):
        change_of_basis(h, rows, unit_index=0, labels=["1", "i"])
    with pytest.raises(DimensionMismatchError, match="unit index out of range"):
        Algebra(h.constants, unit=4)
    with pytest.raises(DimensionMismatchError, match="unit index out of range"):
        change_of_basis(h, rows, unit_index=-1)
    for data, message in ((_as_file(h.constants, 0, ["1", "i"]), "'labels' must be a list of 4"),
                          (_as_file(h.constants, 4), "'unit' must be an index in 0..3")):
        with pytest.raises(MalformedInputError, match=message):
            algebra_from_dict(data)
        code, out, err = _run_check(tmp_path, data)
        assert (code, out) == (3, "") and json.loads(err)["kind"] == "malformed-input"
