"""Transports of the product table -- change of basis, the induced algebra of
a closed subspace, the closure check of a grading -- and the middle Moufang
identity on the basis cube, against the multiply-based reference loops in
slow_reference.

The library reads the first three off ``cdalg.kernel.product_table``; the
table of a span in its own basis comes from ``cdalg.kernel.table_in_rows``,
and the middle Moufang cube is a direct contraction of the tensor.  Tables,
unit indices, errors and witnesses must match the reference entry for
entry, and none of the four may call ``Algebra.multiply``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    Algebra,
    Grading,
    change_of_basis,
    classify_super_alternative,
    extend_anticommuting_basis,
    generated_subalgebra,
    middle_moufang_on_basis,
    named_algebra,
)
from cdalg import analysis
from cdalg.analysis import _even_part_rows, _induced_algebra, rotated_basis_rows, rotated_copy
from cdalg.core import Element
from cdalg.errors import DimensionMismatchError, InconsistentInputError, InvalidGradingError
from cdalg.kernel import INT64_LIMIT, scaled_tensor, table_in_rows
from cdalg.linalg import identity, mat_inv, rank, transpose

import slow_reference as ref
from test_check import nonunital_tables
from test_kernel import graded_tables
from test_local_complexity import SMALL, tables

F0, F1 = Fraction(0), Fraction(1)
BIG = [2**70, Fraction(1, 3**45), -(2**64) - 1]


def outcome(fn, *args):
    """The result, or the type and message of the error raised instead."""
    try:
        return fn(*args)
    except (ValueError, InconsistentInputError, InvalidGradingError) as exc:
        return type(exc), str(exc)


def same_algebra(a: Algebra, b: Algebra) -> bool:
    return (a.constants, a.unit, a.labels) == (b.constants, b.unit, b.labels)


def assert_same_outcome(fn, ref_fn, *args):
    """Equal algebras, or the same error (a unit index the rows do not keep
    fails the unit axioms in both)."""
    got, want = outcome(fn, *args), outcome(ref_fn, *args)
    if isinstance(got, Algebra) and isinstance(want, Algebra):
        assert same_algebra(got, want)
    else:
        assert got == want


def basis_rows(n, seed, big, unit_row):
    """Invertible seeded n x n rows of small rationals, or also entries past
    2^63 (``big``); ``unit_row`` puts e_0 (or 2 e_0 when it is 2) at a
    seeded position."""
    rng = random.Random(seed)
    values = SMALL + (BIG if big else [])
    while True:
        rows = [[Fraction(rng.choice(values)) for _ in range(n)] for _ in range(n)]
        if unit_row:
            rows[rng.randrange(n)] = [Fraction(unit_row) if k == 0 else F0 for k in range(n)]
        if rank(rows) == n:
            return rows


# -- change of basis ---------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.one_of(tables(), nonunital_tables()), st.integers(0, 10**6), st.booleans(),
       st.sampled_from([0, 1, 2]), st.booleans())
def test_change_of_basis_matches_reference(algebra, seed, big, unit_row, keep_unit):
    rows = basis_rows(algebra.dim, seed, big, unit_row)
    unit = algebra.unit if keep_unit else None
    assert_same_outcome(change_of_basis, ref.change_of_basis, algebra, rows, unit)


@pytest.mark.parametrize("name", ["C", "H", "O", "TO", "S", "TS"])
def test_rotated_named_tables_match_reference(name):
    """Rotations within the grading's blocks, then of the whole imaginary part."""
    bundle = named_algebra(name)
    rng = random.Random(f"transport:{name}")
    for grading in (bundle.grading, None):
        rows = rotated_basis_rows(bundle.algebra, rng, grading)
        assert same_algebra(change_of_basis(bundle.algebra, rows),
                            ref.change_of_basis(bundle.algebra, rows))


def test_change_of_basis_past_int64_matches_reference():
    h = named_algebra("H").algebra
    rows = [[F1 if r == s else F0 for s in range(4)] for r in range(4)]
    rows[1][1] = Fraction(2**40)
    rows[2] = [F0, Fraction(3**30), Fraction(1, 7), F1]
    big = change_of_basis(h, rows)
    assert scaled_tensor(big).max_abs >= INT64_LIMIT
    assert big.unit == 0
    assert same_algebra(big, ref.change_of_basis(h, rows))
    back = mat_inv(rows)
    assert same_algebra(change_of_basis(big, back, labels=h.labels), h)


def test_unit_index_only_for_the_unit_itself():
    """A row 2 * 1 gives the new basis no unit; a row 1 does, wherever it sits."""
    h = named_algebra("H").algebra
    rows = [list(r) for r in identity(4)]
    rows[0], rows[2] = rows[2], rows[0]
    assert change_of_basis(h, rows).unit == 2
    rows[2] = [Fraction(2), F0, F0, F0]
    assert change_of_basis(h, rows).unit is None
    assert ref.change_of_basis(h, rows).unit is None


def test_singular_rows_raise_value_error():
    o = named_algebra("O").algebra
    rows = [list(r) for r in identity(8)]
    rows[5] = [F0, F1, F1, F0, F0, F0, F0, F0]
    rows[6] = [F0, F1, F1, F0, F0, F0, F0, F0]
    with pytest.raises(ValueError, match="matrix is singular"):
        change_of_basis(o, rows)
    assert outcome(ref.change_of_basis, o, rows) == (ValueError, "matrix is singular")


def test_rows_of_the_wrong_length_raise_dimension_mismatch():
    """As Algebra.multiply did for the element loops."""
    h = named_algebra("H").algebra
    with pytest.raises(DimensionMismatchError, match="need exactly dim basis vectors"):
        change_of_basis(h, identity(4)[:3])
    with pytest.raises(DimensionMismatchError, match="element does not conform"):
        change_of_basis(h, [r + (F0,) for r in identity(4)])
    with pytest.raises(DimensionMismatchError, match="element does not conform"):
        extend_anticommuting_basis(h, [Element((F0, F1, F0))])


# -- the induced algebra of a closed subspace --------------------------------


@settings(max_examples=80, deadline=None)
@given(graded_tables())
def test_even_part_matches_reference(case):
    algebra, grading, _ = case
    rows = _even_part_rows(algebra, grading)
    assert_same_outcome(_induced_algebra, ref.induced_algebra, algebra, rows)


@settings(max_examples=80, deadline=None)
@given(st.one_of(tables(), nonunital_tables()), st.data())
def test_table_of_generated_subalgebra_matches_reference(algebra, data):
    """Closed subspaces generated by one or two elements, with or without the
    unit, in their reduced echelon basis."""
    n = algebra.dim
    gens = [Element(tuple(Fraction(data.draw(st.sampled_from(SMALL))) for _ in range(n)))
            for _ in range(data.draw(st.integers(1, 2)))]
    rows = generated_subalgebra(algebra, gens, include_unit=False).rows
    if rows:
        assert table_in_rows(algebra, rows) == ref.table_in_rows(algebra, rows)


@pytest.mark.parametrize("name", ["C", "H", "O", "TO", "S", "TS"])
def test_named_and_rotated_even_parts_match_reference(name):
    bundle = named_algebra(name)
    rotated, grading, _ = rotated_copy(bundle.algebra, random.Random(f"even:{name}"),
                                       bundle.grading)
    for algebra, g in ((bundle.algebra, bundle.grading), (rotated, grading)):
        rows = _even_part_rows(algebra, g)
        assert same_algebra(_induced_algebra(algebra, rows), ref.induced_algebra(algebra, rows))


def test_rows_that_are_not_closed_raise():
    """span(1, e1, e2) in H is not closed, since e1 e2 = e3; span(1, e1 + e2)
    is, since (e1 + e2)^2 = -2."""
    h = named_algebra("H").algebra
    rows = [identity(4)[0], identity(4)[1], identity(4)[2]]
    message = "vector is outside the spanned subspace"
    with pytest.raises(InconsistentInputError, match=message):
        _induced_algebra(h, rows)
    assert outcome(ref.induced_algebra, h, rows) == (InconsistentInputError, message)
    closed = [identity(4)[0], (F0, F1, F1, F0)]
    assert same_algebra(_induced_algebra(h, closed), ref.induced_algebra(h, closed))


@pytest.mark.parametrize("third", [(F0, Fraction(2), F0, F0), (F1, F1, F0, F0)])
def test_dependent_rows_raise_value_error(third):
    h = named_algebra("H").algebra
    with pytest.raises(ValueError, match="matrix is singular"):
        table_in_rows(h, [identity(4)[0], identity(4)[1], third])


# -- grading closure ---------------------------------------------------------


def closure_message(fn, *args):
    try:
        fn(*args)
    except InvalidGradingError as exc:
        return str(exc)
    return None


@st.composite
def swapped_gradings(draw):
    """A graded table whose grading may have one non-unit even row traded
    for an odd row, which usually lets a product escape its part."""
    algebra, grading, _ = draw(graded_tables())
    even, odd = list(grading.even_rows), list(grading.odd_rows)
    one = algebra.one().coords
    movable = [p for p, r in enumerate(even) if r != one]
    if odd and movable and draw(st.booleans()):
        p, q = draw(st.sampled_from(movable)), draw(st.integers(0, len(odd) - 1))
        even[p], odd[q] = odd[q], even[p]
        grading = Grading(even, odd, algebra.dim)
    return algebra, grading


@settings(max_examples=120, deadline=None)
@given(swapped_gradings())
def test_grading_closure_matches_reference(case):
    algebra, grading = case
    got = closure_message(grading.validate, algebra)
    if got is not None and not got.startswith("product"):
        # The unit left the even part: a check before closure, unchanged.
        assert got == "unit is not in the even part"
        return
    want = closure_message(ref.grading_closure, algebra, grading)
    if grading.index_partition() is None:
        assert got == want
    else:  # the basis-aligned branch words its message by basis index
        assert (got is None) == (want is None)


def test_escaping_product_in_non_aligned_grading():
    """Rotated TO with one even and one odd row of its natural grading traded."""
    bundle = named_algebra("TO")
    rows = [list(r) for r in rotated_basis_rows(bundle.algebra, random.Random(3))]
    rotated = change_of_basis(bundle.algebra, rows)
    old_basis = mat_inv(transpose(rows))  # column k: b_k in the new coordinates
    coords = [tuple(row[k] for row in old_basis) for k in range(8)]
    good = Grading(coords[:4], coords[4:], 8)
    assert good.index_partition() is None
    good.validate(rotated)
    ref.grading_closure(rotated, good)
    bad = Grading(coords[:3] + [coords[4]], [coords[3]] + coords[5:], 8)
    message = "product of parts 0,0 escapes part 0"
    with pytest.raises(InvalidGradingError, match=message):
        bad.validate(rotated)
    assert closure_message(ref.grading_closure, rotated, bad) == message


# -- the middle Moufang cube -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.one_of(tables(), nonunital_tables()))
def test_middle_moufang_matches_reference(algebra):
    assert middle_moufang_on_basis(algebra) == ref.middle_moufang_on_basis(algebra)


@pytest.mark.parametrize("name", ["C", "H", "O", "TO", "S", "TS", "A5", "J6"])
def test_middle_moufang_named_matches_reference(name):
    algebra = named_algebra(name).algebra
    assert middle_moufang_on_basis(algebra) == ref.middle_moufang_on_basis(algebra)


@pytest.mark.parametrize("name", ["O", "TO"])
def test_middle_moufang_rotated_matches_reference(name):
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"mm:{name}"), bundle.grading)[0]
    got = middle_moufang_on_basis(rotated)
    assert got == ref.middle_moufang_on_basis(rotated)
    assert got[0] == (name == "O")


# -- no element loops --------------------------------------------------------


def test_transports_make_no_multiply_calls(monkeypatch):
    """change_of_basis, the even-part transport of classify_super_alternative,
    the non-aligned Grading.validate, middle_moufang_on_basis and the
    dimension-16 branch of the classifier read every product off the integer
    tensor."""
    bundle = named_algebra("TS")
    rows = rotated_basis_rows(bundle.algebra, random.Random(1))
    mixed = change_of_basis(bundle.algebra, rows)
    old_basis = mat_inv(transpose(rows))
    coords = [tuple(row[k] for row in old_basis) for k in range(16)]
    non_aligned = Grading(coords[:8], coords[8:], 16)
    assert non_aligned.index_partition() is None
    even_rows = _even_part_rows(mixed, non_aligned)
    calls = []
    original = Algebra.multiply

    def counting(self, x, y):
        calls.append(1)
        return original(self, x, y)

    monkeypatch.setattr(Algebra, "multiply", counting)
    change_of_basis(bundle.algebra, rows)
    _induced_algebra(mixed, even_rows)
    non_aligned.validate(mixed)
    middle_moufang_on_basis(mixed)
    middle_moufang_on_basis(named_algebra("O").algebra)
    assert calls == []
    # The dimension-16 branch of the classifier reads its products off
    # integer left-multiplication matrices; the classifier still multiplies
    # elsewhere, which shows that the guard counts.
    branch_calls = []
    branch = analysis._classify_sedenion_like

    def counted_branch(*args):
        before = len(calls)
        out = branch(*args)
        branch_calls.append(len(calls) - before)
        return out

    monkeypatch.setattr(analysis, "_classify_sedenion_like", counted_branch)
    assert classify_super_alternative(mixed, non_aligned).tag == "TS"
    assert branch_calls == [0]
    assert calls
