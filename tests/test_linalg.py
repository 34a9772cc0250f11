"""Exact linear algebra: canonical echelon forms, kernels, inverses, the
LDL of a symmetric form.

The fraction-free elimination core is checked against the Fraction
Gauss-Jordan elimination kept in slow_reference, and the integer LDL
against the Fraction LDL and the unpivoted definiteness witness kept there.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_reference as ref

from cdalg import named_algebra
from cdalg.analysis import rotated_copy
from cdalg.linalg import (
    Subspace,
    congruence_diagonal,
    identity,
    mat,
    mat_inv,
    nullspace,
    rank,
    rref,
    scaled_rows,
)
from cdalg.properties import _imaginary_gram, _traces
from slow_reference import det, mat_mul, mat_vec, transpose

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def test_rref_canonical_for_equal_spans():
    rows1 = mat([[1, 2, 3], [0, 1, 1]])
    rows2 = mat([[2, 5, 7], [1, 3, 4]])
    assert rref(rows1)[0] == rref(rows2)[0]


def test_rref_drops_zero_rows_and_orders_pivots():
    reduced, pivots = rref(mat([[0, 0, 0], [0, 2, 4], [1, 1, 1]]))
    assert pivots == (0, 1)
    assert reduced == mat([[1, 0, -1], [0, 1, 2]])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=5))
def test_rref_idempotent_and_span_preserving(rows):
    reduced, _ = rref(rows)
    again, _ = rref(reduced)
    assert again == reduced
    sp1 = Subspace(rows, 4)
    sp2 = Subspace(reduced, 4)
    assert sp1 == sp2


def test_nullspace_is_kernel():
    m = mat([[1, 2, 3], [2, 4, 6]])
    ker = nullspace(m, 3)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in mat_vec(m, v))


def test_nullspace_of_full_rank_is_empty():
    assert nullspace(identity(3), 3) == ()


def test_solve_and_inverse():
    m = mat([[2, 1], [1, 1]])
    inv = mat_inv(m)
    assert mat_mul(m, inv) == identity(2)
    x = mat_vec(inv, (Fraction(3), Fraction(2)))
    assert mat_vec(m, x) == (Fraction(3), Fraction(2))


def test_det_singular_and_product():
    assert det(mat([[1, 2], [2, 4]])) == 0
    m = mat([[2, 1], [1, 1]])
    assert det(m) == 1
    assert det(mat_mul(m, m)) == 1


def test_positive_definite_and_witness():
    assert congruence_diagonal(mat([[2, 1], [1, 2]]), definite=True) is None
    w = congruence_diagonal(mat([[1, 2], [2, 1]]), definite=True)
    q = sum(w[i] * sum(Fraction(v) * w[j] for j, v in enumerate([[1, 2], [2, 1]][i]))
            for i in range(2))
    assert q <= 0
    assert congruence_diagonal(identity(3), definite=True) is None


def test_subspace_membership_and_equality():
    sp = Subspace(mat([[1, 0, 1], [0, 1, 1]]), 3)
    assert sp.dim == 2
    assert sp.contains((Fraction(2), Fraction(3), Fraction(5)))
    assert not sp.contains((Fraction(1), Fraction(0), Fraction(0)))
    same = Subspace(mat([[1, 1, 2], [1, -1, 0]]), 3)
    assert sp == same
    assert hash(sp) == hash(same)


def test_subspace_sum():
    a = Subspace(mat([[1, 0, 0]]), 3)
    b = Subspace(mat([[0, 1, 0]]), 3)
    assert a.sum(b).dim == 2


def test_transpose_shape():
    assert transpose(mat([[1, 2, 3], [4, 5, 6]])) == mat([[1, 4], [2, 5], [3, 6]])


def test_rank():
    assert rank(mat([[1, 2], [2, 4], [1, 0]])) == 2


# ---------------------------------------------------------------------------
# the integer elimination core against the Fraction reference
# ---------------------------------------------------------------------------

BIG = 2**64
SMALL_INTS = st.integers(-3, 3)
INTS = st.one_of(SMALL_INTS, st.integers(-4 * BIG, 4 * BIG))
FRACTIONS = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-BIG * BIG, BIG * BIG), st.integers(1, BIG * BIG)),
)


@st.composite
def matrices(draw, square=False):
    """(rows, ncols): rows of Python ints or of Fractions, with zero rows,
    repeated rows and combinations of earlier rows mixed in."""
    ncols = draw(st.integers(1, 5))
    nrows = ncols if square else draw(st.integers(0, 6))
    integral = draw(st.booleans())
    entries = INTS if integral else st.one_of(FRACTIONS, SMALL_INTS.map(Fraction))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "new" and not rows):
            row = [0 if integral else Fraction(0)] * ncols
            if kind != "zero":
                row = [draw(entries) for _ in range(ncols)]
        elif kind == "new":
            row = [draw(entries) for _ in range(ncols)]
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(INTS), draw(INTS if integral else entries)
            row = [s * x + t * y for x, y in zip(a, b)]
        rows.append(tuple(row))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_elimination_matches_fraction_reference(case, data):
    rows, ncols = case
    expected = ref.rref(rows)
    assert rref(rows) == expected
    assert rank(rows) == len(expected[0])
    assert nullspace(rows, ncols) == ref.nullspace(rows, ncols)
    space = Subspace(rows, ncols)
    assert space.rows == expected[0]
    probes = list(rows) + [
        tuple(data.draw(FRACTIONS) for _ in range(ncols)),
        tuple(sum(data.draw(SMALL_INTS) * r[i] for r in rows) for i in range(ncols)),
    ]
    for v in probes:
        assert space.contains(v) == ref.in_span(expected[0], v)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_inverse_and_determinant_match_fraction_reference(case):
    m, _ = case
    d = ref.det(m)
    if d == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            mat_inv(m)
    else:
        assert mat_inv(m) == ref.mat_inv(m)


def test_empty_and_zero_inputs():
    assert rref([]) == ((), ())
    assert rref([(0, 0), (Fraction(0), 0)]) == ((), ())
    assert rank([]) == 0
    assert nullspace([], 2) == identity(2)
    assert nullspace([(0, 0)]) == identity(2)
    assert Subspace([], 3).dim == 0
    assert Subspace([], 3).contains((0, 0, 0))
    assert det(()) == 1
    assert det(((0, 1), (1, 0))) == -1
    assert det(((0, 0, 2), (0, 3, 0), (Fraction(1, 2), 0, 0))) == -3


def test_entries_past_int64():
    big = 2**70 + 1
    rows = [(big, Fraction(1, big)), (Fraction(big, 3), Fraction(1, 3 * big))]
    assert rank(rows) == 1
    assert rref(rows) == (((Fraction(1), Fraction(1, big * big)),), (0,))
    m = ((Fraction(big), Fraction(1)), (Fraction(1), Fraction(1, big)))
    assert det(m) == 0
    m = ((Fraction(big), Fraction(1)), (Fraction(0), Fraction(1, big)))
    assert det(m) == 1 and mat_inv(m) == ref.mat_inv(m)


def test_mat_inv_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        mat_inv(mat([[1, 0], [0, 1], [1, 1]]))
    with pytest.raises(ValueError, match="not square"):
        mat_inv(mat([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError, match="not square"):
        mat_inv(mat([[1, 0], [0, 1, 0]]))


def _symmetric(entries, n):
    it = iter(entries)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
    return m


def assert_ldl_is_the_reference(m):
    """Pivots, rows and definiteness witness equal the Fraction LDL's of
    slow_reference in value and type, also from integer rows over a
    denominator."""
    got, want = congruence_diagonal(m), ref.congruence_diagonal(m)
    assert got == want
    assert all(type(x) is Fraction for x in (*got[0], *(x for row in got[1] for x in row)))
    ints, d = scaled_rows(m)
    assert congruence_diagonal(ints, d) == want
    w, ref_w = congruence_diagonal(m, definite=True), ref.nonpositive_direction(m)
    assert w == ref_w
    assert w is None or all(type(x) is Fraction for x in w)
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
        min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2), st.booleans())))
def test_congruence_diagonal_is_an_invertible_congruence(case):
    n, entries, zero_diagonal = case
    m = _symmetric(entries, n)
    if zero_diagonal:
        for i in range(n):
            m[i][i] = Fraction(0)
    pivots, rows = assert_ldl_is_the_reference(m)
    assert mat_mul(mat_mul(rows, m), transpose(rows)) == tuple(
        tuple(pivots[i] if i == j else 0 for j in range(n)) for i in range(n))
    assert rank(rows) == n
    assert sum(1 for d in pivots if d) == rank(m)
    for d, row in zip(pivots, rows):
        if d == 0:
            assert not any(mat_vec(m, row))
    # Definiteness agrees with the unpivoted elimination of the witness.
    assert (congruence_diagonal(m, definite=True) is None) == all(d > 0 for d in pivots)


def _symmetric_part(t):
    return [[(Fraction(t[i][j]) + Fraction(t[j][i])) / 2 for j in range(3)] for i in range(3)]


def _ldl_corpus(kind):
    rng = random.Random(f"ldl:{kind}")
    if kind == "rational-3x3":
        return [_symmetric_part([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(3)] for _ in range(3)]) for _ in range(300)]
    if kind == "float-3x3":
        return [_symmetric_part([[rng.randint(-30, 30) / 10 for _ in range(3)] for _ in range(3)])
                for _ in range(100)]
    if kind == "zero-diagonal":
        forms = []
        for _ in range(600):
            n = rng.randint(2, 6)
            forms.append(_symmetric([0 if i == j else rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)])
                                     for i in range(n) for j in range(i, n)], n))
        return forms
    if kind == "dense-gram":
        forms = []
        for n in (8, 8, 16, 16):
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            forms.append([[sum(x * y for x, y in zip(p, q)) + (i == j) for j, q in enumerate(b)]
                          for i, p in enumerate(b)])
        return forms
    forms = []
    for name in ("O", "TO", "S", "TS", "A5"):
        algebra = named_algebra(name).algebra
        for a in (algebra, rotated_copy(algebra, random.Random(f"ldl:{name}"))[0]):
            gram = _imaginary_gram(a, _traces(a))
            forms += [gram, [[-x for x in row] for row in gram]]
    return forms


@pytest.mark.parametrize("kind", ["rational-3x3", "float-3x3", "zero-diagonal", "dense-gram",
                                  "table-gram"])
def test_congruence_diagonal_is_the_reference_on_a_corpus(kind):
    for m in _ldl_corpus(kind):
        assert_ldl_is_the_reference(m)


def test_congruence_diagonal_without_a_nonzero_diagonal_entry():
    m = mat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    pivots, rows = congruence_diagonal(m)
    assert pivots == (2, Fraction(-1, 2), 0)
    assert rows[2] == (0, 0, 1)
