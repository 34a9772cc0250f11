"""Quadraticity, local complexity and the unit-square search against the
multiply-based reference in slow_reference.

The library decides quadraticity by one polarized identity on the integer
tensor, reads the Gram matrix off the table in closed form, runs
Gram-Schmidt on coefficient vectors, and reads the squares and
anticommutators of the search candidates off one bilinear table.  Every
field of the results must match the reference, which multiplies elements.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    Algebra,
    CdalgError,
    build_3d,
    build_4d,
    change_of_basis,
    find_unit_square_vector,
    is_locally_complex,
    is_quadratic,
    named_algebra,
)
from cdalg.analysis import rotated_copy
from cdalg.kernel import INT64_LIMIT, scaled_tensor
from cdalg.properties import imaginary_basis

import slow_reference as ref

F0, F1 = Fraction(0), Fraction(1)
SMALL = [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
NONZERO = [1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]


def outcome(fn, *args):
    """The result, or the type of the library error raised instead."""
    try:
        return fn(*args)
    except CdalgError as exc:
        return type(exc)


def assert_same_verdicts(algebra):
    assert outcome(is_quadratic, algebra) == outcome(ref.is_quadratic, algebra)
    assert outcome(is_locally_complex, algebra) == outcome(ref.is_locally_complex, algebra)


def constants_of(algebra):
    return [[list(entries) for entries in row] for row in algebra.constants]


def sheared(algebra, draw):
    """The algebra in a triangular basis: b'_i = d_i b_i + earlier vectors
    and a multiple of the unit, so traces and the Gram matrix are generic."""
    n, u = algebra.dim, algebra.unit
    rows = []
    for i in range(n):
        row = [F0] * n
        row[i] = F1
        if i != u:
            row[i] = Fraction(draw(st.sampled_from(NONZERO)))
            for k in range(i):
                row[k] = Fraction(draw(st.sampled_from(SMALL)))
        rows.append(row)
    return change_of_basis(algebra, rows, unit_index=u)


def moved_unit(algebra, unit):
    """The same table with the basis permuted so the unit sits at ``unit``."""
    n = algebra.dim
    order = [i for i in range(n) if i != algebra.unit]
    order.insert(unit, algebra.unit)  # new index p holds old basis vector order[p]
    pos = {old: new for new, old in enumerate(order)}
    c = algebra.constants
    out = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[pos[i]][pos[j]][pos[k]] = c[i][j][k]
    return Algebra(out, unit=unit)


@st.composite
def base_tables(draw):
    kind = draw(st.sampled_from(["named", "3d", "4d", "small"]))
    if kind == "named":
        return named_algebra(draw(st.sampled_from(["R", "C", "H", "O", "TO", "J3", "J4"]))).algebra
    if kind == "3d":
        t, s = (Fraction(draw(st.sampled_from([0, 1, 2, Fraction(1, 2), 3]))) for _ in range(2))
        return build_3d(t, s)
    if kind == "4d":
        T = [[draw(st.sampled_from(SMALL)) for _ in range(3)] for _ in range(3)]
        return build_4d(T, [draw(st.sampled_from(SMALL)) for _ in range(3)])
    # A random unital table of dimension 1 to 3.
    n = draw(st.integers(1, 3))
    c = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = c[i][0][i] = F1
    for i in range(1, n):
        for j in range(1, n):
            c[i][j] = [Fraction(draw(st.sampled_from(SMALL))) for _ in range(n)]
    return Algebra(c, unit=0)


@st.composite
def tables(draw):
    """Base tables in rotated or sheared bases, optionally perturbed so that
    quadraticity or definiteness fails, with the unit moved off index 0, or
    with one basis vector scaled so that entries pass the int64 bound."""
    algebra = draw(base_tables())
    n, u = algebra.dim, algebra.unit
    style = draw(st.sampled_from(["plain", "rotated", "sheared"]))
    if style == "rotated" and n > 1:
        algebra = rotated_copy(algebra, random.Random(draw(st.integers(0, 10**6))))[0]
    elif style == "sheared":
        algebra = sheared(algebra, draw)
    imag = [i for i in range(n) if i != u]
    perturb = draw(st.sampled_from(["none", "symmetric", "antisymmetric", "norm"]))
    if perturb != "none" and imag:
        c = constants_of(algebra)
        i, j = draw(st.sampled_from(imag)), draw(st.sampled_from(imag))
        k = draw(st.integers(0, n - 1))
        delta = Fraction(draw(st.sampled_from(NONZERO)))
        if perturb == "symmetric":
            # Changes the square of b_i + b_j; quadraticity survives only
            # when k is the unit, or i = j = k.
            c[i][j][k] += delta
        elif perturb == "antisymmetric":
            # Leaves every square alone, so quadraticity survives.
            c[i][j][k] += delta
            c[j][i][k] -= delta
        else:
            # A new norm for b_i: b_i^2 = t_i b_i + value 1.
            c[i][i][u] = Fraction(draw(st.sampled_from([1, 0, 2, Fraction(1, 4), -1, -3])))
        algebra = Algebra(c, unit=u)
    if draw(st.booleans()) and imag:
        i = draw(st.sampled_from(imag))
        factor = Fraction(draw(st.sampled_from([2**40, Fraction(1, 2**40), 3**30])))
        rows = [[factor if (r == i and s == i) else F1 if r == s else F0 for s in range(n)]
                for r in range(n)]
        algebra = change_of_basis(algebra, rows, unit_index=u)
    return moved_unit(algebra, draw(st.integers(0, n - 1)))


@settings(max_examples=200, deadline=None)
@given(tables())
def test_local_complexity_matches_reference(algebra):
    assert_same_verdicts(algebra)


@pytest.mark.parametrize("name", ["C", "H", "O", "TO", "S", "TS", "A5", "J6"])
def test_named_tables_match_reference(name):
    assert_same_verdicts(named_algebra(name).algebra)


@pytest.mark.parametrize("name", ["S", "TS"])
def test_rotated_sedenion_tables_match_reference(name):
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"lc:{name}"), bundle.grading)[0]
    assert_same_verdicts(rotated)


def test_entries_past_int64_bound():
    """Scaling b_1 of H by 2^40 puts 2^80 into the table, so the identity is
    checked on Python ints; breaking a square there must still be seen."""
    h = named_algebra("H").algebra
    rows = [[F1 if r == s else F0 for s in range(4)] for r in range(4)]
    rows[1][1] = Fraction(2**40)
    big = change_of_basis(h, rows, unit_index=0)
    assert scaled_tensor(big).max_abs >= INT64_LIMIT
    assert is_quadratic(big).holds and is_locally_complex(big).holds
    assert_same_verdicts(big)
    c = constants_of(big)
    c[1][2][3] += 1
    broken = Algebra(c, unit=0)
    assert not is_quadratic(broken).holds
    assert_same_verdicts(broken)


# -- the unit-square search -------------------------------------------------


def recognition_calls(algebra):
    """The searches the recognizer makes, each with both implementations:
    e1 in the imaginary part, then e2 anticommuting with e1, then (in
    dimension 8) e4 anticommuting with e1, e2 and e1 e2."""
    imag = imaginary_basis(algebra)
    one = algebra.one()
    family = []
    results = []
    for _ in range({2: 1, 4: 2, 8: 3}[algebra.dim]):
        closure = [one] + family if family else None
        got = outcome(find_unit_square_vector, algebra, imag, family, closure)
        want = outcome(ref.find_unit_square_vector, algebra, imag, family, closure)
        results.append((got, want))
        if isinstance(got, type):
            break
        family.append(got)
        if len(family) == 2:
            family.append(algebra.multiply(family[0], family[1]))
    return results


@pytest.mark.parametrize("name", ["O", "TO"])
@pytest.mark.parametrize("seed", range(3))
def test_unit_square_search_pinned_on_rotations(name, seed):
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"usv:{name}:{seed}"))[0]
    results = recognition_calls(rotated)
    assert len(results) == 3
    for got, want in results:
        assert got == want


def test_unit_square_search_on_graded_odd_part():
    """The classifier's call for TO: a unit-square odd vector, normalized
    through the recognized even quaternions."""
    bundle = named_algebra("TO")
    rotated, grading, _ = rotated_copy(bundle.algebra, random.Random("usv:odd"), bundle.grading)
    odd = [rotated.basis_element(i) for i in range(4, 8)]
    closure = [rotated.basis_element(i) for i in range(4)]
    args = (rotated, odd, (), closure)
    assert find_unit_square_vector(*args) == ref.find_unit_square_vector(*args)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["H", "O"]), st.data())
def test_unit_square_search_on_sheared_bases(name, data):
    """Sheared bases make most candidates fail, which exercises the pair
    products and the sum-of-squares normalization."""
    algebra = sheared(named_algebra(name).algebra, data.draw)
    for got, want in recognition_calls(algebra):
        assert got == want
