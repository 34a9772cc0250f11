"""The float64 rung of the kernel's arithmetic, and the rank-only screen.

Below 2^53 the kernel's contractions run on float64 copies of exact
integers: a double holds every integer up to 2^53 in absolute value, and a
sum, difference or product of two of them is exact when its exact value is
one too.  Each float64 site is compared here with the Python-int references
of slow_reference on tables scaled so that the site's bound lies just below
2^53 (float64) and just above it (int64); the arithmetic each call took is
read off :func:`cdalg.kernel._carrier` itself.  No float array may leave the
kernel.

The zero-divisor screen decides rank == n modulo a prime by an elimination
that keeps no rows; it is checked against exact determinants, against
``_row_basis_mod`` and, end to end, against searches that screen nothing.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import Algebra, Element, InvolutiveAlgebra, cayley_dickson, named_algebra
from cdalg import analysis, kernel
from cdalg.analysis import rotated_copy, zero_divisor_search
from cdalg.kernel import (
    FLOAT_LIMIT,
    INT64_LIMIT,
    SCREEN_PRIME,
    AlternativitySweep,
    _carrier,
    _nonsingular_mod,
    _row_basis_mod,
    doubled_table,
    first_alternativity_defect,
    first_homomorphism_violation,
    first_middle_moufang_defect,
    involution_violation,
    left_mul_rows,
    left_mul_stack,
    product_table,
    scaled_tensor,
    singularity_screen,
    table_in_rows,
)
from cdalg.linalg import identity

import slow_reference as ref
from test_kernel import _quaternion_table, stack_dtype

FLOAT, INT64 = np.dtype(np.float64), np.dtype(np.int64)
SIDES = pytest.mark.parametrize("side", ["float64", "int64"])


@contextmanager
def carriers():
    """The dtypes :func:`_carrier` hands out while the block runs."""
    seen = []
    choose = kernel._carrier

    def spy(bound):
        dtype = choose(bound)
        seen.append(dtype)
        return dtype

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_carrier", spy)
        yield seen


def icbrt(x: int) -> int:
    """The largest c with c^3 <= x."""
    c = round(x ** (1 / 3))
    while c**3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def height_for(side: str, below: int) -> int:
    """``below`` is the largest height whose bound stays under 2^53; one
    more puts the bound at 2^53 or past it."""
    return below if side == "float64" else below + 1


@st.composite
def tables(draw, n: int, c: int):
    """A dense integer table (no unit) whose largest entry is exactly c in
    absolute value, with many entries at or near it."""
    entries = st.sampled_from([0, 1, -1, c, -c, c - 1, -(c - 1), c // 2])
    constants = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    constants[i][j][k] = draw(st.sampled_from([c, -c]))
    return constants


def small_rows(n: int):
    """Nonzero rows with entries in {-1, 0, 1}: height exactly 1."""
    row = st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n).filter(any)
    return st.lists(row, min_size=1, max_size=3)


# ---------------------------------------------------------------------------
# the rungs
# ---------------------------------------------------------------------------


def test_carrier_rungs():
    assert _carrier(0) == FLOAT and _carrier(FLOAT_LIMIT - 1) == FLOAT
    assert _carrier(FLOAT_LIMIT) == INT64 and _carrier(INT64_LIMIT - 1) == INT64
    assert _carrier(INT64_LIMIT) == np.dtype(object)
    # Every integer up to 2^53 is a double; 2^53 + 1 is not.
    assert float(FLOAT_LIMIT - 1) == FLOAT_LIMIT - 1
    assert float(FLOAT_LIMIT + 1) != FLOAT_LIMIT + 1


def test_a_bound_of_exactly_two_to_the_53_takes_int64():
    """The sweep of the 1-dimensional table b^2 = c b on its basis has the
    bound 2 * 1^3 * 2^2 * c^2, which is 2^53 at c = 2^25; the left
    multiplication of b has the bound c itself."""
    for c, want in ((2**25 - 1, FLOAT), (2**25, INT64)):
        sweep = AlternativitySweep(Algebra([[[c]]]), identity(1))
        assert (sweep.bound < FLOAT_LIMIT) == (want == FLOAT)
        assert sweep.carrier == want and stack_dtype(sweep) == INT64
    assert AlternativitySweep(Algebra([[[2**25]]]), identity(1)).bound == FLOAT_LIMIT
    for c, want in ((FLOAT_LIMIT - 1, FLOAT), (FLOAT_LIMIT, INT64)):
        with carriers() as seen:
            stack, sigma = left_mul_stack(Algebra([[[c]]]), [[1]])
        assert seen == [want]
        assert stack.dtype == INT64 and stack.tolist() == [[[c]]] and sigma == 1


# ---------------------------------------------------------------------------
# each float64 site against the Python-int references, either side of 2^53
# ---------------------------------------------------------------------------


@SIDES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_alternativity_sweep_either_side(side, data):
    n = data.draw(st.integers(2, 3))
    # identity rows: mu = 2, bound 2 n^3 mu^2 c^2 = 8 n^3 c^2.
    c = height_for(side, isqrt((FLOAT_LIMIT - 1) // (8 * n**3)))
    algebra = Algebra(data.draw(tables(n, c)))
    rows = identity(n)
    with carriers() as seen:
        got = first_alternativity_defect(algebra, rows)
    assert seen == [np.dtype(side)]
    assert got == ref.alternativity_defect_ints(algebra, rows)


@SIDES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_homomorphism_check_either_side(side, data):
    n = data.draw(st.integers(2, 3))
    # A 0/1 map with the same table on both sides: n c + n^2 c.
    c = height_for(side, (FLOAT_LIMIT - 1) // (n + n * n))
    algebra = Algebra(data.draw(tables(n, c)))
    iso = [list(r) for r in identity(n)]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        iso[i][j] = 1 - iso[i][j]
    with carriers() as seen:
        got = first_homomorphism_violation(iso, algebra, algebra)
    assert seen == [np.dtype(side)]
    assert got == ref.homomorphism_violation_ints(iso, algebra, algebra)


@SIDES
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_middle_moufang_cube_either_side(side, data):
    n = data.draw(st.integers(2, 3))
    # Both sides sum n^2 products of three entries: 2 n^2 c^3.
    c = height_for(side, icbrt((FLOAT_LIMIT - 1) // (2 * n * n)))
    algebra = Algebra(data.draw(tables(n, c)))
    with carriers() as seen:
        got = first_middle_moufang_defect(algebra)
    assert seen == [np.dtype(side)]
    assert got == ref.middle_moufang_on_basis(algebra)[1]


@SIDES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_product_table_either_side(side, data):
    n = data.draw(st.integers(2, 4))
    # Rows of height 1: 2 n^2 c.
    c = height_for(side, (FLOAT_LIMIT - 1) // (2 * n * n))
    algebra = Algebra(data.draw(tables(n, c)))
    xs, ys = data.draw(small_rows(n)), data.draw(small_rows(n))
    with carriers() as seen:
        table, scale = product_table(algebra, xs, ys)
    assert seen == [np.dtype(side)] and table.dtype == INT64
    for p, x in enumerate(xs):
        for q, y in enumerate(ys):
            want = ref.multiply(algebra, Element(x), Element(y))
            assert Element.of_ints(table[p, q].tolist(), scale) == want


@SIDES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_left_multiplication_either_side(side, data):
    n = data.draw(st.integers(2, 4))
    # Rows of height 1: n c.
    c = height_for(side, (FLOAT_LIMIT - 1) // n)
    algebra = Algebra(data.draw(tables(n, c)))
    xs = data.draw(small_rows(n))
    with carriers() as seen:
        stack, sigma = left_mul_stack(algebra, xs)
    assert seen == [np.dtype(side)] and stack.dtype == INT64
    for p, x in enumerate(xs):
        want = ref.left_mul_matrix(algebra, Element(x))
        assert [[Fraction(v, sigma) for v in row] for row in stack[p].tolist()] == [
            list(row) for row in want]


@SIDES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_singularity_screen_either_side(side, data):
    n = data.draw(st.integers(1, 4))
    # The exact stack of L_x for rows of height 1: n c.
    c = height_for(side, (FLOAT_LIMIT - 1) // n)
    constants = data.draw(tables(n, c))
    rows = data.draw(small_rows(n))
    with carriers() as seen:
        regular = singularity_screen(Algebra(constants))(rows)
    assert seen == [np.dtype(side)]
    assert regular == [ref.det(left_mul_ints(constants, x)) % SCREEN_PRIME != 0 for x in rows]


def _involutive_quaternions(side: str, bent: bool):
    """i^2 = -1, j^2 = -c, k^2 = -c with the star diag(1, -1, -1, -1): the
    star products sum n^2 products below 2 n^2 max|S|^2 max|C| = 32 c.  A
    bent star fixes k, which breaks (b_i b_j)* = b_j* b_i*."""
    c = height_for(side, (FLOAT_LIMIT - 1) // 32)
    algebra = _quaternion_table(-1, -c)
    star = [[int(i == j) * (1 if i == 0 or bent and i == 3 else -1) for j in range(4)]
            for i in range(4)]
    return algebra, star


@SIDES
@pytest.mark.parametrize("bent", [False, True])
def test_star_products_either_side(side, bent):
    algebra, star = _involutive_quaternions(side, bent)
    with carriers() as seen:
        got = involution_violation(algebra, star)
    assert seen == [np.dtype(side)]
    try:
        ref.involution_laws(algebra, star)
        want = None
    except ValueError as exc:
        want = str(exc)
    assert got == want and (got is None) == (not bent)
    if not bent:
        with carriers() as seen:
            table = doubled_table(algebra, star)
        assert seen == [np.dtype(side)] and table.c.dtype == INT64
        doubled = cayley_dickson(InvolutiveAlgebra(algebra, star)).algebra
        assert doubled.constants == ref.cayley_dickson(algebra, star)[0].constants


# ---------------------------------------------------------------------------
# nothing float leaves the kernel
# ---------------------------------------------------------------------------


def _returned_arrays(algebra, rows):
    n = algebra.dim
    star = [[int(i == j) * (1 if i == algebra.unit else -1) for j in range(n)]
            for i in range(n)]
    yield product_table(algebra, rows, rows)[0]
    yield left_mul_stack(algebra, rows)[0]
    yield table_in_rows(algebra, identity(n)).c
    yield scaled_tensor(algebra).c
    yield doubled_table(algebra, star).c
    sweep = AlternativitySweep(algebra, rows)
    for _, stacks in sweep.defects():
        yield from stacks
    yield np.array(left_mul_rows(algebra, rows[0]), dtype=object)


@pytest.mark.parametrize("name", ["H", "O", "S"])
def test_returned_arrays_are_integers(name):
    """On named tables (float64 contractions) and on copies with entries
    past 2^63 (Python ints), every array a kernel function returns is int64
    or holds Python ints."""
    algebra = named_algebra(name).algebra
    n = algebra.dim
    big = Algebra([[[v * 2**62 for v in cell] for cell in row] for row in algebra.constants],
                  unit=None)
    for table, float_path in ((algebra, True), (big, False)):
        rows = [list(r) for r in identity(n)][:3]
        with carriers() as seen:
            arrays = list(_returned_arrays(table, rows))
        assert (FLOAT in seen) == float_path
        for array in arrays:
            assert array.dtype in (INT64, np.dtype(object))
            if array.dtype == object:
                assert all(type(v) is int for v in array.ravel().tolist())


# ---------------------------------------------------------------------------
# the rank-only screen
# ---------------------------------------------------------------------------


def left_mul_ints(constants, x):
    """L_x of an integer table, entry [k][j] = coordinate k of x b_j."""
    n = len(constants)
    return [[sum(x[i] * constants[i][j][k] for i in range(n)) for j in range(n)]
            for k in range(n)]


@st.composite
def residue_stacks(draw):
    """Stacks of square residue matrices mod p: dense ones, some with a
    repeated row or a multiple of one (singular), some with a zero column,
    and the zero matrix."""
    p = draw(st.sampled_from([SCREEN_PRIME, 3, 7]))
    n = draw(st.integers(1, 6))
    entries = st.sampled_from([0, 0, 1, 2, p - 1, p - 2, p // 2])
    mats = []
    for _ in range(draw(st.integers(1, 8))):
        m = [[draw(entries) for _ in range(n)] for _ in range(n)]
        shape = draw(st.sampled_from(["dense", "repeat", "column", "zero"]))
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if shape == "repeat" and a != b:
            f = draw(st.integers(1, p - 1))
            m[b] = [f * v % p for v in m[a]]
        elif shape == "column":
            for row in m:
                row[a] = 0
        elif shape == "zero":
            m = [[0] * n for _ in range(n)]
        mats.append(m)
    return p, mats


@settings(max_examples=200, deadline=None)
@given(residue_stacks())
def test_rank_only_screen_is_the_rank_mod_p(case):
    p, mats = case
    n = len(mats[0])
    got = _nonsingular_mod(np.array(mats, dtype=np.int64), p).tolist()
    assert got == [ref.det(m) % p != 0 for m in mats]
    kept = _row_basis_mod(np.array(mats, dtype=np.int64), p)
    assert got == (kept.sum(axis=1) == n).tolist()


def test_rank_only_screen_on_a_candidate_zero_mod_p():
    """p b_1 + p b_2 is nonsingular over Q wherever b_1 + b_2 is, but its
    L_x is zero mod p: the screen leaves it to the exact kernel."""
    algebra = named_algebra("O").algebra
    p = SCREEN_PRIME
    rows = [[0, p, p, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0, 0], [0] * 8]
    assert singularity_screen(algebra)(rows) == [False, True, False]


def _rank_screen_by_row_basis(m, p):
    return _row_basis_mod(m, p).sum(axis=1) == m.shape[1]


@pytest.mark.parametrize("name", ["O", "S", "TS", "A5", "J6", "rotated O", "rotated TO",
                                  "rotated S"])
def test_zero_divisor_search_is_unchanged_by_the_screen(monkeypatch, name):
    """The same outcome, witness and tried count with the rank-only screen,
    with the row-basis ranks in its place, and with no screen at all."""
    if name.startswith("rotated"):
        bundle = named_algebra(name.split()[1])
        algebra = rotated_copy(bundle.algebra, random.Random(name), bundle.grading)[0]
    else:
        algebra = named_algebra(name).algebra
    budget = 30 if name == "A5" else 60
    got = [zero_divisor_search(algebra, budget=budget, seed=seed) for seed in (0, 1)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_nonsingular_mod", _rank_screen_by_row_basis)
        assert [zero_divisor_search(algebra, budget=budget, seed=seed) for seed in (0, 1)] == got
    monkeypatch.setattr(analysis, "singularity_screen", lambda algebra: None)
    assert [zero_divisor_search(algebra, budget=budget, seed=seed) for seed in (0, 1)] == got
