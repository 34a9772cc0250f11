"""The multi-prime zero tests of cdalg.kernel.

Past int64, the alternativity sweep, the homomorphism check and the middle
Moufang cube test entries for zero modulo the first primes of
``ZERO_TEST_PRIMES`` whose product exceeds a proven bound.  These tests
check that the verdicts and witnesses are those of exact integer
arithmetic: against the Python-int path kept in slow_reference, on tables
with entries far past 2^63, with a defect that only the last prime taken
can see, and with the tuple replaced by primes near 2^10, so that a bound
needs dozens of them.  Each of the three tests is also run in each of its
three arithmetics (exact int64, modulo primes, Python ints) against the
references.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import Algebra, change_of_basis, named_algebra
from cdalg import kernel
from cdalg.analysis import _homomorphism_violation, rotated_copy
from cdalg.kernel import (
    INT64_LIMIT,
    SCREEN_PRIME,
    ZERO_TEST_PRIMES,
    AlternativitySweep,
    _screen_fits,
    alternativity_screen,
    _zero_test_primes,
    first_alternativity_defect,
    first_homomorphism_violation,
    first_middle_moufang_defect,
)
from cdalg.linalg import identity, mat_inv

import slow_reference as ref
from slow_reference import transpose
from test_kernel import _quaternion_table

F0 = Fraction(0)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# The hundred largest primes below 2^10, descending.
SMALL_PRIMES = tuple(p for p in range(2**10, 1, -1) if is_prime(p))[:100]
PRIME_SETS = pytest.mark.parametrize(
    "primes", [ZERO_TEST_PRIMES, SMALL_PRIMES], ids=["default", "small"]
)


@contextmanager
def zero_test_primes(primes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "ZERO_TEST_PRIMES", primes)
        yield


# ---------------------------------------------------------------------------
# the prime tuple
# ---------------------------------------------------------------------------


def test_prime_tuple_invariants():
    assert ZERO_TEST_PRIMES[0] == SCREEN_PRIME
    assert all(is_prime(p) and p < 2**28 for p in ZERO_TEST_PRIMES)
    assert all(a > b for a, b in zip(ZERO_TEST_PRIMES, ZERO_TEST_PRIMES[1:]))
    # Every contraction sums at most n products of two residues.
    assert all(n * p * p < INT64_LIMIT for n in (1, 16, 128) for p in ZERO_TEST_PRIMES)
    assert _screen_fits(128, max(ZERO_TEST_PRIMES))
    assert len(SMALL_PRIMES) == 100 and SMALL_PRIMES[0] == 1021


@PRIME_SETS
def test_the_shortest_prefix_whose_product_exceeds_the_bound(primes):
    with zero_test_primes(primes):
        for k in range(1, len(primes)):
            product = prod(primes[:k])
            assert _zero_test_primes(product - 1, 16).tolist() == list(primes[:k])
            assert _zero_test_primes(product, 16).tolist() == list(primes[:k + 1])
        assert _zero_test_primes(prod(primes), 16) is None
        assert _zero_test_primes(1, 128) is not None
        if primes is ZERO_TEST_PRIMES:
            assert _zero_test_primes(1, 129) is None


# ---------------------------------------------------------------------------
# a defect that only the last prime sees
# ---------------------------------------------------------------------------


def _two_step_table(a: int, d: int) -> Algebra:
    """Unit b0, b1 b2 = a b3 and b1 b3 = d b2: the left defect of u = b1 at
    y = b2 is -a d b2, the first one in the sweep's order."""
    consts = [[[F0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        consts[0][i][i] = consts[i][0][i] = Fraction(1)
    consts[1][2][3] = Fraction(a)
    consts[1][3][2] = Fraction(d)
    return Algebra(consts, unit=0)


@PRIME_SETS
def test_an_alternativity_defect_only_the_last_prime_sees(primes):
    # With identity rows the bound is 2 * 4^3 * 2^2 * c^2 = 512 c^2, c = a.
    j = 1
    while 512 * prod(primes[:j]) ** 2 < INT64_LIMIT:
        j += 1
    a, d = prod(primes[:j]), prod(primes[j:2 * j])
    algebra = _two_step_table(a, d)
    sweep = AlternativitySweep(algebra, identity(4))
    assert sweep.bound == 512 * a * a >= INT64_LIMIT
    with zero_test_primes(primes):
        taken = _zero_test_primes(sweep.bound, 4).tolist()
        assert taken == list(primes[:2 * j + 1])
        # The defect -a d vanishes modulo every prime taken but the last.
        assert [a * d % p == 0 for p in taken] == [True] * (2 * j) + [False]
        assert first_alternativity_defect(algebra, identity(4)) == (1, None, 2, "left")
    assert ref.alternativity_defect_ints(algebra, identity(4)) == (1, None, 2, "left")


def test_the_screen_refutes_modulo_the_first_prime_only():
    """alternativity_screen: True on a defect, False where its arithmetic
    decides (exact, one prime, or no rows), None where only more primes
    could prove a pass."""
    o, s = named_algebra("O").algebra, named_algebra("S").algebra
    assert alternativity_screen(o, identity(8)) is False  # exact int64
    assert alternativity_screen(s, identity(16)) is True
    rotated = rotated_copy(s, random.Random("screen"), named_algebra("S").grading)[0]
    assert AlternativitySweep(rotated, identity(16)).bound >= INT64_LIMIT
    assert alternativity_screen(rotated, identity(16)) is True
    assert alternativity_screen(rotated, identity(16)[:8]) is None
    assert alternativity_screen(rotated, ()) is False
    # Every defect of the two-step table is a multiple of a = p: it vanishes
    # modulo the first prime only.
    table = _two_step_table(SCREEN_PRIME, 1)
    assert len(_zero_test_primes(AlternativitySweep(table, identity(4)).bound, 4)) > 1
    assert alternativity_screen(table, identity(4)) is None
    assert first_alternativity_defect(table, identity(4)) == (1, None, 2, "left")
    assert alternativity_screen(_two_step_table(SCREEN_PRIME + 2, 1), identity(4)) is True


@PRIME_SETS
def test_a_homomorphism_defect_only_the_last_prime_sees(primes):
    """b1^2 = c and the map b1 -> 3 b1: f(b1 b1) - f(b1) f(b1) = -8c.  The
    bound is 2 * c * 3 + 2^2 * 3^2 * c = 42 c."""
    j = 1
    while 42 * prod(primes[:j]) < INT64_LIMIT:
        j += 1
    c = prod(primes[:j])
    consts = [[[F0] * 2 for _ in range(2)] for _ in range(2)]
    for i in range(2):
        consts[0][i][i] = consts[i][0][i] = Fraction(1)
    consts[1][1][0] = Fraction(c)
    algebra = Algebra(consts, unit=0)
    stretch = ((Fraction(1), F0), (F0, Fraction(3)))
    with zero_test_primes(primes):
        taken = _zero_test_primes(42 * c, 2).tolist()
        assert taken == list(primes[:j + 1])
        assert [8 * c % p == 0 for p in taken] == [True] * j + [False]
        assert first_homomorphism_violation(stretch, algebra, algebra) == (1, 1)
    assert ref.homomorphism_violation_ints(stretch, algebra, algebra) == (1, 1)


@PRIME_SETS
def test_a_middle_moufang_defect_only_the_last_prime_sees(primes):
    """Unit b0, b1 b2 = a b4, b3 b1 = d b5 and b4 b5 = e b2: every triple
    before (1, 2, 3) satisfies the identity, and there
    (b1 b2)(b3 b1) - (b1 (b2 b3)) b1 = a d e b2.  The bound is
    2 * 6^2 * c^3 = 72 c^3 with c = a."""
    j = 1
    while 72 * prod(primes[:j]) ** 3 < INT64_LIMIT:
        j += 1
    a, d, e = prod(primes[:j]), prod(primes[j:2 * j]), prod(primes[2 * j:3 * j])
    consts = [[[F0] * 6 for _ in range(6)] for _ in range(6)]
    for i in range(6):
        consts[0][i][i] = consts[i][0][i] = Fraction(1)
    consts[1][2][4], consts[3][1][5], consts[4][5][2] = Fraction(a), Fraction(d), Fraction(e)
    algebra = Algebra(consts, unit=0)
    with zero_test_primes(primes):
        taken = _zero_test_primes(72 * a**3, 6).tolist()
        assert taken == list(primes[:3 * j + 1])
        assert [a * d * e % p == 0 for p in taken] == [True] * (3 * j) + [False]
        assert first_middle_moufang_defect(algebra) == (1, 2, 3)
    assert ref.middle_moufang_on_basis(algebra) == (False, (1, 2, 3))


@PRIME_SETS
def test_a_pairwise_sum_witness_past_int64(primes):
    """b1^2 = b1, b2 b1 = b1, b2^2 = b2 and b1 b2 = 0: each basis vector
    satisfies both laws, b1 + b2 does not.  Scaling the basis by huge
    factors keeps that and passes int64."""
    consts = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        consts[0][i][i] = consts[i][0][i] = Fraction(1)
    consts[1][1][1] = consts[2][1][1] = consts[2][2][2] = Fraction(1)
    rows = [[Fraction(int(i == j)) * (2**40 + 3 * i) ** i for j in range(3)] for i in range(3)]
    algebra = change_of_basis(Algebra(consts, unit=0), rows, unit_index=0)
    assert AlternativitySweep(algebra, identity(3)).bound >= INT64_LIMIT
    with zero_test_primes(primes):
        got = first_alternativity_defect(algebra, identity(3))
    assert got == ref.alternativity_defect_ints(algebra, identity(3)) == (1, 2, 1, "left")


@PRIME_SETS
@pytest.mark.parametrize("name", ["O", "TO"])
def test_constants_below_every_prime_are_their_own_residues(primes, name):
    """The named tables have entries 0 and +-1, so their tensor is used as
    is, with a prime axis of length one; huge rows or a huge map still push
    the bounds past int64."""
    table = named_algebra(name).algebra
    rows = [[Fraction(int(i == j) * (2**31 + 1 if i else 1)) for j in range(8)] for i in range(8)]
    source = change_of_basis(table, rows, unit_index=0)
    # The map from the copy back to the table, and its inverse the other way.
    maps = [(transpose(rows), source, table), (mat_inv(transpose(rows)), table, source)]
    maps += [([[c + (r == 5 and k == 3) for k, c in enumerate(row)] for r, row in enumerate(m)],
              a, b) for m, a, b in maps]
    assert AlternativitySweep(table, rows).bound >= INT64_LIMIT
    with zero_test_primes(primes):
        assert kernel.scaled_tensor(table).residues(_zero_test_primes(2**70, 8)).shape[0] == 1
        got = [first_alternativity_defect(table, rows)]
        got += [first_homomorphism_violation(*args) for args in maps]
    assert got == [ref.alternativity_defect_ints(table, rows)] + [
        ref.homomorphism_violation_ints(*args) for args in maps
    ]
    assert got[1:3] == [None, None] and None not in got[3:]
    # The copy has entries near 2^62, so the Moufang cube takes full residues.
    with zero_test_primes(primes):
        assert first_middle_moufang_defect(source) == ref.middle_moufang_on_basis(source)[1]


@PRIME_SETS
def test_a_dense_map_between_tables_past_int64(primes):
    """A generalized quaternion table with huge squares and a copy of it in a
    basis with huge diagonal entries: both tensors and the map have large
    residues, so every partial sum of the check must be reduced."""
    base = _quaternion_table(-(2**40 + 1), -(2**40 + 3))
    rows = [[1, 0, 0, 0], [0, 2**31 + 1, 0, 0], [0, 2, -(2**31 + 5), 0], [0, -1, 3, 2**31 + 9]]
    rows = [[Fraction(x) for x in row] for row in rows]
    source = change_of_basis(base, rows, unit_index=0)
    iso = [list(r) for r in transpose(rows)]
    bent = [list(r) for r in iso]
    bent[2][3] += 1
    with zero_test_primes(primes):
        got = [first_homomorphism_violation(m, source, base) for m in (iso, bent)]
    assert got == [ref.homomorphism_violation_ints(m, source, base) for m in (iso, bent)]
    assert got == [None, (1, 2)]


def test_bounds_past_all_the_primes_keep_python_ints():
    """Generalized quaternions with i^2 = j^2 = -2^111: (ij)^2 = -2^222, so
    the sweep's bound passes the product of all sixteen primes (2^447) and
    the middle Moufang bound does too; both run on Python ints."""
    algebra = _quaternion_table(-(2**111), -(2**111))
    sweep = AlternativitySweep(algebra, identity(4))
    assert _zero_test_primes(sweep.bound, 4) is None
    assert first_alternativity_defect(algebra, identity(4)) is None
    assert first_middle_moufang_defect(algebra) is None
    consts = [[list(cell) for cell in row] for row in algebra.constants]
    consts[3][3][0] += 1
    bent = Algebra(consts, unit=0)
    assert first_alternativity_defect(bent, identity(4)) == ref.alternativity_defect_ints(
        bent, identity(4)
    )
    assert first_middle_moufang_defect(bent) == ref.middle_moufang_on_basis(bent)[1]


# ---------------------------------------------------------------------------
# tables past int64 against the Python-int path
# ---------------------------------------------------------------------------

BIG = st.integers(2**31, 2**45)
SIGN = st.sampled_from([1, -1])


def random_table(draw, n: int, entry, square: int) -> Algebra:
    """A unital table with b1^2 = -square + ... and the other coordinates of
    products of non-unit vectors drawn from ``entry``."""
    consts = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        consts[0][i][i] = consts[i][0][i] = Fraction(1)
        for j in range(1, n):
            for k in range(n if i else 0):
                consts[i][j][k] = Fraction(draw(entry))
    consts[1][1][0] = Fraction(-square)
    return Algebra(consts, unit=0)


@st.composite
def big_tables(draw, named=("H", "O")):
    """Unital tables whose integer tensor passes int64: generalized
    quaternions with huge i^2 and j^2; H, O or a small random table (whose
    first defect is often at a pairwise sum) in a basis sheared by huge
    entries; or huge random entries in dimension 3 or 4.  Half of the time
    one constant is then moved by a small or a huge amount."""
    kind = draw(st.sampled_from(["quaternion", "sheared", "random"]))
    if kind == "quaternion":
        algebra = _quaternion_table(draw(SIGN) * draw(BIG), draw(SIGN) * draw(BIG))
    elif kind == "sheared":
        base = draw(st.sampled_from([*named, "small"]))
        if base == "small":
            entry = st.sampled_from([0, 0, 1, -1])
            algebra = random_table(draw, draw(st.integers(3, 4)), entry, 1)
        else:
            algebra = named_algebra(base).algebra
        rows = draw(sheared_rows(algebra.dim, mix=base != "small" or draw(st.booleans())))
        algebra = change_of_basis(algebra, rows, unit_index=0)
    else:
        huge = st.integers(2**64, 2**70)
        entry = st.one_of(st.just(0), huge, huge.map(lambda v: -v))
        algebra = random_table(draw, draw(st.integers(3, 4)), entry, draw(huge))
    if draw(st.booleans()):
        n = algebra.dim
        consts = [[list(cell) for cell in row] for row in algebra.constants]
        i, j, k = (draw(st.integers(1, n - 1)) for _ in range(3))
        consts[i][j][k] += draw(st.sampled_from([1, -1, 2**64, Fraction(1, 3)]))
        algebra = Algebra(consts, unit=0)
    return algebra


def sheared_rows(n: int, mix: bool = True):
    """Triangular rows with a huge diagonal, or only the diagonal when not
    ``mix``; row 0 stays the unit."""
    @st.composite
    def rows(draw):
        out = [[F0] * n for _ in range(n)]
        out[0][0] = Fraction(1)
        for i in range(1, n):
            out[i][i] = Fraction(draw(SIGN) * draw(BIG))
            for k in range(1, i if mix else 1):
                out[i][k] = Fraction(draw(st.integers(-3, 3)))
        return out
    return rows()


@PRIME_SETS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_matches_python_ints_past_int64(primes, data):
    algebra = data.draw(big_tables())
    n = algebra.dim
    if data.draw(st.booleans()):
        rows = identity(n)
    else:
        rows = data.draw(sheared_rows(n))[1:]
    assert AlternativitySweep(algebra, rows).bound >= INT64_LIMIT
    with zero_test_primes(primes):
        got = first_alternativity_defect(algebra, rows)
    assert got == ref.alternativity_defect_ints(algebra, rows)


@PRIME_SETS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_homomorphism_check_matches_python_ints_past_int64(primes, data):
    """The map from a sheared copy back to the table is an isomorphism;
    moving one entry of it usually breaks that."""
    algebra = data.draw(big_tables())
    n = algebra.dim
    rows = data.draw(sheared_rows(n))
    source = change_of_basis(algebra, rows, unit_index=0)
    iso = [list(r) for r in transpose(rows)]
    if data.draw(st.booleans()):
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        iso[r][c] += data.draw(st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(2**70)]))
    with zero_test_primes(primes):
        got = first_homomorphism_violation(iso, source, algebra)
        # With the unit test in front, as verify_iso runs it.
        full = _homomorphism_violation(iso, source, algebra)
    assert got == ref.homomorphism_violation_ints(iso, source, algebra)
    if n <= 4:
        assert full == ref.homomorphism_violation(iso, source, algebra)


@PRIME_SETS
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_middle_moufang_matches_reference_past_int64(primes, data):
    # The reference multiplies out the whole cube: dimension 8 is too slow.
    algebra = data.draw(big_tables(named=("H",)))
    with zero_test_primes(primes):
        got = first_middle_moufang_defect(algebra)
    assert got == ref.middle_moufang_on_basis(algebra)[1]


# ---------------------------------------------------------------------------
# each zero test in each of its three arithmetics
# ---------------------------------------------------------------------------

ZERO_TESTS = {
    "alternativity": (first_alternativity_defect, ref.alternativity_defect_ints),
    "homomorphism": (first_homomorphism_violation, ref.homomorphism_violation_ints),
    "middle-moufang": (first_middle_moufang_defect, lambda a: ref.middle_moufang_on_basis(a)[1]),
}


def _bent(matrix):
    out = [list(r) for r in matrix]
    out[5][3] += Fraction(1, 7)
    return out


@cache
def _zero_test_inputs(check: str, past_int64: bool) -> list[tuple]:
    """Arguments with and without a witness: named tables below 2^63;
    rotated S and TS (graded parts and the whole basis) or copies of O and
    TO in a basis with diagonal entries near 2^10 past it."""
    o, to, s, ts = (named_algebra(name) for name in ("O", "TO", "S", "TS"))
    if not past_int64:
        return {
            "alternativity": [
                (o.algebra, identity(8)), (s.algebra, identity(16)),
                (ts.algebra, ts.grading.odd_rows),
            ],
            "homomorphism": [
                (identity(8), o.algebra, o.algebra),
                (_bent(identity(8)), to.algebra, to.algebra),
                (_bent(identity(16)), s.algebra, s.algebra),
            ],
            "middle-moufang": [(o.algebra,), (to.algebra,)],
        }[check]
    if check == "middle-moufang":
        rows = [[Fraction(int(i == j) * (2**10 + 2 * i + 1 if i else 1)) for j in range(8)]
                for i in range(8)]
        return [(change_of_basis(b.algebra, rows, unit_index=0),) for b in (o, to)]
    out = []
    for seed, bundle in ((3, s), (4, ts)):
        rotated, grading, rows = rotated_copy(bundle.algebra, random.Random(seed), bundle.grading)
        if check == "alternativity":
            out += [(rotated, grading.even_rows), (rotated, identity(16))]
        else:
            iso = transpose(rows)
            out += [(iso, rotated, bundle.algebra), (_bent(iso), rotated, bundle.algebra)]
    return out


@pytest.mark.parametrize("arithmetic", ["int64", "primes", "python"])
@pytest.mark.parametrize("check", list(ZERO_TESTS))
def test_each_zero_test_in_each_arithmetic(check, arithmetic):
    """Below 2^63 on named tables; past it on rotated or rescaled copies,
    modulo the primes or, with a tuple of one prime too short for any of
    their bounds, on Python ints.  The arithmetic each call took is read
    off the choice itself."""
    run, reference = ZERO_TESTS[check]
    cases = _zero_test_inputs(check, arithmetic != "int64")
    taken = []
    choose = kernel._zero_test_arithmetic

    def spy(bound, n):
        primes = choose(bound, n)
        taken.append("int64" if bound < INT64_LIMIT else "python" if primes is None else "primes")
        return primes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_zero_test_arithmetic", spy)
        if arithmetic == "python":
            patch.setattr(kernel, "ZERO_TEST_PRIMES", (SCREEN_PRIME,))
        got = [run(*args) for args in cases]
    assert taken == [arithmetic] * len(cases)
    assert got == [reference(*args) for args in cases]
    assert None in got and any(w is not None for w in got)
