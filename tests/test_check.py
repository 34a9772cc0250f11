"""The three properties behind ``cdalg check`` -- local complexity, nicely
normed, zero divisors -- against the reference loops in slow_reference.

The library tests nicely-normedness in closed form on the integer tensor,
keeps one local-complexity check per algebra, and screens zero-divisor
candidates modulo a prime before the exact kernel.  Verdicts, errors, pairs
and ``tried`` counts must match the reference, which multiplies certificate
vectors and takes the kernel of every candidate.
"""

import json
import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    Algebra,
    Element,
    InvolutiveAlgebra,
    build_3d,
    build_4d,
    build_raw_3d,
    cayley_dickson,
    change_of_basis,
    cli,
    is_alternative,
    is_locally_complex,
    is_nicely_normed,
    is_quadratic,
    jordan_spin_algebra,
    named_algebra,
    zero_divisor_search,
)
from cdalg import analysis, properties
from cdalg.analysis import rotated_copy
from cdalg.errors import UnsupportedRationalClassError
from cdalg.properties import certificate_or_raise
from cdalg import kernel
from cdalg.kernel import INT64_LIMIT, SCREEN_PRIME, scaled_tensor, singularity_screen

import slow_reference as ref
from test_kernel import _quaternion_table
from test_local_complexity import SMALL, outcome, sheared, tables

F0, F1 = Fraction(0), Fraction(1)


def square_root_table(square):
    """The 2-dimensional unital algebra with b_1^2 = square * 1."""
    return Algebra([[[F1, F0], [F0, F1]], [[F0, F1], [Fraction(square), F0]]], unit=0)


def assert_nicely_normed_matches(algebra):
    want = outcome(ref.is_nicely_normed, algebra)
    if want is UnsupportedRationalClassError:  # no rational certificate to multiply out
        want = ref.commutators_are_imaginary(algebra)
    assert outcome(is_nicely_normed, algebra) == want


def assert_search_matches(algebra, budget, seed):
    got = zero_divisor_search(algebra, budget=budget, seed=seed)
    assert got == ref.zero_divisor_search(algebra, budget=budget, seed=seed)


# -- nicely normed ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(tables())
def test_nicely_normed_matches_reference(algebra):
    assert_nicely_normed_matches(algebra)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(SMALL), min_size=9, max_size=9),
    st.lists(st.sampled_from(SMALL), min_size=3, max_size=3).filter(any),
)
def test_nicely_normed_4d_with_nonzero_u(flat, u):
    """build_4d with u != 0: the "no" cases of the 4-dimensional family."""
    algebra = build_4d([flat[0:3], flat[3:6], flat[6:9]], u)
    assert_nicely_normed_matches(algebra)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["C", "H", "O", "TO", "J3"]), st.data())
def test_nicely_normed_sheared(name, data):
    """Sheared bases give the basis vectors nonzero traces, so a commutator
    with no real part can still have a unit coordinate."""
    assert_nicely_normed_matches(sheared(named_algebra(name).algebra, data.draw))


@pytest.mark.parametrize("name", ["C", "H", "O", "TO", "S", "TS", "A5", "J6"])
def test_nicely_normed_named(name):
    assert_nicely_normed_matches(named_algebra(name).algebra)


@pytest.mark.parametrize("name", ["O", "TO", "S", "TS"])
def test_nicely_normed_rotated(name):
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"nn:{name}"), bundle.grading)[0]
    assert_nicely_normed_matches(rotated)


def test_nicely_normed_without_rational_certificate():
    """The verdict does not need a rational normalized basis.  b_1^2 = -2,
    the quaternions (-1, -3) and the 3-dimensional algebra with b_1^2 = -1,
    b_2^2 = -3, b_1 b_2 = -b_2 b_1 = 1 (not nicely normed: [b_1, b_2] = 2)
    have imaginary norm forms that are not sums of squares over Q, so none
    exists; the reference that multiplies one out gives up on them.  H in
    the basis (1, i + j, i - j, k) and the 3-dimensional algebra with t = 1
    (not nicely normed) in the basis (1, e1 + e2, e1 - e2) have one, built
    by descent, and the same verdicts."""
    c = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        c[0][i][i] = c[i][0][i] = F1
    c[1][1][0], c[2][2][0], c[1][2][0], c[2][1][0] = -F1, Fraction(-3), F1, -F1
    twisted = Algebra(c, unit=0)
    for algebra, want in ((square_root_table(-2), True), (_quaternion_table(-1, -3), True),
                          (twisted, False)):
        assert is_locally_complex(algebra).holds
        assert outcome(certificate_or_raise, algebra) is UnsupportedRationalClassError
        assert is_nicely_normed(algebra) is want
        assert ref.commutators_are_imaginary(algebra) is want
        assert outcome(ref.is_nicely_normed, algebra) is UnsupportedRationalClassError
    h = named_algebra("H").algebra
    sheared_h = change_of_basis(h, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]],
                                unit_index=0)
    sheared_3d = change_of_basis(build_3d(1, 0), [[1, 0, 0], [0, 1, 1], [0, 1, -1]],
                                 unit_index=0)
    for algebra, want in ((sheared_h, True), (sheared_3d, False)):
        ref.validate_certificate(certificate_or_raise(algebra), algebra)
        assert is_nicely_normed(algebra) is want
        assert ref.commutators_are_imaginary(algebra) is want


def test_nicely_normed_past_int64_bound():
    """Scaling b_1 of H by 2^40 puts the closed form on Python ints; an
    antisymmetric change of the unit coordinates keeps local complexity and
    gives the commutator [b_1, b_2] a real part."""
    h = named_algebra("H").algebra
    rows = [[F1 if r == s else F0 for s in range(4)] for r in range(4)]
    rows[1][1] = Fraction(2**40)
    big = change_of_basis(h, rows, unit_index=0)
    assert scaled_tensor(big).max_abs >= INT64_LIMIT
    assert is_nicely_normed(big)
    assert_nicely_normed_matches(big)
    c = [[list(cell) for cell in row] for row in big.constants]
    c[1][2][0] += 1
    c[2][1][0] -= 1
    broken = Algebra(c, unit=0)
    certificate_or_raise(broken)
    assert not is_nicely_normed(broken)
    assert_nicely_normed_matches(broken)


def test_local_complexity_is_computed_once():
    # build_4d keeps its check on the algebra from the start; a copy in
    # another basis decides it on the first call.
    built = build_4d([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])
    algebra = change_of_basis(built, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 1, 1, 0], [0, 0, 0, 3]])
    assert algebra._lc is None
    first = is_locally_complex(algebra)
    assert is_locally_complex(algebra) is first
    assert algebra._lc is first


def normalized_basis_tables():
    """Seeded tables written in a normalized basis by the three writers."""
    rng = random.Random(20)

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(20):
        yield build_4d([[entry() for _ in range(3)] for _ in range(3)], [entry() for _ in range(3)])
        yield build_raw_3d(entry(), entry(), entry())
    yield build_4d([[0.5, -1.25, 0], [3, 0.1, 2], [0, 0, -7]], [1e-3, 0, 2.5])
    yield build_raw_3d(Fraction(1, 3**50), 2**70, Fraction(-5, 7**30))
    yield from map(jordan_spin_algebra, range(1, 7))


@pytest.mark.parametrize("algebra", list(normalized_basis_tables()))
def test_normalized_basis_tables_keep_the_decided_check(orthonormalize_calls, algebra):
    """The check and certificate that the table writer stores equal the ones
    decided and built from the table: verdict, certificate basis and reason.
    Reading the stored certificate orthonormalizes nothing."""
    assert certificate_or_raise(algebra) is algebra._certificate
    assert orthonormalize_calls == []
    stored, fresh = algebra._lc, properties._decide_local_complexity(algebra)
    assert stored is not None and stored.holds and fresh.holds
    built = properties._normalized_basis(Algebra._of_table(scaled_tensor(algebra), algebra.unit))
    assert algebra._certificate.basis == built.basis
    assert stored.reason == fresh.reason
    assert (stored.counterexample, stored.counterexample_kind) == (None, None)
    ref.validate_certificate(algebra._certificate, algebra)


# -- zero-divisor search ---------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(tables(), st.integers(0, 40), st.integers(0, 1000))
def test_zero_divisor_search_matches_reference(algebra, budget, seed):
    assert_search_matches(algebra, budget, seed)


@st.composite
def nonunital_tables(draw):
    """Small tables without a unit, where the lowdim route never applies and
    zero divisors often show up only among the products or random elements."""
    n = draw(st.integers(1, 3))
    entries = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
    return Algebra([[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(nonunital_tables(), st.integers(0, 20), st.integers(0, 1000))
def test_zero_divisor_search_nonunital(algebra, budget, seed):
    assert_search_matches(algebra, budget, seed)


def test_zero_divisor_found_among_products():
    """b_0 (b_0 - b_1) = -2 b_0 + b_1 is the first candidate with a kernel:
    the second product, after the four basis and pair candidates."""
    c = [[[0, 1], [2, 0]], [[0, 2], [-1, 0]]]
    algebra = Algebra(c)
    got = zero_divisor_search(algebra, budget=0)
    assert got.status == "found" and got.tried == 6
    assert got.pair[0] == algebra.multiply(algebra.basis_element(0),
                                           algebra.basis_element(0) - algebra.basis_element(1))
    assert_search_matches(algebra, 0, 0)


@pytest.mark.parametrize("name", ["C", "H", "O", "TO", "S", "TS", "J6"])
@pytest.mark.parametrize("budget, seed", [(0, 0), (5, 3), (70, 11)])
def test_zero_divisor_search_named(name, budget, seed):
    assert_search_matches(named_algebra(name).algebra, budget, seed)


def test_zero_divisor_search_a5():
    """The first zero divisor of A5 comes after 110 nonsingular candidates."""
    algebra = named_algebra("A5").algebra
    got = zero_divisor_search(algebra, budget=0)
    assert got.status == "found" and got.tried == 111
    assert_search_matches(algebra, 0, 0)


@pytest.mark.parametrize("name", ["O", "TO", "S"])
def test_zero_divisor_search_rotated(name):
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"zd:{name}"), bundle.grading)[0]
    assert_search_matches(rotated, 12, 5)


@pytest.mark.parametrize("square", [-2, 3, 5, SCREEN_PRIME])
@pytest.mark.parametrize("budget, seed", [(0, 0), (30, 4)])
def test_zero_divisor_search_square_roots(square, budget, seed):
    """Locally complex without a rational certificate (-2), split with
    irrational idempotents (3, 5), and b_1^2 = p, whose L_{b_1} is singular
    mod the screen's prime only."""
    assert_search_matches(square_root_table(square), budget, seed)


# -- the screen ------------------------------------------------------------


def det_mod(matrix, p):
    return ref.det(matrix) % p


def left_mul_ints(constants, x):
    """L_x of an integer table, entry [k][j] = coordinate k of x b_j."""
    n = len(constants)
    return [[sum(x[i] * constants[i][j][k] for i in range(n)) for j in range(n)]
            for k in range(n)]


@st.composite
def integer_tables_and_rows(draw):
    """Dense integer tables (no unit) and rows, with entries that reduce to
    residues near the prime as well as multiples of it."""
    p = SCREEN_PRIME
    entries = st.sampled_from([0, 1, -1, 2, -3, p, -p, p - 1, 2 * p + 1, 2**40, -(2**70)])
    n = draw(st.integers(1, 5))
    constants = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=6))
    return constants, rows


@settings(max_examples=150, deadline=None)
@given(integer_tables_and_rows())
def test_screen_is_the_rank_mod_p(case):
    constants, rows = case
    algebra = Algebra(constants)
    regular = singularity_screen(algebra)(rows)
    want = [det_mod(left_mul_ints(constants, x), SCREEN_PRIME) != 0 for x in rows]
    assert regular == want


def test_screen_zero_mod_p_but_nonsingular():
    """p b_1 has L_x = p L_{b_1}, which is 0 mod p but nonsingular over Q."""
    algebra = square_root_table(-1)
    p = SCREEN_PRIME
    regular = singularity_screen(algebra)([[0, p], [0, 1], [p, p], [1, 0]])
    assert regular == [False, True, False, True]


def test_search_sends_undecided_candidates_to_the_kernel(monkeypatch):
    """b_0^2 = p b_0: L_{b_0} = [p] is 0 mod p, so b_0 reaches the exact
    kernel, which finds it nonsingular; the random candidates are
    multiples of b_0 (zero included) and reach it too."""
    algebra = Algebra([[[Fraction(SCREEN_PRIME)]]])
    seen = []
    original = analysis._kernel_partner

    def recording(alg, x):
        seen.append(x)
        return original(alg, x)

    monkeypatch.setattr(analysis, "_kernel_partner", recording)
    got = zero_divisor_search(algebra, budget=20, seed=2)
    assert got == ref.zero_divisor_search(algebra, budget=20, seed=2)
    assert got.status == "exhausted" and got.tried == 21
    assert len(seen) == 21 and seen[0] == algebra.basis_element(0)


def test_search_without_screen_matches(monkeypatch):
    """With the screen ruled out every candidate goes to the exact kernel."""
    monkeypatch.setattr(analysis, "singularity_screen", lambda algebra: None)
    for name in ("O", "S"):
        assert_search_matches(named_algebra(name).algebra, 10, 1)


# Primes on either side of n p^2 = 2^63 for n = 16.
UNDER, OVER = 759250111, 759250133


def test_screen_int64_bound(monkeypatch):
    assert 16 * UNDER**2 < INT64_LIMIT <= 16 * OVER**2
    assert kernel._screen_fits(16, UNDER) and not kernel._screen_fits(16, OVER)
    # n = 128 is the largest dimension the screen's prime admits.
    assert kernel._screen_fits(128, SCREEN_PRIME) and not kernel._screen_fits(129, SCREEN_PRIME)
    s = named_algebra("S").algebra
    assert singularity_screen(s) is not None
    monkeypatch.setattr(kernel, "SCREEN_PRIME", OVER)
    assert singularity_screen(s) is None
    monkeypatch.setattr(kernel, "SCREEN_PRIME", UNDER)
    assert singularity_screen(s) is not None


def bound_cases():
    """16-dimensional integer tables and rows whose residues mod UNDER make
    every sum of 16 products come close to 2^63.

    b_i b_j = sum_k B[j][k] b_k with entries -1..-3 and rows 2m and 2m + 1
    of B equal (every L_x singular), plus dense tables of small negative
    entries.
    """
    n = 16
    rng = random.Random(16)
    shared = [[-(1 + (j // 2 + k) % 3) for k in range(n)] for j in range(n)]
    tables = [[shared] * n]
    tables += [[[[-rng.randint(1, 3) for _ in range(n)] for _ in range(n)] for _ in range(n)]
               for _ in range(2)]
    rows = [[-1] * n, [-rng.randint(1, 2) for _ in range(n)], [UNDER - 1] + [0] * (n - 1)]
    return tables, rows


def test_screen_just_under_the_bound(monkeypatch):
    """The whole screen with its prime set just under the int64 bound: the
    verdicts must still be the exact ranks mod that prime."""
    monkeypatch.setattr(kernel, "SCREEN_PRIME", UNDER)
    tables, rows = bound_cases()
    for constants in tables:
        regular = singularity_screen(Algebra(constants))(rows)
        assert regular == [det_mod(left_mul_ints(constants, x), UNDER) != 0 for x in rows]
    assert singularity_screen(Algebra(tables[0]))(rows) == [False] * 3


@pytest.mark.parametrize("p", [UNDER, SCREEN_PRIME, 3])
def test_nonsingular_mod(p):
    """The batched elimination alone, on residues of L_x below p: a matrix
    is nonsingular when all of its rows are kept."""
    tables, rows = bound_cases()
    stack = [[[v % p for v in row] for row in zip(*left_mul_ints(constants, x))]
             for constants in tables for x in rows]
    kept = kernel._row_basis_mod(np.array(stack, dtype=np.int64), p)
    assert kept.all(axis=1).tolist() == [det_mod(m, p) != 0 for m in stack]


def test_candidate_draws_are_those_of_randint():
    """The census and zero-divisor candidates read ``getrandbits`` directly;
    over 1,000 seeds they draw what ``random.randint`` draws, and leave the
    generator in the same state."""
    for seed in range(1000):
        rng, twin = random.Random(seed), random.Random(seed)
        got = [analysis._randint(rng, 1, 2), *analysis._random_row(rng, 5, 3),
               *analysis._random_row(rng, 4, 2), analysis._randint(rng, -7, 7)]
        want = [twin.randint(1, 2)]
        for bound, n in ((3, 5), (2, 4)):
            want += [2 * Fraction(twin.randint(-bound, bound), twin.randint(1, 2))
                     for _ in range(n)]
        want.append(twin.randint(-7, 7))
        assert got == want and rng.getstate() == twin.getstate()


# -- the identity xbar (x y) = N(x) y + D_x y ------------------------------------


def _table(name):
    if name.startswith("rotated"):
        bundle = named_algebra(name.split()[1])
        return rotated_copy(bundle.algebra, random.Random(f"dx:{name}"), bundle.grading)[0]
    return named_algebra(name).algebra


def _identity_marks(algebra, rows, monkeypatch):
    """The rows the screen proves regular by the identity alone: the
    elimination mod p is made to decide nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_nonsingular_mod", lambda m, p: np.zeros(len(m), dtype=bool))
        return singularity_screen(algebra)(rows, True)


@pytest.mark.parametrize("name", ["S", "TS", "A5", "O", "TO", "J6", "rotated O", "rotated TO",
                                  "rotated J6"])
def test_identity_marks_only_nonsingular_candidates(name, monkeypatch):
    """Every candidate of the first four chunks that D_x = 0 marks regular
    has a nonsingular L_x by exact rank; the chunks hold the first zero
    divisor of S, TS, A5, TO and J6."""
    algebra = _table(name)
    assert algebra.dim > 4 and is_locally_complex(algebra).holds
    rows = [row for row, _ in islice(analysis._zero_divisor_candidates(algebra, 128, 0), 128)]
    marked = _identity_marks(algebra, rows, monkeypatch)
    xs = [Element.of_ints(row, 1) for row in rows]
    ranks = [ref.rank(ref.left_mul_matrix(algebra, x)) for x in xs]
    assert all(r == algebra.dim for r, m in zip(ranks, marked) if m)
    assert any(marked)
    if not name.startswith(("O", "rotated")):
        assert min(ranks) < algebra.dim
    # What it marks is exactly x != 0 with x (x y) = x^2 y for every y.
    for x, m in zip(xs[:40], marked):
        square = algebra.multiply(x, x)
        free = all(algebra.multiply(x, algebra.multiply(x, y)) == algebra.multiply(square, y)
                   for y in map(algebra.basis_element, range(algebra.dim)))
        assert m == (not x.is_zero() and free)


def _record_premises(monkeypatch):
    """The ``definite`` premise of every screen call the search makes."""
    premises = []
    screen = analysis.singularity_screen

    def recording(algebra):
        regular = screen(algebra)
        return lambda rows, definite=False: premises.append(definite) or regular(rows, definite)

    monkeypatch.setattr(analysis, "singularity_screen", recording)
    return premises


@pytest.mark.parametrize("name", ["S", "TS", "O", "TO", "J6", "rotated O", "rotated TO"])
def test_search_with_the_identity_matches_reference(name, monkeypatch):
    """The search passes the verdict of is_locally_complex, through the
    binding in analysis, to the screen, and still finds the reference's
    pair after the same number of candidates."""
    algebra = _table(name)
    premises = _record_premises(monkeypatch)
    calls = []
    decide = analysis.is_locally_complex
    monkeypatch.setattr(analysis, "is_locally_complex", lambda alg: calls.append(alg) or decide(alg))
    assert_search_matches(algebra, 12, 5)
    assert calls == [algebra] and premises and all(premises)


def _split_octonions():
    """The doubling of the doubling of the split complex numbers (j^2 = 1,
    j* = -j): quadratic and alternative, so D_x = 0 for every x, but not
    locally complex, and (1 + j)(1 - j) = 0."""
    split = InvolutiveAlgebra(square_root_table(1), [[1, 0], [0, -1]])
    return cayley_dickson(cayley_dickson(split)).algebra


def test_without_local_complexity_the_identity_is_not_used(monkeypatch):
    algebra = _split_octonions()
    assert algebra.dim == 8 and is_quadratic(algebra).holds
    assert is_alternative(algebra).holds and not is_locally_complex(algebra).holds
    one_plus_j = [1, 1] + [0] * 6
    # The screen trusts its caller: told the algebra is definite, it would
    # pass over the zero divisor 1 + j.
    assert _identity_marks(algebra, [one_plus_j], monkeypatch) == [True]
    assert singularity_screen(algebra)([one_plus_j]) == [False]
    premises = _record_premises(monkeypatch)
    got = zero_divisor_search(algebra, budget=10, seed=0)
    assert got.status == "found" and premises and not any(premises)
    assert_search_matches(algebra, 10, 0)


def test_identity_rows_past_the_float_bound_take_the_elimination(monkeypatch):
    """Rows of height h with 2 n^3 h^2 max|C|^2 >= 2^53 skip the identity,
    and so does every chunk of a rotated S, whose constants pass 2^30."""
    rotated = _table("rotated S")
    rows = [row for row, _ in islice(analysis._zero_divisor_candidates(rotated, 0, 0), 32)]
    assert scaled_tensor(rotated).max_abs > 2**30
    assert _identity_marks(rotated, rows, monkeypatch) == [False] * 32
    algebra = named_algebra("S").algebra
    n = algebra.dim
    h = isqrt((2**53 - 1) // (2 * n**3)) + 1
    assert 2 * n**3 * (h - 1) ** 2 < 2**53 <= 2 * n**3 * h**2
    rows = [[h - 1] + [0] * (n - 1), [h] + [0] * (n - 1)]
    assert _identity_marks(algebra, rows[:1], monkeypatch) == [True]
    assert _identity_marks(algebra, rows, monkeypatch) == [False, False]
    assert singularity_screen(algebra)(rows, True) == [True, True]


def test_check_decides_quadraticity_once(tmp_path, capsys, monkeypatch):
    """``check`` reads the quadraticity verdict for its flag and again for
    local complexity; the identity check runs once."""
    calls = []
    defect = properties.first_quadratic_defect
    monkeypatch.setattr(properties, "first_quadratic_defect",
                        lambda alg: calls.append(alg) or defect(alg))
    path = tmp_path / "S.json"
    assert cli.main(["gen", "S", "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["check", str(path), "--budget", "5"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["flags"]["quadratic"] == "yes"
