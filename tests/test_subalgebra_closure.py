"""The batched subalgebra closure of cdalg.kernel.

Every seed set is closed modulo SCREEN_PRIME; a dimension below dim(A) is
reported only after the rank certificate modulo the first primes of
ZERO_TEST_PRIMES, or after the exact loop.  These tests compare closures
and census reports with the one-candidate-at-a-time references of
slow_reference on named, rotated, sheared and past-2^63 tables, and on
inputs built to fool the prime: generators with denominator p, a table
whose common denominator is divisible by p, a table whose imaginary
products all vanish mod p, seeds that are dependent mod p but not over Q,
a closure that needs a second prime, and seeds past every prime.  On a
quadratic table the census sizes the sets of the unit and at most one
element without the closure; its output is pinned by digest on the shipped
tables.
"""

import hashlib
import io
import random
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import Algebra, Element, change_of_basis, generated_subalgebra, named_algebra
from cdalg import analysis, kernel, save_algebra
from cdalg.analysis import rotated_copy, subalgebra_census
from cdalg.cli import main
from cdalg.core import generator_rows
from cdalg.errors import DimensionMismatchError, NonUnitalError
from cdalg.kernel import INT64_LIMIT, SCREEN_PRIME, closure_dims, scaled_tensor

import slow_reference as ref
from test_zero_test_primes import SMALL_PRIMES, zero_test_primes

F = Fraction
P = SCREEN_PRIME


def census_sets(algebra, count, seed):
    """Generator sets drawn as the census draws its random ones."""
    rng = random.Random(seed)
    n = algebra.dim
    return [
        [Element(tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)))
         for _ in range(rng.randint(1, 2))]
        for _ in range(count)
    ]


def structured_sets(algebra, pairs):
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    sets = [[], *([b] for b in basis)]
    for i, j in pairs:
        sets += [[basis[i] + basis[j]], [basis[i] - basis[j]], [basis[i], basis[j]]]
    return sets


@contextmanager
def recording_paths():
    """Counts of the seed sets that reached the certificate and the exact loop."""
    seen = {"certified": 0, "exact": 0}
    certified, exact = kernel._certified, kernel._exact_closure

    def certifying(algebra, seed_sets, closed, primes):
        seen["certified"] += len(seed_sets)
        return certified(algebra, seed_sets, closed, primes)

    def exact_loop(algebra, seeds):
        seen["exact"] += 1
        return exact(algebra, seeds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_certified", certifying)
        patch.setattr(kernel, "_exact_closure", exact_loop)
        yield seen


def assert_closures_match(algebra, sets, include_unit=True):
    """Every closure, its rows and the batched dimensions against the
    round-based reference."""
    want = [ref.generated_subalgebra_rounds(algebra, gens, include_unit) for gens in sets]
    for gens, span in zip(sets, want):
        assert generated_subalgebra(algebra, gens, include_unit).rows == span.rows
    seeds = [generator_rows(algebra, gens, include_unit) for gens in sets]
    assert list(closure_dims(algebra, seeds)) == [span.dim for span in want]


def assert_census_matches(algebra, budget, seed, extra=()):
    got = subalgebra_census(algebra, [1, 2], budget=budget, seed=seed, extra_generator_sets=extra)
    want = ref.subalgebra_census(algebra, [1, 2], budget=budget, seed=seed,
                                 extra_generator_sets=extra)
    assert got == want
    return got


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------


def rank_mod(rows, p):
    work = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, p)
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] * inv
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_basis_keeps_exactly_the_rows_independent_of_earlier_rows(data):
    """Row i is kept when it raises the rank mod p of rows 0..i; the
    companion ends as rows orthogonal to every row, of rank n - rank."""
    p = data.draw(st.sampled_from([2, 3, 7, SCREEN_PRIME]))
    b, r, n = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (0, 7), (1, 5)))
    entries = st.integers(0, p - 1) if p < 10 else st.sampled_from([0, 1, 2, p - 1, p - 2])
    mats = data.draw(st.lists(st.lists(st.lists(entries, min_size=n, max_size=n),
                                       min_size=r, max_size=r), min_size=b, max_size=b))
    m = np.array(mats, dtype=np.int64).reshape(b, r, n)
    companion = np.broadcast_to(np.eye(n, dtype=np.int64), (b, n, n)).copy()
    kept = kernel._row_basis_mod(m @ companion % p, p, companion)
    for rows, keep, ann in zip(mats, kept.tolist(), companion):
        assert keep == [rank_mod(rows[:i + 1], p) > rank_mod(rows[:i], p) for i in range(r)]
        assert rank_mod(ann.tolist(), p) == n - rank_mod(rows, p)
        if rows:
            assert not (np.array(rows, dtype=np.int64) @ ann.T % p).any()


# ---------------------------------------------------------------------------
# against the references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,budget,seeds", [
    ("C", 10, (0,)), ("H", 20, (0,)), ("O", 100, (0, 1, 2)), ("TO", 100, (0, 1, 2)),
    ("S", 15, (4,)), ("TS", 15, (5,)),
])
def test_census_matches_one_candidate_at_a_time(name, budget, seeds):
    """Same dimensions and the same first generator set of each; on C every
    dimension appears, which ends the census early."""
    algebra = named_algebra(name).algebra
    for seed in seeds:
        report = assert_census_matches(algebra, budget, seed)
    assert (len(report.realized) == algebra.dim) == (name == "C")


@pytest.mark.parametrize("name", ["O", "TO", "S"])
def test_rotated_tables_match_reference(name):
    algebra = rotated_copy(named_algebra(name).algebra, random.Random(f"closure:{name}"))[0]
    if algebra.dim == 8:
        assert_census_matches(algebra, 10, 3)
    sets = structured_sets(algebra, [(1, 2), (1, 7), (3, algebra.dim - 1)])
    assert_closures_match(algebra, sets + census_sets(algebra, 4, name))


def sheared_s():
    """S in a sheared basis whose diagonal entries near 2^31 put the scaled
    tensor past 2^63."""
    rows = [[F(int(i == j) * (2**31 + 2 * i + 1 if i else 1)) for j in range(16)]
            for i in range(16)]
    rows[9][8] = F(1)
    return change_of_basis(named_algebra("S").algebra, rows, unit_index=0)


def test_past_int64_table_matches_reference():
    algebra = sheared_s()
    assert scaled_tensor(algebra).max_abs >= INT64_LIMIT
    sets = structured_sets(algebra, [(1, 2), (8, 9), (1, 9)])
    with recording_paths() as seen:
        assert_closures_match(algebra, sets + census_sets(algebra, 2, "sheared"))
    assert seen["certified"] or seen["exact"]


@pytest.mark.parametrize("name", ["O", "S"])
def test_without_the_unit_matches_reference(name):
    algebra = named_algebra(name).algebra
    sets = structured_sets(algebra, [(1, 2), (2, 5)]) + census_sets(algebra, 4, f"bare:{name}")
    assert_closures_match(algebra, sets, include_unit=False)


# ---------------------------------------------------------------------------
# inputs that fool the prime
# ---------------------------------------------------------------------------


def test_generators_with_denominator_p():
    o = named_algebra("O").algebra
    b = [o.basis_element(i) for i in range(8)]
    sets = [[b[1].scale(F(1, P)) + b[2]], [b[1].scale(F(1, P)), b[2].scale(F(3, P**2))],
            [b[3].scale(F(P + 1, P)) - b[5], b[6]]]
    assert_closures_match(o, sets)
    assert_census_matches(o, 5, 1, extra=sets)


def test_common_denominator_divisible_by_p():
    """O in the basis 1, b_i / p: b_i b_j has constants +-1/p and b_i^2 = -1/p^2,
    so D = p^2, and 1 x and b_i b_j (i != j) vanish mod p."""
    o = named_algebra("O").algebra
    rows = [[F(int(i == j) * (1 if i == 0 else F(1, P))) for j in range(8)] for i in range(8)]
    algebra = change_of_basis(o, rows, unit_index=0)
    assert scaled_tensor(algebra).den % P == 0
    with recording_paths() as seen:
        assert_census_matches(algebra, 10, 2)
        assert_closures_match(algebra, structured_sets(algebra, [(1, 2), (4, 7)]))
    assert seen["exact"]


def test_imaginary_products_vanishing_mod_p():
    """O in the basis 1, p b_i: every product of two imaginary basis vectors
    is a multiple of p, so modulo p the closure of {1, b_1, b_2} stops at
    dimension 3 while over Q it is H."""
    o = named_algebra("O").algebra
    rows = [[F(int(i == j) * (1 if i == 0 else P)) for j in range(8)] for i in range(8)]
    algebra = change_of_basis(o, rows, unit_index=0)
    b = [algebra.basis_element(i) for i in range(8)]
    with recording_paths() as seen:
        assert generated_subalgebra(algebra, [b[1], b[2]]).dim == 4
    assert seen["exact"] == 1
    assert_closures_match(algebra, structured_sets(algebra, [(1, 2), (3, 6)]))


def test_seeds_dependent_mod_p_reach_the_certificate():
    """b_1 and b_1 + p b_2 are one vector mod p, and b_1 closes on its own
    there; only the seed rows in the certificate's matrix show b_2."""
    o = named_algebra("O").algebra
    b = [o.basis_element(i) for i in range(8)]
    gens = [b[1], b[1] + b[2].scale(P)]
    with recording_paths() as seen:
        span = generated_subalgebra(o, gens)
    assert span.dim == 4 and seen["exact"] == 1
    assert span.rows == ref.generated_subalgebra_rounds(o, gens).rows
    assert_census_matches(o, 3, 0, extra=[gens])


def test_closure_that_needs_a_second_prime():
    """1 + p i is 1 mod p, so modulo p the closure is R; the certificate's
    bound needs the next prime, which sees that it is C."""
    c = named_algebra("C").algebra
    gens = [Element((F(1), F(P)))]
    seeds = generator_rows(c, gens)
    words = kernel._close_mod_p(c, [kernel._seed_ints(seeds)], P)
    assert words == [(1, [[-1, 0]])]
    with recording_paths() as seen:
        assert generated_subalgebra(c, gens).dim == 2
        assert list(closure_dims(c, [seeds])) == [2]
    assert seen == {"certified": 2, "exact": 2}


@pytest.mark.parametrize("primes", [kernel.ZERO_TEST_PRIMES, SMALL_PRIMES],
                         ids=["default", "small"])
def test_certificate_with_many_primes(primes):
    """O and TO census sets, whose certificates need several primes near 2^28
    or dozens near 2^10, are certified and match the reference."""
    with zero_test_primes(primes):
        for name in ("O", "TO"):
            algebra = named_algebra(name).algebra
            sets = census_sets(algebra, 12, f"primes:{name}") + structured_sets(algebra, [(1, 2)])
            with recording_paths() as seen:
                assert_closures_match(algebra, sets)
            assert seen["exact"] == 0
            assert seen["certified"] or name == "TO"


def unital_tables(n, entries):
    """Unital integer tables of dimension n: the unit row and column are fixed
    and every other product is drawn."""
    cells = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=(n - 1) ** 2,
                     max_size=(n - 1) ** 2)

    def build(values):
        c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            c[0][i][i] = c[i][0][i] = F(1)
        for t, cell in enumerate(values):
            i, j = divmod(t, n - 1)
            c[i + 1][j + 1] = [F(v) for v in cell]
        return Algebra(c, unit=0)

    return cells.map(build)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_tables_match_reference(data):
    """Small unital tables with entries that are multiples of the primes in
    play, and seeds with such entries, under both prime tuples."""
    n = data.draw(st.integers(2, 4))
    special = st.sampled_from([0, 0, 1, -1, 2, P, -P, 1021, 1021 * 1019, P * 1021])
    algebra = data.draw(unital_tables(n, special))
    seeds = st.lists(st.lists(special, min_size=n, max_size=n), min_size=0, max_size=2)
    sets = [[Element(tuple(F(v) for v in row)) for row in rows]
            for rows in data.draw(st.lists(seeds, min_size=1, max_size=4))]
    primes = data.draw(st.sampled_from([kernel.ZERO_TEST_PRIMES, SMALL_PRIMES]))
    with zero_test_primes(primes):
        assert_closures_match(algebra, sets)


def test_exact_loop_multiplies_old_rows_by_new_ones(monkeypatch):
    """a a = b, a b = c and b a = 0: from {1, a} the second round adds b, and
    only a b, an older row times the new one, reaches c."""
    c = [[[F(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        c[0][i][i] = c[i][0][i] = F(1)
    c[1][1][2] = c[1][2][3] = F(1)
    algebra = Algebra(c, unit=0)
    monkeypatch.setattr(kernel, "_screen_fits", lambda n, p: False)
    assert generated_subalgebra(algebra, [algebra.basis_element(1)]).dim == 4


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_loop_matches_reference(data):
    """With int64 ruled out every set goes to the exact loop, which multiplies
    only the rows of the last round: on tables that are neither commutative
    nor anticommutative, x y and y x both have to be taken."""
    n = data.draw(st.integers(3, 6))
    algebra = data.draw(unital_tables(n, st.sampled_from([0, 0, 0, 1, -1, 2])))
    rows = st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=1, max_size=2)
    sets = [[Element(tuple(F(v) for v in row)) for row in seeds]
            for seeds in data.draw(st.lists(rows, min_size=1, max_size=3))]
    with recording_paths() as seen, pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_screen_fits", lambda n, p: False)
        for unit in (True, False):
            assert_closures_match(algebra, sets, include_unit=unit)
    assert seen["exact"] == 4 * len(sets) and not seen["certified"]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_census_errors():
    o = named_algebra("O").algebra
    with pytest.raises(DimensionMismatchError):
        subalgebra_census(o, [], budget=1, extra_generator_sets=[[Element((F(1),) * 4)]])
    bare = Algebra([[[F(1), F(0)], [F(0), F(1)]], [[F(0), F(1)], [F(0), F(0)]]])
    with pytest.raises(NonUnitalError, match="^include_unit requires a unital algebra$"):
        subalgebra_census(bare, [], budget=1)
    with pytest.raises(DimensionMismatchError):
        subalgebra_census(bare, [], budget=1, extra_generator_sets=[[Element((F(1),))]])
    with pytest.raises(NonUnitalError):
        subalgebra_census(bare, [], budget=1,
                          extra_generator_sets=[[bare.basis_element(0)], [Element((F(1),))]])


def test_certificate_rejects_a_closure_claimed_too_small():
    """t generates span(t, t^2, t^3) in the algebra with basis t, t^2, t^3
    and t^4 = 0.  Claiming the words t and t t only is refuted by the
    product of the second word with the first, t^3, which the replay must
    build from word 0; t^2 alone is closed."""
    c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][0][1] = c[0][1][2] = c[1][0][2] = F(1)
    algebra = Algebra(c)
    t, t2 = [1, 0, 0], [0, 1, 0]
    ((d, words),) = kernel._close_mod_p(algebra, [[t]], P)
    assert (d, words) == (3, [[-1, 0], [0, 0], [1, 0]])
    claims = [(3, words), (2, words[:2]), (1, [[-1, 0]])]
    for primes in (kernel.ZERO_TEST_PRIMES[1:2], kernel.ZERO_TEST_PRIMES[1:4], SMALL_PRIMES[:3]):
        got = kernel._certified(algebra, [[t], [t], [t2]], claims, np.array(primes))
        assert got.tolist() == [True, False, True]
    assert [span.dim for span in (ref.generated_subalgebra_rounds(algebra, [Element(r)], False)
                                  for r in (t, t2))] == [3, 1]


# ---------------------------------------------------------------------------
# seeds past every prime
# ---------------------------------------------------------------------------


def test_certificate_reduces_seeds_past_every_prime_by_each_prime():
    """x = b_1 + a b_2 and w = 1 + 2 x span a copy of C in O.  Their entries
    pass 2^28, so each prime of the certificate sees its own residues.  With
    a = q + (q + 1)/2 for the second prime q, 2a = 3q + 1 carries where a
    does not: reduced by q and read modulo another prime, w is no longer
    1 + 2x, and the rank passes 2."""
    o = named_algebra("O").algebra
    b = [o.basis_element(i) for i in range(8)]
    q = kernel.ZERO_TEST_PRIMES[1]
    x = b[1] + b[2].scale(q + (q + 1) // 2)
    gens = [x, o.one() + x.scale(2)]
    assert min(max(g.num) for g in gens) > 2**28
    with recording_paths() as seen:
        report = assert_census_matches(o, 0, 0, extra=[gens])
    assert report.realized[2].generators == tuple(gens)
    assert seen == {"certified": 1, "exact": 0}


# ---------------------------------------------------------------------------
# the quadratic rule
# ---------------------------------------------------------------------------


@contextmanager
def closed_sets():
    """The sizes of the seed sets, unit included, whose closure the census
    reads from ``analysis.closure_dims``, in order."""
    sizes = []
    closure = analysis.closure_dims

    def counting(algebra, seed_sets):
        for seeds, d in zip(seed_sets, closure(algebra, seed_sets)):
            sizes.append(len(seeds))
            yield d

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "closure_dims", counting)
        yield sizes


def two_element_draws(n, budget, seed):
    """How many of the census's random sets have two elements."""
    rng = random.Random(seed)
    count = 0
    for _ in range(budget):
        k = rng.randint(1, 2)
        for _ in range(k * n):
            rng.randint(-2, 2), rng.randint(1, 2)
        count += k == 2
    return count


@pytest.mark.parametrize("name,budget,seed", [("H", 20, 0), ("O", 40, 1), ("TO", 40, 2)])
def test_quadratic_tables_close_only_sets_of_two_elements(name, budget, seed):
    algebra = named_algebra(name).algebra
    with closed_sets() as sizes:
        assert_census_matches(algebra, budget, seed)
    assert sizes == [3] * two_element_draws(algebra.dim, budget, seed)
    assert sizes


def _table(n, products):
    """The unital table on 1, b_1, ..., b_(n-1) with b_i b_j from ``products``."""
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = c[i][0][i] = F(1)
    for (i, j), k in products.items():
        c[i][j][k] = F(1)
    return Algebra(c, unit=0)


@pytest.mark.parametrize("products", [{(1, 1): 1, (2, 2): 2}, {(1, 1): 2}],
                         ids=["Q^3", "Q[t]/(t^3)"])
def test_tables_that_are_not_quadratic_close_every_set(products):
    """Q^3 on 1, e_1, e_2 with idempotents e_1 e_2 = 0, and Q[t]/(t^3) on
    1, t, t^2: every set up to the early stop is closed, one-element sets
    and the unit alone included."""
    algebra = _table(3, products)
    for seed in range(3):
        with closed_sets() as sizes:
            report = assert_census_matches(algebra, 20, seed)
        assert sizes[:4] == [1, 2, 2, 2]
        assert sorted(report.realized) == [1, 2, 3]


@pytest.mark.parametrize("name", ["H", "O", "J6"])
def test_multiples_of_the_unit_span_a_line(name):
    algebra = named_algebra(name).algebra
    for x in (algebra.one().scale(2), Element((F(0),) * algebra.dim)):
        with closed_sets() as sizes:
            report = assert_census_matches(algebra, 0, 0, extra=[[x]])
        assert report.realized[1].generators == (x,) and not sizes


# ---------------------------------------------------------------------------
# output pins
# ---------------------------------------------------------------------------


# sha256 of the stdout of `cdalg subalg FILE --seed S` on the saved named
# tables, recorded while the census closed every candidate set.
SUBALG_DIGESTS = {
    "H": ("9ec5a732162ec9ce74a5504a5f9433a23af2d59e0737a715ce8f9046680bb5c2",
          "14a5ec067781c24248268ef189317672da88eda0be7eb00cd3f5fda0af332d25",
          "2ee17fe61fb36336b0f48ab8d995994d409309e73fc9277e4878f77426abe24e"),
    "O": ("b56624294bd70a24154e9b61b385e59bd1e13ad716e08a93066074c15a1f1195",
          "53633038f10567c649f3409c7fc5f5a30ab739293fd813e2262a4b50556de75a",
          "dfbb82bc7feea9d48bf2e51e97016abe2c52eb2d4940c161c1d7345955a1212e"),
    "TO": ("eb16fc6ef60dab2727f2f69dedf0c28dbbbbf340f778d61b3323da48db9fe764",
           "4a2341e84ecbf376773d1c0c1bba6bcee9c49474f92c4607b47cab7a5980c35f",
           "c9c4b7c76686ff444ee882f7fc9b04713da69d3fec47b5fdad5a9383a53bd170"),
    "S": ("fc6c7e4db579b51f77463f58bb0a1e75cc282a0bef2699095bf4e94dd21b815b",
          "9243ea5af20b1a03f2bf76210bab0a9ea946828b9c69564c49cf42c035411c80",
          "24717644623d5f05b95c4e8b5eb2cf800244d8966672dcc02a8bdee09ca49818"),
    "TS": ("44c9871071a67c4ab42149eb1475cb985a9846ff9e1e545b007f03f6e2e4c4b7",
           "0fd8c0b0543b3e3454d73f1ff3e3d5d664073054e85092a79ff5360e829712a6",
           "620701832adcb2edd819769e49c75b791445786b2a5d9cd4dcb8a04f972fbc59"),
    "A5": ("a17cdb3f3f3b9b16974a1b134d835e5b7033391ee4f11bdacabf285ec20c3e81",
           "ea01326e2c7483cecf4b14d95fd067a23cb05f8b17602fb04bc827811f721ad5",
           "bda4e13304e1486b11e5ae49c432e0da1d3cd36794ad32b86985742e43299813"),
    "J6": ("ddf786e6de231b76e77ef2572aa159099c688b9ad9f2f95d212af0a2ed856ee9",
           "2d3bc272b08eb59d43e59c3f3769a20232c3007aae4f27b0deab325dbf8105a0",
           "2ce764eb5a826ab0f8e0c11085cd4ff74478662eb117384dbbc61c53bd47baba"),
}


@pytest.mark.parametrize("name", list(SUBALG_DIGESTS))
def test_subalg_output_is_pinned(name, tmp_path):
    bundle = named_algebra(name)
    path = str(tmp_path / f"{name}.json")
    save_algebra(path, bundle.algebra, bundle.grading)
    for seed, digest in enumerate(SUBALG_DIGESTS[name]):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["subalg", path, "--seed", str(seed)]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
