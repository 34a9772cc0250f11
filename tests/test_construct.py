"""The doubling construction, involutions, gradings, and named algebras."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cdalg import (
    Algebra,
    DimensionMismatchError,
    Grading,
    InvalidGradingError,
    NonUnitalError,
    UnknownAlgebraError,
    cayley_dickson,
    cayley_dickson_tower,
    jordan_spin_algebra,
    named_algebra,
    natural_grading,
)
from cdalg import construct
from cdalg.cli import main
from cdalg.construct import MAX_SPIN_DIM, InvolutiveAlgebra
from cdalg.core import change_of_basis
from cdalg.kernel import _star_products, scaled_tensor
from cdalg.linalg import Subspace, identity, mat_inv
from cdalg.tables import (
    OCTONION_TABLE,
    SEDENION_TABLE,
    TWISTED_OCTONION_TABLE,
    TWISTED_SEDENION_TABLE,
    algebra_from_signed_table,
)

import slow_reference as ref
from slow_reference import mat_mul, transpose
from test_table import scaled_form

F = Fraction


def test_tower_dimensions_and_units():
    tower = cayley_dickson_tower(4)
    assert [inv.dim for inv in tower] == [1, 2, 4, 8, 16]
    for inv in tower:
        assert inv.algebra.unit == 0


def test_doubling_square_of_adjoined_vector():
    tower = cayley_dickson_tower(1)
    c = tower[1].algebra
    e = c.basis_element(1)
    assert c.multiply(e, e) == -c.one()


def test_octonion_table_reproduced():
    alg = cayley_dickson_tower(3)[3].algebra
    assert alg == algebra_from_signed_table(OCTONION_TABLE)


def test_sedenion_table_reproduced():
    alg = cayley_dickson_tower(4)[4].algebra
    assert alg == algebra_from_signed_table(SEDENION_TABLE)


def test_doubled_unit_is_pair_of_units():
    tower = cayley_dickson_tower(3)
    for inv in tower[1:]:
        assert inv.algebra.one().coords[0] == 1
        # The adjoined generator sits at index dim/2.
        half = inv.dim // 2
        e = inv.algebra.basis_element(half)
        assert inv.algebra.multiply(e, e) == -inv.algebra.one()


def test_involution_negates_imaginaries(octonions):
    inv = cayley_dickson_tower(3)[3]
    e3 = inv.algebra.basis_element(3)
    assert ref.apply_star(inv, e3) == -e3
    assert ref.apply_star(inv, inv.algebra.one()) == inv.algebra.one()


def test_involution_trace_example(sedenions):
    inv = cayley_dickson_tower(4)[4]
    alg = inv.algebra
    x = alg.scalar(2) + alg.basis_element(5)
    assert x + ref.apply_star(inv, x) == alg.scalar(4)


def test_star_properties_on_sums(sedenions):
    inv = cayley_dickson_tower(4)[4]
    alg = inv.algebra
    rng = random.Random(2)
    for _ in range(10):
        coords = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(16))
        x = alg.element(coords)
        xs = ref.apply_star(inv, x)
        total = x + xs
        assert all(c == 0 for c in total.coords[1:])
        prod = alg.multiply(x, xs)
        assert all(c == 0 for c in prod.coords[1:])
        assert prod == alg.multiply(xs, x)
        assert prod.coords[0] >= 0


def test_natural_grading_is_valid():
    for level in (1, 2, 3, 4):
        inv = cayley_dickson_tower(level)[level]
        grading = natural_grading(inv.dim)
        grading.validate(inv.algebra)


def test_named_gradings_valid(twisted_octonions, twisted_sedenions, sedenions):
    for bundle in (twisted_octonions, twisted_sedenions, sedenions):
        bundle.grading.validate(bundle.algebra)


def test_invalid_grading_rejected(quaternions):
    alg = quaternions.algebra
    # e1 e2 = e3 would have to be even, but 3 is declared odd.
    with pytest.raises(InvalidGradingError):
        Grading.from_indices(4, [0, 1, 2], [3]).validate(alg)
    # The natural split is fine, and so is the one through span{1, e3}.
    Grading.from_indices(4, [0, 1], [2, 3]).validate(alg)
    Grading.from_indices(4, [0, 3], [1, 2]).validate(alg)


@pytest.mark.parametrize("seed", range(6))
def test_bad_index_grading_names_the_first_escaping_product(twisted_sedenions, seed):
    """The closure check of an index grading reads only the nonzero
    constants and still reports the first b_i b_j, in row-major order, that
    the dense n^3 scan reports."""
    alg = twisted_sedenions.algebra
    rng = random.Random(seed)
    odd = sorted(rng.sample(range(1, 16), rng.randint(1, 15)))
    even = [i for i in range(16) if i not in odd]
    with pytest.raises(InvalidGradingError) as want:
        ref.index_grading_closure(alg, even, odd)
    with pytest.raises(InvalidGradingError) as got:
        Grading.from_indices(16, even, odd).validate(alg)
    assert str(got.value) == str(want.value)


def test_index_grading_closure_on_random_dense_cells():
    """Tables whose cells hold several nonzero constants: the check passes
    or fails, and names the product, exactly as the dense scan does."""
    rng = random.Random(11)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 6)
        c = [[[F(rng.choice((0, 0, 0, 0, 1, -2))) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
        odd = sorted(rng.sample(range(n), rng.randint(0, n)))
        even = [i for i in range(n) if i not in odd]
        if not even:
            continue
        alg = Algebra(c)
        try:
            ref.index_grading_closure(alg, even, odd)
            want = None
        except InvalidGradingError as exc:
            want = str(exc)
        try:
            Grading.from_indices(n, even, odd).validate(alg)
            got = None
        except InvalidGradingError as exc:
            got = str(exc)
        assert got == want
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_bad_index_grading_message_on_twisted_sedenions(twisted_sedenions):
    alg = twisted_sedenions.algebra
    even = [0, 1, 2, 3, 4, 5, 6, 8]
    odd = [7, 9, 10, 11, 12, 13, 14, 15]
    with pytest.raises(InvalidGradingError, match=r"^product b_1 b_6 escapes its part$"):
        Grading.from_indices(16, even, odd).validate(alg)


def test_grading_requires_partition():
    with pytest.raises(InvalidGradingError):
        Grading.from_indices(4, [0, 1], [1, 2, 3])


def test_twisted_octonion_products(twisted_octonions):
    alg = twisted_octonions.algebra
    assert alg.multiply(alg.basis_element(5), alg.basis_element(6)) == alg.basis_element(3)
    assert alg == algebra_from_signed_table(TWISTED_OCTONION_TABLE)


def test_twisted_sedenion_products(twisted_sedenions):
    alg = twisted_sedenions.algebra
    assert alg.multiply(alg.basis_element(9), alg.basis_element(4)) == -alg.basis_element(13)
    assert alg == algebra_from_signed_table(TWISTED_SEDENION_TABLE)


def test_twisted_even_part_matches_octonions(twisted_sedenions):
    # b_0..b_7 span a subalgebra whose table is the octonions'.
    table = scaled_tensor(twisted_sedenions.algebra)
    octonions = scaled_tensor(algebra_from_signed_table(OCTONION_TABLE))
    assert not table.c[:8, :8, 8:].any() and table.den == octonions.den
    assert np.array_equal(table.c[:8, :8, :8], octonions.c)


def test_jordan_spin_products():
    alg = jordan_spin_algebra(3)
    assert alg.multiply(alg.basis_element(1), alg.basis_element(2)).is_zero()
    assert alg.multiply(alg.basis_element(1), alg.basis_element(1)) == -alg.one()


def test_named_lookup_aliases():
    assert named_algebra("A3").name == "O"
    assert named_algebra("o").algebra.dim == 8
    assert named_algebra("a5").algebra.dim == 32
    assert named_algebra("J7").algebra.dim == 7
    with pytest.raises(UnknownAlgebraError):
        named_algebra("Q")
    with pytest.raises(UnknownAlgebraError):
        named_algebra("Jx")


def test_spin_factor_names_stop_at_the_cap(monkeypatch, capsys):
    """A name J<k> past the cap is unknown, as J0 is, before any table is
    built: the builder fails the test if a larger k reaches it.  On the
    command line both end with the exit code of J0."""
    build = construct.jordan_spin_algebra

    def guarded(k):
        assert k <= MAX_SPIN_DIM, f"J{k} reached the builder"
        return build(k)

    monkeypatch.setattr(construct, "jordan_spin_algebra", guarded)
    assert named_algebra(f"J{MAX_SPIN_DIM}").algebra.dim == MAX_SPIN_DIM
    for k in (MAX_SPIN_DIM + 1, 3000, 2_000_000, 999_999_999_999):
        with pytest.raises(UnknownAlgebraError, match=f"k <= {MAX_SPIN_DIM}, got {k}$"):
            named_algebra(f"J{k}")
        for command in ("gen", "check"):
            assert main([command, f"J{k}"]) == main([command, "J0"]) != 0
    capsys.readouterr()


def test_named_lookup_is_shared_between_calls():
    assert named_algebra("s") is named_algebra("S") is named_algebra("A4")
    assert named_algebra("TS").grading is named_algebra("ts").grading
    with pytest.raises(UnknownAlgebraError, match="'q'"):
        named_algebra("q")


def test_cayley_dickson_rejects_broken_involution(complexes):
    alg = complexes.algebra
    not_an_involution = ((F(1), F(1)), (F(0), F(1)))
    with pytest.raises(ValueError):
        InvolutiveAlgebra(alg, not_an_involution)


@pytest.fixture(scope="module")
def reference_tower():
    return ref.cayley_dickson_tower(5)


def _same_involutive_algebra(inv: InvolutiveAlgebra, want) -> None:
    algebra, star = want
    got = inv.algebra
    assert got.constants == algebra.constants
    assert scaled_form(got) == scaled_form(algebra)
    assert got.labels == algebra.labels
    assert got.unit == algebra.unit
    assert inv.star == star


@pytest.mark.parametrize("level", range(6))
def test_tower_matches_element_loop(reference_tower, level):
    """R .. A5: constants, nonzero cells, labels, unit and star as the
    doubling that multiplies basis vectors one pair at a time builds them."""
    _same_involutive_algebra(cayley_dickson_tower(level)[level], reference_tower[level])


def test_dim_64_level_follows_the_index_rule():
    """A6 against the closed form e_p e_q = +-e_{p xor q} of the standard basis."""
    inv = cayley_dickson_tower(6)[6]
    table = scaled_tensor(inv.algebra)
    assert table.den == 1
    for p in range(64):
        for q in range(64):
            (k,) = np.flatnonzero(table.c[p, q])
            assert k == p ^ q and abs(table.c[p, q, k]) == 1
    assert inv.algebra.labels == tuple(["1"] + [f"e{i}" for i in range(1, 64)])
    assert inv.star == tuple(
        tuple(F(1 if i == j == 0 else -1 if i == j else 0) for j in range(64)) for i in range(64)
    )


def _transported(algebra, star, rows, unit):
    """The algebra in the basis ``rows`` (the unit at ``unit``) and its star
    transported there: y* = P^-T S P^T y for P the matrix of the rows."""
    transported = change_of_basis(algebra, rows, unit_index=unit)
    return transported, mat_mul(transpose(mat_inv(rows)), mat_mul(star, transpose(rows)))


@pytest.mark.parametrize("name, den", [("H", 4), ("O", 4), ("H", 2**62)])
def test_doubling_with_a_dense_rational_star(name, den):
    """The same contractions double an algebra whose star is neither
    diagonal nor integral: H and O in a random rational basis, and H in a
    basis whose denominators put the contractions past int64."""
    bundle = named_algebra(name)
    n = bundle.algebra.dim
    rng = random.Random(n)
    while True:
        rows = [[F(1)] + [F(0)] * (n - 1)]
        rows += [[F(rng.randint(-3, 3), den - rng.randint(0, 3)) for _ in range(n)]
                 for _ in range(n - 1)]
        try:
            mat_inv(rows)
            break
        except ValueError:
            continue
    algebra, star = _transported(bundle.algebra, bundle.star, rows, 0)
    assert any(x.denominator != 1 for row in star for x in row)
    assert any(star[i][j] for i in range(n) for j in range(n) if i != j)
    assert (_star_products(algebra, star)[0].dtype == object) == (den > 4)
    doubled = cayley_dickson(InvolutiveAlgebra(algebra, star))
    _same_involutive_algebra(doubled, ref.cayley_dickson(algebra, star))


def _three_points_with_swap():
    """R x R x R in the basis v = (2, 0, 1), 1, (1, 0, 0), with the star
    that swaps the first two factors.  The swap is an involutive
    automorphism of a commutative algebra; v + v* = 2 is scalar but
    v v* = (0, 0, 1) is not."""
    points = [[[F(int(i == j == k)) for k in range(3)] for j in range(3)] for i in range(3)]
    rows = [[F(2), F(0), F(1)], [F(1), F(1), F(1)], [F(1), F(0), F(0)]]
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    return _transported(Algebra(points), swap, rows, 1)


def _random_involutive_candidate(rng):
    """A commutative or noncommutative algebra in a random rational basis
    (the unit at a random place) with the transport of an involutive
    (anti-)automorphism: R^k with an involutive permutation of its points,
    or 2x2 matrices with the transpose or the adjugate."""
    if rng.random() < 0.5:
        k = rng.randint(2, 4)
        c = [[[F(int(i == j == l)) for l in range(k)] for j in range(k)] for i in range(k)]
        perm = list(range(k))
        for _ in range(rng.randint(0, k // 2)):
            a, b = rng.sample(range(k), 2)
            perm[a], perm[b] = perm[b], perm[a]
        if any(perm[perm[i]] != i for i in range(k)):
            perm = list(range(k))
        star = tuple(tuple(F(int(perm[j] == i)) for j in range(k)) for i in range(k))
        one = [F(1)] * k
    else:
        k = 4  # E_ab at index 2a + b, E_ab E_cd = delta_bc E_ad
        c = [[[F(int(i % 2 == j // 2 and l == 2 * (i // 2) + j % 2)) for l in range(4)]
              for j in range(4)] for i in range(4)]
        if rng.random() < 0.5:  # transpose
            star = tuple(tuple(F(int(i == [0, 2, 1, 3][j])) for j in range(4)) for i in range(4))
        else:  # adjugate: E11 <-> E22, E12 -> -E12, E21 -> -E21
            star = ((0, 0, 0, 1), (0, -1, 0, 0), (0, 0, -1, 0), (1, 0, 0, 0))
        one = [F(1), F(0), F(0), F(1)]
    unit = rng.randrange(k)
    while True:
        rows = [[F(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
        if unit and rng.random() < 0.5:
            # b_0 = a + w - w*, on which the trace law holds.
            w, a = rows[0], rng.randint(-2, 2)
            rows[0] = [a * o + x - sum(s * y for s, y in zip(r, w))
                       for o, x, r in zip(one, w, star)]
        rows[unit] = one
        try:
            mat_inv(rows)
            break
        except ValueError:
            continue
    return _transported(Algebra(c), star, rows, unit)


def test_involution_law_errors_on_random_inputs():
    """Which law fails first, and on which candidate, depends on the basis;
    the verdict and message match the loop over basis vectors and pairwise
    sums."""
    rng = random.Random(5)
    outcomes = set()
    for _ in range(200):
        algebra, star = _random_involutive_candidate(rng)
        messages = []
        for check in (InvolutiveAlgebra, ref.involution_laws):
            try:
                check(algebra, star)
                messages.append(None)
            except ValueError as exc:
                messages.append(str(exc))
        assert messages[0] == messages[1]
        outcomes.add(messages[0])
    assert outcomes == {None, "x + x* is not scalar", "x x* is not a central scalar"}


def _involution_inputs():
    h, c = named_algebra("H").algebra, named_algebra("C").algebra
    return {
        "wrong shape": (h, tuple(row[:3] for row in named_algebra("H").star[:3]),
                        DimensionMismatchError, "star matrix has wrong shape"),
        "non-unital": (Algebra([[[F(0)]]]), ((F(1),),),
                       NonUnitalError, "involutive algebras must be unital"),
        "not an anti-automorphism": (h, tuple(tuple(F(int(i == j)) for j in range(4))
                                              for i in range(4)),
                                     ValueError, "(b_1 b_2)* != b_2* b_1*"),
        "trace not scalar": (c, ((F(1), F(0)), (F(0), F(1))),
                             ValueError, "x + x* is not scalar"),
        "norm not scalar": (*_three_points_with_swap(),
                            ValueError, "x x* is not a central scalar"),
    }


@pytest.mark.parametrize("case", list(_involution_inputs()))
def test_involution_law_errors(case):
    """Each law's error, as the candidate loop raises it.  Identity on C
    breaks only the trace law.  The norm law follows from the other two
    (x* = t(x) - x, and uv + vu is scalar on the kernel of t), so an input
    that breaks it also breaks the trace law on a later basis vector, and
    the norm error comes first because b_0 is checked first."""
    algebra, star, kind, message = _involution_inputs()[case]
    with pytest.raises(kind) as got:
        InvolutiveAlgebra(algebra, star)
    assert str(got.value) == message
    with pytest.raises(kind) as want:
        ref.involution_laws(algebra, star)
    assert str(want.value) == message


def test_label_propagation():
    tower = cayley_dickson_tower(2)
    assert tower[2].algebra.labels == ("1", "e1", "e2", "e3")


def _validated(grading, algebra, validate):
    try:
        validate(grading, algebra)
    except InvalidGradingError as exc:
        return str(exc)
    return None


def _random_index_grading(rng, n):
    """Unit-vector rows in a random order: a partition, or parts that
    overlap, miss an index or hold the unit in the odd part."""
    eye = identity(n)
    k = rng.randint(1, n)
    even = rng.sample(range(n), k)
    kind = rng.choice(["partition", "partition", "overlap", "short", "odd unit"])
    if kind == "odd unit" and n > 1:
        even = rng.sample(range(1, n), min(k, n - 1))
    if kind == "overlap":
        odd = rng.sample(range(n), n - k)
    else:
        odd = [i for i in range(n) if i not in even]
        rng.shuffle(odd)
        if kind == "short" and odd:
            odd.pop()
    return Grading([eye[i] for i in even], [eye[i] for i in odd], n)


@pytest.mark.parametrize("name, cases", [("C", 30), ("H", 60), ("O", 60), ("S", 60), ("A5", 25)])
def test_index_grading_validated_on_indices_as_by_elimination(name, cases, monkeypatch):
    """Random index gradings: the verdict and message of the checks on the
    index sets are those of the echelon of both parts and the dense closure
    scan, and no Subspace is built."""
    bundle = named_algebra(name)
    alg, n = bundle.algebra, bundle.algebra.dim
    rng = random.Random(f"validate:{name}")
    graded = [bundle.grading, Grading.trivial(n), Grading.from_indices(n + 1, range(n + 1), [])]
    graded += [_random_index_grading(rng, n) for _ in range(cases)]
    want = [_validated(g, alg, ref.validate_grading) for g in graded]
    built = []
    init = Subspace.__init__
    monkeypatch.setattr(Subspace, "__init__", lambda self, *a: (built.append(a), init(self, *a)))
    assert [_validated(g, alg, Grading.validate) for g in graded] == want
    assert built == []
    messages = {m.split(" b_")[0] if m else m for m in want}
    assert {None, "grading ambient dimension mismatch", "even + odd does not fill the algebra",
            "unit is not in the even part"} <= messages
    if n > 2:
        assert {"even and odd parts overlap", "product"} <= messages
