"""Core structure-constant arithmetic: products, multiplication operators,
quadratic relations, generated subalgebras."""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    Algebra,
    DimensionMismatchError,
    Element,
    NonUnitalError,
    Subspace,
    generated_subalgebra,
    minimal_quadratic,
    named_algebra,
    parse_element,
)
from cdalg.analysis import rotated_copy
from cdalg.kernel import left_mul_rows, left_mul_stack
from cdalg.linalg import identity, rank

import slow_reference as ref

F = Fraction


def truncated_polynomial_algebra():
    """Basis 1, t, t^2 with t^3 = 0; here 1, t, t^2 are independent."""
    z = F(0)
    c = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        c[0][k][k] = F(1)
        c[k][0][k] = F(1)
    c[0][0] = [F(1), z, z]
    c[1][1][2] = F(1)
    return Algebra(c, unit=0, labels=("1", "t", "t2"))


def test_octonion_product_entry(octonions):
    alg = octonions.algebra
    assert alg.multiply(alg.basis_element(1), alg.basis_element(2)) == alg.basis_element(3)


def test_unit_axiom(sedenions):
    alg = sedenions.algebra
    x = parse_element("2*e3 - e11/2 + 5", alg)
    assert alg.multiply(alg.one(), x) == x
    assert alg.multiply(x, alg.one()) == x


def test_sedenion_product_entry(sedenions):
    alg = sedenions.algebra
    assert alg.multiply(alg.basis_element(1), alg.basis_element(9)) == -alg.basis_element(8)


def test_multiply_dimension_mismatch(quaternions, complexes):
    with pytest.raises(DimensionMismatchError):
        quaternions.algebra.multiply(
            quaternions.algebra.one(), complexes.algebra.one()
        )


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_bilinearity_quaternions(alpha, beta, i, j, k):
    alg = named_algebra("H").algebra
    x, y, z = alg.basis_element(i), alg.basis_element(j), alg.basis_element(k)
    combo = x.scale(alpha) + y.scale(beta)
    left = alg.multiply(combo, z)
    expected = alg.multiply(x, z).scale(alpha) + alg.multiply(y, z).scale(beta)
    assert left == expected
    right = alg.multiply(z, combo)
    expected = alg.multiply(z, x).scale(alpha) + alg.multiply(z, y).scale(beta)
    assert right == expected


def test_bilinearity_sedenions_sampled(sedenions):
    alg = sedenions.algebra
    rng = random.Random(11)
    for _ in range(15):
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        b = F(rng.randint(-4, 4), rng.randint(1, 3))
        i, j, k = (rng.randrange(16) for _ in range(3))
        x, y, z = (alg.basis_element(m) for m in (i, j, k))
        combo = x.scale(a) + y.scale(b)
        assert alg.multiply(combo, z) == alg.multiply(x, z).scale(a) + alg.multiply(y, z).scale(b)
        assert alg.multiply(z, combo) == alg.multiply(z, x).scale(a) + alg.multiply(z, y).scale(b)


def _left_mul(alg, x):
    """The exact matrix of y -> x y, read off the kernel's scaled stack."""
    stack, sigma = left_mul_stack(alg, [x.coords])
    return tuple(tuple(Fraction(v, sigma) for v in row) for row in stack[0].tolist())


def _opposite(alg):
    """The algebra with product y * x, so its left multiplications are the
    right multiplications of ``alg``."""
    n = alg.dim
    return Algebra([[alg.constants[j][i] for j in range(n)] for i in range(n)], unit=alg.unit)


def test_left_mul_matrix_complex(complexes):
    alg = complexes.algebra
    assert left_mul_rows(alg, alg.basis_element(1).coords) == [[0, -1], [1, 0]]
    assert _left_mul(alg, alg.basis_element(1)) == ((F(0), F(-1)), (F(1), F(0)))


def test_left_mul_matrix_unit_is_identity(octonions):
    alg = octonions.algebra
    assert _left_mul(alg, alg.one()) == identity(8)


def test_left_mul_matrix_agrees_with_multiply(twisted_octonions):
    alg = twisted_octonions.algebra
    rng = random.Random(5)
    x = Element(tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)))
    m = _left_mul(alg, x)
    assert m == ref.left_mul_matrix(alg, x)
    for j in range(8):
        y = alg.basis_element(j)
        prod = alg.multiply(x, y)
        assert tuple(row[j] for row in m) == prod.coords


def test_left_mul_rank_matches_annihilator(twisted_octonions):
    alg = twisted_octonions.algebra
    x = parse_element("f1-f4", alg)
    m = left_mul_rows(alg, x.coords)
    # Independent routes: direct echelon rank, and rank-nullity against the
    # kernel dimension.
    from cdalg import annihilator

    r = rank(m)
    assert r == 6
    assert r + annihilator(alg, x).dim == 8


def test_right_mul_matrix_agrees(sedenions):
    alg = sedenions.algebra
    x = parse_element("e8 - e3", alg)
    m = _left_mul(_opposite(alg), x)
    assert m == ref.right_mul_matrix(alg, x)
    for j in range(16):
        y = alg.basis_element(j)
        assert tuple(row[j] for row in m) == alg.multiply(y, x).coords


def test_minimal_quadratic_scalar(octonions):
    alg = octonions.algebra
    res = minimal_quadratic(alg, alg.scalar(3))
    assert res.kind == "scalar"
    assert res.lam == 3 and res.trace == 6 and res.norm == 9


def test_minimal_quadratic_basis_vector(octonions):
    alg = octonions.algebra
    res = minimal_quadratic(alg, alg.basis_element(1))
    assert res.kind == "quadratic"
    assert res.trace == 0 and res.norm == 1


def test_minimal_quadratic_generic_combination(octonions):
    alg = octonions.algebra
    rng = random.Random(3)
    for _ in range(10):
        lams = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
        x = Element(tuple(lams))
        res = minimal_quadratic(alg, x)
        if all(c == 0 for c in lams[1:]):
            assert res.kind == "scalar"
            continue
        assert res.kind == "quadratic"
        assert res.trace == 2 * lams[0]
        assert res.norm == sum(c * c for c in lams)


def test_minimal_quadratic_not_quadratic():
    alg = truncated_polynomial_algebra()
    res = minimal_quadratic(alg, alg.basis_element(1))
    assert res.kind == "not_quadratic"


def test_minimal_quadratic_requires_unit():
    z = F(0)
    c = [[[z]]]
    alg = Algebra(c, unit=None)
    with pytest.raises(NonUnitalError):
        minimal_quadratic(alg, alg.basis_element(0))


def test_generated_subalgebra_quaternion_inside_octonions(octonions):
    alg = octonions.algebra
    span = generated_subalgebra(
        alg, [alg.basis_element(1), alg.basis_element(2)], include_unit=True
    )
    assert span.dim == 4
    expected = Subspace([alg.basis_element(i).coords for i in range(4)], 8)
    assert span == expected


def test_generated_subalgebra_unit_alone(sedenions):
    alg = sedenions.algebra
    assert generated_subalgebra(alg, [], include_unit=True).dim == 1


def test_generated_subalgebra_five_dim(twisted_sedenions):
    alg = twisted_sedenions.algebra
    # The f3 generator carries a plus sign; the minus variant is not closed
    # (its closure has dimension 8) -- see the decisions notes.
    gens = [parse_element(e, alg) for e in ("f1+f14", "f3+f12", "f6-f9", "f7-f8")]
    span = generated_subalgebra(alg, gens, include_unit=True)
    assert span.dim == 5
    sibling = [parse_element(e, alg) for e in ("f1-f14", "f3-f12", "f6+f9", "f7+f8")]
    assert generated_subalgebra(alg, sibling, include_unit=True).dim == 5


def test_generated_subalgebra_idempotent(twisted_sedenions):
    alg = twisted_sedenions.algebra
    gens = [parse_element(e, alg) for e in ("f1+f14", "f3+f12", "f6-f9", "f7-f8")]
    span = generated_subalgebra(alg, gens, include_unit=True)
    again = generated_subalgebra(alg, [Element(r) for r in span.rows], include_unit=True)
    assert span == again


def _census_generator_sets(alg, count, seed):
    """Generator sets drawn as the subalgebra census draws its random ones."""
    rng = random.Random(seed)
    return [
        [Element(tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)))
         for _ in range(rng.randint(1, 2))]
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", ["O", "TO", "S", "TS"])
def test_generated_subalgebra_matches_round_based_closure(name):
    """Named tables, their basis pairs and seeded census-style generator
    sets, with and without the unit: the closure equals the reference that
    multiplies out every product of every round until the rank is stable."""
    alg = named_algebra(name).algebra
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    n = alg.dim
    sets = [[basis[1], basis[2]], [basis[1] + basis[n - 1]],
            [basis[1], basis[2], basis[4], basis[n // 2]]]
    sets += _census_generator_sets(alg, 3 if n == 8 else 1, f"closure:{name}")
    dims = set()
    for gens in sets:
        for unit in (True, False):
            span = generated_subalgebra(alg, gens, include_unit=unit)
            assert span.rows == ref.generated_subalgebra(alg, gens, unit)
            dims.add(span.dim)
    assert n in dims and len(dims) > 1


def test_generated_subalgebra_stops_at_the_whole_algebra(monkeypatch, twisted_octonions):
    """Once the span is the whole algebra no further products are taken.
    Modulo p, every round runs on spans whose annihilator is not zero; in
    the exact loop, every product table the closure asks for is of a
    proper subspace."""
    import cdalg.kernel as kernel

    alg = twisted_octonions.algebra
    sets = _census_generator_sets(alg, 6, "stop")
    annihilators = []
    row_basis = kernel._row_basis_mod

    def recording(m, p, companion=None):
        if companion is not None:
            annihilators.append(companion.copy())
        return row_basis(m, p, companion)

    monkeypatch.setattr(kernel, "_row_basis_mod", recording)
    spans = [generated_subalgebra(alg, gens) for gens in sets]
    assert annihilators and all((a != 0).any(axis=(1, 2)).all() for a in annihilators)
    assert any(span.dim == alg.dim for span in spans)

    monkeypatch.setattr(kernel, "_screen_fits", lambda n, p: False)
    sizes = []
    product_table = kernel.product_table

    def counting(algebra, rows, cols):
        sizes.append(len(rows))
        return product_table(algebra, rows, cols)

    monkeypatch.setattr(kernel, "product_table", counting)
    for gens, span in zip(sets, spans):
        sizes.clear()
        assert generated_subalgebra(alg, gens) == span
        assert sizes and max(sizes) < alg.dim


def test_unit_validation_rejects_fake_unit():
    z, one = F(0), F(1)
    c = [[[one, z], [z, z]], [[z, z], [z, z]]]
    with pytest.raises(ValueError):
        Algebra(c, unit=0)


@pytest.mark.parametrize(
    "breaks, message",
    [
        # Both axioms fail for b_1: the left one is reported.
        ({(0, 1): (0, 0), (1, 0): (0, 0)}, "unit axiom fails: 1 * b_1 != b_1"),
        # b_1 * 1 fails before 1 * b_2 does: basis order comes first.
        ({(1, 0): (1, 2), (0, 2): (1, 1)}, "unit axiom fails: b_1 * 1 != b_1"),
        # An extra nonzero coordinate breaks the axiom too.
        ({(2, 0): (2, 1)}, "unit axiom fails: b_2 * 1 != b_2"),
    ],
)
def test_first_failing_unit_axiom_is_reported(breaks, message):
    """Cells of the unit's row and column of a 3-dimensional table are
    replaced by (coordinate 1, coordinate 2) of the product."""
    n = 3
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = c[i][0][i] = F(1)
    for (i, j), (a, b) in breaks.items():
        c[i][j] = [F(0), F(a), F(b)]
    with pytest.raises(ValueError) as exc:
        Algebra(c, unit=0)
    assert str(exc.value) == message


def test_algebra_equality_and_labels(quaternions):
    alg = quaternions.algebra
    assert alg.label(0) == "1" and alg.label(3) == "e3"
    rebuilt = Algebra(alg.constants, unit=0)
    assert rebuilt == alg


def test_unit_at_nonzero_index(complexes):
    from cdalg import change_of_basis, is_locally_complex, is_quadratic
    from cdalg import recognize_alternative_division

    alg = complexes.algebra
    swapped = change_of_basis(
        alg, [alg.basis_element(1).coords, alg.one().coords]
    )
    assert swapped.unit == 1
    assert is_quadratic(swapped).holds
    assert is_locally_complex(swapped).holds
    assert recognize_alternative_division(swapped).tag == "C"


ROTATED_O = rotated_copy(named_algebra("O").algebra, random.Random("integer element"))[0]
coords8 = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                   min_size=8, max_size=8)


def assert_same(got: Element, want: ref.FractionElement):
    """The same value, in lowest terms over a positive denominator, with the
    ``Fraction`` view built once."""
    assert got.coords == want.coords and all(type(c) is F for c in got.coords)
    assert got.coords is got.coords
    assert got.den > 0 and gcd(got.den, *got.num) == 1
    assert got.num == tuple(int(c * got.den) for c in want.coords)


@settings(max_examples=150, deadline=None)
@given(coords8, coords8, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_integer_element_agrees_with_fraction_reference(a, b, c):
    x, y = Element(a), Element(b)
    fx, fy = ref.FractionElement(a), ref.FractionElement(b)
    assert_same(x, fx)
    assert_same(x + y, fx + fy)
    assert_same(x - y, fx - fy)
    assert_same(-x, -fx)
    assert_same(x.scale(c), fx.scale(c))
    assert_same(x.scale(int(c * 4)), fx.scale(int(c * 4)))
    product = ref.multiply(ROTATED_O, fx, fy).coords
    assert_same(ROTATED_O.multiply(x, y), ref.FractionElement(product))
    assert x.is_zero() == fx.is_zero() and (x - x).is_zero()
    assert (x == y) == (fx == fy) and (x == x.scale(1)) and hash(x) == hash(x.scale(1))
    # Equal values are equal elements however they were built.
    twice = Element.of_ints([2 * v for v in x.num], -2 * x.den)
    assert -twice == x and hash(-twice) == hash(x)
    assert pickle.loads(pickle.dumps(x)) == x


def test_integer_element_is_immutable():
    x = Element([F(1, 2), 0, F(-3, 4)])
    assert (x.num, x.den, x.dim) == ((2, 0, -3), 4, 3)
    with pytest.raises(AttributeError):
        x.num = (1, 0, 0)
    assert Element.of_ints([0, 0], -5) == Element([0, 0]) and Element([0, 0]).den == 1
    assert repr(x) == "Element(['1/2', '0', '-3/4'])"
