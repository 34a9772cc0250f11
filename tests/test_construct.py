"""The doubling construction, involutions, gradings, and named algebras."""

import random
from fractions import Fraction

import pytest

from cdalg import (
    Algebra,
    Grading,
    InvalidGradingError,
    UnknownAlgebraError,
    cayley_dickson,
    cayley_dickson_tower,
    jordan_spin_algebra,
    named_algebra,
    natural_grading,
)
from cdalg.construct import InvolutiveAlgebra
from cdalg.tables import (
    OCTONION_TABLE,
    SEDENION_TABLE,
    TWISTED_OCTONION_TABLE,
    TWISTED_SEDENION_TABLE,
    algebra_from_signed_table,
    signed_table_of,
)

import slow_reference as ref

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
    assert signed_table_of(alg) == OCTONION_TABLE


def test_sedenion_table_reproduced():
    alg = cayley_dickson_tower(4)[4].algebra
    assert signed_table_of(alg) == SEDENION_TABLE


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
    assert inv.apply(e3) == -e3
    assert inv.apply(inv.algebra.one()) == inv.algebra.one()


def test_involution_trace_example(sedenions):
    inv = cayley_dickson_tower(4)[4]
    alg = inv.algebra
    x = alg.scalar(2) + alg.basis_element(5)
    assert x + inv.apply(x) == alg.scalar(4)


def test_star_properties_on_sums(sedenions):
    inv = cayley_dickson_tower(4)[4]
    alg = inv.algebra
    rng = random.Random(2)
    for _ in range(10):
        coords = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(16))
        x = alg.element(coords)
        xs = inv.apply(x)
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
    assert signed_table_of(alg) == TWISTED_OCTONION_TABLE


def test_twisted_sedenion_products(twisted_sedenions):
    alg = twisted_sedenions.algebra
    assert alg.multiply(alg.basis_element(9), alg.basis_element(4)) == -alg.basis_element(13)
    assert signed_table_of(alg) == TWISTED_SEDENION_TABLE


def test_twisted_even_part_matches_octonions(twisted_sedenions):
    table = signed_table_of(twisted_sedenions.algebra)
    block = tuple(tuple(row[:7]) for row in table[:7])
    assert block == OCTONION_TABLE


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


def test_label_propagation():
    tower = cayley_dickson_tower(2)
    assert tower[2].algebra.labels == ("1", "e1", "e2", "e3")


def test_signed_table_round_trip():
    alg = algebra_from_signed_table(TWISTED_OCTONION_TABLE)
    assert signed_table_of(alg) == TWISTED_OCTONION_TABLE
