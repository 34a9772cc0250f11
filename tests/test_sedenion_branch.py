"""The dimension-16 branch of classify_super_alternative against the
Element-loop reference in slow_reference.

The branch remedies an odd vector, normalizes it and reads the sign of the
fourth relation.  The library runs it on integer left-multiplication
matrices; the reference multiplies dense elements.  Both get the same
inputs (the standard even generators and the odd rows the classifier
hands over) and must return the same tag and the same basis, entry for
entry, or raise the same error.
"""

import random
from fractions import Fraction

import pytest

from cdalg import (
    Algebra,
    Grading,
    UnsupportedRationalClassError,
    change_of_basis,
    check_homomorphism,
    classify_super_alternative,
    named_algebra,
)
from cdalg import analysis
from cdalg.analysis import rotated_copy

import slow_reference as ref

F0 = Fraction(0)


def natural_grading() -> Grading:
    return Grading.from_indices(16, list(range(8)), list(range(8, 16)))


def signed_permutation(algebra: Algebra, rng: random.Random) -> Algebra:
    """The basis b'_i = s_i b_p(i), with p permuting the even imaginary and
    the odd indices among themselves and fixing the unit b_0."""
    rows = [[F0] * 16 for _ in range(16)]
    rows[0][0] = Fraction(1)
    for block in (list(range(1, 8)), list(range(8, 16))):
        images = block[:]
        rng.shuffle(images)
        for i, j in zip(block, images):
            rows[i][j] = Fraction(rng.choice((1, -1)))
    return change_of_basis(algebra, rows, unit_index=0)


def sheared(algebra: Algebra, rng: random.Random) -> Algebra:
    """The basis b'_i = d_i b_i + earlier vectors of the same graded block:
    the grading survives, the norms of the new vectors are generic."""
    rows = [[F0] * 16 for _ in range(16)]
    rows[0][0] = Fraction(1)
    for block in (list(range(1, 8)), list(range(8, 16))):
        for pos, i in enumerate(block):
            rows[i][i] = Fraction(rng.choice((1, 2, -1, 3)))
            for j in block[:pos]:
                rows[i][j] = Fraction(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 2)))
    return change_of_basis(algebra, rows, unit_index=0)


def classify_both_ways(algebra: Algebra, monkeypatch) -> tuple:
    """classify_super_alternative under the natural grading, with each call
    of the branch checked against the reference on the same inputs.

    Returns ("ok", tag) or ("error", type, message) and the number of branch
    calls made."""
    library = analysis._classify_sedenion_like
    calls = []

    def compared(alg, e_std, odd_elements):
        calls.append(1)
        try:
            want = ref.classify_sedenion_like(alg, e_std, odd_elements)
        except UnsupportedRationalClassError as exc:
            with pytest.raises(UnsupportedRationalClassError) as got:
                library(alg, e_std, odd_elements)
            assert str(got.value) == str(exc)
            raise
        tag, basis = library(alg, e_std, odd_elements)
        assert tag == want[0]
        assert [x.coords for x in basis] == [x.coords for x in want[1]]
        return tag, basis

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_classify_sedenion_like", compared)
        try:
            outcome = ("ok", classify_super_alternative(algebra, natural_grading()).tag)
        except Exception as exc:  # compared below as type and message
            outcome = ("error", type(exc).__name__, str(exc))
    return outcome, len(calls)


@pytest.mark.parametrize("name,copy", [("S", 0), ("S", 1), ("TS", 0), ("TS", 1)])
def test_pool_rotations_under_signed_permutations(name, copy, monkeypatch):
    """The rotations the rotated-classify benchmark draws its S/TS ops from."""
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"pool:{name}:{copy}"), bundle.grading)[0]
    rng = random.Random(f"branch:{name}:{copy}")
    for algebra in (rotated, signed_permutation(rotated, rng), signed_permutation(rotated, rng)):
        outcome, calls = classify_both_ways(algebra, monkeypatch)
        assert calls == 1
        assert outcome == ("ok", name)


@pytest.mark.parametrize("name", ["S", "TS"])
@pytest.mark.parametrize("seed", range(3))
def test_sheared_copies(name, seed, monkeypatch):
    bundle = named_algebra(name)
    algebra = sheared(bundle.algebra, random.Random(f"shear:{name}:{seed}"))
    outcome, calls = classify_both_ways(algebra, monkeypatch)
    assert calls <= 1
    if outcome[0] == "ok":
        assert outcome == ("ok", name)


def odd_squares_scaled(algebra: Algebra, gamma: int) -> Algebra:
    """Products of two odd basis vectors times gamma: the same doubling of
    the even part with the new generator squaring to -gamma, a rational
    form of the same real algebra."""
    consts = [[list(cell) for cell in row] for row in algebra.constants]
    for i in range(8, 16):
        for j in range(8, 16):
            consts[i][j] = [gamma * c for c in consts[i][j]]
    return Algebra(consts, unit=0)


@pytest.mark.parametrize("name", ["S", "TS"])
@pytest.mark.parametrize("gamma", [2, 3])
def test_a_remedied_square_that_is_not_a_square_is_reported_as_the_reference_does(
    name, gamma, monkeypatch
):
    """With odd squares scaled by 2 or 3 the remedied odd vectors do not
    normalize over the rationals; the error names the square of the last
    one in the caller's scale, also after a block rotation."""
    algebra = odd_squares_scaled(named_algebra(name).algebra, gamma)
    rotated = rotated_copy(algebra, random.Random(f"gamma:{name}"), natural_grading())[0]
    for table in (algebra, rotated):
        outcome, calls = classify_both_ways(table, monkeypatch)
        assert calls == 1
        assert outcome[:2] == ("error", "UnsupportedRationalClassError")
        assert "whose negative is not a perfect rational square" in outcome[2]


def test_basis_is_an_isomorphism_onto_the_named_table():
    bundle = named_algebra("TS")
    rotated = rotated_copy(bundle.algebra, random.Random("branch:iso"), bundle.grading)[0]
    rec = classify_super_alternative(rotated, natural_grading())
    assert rec.tag == "TS"
    assert check_homomorphism(rec.iso, rotated, bundle.algebra).holds
