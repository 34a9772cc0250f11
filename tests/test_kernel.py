"""The integer kernel against the element-loop reference in slow_reference.

Verdicts and witnesses must agree exactly: the same (u, x, law) for the
alternativity sweeps, the same (i, j) for the homomorphism check, and the
same echelon bases for annihilators and generated subalgebras.
"""

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import Algebra, Element, Grading, is_alternative, is_super_alternative, named_algebra
from cdalg.analysis import _homomorphism_violation, annihilator, rotated_copy
from cdalg.core import change_of_basis, generated_subalgebra
from cdalg.kernel import (
    INT64_LIMIT,
    AlternativitySweep,
    anticommutator_table,
    scaled_tensor,
)
from cdalg.linalg import identity, mat_inv

import slow_reference as ref
from slow_reference import transpose

F0 = Fraction(0)
DENSE = [0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]
SPARSE = [0] * 12 + [1, -1, Fraction(1, 2)]
NONZERO = [1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]


def stack_dtype(sweep: AlternativitySweep) -> np.dtype:
    """The dtype of the exact defect stacks the sweep yields."""
    _, stacks = next(sweep.defects())
    return stacks[0].dtype


def witness_coords(witness):
    if witness is None:
        return None
    u, x, law = witness
    return u.coords, x.coords, law


@st.composite
def graded_tables(draw):
    """A random unital table graded by a random index split, with the
    grading given by basis rows, mixed rows of each part, or carried
    through a change of basis that does not respect the split."""
    n = draw(st.integers(1, 8))
    unit = draw(st.integers(0, n - 1))
    odd = [i != unit and draw(st.booleans()) for i in range(n)]
    values = draw(st.sampled_from([DENSE, SPARSE, [0]]))
    consts = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == unit:
                consts[i][j][j] = Fraction(1)
            elif j == unit:
                consts[i][j][i] = Fraction(1)
            else:
                for k in range(n):
                    if odd[k] == (odd[i] != odd[j]):
                        consts[i][j][k] = Fraction(draw(st.sampled_from(values)))
    algebra = Algebra(consts, unit=unit)
    parts = ([i for i in range(n) if not odd[i]], [i for i in range(n) if odd[i]])
    style = draw(st.sampled_from(["basis", "mixed", "rotated"]))
    # Triangular with a nonzero diagonal, so invertible; row `unit` stays e_unit.
    change = [[F0] * n for _ in range(n)]
    for i in range(n):
        if i == unit or style != "rotated":
            change[i][i] = Fraction(1)
            continue
        change[i][i] = Fraction(draw(st.sampled_from(NONZERO)))
        for k in range(i):
            change[i][k] = Fraction(draw(st.sampled_from(DENSE)))
    if style == "rotated":
        algebra = change_of_basis(algebra, change, unit_index=unit)
        to_new = mat_inv(transpose(change))
        rows = tuple([tuple(row[k] for row in to_new) for k in part] for part in parts)
    elif style == "mixed":
        rows = ([], [])
        for part, out in zip(parts, rows):
            for t, i in enumerate(part):
                row = [F0] * n
                row[i] = Fraction(draw(st.sampled_from(NONZERO)))
                for k in part[:t]:
                    row[k] = Fraction(draw(st.sampled_from(DENSE)))
                out.append(row)
    else:
        rows = tuple([identity(n)[i] for i in part] for part in parts)
    return algebra, Grading(rows[0], rows[1], n), change


@settings(max_examples=60, deadline=None)
@given(graded_tables())
def test_sweeps_match_reference(case):
    algebra, grading, _ = case
    assert witness_coords(is_alternative(algebra).witness) == witness_coords(
        ref.is_alternative_witness(algebra)
    )
    assert witness_coords(is_super_alternative(algebra, grading).witness) == witness_coords(
        ref.is_super_alternative_witness(algebra, grading)
    )


@settings(max_examples=40, deadline=None)
@given(graded_tables(), st.data())
def test_homomorphism_check_matches_reference(case, data):
    """The change of basis is an isomorphism; perturbing one entry of it
    usually is not, and both sides must name the same first bad pair."""
    algebra, _, change = case
    n = algebra.dim
    source = change_of_basis(algebra, change, unit_index=algebra.unit)
    iso = [list(col) for col in transpose(change)]
    if data.draw(st.booleans()):
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        iso[r][c] += Fraction(data.draw(st.sampled_from(NONZERO)))
    iso = tuple(tuple(row) for row in iso)
    assert _homomorphism_violation(iso, source, algebra) == ref.homomorphism_violation(
        iso, source, algebra
    )


@settings(max_examples=40, deadline=None)
@given(graded_tables(), graded_tables(), st.data())
def test_maps_between_dimensions_match_reference(a, b, data):
    """Unit-preserving maps between tables of different dimensions."""
    source, target = a[0], b[0]
    n, m = source.dim, target.dim
    iso = [
        [
            Fraction(int(r == target.unit))
            if c == source.unit
            else Fraction(data.draw(st.sampled_from(SPARSE + DENSE)))
            for c in range(n)
        ]
        for r in range(m)
    ]
    iso = tuple(tuple(row) for row in iso)
    assert _homomorphism_violation(iso, source, target) == ref.homomorphism_violation(
        iso, source, target
    )


@settings(max_examples=40, deadline=None)
@given(graded_tables(), st.data())
def test_annihilator_and_closure_match_reference(case, data):
    algebra = case[0]
    n = algebra.dim

    def element():
        return Element(tuple(Fraction(data.draw(st.sampled_from(SPARSE + DENSE))) for _ in range(n)))

    x = element()
    assert annihilator(algebra, x).rows == ref.annihilator(algebra, x)
    gens = [x] if data.draw(st.booleans()) else [x, element()]
    for unit in (True, False):
        assert generated_subalgebra(algebra, gens, unit).rows == ref.generated_subalgebra(
            algebra, gens, unit
        )


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,seed", [("O", 1), ("TO", 2), ("S", 3), ("TS", 4)])
def test_rotated_named_tables_match_reference(name, seed):
    bundle = named_algebra(name)
    rotated, grading, _ = rotated_copy(bundle.algebra, random.Random(seed), bundle.grading)
    sa = is_super_alternative(rotated, grading)
    assert sa.holds
    assert ref.is_super_alternative_witness(rotated, grading) is None
    assert witness_coords(is_alternative(rotated).witness) == witness_coords(
        ref.is_alternative_witness(rotated)
    )
    # Rotated dimension-16 tables exceed the int64 bound; dimension 8 fits.
    expected = object if rotated.dim == 16 else np.int64
    assert stack_dtype(AlternativitySweep(rotated, grading.even_rows)) == expected


@pytest.mark.parametrize("name", ["S", "TS"])
def test_sparse_tables_take_the_int64_path(name):
    bundle = named_algebra(name)
    assert stack_dtype(AlternativitySweep(bundle.algebra, identity(16))) == np.int64


def test_all_even_grading_of_sedenions_fails_like_reference(sedenions):
    alg = sedenions.algebra
    grading = Grading.trivial(16)
    res = is_super_alternative(alg, grading)
    assert not res.holds
    assert witness_coords(res.witness) == witness_coords(
        ref.is_super_alternative_witness(alg, grading)
    )


def test_rotated_isomorphisms_match_reference(octonions, twisted_octonions):
    for seed, bundle in enumerate((octonions, twisted_octonions)):
        rotated, _, rows = rotated_copy(bundle.algebra, random.Random(seed), bundle.grading)
        iso = transpose(rows)  # column i holds the rotated b_i in old coordinates
        assert _homomorphism_violation(iso, rotated, bundle.algebra) is None
        assert ref.homomorphism_violation(iso, rotated, bundle.algebra) is None
        bent = [list(r) for r in iso]
        bent[5][3] += Fraction(1, 7)
        bent = tuple(tuple(r) for r in bent)
        got = _homomorphism_violation(bent, rotated, bundle.algebra)
        assert got is not None and got == ref.homomorphism_violation(bent, rotated, bundle.algebra)


def _two_generator_table(c: int) -> Algebra:
    """Unit b0; b1^2 = c, b2^2 = -c, b1 b2 = b2 + b1, b2 b1 = -b2: not alternative,
    with max |entry| = c."""
    f = Fraction
    consts = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        consts[0][i][i] = consts[i][0][i] = f(1)
    consts[1][1][0] = f(c)
    consts[2][2][0] = f(-c)
    consts[1][2][1] = consts[1][2][2] = f(1)
    consts[2][1][2] = f(-1)
    return Algebra(consts, unit=0)


def test_int64_bound_switches_exactly_at_the_limit():
    # Dimension 3, identity rows (mu = 2): the bound is 2 * 27 * 4 * c^2.
    under = isqrt((INT64_LIMIT - 1) // 216)
    assert 216 * under**2 < INT64_LIMIT <= 216 * (under + 1) ** 2
    for c, dtype in ((under, np.int64), (under + 1, object)):
        alg = _two_generator_table(c)
        assert stack_dtype(AlternativitySweep(alg, identity(3))) == dtype
        res = is_alternative(alg)
        assert not res.holds
        assert witness_coords(res.witness) == witness_coords(ref.is_alternative_witness(alg))


def _quaternion_table(a: int, b: int) -> Algebra:
    """The generalized quaternions i^2 = a, j^2 = b, k = ij = -ji, k^2 = -ab."""
    f = Fraction
    consts = [[[F0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        consts[0][i][i] = consts[i][0][i] = f(1)
    consts[1][1][0], consts[2][2][0], consts[3][3][0] = f(a), f(b), f(-a * b)
    consts[1][2][3], consts[2][1][3] = f(1), f(-1)
    consts[1][3][2], consts[3][1][2] = f(a), f(-a)
    consts[3][2][1], consts[2][3][1] = f(b), f(-b)
    return Algebra(consts, unit=0)


def test_entries_near_two_to_the_62_do_not_wrap():
    a = b = -(2**31 - 1)  # k^2 = -ab is just under -2^62
    alg = _quaternion_table(a, b)
    assert scaled_tensor(alg).max_abs > 2**61
    sweep = AlternativitySweep(alg, identity(4))
    # Every defect matrix is exactly zero, entry by entry, as in the reference.
    basis = [alg.basis_element(i) for i in range(4)]
    family = iter(ref.pair_family(basis))
    for members, (left, right) in sweep.defects():
        assert left.dtype == right.dtype == object and len(left) == len(right) == 1
        for b in range(len(members)):
            u = next(family)
            for y in basis:
                lhs, rhs = ref.alternative_defect(alg, u, y)
                assert lhs.is_zero() and rhs.is_zero()
            assert not left[0, b].any() and not right[0, b].any()
    assert next(family, None) is None
    assert is_alternative(alg).holds
    assert _homomorphism_violation(identity(4), alg, alg) is None
    # One entry off by one: the kernel and the reference find the same defect
    # and the same first non-multiplicative pair.
    consts = [[list(cell) for cell in row] for row in alg.constants]
    consts[3][3][0] += 1
    bent = Algebra(consts, unit=0)
    res = is_alternative(bent)
    assert not res.holds
    assert witness_coords(res.witness) == witness_coords(ref.is_alternative_witness(bent))
    assert _homomorphism_violation(identity(4), alg, bent) == ref.homomorphism_violation(
        identity(4), alg, bent
    )


def test_defects_that_are_multiples_of_two_to_the_64_are_found():
    """b1^2 = 2^32 b2 and b1 b2 = 2^32: the defect of u = y = b1 is -2^64,
    which int64 arithmetic would wrap to zero, moving the witness to y = b2."""
    consts = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        consts[0][i][i] = consts[i][0][i] = Fraction(1)
    consts[1][1][2] = consts[1][2][0] = Fraction(2**32)
    alg = Algebra(consts, unit=0)
    res = is_alternative(alg)
    assert witness_coords(res.witness) == witness_coords(ref.is_alternative_witness(alg))
    assert res.witness[1].coords == alg.basis_element(1).coords


def test_homomorphism_differences_that_are_multiples_of_two_to_the_64_are_found():
    """With b1^2 = 2^61, the map b1 -> 3 b1 fails only by 8 * 2^61 = 2^64."""
    consts = [[[F0] * 2 for _ in range(2)] for _ in range(2)]
    for i in range(2):
        consts[0][i][i] = consts[i][0][i] = Fraction(1)
    consts[1][1][0] = Fraction(2**61)
    alg = Algebra(consts, unit=0)
    stretch = ((Fraction(1), F0), (F0, Fraction(3)))
    assert _homomorphism_violation(stretch, alg, alg) == (1, 1)
    assert ref.homomorphism_violation(stretch, alg, alg) == (1, 1)


def test_entries_beyond_int64_with_an_empty_part_or_a_zero_map():
    """No rows (the odd part of a trivial grading) or a zero map make the
    product bounds vanish; the tensor itself still has to fit int64."""
    alg = _quaternion_table(-(2**32), -(2**32))  # k^2 = -2^64
    assert scaled_tensor(alg).max_abs >= INT64_LIMIT
    assert is_super_alternative(alg, Grading.trivial(4)).holds
    assert AlternativitySweep(alg, ()).carrier == object
    nonunital = Algebra(alg.constants)
    zero = tuple((F0,) * 4 for _ in range(4))
    assert _homomorphism_violation(zero, nonunital, alg) is None
    assert ref.homomorphism_violation(zero, nonunital, alg) is None


@pytest.mark.parametrize("big", [2**28, 2**29, 2**31, 2**33])
def test_anticommutator_table_exact_around_int64_bound(big):
    """Rows of size ``big`` in H put the table's bound just under (2^28) or
    over 2^63; past it int64 would wrap, so the table must switch to
    Python ints and still equal the products taken in Fractions."""
    h = named_algebra("H").algebra
    xs = [[Fraction(big), Fraction(big), -Fraction(big), Fraction(big)], [F0, Fraction(1), F0, F0]]
    ys = [[Fraction(big), -Fraction(big), Fraction(big), Fraction(big)], [F0, F0, Fraction(big, 3), F0]]
    table, scale = anticommutator_table(h, xs, ys)
    for p, x in enumerate(xs):
        for q, y in enumerate(ys):
            x_el, y_el = h.element(x), h.element(y)
            expected = h.multiply(x_el, y_el) + h.multiply(y_el, x_el)
            assert tuple(Fraction(v, scale) for v in table[p][q]) == expected.coords


def _probe_elements(algebra: Algebra, seed: int) -> list[Element]:
    n = algebra.dim
    rng = random.Random(seed)
    basis = [algebra.basis_element(i) for i in range(n)]
    out = [basis[1], basis[1] + basis[n // 2 + 1], basis[2] - basis[n - 1]]
    out.append(Element(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))))
    return out


@pytest.mark.parametrize("name,rotate", [
    ("O", False), ("TO", False), ("S", False), ("TS", False), ("A5", False),
    ("O", True), ("TO", True), ("S", True),
])
def test_named_and_rotated_annihilators_match_reference(name, rotate):
    algebra = named_algebra(name).algebra
    if rotate:
        algebra = rotated_copy(algebra, random.Random(f"ann:{name}"))[0]
    for x in _probe_elements(algebra, 7):
        assert annihilator(algebra, x).rows == ref.annihilator(algebra, x)


@pytest.mark.parametrize("name,rotate", [("O", False), ("TO", False), ("O", True), ("TO", True)])
def test_named_and_rotated_subalgebras_match_reference(name, rotate):
    algebra = named_algebra(name).algebra
    if rotate:
        algebra = rotated_copy(algebra, random.Random(f"sub:{name}"))[0]
    probes = _probe_elements(algebra, 11)
    for gens in ([probes[0]], [probes[1]], [probes[1], probes[2]], [probes[3]]):
        assert generated_subalgebra(algebra, gens).rows == ref.generated_subalgebra(algebra, gens)


def test_left_multiplication_past_int64(sedenions):
    """x = big * (e1 + e10) has a 4-dimensional annihilator; with big near
    2^62 the sums of two entries would wrap in int64."""
    alg = sedenions.algebra
    big = 2**62 + 1
    coords = [F0] * 16
    coords[1] = coords[10] = Fraction(big)
    x = Element(tuple(coords))
    ann = annihilator(alg, x)
    assert ann.dim == 4 and ann.rows == ref.annihilator(alg, x)
    coords[3] = Fraction(1, 3)
    x = Element(tuple(coords))
    assert annihilator(alg, x).rows == ref.annihilator(alg, x)
