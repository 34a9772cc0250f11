"""Structure analysis: recognizers, the graded classifier, alter-scalars,
annihilators, zero divisors, embeddings."""

import random
from fractions import Fraction

import pytest

from cdalg import (
    Element,
    NotAlternativeError,
    Subspace,
    UnsupportedRationalClassError,
    alter_scalar_space,
    annihilator,
    build_3d,
    change_of_basis,
    check_homomorphism,
    classify_super_alternative,
    named_algebra,
    parse_element,
    recognize_alternative_division,
    subalgebra_census,
    zero_divisor_search,
)
from cdalg import analysis
from cdalg.analysis import random_rational_orthogonal, rotated_copy
from cdalg.kernel import AlternativitySweep
from cdalg.linalg import identity, unit_vector
from cdalg.verify import embedding_matrix

import slow_reference as ref
from slow_reference import mat_mul, transpose
from test_kernel import stack_dtype

F = Fraction


# -- recognizers --------------------------------------------------------------


def test_recognize_named(reals, complexes, quaternions, octonions):
    for bundle, tag in ((reals, "R"), (complexes, "C"), (quaternions, "H"), (octonions, "O")):
        rec = recognize_alternative_division(bundle.algebra)
        assert rec.tag == tag


def test_recognize_rejects_sedenions(sedenions):
    with pytest.raises(NotAlternativeError):
        recognize_alternative_division(sedenions.algebra)


def test_recognize_rotation_invariance(quaternions, octonions):
    rng = random.Random(101)
    for bundle, tag in ((quaternions, "H"), (octonions, "O")):
        for _ in range(3):
            rotated, _, _ = rotated_copy(bundle.algebra, rng)
            rec = recognize_alternative_division(rotated)
            assert rec.tag == tag
            hom = check_homomorphism(rec.iso, rotated, named_algebra(tag).algebra)
            assert hom.holds


def test_recognize_scaled_basis(quaternions):
    # Non-orthogonal rational presentation: doubled imaginary basis vectors.
    alg = quaternions.algebra
    rows = [
        alg.one().coords,
        alg.basis_element(1).scale(2).coords,
        alg.basis_element(2).scale(3).coords,
        alg.basis_element(3).scale(6).coords,
    ]
    scaled = change_of_basis(alg, rows)
    rec = recognize_alternative_division(scaled)
    assert rec.tag == "H"
    assert check_homomorphism(rec.iso, scaled, alg).holds


def test_recognize_sheared_basis_uses_square_tricks(quaternions):
    # Imaginary vectors of squared length 2 pairwise at an angle; exercises
    # the product-pair and two-square normalization paths.
    alg = quaternions.algebra
    e = alg.basis_element
    rows = [
        alg.one().coords,
        (e(1) + e(2)).coords,
        (e(2) + e(3)).coords,
        (e(3) + e(1)).coords,
    ]
    sheared = change_of_basis(alg, rows)
    rec = recognize_alternative_division(sheared)
    assert rec.tag == "H"
    assert check_homomorphism(rec.iso, sheared, alg).holds


def test_recognize_unsupported_rational_class():
    # i^2 = -1, j^2 = -3, (ij)^2 = -3: a rational quaternion table that is
    # not rationally isomorphic to the standard one.
    z, one = F(0), F(1)
    n = 4
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        c[0][k][k] = one
        c[k][0][k] = one
    c[0][0] = [one, z, z, z]
    c[1][1] = [-one, z, z, z]
    c[2][2] = [F(-3), z, z, z]
    c[3][3] = [F(-3), z, z, z]
    c[1][2] = [z, z, z, one]
    c[2][1] = [z, z, z, -one]
    c[2][3] = [F(3), z, z, z]  # j(ij) = j^2 i^{-1}-ish; fixed below
    # Build the full table from the quaternion relations insteadationally:
    from cdalg import Algebra

    # k := ij with i^2=-1, j^2=-3: ji = -k, ik = i(ij) = -j*? Use associativity:
    # ik = i(ij) = (ii)j = -j; ki = (ij)i = ... = j; kj = (ij)j = -3i; jk = 3i.
    c[1][3] = [z, z, -one, z]
    c[3][1] = [z, z, one, z]
    c[2][3] = [z, F(3), z, z]
    c[3][2] = [z, F(-3), z, z]
    alg = Algebra(c, unit=0)
    with pytest.raises(UnsupportedRationalClassError):
        recognize_alternative_division(alg)


def doubling_inputs():
    """O, rotated copies of O, and the even parts of rotated S and TS."""
    octonions = named_algebra("O").algebra
    yield pytest.param(octonions, id="O")
    for seed in range(4):
        yield pytest.param(rotated_copy(octonions, random.Random(seed))[0], id=f"O-rotated-{seed}")
    for name in ("S", "TS"):
        bundle = named_algebra(name)
        for seed in range(3):
            rotated, grading, _ = rotated_copy(bundle.algebra, random.Random(seed), bundle.grading)
            rows = analysis._even_part_rows(rotated, grading)
            yield pytest.param(analysis._induced_algebra(rotated, rows), id=f"{name}-even-{seed}")


@pytest.mark.parametrize("algebra", list(doubling_inputs()))
def test_division_basis_is_doubled(algebra):
    """Each doubling step of the octonion basis, with f = b_m for m = 1, 2, 4,
    has b_m^2 = -1 and b_i b_m = b_(i+m) for 0 < i < m.  So the products
    e_i e_j that the dimension-16 branch reads as e_(i xor j) are e_1 e_2 =
    e_3, e_1 e_4 = e_5, e_2 e_4 = e_6 and e_3 e_4 = e_7."""
    tag, b = analysis._division_basis(algebra)
    assert tag == "O" and len(b) == 8 and b[0] == algebra.one()
    for m in (1, 2, 4):
        assert algebra.multiply(b[m], b[m]) == -algebra.one()
        for i in range(1, m):
            assert algebra.multiply(b[i], b[m]) == b[i + m]
    for i, j in ((1, 2), (1, 4), (2, 4), (3, 4)):
        assert algebra.multiply(b[i], b[j]) == b[i ^ j]


# -- graded classification ----------------------------------------------------


def test_classifier_on_rotated_graded_algebras(sedenions, twisted_octonions, twisted_sedenions):
    rng = random.Random(404)
    for bundle in (sedenions, twisted_octonions, twisted_sedenions):
        rotated, grading, _ = rotated_copy(bundle.algebra, rng, bundle.grading)
        rec = classify_super_alternative(rotated, grading)
        assert rec.tag == bundle.name
        assert check_homomorphism(rec.iso, rotated, bundle.algebra).holds


def test_classifier_trivial_grading(octonions):
    from cdalg import Grading

    rec = classify_super_alternative(octonions.algebra, Grading.trivial(8))
    assert rec.tag == "O"


def test_classifier_small_even_parts(complexes, quaternions, octonions):
    # Natural gradings: even part R inside C, C inside H, H inside O.
    rng = random.Random(71)
    for bundle in (complexes, quaternions, octonions):
        rec = classify_super_alternative(bundle.algebra, bundle.grading)
        assert rec.tag == bundle.name
        rotated, grading, _ = rotated_copy(bundle.algebra, rng, bundle.grading)
        rec = classify_super_alternative(rotated, grading)
        assert rec.tag == bundle.name
        assert check_homomorphism(rec.iso, rotated, bundle.algebra).holds


def test_classifier_rejects_ungraded_nonsense(sedenions):
    from cdalg import Grading, InvalidGradingError

    with pytest.raises(InvalidGradingError):
        classify_super_alternative(
            sedenions.algebra, Grading.from_indices(16, list(range(15)), [15])
        )


def test_classifier_validates_the_grading_once(twisted_octonions, monkeypatch):
    from cdalg import Grading

    calls = []
    validate = Grading.validate
    monkeypatch.setattr(Grading, "validate", lambda self, alg: calls.append(1) or validate(self, alg))
    rec = classify_super_alternative(twisted_octonions.algebra, twisted_octonions.grading)
    assert rec.tag == "TO" and len(calls) == 1


def test_bad_grading_is_reported_before_local_complexity():
    from cdalg import Grading, InvalidGradingError

    # J3 with b1 b1 = 0 is not locally complex; b1 b2 = b2 leaves the grading.
    alg = named_algebra("J3").algebra
    consts = [[list(cell) for cell in row] for row in alg.constants]
    consts[1][1] = [F(0)] * 3
    consts[1][2] = [F(0), F(0), F(1)]
    broken = type(alg)(consts, unit=0)
    with pytest.raises(InvalidGradingError):
        classify_super_alternative(broken, Grading.from_indices(3, [0, 2], [1]))


# -- alter-scalars -----------------------------------------------------------


def test_alter_scalar_spaces_exact(sedenions, octonions, twisted_octonions, twisted_sedenions):
    space = alter_scalar_space(sedenions.algebra)
    assert space.solutions == Subspace([unit_vector(16, 0), unit_vector(16, 8)], 16)
    assert space.has_alter_scalars
    assert alter_scalar_space(octonions.algebra).solutions.dim == 8
    for bundle in (twisted_octonions, twisted_sedenions):
        space = alter_scalar_space(bundle.algebra)
        assert space.solutions == Subspace([unit_vector(bundle.algebra.dim, 0)], bundle.algebra.dim)
        assert not space.has_alter_scalars


def _alter_scalar_input(name: str):
    if name == "rotated O":
        return rotated_copy(named_algebra("O").algebra, random.Random(5))[0]
    if name == "sheared S past int64":
        # Diagonal entries near 2^31 push the sweep's bound past 2^63; the
        # shear makes the basis non-orthogonal, so the transposed defect
        # matrices would have another kernel.
        rows = [[F(int(i == j) * (2**31 + 2 * i + 1 if i else 1)) for j in range(16)]
                for i in range(16)]
        rows[9][8] = F(1)
        algebra = change_of_basis(named_algebra("S").algebra, rows, unit_index=0)
        assert stack_dtype(AlternativitySweep(algebra, identity(16))) == object
        return algebra
    return named_algebra(name).algebra


@pytest.mark.parametrize("name", ["O", "TO", "S", "TS", "rotated O", "sheared S past int64"])
def test_alter_scalar_space_matches_element_loop(name):
    """The whole solution space, not only its dimension, against the
    nullspace of x^2 a - x(xa) built from Algebra.multiply."""
    algebra = _alter_scalar_input(name)
    space = alter_scalar_space(algebra)
    expected = ref.alter_scalar_space(algebra)
    assert space.solutions.rows == expected
    assert space.solutions == Subspace(expected, algebra.dim)
    assert space.has_alter_scalars == (len(expected) >= 2)


def test_alter_scalar_brute_force_oracle(sedenions):
    # Independent check: for each returned basis solution a, x^2 a = x(xa)
    # must hold for 50 random rational x.
    alg = sedenions.algebra
    space = alter_scalar_space(alg)
    rng = random.Random(71)
    for row in space.solutions.rows:
        a = Element(row)
        for _ in range(50):
            x = Element(tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(16)))
            x2 = alg.multiply(x, x)
            assert alg.multiply(x2, a) == alg.multiply(x, alg.multiply(x, a))


def test_alter_scalar_nonmembers_fail(sedenions):
    alg = sedenions.algebra
    a = alg.basis_element(1)
    x = alg.basis_element(2) + alg.basis_element(12)
    x2 = alg.multiply(x, x)
    assert alg.multiply(x2, a) != alg.multiply(x, alg.multiply(x, a))


# -- annihilators ------------------------------------------------------------


def test_annihilator_paper_spans(twisted_octonions, twisted_sedenions):
    to_alg = twisted_octonions.algebra
    ann = annihilator(to_alg, parse_element("f1-f4", to_alg))
    assert ann.dim == 2
    for expr in ("f2+f7", "f3-f6"):
        assert ann.contains(parse_element(expr, to_alg).coords)
    ts_alg = twisted_sedenions.algebra
    ann6 = annihilator(ts_alg, parse_element("f3+f12", ts_alg))
    assert ann6.dim == 6


def test_annihilator_of_unit(quaternions):
    alg = quaternions.algebra
    assert annihilator(alg, alg.one()).dim == 0


def test_sedenion_pair_family_annihilators(sedenions):
    alg = sedenions.algebra
    dims = set()
    for i in range(1, 16):
        for j in range(i + 1, 16):
            x = alg.basis_element(i) - alg.basis_element(j)
            dims.add(annihilator(alg, x).dim)
    assert dims <= {0, 4}
    assert 4 in dims


def test_dim_64_paired_basis_annihilators_have_dimension_a_multiple_of_4():
    """AC12's dim-32 observation one level up: a seeded sample of 200
    annihilators of b_i + b_j and b_i - b_j in A6."""
    alg = named_algebra("A6").algebra
    rng = random.Random(64)
    dims = set()
    for _ in range(200):
        i, j = rng.sample(range(1, 64), 2)
        x = alg.basis_element(i) + alg.basis_element(j).scale(rng.choice((1, -1)))
        d = annihilator(alg, x).dim
        assert d % 4 == 0, (i, j, d)
        dims.add(d)
    assert max(dims) > 0


def test_homogeneous_elements_never_annihilate(sedenions, twisted_octonions, twisted_sedenions):
    for bundle in (sedenions, twisted_octonions, twisted_sedenions):
        alg = bundle.algebra
        for i in range(alg.dim):
            assert annihilator(alg, alg.basis_element(i)).dim == 0


def test_grading_observations_on_homogeneous_pairs(sedenions, twisted_sedenions):
    # Homogeneous anticommuting pairs shift association by a sign, and mixed
    # even/odd unit-square pairs generate two-dimensional relations.
    for bundle in (sedenions, twisted_sedenions):
        alg = bundle.algebra
        partition = bundle.grading.index_partition()
        even = [i for i in partition[0] if i != 0]
        odd = list(partition[1])
        for u_idx in even[:3]:
            for v_idx in odd[:3]:
                u = alg.basis_element(u_idx)
                v = alg.basis_element(v_idx)
                uv = alg.multiply(u, v)
                # u v = -v u
                assert (uv + alg.multiply(v, u)).is_zero()
                # v(uv) = u and (uv)v = -u
                assert alg.multiply(v, uv) == u
                assert alg.multiply(uv, v) == -u
                # (uv)u = v = -u(uv)
                assert alg.multiply(uv, u) == v
                assert alg.multiply(u, uv) == -v
                # (uv)^2 = -1
                assert alg.multiply(uv, uv) == -alg.one()


# -- zero divisors -----------------------------------------------------------


def test_zero_divisors_twisted_octonions(twisted_octonions):
    res = zero_divisor_search(twisted_octonions.algebra)
    assert res.status == "found"
    x, y = res.pair
    assert twisted_octonions.algebra.multiply(x, y).is_zero()
    assert not x.is_zero() and not y.is_zero()


def test_zero_divisors_sedenions(sedenions):
    res = zero_divisor_search(sedenions.algebra)
    assert res.status == "found"
    x, y = res.pair
    assert sedenions.algebra.multiply(x, y).is_zero()


def test_no_zero_divisors_quaternions(quaternions):
    res = zero_divisor_search(quaternions.algebra)
    assert res.status == "none_found"
    assert res.definitive


def test_no_zero_divisors_complex(complexes):
    res = zero_divisor_search(complexes.algebra)
    assert res.status == "none_found" and res.definitive


def test_zero_divisors_spin_factor_exact():
    res = zero_divisor_search(named_algebra("J3").algebra)
    assert res.status == "found" and res.definitive
    alg = named_algebra("J3").algebra
    assert alg.multiply(*res.pair).is_zero()


def test_zero_divisors_3d_with_parameters():
    alg = build_3d(1, 1)
    res = zero_divisor_search(alg)
    assert res.status == "found"
    x, y = res.pair
    assert alg.multiply(x, y).is_zero()
    assert not x.is_zero() and not y.is_zero()


# -- homomorphisms -----------------------------------------------------------


def test_identity_homomorphism(octonions):
    assert check_homomorphism(identity(8), octonions.algebra, octonions.algebra).holds


def test_embedding_and_mutation(twisted_octonions, sedenions):
    matrix = embedding_matrix()
    res = check_homomorphism(matrix, twisted_octonions.algebra, sedenions.algebra)
    assert res.holds
    flipped = tuple(
        tuple(-c if j == 5 else c for j, c in enumerate(row)) for row in matrix
    )
    res = check_homomorphism(flipped, twisted_octonions.algebra, sedenions.algebra)
    assert not res.holds
    i, j = res.violation
    assert 0 <= i < 8 and 0 <= j < 8


def test_rank_deficient_map_rejected(complexes, quaternions):
    # Collapse e1 to zero: unital and multiplicative fails or rank fails.
    m = [[F(0)] * 2 for _ in range(4)]
    m[0][0] = F(1)
    res = check_homomorphism(m, complexes.algebra, quaternions.algebra)
    assert not res.holds


# -- census ------------------------------------------------------------------


def test_census_finds_reference_dimensions(twisted_sedenions, octonions):
    ts_alg = twisted_sedenions.algebra
    gens = [parse_element(e, ts_alg) for e in ("f1+f14", "f3+f12", "f6-f9", "f7-f8")]
    report = subalgebra_census(
        ts_alg, [1, 5], budget=5, extra_generator_sets=[gens]
    )
    assert report.found(5) and report.found(1)
    report = subalgebra_census(octonions.algebra, [4], budget=5)
    assert report.found(4)


def test_census_never_claims_nonexistence(quaternions):
    report = subalgebra_census(quaternions.algebra, [3], budget=10)
    assert not report.found(3)  # absence of a hit, not a proof


# -- rotation helper sanity ----------------------------------------------------


def test_random_rational_orthogonal_is_orthogonal():
    rng = random.Random(8)
    q = random_rational_orthogonal(5, rng)
    assert mat_mul(q, transpose(q)) == identity(5)
