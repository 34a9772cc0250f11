"""Low-dimensional classification: canonical forms, orbit equivalence,
geometric types, the division criterion, hyperboloid and rank-0 data."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    CanonicalForm3,
    Element,
    build_3d,
    build_4d,
    build_raw_3d,
    canonical_params_3d,
    change_of_basis,
    equiv_4d,
    extract_params_4d,
    geometric_type,
    hyperboloid_config,
    is_division_4d,
    is_locally_complex,
    jordan_spin_algebra,
    params_equal_3d,
    recognize_alternative_division,
)
from cdalg import lowdim
from cdalg.analysis import ZeroDivisorSearch, random_rational_orthogonal, zero_divisor_search
from cdalg.errors import (
    DimensionMismatchError,
    MalformedInputError,
    UnsupportedRationalClassError,
)
from cdalg.kernel import scaled_tensor
from cdalg.linalg import congruence_diagonal, identity, mat, vec
from cdalg.lowdim import Params4, _isotropic, _pair_of_isotropic, symmetric_part
from cdalg.numth import Surd, ternary_zero
from cdalg.properties import certificate_or_raise

import slow_reference as ref
from slow_reference import det, mat_mul, mat_vec, transpose
from test_kernel import _quaternion_table
from test_numth import UNFACTORED

F = Fraction


def skew_from_axis(c):
    """The skew matrix R_c = [[0, c3, -c2], [-c3, 0, c1], [c2, -c1, 0]]."""
    c = [F(x) for x in c]
    return ((F(0), c[2], -c[1]), (-c[2], F(0), c[0]), (c[1], -c[0], F(0)))


# -- three dimensions ----------------------------------------------------------


def test_build_3d_zero_is_spin_factor():
    assert build_3d(0, 0).constants == jordan_spin_algebra(3).constants


def test_build_3d_product_example():
    alg = build_3d(1, 1)
    prod = alg.multiply(alg.basis_element(1), alg.basis_element(2))
    assert prod.coords == (F(1), F(1), F(0))


def test_build_3d_rejects_negative_canonical_parameters():
    with pytest.raises(ValueError):
        build_3d(-1, 0)
    build_raw_3d(-1, 0, 0)  # the raw builder accepts arbitrary data


def test_3d_always_locally_complex():
    rng = random.Random(12)
    for _ in range(6):
        t = F(rng.randint(0, 5), rng.randint(1, 3))
        s = F(rng.randint(0, 5), rng.randint(1, 3))
        assert is_locally_complex(build_3d(t, s)).holds
    # Raw forms with negative t are locally complex too.
    assert is_locally_complex(build_raw_3d(-3, 1, 2)).holds


def test_3d_round_trip_exact():
    rng = random.Random(13)
    for _ in range(10):
        t = F(rng.randint(0, 9), rng.randint(1, 3))
        s = F(rng.randint(0, 9), rng.randint(1, 3))
        form = canonical_params_3d(build_3d(t, s))
        assert form.t == t and form.s == s


def test_3d_negative_raw_parameters():
    form = canonical_params_3d(build_raw_3d(-2, 3, 0))
    assert (form.t, form.s) == (2, 3)
    form = canonical_params_3d(build_raw_3d(-2, 0, 3))
    assert (form.t, form.s) == (2, 3)


def test_3d_rotation_invariance():
    # Rotate the imaginary plane by a rational orthogonal map and re-extract.
    t, s = F(3, 2), F(5, 3)
    alg = build_3d(t, s)
    c, si = F(3, 5), F(4, 5)  # 3-4-5 rotation
    rows = [
        (F(1), F(0), F(0)),
        (F(0), c, si),
        (F(0), -si, c),
    ]
    rotated = change_of_basis(alg, rows)
    form = canonical_params_3d(rotated)
    assert form.t == t and form.s == s


def test_3d_reflection_of_raw_z():
    alg = build_raw_3d(F(1, 2), F(-3, 5), F(4, 5))
    form = canonical_params_3d(alg)
    assert form.t == F(1, 2) and form.s == 1


def test_params_equal_3d():
    assert params_equal_3d(CanonicalForm3(F(1), F(2)), CanonicalForm3(F(1), F(2)))
    assert not params_equal_3d(CanonicalForm3(F(1), F(2)), CanonicalForm3(F(2), F(1)))
    assert not params_equal_3d(CanonicalForm3(F(0), F(1)), CanonicalForm3(F(0), F(2)))
    assert params_equal_3d(CanonicalForm3(1.0, 2.0), CanonicalForm3(1.0 + 1e-12, 2.0), tol=1e-9)


def test_irrational_s_compares_exactly():
    """z = (1, 1) and z = (1, 1 + 10^-17) give s^2 = 2 and a rational just
    above it: the same float s, but distinct exact forms."""
    a = canonical_params_3d(build_raw_3d(1, 1, 1))
    b = canonical_params_3d(build_raw_3d(1, 1, 1 + F(1, 10**17)))
    assert a.s == b.s and a.s_squared == 2 and b.s_squared == 2 + F(2, 10**17) + F(1, 10**34)
    assert not params_equal_3d(a, b)
    assert params_equal_3d(a, canonical_params_3d(build_raw_3d(-1, -1, 1)))
    assert params_equal_3d(a, b, tol=1e-9)


# -- four dimensions: exact layer ----------------------------------------------


def test_build_4d_identity_is_quaternions():
    alg = build_4d([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])
    rec = recognize_alternative_division(alg)
    assert rec.tag == "H"


def test_build_4d_zero_is_spin_factor():
    assert build_4d([[0] * 3] * 3, [0] * 3).constants == jordan_spin_algebra(4).constants


def test_4d_round_trip_exact():
    rng = random.Random(14)
    for _ in range(8):
        T = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        u = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)]
        params = extract_params_4d(build_4d(T, u))
        assert params.t_matrix == tuple(tuple(row) for row in T)
        assert params.u == tuple(u)


def sheared_copy(algebra, rng):
    """The algebra in the basis 1, b_1 + (multiples of b_2, ..., b_{n-1}),
    b_2 + ..., ..., b_{n-1}: a unit-triangular shear of the imaginary rows."""
    n = algebra.dim
    rows = [[F(int(i == j)) if j <= i else F(rng.randint(-2, 2), rng.randint(1, 3))
             for j in range(n)] for i in range(n)]
    rows[0] = [F(int(j == 0)) for j in range(n)]
    return change_of_basis(algebra, rows, unit_index=0)


def nonstandard_certificate_tables():
    """Tables whose normalized basis is not the standard one: seeded shears
    of writer tables, (1, i + j, i - j, k) in H, and quaternions over Q."""
    rng = random.Random(21)

    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    for seed in range(6):
        yield f"sheared-4d-{seed}", sheared_copy(
            build_4d([[entry() for _ in range(3)] for _ in range(3)], [entry() for _ in range(3)]),
            rng)
        yield f"sheared-3d-{seed}", sheared_copy(build_raw_3d(entry(), entry(), entry()), rng)
    h = build_4d(identity(3), (0, 0, 0))
    yield "H-sums", change_of_basis(h, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]],
                                    unit_index=0)
    for a, b in ((-1, -3), (-1, -4), (-2, -2)):
        yield f"quaternions({a},{b})", _quaternion_table(a, b)


NONSTANDARD_CERTIFICATES = dict(nonstandard_certificate_tables())


def reference_products(algebra, basis, pairs):
    """e_i e_j multiplied in Fractions and mapped by the inverse of the
    matrix whose columns are the basis vectors."""
    to_basis = ref.mat_inv(transpose([b.coords for b in basis]))
    return [mat_vec(to_basis, ref.multiply(algebra, basis[i], basis[j]).coords) for i, j in pairs]


@pytest.mark.parametrize("name", sorted(NONSTANDARD_CERTIFICATES))
def test_products_in_nonstandard_bases_match_fraction_reference(name):
    """The integer map of ``products``, and the parameters read through it,
    equal the Fraction products mapped by the inverse basis matrix."""
    algebra = NONSTANDARD_CERTIFICATES[name]
    n = algebra.dim
    if name == "quaternions(-1,-3)":
        # Its norm form <1, 3, 3> is not a sum of squares over Q.
        with pytest.raises(UnsupportedRationalClassError, match="Hasse invariant at 3"):
            extract_params_4d(algebra)
        return
    cert = certificate_or_raise(algebra)
    assert cert.basis != tuple(map(algebra.basis_element, range(n)))
    pairs = list(itertools.permutations(range(1, n), 2))
    want = reference_products(algebra, cert.basis, pairs)
    assert [p.coords for p in cert.products(algebra, pairs)] == want
    if n == 4:
        cols = [want[pairs.index(pair)] for pair in lowdim._CYCLE]
        params = extract_params_4d(algebra)
        assert params.t_matrix == tuple(zip(*(col[1:] for col in cols)))
        assert params.u == tuple(col[0] for col in cols)
    else:
        t, z1, z2 = want[pairs.index((1, 2))]
        form = canonical_params_3d(algebra)
        assert (form.t, form.s_squared) == (abs(t), z1 * z1 + z2 * z2)


def test_extract_quaternions_gives_identity(quaternions):
    params = extract_params_4d(quaternions.algebra)
    assert params.t_matrix == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    assert params.u == (F(0), F(0), F(0))


def test_extract_spin_factor_gives_zero():
    params = extract_params_4d(jordan_spin_algebra(4))
    assert all(all(x == 0 for x in row) for row in params.t_matrix)
    assert all(x == 0 for x in params.u)


def test_4d_always_locally_complex():
    rng = random.Random(15)
    for _ in range(5):
        T = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        u = [F(rng.randint(-3, 3)) for _ in range(3)]
        assert is_locally_complex(build_4d(T, u)).holds


# -- the builders against the Fraction-loop reference -----------------------------


def assert_same_algebra(got, want):
    assert got == want
    assert got.constants == want.constants
    assert (got.unit, got.labels) == (want.unit, want.labels)
    assert scaled_tensor(got).c.dtype == scaled_tensor(want).c.dtype


def random_params(rng, draw):
    return [[draw(rng) for _ in range(3)] for _ in range(3)], [draw(rng) for _ in range(3)]


@pytest.mark.parametrize("draw", [
    lambda rng: F(rng.randint(-9, 9), rng.randint(1, 9)),
    lambda rng: rng.randint(-30, 30) / 10,
    # Denominators past 2^63: the table holds Python ints.
    lambda rng: F(rng.randint(-9, 9), 2**64 + rng.randint(1, 9)),
], ids=["rational", "float", "beyond-int64"])
def test_builders_match_reference(draw):
    rng = random.Random(19)
    for _ in range(40):
        T, u = random_params(rng, draw)
        assert_same_algebra(build_4d(T, u), ref.build_4d(T, u))
        assert_same_algebra(build_raw_3d(*u), ref.build_raw_3d(*u))
        assert_same_algebra(build_3d(abs(u[0]), abs(u[1])), ref.build_raw_3d(abs(u[0]), abs(u[1]), 0))


def test_spin_factors_match_reference():
    for n in range(1, 7):
        assert_same_algebra(jordan_spin_algebra(n), ref.jordan_spin_algebra(n))


def test_builders_match_reference_on_big_tables():
    big = F(1, 2**70 + 1)
    T, u = [[big, 1, 2], [0, 0, 0], [1, 1, -big]], [big, 0, 3]
    assert scaled_tensor(build_4d(T, u)).c.dtype == object
    assert_same_algebra(build_4d(T, u), ref.build_4d(T, u))
    assert_same_algebra(build_raw_3d(big, 2**80, -big), ref.build_raw_3d(big, 2**80, -big))


@pytest.mark.parametrize("T, u, error", [
    ([[1, 0, 0], [0, 1, 0]], [0, 0, 0], DimensionMismatchError),
    ([[1, 0, 0], [0, 1], [0, 0, 1]], [0, 0, 0], DimensionMismatchError),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0], DimensionMismatchError),
    ([[1, 0, 0], [0, float("nan"), 0], [0, 0, 1]], [0, 0, 0], ValueError),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, float("nan"), 0], ValueError),
])
def test_builders_reject_what_the_reference_rejects(T, u, error):
    for build in (build_4d, ref.build_4d):
        with pytest.raises(error):
            build(T, u)


@pytest.mark.parametrize("bad, error", [(float("nan"), ValueError), (float("inf"), OverflowError)])
def test_3d_builder_rejects_what_the_reference_rejects(bad, error):
    for build in (build_raw_3d, ref.build_raw_3d):
        with pytest.raises(error):
            build(1, bad, 0)


# -- orbit equivalence ----------------------------------------------------------


def _random_signed_orbit_image(rng, T, u):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    d = np.linalg.det(q)
    return d * q @ T @ q.T, d * q @ u


def test_equiv_on_orbits():
    rng = np.random.default_rng(16)
    for _ in range(6):
        T = rng.uniform(-2, 2, (3, 3))
        u = rng.uniform(-2, 2, 3)
        T2, u2 = _random_signed_orbit_image(rng, T, u)
        res = equiv_4d((T, u), (T2, u2))
        assert res.equivalent
        assert geometric_type(T).kind == geometric_type(T2).kind


def test_equiv_negation_flip():
    rng = np.random.default_rng(17)
    T = rng.uniform(-2, 2, (3, 3))
    u = rng.uniform(-2, 2, 3)
    assert equiv_4d((T, u), (-T, u)).equivalent


def test_equiv_rejects_different_spectra():
    res = equiv_4d((np.eye(3), np.zeros(3)), (np.diag([1.0, 1.0, 2.0]), np.zeros(3)))
    assert not res.equivalent


def test_equiv_distinguishes_u_lengths():
    T = np.diag([2.0, 1.0, -1.0])
    assert not equiv_4d((T, np.array([1.0, 0, 0])), (T, np.array([2.0, 0, 0]))).equivalent


def test_equiv_witness_is_orthogonal():
    rng = np.random.default_rng(18)
    T = rng.uniform(-1, 1, (3, 3))
    u = rng.uniform(-1, 1, 3)
    T2, u2 = _random_signed_orbit_image(rng, T, u)
    res = equiv_4d((T, u), (T2, u2))
    q = res.witness
    assert np.abs(q @ q.T - np.eye(3)).max() < 1e-8
    d = np.linalg.det(q)
    assert np.abs(d * q @ T @ q.T - T2).max() < 1e-6
    assert np.abs(d * q @ u - u2).max() < 1e-6


def test_equiv_degenerate_spectrum_rotations():
    # Circular case: stabilizer is a full block, alignment must still work.
    T = np.diag([2.0, 2.0, -1.0]) + np.array(skew_from_axis([0, 0, 1]), dtype=float)
    u = np.array([1.0, 0.5, 0.25])
    rng = np.random.default_rng(19)
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1.0],
        ]
    )
    T2 = rot @ T @ rot.T
    u2 = rot @ u
    res = equiv_4d((T, u), (T2, u2))
    assert res.equivalent


def test_equiv_scalar_symmetric_part():
    T = np.eye(3) * 1.5 + np.array(skew_from_axis([1, 2, 2]), dtype=float)
    u = np.array([0.5, -1.0, 2.0])
    rng = np.random.default_rng(20)
    T2, u2 = _random_signed_orbit_image(rng, T, u)
    assert equiv_4d((T, u), (T2, u2)).equivalent
    # Same spectra but different relative geometry of c and u: not equivalent.
    T3 = np.eye(3) * 1.5 + np.array(skew_from_axis([2, 1, 2]), dtype=float)
    u3 = np.array([2.0, 1.0, -0.5])
    res = equiv_4d((T, u), (T3, u3))
    assert not res.equivalent


# -- orbit equivalence on exact input ---------------------------------------------


def _signed_image(Q, T, u, flip):
    """(det Q') (Q' T Q'^T, Q' u) for Q' = -Q when ``flip``, else Q (Q a rotation)."""
    QTQ = mat_mul(mat_mul(Q, mat(T)), transpose(Q))
    return (tuple(tuple(-x for x in row) for row in QTQ) if flip else QTQ), mat_vec(Q, vec(u))


def _assert_exact_witness(Q, p1, p2):
    """Q Q^T = I, det(Q) Q T1 Q^T = T2 and det(Q) Q u1 = u2, in Fractions."""
    assert all(type(x) is Fraction for x in Q.flat)
    Q = tuple(map(tuple, Q))
    (T1, u1), (T2, u2) = p1, p2
    d = det(Q)
    assert mat_mul(Q, transpose(Q)) == identity(3)
    QTQ = mat_mul(mat_mul(Q, mat(T1)), transpose(Q))
    assert tuple(tuple(d * x for x in row) for row in QTQ) == mat(T2)
    assert tuple(d * x for x in mat_vec(Q, vec(u1))) == vec(u2)


def _invariants(T, u):
    T = np.array([mat(T)], dtype=object)
    S = (T + T.swapaxes(1, 2)) / 2
    values, _ = lowdim._orbit_invariants(S, np.stack(lowdim.skew_axis(T), axis=-1),
                                         np.array([vec(u)], dtype=object))
    return values[0]


def test_exact_orbit_pairs_keep_every_invariant_and_give_exact_witnesses():
    rng = random.Random(23)
    witnessed = 0
    for trial in range(40):
        T = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        u = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        flip = trial % 2 == 1
        T2, u2 = _signed_image(random_rational_orthogonal(3, rng), T, u, flip)
        values = _invariants(T, u)
        assert list(_invariants(T2, u2)) == list((lowdim._FLIP if flip else 1) * values)
        res = equiv_4d((T, u), (T2, u2))
        assert res.equivalent and not res.borderline and res.differs is None
        rank3 = any(values[-20:])
        assert (res.witness is not None) == rank3
        if rank3:
            witnessed += 1
            _assert_exact_witness(res.witness, (T, u), (T2, u2))
            assert det(tuple(map(tuple, res.witness))) == (-1 if flip else 1)
    assert witnessed >= 35


def test_exact_one_entry_perturbation_is_named():
    rng = random.Random(24)
    for trial in range(30):
        T = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        u = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
        T2, u2 = _signed_image(random_rational_orthogonal(3, rng), T, u, trial % 2)
        T2, u2 = [list(row) for row in T2], list(u2)
        eps = F(1, 10**12) if trial % 3 else F(rng.randint(1, 5), 7)
        if trial % 2:
            T2[rng.randrange(3)][rng.randrange(3)] += eps
        else:
            u2[rng.randrange(3)] += eps
        res = equiv_4d((T, u), (T2, u2))
        assert not res.equivalent and not res.borderline and res.witness is None
        assert res.differs in lowdim._INVARIANTS


# name: (T, u), a (T, u) with the same spectrum of S that is not equivalent,
# and whether W has rank 3 (a witness).
DEGENERATE_CASES = {
    "repeated-eigenvalue": (
        np.diag([2, 2, 1]) + np.array(skew_from_axis([1, 0, 1])), [0, 1, 1],
        np.diag([2, 2, 1]) + np.array(skew_from_axis([1, 0, 1])), [1, 0, 1],
        True,
    ),
    "scalar-S": (
        2 * np.eye(3, dtype=int) + np.array(skew_from_axis([1, 2, 2])), [F(1, 2), -1, 2],
        2 * np.eye(3, dtype=int) + np.array(skew_from_axis([2, 1, 2])), [2, 1, F(-1, 2)],
        False,
    ),
    "u-zero": (
        np.diag([1, 2, 3]) + np.array(skew_from_axis([1, 1, 1])), [0, 0, 0],
        np.diag([1, 2, 3]) + np.array(skew_from_axis([1, 1, -1])), [0, 0, 0],
        True,
    ),
    "c-zero": (
        np.diag([1, 2, 3]), [1, 1, 1],
        np.diag([1, 2, 3]), [1, 1, -1],
        True,
    ),
    "u-parallel-c": (
        np.diag([1, 2, 3]) + np.array(skew_from_axis([1, 0, 0])), [2, 0, 0],
        np.diag([1, 2, 3]) + np.array(skew_from_axis([1, 0, 0])), [3, 0, 0],
        False,
    ),
}


@pytest.mark.parametrize("name", DEGENERATE_CASES)
def test_exact_degenerate_cases(name):
    T, u, T_other, u_other, rank3 = DEGENERATE_CASES[name]
    T, T_other = mat(T.tolist()), mat(T_other.tolist())
    rng = random.Random(25)
    for flip in (False, True):
        Q = random_rational_orthogonal(3, rng)
        T2, u2 = _signed_image(Q, T, u, flip)
        res = equiv_4d((T, u), (T2, u2))
        assert res.equivalent and not res.borderline
        assert (res.witness is not None) == rank3
        if rank3:
            _assert_exact_witness(res.witness, (T, u), (T2, u2))
        other = equiv_4d((T, u), _signed_image(Q, T_other, u_other, flip))
        assert not other.equivalent and not other.borderline and other.differs is not None


def test_equiv_agrees_with_eigenframe_reference():
    rng = np.random.default_rng(26)
    for trial in range(200):
        T = rng.uniform(-2, 2, (3, 3))
        u = rng.uniform(-2, 2, 3)
        T2, u2 = _random_signed_orbit_image(rng, T, u)
        if trial % 2:
            T2 = T2 + (0.5 if np.trace(T) >= 0 else -0.5) * np.eye(3)
        new, old = equiv_4d((T, u), (T2, u2)), ref.equiv_4d_eigenframe((T, u), (T2, u2))
        expected = (not trial % 2, False)
        assert (new.equivalent, new.borderline) == (old.equivalent, old.borderline) == expected
        if new.equivalent:
            assert np.abs(new.witness - old.witness).max() < 1e-8



def _near_miss_pairs(rng):
    """Pairs a first-order distance of about 1e-5 apart, next to a repeated
    eigenvalue of S, u = 0, c = 0 or u on an eigenvector, where every orbit
    invariant moves by only about 1e-10."""
    T = np.diag([1.0, 2.0, 3.0])
    yield (T, np.array([1.0, 0, 0])), (T, np.array([1.0, 1e-4, 0]))
    yield (np.diag([2.0, 2.0, 1.0]), np.zeros(3)), (np.diag([2 + 1e-5, 2 - 1e-5, 1.0]), np.zeros(3))
    for trial in range(40):
        S = np.diag([2.0, 2.0, -1.0] if trial % 2 else [1.0, 2.0, 3.0])
        c = np.zeros(3) if trial % 4 < 2 else np.array([0, 0, 0.5])
        u = np.zeros(3) if trial % 8 < 4 else np.array([1.0, 0, 0])
        T = S + np.array(skew_from_axis(c), dtype=float)
        delta = np.zeros((3, 3))
        delta[rng.integers(3), rng.integers(3)] = 1e-5
        T2, u2 = _random_signed_orbit_image(rng, T + delta, u)
        yield (T, u), (T2, u2)


def test_float_near_misses_agree_with_eigenframe_reference():
    for p1, p2 in _near_miss_pairs(np.random.default_rng(27)):
        new, old = equiv_4d(p1, p2), ref.equiv_4d_eigenframe(p1, p2)
        assert (new.equivalent, new.borderline) == (False, False)
        assert (old.equivalent, old.borderline) == (False, False)
        assert new.witness is None and new.differs is not None


@pytest.mark.parametrize("name", DEGENERATE_CASES)
def test_float_degenerate_orbit_pairs_carry_checked_witnesses(name):
    T, u = (np.array(a, dtype=float) for a in DEGENERATE_CASES[name][:2])
    rng = np.random.default_rng(28)
    for _ in range(4):
        T2, u2 = _random_signed_orbit_image(rng, T, u)
        res = equiv_4d((T, u), (T2, u2))
        assert res.equivalent and not res.borderline
        q = res.witness
        d = np.linalg.det(q)
        assert np.abs(q @ q.T - np.eye(3)).max() < 1e-8
        assert np.abs(d * q @ T @ q.T - T2).max() < 1e-6
        assert np.abs(d * q @ u - u2).max() < 1e-6

# -- geometric types and division ------------------------------------------------


def test_geometric_type_table():
    assert geometric_type(np.eye(3)) == geometric_type([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert geometric_type(np.eye(3)).kind == "ellipsoid"
    assert geometric_type(np.diag([-1.0, -1, -1])).kind == "ellipsoid"
    assert geometric_type(np.diag([1.0, 1, -1])).kind == "hyperboloid"
    assert geometric_type(np.diag([1.0, 1, 0])).kind == "elliptic-cylinder"
    assert geometric_type(np.diag([1.0, -1, 0])).kind == "hyperbolic-cylinder"
    assert geometric_type(np.diag([1.0, 0, 0])).kind == "rank1"
    assert geometric_type(skew_from_axis([1, 2, 3])).kind == "rank0"


def test_division_identity():
    assert is_division_4d(np.eye(3)).is_division


def test_division_counterexample_exact():
    T = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    res = is_division_4d(T, [0, 0, 0])
    assert not res.is_division and res.exact
    x, y = res.pair
    prod = product_4d(mat(T), [0, 0, 0], x, y)
    assert all(c == 0 for c in prod)
    assert any(c != 0 for c in x) and any(c != 0 for c in y)


def test_division_matches_ellipsoid_type():
    rng = random.Random(21)
    for _ in range(50):
        T = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
        res = is_division_4d(T)
        assert res.is_division == (geometric_type(T).kind == "ellipsoid")
        if not res.is_division:
            assert res.exact and res.pair is not None
            assert not any(product_4d(mat(T), [0, 0, 0], *res.pair))


def test_division_float_witness():
    T = np.diag([1.0, 0.5, -0.25]) + 0.3 * np.array(skew_from_axis([1, 0, 0]), dtype=float)
    res = is_division_4d(T, [0.5, 0.5, 0.5])
    assert not res.is_division and res.exact
    x, y = res.pair
    assert not any(product_4d(mat(T), vec([0.5, 0.5, 0.5]), x, y))
    assert any(x) and any(y)


# -- the exact division witness ----------------------------------------------------


def signature(P):
    """(positive, negative) eigenvalue counts of a symmetric rational 3x3, by
    Descartes' rule of signs on the characteristic polynomial, which has only
    real roots."""
    tr = P[0][0] + P[1][1] + P[2][2]
    m2 = sum(P[i][i] * P[j][j] - P[i][j] * P[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = (P[0][0] * (P[1][1] * P[2][2] - P[1][2] * P[2][1])
           - P[0][1] * (P[1][0] * P[2][2] - P[1][2] * P[2][0])
           + P[0][2] * (P[1][0] * P[2][1] - P[1][1] * P[2][0]))

    def changes(coeffs):
        signs = [c > 0 for c in coeffs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes((1, -tr, m2, -det)), changes((-1, -tr, -m2, -det))


def product_4d(T, u, x, y):
    """(l + v)(m + w) = (lm - v.w + (v x w).u) + (lw + mv + T(v x w)), with
    nothing but +, - and * on the entries."""
    lam, v, mu, w = x[0], x[1:], y[0], y[1:]
    c = (v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2], v[0] * w[1] - v[1] * w[0])
    scalar = lam * mu - sum(p * q for p, q in zip(v, w)) + sum(p * q for p, q in zip(c, u))
    return (scalar, *(lam * w[r] + mu * v[r] + sum(p * q for p, q in zip(T[r], c)) for r in range(3)))


def is_rational(pair):
    return all(type(c) is Fraction for c in pair[0] + pair[1])


rational_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
tenth_entries = st.integers(-30, 30).map(lambda k: k / 10)


def check_division_against_oracles(T, u):
    exact_T = [[Fraction(x) for x in row] for row in T]
    exact_u = [Fraction(x) for x in u]
    P = symmetric_part(exact_T)
    pos, neg = signature(P)
    res = is_division_4d(T, u)
    assert res.is_division == (3 in (pos, neg))
    kind = geometric_type(exact_T)
    assert (kind.rank, kind.kind == "ellipsoid") == (pos + neg, 3 in (pos, neg))
    if res.is_division:
        assert res.pair is None
        return res
    assert res.exact
    x, y = res.pair
    assert any(x) and any(y)
    assert not any(product_4d(exact_T, exact_u, x, y))
    # Whenever the removed bounded search finds a rational zero of P, the
    # pair is rational too.
    if ref.rational_isotropic(P) is not None:
        assert is_rational(res.pair)
    return res


@settings(max_examples=150, deadline=None)
@given(st.lists(rational_entries, min_size=12, max_size=12))
def test_division_oracle_rational(entries):
    check_division_against_oracles([entries[0:3], entries[3:6], entries[6:9]], entries[9:12])


@settings(max_examples=100, deadline=None)
@given(st.lists(tenth_entries, min_size=12, max_size=12))
def test_division_oracle_tenths(entries):
    T = [entries[0:3], entries[3:6], entries[6:9]]
    res = check_division_against_oracles(T, entries[9:12])
    assert not any(isinstance(c, np.generic) for c in (res.pair or ((), ()))[0])


def form(P, x, y):
    return sum(x[i] * P[i][j] * y[j] for i in range(3) for j in range(3))


def is_isotropic(P, z):
    """z = a + b sqrt(m) with z^T P z = 0: a^T P a + m b^T P b = 0 and
    a^T P b = 0, as 1 and sqrt(m) are independent over Q."""
    a, b, m = z
    return form(P, a, a) + m * form(P, b, b) == 0 and form(P, a, b) == 0


def test_sum_of_two_squares_minus_three_squares_has_no_rational_zero():
    T = [[1, 0, 0], [0, 1, 0], [0, 0, -3]]
    P = symmetric_part(mat(T))
    assert ref.rational_isotropic(P) is None
    assert lowdim._rational_isotropic(P, *congruence_diagonal(P)) is False
    z = _isotropic(mat(T))
    assert any(z[1]) and z[2] == 3 and is_isotropic(P, z)
    res = is_division_4d(T, [1, 2, 3])
    assert not res.is_division and res.exact and not is_rational(res.pair)
    assert {c.m for c in res.pair[0] + res.pair[1] if isinstance(c, Surd)} == {3}
    assert not any(product_4d(mat(T), [1, 2, 3], *res.pair))


def test_sum_of_two_squares_minus_two_squares_has_a_rational_zero():
    T = [[1, 0, 0], [0, 1, 0], [0, 0, -2]]
    P = symmetric_part(mat(T))
    z = _isotropic(mat(T))
    assert any(z[0]) and not any(z[1]) and z[2] == 1 and is_isotropic(P, z)
    res = is_division_4d(T, [1, 2, 3])
    assert not res.is_division and res.exact and is_rational(res.pair)


def test_singular_symmetric_part_gives_a_kernel_vector():
    # Rank 2, and neither a diagonal entry nor a 2x2 principal block of P is
    # isotropic, so the vector comes from the zero pivot.
    T = [[1, 1, 1], [1, 3, 0], [1, 0, Fraction(3, 2)]]
    P = symmetric_part(mat(T))
    pivots, rows = congruence_diagonal(P)
    assert pivots[2] == 0
    a, b, m = z = _isotropic(mat(T))
    assert a == (-3, 1, 2) and not any(b) and m == 1 and is_isotropic(P, z)
    assert all(sum(P[i][j] * a[j] for j in range(3)) == 0 for i in range(3))
    T = [[1, 2, 0], [-2, 1, 0], [0, 0, 0]]  # P = diag(1, 1, 0)
    res = is_division_4d(T, [0, 1, 0])
    assert not res.is_division and is_rational(res.pair)
    assert not any(product_4d(mat(T), [0, 1, 0], *res.pair))


def test_decimal_floats_get_a_rational_pair_without_factoring():
    # z = (1, 3, -1) is a zero of P, but the pivots of P, with numerators of
    # 50 to 160 bits, do not factor, so the descent cannot run; z is a common
    # zero of the decimal part of P and of its rounding error.
    T = [[1.7, -2.8, -1.1], [-2.9, 2.9, 2.8], [-1.4, 2.2, 1.8]]
    Tx = mat(T)
    P = symmetric_part(Tx)
    pivots, rows = congruence_diagonal(P)
    assert ternary_zero(pivots) is None
    assert lowdim._rational_isotropic(P, pivots, rows) is None
    z = lowdim._decimal_zero(Tx, P)
    assert z is not None and any(z)
    assert sum(z[i] * P[i][j] * z[j] for i in range(3) for j in range(3)) == 0
    res = is_division_4d(T, [0.1, 0.2, 0.3])
    assert not res.is_division and is_rational(res.pair)
    # Exact rational input has no rounding error to split off.
    R = mat([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(-1, 10)]])
    assert lowdim._decimal_zero(R, symmetric_part(R)) is None


def test_exact_pair_is_none_only_for_definite_parts():
    assert is_division_4d(*extract_params_4d(build_4d(np.eye(3).tolist(), [0, 0, 0]))).pair is None
    params = extract_params_4d(build_4d([[1, 0, 0], [0, 1, 0], [0, 0, -3]], [0, 0, 0]))
    assert is_division_4d(*params).pair is not None


@pytest.mark.parametrize("z", [
    ((1, 0, 0), (0, 0, 0), 1),  # z^T P z = 1
    ((1, 0, 0), (0, 1, 0), 2),  # z = (1, sqrt(2), 0), z^T P z = 3
])
def test_pair_of_a_vector_that_is_not_isotropic_fails_its_check(z):
    """The builder's own check is live: the construction gives x y = 0 only
    for an isotropic z."""
    T = mat([[1, 0, 0], [0, 1, 0], [0, 0, -3]])
    assert not is_isotropic(symmetric_part(T), z)
    with pytest.raises(ArithmeticError):
        _pair_of_isotropic(T, vec((1, 2, 3)), z)


@pytest.mark.parametrize("diagonal, want", [
    ((1, 1, 1), False),  # definite
    ((1, 1, -3), False),  # indefinite, no rational zero
    ((1, 1, -UNFACTORED), None),  # no rational zero, but the descent cannot factor it
    ((1, 1, -2), "pair"),
    ((2, 3, -5), "pair"),  # (1, 1, 1)
    ((1, 1, -1019 * 1031), False),  # no rational zero; the rho splits 1019 * 1031
])
def test_rational_pair_is_three_valued(diagonal, want):
    T = [[F(d) if i == j else F(0) for j, d in enumerate(diagonal)] for i in range(3)]
    params = Params4(mat(T), vec((1, 2, 3)))
    got = lowdim.rational_zero_divisor_pair(params)
    if want == "pair":
        assert is_rational(got) and not any(product_4d(T, (1, 2, 3), *got))
        assert got == is_division_4d(*params).pair
    else:
        assert got is want


@pytest.mark.parametrize("u", [(1, 2, 3), (0, 0, 0)])
def test_zero_divisors_are_ruled_out_without_a_rational_isotropic_vector(u):
    """x y = 0 forces v x w to be a rational isotropic vector of P, so with
    none the rational algebra has no zero divisors: the answer is definitive
    without the bounded search.  An undecided descent keeps the search."""
    algebra = build_4d([[1, 0, 0], [0, 1, 0], [0, 0, -3]], u)
    assert zero_divisor_search(algebra) == ZeroDivisorSearch("none_found", definitive=True)
    # No left multiplication in a small box of elements is singular.
    for coords in itertools.product(range(-2, 3), repeat=4):
        if any(coords):
            assert not ref.annihilator(algebra, Element(tuple(map(F, coords))))
    undecided = build_4d([[1, 0, 0], [0, 1, 0], [0, 0, -UNFACTORED]], u)
    got = zero_divisor_search(undecided, budget=20)
    assert got.status == "exhausted" and not got.definitive


def test_division_uses_no_numpy(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used")

    monkeypatch.setattr(lowdim, "np", NoNumpy())
    for T in ([[0.1, 0.2, -0.3], [0.4, -0.5, 0.6], [0.7, 0.8, -0.9]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]]):
        res = is_division_4d(T, [0.5, 0, 0])
        assert res.is_division or res.exact


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_division_rejects_non_finite_entries(bad):
    with pytest.raises(MalformedInputError):
        is_division_4d([[bad, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(MalformedInputError):
        is_division_4d(np.eye(3), [0, bad, 0])


def test_geometric_type_is_exact_for_rational_input():
    # An eigenvalue of 10^-12: inside the float tolerance, but nonzero.
    tiny = Fraction(1, 10**12)
    T = [[1, 0, 0], [0, 1, 0], [0, 0, tiny]]
    assert geometric_type(T).kind == "ellipsoid"
    assert is_division_4d(T).is_division
    assert geometric_type([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1e-12]]).kind == "elliptic-cylinder"
    T = [[1, 0, 0], [0, 1, 0], [0, 0, -tiny]]
    assert geometric_type(T).kind == "hyperboloid"
    assert not is_division_4d(T).is_division


# -- hyperboloid configurations ---------------------------------------------------


def test_hyperboloid_config_identity_case():
    T = np.diag([2.0, 1.0, -1.0]) + np.array(skew_from_axis([0.5, -0.5, 1.0]), dtype=float)
    u = np.array([1.0, 2.0, 3.0])
    cfg = hyperboloid_config((T, u))
    assert np.allclose(cfg.delta, [2.0, 1.0, -1.0])
    assert np.allclose(cfg.u, u)
    assert np.allclose(cfg.c, [0.5, -0.5, 1.0])


def test_hyperboloid_config_reconstruction_is_equivalent():
    rng = np.random.default_rng(22)
    T = np.diag([3.0, 1.0, -2.0])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    d = np.linalg.det(q)
    T2 = d * q @ T @ q.T + np.array(skew_from_axis(rng.uniform(-1, 1, 3)), dtype=float)
    u2 = rng.uniform(-1, 1, 3)
    cfg = hyperboloid_config((T2, u2))
    d1, d2, d3 = cfg.delta
    assert d1 >= d2 > 0 > d3
    rebuilt = np.diag(cfg.delta) + np.array(skew_from_axis(cfg.c), dtype=float)
    assert equiv_4d((T2, u2), (rebuilt, np.array(cfg.u))).equivalent


def test_hyperboloid_config_flips_negative_majority():
    T = np.diag([-2.0, -1.0, 1.0])
    cfg = hyperboloid_config((T, np.zeros(3)))
    assert cfg.delta[0] >= cfg.delta[1] > 0 > cfg.delta[2]


def test_symmetric_part_near_the_float_maximum():
    """Entries near the float maximum: the float symmetric part is formed
    without overflow, so the signature is that of the exact entries."""
    big = [[1e308, 0, 0], [0, 1e308, 0], [0, 0, -1e308]]
    assert geometric_type(big) == geometric_type([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert geometric_type(big).kind == "hyperboloid"
    cfg = hyperboloid_config((big, [1e308, 0, 0]))
    assert cfg.delta == (1e308, 1e308, -1e308) and cfg.c == (0, 0, 0)
    assert sorted(map(abs, cfg.u)) == [0, 0, 1e308]


@pytest.mark.parametrize("T, u", [
    # The skew axis, (T - T^T) / 2, leaves the float range.
    ([[1e308, -1.7e308, 0], [1.7e308, 1e308, 0], [0, 0, -1e308]], [0, 0, 0]),
    # An eigenvalue of the symmetric part does: a (1.5 + sqrt(4.25)) / 2.
    ([[1.7e308, 1.7e308, 0], [1.7e308, 0.85e308, 0], [0, 0, 1.7e308]], [0, 0, 0]),
])
def test_hyperboloid_frame_beyond_the_float_range_is_malformed(T, u):
    assert geometric_type(T).kind == "hyperboloid"
    with pytest.raises(MalformedInputError):
        hyperboloid_config((T, u))


def test_hyperboloid_config_rejects_ellipsoid():
    with pytest.raises(ValueError):
        hyperboloid_config((np.eye(3), np.zeros(3)))


def test_hyperboloid_symmetry_group_orbit():
    # The four-element symmetry group maps configurations to equivalent ones.
    delta = [2.0, 1.0, -1.0]
    c = np.array([0.3, 0.7, -0.2])
    u = np.array([1.0, -1.0, 0.5])
    T = np.diag(delta) + np.array(skew_from_axis(c), dtype=float)
    for flips in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        g = np.diag(flips).astype(float)
        T2 = g @ T @ g.T
        u2 = g @ u
        assert equiv_4d((T, u), (T2, u2)).equivalent


def test_equiv_reflective_stabilizer_of_degenerate_pair():
    T = np.diag([2.0, 2.0, 1.0]) + np.array(skew_from_axis([0.4, -0.3, 0.9]), dtype=float)
    u = np.array([1.0, 0.7, -0.2])
    g = np.diag([1.0, -1.0, -1.0])
    assert equiv_4d((T, u), (g @ T @ g.T, g @ u)).equivalent


def test_equiv_borderline_flag():
    T1 = np.diag([1.0, 2.0, 3.0])
    T2 = np.diag([1.0, 2.0, 3.0 + 2e-8])
    res = equiv_4d((T1, np.zeros(3)), (T2, np.zeros(3)))
    assert not res.equivalent and res.borderline
    far = equiv_4d((T1, np.zeros(3)), (np.diag([1.0, 2.0, 4.0]), np.zeros(3)))
    assert not far.equivalent and not far.borderline


# -- rank 0 -----------------------------------------------------------------------


def rank0_pair(d, u, dtype=object):
    """The rank-0 parameters: T the pure skew matrix with axis d e_3."""
    return np.array(skew_from_axis([0, 0, d]), dtype=dtype), np.array(u, dtype=dtype)


def test_rank0_examples():
    """Exact input: the skew magnitude and |u| are invariants, and so is
    |u_3| when the skew part is nonzero."""
    cases = [
        (0, [1, 0, 0], 0, [0, 1, 0], True),
        (1, [1, 0, 0], 1, [0, 1, 0], True),
        (1, [0, 0, 1], 1, [1, 0, 0], False),
        (1, [1, 0, 0], 2, [1, 0, 0], False),
        (1, [0, 0, 1], -1, [0, 0, 1], True),  # (-T, u) is the same orbit
    ]
    for d1, u1, d2, u2, expected in cases:
        res = equiv_4d(rank0_pair(d1, u1), rank0_pair(d2, u2))
        assert res.equivalent is expected and not res.borderline, (d1, u1, d2, u2)
        assert (res.differs is None) is expected


def test_rank0_agrees_with_general_equivalence():
    """Float input: equiv_4d gives the rank-0 classification's verdict."""
    cases = [
        (1.0, [0, 0, 1], 1.0, [0, 0, -1], True),  # the sign of the axis component is not invariant
        (1.0, [1, 0, 0], 1.0, [0, 1, 0], True),
        (1.0, [0, 0, 1], 1.0, [1, 0, 0], False),
        (0.5, [1, 1, 0], 0.5, [1, -1, 0], True),
        (2.0, [1, 0, 1], 2.0, [0, 1, 1], True),
        (0.0, [1, 2, 2], 0.0, [3, 0, 0], True),
        (1.0, [1, 2, 2], 1.0, [3, 0, 0], False),
    ]
    for d1, u1, d2, u2, expected in cases:
        res = equiv_4d(rank0_pair(d1, u1, float), rank0_pair(d2, u2, float))
        assert res.equivalent is expected and not res.borderline, (d1, u1, d2, u2)
