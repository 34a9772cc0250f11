"""Low-dimensional classification: canonical forms, orbit equivalence,
geometric types, the division criterion, hyperboloid and rank-0 data."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    CanonicalForm3,
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
    rank0_equiv,
    recognize_alternative_division,
)
from cdalg import lowdim
from cdalg.errors import MalformedInputError
from cdalg.linalg import congruence_diagonal, mat
from cdalg.lowdim import (
    _isotropic,
    exact_zero_divisor_pair,
    multiply_4d_exact,
    symmetric_part,
    symmetric_part_definite,
)
from cdalg.numth import Surd, ternary_zero

import slow_reference as ref

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
    prod = multiply_4d_exact(T, [0, 0, 0], x, y)
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
            assert not any(multiply_4d_exact(T, [0, 0, 0], *res.pair))


def test_division_float_witness():
    T = np.diag([1.0, 0.5, -0.25]) + 0.3 * np.array(skew_from_axis([1, 0, 0]), dtype=float)
    res = is_division_4d(T, [0.5, 0.5, 0.5])
    assert not res.is_division and res.exact
    x, y = res.pair
    assert not any(multiply_4d_exact(T, [0.5, 0.5, 0.5], x, y))
    assert any(x) and any(y)


def test_exact_definiteness_helper():
    assert symmetric_part_definite([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert symmetric_part_definite([[-2, 1, 0], [-1, -2, 0], [0, 0, -1]])
    assert not symmetric_part_definite([[1, 0, 0], [0, 1, 0], [0, 0, 0]])


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


def test_sum_of_two_squares_minus_three_squares_has_no_rational_zero():
    T = [[1, 0, 0], [0, 1, 0], [0, 0, -3]]
    P = symmetric_part(mat(T))
    assert ref.rational_isotropic(P) is None
    z = _isotropic(P, P, *congruence_diagonal(P))
    assert any(isinstance(c, Surd) for c in z)
    assert sum(z[i] * z[i] * P[i][i] for i in range(3)) == 0
    res = is_division_4d(T, [1, 2, 3])
    assert not res.is_division and res.exact and not is_rational(res.pair)
    assert {c.m for c in res.pair[0] + res.pair[1] if isinstance(c, Surd)} == {3}
    assert not any(multiply_4d_exact(T, [1, 2, 3], *res.pair))


def test_sum_of_two_squares_minus_two_squares_has_a_rational_zero():
    T = [[1, 0, 0], [0, 1, 0], [0, 0, -2]]
    P = symmetric_part(mat(T))
    z = _isotropic(P, P, *congruence_diagonal(P))
    assert all(type(c) is Fraction for c in z) and any(z)
    assert sum(z[i] * z[i] * P[i][i] for i in range(3)) == 0
    res = is_division_4d(T, [1, 2, 3])
    assert not res.is_division and res.exact and is_rational(res.pair)


def test_singular_symmetric_part_gives_a_kernel_vector():
    # Rank 2, and neither a diagonal entry nor a 2x2 principal block of P is
    # isotropic, so the vector comes from the zero pivot.
    T = [[1, 1, 1], [1, 3, 0], [1, 0, Fraction(3, 2)]]
    P = symmetric_part(mat(T))
    pivots, rows = congruence_diagonal(P)
    assert pivots[2] == 0
    z = _isotropic(T, P, pivots, rows)
    assert z == (-3, 1, 2)
    assert all(sum(P[i][j] * z[j] for j in range(3)) == 0 for i in range(3))
    T = [[1, 2, 0], [-2, 1, 0], [0, 0, 0]]  # P = diag(1, 1, 0)
    res = is_division_4d(T, [0, 1, 0])
    assert not res.is_division and is_rational(res.pair)
    assert not any(multiply_4d_exact(T, [0, 1, 0], *res.pair))


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
    assert exact_zero_divisor_pair(extract_params_4d(build_4d(np.eye(3).tolist(), [0, 0, 0]))) is None
    params = extract_params_4d(build_4d([[1, 0, 0], [0, 1, 0], [0, 0, -3]], [0, 0, 0]))
    assert exact_zero_divisor_pair(params) is not None


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
    res = equiv_4d((T1, np.zeros(3)), (T2, np.zeros(3)), tol=1e-9)
    assert not res.equivalent and res.borderline
    far = equiv_4d((T1, np.zeros(3)), (np.diag([1.0, 2.0, 4.0]), np.zeros(3)), tol=1e-9)
    assert not far.equivalent and not far.borderline


# -- rank 0 -----------------------------------------------------------------------


def test_rank0_examples():
    assert rank0_equiv(0, [1, 0, 0], 0, [0, 1, 0])
    assert rank0_equiv(1, [1, 0, 0], 1, [0, 1, 0])
    assert not rank0_equiv(1, [0, 0, 1], 1, [1, 0, 0])
    assert not rank0_equiv(1, [1, 0, 0], 2, [1, 0, 0])
    with pytest.raises(ValueError):
        rank0_equiv(-1, [0, 0, 0], 0, [0, 0, 0])


def test_rank0_agrees_with_general_equivalence():
    cases = [
        (1.0, [0, 0, 1], 1.0, [0, 0, -1]),   # sign of the axis component
        (1.0, [1, 0, 0], 1.0, [0, 1, 0]),
        (1.0, [0, 0, 1], 1.0, [1, 0, 0]),
        (0.5, [1, 1, 0], 0.5, [1, -1, 0]),
        (2.0, [1, 0, 1], 2.0, [0, 1, 1]),
        (0.0, [1, 2, 2], 0.0, [3, 0, 0]),
        (1.0, [1, 2, 2], 1.0, [3, 0, 0]),
    ]
    for d1, u1, d2, u2 in cases:
        expected = rank0_equiv(d1, u1, d2, u2)
        got = equiv_4d(
            (np.array(skew_from_axis([0, 0, d1]), dtype=float), np.array(u1, dtype=float)),
            (np.array(skew_from_axis([0, 0, d2]), dtype=float), np.array(u2, dtype=float)),
        ).equivalent
        assert expected == got, (d1, u1, d2, u2)
