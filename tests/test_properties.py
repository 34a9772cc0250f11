"""Property deciders: quadraticity, local complexity, the alternativity
family, nicely-normed and commutative classifications."""

import random
from fractions import Fraction

import pytest

from cdalg import (
    Algebra,
    Element,
    Grading,
    NotLocallyComplexError,
    build_3d,
    build_4d,
    check_homomorphism,
    is_alternative,
    is_commutative_jn,
    is_locally_complex,
    is_nicely_normed,
    is_quadratic,
    is_super_alternative,
    jordan_spin_algebra,
    middle_moufang_on_basis,
    minimal_quadratic,
)
from cdalg.analysis import rotated_copy
from cdalg.properties import LocallyComplexCertificate, certificate_or_raise, coordinate_map
from slow_reference import mat_vec, validate_certificate

from test_core import truncated_polynomial_algebra

F = Fraction


def split_two_dim_algebra():
    """R x R presented with basis 1, w where w = (1, -1); w^2 = 1."""
    z, one = F(0), F(1)
    c = [[[one, z], [z, one]], [[z, one], [one, z]]]
    return Algebra(c, unit=0)


# -- quadraticity ------------------------------------------------------------


def test_sedenions_quadratic(sedenions):
    assert is_quadratic(sedenions.algebra).holds


def test_truncated_polynomials_not_quadratic():
    alg = truncated_polynomial_algebra()
    res = is_quadratic(alg)
    assert not res.holds
    # The witness really has 1, x, x^2 independent: direct rank oracle.
    from cdalg.linalg import rank

    x = res.witness
    sq = alg.multiply(x, x)
    assert rank([alg.one().coords, x.coords, sq.coords]) == 3


def test_two_dimensional_always_quadratic():
    rng = random.Random(6)
    for _ in range(10):
        z, one = F(0), F(1)
        c = [[[one, z], [z, one]], [[z, one], [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]]]
        alg = Algebra(c, unit=0)
        assert is_quadratic(alg).holds


# -- local complexity --------------------------------------------------------


def test_sedenions_locally_complex(sedenions):
    res = is_locally_complex(sedenions.algebra)
    assert res.holds
    validate_certificate(certificate_or_raise(sedenions.algebra), sedenions.algebra)


@pytest.mark.parametrize("picks, message", [
    ((0, 1, 2, 3), None),
    ((0, 1, 2, -3, 4), None),
    ((2, 1), "certificate must start with the unit"),
    ((0, 1, 1, "2e2"), "certificate vector 3 does not square to -1"),
    ((0, "2e2", 1), "certificate vector 1 does not square to -1"),
    ((0, 1, 2, 1, 3), "certificate vectors 1,3 do not anticommute"),
    ((0, 1, 2, 3, 2), "certificate vectors 2,4 do not anticommute"),
])
def test_certificate_validate_checks_squares_then_pairs(octonions, picks, message):
    """All squares are checked before any pair, pairs in row-major order."""
    alg = octonions.algebra

    def vector(p):
        if p == "2e2":
            return alg.basis_element(2).scale(2)
        return alg.basis_element(abs(p)).scale(-1 if p < 0 else 1)

    basis = tuple(vector(p) for p in picks)
    cert = LocallyComplexCertificate(basis)
    if message is None:
        validate_certificate(cert, alg)
    else:
        with pytest.raises(ValueError, match=message):
            validate_certificate(cert, alg)


def test_spin_factor_locally_complex():
    for k in (2, 3, 6):
        res = is_locally_complex(jordan_spin_algebra(k))
        assert res.holds


def test_split_algebra_not_locally_complex():
    alg = split_two_dim_algebra()
    res = is_locally_complex(alg)
    assert not res.holds
    assert res.counterexample_kind == "idempotent"
    e = res.counterexample
    assert alg.multiply(e, e) == e
    assert not e.is_zero() and e != alg.one()


def test_square_zero_counterexample():
    # Basis 1, n with n^2 = 0: quadratic but with a nilpotent.
    z, one = F(0), F(1)
    c = [[[one, z], [z, one]], [[z, one], [z, z]]]
    alg = Algebra(c, unit=0)
    res = is_locally_complex(alg)
    assert not res.holds
    assert res.counterexample_kind == "square-zero"
    w = res.counterexample
    assert alg.multiply(w, w).is_zero() and not w.is_zero()


def test_dimension_one_conventions(reals):
    alg = reals.algebra
    assert is_quadratic(alg).holds
    assert is_locally_complex(alg).holds
    assert certificate_or_raise(alg).basis == (alg.one(),)
    assert is_nicely_normed(alg)


def test_positive_norms_on_locally_complex(twisted_sedenions):
    alg = twisted_sedenions.algebra
    assert is_locally_complex(alg).holds
    rng = random.Random(17)
    for _ in range(20):
        coords = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(16)]
        x = Element(tuple(coords))
        if x.is_zero():
            continue
        mq = minimal_quadratic(alg, x)
        assert mq.norm > 0


def test_certificate_change_of_basis_consistency(octonions):
    alg = octonions.algebra
    cert = certificate_or_raise(alg)
    to_cert = coordinate_map(cert.basis)
    for i, b in enumerate(cert.basis):
        coords = mat_vec([r.coords for r in to_cert], b.coords)
        assert coords == tuple(F(1) if j == i else F(0) for j in range(8))


# -- alternativity -----------------------------------------------------------


def test_octonions_alternative(octonions):
    assert is_alternative(octonions.algebra).holds


def test_sedenions_not_alternative_with_witness(sedenions):
    alg = sedenions.algebra
    res = is_alternative(alg)
    assert not res.holds
    x, y, law = res.witness
    x2 = alg.multiply(x, x)
    if law == "left":
        assert alg.multiply(x2, y) != alg.multiply(x, alg.multiply(x, y))
    else:
        assert alg.multiply(y, x2) != alg.multiply(alg.multiply(y, x), x)


def test_twisted_octonions_not_alternative(twisted_octonions):
    assert not is_alternative(twisted_octonions.algebra).holds


def test_polarization_soundness(octonions, sedenions, twisted_octonions):
    rng = random.Random(23)
    for bundle in (octonions, sedenions, twisted_octonions):
        alg = bundle.algebra
        verdict = is_alternative(alg).holds
        violated = False
        for _ in range(20):
            x = Element(tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)))
            y = Element(tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)))
            x2 = alg.multiply(x, x)
            left_ok = alg.multiply(x2, y) == alg.multiply(x, alg.multiply(x, y))
            right_ok = alg.multiply(y, x2) == alg.multiply(alg.multiply(y, x), x)
            if not (left_ok and right_ok):
                violated = True
        if verdict:
            assert not violated


def test_moufang_spot_checks(octonions, sedenions):
    holds, _ = middle_moufang_on_basis(octonions.algebra)
    assert holds
    holds, witness = middle_moufang_on_basis(sedenions.algebra)
    assert not holds and witness is not None


# -- super-alternativity -----------------------------------------------------


def test_sedenions_super_alternative(sedenions):
    assert is_super_alternative(sedenions.algebra, sedenions.grading).holds


def test_twisted_sedenions_super_alternative(twisted_sedenions):
    assert is_super_alternative(twisted_sedenions.algebra, twisted_sedenions.grading).holds


def test_all_even_grading_fails_on_sedenions(sedenions):
    alg = sedenions.algebra
    res = is_super_alternative(alg, Grading.trivial(16))
    assert not res.holds
    u, x, law = res.witness
    x2 = alg.multiply(u, u)
    if law == "left":
        assert alg.multiply(x2, x) != alg.multiply(u, alg.multiply(u, x))
    else:
        assert alg.multiply(x, x2) != alg.multiply(alg.multiply(x, u), u)


# -- nicely normed -----------------------------------------------------------


def test_nicely_normed_3d_iff_t_zero():
    for t in (0, 1, F(1, 2)):
        for s in (0, 2, F(3, 4)):
            assert is_nicely_normed(build_3d(t, s)) == (t == 0)


def test_nicely_normed_4d_iff_u_zero():
    rng = random.Random(9)
    for _ in range(4):
        T = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        assert is_nicely_normed(build_4d(T, [0, 0, 0]))
        u = [F(rng.randint(-2, 2)) for _ in range(3)]
        if any(c != 0 for c in u):
            assert not is_nicely_normed(build_4d(T, u))


def test_sedenions_nicely_normed(sedenions):
    assert is_nicely_normed(sedenions.algebra)


def test_nicely_normed_implies_locally_complex():
    assert not is_nicely_normed(split_two_dim_algebra())


# -- commutative classification ----------------------------------------------


def test_spin_factor_detection_with_iso():
    alg = jordan_spin_algebra(5)
    res = is_commutative_jn(alg)
    assert res.holds
    hom = check_homomorphism(res.iso, alg, jordan_spin_algebra(5))
    assert hom.holds


def test_rotated_spin_factor_detection():
    rng = random.Random(33)
    alg, _, _ = rotated_copy(jordan_spin_algebra(4), rng)
    res = is_commutative_jn(alg)
    assert res.holds
    hom = check_homomorphism(res.iso, alg, jordan_spin_algebra(4))
    assert hom.holds


def test_quaternions_not_commutative(quaternions):
    res = is_commutative_jn(quaternions.algebra)
    assert not res.holds and res.witness is not None
    i, j = res.witness
    alg = quaternions.algebra
    assert alg.multiply(alg.basis_element(i), alg.basis_element(j)) != alg.multiply(
        alg.basis_element(j), alg.basis_element(i)
    )


def test_3d_with_skew_term_not_commutative():
    res = is_commutative_jn(build_3d(0, 1))
    assert not res.holds


def test_commutative_check_requires_locally_complex():
    with pytest.raises(NotLocallyComplexError):
        is_commutative_jn(split_two_dim_algebra())
