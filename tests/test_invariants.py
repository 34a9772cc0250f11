"""Cross-module invariants tying the reference facts together."""

import random
from fractions import Fraction

from cdalg import (
    Element,
    alter_scalar_space,
    annihilator,
    build_4d,
    cayley_dickson_tower,
    equiv_4d,
    extract_params_4d,
    is_alternative,
    is_commutative_jn,
    is_locally_complex,
    is_nicely_normed,
    named_algebra,
    natural_grading,
)
from cdalg.analysis import random_rational_orthogonal

from slow_reference import det, mat_mul, mat_vec, transpose

F = Fraction


def test_tower_members_locally_complex_up_to_sedenions():
    tower = cayley_dickson_tower(4)
    for inv in tower:
        assert is_locally_complex(inv.algebra).holds


def test_homogeneous_anticommuting_shift_rule(sedenions, twisted_sedenions):
    # For anticommuting homogeneous u, v in the same part: u(vx) = -v(ux)
    # and (xu)v = -(xv)u, for every basis x.
    rng = random.Random(47)
    for bundle in (sedenions, twisted_sedenions):
        alg = bundle.algebra
        even, odd = bundle.grading.index_partition()
        for part in (even, odd):
            members = [i for i in part if i != 0]
            pairs = [(members[0], members[1]), (members[1], members[2])]
            for iu, iv in pairs:
                u = alg.basis_element(iu)
                v = alg.basis_element(iv)
                assert (alg.multiply(u, v) + alg.multiply(v, u)).is_zero()
                for _ in range(4):
                    x = Element(
                        tuple(F(rng.randint(-2, 2)) for _ in range(alg.dim))
                    )
                    assert alg.multiply(u, alg.multiply(v, x)) == -alg.multiply(
                        v, alg.multiply(u, x)
                    )
                    assert alg.multiply(alg.multiply(x, u), v) == -alg.multiply(
                        alg.multiply(x, v), u
                    )


def test_alter_scalar_space_contains_unit(octonions, sedenions, twisted_octonions):
    for bundle in (octonions, sedenions, twisted_octonions):
        space = alter_scalar_space(bundle.algebra)
        assert space.solutions.contains(bundle.algebra.one().coords)
        assert space.has_alter_scalars == (space.solutions.dim >= 2)


def test_orbit_members_share_property_reports():
    # Conjugating (T, u) by a rational orthogonal matrix (with the signed
    # rule) produces an isomorphic algebra; the property verdicts must agree.
    rng = random.Random(53)
    for _ in range(5):
        T = tuple(
            tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3))
            for _ in range(3)
        )
        u = tuple(F(rng.randint(-2, 2)) for _ in range(3))
        q = random_rational_orthogonal(3, rng)
        dq = det(q)
        t2 = mat_mul(mat_mul(q, T), transpose(q))
        if dq == -1:
            t2 = tuple(tuple(-x for x in row) for row in t2)
        u2 = mat_vec(q, u)
        if dq == -1:
            u2 = tuple(-x for x in u2)
        a1 = build_4d(T, u)
        a2 = build_4d(t2, u2)
        assert equiv_4d((T, u), (t2, u2)).equivalent
        for prop in (is_locally_complex, is_alternative):
            assert prop(a1).holds == prop(a2).holds
        assert is_nicely_normed(a1) == is_nicely_normed(a2)
        assert a1.is_commutative() == a2.is_commutative()


def test_extracted_parameters_reproduce_the_algebra():
    rng = random.Random(59)
    T = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    u = [F(rng.randint(-3, 3)) for _ in range(3)]
    alg = build_4d(T, u)
    params = extract_params_4d(alg)
    rebuilt = build_4d(params.t_matrix, params.u)
    assert rebuilt.constants == alg.constants


def test_natural_gradings_of_tower_are_super_valid():
    for level in (1, 2, 3, 4):
        inv = cayley_dickson_tower(level)[level]
        natural_grading(inv.dim).validate(inv.algebra)


def test_spin_factor_iso_is_multiplicative():
    from cdalg import check_homomorphism, jordan_spin_algebra

    res = is_commutative_jn(named_algebra("J6").algebra)
    assert res.holds
    assert check_homomorphism(res.iso, named_algebra("J6").algebra, jordan_spin_algebra(6)).holds


def test_annihilator_multiples_of_four_small_tower():
    # Paired-basis annihilator dimensions in the dim-8 and dim-16 members.
    for name in ("O", "S"):
        alg = named_algebra(name).algebra
        for i in range(1, alg.dim):
            for j in range(i + 1, alg.dim):
                d = annihilator(alg, alg.basis_element(i) - alg.basis_element(j)).dim
                assert d % 4 == 0
