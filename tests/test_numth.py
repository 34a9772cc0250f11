"""Square detection, the two/four-square decompositions, Q(sqrt(m)),
factoring small numbers, rational conics and rational roots."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg.numth import (
    Surd,
    factorizations,
    four_squares,
    four_squares_fraction,
    sqrt_fraction,
    rational_roots,
    sqrt_rational,
    ternary_zero,
    three_squares,
    two_squares,
    two_squares_fraction,
)

import slow_reference as ref


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None
    assert sqrt_fraction(Fraction(49, 16)) == Fraction(7, 4)


def test_two_squares_known_values():
    assert two_squares(0) == (0, 0)
    a, b = two_squares(25)
    assert a * a + b * b == 25
    assert two_squares(3) is None
    assert two_squares(21) is None  # 3 * 7, both bad primes to odd powers


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_four_squares_always(n):
    a, b, c, d = four_squares(n)
    assert a * a + b * b + c * c + d * d == n


def test_three_squares_obstruction():
    assert three_squares(7) is None
    assert three_squares(28) is None  # 4 * 7
    got = three_squares(11)
    assert got is not None and sum(x * x for x in got) == 11


def test_two_squares_fraction():
    got = two_squares_fraction(Fraction(1, 2))
    assert got is not None
    a, b = got
    assert a * a + b * b == Fraction(1, 2)
    assert two_squares_fraction(Fraction(1, 3)) is None


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=50, max_denominator=20))
def test_four_squares_fraction_always(q):
    quad = four_squares_fraction(q)
    assert sum(x * x for x in quad) == q


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6 - 1))
def test_searches_match_plain_descent(n):
    """The 4^k reduction returns the same maximal-first representation."""
    assert two_squares(n) == ref.two_squares(n)
    assert three_squares(n) == ref.three_squares(n)
    assert four_squares(n) == ref.four_squares(n)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=1000))
def test_searches_match_plain_descent_on_multiples_of_four(k, m):
    n = 4**k * m
    assert two_squares(n) == ref.two_squares(n)
    assert three_squares(n) == ref.three_squares(n)
    assert four_squares(n) == ref.four_squares(n)


def test_four_squares_of_a_large_multiple_of_four_is_fast():
    """n - a^2 for the leading a is 4^11 times a small number here, which the
    plain descent needed about a minute to decompose."""
    start = time.perf_counter()
    assert four_squares(107856673503394201600) == (10385406720, 866304, 81920, 79872)
    assert time.perf_counter() - start < 2.0


# -- Q(sqrt(m)) -----------------------------------------------------------------

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10])


def surd(a, b, m):
    return a + b * sqrt_rational(Fraction(m))


@settings(max_examples=200, deadline=None)
@given(small_rationals, small_rationals, small_rationals, small_rationals.filter(bool), radicands)
def test_surd_field_arithmetic(a, b, c, d, m):
    x, y = surd(a, b, m), surd(c, d, m)
    assert isinstance(y, Surd)
    # Exact identities, with the rational part of each result a Fraction.
    assert x + y - y == x and (x * y) / y == x
    assert x - x == 0 and type(x - x) is Fraction
    assert y / y == 1 and type(y / y) is Fraction
    assert (y * (1 / y)) == 1
    # ints and Fractions on either side.
    assert 2 * y == y + y == y * 2 and 1 - y == -(y - 1)
    assert Fraction(1, 3) * y == y / 3 == y * Fraction(1, 3)
    assert sum([y, 1, Fraction(1, 2)]) == y + Fraction(3, 2)
    assert bool(y) and bool(x) == bool(a or b)
    assert abs(float(x * y) - float(x) * float(y)) <= 1e-9 * (1 + abs(float(x) * float(y)))
    assert hash(y) == hash(surd(c, d, m))
    # (c + d sqrt(m))(c - d sqrt(m)) is the rational norm.
    assert y * surd(c, -d, m) == c * c - m * d * d


def test_surd_text_and_radicand():
    assert sqrt_rational(Fraction(3, 4)) == Surd(Fraction(0), Fraction(1, 2), 3)
    assert str(sqrt_rational(Fraction(3, 4))) == "1/2*sqrt(3)"
    assert str(sqrt_rational(Fraction(72))) == "6*sqrt(2)"
    assert str(1 - sqrt_rational(Fraction(5))) == "1 - sqrt(5)"
    assert str(-sqrt_rational(Fraction(5))) == "-sqrt(5)"
    assert str(Fraction(-2, 3) + 3 * sqrt_rational(Fraction(5))) == "-2/3 + 3*sqrt(5)"
    assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_rational(Fraction(2)) == sqrt_rational(Fraction(8)) / 2
    assert sqrt_rational(Fraction(2)) != sqrt_rational(Fraction(3))
    assert float(1 - sqrt_rational(Fraction(2))) < 0
    with pytest.raises(ValueError):
        sqrt_rational(Fraction(2)) + sqrt_rational(Fraction(3))


# -- factoring and rational conics ----------------------------------------------


def _trial_factor(n):
    f, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            f[p] = f.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10**7), min_size=1, max_size=4))
def test_factorizations_match_trial_division(numbers):
    found = factorizations(numbers)
    if found is None:
        # Only a product of two distinct primes above the trial bound (which
        # no other number splits by a gcd) can be refused.
        assert any(len([p for p in _trial_factor(n) if p > 997]) >= 2 for n in numbers)
        return
    assert found == [_trial_factor(n) for n in numbers]


def test_factorizations_prove_or_refuse():
    big = 1000003  # prime, above the trial bound
    assert factorizations([1129 * 1087]) is None
    assert factorizations([1129 * 1087, 1129 * 12]) == [{1087: 1, 1129: 1}, {2: 2, 3: 1, 1129: 1}]
    assert factorizations([big * big * 6]) == [{2: 1, 3: 1, big: 2}]
    mersenne = 2**61 - 1
    assert factorizations([mersenne]) == [{mersenne: 1}]
    assert factorizations([mersenne * big]) is None  # composite part past the trial bound
    assert factorizations([mersenne * big], known=[big]) == [{big: 1, mersenne: 1}]
    above = 2**89 - 1  # a Mersenne prime past the Miller-Rabin bound
    assert above > 3_317_044_064_679_887_385_961_981
    assert factorizations([above]) is None
    assert factorizations([1]) == [{}]


def _has_zero(a, b, c, bound=40):
    """Whether a x^2 + b y^2 + c z^2 has a nonzero rational zero, by trying
    |x|, |y| <= bound (enough for coefficients of size at most 6)."""
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0):
                continue
            if sqrt_fraction(Fraction(-(a * x * x + b * y * y), c)) is not None:
                return True
    return False


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-6, 6).filter(bool), min_size=3, max_size=3),
       st.lists(st.integers(1, 4), min_size=3, max_size=3))
def test_ternary_zero_is_complete_on_small_forms(nums, dens):
    d = tuple(Fraction(n, q) for n, q in zip(nums, dens))
    y = ternary_zero(d)
    if y is not None:
        assert any(y) and sum(c * v * v for c, v in zip(d, y)) == 0
    # Scaling y_i by q_i turns the form into integer coefficients n_i q_i.
    assert (y is not None) == _has_zero(*(n * q for n, q in zip(nums, dens)))


def test_ternary_zero_hand_cases():
    F = Fraction
    assert ternary_zero((F(1), F(1), F(-3))) is None  # 3 = 3 mod 4 is no sum of two squares
    assert ternary_zero((F(1), F(1), F(1))) is None  # definite
    y = ternary_zero((F(1), F(1), F(-2)))
    assert y[0] ** 2 + y[1] ** 2 == 2 * y[2] ** 2 and any(y)
    assert ternary_zero((F(3), F(5), F(-7, 2))) is None  # 2 is no square mod 5
    y = ternary_zero((F(3, 2), F(5, 2), F(-4)))  # (1, 1, 1) is a zero
    assert any(y) and 3 * y[0] ** 2 + 5 * y[1] ** 2 == 8 * y[2] ** 2


# -- rational roots -------------------------------------------------------------


def _product(p, q):
    """The product of two polynomials, coefficients from the leading one down."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=60),
                min_size=1, max_size=4, unique=True),
       st.sampled_from([None, 2, 3, 5]))
def test_rational_roots_finds_every_simple_small_root(roots, radicand):
    poly = [1]
    for r in roots:
        poly = _product(poly, [r.denominator, -r.numerator])
    if radicand:  # x^2 - radicand has irrational roots
        poly = _product(poly, [1, 0, -radicand])
    assert sorted(rational_roots(poly)) == sorted(set(roots))


def test_rational_roots_only_returns_exact_roots():
    assert rational_roots([1, 0, -2]) == []  # sqrt(2)
    assert rational_roots([1, 0, 1]) == []  # +-i
    assert rational_roots([7]) == []
    assert rational_roots([3, 0]) == [0]
    assert rational_roots([4, -4, 1]) == [Fraction(1, 2)]  # a double root
    assert rational_roots([1000, -2700, 2430, -729]) == [Fraction(9, 10)]  # a triple root
    assert rational_roots([1, -(10**400)]) == []  # past the float range: nothing found
    assert rational_roots([1, -(10**200), 10**300]) == []
