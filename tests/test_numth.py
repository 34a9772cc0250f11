"""Square detection and the two/four-square decompositions."""

import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg.numth import (
    four_squares,
    four_squares_fraction,
    sqrt_fraction,
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
