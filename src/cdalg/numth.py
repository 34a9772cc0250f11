"""Small integer/rational number theory used for exact norm normalization.

The basis-building engines need rational vectors of squared length exactly 1.
When a candidate has squared length q != 1 they multiply it by an element of
a subalgebra whose norm form is a sum of two or four squares, so they need
representations of 1/q in that shape.  Everything here is deterministic and
avoids factorization machinery: the searches are descending loops that
return the representation with the largest leading terms.  Two- and
three-square searches first divide out the largest power 4^k of n, since
every square in such a representation of a multiple of 4 is even, which
makes them 2^k times shorter.  Past that reduction the two- and
three-square searches can still give up after ``_SEARCH_CAP`` steps and
report no representation; the four-square search has no cap of its own and
moves on to the next leading term when a three-square search gives up.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_SEARCH_CAP = 4_000_000


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _strip_fours(n: int) -> tuple[int, int]:
    """(m, k) with n = 4^k m and 4 not dividing m; (0, 0) for n = 0."""
    k = 0
    while n and n % 4 == 0:
        n //= 4
        k += 1
    return n, k


def two_squares(n: int) -> tuple[int, int] | None:
    """n = a^2 + b^2 over the integers with a >= b maximal, or None.

    When 4 divides a^2 + b^2 both a and b are even, so the search runs on
    n / 4^k and scales the result by 2^k.  It is a plain descending search
    past that; it gives up (returns None) after the step cap, so callers can
    fall back to a different candidate vector.
    """
    if n < 0:
        return None
    m, k = _strip_fours(n)
    steps = 0
    a = isqrt(m)
    while a * a * 2 >= m:
        rest = m - a * a
        b = isqrt(rest)
        if b * b == rest:
            return (a << k, b << k)
        a -= 1
        steps += 1
        if steps > _SEARCH_CAP:
            return None
    return None


def _is_three_square(n: int) -> bool:
    # n is a sum of three squares unless it has the form 4^a (8b + 7).
    return _strip_fours(n)[0] % 8 != 7


def three_squares(n: int) -> tuple[int, int, int] | None:
    """n = a^2 + b^2 + c^2 with a maximal, then b, or None.

    As in :func:`two_squares`, 4 dividing the sum makes every square even,
    so the search runs on n / 4^k and scales the result by 2^k.
    """
    if n < 0 or not _is_three_square(n):
        return None
    m, k = _strip_fours(n)
    steps = 0
    a = isqrt(m)
    while a >= 0:
        two = two_squares(m - a * a)
        if two is not None:
            return (a << k, two[0] << k, two[1] << k)
        a -= 1
        steps += 1
        if steps > _SEARCH_CAP:
            return None
    return None


def four_squares(n: int) -> tuple[int, int, int, int]:
    """n = a^2 + b^2 + c^2 + d^2; always exists for n >= 0."""
    if n < 0:
        raise ValueError("negative input")
    if n == 0:
        return (0, 0, 0, 0)
    a = isqrt(n)
    while a >= 0:
        three = three_squares(n - a * a)
        if three is not None:
            return (a, *three)
        a -= 1
    raise RuntimeError(f"four-square search failed for {n}")  # unreachable


def two_squares_fraction(q: Fraction) -> tuple[Fraction, Fraction] | None:
    """q = a^2 + b^2 over the rationals, or None when no representation exists."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    pair = two_squares(n * d)
    if pair is None:
        return None
    return (Fraction(pair[0], d), Fraction(pair[1], d))


def four_squares_fraction(q: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """q = a^2 + b^2 + c^2 + d^2 over the rationals; exists for every q >= 0."""
    if q < 0:
        raise ValueError("negative input")
    n, d = q.numerator, q.denominator
    quad = four_squares(n * d)
    return tuple(Fraction(x, d) for x in quad)  # type: ignore[return-value]
