"""Small integer/rational number theory: sums of squares, rational conics,
the local invariants of positive definite diagonal forms and the quadratic
fields Q(sqrt(m)).

:func:`four_squares_fraction` writes every rational q >= 0 as a sum of four
squares, for the one normalization that needs no factoring: a vector of
norm 1/q times an element of norm q in a quaternion subalgebra.  It
descends over the leading term; :func:`three_squares` and
:func:`two_squares`, which serve only it, divide out the largest power 4^k
of n first (every square in a representation of a multiple of 4 is even)
and give up after ``_SEARCH_CAP`` steps, upon which it tries the next
leading term.

:func:`sum_of_squares_obstruction` decides by Hasse-Minkowski whether a
positive definite diagonal form is a sum of squares over Q (Serre, *A
Course in Arithmetic*, ch. IV): both forms are positive definite, so they
agree at infinity, and the Hasse invariant at 2 follows from the others by
the product formula, so the determinant class and the
:func:`hilbert_symbol` at the odd primes decide.  :func:`represent_one`
finds a vector of value 1 by a search that :func:`ternary_zero` finishes.

:func:`ternary_zero` decides whether ``d1 x^2 + d2 y^2 + d3 z^2`` has a
rational zero and finds one by Lagrange's descent, as in Cremona & Rusin,
*Efficient solution of rational conics* (Math. Comp. 2003).  These need
the primes of the coefficients, and run only when :func:`factorizations`
proves them: trial division by the primes below ``_TRIAL_BOUND`` and a
deterministic Miller-Rabin test of the cofactor below ``_MR_LIMIT``,
whose composite cofactors Pollard's rho splits.  The
answer of :func:`ternary_zero` is a zero, False (a proof that there is
none), or None when a number could not be factored.  For forms with no
rational zero, :func:`sqrt_parts` gives the radicand m of a zero in
Q(sqrt(m)), and :class:`Surd` is the printed value type of the exact
number ``a + b sqrt(m)``: it has ring operations and no division.
:func:`rational_roots` reads the rational roots of an integer polynomial
off floating-point approximations and keeps only exact ones.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from math import isqrt

_SEARCH_CAP = 4_000_000

# Trial division runs over the primes below this bound.
_TRIAL_BOUND = 1000
# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 2017).
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard-Brent steps spent on one composite part before factoring gives
# up; a prime factor p is found after about sqrt(p) steps.
_RHO_STEPS = 1 << 17
# Root approximations: iteration cap, and the largest denominator of a
# continued-fraction convergent that is tested as a root.
_ROOT_STEPS = 500
_ROOT_DENOMINATOR = 10**8
# :func:`represent_one` tries the denominators z below this bound.
_REPRESENT_HEIGHT = 64


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
    past that, and gives up (returns None) after ``_SEARCH_CAP`` steps: its
    only caller, :func:`three_squares`, then tries the next leading term.
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
    so the search runs on n / 4^k and scales the result by 2^k.  It gives up
    (returns None) after ``_SEARCH_CAP`` steps; its only caller,
    :func:`four_squares`, then moves on to the next leading term.
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


def four_squares_fraction(q: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """q = a^2 + b^2 + c^2 + d^2 over the rationals; exists for every q >= 0."""
    if q < 0:
        raise ValueError("negative input")
    n, d = q.numerator, q.denominator
    quad = four_squares(n * d)
    return tuple(Fraction(x, d) for x in quad)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# the quadratic field Q(sqrt(m))
# ---------------------------------------------------------------------------


class Surd:
    """The real number ``a + b sqrt(m)``, with ``a, b`` rational, ``b != 0``
    and ``m > 1`` an integer that is not a square.

    The printed value type of the entries of a zero-divisor pair in
    Q(sqrt(m)); ``cdalg.lowdim`` builds and checks the pair on integer
    parts.  Sums, differences and products with ints, ``Fraction``s and
    surds of the same ``m`` are exact, so a caller can multiply the pair; a
    result with no ``sqrt(m)`` part comes back as a ``Fraction``, so a surd
    is never zero.  ``float`` is the correctly signed real value.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: Fraction, b: Fraction, m: int):
        self.a, self.b, self.m = a, b, m

    def _parts(self, other) -> tuple[Fraction, Fraction] | None:
        if isinstance(other, Surd):
            if other.m != self.m:
                raise ValueError("surds with different radicands")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def _new(self, a: Fraction, b: Fraction) -> "Surd | Fraction":
        return Surd(a, b, self.m) if b else a

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._new(self.a + p[0], self.b + p[1])

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.m)

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._new(self.a - p[0], self.b - p[1])

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._new(p[0] - self.a, p[1] - self.b)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        return self._new(self.a * c + self.m * self.b * d, self.a * d + self.b * c)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        # 1, sqrt(m) and sqrt(m') are linearly independent over Q unless m/m'
        # is a square, so a + b sqrt(m) = a' + b' sqrt(m') exactly when a = a'
        # and b sqrt(m) = b' sqrt(m').
        if isinstance(other, Surd):
            return (
                self.a == other.a
                and self.b * self.b * self.m == other.b * other.b * other.m
                and (self.b > 0) == (other.b > 0)
            )
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b * self.b * self.m, self.b > 0))

    def __float__(self) -> float:
        return float(self.a) + math.copysign(math.sqrt(self.b * self.b * self.m), self.b)

    def __str__(self) -> str:
        magnitude = abs(self.b)
        root = f"sqrt({self.m})" if magnitude == 1 else f"{magnitude}*sqrt({self.m})"
        if not self.a:
            return root if self.b > 0 else f"-{root}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {root}"

    def __repr__(self) -> str:
        return f"Surd({self.a!r}, {self.b!r}, {self.m})"


def sqrt_parts(q: Fraction) -> tuple[Fraction, int]:
    """(c, m) with sqrt(q) = c sqrt(m) for a rational q > 0: m = 1 when q is
    a rational square, otherwise m is not a square and has the squares of
    the small primes taken out."""
    root = sqrt_fraction(q)
    if root is not None:
        return root, 1
    m, s = q.numerator * q.denominator, 1
    for p in _small_primes():
        while m % (p * p) == 0:
            m //= p * p
            s *= p
    return Fraction(s, q.denominator), m


# ---------------------------------------------------------------------------
# factoring small numbers and rational conics
# ---------------------------------------------------------------------------


@functools.cache
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_TRIAL_BOUND - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _TRIAL_BOUND, p)))
    return tuple(p for p in range(_TRIAL_BOUND) if sieve[p])


def _miller_rabin(n: int) -> bool:
    """Whether an odd n > 41 is prime; exact for n < ``_MR_LIMIT``."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int | None:
    """A proper factor of an odd composite n, by Pollard's rho with Brent's
    cycle search on y -> y^2 + c for c = 1, 2, ..., the gcds batched over
    128 steps; None after ``_RHO_STEPS`` steps."""
    steps, c = 0, 0
    while steps < _RHO_STEPS:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < _RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, batch = y, min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            steps += r + k
            r *= 2
        if g == n:  # the batch overshot: step again from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def _divide_out(n: int, p: int, f: dict[int, int]) -> int:
    while n % p == 0:
        n //= p
        f[p] = f.get(p, 0) + 1
    return n


def factorizations(numbers, known=()) -> list[dict[int, int]] | None:
    """The prime factorizations {p: e} of integers n >= 1, or None.

    Trial division by the primes below ``_TRIAL_BOUND`` and by the ``known``
    primes leaves cofactors without small prime factors.  These are split
    into pairwise coprime parts by gcds, so a large prime shared by two of
    the numbers costs nothing to find, and a part that is a perfect square
    is replaced by its root.  A part is prime if it is below
    ``_TRIAL_BOUND ** 2``, or if it passes the Miller-Rabin test below
    ``_MR_LIMIT``; a composite part below that is split by :func:`_rho`.
    A part that is too large to prove prime, or that the rho's steps do not
    split, gives None: a result is always a proved factorization.
    """
    out, rest = [], []
    for n in numbers:
        if n < 1:
            raise ValueError("only integers n >= 1 have a factorization here")
        f: dict[int, int] = {}
        for p in _small_primes():
            if p * p > n:
                break
            n = _divide_out(n, p, f)
        for p in known:
            n = _divide_out(n, p, f)
        out.append(f)
        rest.append(n)
    parts: list[int] = []  # primes
    stack = [n for n in rest if n > 1]
    while stack:
        x = stack.pop()
        while isqrt(x) ** 2 == x:
            x = isqrt(x)
        for i, p in enumerate(parts):
            g = math.gcd(x, p)
            if g > 1:
                del parts[i]
                stack += [y for y in (g, p // g, x // g) if y > 1]
                break
        else:
            if x < _TRIAL_BOUND * _TRIAL_BOUND or x < _MR_LIMIT and _miller_rabin(x):
                parts.append(x)
            else:
                d = _rho(x) if x < _MR_LIMIT else None
                if d is None:
                    return None
                stack += [d, x // d]
    for f, n in zip(out, rest):
        for p in parts:
            n = _divide_out(n, p, f)
    return out


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """r with r^2 = a mod p (Tonelli-Shanks), or None for a non-residue."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod(a: int, primes) -> int | None:
    """r with r^2 = a modulo the product n of the distinct primes, |r| <= n/2,
    combined from the prime roots by the Chinese remainder theorem."""
    r, n = 0, 1
    for p in primes:
        root = _sqrt_mod_prime(a, p)
        if root is None:
            return None
        r += n * ((root - r) * pow(n, -1, p) % p)
        n *= p
    return r - n if r > n // 2 else r


def _square_free(n: int, primes_of: dict[int, int]) -> tuple[int, int, list[int]]:
    """(f, s, primes of f) with n = f s^2, f square-free, from n's factorization."""
    s, f, odd = 1, 1 if n > 0 else -1, []
    for p, e in primes_of.items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
            odd.append(p)
    return f, s, odd


def _short_vector(w: int, a: int, b: int) -> tuple[int, int]:
    """A shortest nonzero (x, z) with x = w z (mod b) for the norm
    x^2 + |a| z^2, by Lagrange-Gauss reduction of the basis (|b|, 0), (w, 1)."""
    def dot(p, q):
        return p[0] * q[0] + abs(a) * p[1] * q[1]

    u, v = (abs(b), 0), (w, 1)
    while True:
        if dot(v, v) < dot(u, u):
            u, v = v, u
        nu = dot(u, u)
        k = (2 * dot(u, v) + nu) // (2 * nu)  # the integer nearest <u, v> / <u, u>
        if k == 0:
            return u
        v = (v[0] - k * u[0], v[1] - k * u[1])


def _descent(a: int, pa: list[int], b: int, pb: list[int]) -> tuple[int, int, int] | bool | None:
    """A nonzero integer solution of x^2 = a y^2 + b z^2, False when there is
    none, or None when that is left undecided.

    a and b are nonzero square-free integers and pa, pb their primes.  This
    is Lagrange's descent with the lattice reduction of Cremona & Rusin: with
    w^2 = a (mod b), a shortest (x0, z0) with x0 = w z0 (mod b) for the norm
    x^2 + |a| z^2 has x0^2 - a z0^2 = b t, |t| < 2 sqrt|a| / sqrt 3, so
    b t is a norm from Q(sqrt a), and with t = c k^2, c square-free, the
    equation is solvable exactly when x^2 = a y^2 + c z^2 is.  Every step
    needs a to be a square modulo b, which is Legendre's condition: a
    primitive solution has y prime to every p dividing b (else p divides x,
    then p^2 divides b z^2 and p divides z), so x^2 = a y^2 (mod p).  False
    means that a condition failed, or that a and b are both negative; since
    each step keeps solvability, that proves there is no solution.  None
    means that some t could not be factored.
    """
    if abs(a) > abs(b):
        sol = _descent(b, pb, a, pa)
        return (sol[0], sol[2], sol[1]) if sol else sol
    if a == 1:
        return (1, 1, 0)
    if b == 1:
        return (1, 0, 1)
    if a < 0 and b < 0:
        return False
    w = _sqrt_mod(a, pb)
    if w is None:
        return False
    x0, z0 = _short_vector(w, a, b)
    t = (x0 * x0 - a * z0 * z0) // b  # nonzero: a is square-free and not 1
    primes_of_t = factorizations([abs(t)], known=pa + pb)
    if primes_of_t is None:
        return None
    c, k, pc = _square_free(t, primes_of_t[0])
    sol = _descent(a, pa, c, pc)
    if not sol:
        return sol
    x, y, z = sol
    # (x0 + z0 sqrt a)(x + y sqrt a) has norm (b c k^2)(c z^2) = b (c k z)^2.
    x, y, z = x0 * x + a * z0 * y, x0 * y + z0 * x, c * k * z
    g = math.gcd(x, y, z)
    return (x // g, y // g, z // g)


def _square_free_parts(d) -> list[tuple[int, set[int], Fraction]] | None:
    """``(f, primes of f, c)`` for each nonzero rational ``d_i = n/q``, with
    ``n q = f s^2``, f square-free and ``c = q/s``, so that
    ``d_i (c y)^2 = f y^2``; None when a number could not be factored."""
    found = factorizations([abs(x) for q in d for x in (q.numerator, q.denominator)])
    if found is None:
        return None
    parts = []
    for q, f_num, f_den in zip(d, found[0::2], found[1::2]):
        merged = dict(f_num)
        for p, e in f_den.items():
            merged[p] = merged.get(p, 0) + e
        f, s, odd = _square_free(q.numerator, merged)
        parts.append((f, set(odd), Fraction(q.denominator, s)))
    return parts


def ternary_zero(
    d: tuple[Fraction, Fraction, Fraction],
) -> tuple[Fraction, Fraction, Fraction] | bool | None:
    """A rational zero y != 0 of d1 y1^2 + d2 y2^2 + d3 y3^2 (all d_i nonzero),
    False when the form has none, or None when a number could not be
    factored and the question stays open.

    Each ``d_i = n/q`` becomes the integer ``n q = f_i s_i^2`` with f_i
    square-free (``d_i y_i^2 = f_i (s_i y_i / q)^2``), and multiplying by
    ``-f3`` gives ``(f3 w3)^2 = A (g w1)^2 + B (h w2)^2`` with
    ``A = -f1 f3 / g^2``, ``g = gcd(f1, f3)`` and likewise B: the form of
    :func:`_descent`.
    """
    parts = _square_free_parts(d)
    if parts is None:
        return None
    (f1, p1, s1), (f2, p2, s2), (f3, p3, s3) = parts
    g, h = math.gcd(f1, f3), math.gcd(f2, f3)
    sol = _descent(-f1 * f3 // (g * g), sorted(p1 ^ p3), -f2 * f3 // (h * h), sorted(p2 ^ p3))
    if not sol:
        return sol
    x, y, z = sol
    return (s1 * Fraction(y, g), s2 * Fraction(z, h), s3 * Fraction(x, f3))


# ---------------------------------------------------------------------------
# local invariants of positive definite diagonal forms
# ---------------------------------------------------------------------------


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero square-free integers at an odd
    prime p: 1 when z^2 = a x^2 + b y^2 has a nonzero solution over Q_p,
    else -1.  With a = p^alpha u and b = p^beta v, u and v prime to p, it
    is (-1)^(alpha beta (p - 1)/2) (u/p)^beta (v/p)^alpha (Serre, *A Course
    in Arithmetic*, ch. III, Thm 1)."""
    alpha, beta = int(a % p == 0), int(b % p == 0)
    u, v, half = a // p**alpha, b // p**beta, (p - 1) // 2
    odd = alpha * beta * half + beta * (pow(u, half, p) != 1) + alpha * (pow(v, half, p) != 1)
    return -1 if odd % 2 else 1


def sum_of_squares_obstruction(d) -> str | None:
    """None when the form d_1 x_1^2 + ... + d_r x_r^2 with rational d_i > 0
    is a sum of r squares over Q (isometric to I_r); otherwise a clause
    saying why not, or which number could not be factored.

    Positive definite forms of one rank are isometric exactly when their
    determinants agree modulo squares and their Hasse invariants
    eps_p = prod_{i<j} (d_i, d_j)_p agree at every prime; eps_p(I_r) = 1.
    At an odd prime of no square-free part of a d_i, eps_p = 1; at infinity
    eps = 1 for a positive definite form; and the product of all eps_v is
    1, so eps_2 = 1 once the odd ones are.
    """
    det = math.prod(d, start=Fraction(1))
    if sqrt_fraction(det) is None:
        return f"is not a sum of squares over Q: its determinant {det} is not a rational square"
    parts = _square_free_parts(d)
    if parts is None:
        numbers = [x for q in d for x in (q.numerator, q.denominator)]
        culprit = next((n for n in numbers if factorizations([n]) is None), numbers)
        return f"is not known to be a sum of squares over Q: {culprit} could not be factored"
    f = [free for free, _, _ in parts]
    for p in sorted(set().union(*(primes for _, primes, _ in parts)) - {2}):
        if math.prod(hilbert_symbol(a, b, p) for a, b in itertools.combinations(f, 2)) != 1:
            return f"is not a sum of squares over Q: its Hasse invariant at {p} is -1"
    return None


def represent_one(d) -> tuple[Fraction, ...] | None:
    """y with d_1 y_1^2 + ... + d_r y_r^2 = 1 for rational d_i > 0, or None
    when the search found none (as for a form that does not represent 1; a
    sum of squares does) or a number could not be factored.

    Past rank 4 the other coordinates are 0: by Meyer's theorem the
    indefinite <d_1, ..., d_4, -1> has a rational zero.  On the square-free
    parts f_i the search runs over integers z < ``_REPRESENT_HEIGHT``, pairs
    {a, b} of coordinates and integers 0 <= x_i <= z at the others:
    :func:`ternary_zero` solves f_a x_a^2 + f_b x_b^2 = (z^2 - sum_i f_i
    x_i^2) w^2, and x / z, with x_a / w and x_b / w, has value 1.  Every
    rational vector of value 1 has that shape; a prime that must divide z
    with one pair as {a, b} need not with another.  Small vectors keep the
    numbers of the next orthogonal complement small.
    """
    parts = _square_free_parts(d[:4])
    if parts is None:
        return None
    f, scales = [free for free, _, _ in parts], [c for _, _, c in parts]
    if len(f) == 1:
        return (scales[0],) if f[0] == 1 else None
    for z in range(1, _REPRESENT_HEIGHT if len(f) > 2 else 2):
        for head in itertools.combinations(range(len(f)), 2):
            rest = [i for i in range(len(f)) if i not in head]
            for tail in itertools.product(range(z + 1), repeat=len(rest)):
                n = z * z - sum(f[i] * t * t for i, t in zip(rest, tail))
                zero = (0, 0, 1) if n == 0 else n > 0 and ternary_zero(
                    (Fraction(f[head[0]]), Fraction(f[head[1]]), Fraction(-n)))
                if zero:
                    x = dict(zip((*rest, *head), (*tail, zero[0] / zero[2], zero[1] / zero[2])))
                    y = [scales[i] * x[i] / z for i in range(len(f))]
                    return (*y, *[Fraction(0)] * (len(d) - 4))
    return None


# ---------------------------------------------------------------------------
# rational roots of integer polynomials
# ---------------------------------------------------------------------------


def rational_roots(coeffs: list[int]) -> list[Fraction]:
    """Rational roots of ``c0 x^n + c1 x^(n-1) + ... + cn`` (integers,
    ``c0 != 0``), each once.

    Every returned number is an exact root.  The roots are approximated in
    floating point by Durand-Kerner iteration; the convergents p/q of the
    continued fraction of the real part of each approximation, up to q =
    ``_ROOT_DENOMINATOR``, are tested exactly, and the last exact root among
    them is kept.  By Legendre's theorem on continued fractions a rational
    root p/q is among them when its approximation is within 1/(2 q^2), so
    simple roots with small denominators are found.  A root of multiplicity
    k is approximated only to about 1e-16^(1/k) and may be missed.
    """
    n = len(coeffs) - 1
    try:
        monic = [c / coeffs[0] for c in coeffs]
    except OverflowError:  # coefficients beyond the float range
        return []
    roots = [complex(0.4, 0.9) ** i for i in range(n)]
    for _ in range(_ROOT_STEPS):
        moved = 0.0
        for i, r in enumerate(roots):
            value, spread = 0j, 1 + 0j
            for c in monic:
                value = value * r + c
            for j, s in enumerate(roots):
                if j != i:
                    spread *= r - s
            step = value / spread if spread else complex(1e-3, 1e-3)
            roots[i] = r - step
            moved = max(moved, abs(step) / (1 + abs(r)))
        if moved < 1e-15:
            break
    found: list[Fraction] = []
    for r in roots:
        if not math.isfinite(r.real):
            continue
        # The last exact root among the convergents is the one nearest r.
        exact = [
            Fraction(p, q)
            for p, q in _convergents(Fraction(r.real))
            if not sum(c * p ** (n - k) * q**k for k, c in enumerate(coeffs))
        ]
        if exact and exact[-1] not in found:
            found.append(exact[-1])
    return found


def _convergents(x: Fraction):
    """The convergents (p, q) of the continued fraction of x, up to q =
    ``_ROOT_DENOMINATOR``."""
    p0, p1, q0, q1 = 0, 1, 1, 0
    while True:
        a = math.floor(x)
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        if q1 > _ROOT_DENOMINATOR:
            return
        yield p1, q1
        x -= a
        if not x:
            return
        x = 1 / x
