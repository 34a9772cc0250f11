"""Exact linear algebra over the rationals.

An exact vector is an :class:`Element`: integer numerators over one positive
denominator, in lowest terms, as an algebra's table is one integer tensor
over one denominator (:class:`cdalg.kernel.ScaledTensor`).  Its
``Fraction`` coordinates are a read-only view built on first access.  A
matrix is a list (or tuple) of rows, and a row is an Element or a sequence
of ``Fraction``s or ints; :func:`scaled_rows` writes rows as integers over
one denominator and takes an Element's integers as they are, so
``Fraction``s are built only where a rational comes in or goes out.

The elimination routines (``rref``, ``rank``, ``nullspace``, ``mat_inv``
and ``Subspace``) share one fraction-free core: each row is scaled
to a primitive integer row, Gauss-Jordan elimination combines rows with
integer multipliers and divides every updated row by its content.  The
reduced row echelon form is canonical, so the result does not depend on how
the rows were scaled.  Internal callers take the integer rows:
:func:`kernel_basis` and :func:`inverse` return Elements, and ``nullspace``
and ``mat_inv`` are their ``Fraction`` views.  Symmetric forms have one LDL
elimination, :func:`congruence_diagonal`, fraction-free in the same way:
it gives the congruence diagonal, or, stopped at the first pivot that is
not positive, the definiteness verdict with its witness vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

F0 = Fraction(0)
F1 = Fraction(1)

_set = object.__setattr__


class Element:
    """An algebra element as an exact coordinate vector: the integers ``num``
    over one positive denominator ``den``, in lowest terms, so equal elements
    have equal ``(num, den)``.

    Built from rationals (anything ``Fraction`` accepts), or by
    :meth:`of_ints` from integers over any nonzero denominator.  ``coords``,
    the ``Fraction``s ``num / den``, is a read-only view built on first
    access.  Immutable.
    """

    __slots__ = ("num", "den", "_coords")

    def __new__(cls, coords: Iterable) -> "Element":
        return cls.of_ints(*_row_ints(coords))

    @classmethod
    def of_ints(cls, num: Iterable[int], den: int = 1) -> "Element":
        """The element ``num / den``."""
        num = tuple(num)
        g = gcd(den, *num) if den > 0 else -gcd(den, *num)
        if g != 1:
            num, den = tuple([v // g for v in num]), den // g
        el = object.__new__(cls)
        _set(el, "num", num)
        _set(el, "den", den)
        _set(el, "_coords", None)
        return el

    @property
    def coords(self) -> Vector:
        coords = self._coords
        if coords is None:
            den = self.den
            coords = tuple([Fraction(v, den) if v else F0 for v in self.num])
            _set(self, "_coords", coords)
        return coords

    @property
    def dim(self) -> int:
        return len(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "Element") -> "Element":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"element dimensions differ: {self.dim} vs {other.dim}")
        d = lcm(self.den, other.den)
        a, b = d // self.den, d // other.den
        return Element.of_ints([a * x + b * y for x, y in zip(self.num, other.num)], d)

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return Element.of_ints([-v for v in self.num], self.den)

    def scale(self, c) -> "Element":
        c = c if type(c) is int else Fraction(c)
        return Element.of_ints([c.numerator * v for v in self.num], c.denominator * self.den)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Element:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        return Element.of_ints, (self.num, self.den)

    def __repr__(self) -> str:
        return f"Element({list(map(str, self.coords))})"


def _row_ints(row) -> tuple[list[int], int]:
    """A row as integers over one positive denominator: an Element's own,
    other entries scaled by the lcm of their denominators."""
    if type(row) is Element:
        return list(row.num), row.den
    values = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
    if set(map(type, values)) <= {int}:
        return values, 1
    d = lcm(*[x.denominator for x in values])
    return [x.numerator * (d // x.denominator) for x in values], d


def scaled_rows(rows: Iterable) -> tuple[list[list[int]], int]:
    """Integer rows ``m`` and one positive denominator ``d`` with
    ``rows[i] = m[i] / d``; an Element's integers are taken as they are."""
    pairs = [_row_ints(r) for r in rows]
    d = lcm(*[den for _, den in pairs])
    return [num if den == d else [v * (d // den) for v in num] for num, den in pairs], d


def vec(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(row) for row in rows)


def unit_vector(n: int, i: int) -> Vector:
    return identity(n)[i]


@lru_cache(maxsize=64)
def identity(n: int) -> Matrix:
    """The n x n identity, shared between calls: its rows are immutable."""
    return tuple(tuple(F1 if j == i else F0 for j in range(n)) for i in range(n))


def _primitive(row) -> list[int] | None:
    """The row times a positive rational, as coprime Python ints; None if zero."""
    ints = _row_ints(row)[0]
    g = gcd(*ints)
    if g == 0:
        return None
    return ints if g == 1 else [x // g for x in ints]


def _cancel(row: list[int], prow: list[int], c: int) -> list[int]:
    """``(a * row - b * prow) / h``, zero in column ``c`` (``prow[c] != 0``).

    ``a = prow[c] / gcd(prow[c], row[c])`` and ``h >= 1`` is the content of
    the combination (1 when it is zero), so the result is primitive unless
    it is zero.
    """
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    h = gcd(*new)
    if h > 1:
        return [x // h for x in new]
    return new


def _eliminate(work: list[list[int]], ncols: int, reduce: bool = True) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place.

    Each pivot row is swapped up to position ``len(pivots)`` and cancelled
    from every other row (from the rows below only, when ``reduce`` is
    false) by :func:`_cancel`, which divides the updated row by its content,
    so entries stay as small as the row space allows.  Rows that become zero
    stay in ``work`` below the pivot rows.  Returns the pivot columns.
    """
    pivots: list[int] = []
    m = len(work)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        for i in range(r, m):
            if work[i][c]:
                break
        else:
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
        prow = work[r]
        for i in range(0 if reduce else r + 1, m):
            if i != r and work[i][c]:
                work[i] = _cancel(work[i], prow, c)
        pivots.append(c)
        r += 1
    return pivots


def _echelon(rows: Iterable[Sequence], reduce: bool = True) -> tuple[list[list[int]], list[int]]:
    """Integer echelon rows of ``rows`` and their pivot columns; zero rows are dropped.

    With ``reduce``, row ``r`` is the canonical reduced row times its pivot
    ``work[r][pivots[r]]``.
    """
    work = [ints for ints in map(_primitive, rows) if ints is not None]
    if not work:
        return [], []
    pivots = _eliminate(work, len(work[0]), reduce)
    return work[: len(pivots)], pivots


def _unit_pivot_rows(work: list[list[int]], pivots: list[int]) -> list[Element]:
    return [Element.of_ints(row, row[c]) for row, c in zip(work, pivots)]


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with unit pivots; zero rows are dropped.

    Returns the echelon rows and the pivot column of each row.  The output is
    canonical: two row sets spanning the same space reduce to identical
    matrices, which is what Subspace equality relies on.
    """
    work, pivots = _echelon(rows)
    return tuple(r.coords for r in _unit_pivot_rows(work, pivots)), tuple(pivots)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(_echelon(rows, reduce=False)[1])


def kernel_basis(rows: Sequence, ncols: int | None = None) -> list[Element]:
    """Canonical basis of {x : M x = 0}: the rows of its reduced echelon
    form, each with pivot 1, as Elements."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(_row_ints(rows[0])[0])
    work, pivots = _echelon(rows)
    if len(pivots) == ncols:
        return []
    # Column fc of the kernel basis vector for free column fc is 1 and
    # column pivots[r] is -work[r][fc] / work[r][pivots[r]]; scaled by the
    # lcm of those pivots it is an integer row.
    basis = []
    pivot_set = set(pivots)
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        hits = [(row[fc], row[c], c) for row, c in zip(work, pivots) if row[fc]]
        d = lcm(*(p for _, p, _ in hits))
        v = [0] * ncols
        v[fc] = d
        for x, p, c in hits:
            v[c] = -x * (d // p)
        basis.append(v)
    return _unit_pivot_rows(*_echelon(basis))


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> Matrix:
    """Canonical basis of {x : M x = 0}, as rows in reduced echelon form."""
    return tuple(e.coords for e in kernel_basis(rows, ncols))


class Inverse(tuple):
    """The rows of an inverse matrix, as Elements.  Made by :func:`inverse`
    only, so it is invertible by construction."""

    __slots__ = ()


def inverse(m: Sequence) -> Inverse:
    """The inverse of a square matrix, by elimination on ``[M | I]`` with
    each row scaled to integers; ValueError when it is singular."""
    n = len(m)
    aug = []
    for i, row in enumerate(m):
        ints, den = _row_ints(row)
        if len(ints) != n:
            raise ValueError("matrix is not square")
        aug.append(ints + [den if j == i else 0 for j in range(n)])
    work, pivots = _echelon(aug)
    if len(work) != n or any(p != i for i, p in enumerate(pivots)):
        raise ValueError("matrix is singular")
    return Inverse(Element.of_ints(row[n:], row[i]) for i, row in enumerate(work))


def mat_inv(m: Sequence[Sequence[Fraction]]) -> Matrix:
    return tuple(r.coords for r in inverse(m))


def congruence_diagonal(m: Sequence[Sequence], den: int = 1,
                        definite: bool = False) -> tuple[Vector, Matrix] | Vector | None:
    """Pivots d and rows L with L M L^T = diag(d), for symmetric rational
    M = m / den; with ``definite``, a rational x with x^T M x <= 0, or None
    when M is positive definite.

    LDL elimination with symmetric pivoting: each step pivots on the first
    remaining nonzero diagonal entry.  When every remaining diagonal entry is
    zero but the block is not, row i becomes row i + row j for the first
    nonzero (i, j), whose new diagonal entry is 2 M_ij.  Once the remaining
    block is zero its rows are kernel vectors of M, with pivot 0.  By
    Sylvester's law of inertia the signs of d are the signature of M.  With
    ``definite`` it stops at the first pivot in natural order that is not
    positive: no step before it pivoted out of order, and x is that row of
    L scaled to 1 at its own index.

    Fraction-free: row ``i`` is ``2n`` integers with its own nonzero scale
    ``s[i]``.  The first ``n`` over ``D s[i]``, with ``D`` the denominator
    of ``M``, are the rational elimination's row of M, and the last ``n``
    over ``s[i]`` are ``L_i``.  A step combines only the rows with a
    nonzero entry in the pivot column, which zeroes that column, and divides
    each, with its scale, by their content.  ``Fraction``s are built only
    for the result.
    """
    a, d = scaled_rows(m)
    n = len(a)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    s = [1] * n
    left = list(range(n))  # the remaining indices, in increasing order
    done: list[tuple[int, int]] = []  # (k, pivot) per step
    while left:
        k = left[0]
        if not a[k][k]:
            k = next((i for i in left if a[i][i]), None)
        if definite and (k != left[0] or a[k][k] < 0):
            t = a[left[0]][n:]
            return Element.of_ints(t, t[left[0]]).coords
        if k is None:
            pair = next(((i, j) for i in left for j in left if i < j and a[i][j]), None)
            if pair is None:
                done += [(k, 0) for k in left]
                break
            # Row k + row j over a common scale, then column k + column j.
            k, j = pair
            c = lcm(s[k], s[j])
            x, y = c // s[k], c // s[j]
            a[k], s[k] = [x * u + y * v for u, v in zip(a[k], a[j])], c
            for i in left:
                a[i][k] += a[i][j]
        left.remove(k)
        prow, p = a[k], a[k][k]
        done.append((k, p))
        for i in left:
            f = a[i][k]
            if f:
                # a[i] - (a_ik / a_kk) a[k], over the scale s[i] a_kk.
                row = [p * u - f * v for u, v in zip(a[i], prow)]
                si = s[i] * p
                g = gcd(si, *row)
                a[i], s[i] = ([u // g for u in row], si // g) if g > 1 else (row, si)
    if definite:
        return None
    return (tuple([Fraction(p, d * den * s[k]) if p else F0 for k, p in done]),
            tuple([tuple([Fraction(u, s[k]) if u else F0 for u in a[k][n:]]) for k, _ in done]))


class Subspace:
    """A rational subspace held in reduced row echelon form.

    The echelon normal form makes equality canonical: two spans of the same
    space construct identical objects.  The integer form of the echelon rows
    is kept for membership tests.
    """

    __slots__ = ("rows", "ambient_dim", "_ints", "_pivots")

    def __init__(self, rows: Iterable[Sequence[Fraction]], ambient_dim: int):
        self._ints, self._pivots = _echelon(rows)
        self.rows: Matrix = tuple(r.coords for r in self.elements())
        self.ambient_dim = ambient_dim

    @classmethod
    def _of_axes(cls, indices: Iterable[int], ambient_dim: int) -> "Subspace":
        """The span of distinct unit vectors e_i, built in its echelon form."""
        pivots, space = sorted(indices), cls.__new__(cls)
        space._ints = [[0] * i + [1] + [0] * (ambient_dim - 1 - i) for i in pivots]
        space._pivots, space.ambient_dim = pivots, ambient_dim
        space.rows = tuple(map(identity(ambient_dim).__getitem__, pivots))
        return space

    @classmethod
    def _of_reduced(cls, rows: Sequence[Element], ambient_dim: int) -> "Subspace":
        """The span of rows in reduced echelon form with unit pivots, as
        :func:`kernel_basis` returns them, without a second elimination."""
        space = cls.__new__(cls)
        # Each row's first nonzero entry is its denominator.
        space._ints, space._pivots = [r.num for r in rows], [r.num.index(r.den) for r in rows]
        space.rows, space.ambient_dim = tuple([r.coords for r in rows]), ambient_dim
        return space

    def elements(self) -> list[Element]:
        """The echelon rows, each with pivot 1, as Elements of the integer
        rows."""
        return _unit_pivot_rows(self._ints, self._pivots)

    def axes(self) -> list[int] | None:
        """The pivots when every echelon row is a unit vector, else None."""
        return None if any(r.count(0) != len(r) - 1 for r in self._ints) else list(self._pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[Fraction]) -> bool:
        rem = _primitive(v)
        if rem is None:
            return True
        for row, c in zip(self._ints, self._pivots):
            if rem[c]:
                rem = _cancel(rem, row, c)
        return not any(rem)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace(self.rows + other.rows, self.ambient_dim)
