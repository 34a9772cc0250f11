"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of rows of ``fractions.Fraction``; the
elimination routines (``rref``, ``rank``, ``nullspace``, ``mat_inv``,
``det`` and ``Subspace``) also take rows of Python ints.  They share one
fraction-free core: each row is scaled to a primitive integer row (times
the lcm of its denominators, divided by the gcd of its entries), Gauss-Jordan
elimination combines rows with integer multipliers and divides every
updated row by its content, and ``Fraction`` objects are built only for the
final reduced rows (entry / pivot).  The reduced row echelon form is
canonical, so the result does not depend on how the rows were scaled.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

F0 = Fraction(0)
F1 = Fraction(1)


def vec(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(row) for row in rows)


def zeros(n: int) -> Vector:
    return (F0,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(F1 if j == i else F0 for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    if c == 0:
        return zeros(len(a))
    return tuple(c * x for x in a)


def vec_dot(a: Vector, b: Vector) -> Fraction:
    total = F0
    for x, y in zip(a, b, strict=True):
        if x and y:
            total += x * y
    return total


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m: Sequence[Sequence[Fraction]], v: Vector) -> Vector:
    out = []
    for row in m:
        total = F0
        for entry, x in zip(row, v, strict=True):
            if entry and x:
                total += entry * x
        out.append(total)
    return tuple(out)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(vec_dot(tuple(row), col) for col in bt) for row in a)


def transpose(m: Sequence[Sequence[Fraction]]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in col) for col in zip(*m))


def _primitive(row: Sequence) -> list[int] | None:
    """The row times a positive rational, as coprime Python ints; None if zero.

    Entries may be ``Fraction`` or ``int`` (both have ``numerator`` and
    ``denominator``).
    """
    d = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = gcd(*ints)
    if g == 0:
        return None
    return ints if g == 1 else [x // g for x in ints]


def _cancel(row: list[int], prow: list[int], c: int) -> tuple[list[int], int, int]:
    """``(a * row - b * prow) / h``, zero in column ``c`` (``prow[c] != 0``).

    ``a = prow[c] / gcd(prow[c], row[c])`` and ``h >= 1`` is the content of
    the combination (1 when it is zero), so the result is primitive unless
    it is zero.  Returns the new row, ``a`` and ``h``.
    """
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    h = gcd(*new)
    if h > 1:
        return [x // h for x in new], a, h
    return new, a, 1


def _eliminate(
    work: list[list[int]], ncols: int, reduce: bool = True, scale: list[int] | None = None
) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place.

    Each pivot row is swapped up to position ``len(pivots)`` and cancelled
    from every other row (from the rows below only, when ``reduce`` is
    false) by :func:`_cancel`, which divides the updated row by its content,
    so entries stay as small as the row space allows.  Rows that become zero
    stay in ``work`` below the pivot rows.  Returns the pivot columns.

    With ``scale = [u, v]`` the determinant bookkeeping is kept: on return
    ``det(input) = det(output) * u / v`` for a square input.
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
            if scale is not None:
                scale[0] = -scale[0]
        prow = work[r]
        for i in range(0 if reduce else r + 1, m):
            if i != r and work[i][c]:
                work[i], a, h = _cancel(work[i], prow, c)
                if scale is not None:
                    scale[0] *= h
                    scale[1] *= a
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


def _as_fractions(row: list[int], p: int) -> Vector:
    return tuple(F0 if not x else F1 if x == p else Fraction(x, p) for x in row)


def _unit_pivot_rows(work: list[list[int]], pivots: list[int]) -> Matrix:
    return tuple(_as_fractions(row, row[c]) for row, c in zip(work, pivots))


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with unit pivots; zero rows are dropped.

    Returns the echelon rows and the pivot column of each row.  The output is
    canonical: two row sets spanning the same space reduce to identical
    matrices, which is what Subspace equality relies on.  Entries may be
    ``Fraction`` or ``int``.
    """
    work, pivots = _echelon(rows)
    return _unit_pivot_rows(work, pivots), tuple(pivots)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(_echelon(rows, reduce=False)[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> Matrix:
    """Canonical basis of {x : M x = 0}, as rows in reduced echelon form."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    work, pivots = _echelon(rows)
    if len(pivots) == ncols:
        return ()
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
    return rref(basis)[0]


def mat_inv(m: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    work, pivots = _echelon(aug)
    if len(work) != n or any(p != i for i, p in enumerate(pivots)):
        raise ValueError("matrix is singular")
    return tuple(_as_fractions(row[n:], row[i]) for i, row in enumerate(work))


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(m)
    work, den = [], 1
    for row in m:
        d = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    scale = [1, 1]
    if len(_eliminate(work, n, reduce=False, scale=scale)) < n:
        return F0
    for i in range(n):
        scale[0] *= work[i][i]
    return Fraction(scale[0], scale[1] * den)


def nonpositive_direction(m: Sequence[Sequence[Fraction]]) -> Vector | None:
    """A rational x with x^T M x <= 0 for symmetric M, or None if M is positive definite.

    Runs the LDL elimination and stops at the first pivot that is not
    positive; the congruence transform maps it back to an exact vector, so
    it can serve as a counterexample witness.
    """
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    # Track the congruence transform so a failing pivot maps back to a vector.
    trans = [list(unit_vector(n, i)) for i in range(n)]
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return tuple(trans[k])
        for i in range(k + 1, n):
            if work[i][k] != 0:
                f = work[i][k] / pivot
                for j in range(k, n):
                    work[i][j] -= f * work[k][j]
                trans[i] = [a - f * b for a, b in zip(trans[i], trans[k])]
    return None


def congruence_diagonal(m: Sequence[Sequence[Fraction]]) -> tuple[Vector, Matrix]:
    """Pivots d and rows L with L M L^T = diag(d), for symmetric rational M.

    LDL elimination with symmetric pivoting: each step pivots on the first
    remaining nonzero diagonal entry.  When every remaining diagonal entry is
    zero but the block is not, row i becomes row i + row j for the first
    nonzero (i, j), whose new diagonal entry is 2 M_ij.  Once the remaining
    block is zero its rows are kernel vectors of M, with pivot 0.  By
    Sylvester's law of inertia the signs of d are the signature of M.
    """
    n = len(m)
    a = [list(vec(row)) for row in m]
    rows = [list(unit_vector(n, i)) for i in range(n)]
    left = list(range(n))
    pivots: list[Fraction] = []
    order: list[int] = []
    while left:
        k = next((i for i in left if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in left for j in left if i < j and a[i][j]), None)
            if pair is None:
                pivots += [F0] * len(left)
                order += left
                break
            k, j = pair
            for c in left:
                a[k][c] += a[j][c]
            for r in left:
                a[r][k] += a[r][j]
            rows[k] = [x + y for x, y in zip(rows[k], rows[j])]
        p = a[k][k]
        left.remove(k)
        for i in left:
            if a[i][k]:
                f = a[i][k] / p
                for c in left:
                    a[i][c] -= f * a[k][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        pivots.append(p)
        order.append(k)
    return tuple(pivots), tuple(tuple(rows[k]) for k in order)


class Subspace:
    """A rational subspace held in reduced row echelon form.

    The echelon normal form makes equality canonical: two spans of the same
    space construct identical objects.  The integer form of the echelon rows
    is kept for membership tests.
    """

    __slots__ = ("rows", "ambient_dim", "_ints", "_pivots")

    def __init__(self, rows: Iterable[Sequence[Fraction]], ambient_dim: int):
        self._ints, self._pivots = _echelon(rows)
        self.rows: Matrix = _unit_pivot_rows(self._ints, self._pivots)
        self.ambient_dim = ambient_dim

    @classmethod
    def _of_axes(cls, indices: Iterable[int], ambient_dim: int) -> "Subspace":
        """The span of distinct unit vectors e_i, built in its echelon form."""
        pivots = sorted(indices)
        space = cls.__new__(cls)
        space._ints = [[int(j == i) for j in range(ambient_dim)] for i in pivots]
        space._pivots = pivots
        space.rows = tuple(unit_vector(ambient_dim, i) for i in pivots)
        space.ambient_dim = ambient_dim
        return space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[Fraction]) -> bool:
        rem = _primitive(v)
        if rem is None:
            return True
        for row, c in zip(self._ints, self._pivots):
            if rem[c]:
                rem = _cancel(rem, row, c)[0]
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
