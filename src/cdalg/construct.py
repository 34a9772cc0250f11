"""The doubling construction, gradings, and the named built-in algebras.

``cayley_dickson`` doubles an algebra-with-involution using the product
(a, b)(c, d) = (ac - d*b, da + bc*) and involution (a, b)* = (a*, -b).
Basis ordering of the double: first the n vectors (b_i, 0), then the n
vectors (0, b_i); the distinguished vector (0, 1) therefore sits at index n.
The tower over the reals yields the classical algebras R, C, H, O, S, ...
whose printed tables the verification suite checks entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import tables
from .core import Algebra, Element
from .errors import (
    DimensionMismatchError,
    InvalidGradingError,
    NonUnitalError,
    UnknownAlgebraError,
)
from .kernel import product_table
from .linalg import (
    F0,
    F1,
    Matrix,
    Subspace,
    identity,
    mat,
    mat_mul,
    mat_vec,
    unit_vector,
)


class Grading:
    """An even/odd split making the algebra a superalgebra.

    Keeps both the caller's spanning rows (useful downstream, e.g. when they
    are orthonormal) and canonical echelon subspaces for equality tests.
    """

    __slots__ = ("even", "odd", "even_rows", "odd_rows")

    def __init__(self, even_rows: Sequence[Sequence], odd_rows: Sequence[Sequence], dim: int):
        self.even_rows: Matrix = mat(even_rows)
        self.odd_rows: Matrix = mat(odd_rows) if odd_rows else ()
        self.even = Subspace(self.even_rows, dim)
        self.odd = Subspace(self.odd_rows, dim)
        if self.even.dim != len(self.even_rows) or self.odd.dim != len(self.odd_rows):
            raise InvalidGradingError("grading rows are linearly dependent")

    @classmethod
    def from_indices(cls, dim: int, even: Sequence[int], odd: Sequence[int]) -> "Grading":
        if sorted(list(even) + list(odd)) != list(range(dim)):
            raise InvalidGradingError("even/odd indices must partition the basis")
        # Distinct unit vectors are independent and already in echelon form.
        grading = cls.__new__(cls)
        grading.even_rows = tuple(unit_vector(dim, i) for i in even)
        grading.odd_rows = tuple(unit_vector(dim, i) for i in odd)
        grading.even = Subspace._of_axes(even, dim)
        grading.odd = Subspace._of_axes(odd, dim)
        return grading

    @classmethod
    def trivial(cls, dim: int) -> "Grading":
        return cls.from_indices(dim, list(range(dim)), [])

    def index_partition(self) -> tuple[list[int], list[int]] | None:
        """Recover index lists when both parts are spanned by basis vectors."""
        def as_indices(rows: Matrix) -> list[int] | None:
            # Echelon rows: a row with one nonzero entry has its pivot 1 there.
            if any(sum(map(bool, r)) != 1 for r in rows):
                return None
            return [r.index(F1) for r in rows]

        ev, od = as_indices(self.even.rows), as_indices(self.odd.rows)
        return None if ev is None or od is None else (ev, od)

    def validate(self, algebra: Algebra) -> None:
        """Check direct sum, multiplicative closure, and that 1 is even."""
        n = algebra.dim
        if self.even.ambient_dim != n:
            raise InvalidGradingError("grading ambient dimension mismatch")
        if self.even.dim + self.odd.dim != n:
            raise InvalidGradingError("even + odd does not fill the algebra")
        total = Subspace(self.even.rows + self.odd.rows, n)
        if total.dim != n:
            raise InvalidGradingError("even and odd parts overlap")
        if algebra.unit is not None and not self.even.contains(
            algebra.one().coords
        ):
            raise InvalidGradingError("unit is not in the even part")
        partition = self.index_partition()
        if partition is not None:
            # Basis-aligned grading: closure reduces to index bookkeeping
            # over the nonzero constants.
            odd = set(partition[1])
            part_of = [i in odd for i in range(n)]
            for i, row in enumerate(algebra._nonzero):
                for j, cell in enumerate(row):
                    want = part_of[i] ^ part_of[j]
                    for k, _ in cell:
                        if part_of[k] != want:
                            raise InvalidGradingError(f"product b_{i} b_{j} escapes its part")
            return
        parts = (self.even, self.odd)
        for gi in (0, 1):
            for gj in (0, 1):
                # Positive multiples of the products, row-major over the two parts.
                table, _ = product_table(algebra, parts[gi].rows, parts[gj].rows)
                target = parts[(gi + gj) % 2]
                for p in table.reshape(-1, n).tolist():
                    if not target.contains(p):
                        raise InvalidGradingError(
                            f"product of parts {gi},{gj} escapes part {(gi + gj) % 2}"
                        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grading):
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __repr__(self) -> str:
        return f"Grading(even={self.even.dim}, odd={self.odd.dim})"


class InvolutiveAlgebra:
    """An algebra with a linear involution * satisfying (ab)* = b* a*.

    On construction the involution laws are checked exactly, together with
    the doubling prerequisites: x + x* and x x* = x* x are scalar multiples
    of 1 for basis vectors and their pairwise sums.
    """

    __slots__ = ("algebra", "star", "_star_cols")

    def __init__(self, algebra: Algebra, star: Sequence[Sequence]):
        if algebra.unit is None:
            raise NonUnitalError("involutive algebras must be unital")
        self.algebra = algebra
        self.star = mat(star)
        n = algebra.dim
        if len(self.star) != n or any(len(r) != n for r in self.star):
            raise DimensionMismatchError("star matrix has wrong shape")
        self._star_cols = tuple(
            tuple((k, self.star[k][j]) for k in range(n) if self.star[k][j] != 0)
            for j in range(n)
        )
        if mat_mul(self.star, self.star) != identity(n):
            raise ValueError("star is not an involution")
        for i in range(n):
            bi_star = self.apply(algebra.basis_element(i))
            for j in range(n):
                lhs = self.apply(algebra.table_entry(i, j))
                rhs = algebra.multiply(self.apply(algebra.basis_element(j)), bi_star)
                if lhs.coords != rhs.coords:
                    raise ValueError(f"(b_{i} b_{j})* != b_{j}* b_{i}*")
        unit = algebra.unit
        candidates = [algebra.basis_element(i) for i in range(n)]
        candidates += [
            algebra.basis_element(i) + algebra.basis_element(j)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        for x in candidates:
            xs = self.apply(x)
            if not _is_scalar(x + xs, unit):
                raise ValueError("x + x* is not scalar")
            xxs = algebra.multiply(x, xs)
            sxx = algebra.multiply(xs, x)
            if xxs.coords != sxx.coords or not _is_scalar(xxs, unit):
                raise ValueError("x x* is not a central scalar")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def apply(self, x: Element) -> Element:
        out = [F0] * self.algebra.dim
        for j, xj in enumerate(x.coords):
            if xj:
                for k, c in self._star_cols[j]:
                    out[k] += c * xj
        return Element(tuple(out))


def _is_scalar(x: Element, unit: int) -> bool:
    return all(c == 0 for i, c in enumerate(x.coords) if i != unit)


def cayley_dickson(b: InvolutiveAlgebra) -> InvolutiveAlgebra:
    """Double an involutive algebra; the result has dimension 2n."""
    inner = b.algebra
    n = inner.dim
    m = 2 * n

    def pair_labels() -> tuple[str, ...] | None:
        if n == 1:
            return ("1", "e1")
        if inner.labels is None:
            return None
        if all(lab == "1" or lab.startswith("e") for lab in inner.labels):
            return tuple(["1"] + [f"e{i}" for i in range(1, m)])
        return None

    star_in = b.star
    constants = [[[F0] * m for _ in range(m)] for _ in range(m)]

    def emb_first(v) -> list[Fraction]:
        return list(v) + [F0] * n

    def emb_second(v) -> list[Fraction]:
        return [F0] * n + list(v)

    for i in range(n):
        ei = inner.basis_element(i)
        ei_star = Element(mat_vec(star_in, ei.coords))
        for j in range(n):
            ej = inner.basis_element(j)
            ej_star = Element(mat_vec(star_in, ej.coords))
            # (x_i, 0)(x_j, 0) = (x_i x_j, 0)
            constants[i][j] = emb_first(inner.multiply(ei, ej).coords)
            # (x_i, 0)(0, x_j) = (0, x_j x_i)
            constants[i][n + j] = emb_second(inner.multiply(ej, ei).coords)
            # (0, x_i)(x_j, 0) = (0, x_i x_j*)
            constants[n + i][j] = emb_second(inner.multiply(ei, ej_star).coords)
            # (0, x_i)(0, x_j) = (-x_j* x_i, 0)
            constants[n + i][n + j] = emb_first(
                (-inner.multiply(ej_star, ei)).coords
            )
    doubled = Algebra(constants, unit=inner.unit, labels=pair_labels())
    star = [[F0] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            star[i][j] = star_in[i][j]
        star[n + i][n + i] = -F1
    return InvolutiveAlgebra(doubled, star)


def natural_grading(level_dim: int) -> Grading:
    """Even part = first half of the doubled basis, odd part = second half."""
    half = level_dim // 2
    return Grading.from_indices(level_dim, list(range(half)), list(range(half, level_dim)))


@lru_cache(maxsize=None)
def _tower_level(level: int) -> InvolutiveAlgebra:
    if level == 0:
        reals = Algebra([[[F1]]], unit=0, labels=("1",))
        return InvolutiveAlgebra(reals, identity(1))
    return cayley_dickson(_tower_level(level - 1))


def cayley_dickson_tower(levels: int) -> tuple[InvolutiveAlgebra, ...]:
    """The doubling tower over the reals: dims 1, 2, 4, ..., 2**levels."""
    return tuple(_tower_level(k) for k in range(levels + 1))


@dataclass(frozen=True)
class NamedAlgebra:
    """A built-in algebra plus its natural extras, when they exist."""

    name: str
    algebra: Algebra
    star: Matrix | None = None
    grading: Grading | None = None


_TOWER_NAMES = {"R": 0, "C": 1, "H": 2, "O": 3, "S": 4, "A5": 5, "A6": 6}
_TOWER_ALIASES = {"A0": "R", "A1": "C", "A2": "H", "A3": "O", "A4": "S"}


def jordan_spin_algebra(dim: int) -> Algebra:
    """The commutative algebra with b_i b_j = -delta_ij on the imaginary part."""
    if dim < 1:
        raise UnknownAlgebraError("dimension must be >= 1")
    n = dim
    constants = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        constants[0][k][k] = F1
        constants[k][0][k] = F1
    constants[0][0] = [F1] + [F0] * (n - 1)
    for i in range(1, n):
        constants[i][i][0] = -F1
    labels = tuple(["1"] + [f"e{i}" for i in range(1, n)])
    return Algebra(constants, unit=0, labels=labels)


def _negating_star(n: int) -> Matrix:
    return tuple(
        tuple((F1 if i == j == 0 else -F1 if i == j else F0) for j in range(n))
        for i in range(n)
    )


def named_algebra(name: str) -> NamedAlgebra:
    """Look up a built-in algebra by name.

    Accepted names: R, C, H, O, S, A5, A6 (aliases A0..A4 for the first
    five), TO and TS for the twisted octonions/sedenions, and J<k> for the
    k-dimensional spin-factor-like commutative algebra (k >= 1).  The result
    is shared between calls: it is immutable.
    """
    key = name.strip().upper().replace("_", "")
    bundle = _named_algebra(_TOWER_ALIASES.get(key, key))
    if bundle is None:
        raise UnknownAlgebraError(f"unknown algebra name: {name!r}")
    return bundle


@lru_cache(maxsize=64)
def _named_algebra(key: str) -> NamedAlgebra | None:
    """The built-in algebra for a normalized name, or None if there is none."""
    if key in _TOWER_NAMES:
        level = _TOWER_NAMES[key]
        inv = cayley_dickson_tower(level)[level]
        grading = natural_grading(inv.dim) if level >= 1 else Grading.trivial(1)
        return NamedAlgebra(key, inv.algebra, inv.star, grading)
    if key == "TO":
        labels = tuple(["1"] + [f"f{i}" for i in range(1, 8)])
        alg = tables.algebra_from_signed_table(tables.TWISTED_OCTONION_TABLE, labels)
        grading = Grading.from_indices(8, [0, 1, 2, 3], [4, 5, 6, 7])
        return NamedAlgebra(key, alg, _negating_star(8), grading)
    if key == "TS":
        labels = tuple(["1"] + [f"f{i}" for i in range(1, 16)])
        alg = tables.algebra_from_signed_table(tables.TWISTED_SEDENION_TABLE, labels)
        grading = Grading.from_indices(16, list(range(8)), list(range(8, 16)))
        return NamedAlgebra(key, alg, _negating_star(16), grading)
    if key.startswith("J"):
        try:
            k = int(key[1:])
        except ValueError:
            return None
        alg = jordan_spin_algebra(k)
        return NamedAlgebra(key, alg, _negating_star(k) if k > 1 else identity(1), None)
    return None
