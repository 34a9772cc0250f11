"""The doubling construction, gradings, and the named built-in algebras.

``cayley_dickson`` doubles an algebra-with-involution using the product
(a, b)(c, d) = (ac - d*b, da + bc*) and involution (a, b)* = (a*, -b).
Basis ordering of the double: first the n vectors (b_i, 0), then the n
vectors (0, b_i); the distinguished vector (0, 1) therefore sits at index n.
The tower over the reals yields the classical algebras R, C, H, O, S, ...
(in its standard basis e_p e_q = +-e_{p xor q}) whose printed tables the
verification suite checks entry for entry.

Nothing here multiplies elements.  With b_i b_j = sum_k C[i, j, k] b_k / D
(:func:`cdalg.kernel.scaled_tensor`), b_j* = sum_k S[k, j] b_k / s,
M[i, j] = b_i b_j* = (C x_2 S)[i, j] and N[i, j] = b_i* b_j =
(S x_1 C)[i, j], the double over D s is four blocks: (b_i, 0)(b_j, 0) =
(s C[i, j], 0), (b_i, 0)(0, b_j) = (0, s C[j, i]), (0, b_i)(b_j, 0) =
(0, M[i, j]) and (0, b_i)(0, b_j) = (-N[j, i], 0)
(:func:`cdalg.kernel.doubled_table`).

The involution laws are contractions of the same tensors
(:func:`cdalg.kernel.involution_violation`).
(b_i b_j)* = b_j* b_i* is one tensor identity.  x + x* and x x* = x* x
scalar on the basis vectors and their pairwise sums need only the basis:

- x + x* is linear in x;
- where x + x* = t is scalar, x x* = t x - x^2 = x* x;
- once x + x* = t(x) everywhere, t(1) = 2, and for t(u) = t(v) = 0,
  t(uv) - uv = (uv)* = vu, so v^2 is scalar and so is
  (a + v)(a + v)* = a^2 - v^2: no pairwise sum can fail.

So the basis vectors are checked in order, the trace law before
M[i, i] scalar, which gives the verdict and message of the loop over basis
vectors and pairwise sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import tables
from .core import Algebra
from .errors import (
    DimensionMismatchError,
    InvalidGradingError,
    NonUnitalError,
    UnknownAlgebraError,
)
from .kernel import (
    ScaledTensor,
    doubled_table,
    involution_violation,
    product_table,
    scaled_tensor,
)
from .linalg import F0, F1, Matrix, Subspace, identity, mat, scaled_rows


class Grading:
    """An even/odd split making the algebra a superalgebra.

    Keeps both the caller's spanning rows (useful downstream, e.g. when they
    are orthonormal) and canonical echelon subspaces for equality tests.  An
    index grading (both parts spanned by basis vectors) is validated on its
    index sets, with no echelon of both parts.
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
        grading, eye = cls.__new__(cls), identity(dim)
        grading.even_rows, grading.odd_rows = (tuple([eye[i] for i in p]) for p in (even, odd))
        grading.even, grading.odd = (Subspace._of_axes(p, dim) for p in (even, odd))
        return grading

    @classmethod
    def trivial(cls, dim: int) -> "Grading":
        return cls.from_indices(dim, list(range(dim)), [])

    def index_partition(self) -> tuple[list[int], list[int]] | None:
        """Recover index lists when both parts are spanned by basis vectors."""
        ev, od = self.even.axes(), self.odd.axes()
        return None if ev is None or od is None else (ev, od)

    def validate(self, algebra: Algebra) -> None:
        """Check direct sum, multiplicative closure, and that 1 is even."""
        n = algebra.dim
        if self.even.ambient_dim != n:
            raise InvalidGradingError("grading ambient dimension mismatch")
        if self.even.dim + self.odd.dim != n:
            raise InvalidGradingError("even + odd does not fill the algebra")
        partition = self.index_partition()
        if (Subspace(self.even.rows + self.odd.rows, n).dim != n if partition is None
                else not set(partition[0]).isdisjoint(partition[1])):
            raise InvalidGradingError("even and odd parts overlap")
        if algebra.unit is not None and not (self.even.contains(algebra.one()) if partition is None
                                             else algebra.unit in partition[0]):
            raise InvalidGradingError("unit is not in the even part")
        if partition is not None:
            odd = np.zeros(n, dtype=bool)
            odd[partition[1]] = True
            # [i, j, k]: C[i, j, k] != 0 though b_k lies outside the part of b_i b_j.
            escapes = (scaled_tensor(algebra).c != 0) & (odd != (odd[:, None] ^ odd)[:, :, None])
            bad = np.flatnonzero(escapes.any(axis=2))
            if bad.size:
                i, j = divmod(int(bad[0]), n)
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

    On construction the involution laws are checked exactly (see the
    module docstring), together with the doubling prerequisites: x + x* and
    x x* = x* x are scalar multiples of 1 for basis vectors and their
    pairwise sums.
    """

    __slots__ = ("algebra", "star")

    def __init__(self, algebra: Algebra, star: Sequence[Sequence]):
        if algebra.unit is None:
            raise NonUnitalError("involutive algebras must be unital")
        self.algebra = algebra
        self.star = mat(star)
        n = algebra.dim
        if len(self.star) != n or any(len(r) != n for r in self.star):
            raise DimensionMismatchError("star matrix has wrong shape")
        violation = involution_violation(algebra, self.star)
        if violation is not None:
            raise ValueError(violation)

    @property
    def dim(self) -> int:
        return self.algebra.dim


def cayley_dickson(b: InvolutiveAlgebra) -> InvolutiveAlgebra:
    """Double an involutive algebra; the result has dimension 2n."""
    inner = b.algebra
    n = inner.dim
    labels = None
    if n == 1 or inner.labels is not None and all(
        lab == "1" or lab.startswith("e") for lab in inner.labels
    ):
        labels = ("1",) + tuple(f"e{i}" for i in range(1, 2 * n))
    doubled = Algebra._of_table(doubled_table(inner, b.star), inner.unit, labels)
    star = [list(row) + [F0] * n for row in b.star]
    star += [[F0] * (n + i) + [-F1] + [F0] * (n - 1 - i) for i in range(n)]
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
# The largest k of a name J<k>: its table holds k^3 cells, 2^21 at k = 128.
MAX_SPIN_DIM = 128


def jordan_spin_algebra(dim: int) -> Algebra:
    """The commutative algebra with b_i b_j = -delta_ij on the imaginary part."""
    if dim < 1:
        raise UnknownAlgebraError("dimension must be >= 1")
    return normalized_basis_algebra(("1", *(f"e{i}" for i in range(1, dim))))


def normalized_basis_algebra(labels: Sequence[str], pairs=(), rows=()) -> Algebra:
    """The algebra with unit b_0, b_i^2 = -1 for i > 0, b_i b_j = -b_j b_i =
    rows[m] for (i, j) = pairs[m], and the other products of distinct b_i,
    b_j zero: the locally complex algebra of that normalized basis, written
    as integers over one denominator.  Its local-complexity check and its
    certificate, the standard basis, are kept on it from the start."""
    # A local import: properties imports this module.
    from .properties import LocallyComplexCertificate, LocallyComplexCheck

    ints, den = scaled_rows(rows)
    n = len(labels)
    c, d = np.zeros((n, n, n), dtype=object), np.arange(n)
    c[0, d, d] = c[d, 0, d] = den
    c[d[1:], d[1:], 0] = -den
    for (i, j), row in zip(pairs, ints):
        c[i, j], c[j, i] = row, [-x for x in row]
    algebra = Algebra._of_table(ScaledTensor(c, den), 0, labels)
    algebra._lc = LocallyComplexCheck(True, reason="dimension 1" if n == 1 else "")
    algebra._certificate = LocallyComplexCertificate(tuple(map(algebra.basis_element, range(n))))
    return algebra


def _negating_star(n: int) -> Matrix:
    return tuple(
        tuple((F1 if i == j == 0 else -F1 if i == j else F0) for j in range(n))
        for i in range(n)
    )


def named_algebra(name: str) -> NamedAlgebra:
    """Look up a built-in algebra by name.

    Accepted names: R, C, H, O, S, A5, A6 (aliases A0..A4 for the first
    five), TO and TS for the twisted octonions/sedenions, and J<k> for the
    k-dimensional spin-factor-like commutative algebra, 1 <= k <=
    ``MAX_SPIN_DIM``.  The result is shared between calls: it is immutable.
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
        if k > MAX_SPIN_DIM:
            raise UnknownAlgebraError(f"J<k> is built for k <= {MAX_SPIN_DIM}, got {k}")
        alg = jordan_spin_algebra(k)
        return NamedAlgebra(key, alg, _negating_star(k) if k > 1 else identity(1), None)
    return None
