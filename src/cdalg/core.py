"""Structure-constant algebras over exact rationals.

An algebra is a dimension, a dense rank-3 tensor c[i][j][k] with
b_i * b_j = sum_k c[i][j][k] b_k, and optionally the index of a basis vector
acting as the unit.  Elements are exact rational coordinate vectors.  All
values are immutable after construction and safe to share across threads.

``change_of_basis`` does not multiply elements: the new constants are the
product table of the basis rows transported into their own basis, read off
the integer structure tensor by :func:`cdalg.kernel.table_in_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, NonUnitalError
from .linalg import (
    F0,
    F1,
    Subspace,
    Vector,
    is_zero_vec,
    unit_vector,
    vec,
)


@dataclass(frozen=True)
class Element:
    """An algebra element as an exact coordinate vector."""

    coords: Vector

    def __post_init__(self):
        c = self.coords
        if type(c) is not tuple or any(type(x) is not Fraction for x in c):
            object.__setattr__(self, "coords", vec(c))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(tuple(-a for a in self.coords))

    def scale(self, c) -> "Element":
        c = Fraction(c)
        return Element(tuple(c * a for a in self.coords))

    def _check(self, other: "Element") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"element dimensions differ: {self.dim} vs {other.dim}"
            )

    def __repr__(self) -> str:
        return f"Element({list(map(str, self.coords))})"


class Algebra:
    """A finite-dimensional real algebra given by exact structure constants."""

    __slots__ = ("dim", "constants", "unit", "labels", "_nonzero", "_scaled", "_lc")

    def __init__(
        self,
        constants: Sequence[Sequence[Sequence]],
        unit: int | None = None,
        labels: Sequence[str] | None = None,
    ):
        n = len(constants)
        tensor = tuple(
            tuple(vec(constants[i][j]) for j in range(n)) for i in range(n)
        )
        for i in range(n):
            if len(tensor[i]) != n or any(len(tensor[i][j]) != n for j in range(n)):
                raise DimensionMismatchError("structure tensor is not n x n x n")
        # Per-pair nonzero entries; iteration stays cheap for the sparse
        # tables of the doubling construction while storage remains dense.
        nonzero = tuple(
            tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in row)
            for row in tensor
        )
        self._init(tensor, nonzero, unit, labels)

    @classmethod
    def _from_cells(cls, tensor, nonzero, unit, labels) -> "Algebra":
        """From n x n x n ``Fraction`` tuples and each cell's nonzero entries,
        as the file reader builds them; only labels and the unit are checked."""
        algebra = cls.__new__(cls)
        algebra._init(tensor, nonzero, unit, labels)
        return algebra

    def _init(self, tensor, nonzero, unit, labels) -> None:
        n = len(tensor)
        self.dim = n
        self.constants = tensor
        self.unit = unit
        if labels is not None:
            if len(labels) != n:
                raise DimensionMismatchError("label count differs from dimension")
            self.labels = tuple(labels)
        else:
            self.labels = None
        self._nonzero = nonzero
        # Derived facts, computed on first use: the integer-scaled constants
        # for the exact kernels and the local-complexity check.
        self._scaled = None
        self._lc = None
        if unit is not None:
            if not 0 <= unit < n:
                raise DimensionMismatchError("unit index out of range")
            # 1 * b_i and b_i * 1 are the table entries [unit][i] and [i][unit].
            for i in range(n):
                bi = ((i, F1),)
                if nonzero[unit][i] != bi:
                    raise ValueError(f"unit axiom fails: 1 * b_{i} != b_{i}")
                if nonzero[i][unit] != bi:
                    raise ValueError(f"unit axiom fails: b_{i} * 1 != b_{i}")

    # -- constructors -------------------------------------------------

    def element(self, coords: Iterable) -> Element:
        el = Element(vec(coords))
        if el.dim != self.dim:
            raise DimensionMismatchError(
                f"expected {self.dim} coordinates, got {el.dim}"
            )
        return el

    def basis_element(self, i: int) -> Element:
        return Element(unit_vector(self.dim, i))

    def zero(self) -> Element:
        return Element((F0,) * self.dim)

    def one(self) -> Element:
        if self.unit is None:
            raise NonUnitalError("algebra has no unit")
        return self.basis_element(self.unit)

    def scalar(self, c) -> Element:
        return self.one().scale(c)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        if self.unit == i:
            return "1"
        return f"b{i}"

    # -- arithmetic ---------------------------------------------------

    def multiply(self, x: Element, y: Element) -> Element:
        if x.dim != self.dim or y.dim != self.dim:
            raise DimensionMismatchError("element does not conform to algebra")
        out = [F0] * self.dim
        xc, yc = x.coords, y.coords
        for i in range(self.dim):
            xi = xc[i]
            if not xi:
                continue
            row = self._nonzero[i]
            for j in range(self.dim):
                yj = yc[j]
                if not yj:
                    continue
                f = xi * yj
                for k, c in row[j]:
                    out[k] += f * c
        return Element(tuple(out))

    def table_entry(self, i: int, j: int) -> Element:
        return Element(self.constants[i][j])

    def is_commutative(self) -> bool:
        return all(
            self.constants[i][j] == self.constants[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.unit == other.unit
            and self.constants == other.constants
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.unit, self.constants))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, unit={self.unit})"


@dataclass(frozen=True)
class MinimalQuadratic:
    """Outcome of the degree-<=2 relation satisfied by a single element.

    kind is "scalar" (x = lam * 1, with the convention trace = 2 lam and
    norm = lam^2), "quadratic" (x^2 = trace * x - norm * 1 with x nonscalar),
    or "not_quadratic" (1, x, x^2 are independent).
    """

    kind: str
    lam: Fraction | None = None
    trace: Fraction | None = None
    norm: Fraction | None = None


def minimal_quadratic(algebra: Algebra, x: Element) -> MinimalQuadratic:
    """Trace and norm of x, if 1, x, x^2 are linearly dependent."""
    if algebra.unit is None:
        raise NonUnitalError("minimal_quadratic needs a unital algebra")
    if x.dim != algebra.dim:
        raise DimensionMismatchError("element does not conform to algebra")
    one = algebra.one().coords
    u = algebra.unit
    scalar_part = x.coords[u]
    if all(c == 0 for i, c in enumerate(x.coords) if i != u):
        return MinimalQuadratic(
            "scalar", lam=scalar_part, trace=2 * scalar_part, norm=scalar_part**2
        )
    sq = algebra.multiply(x, x).coords
    # Solve x^2 = t*x - n*1 coordinatewise.
    t = None
    for i, c in enumerate(x.coords):
        if i != u and c != 0:
            t = sq[i] / c
            break
    assert t is not None
    n = t * scalar_part - sq[u]
    for i in range(algebra.dim):
        if sq[i] != t * x.coords[i] - n * one[i]:
            return MinimalQuadratic("not_quadratic")
    return MinimalQuadratic("quadratic", trace=t, norm=n)


def generator_rows(
    algebra: Algebra, gens: Sequence[Element], include_unit: bool = True
) -> list[Vector]:
    """The coordinates of 1 (when asked for) and of the generators, checked
    against the algebra."""
    for g in gens:
        if g.dim != algebra.dim:
            raise DimensionMismatchError("generator does not conform to algebra")
    rows = [g.coords for g in gens]
    if include_unit:
        if algebra.unit is None:
            raise NonUnitalError("include_unit requires a unital algebra")
        rows.insert(0, algebra.one().coords)
    return rows


def generated_subalgebra(
    algebra: Algebra, gens: Sequence[Element], include_unit: bool = True
) -> Subspace:
    """Smallest subspace containing the generators (and optionally 1) closed
    under multiplication.

    The closure runs modulo a prime on the integer structure tensor, and a
    dimension below dim(A) is certified over Q or recomputed exactly
    (:func:`cdalg.kernel.closure_span`).  The kernel is imported here:
    importing it (and numpy) at the top of this module made `import cdalg`
    about 10 ms slower on CPython 3.11.
    """
    rows = generator_rows(algebra, gens, include_unit)
    from .kernel import closure_span

    return closure_span(algebra, rows)


def change_of_basis(algebra: Algebra, basis_rows: Sequence[Sequence[Fraction]],
                    unit_index: int | None = None,
                    labels: Sequence[str] | None = None) -> Algebra:
    """The same algebra expressed in a new basis.

    basis_rows[i] holds the coordinates (in the old basis) of the new basis
    vector b'_i.  The map b'_i -> old vector is an isomorphism onto the same
    algebra by construction.  The new constants are the product table of
    the rows transported into their own basis (:func:`cdalg.kernel.table_in_rows`).
    """
    n = algebra.dim
    if len(basis_rows) != n:
        raise DimensionMismatchError("need exactly dim basis vectors")
    m = tuple(vec(r) for r in basis_rows)
    from .kernel import table_in_rows  # see generated_subalgebra

    constants = table_in_rows(algebra, m)
    if unit_index is None and algebra.unit is not None:
        one = algebra.one().coords
        unit_index = next((k for k, r in enumerate(m) if r == one), None)
    return Algebra(constants, unit=unit_index, labels=labels)
