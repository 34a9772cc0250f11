"""Structure-constant algebras over exact rationals.

An algebra is a dimension, one table -- an integer tensor C over one
denominator D with b_i * b_j = sum_k C[i, j, k] b_k / D
(:class:`cdalg.kernel.ScaledTensor`) -- and optionally the index of a basis
vector acting as the unit.  The public constructor scales rationals once;
producers that hold integers (the doubling, the change of basis, the file
reader) hand them over.  ``constants``, the ``Fraction``s C / D, is a
read-only view derived on first access, like every fact kept on an algebra
(:meth:`Algebra.derived`).  An :class:`Element` takes the same form:
integer coordinates over one positive denominator, in lowest terms, with
its ``Fraction``s ``coords`` a view derived on first access
(:class:`cdalg.linalg.Element`), so ``multiply`` reads and writes integers
only.  All values are immutable after construction and safe to share across
threads.

``change_of_basis`` does not multiply elements: the new constants are the
product table of the basis rows transported into their own basis, read off
the integer structure tensor by :func:`cdalg.kernel.table_in_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonUnitalError
from .kernel import INT64_LIMIT, ScaledTensor, closure_span, table_in_rows
from .linalg import Element, Subspace


def label_key(label: str) -> str:
    """A label as the element grammar reads it: case and underscores ignored."""
    return label.replace("_", "").lower()


class Algebra:
    """A finite-dimensional real algebra given by exact structure constants;
    the facts derived from its table are kept by :meth:`derived`."""

    __slots__ = ("dim", "unit", "labels", "_scaled", "_facts")

    def __init__(
        self,
        constants: Sequence[Sequence[Sequence]],
        unit: int | None = None,
        labels: Sequence[str] | None = None,
    ):
        self._init(ScaledTensor.of_rationals(constants), unit, labels)

    @classmethod
    def _of_table(cls, table: ScaledTensor, unit: int | None = None,
                  labels: Sequence[str] | None = None) -> "Algebra":
        """From a table whose producer already holds integers."""
        algebra = cls.__new__(cls)
        algebra._init(table, unit, labels)
        return algebra

    def _init(self, table: ScaledTensor, unit, labels) -> None:
        n = self.dim = len(table.c)
        self.unit = unit
        if labels is not None:
            if len(labels) != n:
                raise DimensionMismatchError("label count differs from dimension")
            self.labels = tuple(labels)
            keys = list(map(label_key, self.labels))
            if len(set(keys)) < n:
                i, j = next((keys.index(k), j) for j, k in enumerate(keys) if k in keys[:j])
                raise ValueError(f"labels {labels[i]!r} and {labels[j]!r} collide: labels match "
                                 "case-insensitively with underscores ignored")
        else:
            self.labels = None
        self._scaled = table
        self._facts = {}
        if unit is not None:
            if not 0 <= unit < n:
                raise DimensionMismatchError("unit index out of range")
            # 1 * b_i and b_i * 1 are the cells [unit, i] and [i, unit], D b_i scaled.
            c = table.c
            one = np.identity(n, dtype=c.dtype if table.den < INT64_LIMIT else object) * table.den
            left, right = (c[unit] != one).any(axis=1), (c[:, unit] != one).any(axis=1)
            bad = np.flatnonzero(left | right)
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"unit axiom fails: 1 * b_{i} != b_{i}" if left[i]
                                 else f"unit axiom fails: b_{i} * 1 != b_{i}")

    def derived(self, key: str, build):
        """The fact under ``key``: ``build(self)`` on the first call, kept and
        returned on every later one, since the table never changes."""
        facts = self._facts
        if key not in facts:
            facts[key] = build(self)
        return facts[key]

    @property
    def constants(self) -> tuple:
        """The constants as n x n x n tuples of ``Fraction``s, a view of the
        table derived on first access."""
        return self.derived("constants", _fraction_view)

    # -- constructors -------------------------------------------------

    def element(self, coords: Iterable) -> Element:
        el = Element(coords)
        if el.dim != self.dim:
            raise DimensionMismatchError(
                f"expected {self.dim} coordinates, got {el.dim}"
            )
        return el

    def basis_element(self, i: int) -> Element:
        return Element.of_ints([int(j == i) for j in range(self.dim)])

    def zero(self) -> Element:
        return Element.of_ints([0] * self.dim)

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
        """``x y``: Python-int sums over the rows ``C[i]`` with ``x_i != 0``
        and their cells ``j`` with ``y_j != 0``, over the denominator
        ``x.den * y.den * D``."""
        n = self.dim
        if x.dim != n or y.dim != n:
            raise DimensionMismatchError("element does not conform to algebra")
        ys = [(j, v) for j, v in enumerate(y.num) if v]
        c, out = self._scaled.c, [0] * n
        for i, a in enumerate(x.num):
            if not a:
                continue
            cells = c[i].tolist()
            for j, b in ys:
                f = a * b
                for k, ck in enumerate(cells[j]):
                    if ck:
                        out[k] += f * ck
        return Element.of_ints(out, x.den * y.den * self._scaled.den)

    def table_entry(self, i: int, j: int) -> Element:
        return Element.of_ints(self._scaled.c[i, j].tolist(), self._scaled.den)

    def is_commutative(self) -> bool:
        c = self._scaled.c
        return np.array_equal(c, c.transpose(1, 0, 2))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.unit == other.unit and self._scaled == other._scaled

    def __hash__(self) -> int:
        return hash((self.unit, self._scaled))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, unit={self.unit})"


def _fraction_view(algebra: Algebra) -> tuple:
    c, den = algebra._scaled.c, algebra._scaled.den
    frac = {v: Fraction(v, den) for v in set(c.ravel().tolist())}.__getitem__
    return tuple(tuple(tuple(map(frac, cell)) for cell in row) for row in c.tolist())


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
    u, coords = algebra.unit, x.coords
    lam = coords[u]
    i = next((i for i, c in enumerate(coords) if c and i != u), None)
    if i is None:
        return MinimalQuadratic("scalar", lam=lam, trace=2 * lam, norm=lam**2)
    # Solve x^2 = t x - n 1 at coordinate i and at the unit, then check it.
    sq = algebra.multiply(x, x)
    t = sq.coords[i] / coords[i]
    n = t * lam - sq.coords[u]
    if sq != x.scale(t) - algebra.one().scale(n):
        return MinimalQuadratic("not_quadratic")
    return MinimalQuadratic("quadratic", trace=t, norm=n)


def generator_rows(
    algebra: Algebra, gens: Sequence[Element], include_unit: bool = True
) -> list[Element]:
    """1 (when asked for) and the generators, checked against the algebra."""
    for g in gens:
        if g.dim != algebra.dim:
            raise DimensionMismatchError("generator does not conform to algebra")
    rows = list(gens)
    if include_unit:
        if algebra.unit is None:
            raise NonUnitalError("include_unit requires a unital algebra")
        rows.insert(0, algebra.one())
    return rows


def generated_subalgebra(
    algebra: Algebra, gens: Sequence[Element], include_unit: bool = True
) -> Subspace:
    """Smallest subspace containing the generators (and optionally 1) closed
    under multiplication.

    The closure modulo a prime on the integer structure tensor shows when
    the span is the whole algebra; any smaller span is closed exactly over
    Q (:func:`cdalg.kernel.closure_span`).
    """
    return closure_span(algebra, generator_rows(algebra, gens, include_unit))


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
    m = [Element(r) for r in basis_rows]
    if unit_index is None and algebra.unit is not None:
        one = algebra.one()
        unit_index = next((k for k, r in enumerate(m) if r == one), None)
    return Algebra._of_table(table_in_rows(algebra, m), unit_index, labels)
