"""Element-loop reference implementations of the kernel-backed checks.

These are the original ``Algebra.multiply`` loops over ``Fraction``
coordinates, kept as an independent oracle for ``cdalg.kernel``: the
alternativity sweep over basis vectors and pairwise sums, and the
double loop of the homomorphism check.  They are slow by design.
"""

from __future__ import annotations

from typing import Sequence

from cdalg import Algebra, Element
from cdalg.linalg import Matrix, mat_vec, transpose


def pair_family(vectors: Sequence[Element]) -> list[Element]:
    fam = list(vectors)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            fam.append(vectors[i] + vectors[j])
    return fam


def alternative_defect(algebra: Algebra, x: Element, y: Element) -> tuple[Element, Element]:
    x2 = algebra.multiply(x, x)
    left = algebra.multiply(x2, y) - algebra.multiply(x, algebra.multiply(x, y))
    right = algebra.multiply(y, x2) - algebra.multiply(algebra.multiply(y, x), x)
    return left, right


def first_defect(algebra: Algebra, rows: Sequence[Sequence]) -> tuple | None:
    """(u, y, law) of the first nonzero defect, u over the polarized family."""
    basis = [algebra.basis_element(i) for i in range(algebra.dim)]
    for u in pair_family([Element(r) for r in rows]):
        for y in basis:
            left, right = alternative_defect(algebra, u, y)
            if not left.is_zero():
                return u, y, "left"
            if not right.is_zero():
                return u, y, "right"
    return None


def is_alternative_witness(algebra: Algebra) -> tuple | None:
    basis = [algebra.basis_element(i).coords for i in range(algebra.dim)]
    return first_defect(algebra, basis)


def is_super_alternative_witness(algebra: Algebra, grading) -> tuple | None:
    grading.validate(algebra)
    for rows in (grading.even_rows, grading.odd_rows):
        witness = first_defect(algebra, rows)
        if witness is not None:
            return witness
    return None


def homomorphism_violation(iso: Matrix, source: Algebra, target: Algebra) -> tuple | None:
    n = source.dim
    if target.dim != len(iso) or any(len(r) != n for r in iso):
        return ("shape",)
    if source.unit is not None:
        if target.unit is None:
            return ("unit",)
        if mat_vec(iso, source.one().coords) != target.one().coords:
            return ("unit",)
    images = [Element(col) for col in transpose(iso)]
    for i in range(n):
        for j in range(n):
            lhs = target.zero()
            for k, c in enumerate(source.constants[i][j]):
                if c:
                    lhs = lhs + images[k].scale(c)
            rhs = target.multiply(images[i], images[j])
            if lhs.coords != rhs.coords:
                return (i, j)
    return None
