"""Element-loop reference implementations of the kernel-backed checks.

These are the original ``Algebra.multiply`` loops over ``Fraction``
coordinates, kept as an independent oracle for ``cdalg.kernel`` and the
closed forms built on it: the alternativity sweep over basis vectors and
pairwise sums and the alter-scalar nullspace over the same family, the
double loop of the homomorphism check, the cubic coefficient system of
quadraticity, the multiply-based imaginary basis, Gram matrix and
Gram-Schmidt of local complexity, the unit-square search that multiplies
every candidate and pair, the sum-of-squares searches without the 4^k
reduction, ``Fraction`` Gauss-Jordan elimination and determinant, the
``Fraction`` LDL of a symmetric form (pivoted, and unpivoted for the
definiteness witness), the ``Fraction`` matrix products (``mat_vec``, ``mat_mul``, ``transpose``) that
the library no longer uses, the annihilator and
subalgebra closure built from ``Algebra.multiply``, the round-based closure
over Z and the census that closes one candidate at a time with it, the
nicely-normed test that multiplies certificate vectors, the zero-divisor
search that builds every structured candidate up front and takes the kernel
of each, and the transports of the product table that multiply every pair
of rows -- change of basis, the induced algebra of a closed subspace, the
closure check of a grading -- the middle Moufang identity on the basis
cube, the dimension-16 branch of the classifier on dense elements, the
left and right multiplication matrices built from products with basis
vectors, and the three-pass file reader (parse every literal, then ``vec``
and the zero test in ``Algebra``) with the index grading's closure check
over all n^3 dense constants.  The alternativity sweep and the
homomorphism check are also kept on exact integers, never reduced modulo
primes, as the oracle of the multi-prime zero tests.  Two bounded
searches the library no longer runs stay here as oracles: the candidate
list for a "not quadratic" witness and the box search for a rational
isotropic vector of a 3x3 symmetric form.  The Cayley-Dickson doubling
and the involution laws are kept as the loops over basis pairs and
candidate elements that multiplied ``Element``s one product at a time.
``build_raw_3d``, ``build_4d`` and ``jordan_spin_algebra`` fill a dense
``Fraction`` tensor in a loop and hand it to the public ``Algebra``
constructor.
``equiv_4d_eigenframe`` is the float orbit comparison that aligned the
eigenframes of the symmetric parts before the invariant table replaced it.
``multiply`` is the ``Fraction`` loop that ``Algebra.multiply`` ran over
the dense constants before the table became an integer tensor, and
``commutators_are_imaginary`` the nicely-normed test without the rational
certificate, multiplied out with it.  Two checks the library itself never
runs live here as well: ``validate_certificate``, that a normalized basis
squares to -1 and anticommutes, and ``apply_star``, the star of an
involutive algebra applied to one element.  ``recognize_alternative_division``
and ``classify_super_alternative`` keep the gate-first order: the exact
alternativity sweep before the recognizer, and the even part of a grading
verified on its own before the final iso.  They are slow by design.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from cdalg import Algebra, Element
from cdalg.analysis import CensusEntry, CensusReport, ZeroDivisorSearch, _lowdim_exact_route
from cdalg.core import minimal_quadratic
from cdalg.construct import Grading
from cdalg.errors import (
    DimensionMismatchError,
    InconsistentInputError,
    InvalidGradingError,
    MalformedInputError,
    NonUnitalError,
    NotAlternativeError,
    NotLocallyComplexError,
    UnknownAlgebraError,
    UnsupportedRationalClassError,
)
from cdalg.fileio import _index_from_json, _is_list_of
from cdalg.linalg import (
    F0,
    F1,
    Matrix,
    Subspace,
    Vector,
    identity,
    mat,
    scaled_rows,
    unit_vector,
    vec,
)
from cdalg.kernel import anticommutator_table, product_table, scaled_tensor
from cdalg.lowdim import Equiv4Result, _cross, _dot, _sym_eigen, skew_axis
from cdalg.numth import four_squares_fraction, sqrt_fraction
from cdalg.properties import (
    LocallyComplexCertificate,
    LocallyComplexCheck,
    QuadraticCheck,
    _dependent_with_unit,
)


def pair_family(vectors: Sequence[Element]) -> list[Element]:
    fam = list(vectors)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            fam.append(vectors[i] + vectors[j])
    return fam


class FractionElement:
    """An element as a tuple of ``Fraction``s, with its arithmetic done
    coordinate by coordinate in ``Fraction``s: the oracle for the library's
    Element, which holds integers over one denominator."""

    def __init__(self, coords):
        self.coords = tuple(Fraction(c) for c in coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other):
        return FractionElement(a + b for a, b in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other):
        return FractionElement(a - b for a, b in zip(self.coords, other.coords, strict=True))

    def __neg__(self):
        return FractionElement(-a for a in self.coords)

    def scale(self, c):
        return FractionElement(Fraction(c) * a for a in self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)


def multiply(algebra: Algebra, x: Element, y: Element) -> Element:
    """``x y`` summed in ``Fraction``s over the nonzero constants of each
    cell ``(i, j)`` with ``x_i y_j != 0``."""
    n = algebra.dim
    if x.dim != n or y.dim != n:
        raise DimensionMismatchError("element does not conform to algebra")
    out = [F0] * n
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            f = xi * yj
            for k, c in enumerate(algebra.constants[i][j]):
                if c:
                    out[k] += f * c
    return Element(tuple(out))


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


def alter_scalar_space(algebra: Algebra) -> Matrix:
    """Reduced rows spanning every a with x^2 a = x(xa) for all x: the
    nullspace of the maps a -> x^2 a - x(xa) for x over the basis and its
    pairwise sums, each written column by column from the basis."""
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    rows = []
    for x in pair_family(basis):
        x2 = algebra.multiply(x, x)
        cols = [(algebra.multiply(x2, a) - algebra.multiply(x, algebra.multiply(x, a))).coords
                for a in basis]
        rows += [[col[k] for col in cols] for k in range(n)]
    return nullspace(rows, n)


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


# ---------------------------------------------------------------------------
# the kernel's zero tests on exact integers, never modulo primes
# ---------------------------------------------------------------------------


def alternativity_defect_ints(algebra: Algebra, rows: Sequence[Sequence]) -> tuple | None:
    """``first_alternativity_defect`` from exact defect matrices, one member
    at a time.

    The constants are scaled to Python ints over their common denominator,
    and the rows over theirs; for each ``u`` of the polarized family the
    matrices ``L_u[k, j] = (u b_j)_k`` and ``R_u[k, j] = (b_j u)_k`` give the
    defects ``L_{u^2} - L_u L_u`` and ``R_{u^2} - R_u R_u``, whose column
    ``c`` is the defect at ``y = b_c`` times a positive integer.
    """
    n = algebra.dim
    flat = [c for row in algebra.constants for cell in row for c in cell]
    d = lcm(*(c.denominator for c in flat))
    c = np.array([x.numerator * (d // x.denominator) for x in flat], dtype=object)
    c = c.reshape(n, n, n)
    entries = [Fraction(x) for r in rows for x in r]
    s = lcm(*(x.denominator for x in entries))
    ints = [x.numerator * (s // x.denominator) for x in entries]
    basis = [np.array(ints[i * n:(i + 1) * n], dtype=object) for i in range(len(rows))]
    family = [(p, None, basis[p]) for p in range(len(rows))]
    family += [(p, q, basis[p] + basis[q])
               for p in range(len(rows)) for q in range(p + 1, len(rows))]

    def left_mul(u):  # [k, j] = sum_a u_a C[a, j, k]
        return np.array([[sum(u[a] * c[a, j, k] for a in range(n)) for j in range(n)]
                         for k in range(n)], dtype=object)

    def right_mul(u):  # [k, j] = sum_a u_a C[j, a, k]
        return np.array([[sum(u[a] * c[j, a, k] for a in range(n)) for j in range(n)]
                         for k in range(n)], dtype=object)

    for p, q, u in family:
        lu, ru = left_mul(u), right_mul(u)
        u2 = lu.dot(u)
        bad_left = (left_mul(u2) - lu.dot(lu) != 0).any(axis=0)
        bad = bad_left | (right_mul(u2) - ru.dot(ru) != 0).any(axis=0)
        if bad.any():
            col = int(bad.argmax())
            return p, q, col, "left" if bad_left[col] else "right"
    return None


def homomorphism_violation_ints(iso: Matrix, source: Algebra, target: Algebra) -> tuple | None:
    """``first_homomorphism_violation`` on Python ints, one row i at a time."""
    n, m = source.dim, target.dim
    src, tgt = scaled_tensor(source), scaled_tensor(target)
    entries = [Fraction(c) for row in iso for c in row]
    s = lcm(*(c.denominator for c in entries))
    f = np.array([c.numerator * (s // c.denominator) for c in entries], dtype=object)
    f = f.reshape(m, n)
    g = gcd(s * tgt.den, src.den)
    lhs_scale, rhs_scale = s * tgt.den // g, src.den // g
    c_src, c_tgt = src.array(np.dtype(object)), tgt.array(np.dtype(object))
    for i in range(n):
        lhs = c_src[i] @ f.T
        rhs = f.T @ np.tensordot(f[:, i], c_tgt, axes=(0, 0))
        bad = (lhs * lhs_scale != rhs * rhs_scale).any(axis=1)
        if bad.any():
            return i, int(bad.argmax())
    return None


# ---------------------------------------------------------------------------
# local complexity: the cubic-coefficient quadraticity system and the
# multiply-based imaginary basis, Gram matrix and Gram-Schmidt
# ---------------------------------------------------------------------------


def _square_coefficient_forms(algebra: Algebra) -> list[dict]:
    """Coordinate k of x^2 as the quadratic form sum q[k][(a,b)] x_a x_b, a <= b."""
    n = algebra.dim
    forms: list[dict] = [dict() for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k, c in enumerate(algebra.constants[a][b]):
                if c == 0:
                    continue
                key = (a, b) if a <= b else (b, a)
                forms[k][key] = forms[k].get(key, F0) + c
    return forms


def _quadratic_witness(algebra: Algebra) -> Element | None:
    """A concrete x with 1, x, x^2 independent, by a small deterministic search."""
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    candidates: list[Element] = list(basis)
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(basis[i] + basis[j])
            candidates.append(basis[i] - basis[j])
    for scale in (1, 2, 3):
        for i in range(n):
            for j in range(n):
                if i != j:
                    candidates.append(basis[i].scale(scale) + basis[j])
    for x in candidates:
        if not _dependent_with_unit(algebra, x):
            return x
    return None


def is_quadratic(algebra: Algebra) -> QuadraticCheck:
    """All cubic coefficients of x_i q_j(x) - x_j q_i(x), over non-unit
    index pairs, must vanish."""
    if algebra.unit is None:
        raise NonUnitalError("quadraticity is defined for unital algebras")
    n = algebra.dim
    u = algebra.unit
    if n <= 2:
        return QuadraticCheck(True)
    forms = _square_coefficient_forms(algebra)
    for i in range(n):
        for j in range(i + 1, n):
            if u in (i, j):
                continue
            cubic: dict = {}
            for (a, b), c in forms[j].items():
                key = tuple(sorted((i, a, b)))
                cubic[key] = cubic.get(key, F0) + c
            for (a, b), c in forms[i].items():
                key = tuple(sorted((j, a, b)))
                cubic[key] = cubic.get(key, F0) - c
            if any(c != 0 for c in cubic.values()):
                witness = _quadratic_witness(algebra)
                if witness is None:
                    raise InconsistentInputError("cubic system is nonzero but no witness")
                return QuadraticCheck(False, witness)
    return QuadraticCheck(True)


def imaginary_basis(algebra: Algebra) -> list[Element]:
    out = []
    for i in range(algebra.dim):
        if i == algebra.unit:
            continue
        mq = minimal_quadratic(algebra, algebra.basis_element(i))
        if mq.kind == "not_quadratic":
            raise InconsistentInputError(f"basis vector {i} has no quadratic relation")
        shift = (mq.trace or F0) / 2
        out.append(algebra.basis_element(i) - algebra.one().scale(shift))
    return out


def _scalar_coefficient(algebra: Algebra, x: Element):
    u = algebra.unit
    if any(c != 0 for i, c in enumerate(x.coords) if i != u):
        return None
    return x.coords[u]


def inner_product(algebra: Algebra, a: Element, b: Element):
    lam = _scalar_coefficient(algebra, algebra.multiply(a, b) + algebra.multiply(b, a))
    if lam is None:
        raise InconsistentInputError("uv + vu is not scalar on the imaginary part")
    return -lam / 2


def inner_product_gram(algebra: Algebra, vectors: Sequence[Element]) -> Matrix:
    return tuple(tuple(inner_product(algebra, a, b) for b in vectors) for a in vectors)


def orthonormalize(algebra: Algebra, vectors: Sequence[Element]) -> list[Element] | None:
    done: list[Element] = []
    pending = list(vectors)
    while pending:
        for idx, cand in enumerate(pending):
            v = cand
            for e in done:
                v = v - e.scale(inner_product(algebra, v, e))
            if v.is_zero():
                pending.pop(idx)
                break
            root = sqrt_fraction(inner_product(algebra, v, v))
            if root is not None and root != 0:
                done.append(v.scale(F1 / root))
                pending.pop(idx)
                break
        else:
            return None
    return done


def is_locally_complex(algebra: Algebra) -> LocallyComplexCheck:
    if algebra.unit is None:
        raise NonUnitalError("local complexity is defined for unital algebras")
    if algebra.dim == 1:
        return LocallyComplexCheck(True, reason="dimension 1")
    q = is_quadratic(algebra)
    if not q.holds:
        return LocallyComplexCheck(
            False,
            counterexample=q.witness,
            counterexample_kind="independent-square",
            reason="not quadratic",
        )
    imag = imaginary_basis(algebra)
    direction = nonpositive_direction(inner_product_gram(algebra, imag))
    if direction is not None:
        bad = algebra.zero()
        for c, v in zip(direction, imag):
            if c:
                bad = bad + v.scale(c)
        lam = _scalar_coefficient(algebra, algebra.multiply(bad, bad))
        kind = "nonpositive-norm"
        witness = bad
        if lam == 0:
            kind = "square-zero"
        elif lam is not None and lam > 0:
            root = sqrt_fraction(lam)
            if root is not None:
                witness = (algebra.one() - bad.scale(F1 / root)).scale(Fraction(1, 2))
                kind = "idempotent"
        return LocallyComplexCheck(
            False,
            counterexample=witness,
            counterexample_kind=kind,
            reason="norm form is not positive definite",
        )
    return LocallyComplexCheck(True)


def normalized_basis(algebra: Algebra) -> LocallyComplexCertificate | None:
    """Gram-Schmidt on square lengths over the multiply-based imaginary
    basis of a locally complex algebra, or None where no vector left has a
    rational square length."""
    ortho = orthonormalize(algebra, imaginary_basis(algebra))
    return None if ortho is None else LocallyComplexCertificate((algebra.one(), *ortho))


def validate_certificate(cert: LocallyComplexCertificate, algebra: Algebra) -> None:
    """Raise ValueError unless ``cert`` starts with the unit and its other
    vectors square to -1 and anticommute pairwise: the squares first, then
    the pairs in row-major order."""
    if cert.basis[0] != algebra.one():
        raise ValueError("certificate must start with the unit")
    # e_i e_j + e_j e_i over the table's scale s: -2 s at the unit for
    # i = j, and 0 for i != j.
    e, u = cert.basis[1:], algebra.unit
    table, s = anticommutator_table(algebra, e, e)
    for i, row in enumerate(table, start=1):
        if row[i - 1] != [-2 * s * (k == u) for k in range(algebra.dim)]:
            raise ValueError(f"certificate vector {i} does not square to -1")
    for i, j in combinations(range(1, len(cert.basis)), 2):
        if any(table[i - 1][j - 1]):
            raise ValueError(f"certificate vectors {i},{j} do not anticommute")


# ---------------------------------------------------------------------------
# unit-square search: one multiply per square, two per anticommutator
# ---------------------------------------------------------------------------


def _square_scalar(algebra: Algebra, x: Element):
    return _scalar_coefficient(algebra, algebra.multiply(x, x))


def _anticommute(algebra: Algebra, a: Element, b: Element) -> bool:
    return (algebra.multiply(a, b) + algebra.multiply(b, a)).is_zero()


def find_unit_square_vector(algebra, space, anticommute_with=(), closure=None) -> Element:
    if anticommute_with:
        rows = []
        for e in anticommute_with:
            le, re = left_mul_matrix(algebra, e), right_mul_matrix(algebra, e)
            rows.extend(
                tuple(le[r][c] + re[r][c] for c in range(algebra.dim))
                for r in range(algebra.dim)
            )
        constraint = mat_mul(rows, transpose([v.coords for v in space]))
        restricted = []
        for coeffs in nullspace(constraint, len(space)):
            w = algebra.zero()
            for c, v in zip(coeffs, space):
                if c:
                    w = w + v.scale(c)
            restricted.append(w)
        space = restricted
    candidates = list(space)
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            candidates += [space[i] + space[j], space[i] - space[j]]
    candidates = [c for c in candidates if not c.is_zero()]

    def finish(x):
        sq = _square_scalar(algebra, x)
        if sq is None or sq >= 0:
            return None
        root = sqrt_fraction(-sq)
        if root is None:
            return None
        out = x.scale(F1 / root)
        if not all(_anticommute(algebra, out, e) for e in anticommute_with):
            return None
        return out

    for cand in candidates:
        out = finish(cand)
        if out is not None:
            return out
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            if _anticommute(algebra, a, b):
                out = finish(algebra.multiply(a, b))
                if out is not None:
                    return out
    if closure is not None:
        for cand in candidates:
            sq = _square_scalar(algebra, cand)
            if sq is None or sq >= 0:
                continue
            target = F1 / (-sq)
            if len(closure) == 2:
                decomp = two_squares_fraction(target)
            else:
                decomp = four_squares_fraction(target)
            if decomp is None:
                continue
            p = algebra.zero()
            for c, b in zip(decomp, closure):
                if c:
                    p = p + b.scale(c)
            out = finish(algebra.multiply(cand, p))
            if out is not None:
                return out
    raise UnsupportedRationalClassError("no rational vector of square -1 found")


# ---------------------------------------------------------------------------
# the dimension-16 branch of the classifier, on dense elements
# ---------------------------------------------------------------------------


def classify_sedenion_like(algebra: Algebra, e_std: list, odd_elements: list[Element]):
    """Remedy an odd vector, normalize, read the sign: every product is an
    ``Algebra.multiply`` of dense elements."""

    def lmul(a: Element, b: Element) -> Element:
        return algebra.multiply(a, b)

    def remedy(p: Element, i: int, j: int) -> Element:
        eij = lmul(e_std[i], e_std[j])
        return p + lmul(eij, lmul(e_std[i], lmul(e_std[j], p)))

    def relation_sign(y: Element, i: int, j: int) -> int | None:
        eij = lmul(e_std[i], e_std[j])
        lhs = lmul(eij, y)
        rhs = lmul(e_std[i], lmul(e_std[j], y))
        if (lhs + rhs).is_zero():
            return -1
        if (lhs - rhs).is_zero():
            return 1
        return None

    candidates = list(odd_elements)
    for p in range(len(odd_elements)):
        for q in range(p + 1, len(odd_elements)):
            candidates += [odd_elements[p] + odd_elements[q], odd_elements[p] - odd_elements[q]]
    last_error = "no odd starting vector produced a normalizable result"
    for start in candidates:
        if start.is_zero():
            continue
        v = remedy(start, 1, 2)
        if v.is_zero():
            v = lmul(e_std[3], start)
        w = remedy(v, 1, 4)
        if w.is_zero():
            w = lmul(e_std[2], v)
        x = remedy(w, 2, 4)
        if x.is_zero():
            x = lmul(e_std[1], w)
        y = remedy(x, 3, 4)
        if y.is_zero():
            y = x
        if y.is_zero():
            continue
        sq = _square_scalar(algebra, y)
        if sq is None or sq >= 0:
            continue
        root = sqrt_fraction(-sq)
        if root is None:
            last_error = (
                "remedied odd vector has square "
                f"{sq}, whose negative is not a perfect rational square"
            )
            continue
        f8 = y.scale(F1 / root)
        if (
            relation_sign(f8, 1, 2) != -1
            or relation_sign(f8, 1, 4) != -1
            or relation_sign(f8, 2, 4) != -1
        ):
            continue
        sign = relation_sign(f8, 3, 4)
        if sign is None:
            continue
        basis = [algebra.one()] + e_std[1:] + [f8] + [lmul(e_std[i], f8) for i in range(1, 8)]
        return ("TS" if sign == 1 else "S", basis)
    raise UnsupportedRationalClassError(last_error)


# ---------------------------------------------------------------------------
# the recognizers gate first: the exact sweep before the recognizer, and the
# even part of a grading recognized and verified on its own
# ---------------------------------------------------------------------------


def recognize_alternative_division(algebra: Algebra):
    """Alternativity by the exact sweep, then local complexity, then the
    recognizer and its verified iso."""
    from cdalg.properties import is_alternative, is_locally_complex

    if not is_alternative(algebra).holds:
        raise NotAlternativeError("input is not alternative")
    if not is_locally_complex(algebra).holds:
        raise NotLocallyComplexError("input is not locally complex")
    return _recognize_division(algebra)


def _recognize_division(algebra: Algebra):
    from cdalg.analysis import RecognitionResult, find_unit_square_vector, verify_iso
    from cdalg.construct import named_algebra
    from cdalg.properties import imaginary_basis

    n = algebra.dim
    if n not in (1, 2, 4, 8):
        raise InconsistentInputError(
            f"alternative locally complex algebras cannot have dimension {n}"
        )
    if n == 1:
        result = RecognitionResult("R", identity(1))
        verify_iso(result.iso, algebra, named_algebra("R").algebra)
        return result
    imag = imaginary_basis(algebra)
    e1 = find_unit_square_vector(algebra, imag)
    basis = [algebra.one(), e1]
    tag = "C"
    if n >= 4:
        e2 = find_unit_square_vector(
            algebra, imag, anticommute_with=[e1], closure=[algebra.one(), e1]
        )
        basis += [e2, algebra.multiply(e1, e2)]
        tag = "H"
    if n == 8:
        e4 = find_unit_square_vector(algebra, imag, anticommute_with=basis[1:], closure=basis[:4])
        basis += [e4] + [algebra.multiply(basis[k], e4) for k in (1, 2, 3)]
        tag = "O"
    iso = mat_inv(transpose([b.coords for b in basis]))
    verify_iso(iso, algebra, named_algebra(tag).algebra)
    return RecognitionResult(tag, iso)


def classify_super_alternative(algebra: Algebra, grading):
    """The grading, local complexity and the exact super-alternativity sweep
    first; then the even part recognized and verified, its iso inverted for
    the standard generators, and the whole basis verified once more."""
    from cdalg.analysis import (
        RecognitionResult,
        _classify_sedenion_like,
        _even_part_rows,
        _induced_algebra,
        find_unit_square_vector,
        verify_iso,
    )
    from cdalg.construct import named_algebra
    from cdalg.linalg import mat_inv
    from cdalg.properties import (
        combination,
        is_locally_complex,
        is_super_alternative,
    )

    grading.validate(algebra)
    if not is_locally_complex(algebra).holds:
        raise NotLocallyComplexError("input is not locally complex")
    if not is_super_alternative(algebra, grading).holds:
        raise NotAlternativeError("input is not super-alternative for this grading")
    if grading.odd.dim == 0:
        return _recognize_division(algebra)
    if grading.even.dim != grading.odd.dim:
        raise InconsistentInputError(
            "nonzero odd part must match the even part's dimension"
        )
    even_rows = _even_part_rows(algebra, grading)
    rec0 = _recognize_division(_induced_algebra(algebra, even_rows))
    inv0 = mat_inv(rec0.iso)
    even_elements = [Element(r) for r in even_rows]

    def even_std(k: int) -> Element:
        return combination(algebra, [row[k] for row in inv0], even_elements)

    odd_elements = [Element(r) for r in grading.odd_rows]
    one = algebra.one()
    if rec0.tag == "R":
        basis = [one, find_unit_square_vector(algebra, odd_elements)]
        tag = "C"
    elif rec0.tag == "C":
        i_hat = even_std(1)
        f = find_unit_square_vector(algebra, odd_elements, closure=[one, i_hat])
        basis = [one, i_hat, f, algebra.multiply(i_hat, f)]
        tag = "H"
    elif rec0.tag == "H":
        i_hat, j_hat, k_hat = even_std(1), even_std(2), even_std(3)
        f = find_unit_square_vector(algebra, odd_elements, closure=[one, i_hat, j_hat, k_hat])
        p = algebra.multiply(i_hat, algebra.multiply(j_hat, f))
        q = algebra.multiply(k_hat, f)
        lam = next((a / b for a, b in zip(p.coords, q.coords) if b != 0), None)
        if lam not in (1, -1) or p.coords != q.scale(lam).coords:
            raise InconsistentInputError("i(jf) is not +-kf; classification impossible")
        basis = [one, i_hat, j_hat, k_hat, f] + [algebra.multiply(e, f) for e in (i_hat, j_hat, k_hat)]
        tag = "TO" if lam == 1 else "O"
    else:
        tag, basis = _classify_sedenion_like(
            algebra, [None] + [even_std(k) for k in range(1, 8)], odd_elements
        )
    iso = mat_inv(transpose([b.coords for b in basis]))
    verify_iso(iso, algebra, named_algebra(tag).algebra)
    return RecognitionResult(tag, iso)


# ---------------------------------------------------------------------------
# sums of squares: plain descending searches, largest leading term first
# ---------------------------------------------------------------------------


def two_squares(n: int) -> tuple[int, int] | None:
    if n < 0:
        return None
    a = isqrt(n)
    while a * a * 2 >= n:
        rest = n - a * a
        b = isqrt(rest)
        if b * b == rest:
            return (a, b)
        a -= 1
    return None


def two_squares_fraction(q: Fraction) -> tuple[Fraction, Fraction] | None:
    """q = a^2 + b^2 over the rationals, or None: the two-square split of the
    reference unit-square search."""
    if q < 0:
        return None
    pair = two_squares(q.numerator * q.denominator)
    if pair is None:
        return None
    return (Fraction(pair[0], q.denominator), Fraction(pair[1], q.denominator))


def three_squares(n: int) -> tuple[int, int, int] | None:
    if n < 0:
        return None
    m = n
    while m and m % 4 == 0:
        m //= 4
    if m % 8 == 7:  # Legendre: 4^a (8b + 7) is not a sum of three squares
        return None
    for a in range(isqrt(n), -1, -1):
        two = two_squares(n - a * a)
        if two is not None:
            return (a, *two)
    return None


def four_squares(n: int) -> tuple[int, int, int, int]:
    for a in range(isqrt(n), -1, -1):
        three = three_squares(n - a * a)
        if three is not None:
            return (a, *three)
    raise AssertionError("every n >= 0 is a sum of four squares")


# ---------------------------------------------------------------------------
# exact linear algebra: Gauss-Jordan elimination on Fraction rows
# ---------------------------------------------------------------------------


def rref(rows) -> tuple[Matrix, tuple[int, ...]]:
    work = [[Fraction(x) for x in row] for row in rows if any(x != 0 for x in row)]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = F1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows, ncols: int) -> Matrix:
    reduced, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [F0] * ncols
        v[fc] = F1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return rref(basis)[0]


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
    return tuple(mat_vec(bt, tuple(row)) for row in a)


def transpose(m: Sequence[Sequence[Fraction]]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in col) for col in zip(*m))


def mat_inv(m) -> Matrix:
    n = len(m)
    aug = [list(row) + [F1 if i == j else F0 for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = rref(aug)
    if len(reduced) != n or any(p != i for i, p in enumerate(pivots)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def det(m) -> Fraction:
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    result = F1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot_row is None:
            return F0
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            result = -result
        result *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def congruence_diagonal(m) -> tuple[Vector, Matrix]:
    """Pivots d and rows L with L M L^T = diag(d), for symmetric rational M:
    the ``Fraction`` LDL with symmetric pivoting that the library runs on
    integers.  Each step pivots on the first remaining nonzero diagonal
    entry; when every remaining diagonal entry is zero but the block is not,
    row i becomes row i + row j for the first nonzero (i, j).  Once the
    remaining block is zero its rows are kernel vectors of M, with pivot 0.
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


def nonpositive_direction(m) -> Vector | None:
    """A rational x with x^T M x <= 0 for symmetric M, or None when M is
    positive definite: the unpivoted ``Fraction`` LDL, stopped at the first
    pivot that is not positive.  x is that row of the unit lower triangular
    transform, so it is 1 at its own index."""
    n = len(m)
    a = [list(vec(row)) for row in m]
    rows = [list(unit_vector(n, i)) for i in range(n)]
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return tuple(rows[k])
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return None


def in_span(reduced: Matrix, v) -> bool:
    """Membership in the span of reduced echelon rows, by subtraction."""
    rem = [Fraction(x) for x in v]
    for row in reduced:
        pc = next(i for i, x in enumerate(row) if x != 0)
        f = rem[pc]
        rem = [a - f * b for a, b in zip(rem, row)]
    return all(x == 0 for x in rem)


def left_mul_matrix(algebra: Algebra, x: Element) -> Matrix:
    """M with M @ coords(y) = coords(x * y), column j = x b_j."""
    cols = [algebra.multiply(x, algebra.basis_element(j)).coords for j in range(algebra.dim)]
    return tuple(tuple(cols[j][k] for j in range(algebra.dim)) for k in range(algebra.dim))


def right_mul_matrix(algebra: Algebra, x: Element) -> Matrix:
    """M with M @ coords(y) = coords(y * x), column j = b_j x."""
    cols = [algebra.multiply(algebra.basis_element(j), x).coords for j in range(algebra.dim)]
    return tuple(tuple(cols[j][k] for j in range(algebra.dim)) for k in range(algebra.dim))


def annihilator(algebra: Algebra, x: Element) -> Matrix:
    """Canonical basis of {y : xy = 0} from the Fraction left-multiplication matrix."""
    return nullspace(left_mul_matrix(algebra, x), algebra.dim)


def generated_subalgebra(algebra: Algebra, gens, include_unit: bool = True) -> Matrix:
    """Echelon basis of the closure, with every product multiplied out."""
    span = rref([g.coords for g in gens] + ([algebra.one().coords] if include_unit else []))[0]
    while True:
        products = [algebra.multiply(Element(a), Element(b)).coords for a in span for b in span]
        grown = rref(list(span) + products)[0]
        if len(grown) == len(span):
            return span
        span = grown


def generated_subalgebra_rounds(algebra: Algebra, gens, include_unit: bool = True) -> Subspace:
    """The closure one candidate at a time over Z: each round re-eliminates
    the echelon rows together with all k^2 of their products, read off the
    integer tensor, until the rank stops growing or reaches dim(A)."""
    seed = [g.coords for g in gens] + ([algebra.one().coords] if include_unit else [])
    span = Subspace(seed, algebra.dim)
    while span.dim < algebra.dim:
        basis = span.rows
        table, _ = product_table(algebra, basis, basis)
        grown = Subspace(list(basis) + table.reshape(-1, algebra.dim).tolist(), algebra.dim)
        if grown.dim == span.dim:
            break
        span = grown
    return span


def subalgebra_census(algebra: Algebra, dims_of_interest, budget: int = 100, seed: int = 0,
                      extra_generator_sets=()) -> CensusReport:
    """The census closing one candidate after another with
    :func:`generated_subalgebra_rounds`, in the candidate order and with the
    early exit of the pair loop."""
    realized: dict = {}

    def record(gens) -> None:
        for g in gens:
            if g.dim != algebra.dim:
                raise DimensionMismatchError("generator does not conform to algebra")
        if algebra.unit is None:
            raise NonUnitalError("include_unit requires a unital algebra")
        d = generated_subalgebra_rounds(algebra, list(gens)).dim
        if d not in realized:
            realized[d] = CensusEntry(d, tuple(gens))

    for gens in extra_generator_sets:
        record(gens)
    record([])
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    for b in basis:
        record([b])
    for i in range(n):
        for j in range(i + 1, n):
            record([basis[i] + basis[j]])
            record([basis[i] - basis[j]])
            if len(realized) >= n:
                break
    rng = random.Random(seed)
    for _ in range(budget):
        gens = [
            Element(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)))
            for _ in range(rng.randint(1, 2))
        ]
        record(gens)
    return CensusReport(tuple(dims_of_interest), realized)


# ---------------------------------------------------------------------------
# nicely normed and the zero-divisor search
# ---------------------------------------------------------------------------


def is_nicely_normed(algebra: Algebra) -> bool:
    """Every product e_i e_j (i != j) of the certificate basis, multiplied
    out and read in certificate coordinates, has real coordinate 0."""
    if algebra.unit is None:
        raise NonUnitalError("nicely normed is defined for unital algebras")
    if algebra.dim == 1:
        return True
    res = is_locally_complex(algebra)
    if not res.holds:
        return False
    cert = normalized_basis(algebra)
    if cert is None:
        raise UnsupportedRationalClassError(
            "cannot test nicely normed without a rational normalized basis"
        )
    basis = cert.basis
    to_cert = mat_inv(transpose([b.coords for b in basis]))
    m = len(basis)
    for i in range(1, m):
        for j in range(1, m):
            if i == j:
                continue
            p = algebra.multiply(basis[i], basis[j])
            if mat_vec(to_cert, p.coords)[0] != 0:
                return False
    return True


def commutators_are_imaginary(algebra: Algebra) -> bool:
    """For a locally complex algebra: no commutator ``[v_i, v_j]`` of the
    multiply-based imaginary basis has a real part.  With
    ``v_k = b_k - (t_k / 2) 1`` the real part of ``x`` is
    ``x_u + sum_{k != u} x_k t_k / 2``."""
    u = algebra.unit
    basis = imaginary_basis(algebra)
    half_traces = {k: -v.coords[u] for k, v in zip(
        (i for i in range(algebra.dim) if i != u), basis)}
    for a in basis:
        for b in basis:
            x = multiply(algebra, a, b) - multiply(algebra, b, a)
            if x.coords[u] + sum(x.coords[k] * t for k, t in half_traces.items()):
                return False
    return True


def zero_divisor_search(algebra: Algebra, budget: int = 10_000, seed: int = 0):
    """All structured candidates built first, then the seeded random ones,
    each tried by the kernel of its multiply-built left multiplication."""
    exact = _lowdim_exact_route(algebra)
    if exact is not None:
        return exact
    n = algebra.dim
    tried = 0
    basis = [algebra.basis_element(i) for i in range(n)]
    structured = list(basis)
    for i in range(n):
        for j in range(i + 1, n):
            structured.append(basis[i] - basis[j])
            structured.append(basis[i] + basis[j])
    extra = []
    for i in range(0, len(structured), 7):
        for j in range(i + 1, min(i + 4, len(structured))):
            extra.append(algebra.multiply(structured[i], structured[j]))

    def partner(x):
        if x.is_zero():
            return None
        ker = annihilator(algebra, x)
        return Element(ker[0]) if ker else None

    for x in structured + extra:
        tried += 1
        y = partner(x)
        if y is not None:
            return ZeroDivisorSearch("found", (x, y), definitive=True, tried=tried)
    rng = random.Random(seed)
    for _ in range(budget):
        tried += 1
        x = Element(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)))
        y = partner(x)
        if y is not None:
            return ZeroDivisorSearch("found", (x, y), definitive=True, tried=tried)
    return ZeroDivisorSearch("exhausted", tried=tried)


# ---------------------------------------------------------------------------
# transports of the product table and the middle Moufang cube
# ---------------------------------------------------------------------------


def change_of_basis(algebra: Algebra, basis_rows, unit_index=None, labels=None) -> Algebra:
    """Every product of two new basis vectors multiplied out and mapped to
    new coordinates by the inverse of the matrix with the rows as columns."""
    n = algebra.dim
    if len(basis_rows) != n:
        raise DimensionMismatchError("need exactly dim basis vectors")
    m = tuple(vec(r) for r in basis_rows)
    to_old = tuple(tuple(m[j][k] for j in range(n)) for k in range(n))
    to_new = mat_inv(to_old)
    constants = [
        [mat_vec(to_new, algebra.multiply(Element(m[i]), Element(m[j])).coords) for j in range(n)]
        for i in range(n)
    ]
    if unit_index is None and algebra.unit is not None:
        one_new = mat_vec(to_new, algebra.one().coords)
        hits = [k for k, c in enumerate(one_new) if c != 0]
        if len(hits) == 1 and one_new[hits[0]] == 1:
            unit_index = hits[0]
    return Algebra(constants, unit=unit_index, labels=labels)


def table_in_rows(algebra: Algebra, rows) -> list:
    """Coordinates of each product r_p r_q in the rows, through the
    projector (R R^T)^-1 R, checked by mapping them back."""
    rows = [Element(r).coords for r in rows]
    project = mat_mul(mat_inv(mat_mul(rows, transpose(rows))), rows)
    back = transpose(rows)
    table = []
    for a in rows:
        line = []
        for b in rows:
            p = algebra.multiply(Element(a), Element(b)).coords
            c = mat_vec(project, p)
            if mat_vec(back, c) != p:
                raise InconsistentInputError("vector is outside the spanned subspace")
            line.append(list(c))
        table.append(line)
    return table


def induced_algebra(algebra: Algebra, rows) -> Algebra:
    """The multiplication table of a closed subspace whose first row is the unit."""
    return Algebra(table_in_rows(algebra, rows), unit=0)


def grading_closure(algebra: Algebra, grading) -> None:
    """Raise unless every product of two parts lies in the part of the sum
    of their degrees, multiplying every pair of echelon rows."""
    parts = {0: grading.even, 1: grading.odd}
    for gi in (0, 1):
        for gj in (0, 1):
            target = rref(parts[(gi + gj) % 2].rows)[0]
            for a in parts[gi].rows:
                for b in parts[gj].rows:
                    p = algebra.multiply(Element(a), Element(b))
                    if not in_span(target, p.coords):
                        raise InvalidGradingError(
                            f"product of parts {gi},{gj} escapes part {(gi + gj) % 2}"
                        )


def middle_moufang_on_basis(algebra: Algebra) -> tuple[bool, tuple[int, int, int] | None]:
    """(xy)(zx) = (x(yz))x on all basis triples, multiplied out, first failure
    in lexicographic order."""
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    mul = algebra.multiply
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul(mul(basis[i], basis[j]), mul(basis[k], basis[i]))
                rhs = mul(mul(basis[i], mul(basis[j], basis[k])), basis[i])
                if lhs != rhs:
                    return False, (i, j, k)
    return True, None


# ---------------------------------------------------------------------------
# the file reader: every literal parsed, then vec and the zero test
# ---------------------------------------------------------------------------


def _fraction_from_json(value, parsed: dict) -> Fraction:
    if type(value) is str or type(value) is int:
        frac = parsed.get(value)
        if frac is None:
            try:
                frac = parsed[value] = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedInputError(f"bad rational literal {value!r}") from exc
        return frac
    raise MalformedInputError(f"rationals must be strings or integers, got {value!r}")


def algebra_from_dict(data) -> tuple[Algebra, Grading | None]:
    """The reader that parses all n^3 literals into nested lists and hands
    them to the ``Algebra`` constructor (``vec`` and the zero test again)."""
    if not isinstance(data, dict):
        raise MalformedInputError("top-level JSON value must be an object")
    n, raw = data.get("dim"), data.get("constants")
    if type(n) is not int or raw is None:
        raise MalformedInputError("missing or bad 'dim'/'constants'")
    if not (
        _is_list_of(raw, n)
        and all(_is_list_of(row, n) and all(_is_list_of(e, n) for e in row) for row in raw)
    ):
        raise MalformedInputError(f"'constants' must be nested lists of shape {n}x{n}x{n}")
    parsed: dict = {}
    constants = [
        [[_fraction_from_json(c, parsed) for c in raw[i][j]] for j in range(n)]
        for i in range(n)
    ]
    unit = data.get("unit")
    if unit is not None and (
        not isinstance(unit, int) or isinstance(unit, bool) or not 0 <= unit < n
    ):
        raise MalformedInputError(f"'unit' must be an index in 0..{n - 1}, got {unit!r}")
    labels = data.get("labels")
    if labels is not None:
        if not _is_list_of(labels, n):
            raise MalformedInputError(f"'labels' must be a list of {n} names")
        labels = [str(x) for x in labels]
        # Labels that the element grammar cannot tell apart.
        normalized = [label.replace("_", "").lower() for label in labels]
        for j, key in enumerate(normalized):
            if key in normalized[:j]:
                first = labels[normalized.index(key)]
                raise MalformedInputError(f"labels {first!r} and {labels[j]!r} collide: labels "
                                          "match case-insensitively with underscores ignored")
    try:
        algebra = Algebra(constants, unit=unit, labels=labels)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc
    grading = None
    if "grading" in data and data["grading"] is not None:
        g = data["grading"]
        try:
            even = [_index_from_json(i) for i in g["even"]]
            odd = [_index_from_json(i) for i in g.get("odd", [])]
            if sorted(even + odd) != list(range(n)):
                raise InvalidGradingError("even/odd indices must partition the basis")
            # Unit vectors through the eliminating constructor.
            grading = Grading([unit_vector(n, i) for i in even], [unit_vector(n, i) for i in odd], n)
        except (KeyError, TypeError, ValueError, InvalidGradingError) as exc:
            raise MalformedInputError(f"bad grading block: {exc}") from exc
    return algebra, grading


def validate_grading(grading: Grading, algebra: Algebra) -> None:
    """``Grading.validate`` of a basis-aligned grading by elimination: the
    echelon of both parts together for the direct sum, membership for the
    unit, then the dense closure scan on the indices of the echelon rows."""
    n = algebra.dim
    if grading.even.ambient_dim != n:
        raise InvalidGradingError("grading ambient dimension mismatch")
    if grading.even.dim + grading.odd.dim != n:
        raise InvalidGradingError("even + odd does not fill the algebra")
    if Subspace(grading.even.rows + grading.odd.rows, n).dim != n:
        raise InvalidGradingError("even and odd parts overlap")
    if algebra.unit is not None and not grading.even.contains(algebra.one()):
        raise InvalidGradingError("unit is not in the even part")
    index_grading_closure(algebra, *([r.index(F1) for r in part.rows]
                                     for part in (grading.even, grading.odd)))


def index_grading_closure(algebra: Algebra, even, odd) -> None:
    """Raise at the first b_i b_j (row-major) with a nonzero constant on a
    basis vector of the wrong part, scanning all n^3 dense constants."""
    part_of = {i: 0 for i in even} | {i: 1 for i in odd}
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            want = (part_of[i] + part_of[j]) % 2
            for k, c in enumerate(algebra.constants[i][j]):
                if c != 0 and part_of[k] != want:
                    raise InvalidGradingError(f"product b_{i} b_{j} escapes its part")


# ---------------------------------------------------------------------------
# four dimensions: the bounded search for a rational isotropic vector
# ---------------------------------------------------------------------------


def rational_isotropic(P) -> tuple | None:
    """A kernel vector of P, else the first integer z in {0..6} x {-6..6}^2
    with z^T P z = 0, else None."""
    kernel = nullspace(P, 3)
    if kernel:
        return kernel[0]
    # The same test on P scaled to integers.
    den = lcm(*(Fraction(x).denominator for row in P for x in row))
    M = [[int(Fraction(x) * den) for x in row] for row in P]
    bound = 6
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a == 0 and b == 0 and c == 0:
                    continue
                z = (a, b, c)
                if sum(z[i] * M[i][j] * z[j] for i in range(3) for j in range(3)) == 0:
                    return tuple(Fraction(x) for x in z)
    return None


def _is_scalar(x: Element, unit: int) -> bool:
    return all(c == 0 for i, c in enumerate(x.coords) if i != unit)


def involution_laws(algebra: Algebra, star) -> Matrix:
    """The star as a matrix, after the involution laws and the doubling
    prerequisites hold: (b_i b_j)* = b_j* b_i* pair by pair, then
    x + x* and x x* = x* x scalar over the basis and its pairwise sums."""
    if algebra.unit is None:
        raise NonUnitalError("involutive algebras must be unital")
    star = mat(star)
    n = algebra.dim
    if len(star) != n or any(len(r) != n for r in star):
        raise DimensionMismatchError("star matrix has wrong shape")
    if mat_mul(star, star) != identity(n):
        raise ValueError("star is not an involution")

    def apply(x: Element) -> Element:
        return Element(mat_vec(star, x.coords))

    for i in range(n):
        bi_star = apply(algebra.basis_element(i))
        for j in range(n):
            lhs = apply(algebra.table_entry(i, j))
            rhs = algebra.multiply(apply(algebra.basis_element(j)), bi_star)
            if lhs.coords != rhs.coords:
                raise ValueError(f"(b_{i} b_{j})* != b_{j}* b_{i}*")
    unit = algebra.unit
    for x in pair_family([algebra.basis_element(i) for i in range(n)]):
        xs = apply(x)
        if not _is_scalar(x + xs, unit):
            raise ValueError("x + x* is not scalar")
        xxs = algebra.multiply(x, xs)
        if xxs.coords != algebra.multiply(xs, x).coords or not _is_scalar(xxs, unit):
            raise ValueError("x x* is not a central scalar")
    return star


def apply_star(inv, x: Element) -> Element:
    """x* for the star of an ``InvolutiveAlgebra``, summed in integers over
    one denominator."""
    rows, s = scaled_rows(inv.star)
    return Element.of_ints([sum(a * v for a, v in zip(row, x.num, strict=True))
                            for row in rows], s * x.den)


def cayley_dickson(algebra: Algebra, star) -> tuple[Algebra, Matrix]:
    """The double of (algebra, star) and its star, (a, b)(c, d) =
    (ac - d*b, da + bc*), one product of basis vectors at a time."""
    star = involution_laws(algebra, star)
    n = algebra.dim
    m = 2 * n
    labels = None
    if n == 1:
        labels = ("1", "e1")
    elif algebra.labels is not None and all(
        lab == "1" or lab.startswith("e") for lab in algebra.labels
    ):
        labels = tuple(["1"] + [f"e{i}" for i in range(1, m)])
    constants = [[[F0] * m for _ in range(m)] for _ in range(m)]
    zeros = [F0] * n
    for i in range(n):
        ei = algebra.basis_element(i)
        for j in range(n):
            ej = algebra.basis_element(j)
            ej_star = Element(mat_vec(star, ej.coords))
            constants[i][j] = list(algebra.multiply(ei, ej).coords) + zeros
            constants[i][n + j] = zeros + list(algebra.multiply(ej, ei).coords)
            constants[n + i][j] = zeros + list(algebra.multiply(ei, ej_star).coords)
            constants[n + i][n + j] = list((-algebra.multiply(ej_star, ei)).coords) + zeros
    doubled = Algebra(constants, unit=algebra.unit, labels=labels)
    doubled_star = [[F0] * m for _ in range(m)]
    for i in range(n):
        doubled_star[i][:n] = star[i]
        doubled_star[n + i][n + i] = -F1
    return doubled, involution_laws(doubled, doubled_star)


def cayley_dickson_tower(levels: int) -> list[tuple[Algebra, Matrix]]:
    """(algebra, star) for the doubling tower over the reals, dims 1..2**levels."""
    tower = [(Algebra([[[F1]]], unit=0, labels=("1",)), identity(1))]
    for _ in range(levels):
        tower.append(cayley_dickson(*tower[-1]))
    return tower


def equiv_4d_eigenframe(p1, p2, tol: float = 1e-9) -> Equiv4Result:
    """Orbit equivalence of two float parameter pairs by aligning the
    eigenframes of the symmetric parts, one branch per eigenvalue
    degeneracy: rotation equivalence of (T, u) is tried, then of (-T, u)."""
    (T1, u1), (T2, u2) = (tuple(np.array(x, dtype=float) for x in p) for p in (p1, p2))
    res = _so3_equiv(T1, u1, T2, u2, tol)
    if res.equivalent:
        return res
    res_neg = _so3_equiv(-T1, u1, T2, u2, tol)
    if res_neg.equivalent:
        # Witness transport: with Qs for -T, the matrix -Qs realizes the
        # signed conjugation for T itself.
        return Equiv4Result(True, -res_neg.witness if res_neg.witness is not None else None,
                            res_neg.borderline)
    return Equiv4Result(False, None, res.borderline or res_neg.borderline)


def _perp2(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _so3_equiv(T1, u1, T2, u2, tol: float) -> Equiv4Result:
    """Existence of Q in SO(3) with Q T1 Q^T = T2 and Q u1 = u2."""
    scale = 1.0 + max(np.abs(T1).max(), np.abs(T2).max(), np.abs(u1).max(), np.abs(u2).max())
    atol = tol * scale
    w1, V1 = _sym_eigen(T1)
    w2, V2 = _sym_eigen(T2)
    if not np.all(np.abs(w1 - w2) <= atol):
        near = bool(np.abs(w1 - w2).max() <= 10 * atol)
        return Equiv4Result(False, borderline=near)
    c1 = np.array(skew_axis(T1))
    c2 = np.array(skew_axis(T2))
    a1, b1 = V1.T @ c1, V1.T @ u1
    a2, b2 = V2.T @ c2, V2.T @ u2
    gap01 = w1[0] - w1[1]
    gap12 = w1[1] - w1[2]

    def collect(slack: float) -> list[np.ndarray]:
        if gap01 > atol and gap12 > atol:
            return [
                np.diag(f).astype(float)
                for f in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
                if np.abs(np.diag(f) @ a1 - a2).max() <= slack
                and np.abs(np.diag(f) @ b1 - b2).max() <= slack
            ]
        if gap01 <= atol and gap12 <= atol:
            g = _frame_alignment(np.stack([a1, b1]), np.stack([a2, b2]), slack)
            return [g] if g is not None else []
        pair = (0, 1) if gap01 <= atol else (1, 2)
        other = 2 if pair == (0, 1) else 0
        g = _block_alignment(a1, b1, a2, b2, pair, other, slack)
        return [g] if g is not None else []

    for G in collect(atol):
        Q = V2 @ G @ V1.T
        if (
            np.abs(Q @ T1 @ Q.T - T2).max() <= 100 * atol
            and np.abs(Q @ u1 - u2).max() <= 100 * atol
        ):
            return Equiv4Result(True, Q, False)
    # The decision stands as "no"; flag it when a ten-times-looser tolerance
    # would have produced an alignment.
    near = bool(collect(10 * atol))
    return Equiv4Result(False, borderline=near)


def _block_alignment(a1, b1, a2, b2, pair, other, atol) -> np.ndarray | None:
    """Stabilizer search for one repeated eigenvalue: an O(2) block on the
    degenerate coordinates, +-1 on the remaining one, total determinant 1."""
    for det_b in (1.0, -1.0):
        if abs(a1[other] * det_b - a2[other]) > atol:
            continue
        if abs(b1[other] * det_b - b2[other]) > atol:
            continue
        a1p, a2p = a1[list(pair)], a2[list(pair)]
        b1p, b2p = b1[list(pair)], b2[list(pair)]
        B = _o2_map(a1p, b1p, a2p, b2p, det_b, atol)
        if B is None:
            continue
        G = np.zeros((3, 3))
        G[other][other] = det_b
        for ii, pi in enumerate(pair):
            for jj, pj in enumerate(pair):
                G[pi][pj] = B[ii][jj]
        return G
    return None


def _o2_map(a1, b1, a2, b2, det_b: float, atol: float) -> np.ndarray | None:
    """B in O(2) with det det_b, B a1 = a2 and B b1 = b2, or None."""
    if abs(np.linalg.norm(a1) - np.linalg.norm(a2)) > atol:
        return None
    if abs(np.linalg.norm(b1) - np.linalg.norm(b2)) > atol:
        return None
    if abs(float(a1 @ b1) - float(a2 @ b2)) > atol:
        return None
    if abs(_cross2(a1, b1) * det_b - _cross2(a2, b2)) > atol * (1 + np.linalg.norm(a1) * np.linalg.norm(b1)):
        return None
    anchor1, anchor2 = None, None
    if np.linalg.norm(a1) > atol:
        anchor1, anchor2 = a1, a2
    elif np.linalg.norm(b1) > atol:
        anchor1, anchor2 = b1, b2
    if anchor1 is None:
        return np.eye(2) if det_b == 1.0 else np.diag([1.0, -1.0])
    f1 = np.stack([anchor1 / np.linalg.norm(anchor1), _perp2(anchor1) / np.linalg.norm(anchor1)]).T
    f2 = np.stack([anchor2 / np.linalg.norm(anchor2), det_b * _perp2(anchor2) / np.linalg.norm(anchor2)]).T
    B = f2 @ f1.T
    if abs(np.linalg.det(B) - det_b) > 1e-6:
        return None
    if np.abs(B @ b1 - b2).max() > 10 * atol:
        return None
    return B


def _frame_alignment(rows1: np.ndarray, rows2: np.ndarray, atol: float) -> np.ndarray | None:
    """A rotation mapping the row vectors of rows1 to rows2 (fully degenerate
    symmetric part: the stabilizer is all of SO(3))."""
    for i in range(rows1.shape[0]):
        if abs(np.linalg.norm(rows1[i]) - np.linalg.norm(rows2[i])) > atol:
            return None
    g1 = rows1 @ rows1.T
    g2 = rows2 @ rows2.T
    if np.abs(g1 - g2).max() > atol * (1 + np.abs(g1).max()):
        return None
    frame1 = _gs_frame(rows1, atol)
    frame2 = _gs_frame(rows2, atol)
    Q = frame2 @ frame1.T
    if np.abs(Q @ rows1.T - rows2.T).max() > 10 * atol:
        # Orientation mismatch of the third frame vector: flip it.
        frame2[:, 2] = -frame2[:, 2]
        Q = frame2 @ frame1.T
        if np.abs(Q @ rows1.T - rows2.T).max() > 10 * atol:
            return None
    if np.linalg.det(Q) < 0:
        return None
    return Q


def _gs_frame(rows: np.ndarray, atol: float) -> np.ndarray:
    """Orthonormal frame whose first vectors follow the (independent) rows."""
    vecs = []
    for r in rows:
        v = r.astype(float)
        for e in vecs:
            v = v - (v @ e) * e
        norm = np.linalg.norm(v)
        if norm > atol:
            vecs.append(v / norm)
    basis = np.eye(3)
    for e in basis:
        if len(vecs) == 3:
            break
        v = e.copy()
        for f in vecs:
            v = v - (v @ f) * f
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            vecs.append(v / norm)
    frame = np.stack(vecs).T
    if np.linalg.det(frame) < 0:
        frame[:, len(vecs) - 1] = -frame[:, len(vecs) - 1]
    return frame


def build_raw_3d(t, z1, z2) -> Algebra:
    """The 3-dimensional algebra with raw correction (t, z) attached to the
    planar determinant; canonical inputs use z = (s, 0)."""
    t, z1, z2 = Fraction(t), Fraction(z1), Fraction(z2)
    n = 3
    c = [[[F0] * n for _ in range(n)] for _ in range(n)]
    c[0][0][0] = F1
    for k in (1, 2):
        c[0][k][k] = F1
        c[k][0][k] = F1
    c[1][1][0] = -F1
    c[2][2][0] = -F1
    c[1][2] = [t, z1, z2]
    c[2][1] = [-t, -z1, -z2]
    return Algebra(c, unit=0, labels=("1", "e1", "e2"))


def build_4d(t_matrix, u) -> Algebra:
    """The 4-dimensional algebra with vector-product correction T and triple
    product weight u."""
    T = mat(t_matrix)
    uu = vec(u)
    if len(T) != 3 or any(len(r) != 3 for r in T) or len(uu) != 3:
        raise DimensionMismatchError("T must be 3x3 and u length 3")
    n = 4
    c = [[[F0] * n for _ in range(n)] for _ in range(n)]
    c[0][0][0] = F1
    for k in (1, 2, 3):
        c[0][k][k] = F1
        c[k][0][k] = F1
        c[k][k][0] = -F1
    basis3 = ((F1, F0, F0), (F0, F1, F0), (F0, F0, F1))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            cr = _cross(basis3[i], basis3[j])
            scalar = _dot(cr, uu)
            vecpart = tuple(
                sum(T[r][k] * cr[k] for k in range(3)) for r in range(3)
            )
            c[i + 1][j + 1] = [scalar, *vecpart]
    return Algebra(c, unit=0, labels=("1", "e1", "e2", "e3"))


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
