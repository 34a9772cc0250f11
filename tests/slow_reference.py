"""Element-loop reference implementations of the kernel-backed checks.

These are the original ``Algebra.multiply`` loops over ``Fraction``
coordinates, kept as an independent oracle for ``cdalg.kernel`` and the
closed forms built on it: the alternativity sweep over basis vectors and
pairwise sums, the double loop of the homomorphism check, the cubic
coefficient system of quadraticity, the multiply-based imaginary basis,
Gram matrix and Gram-Schmidt of local complexity, the unit-square search
that multiplies every candidate and pair, the sum-of-squares searches
without the 4^k reduction, ``Fraction`` Gauss-Jordan elimination, the
annihilator and subalgebra closure built from ``Algebra.multiply``, the
nicely-normed test that multiplies certificate vectors, the
zero-divisor search that builds every structured candidate up front and
takes the kernel of each, and the transports of the product table that
multiply every pair of rows -- change of basis, the induced algebra of a
closed subspace, the closure check of a grading -- the middle Moufang
identity on the basis cube, and the dimension-16 branch of the classifier
on dense elements.  The alternativity sweep and the homomorphism check are
also kept on exact integers, never reduced modulo primes, as the oracle of
the multi-prime zero tests.  Two bounded searches the library no longer
runs stay here as oracles: the candidate list for a "not quadratic"
witness and the box search for a rational isotropic vector of a 3x3
symmetric form.  They are slow by design.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from cdalg import Algebra, Element
from cdalg.analysis import ZeroDivisorSearch, _lowdim_exact_route
from cdalg.core import minimal_quadratic
from cdalg.errors import (
    DimensionMismatchError,
    InconsistentInputError,
    InvalidGradingError,
    NonUnitalError,
    UnsupportedRationalClassError,
)
from cdalg.linalg import (
    F0,
    F1,
    Matrix,
    identity,
    mat_mul,
    mat_vec,
    nonpositive_direction,
    transpose,
    vec,
)
from cdalg.kernel import AlternativitySweep, scaled_tensor
from cdalg.numth import four_squares_fraction, sqrt_fraction, two_squares_fraction
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


# ---------------------------------------------------------------------------
# the kernel's zero tests on exact integers, never modulo primes
# ---------------------------------------------------------------------------


def alternativity_defect_ints(algebra: Algebra, rows: Sequence[Sequence]) -> tuple | None:
    """``first_alternativity_defect`` from the exact defect matrices of
    ``AlternativitySweep`` (Python ints past int64), one member at a time."""
    sweep = AlternativitySweep(algebra, rows)
    for p, q in sweep.family():
        bad_left = (sweep.left(p, q) != 0).any(axis=0)
        bad = bad_left | (sweep.right(p, q) != 0).any(axis=0)
        if bad.any():
            c = int(bad.argmax())
            return p, q, c, "left" if bad_left[c] else "right"
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
    c_src, c_tgt = src.array(False), tgt.array(False)
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
        cert = LocallyComplexCertificate((algebra.one(),), identity(1))
        return LocallyComplexCheck(True, certificate=cert, reason="dimension 1")
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
    ortho = orthonormalize(algebra, imag)
    cert = None
    if ortho is not None:
        basis = [algebra.one()] + ortho
        cols = tuple(tuple(b.coords[k] for b in basis) for k in range(algebra.dim))
        cert = LocallyComplexCertificate(tuple(basis), mat_inv(cols))
    return LocallyComplexCheck(True, certificate=cert)


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
            le, re = algebra.left_mul_matrix(e), algebra.right_mul_matrix(e)
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


def in_span(reduced: Matrix, v) -> bool:
    """Membership in the span of reduced echelon rows, by subtraction."""
    rem = [Fraction(x) for x in v]
    for row in reduced:
        pc = next(i for i, x in enumerate(row) if x != 0)
        f = rem[pc]
        rem = [a - f * b for a, b in zip(rem, row)]
    return all(x == 0 for x in rem)


def annihilator(algebra: Algebra, x: Element) -> Matrix:
    """Canonical basis of {y : xy = 0} from the Fraction left-multiplication matrix."""
    return nullspace(algebra.left_mul_matrix(x), algebra.dim)


def generated_subalgebra(algebra: Algebra, gens, include_unit: bool = True) -> Matrix:
    """Echelon basis of the closure, with every product multiplied out."""
    span = rref([g.coords for g in gens] + ([algebra.one().coords] if include_unit else []))[0]
    while True:
        products = [algebra.multiply(Element(a), Element(b)).coords for a in span for b in span]
        grown = rref(list(span) + products)[0]
        if len(grown) == len(span):
            return span
        span = grown


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
    if res.certificate is None:
        raise UnsupportedRationalClassError(
            "cannot test nicely normed without a rational normalized basis"
        )
    cert = res.certificate
    m = len(cert.basis)
    for i in range(1, m):
        for j in range(1, m):
            if i == j:
                continue
            p = algebra.multiply(cert.basis[i], cert.basis[j])
            if cert.to_certificate_coords(p)[0] != 0:
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
    rows = [vec(r) for r in rows]
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
