"""Constructive structure analysis: basis extension, recognizers, classifier,
alter-scalars, annihilators, zero divisors, homomorphism checks.

The recognizers follow the constructive uniqueness proofs step for step: fix
a square-root-of-minus-one, extend to an anticommuting family, and read the
remaining basis off products.  Every change of basis stays rational; where a
normalization needs the square root of a rational that is not a perfect
square, the engines multiply the candidate by a unit-norm element of an
already-recognized subalgebra whose norm form is a sum of two or four
squares.  A returned isomorphism is always verified multiplicative and
invertible before it leaves this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .construct import Grading, named_algebra
from .core import Algebra, Element, change_of_basis, generated_subalgebra
from .errors import (
    DimensionMismatchError,
    InconsistentInputError,
    InvalidGradingError,
    NotAlternativeError,
    NotLocallyComplexError,
    NotQuadraticError,
    UnsupportedRationalClassError,
)
from .linalg import (
    F0,
    F1,
    Matrix,
    Subspace,
    Vector,
    identity,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    transpose,
    unit_vector,
    vec,
)
from .kernel import AlternativitySweep, first_homomorphism_violation
from .numth import (
    four_squares_fraction,
    sqrt_fraction,
    two_squares_fraction,
)
from .properties import (
    imaginary_basis,
    is_alternative,
    is_locally_complex,
    is_quadratic,
    is_super_alternative,
)


# ---------------------------------------------------------------------------
# imaginary part and anticommuting extension
# ---------------------------------------------------------------------------


def compute_u_subspace(algebra: Algebra) -> Subspace:
    """The subspace of elements with scalar square (plus 0), for quadratic algebras."""
    q = is_quadratic(algebra)
    if not q.holds:
        raise NotQuadraticError("the imaginary-part decomposition needs a quadratic algebra")
    basis = imaginary_basis(algebra)
    unit = algebra.unit
    for i, u in enumerate(basis):
        sq = algebra.multiply(u, u)
        if any(c != 0 for k, c in enumerate(sq.coords) if k != unit):
            raise InconsistentInputError("imaginary vector has nonscalar square")
        for v in basis[i + 1 :]:
            s = algebra.multiply(u, v) + algebra.multiply(v, u)
            if any(c != 0 for k, c in enumerate(s.coords) if k != unit):
                raise InconsistentInputError("symmetrized product is not scalar")
    return Subspace([u.coords for u in basis], algebra.dim)


@dataclass(frozen=True)
class AnticommutingExtension:
    """A new vector anticommuting with the given family.

    ``square`` is the exact value of element^2 as a rational multiple of 1;
    it equals -1 whenever the normalizing square root was rational, otherwise
    the element is returned unscaled together with its square.
    """

    element: Element
    square: Fraction


def extend_anticommuting_basis(
    algebra: Algebra, existing: Sequence[Element]
) -> AnticommutingExtension:
    """One Gram-Schmidt step of the anticommuting basis extension."""
    lc = is_locally_complex(algebra)
    if not lc.holds:
        raise NotLocallyComplexError("extension requires a locally complex algebra")
    minus_one = (-algebra.one()).coords
    for i, e in enumerate(existing):
        if algebra.multiply(e, e).coords != minus_one:
            raise ValueError(f"existing[{i}] does not square to -1")
        for f in existing[i + 1 :]:
            if not (algebra.multiply(e, f) + algebra.multiply(f, e)).is_zero():
                raise ValueError("existing vectors do not pairwise anticommute")
    imag = imaginary_basis(algebra)
    span = Subspace([e.coords for e in existing], algebra.dim)
    if span.dim >= len(imag):
        raise ValueError("existing family already spans the imaginary part")
    pick = None
    for u in imag:
        if not span.contains(u.coords):
            pick = u
            break
    assert pick is not None
    v = pick
    for e in existing:
        s = algebra.multiply(v, e) + algebra.multiply(e, v)
        alpha = s.coords[algebra.unit] / 2
        v = v + e.scale(alpha)
    sq = algebra.multiply(v, v).coords[algebra.unit]
    root = sqrt_fraction(-sq)
    if root is not None and root != 0:
        v = v.scale(F1 / root)
        sq = Fraction(-1)
    return AnticommutingExtension(v, sq)


# ---------------------------------------------------------------------------
# unit-norm vector search
# ---------------------------------------------------------------------------


def _square_scalar(algebra: Algebra, x: Element) -> Fraction | None:
    """c with x^2 = c * 1, or None."""
    sq = algebra.multiply(x, x)
    u = algebra.unit
    if any(c != 0 for i, c in enumerate(sq.coords) if i != u):
        return None
    return sq.coords[u]


def _anticommutes_with_all(algebra: Algebra, x: Element, family: Sequence[Element]) -> bool:
    return all(
        (algebra.multiply(x, e) + algebra.multiply(e, x)).is_zero() for e in family
    )


def _candidate_pool(vectors: Sequence[Element]) -> list[Element]:
    pool = list(vectors)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            pool.append(vectors[i] + vectors[j])
            pool.append(vectors[i] - vectors[j])
    return pool


def find_unit_square_vector(
    algebra: Algebra,
    space: Sequence[Element],
    anticommute_with: Sequence[Element] = (),
    closure: Sequence[Element] | None = None,
) -> Element:
    """A rational x in span(space) with x^2 = -1, anticommuting with the family.

    Tries, in order: scaled candidates whose negative square is a perfect
    square; products of anticommuting candidate pairs (their squared lengths
    multiply); and, when a closed subalgebra basis is supplied, candidates
    multiplied by a subalgebra element of the reciprocal squared length read
    off a two- or four-square decomposition.  Raises
    UnsupportedRationalClassError when everything fails.
    """
    if anticommute_with:
        rows = []
        for e in anticommute_with:
            le = algebra.left_mul_matrix(e)
            re = algebra.right_mul_matrix(e)
            summed = tuple(
                tuple(le[r][c] + re[r][c] for c in range(algebra.dim))
                for r in range(algebra.dim)
            )
            rows.extend(summed)
        space_rows = [v.coords for v in space]
        coeff_cols = transpose(space_rows)
        constraint = mat_mul(rows, coeff_cols)
        kernel = nullspace(constraint, len(space))
        restricted = []
        for coeffs in kernel:
            w = algebra.zero()
            for c, v in zip(coeffs, space):
                if c:
                    w = w + v.scale(c)
            restricted.append(w)
        space = restricted
    candidates = [c for c in _candidate_pool(space) if not c.is_zero()]

    def finish(x: Element) -> Element | None:
        sq = _square_scalar(algebra, x)
        if sq is None or sq >= 0:
            return None
        root = sqrt_fraction(-sq)
        if root is None:
            return None
        out = x.scale(F1 / root)
        if not _anticommutes_with_all(algebra, out, anticommute_with):
            return None
        return out

    for cand in candidates:
        out = finish(cand)
        if out is not None:
            return out
    # Orthogonal pairs multiply their squared lengths, which can turn two
    # equal non-square classes into a square.
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            if not (algebra.multiply(a, b) + algebra.multiply(b, a)).is_zero():
                continue
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
    raise UnsupportedRationalClassError(
        "no rational vector of square -1 found in the candidate space"
    )


# ---------------------------------------------------------------------------
# recognition of alternative division algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecognitionResult:
    """A tag from {R, C, H, O, TO, S, TS} and a verified multiplicative iso.

    ``iso`` maps input coordinates to the named algebra's coordinates.
    """

    tag: str
    iso: Matrix


def _homomorphism_violation(
    iso: Matrix, source: Algebra, target: Algebra
) -> tuple | None:
    n = source.dim
    if target.dim != len(iso) or any(len(r) != n for r in iso):
        return ("shape",)
    if source.unit is not None:
        if target.unit is None:
            return ("unit",)
        if mat_vec(iso, source.one().coords) != target.one().coords:
            return ("unit",)
    return first_homomorphism_violation(iso, source, target)


def verify_iso(iso: Matrix, source: Algebra, target: Algebra) -> None:
    """Raise unless iso is an invertible multiplicative unit-preserving map."""
    violation = _homomorphism_violation(iso, source, target)
    if violation is not None:
        raise InconsistentInputError(f"map is not multiplicative: {violation}")
    if source.dim != target.dim or rank(iso) != source.dim:
        raise InconsistentInputError("map is not invertible")


def _iso_from_basis(algebra: Algebra, basis: Sequence[Element]) -> Matrix:
    cols = tuple(
        tuple(basis[j].coords[k] for j in range(len(basis)))
        for k in range(algebra.dim)
    )
    return mat_inv(cols)


def recognize_alternative_division(algebra: Algebra) -> RecognitionResult:
    """Identify an alternative locally complex algebra as R, C, H, or O.

    Runs the constructive uniqueness argument: pick i with i^2 = -1; extend
    by an anticommuting j and set k = ij; extend once more by e_4 and read
    e_5, e_6, e_7 off products with e_4.  Preconditions are checked first and
    the resulting change of basis is verified multiplicative.
    """
    alt = is_alternative(algebra)
    if not alt.holds:
        raise NotAlternativeError("input is not alternative")
    lc = is_locally_complex(algebra)
    if not lc.holds:
        raise NotLocallyComplexError("input is not locally complex")
    return _recognize_division(algebra)


def _recognize_division(algebra: Algebra) -> RecognitionResult:
    """The recognizer proper, for an algebra already known to be alternative
    and locally complex."""
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
        e3 = algebra.multiply(e1, e2)
        basis += [e2, e3]
        tag = "H"
    if n == 8:
        e4 = find_unit_square_vector(
            algebra,
            imag,
            anticommute_with=basis[1:],
            closure=basis[:4],
        )
        e5 = algebra.multiply(basis[1], e4)
        e6 = algebra.multiply(basis[2], e4)
        e7 = algebra.multiply(basis[3], e4)
        basis += [e4, e5, e6, e7]
        tag = "O"
    iso = _iso_from_basis(algebra, basis)
    verify_iso(iso, algebra, named_algebra(tag).algebra)
    return RecognitionResult(tag, iso)


# ---------------------------------------------------------------------------
# super-alternative classification
# ---------------------------------------------------------------------------


class _RowBasis:
    """Coordinates with respect to an independent family of rows."""

    def __init__(self, rows: Sequence[Vector]):
        self.rows = mat(rows)
        gram = mat_mul(self.rows, transpose(self.rows))
        self.project = mat_mul(mat_inv(gram), self.rows)

    def coords(self, v: Vector) -> Vector:
        c = mat_vec(self.project, v)
        recovered = mat_vec(transpose(self.rows), c)
        if recovered != tuple(v):
            raise InconsistentInputError("vector is outside the spanned subspace")
        return c


def _induced_algebra(algebra: Algebra, rows: Sequence[Vector]) -> tuple[Algebra, _RowBasis]:
    """The multiplication table of a multiplicatively closed subspace.

    The first row must be the unit of the ambient algebra.
    """
    rb = _RowBasis(rows)
    k = len(rows)
    constants = []
    for i in range(k):
        line = []
        for j in range(k):
            p = algebra.multiply(Element(rows[i]), Element(rows[j]))
            line.append(rb.coords(p.coords))
        constants.append(line)
    return Algebra(constants, unit=0), rb


def _even_part_rows(algebra: Algebra, grading: Grading) -> list[Vector]:
    one = algebra.one().coords
    rows = [one]
    for r in grading.even_rows:
        if rank(rows + [r]) > len(rows):
            rows.append(tuple(r))
    if len(rows) != grading.even.dim:
        raise InvalidGradingError("unit is not contained in the even part")
    return rows


def classify_super_alternative(algebra: Algebra, grading: Grading) -> RecognitionResult:
    """Identify a super-alternative locally complex algebra among
    R, C, H, O, TO, S, TS, with a verified iso.

    The even part is recognized first.  With a nonzero odd part the branch on
    the even tag follows the constructive classification: a unit-square odd
    vector is enough for the C and H targets; for the O/TO split the sign in
    i(jf) = +-kf decides; for the S/TS split the odd starting vector is
    remedied pairwise until it satisfies the three minus-sign relations, and
    the surviving sign of the fourth relation decides the table.
    """
    grading.validate(algebra)
    lc = is_locally_complex(algebra)
    if not lc.holds:
        raise NotLocallyComplexError("input is not locally complex")
    sa = is_super_alternative(algebra, grading)
    if not sa.holds:
        raise NotAlternativeError("input is not super-alternative for this grading")
    if grading.odd.dim == 0:
        # The sweep above ran u over a basis of the whole algebra and its
        # pairwise sums, which is the alternativity check itself; local
        # complexity was decided just before it.
        return _recognize_division(algebra)
    if grading.even.dim != grading.odd.dim:
        raise InconsistentInputError(
            "nonzero odd part must match the even part's dimension"
        )
    even_rows = _even_part_rows(algebra, grading)
    even_alg, even_rb = _induced_algebra(algebra, even_rows)
    # The even part is a unital subalgebra.  The sweep above covered even u
    # against even x, so it is alternative; quadratic relations and the
    # positive definite norm form restrict to it, so it is locally complex.
    rec0 = _recognize_division(even_alg)
    inv0 = mat_inv(rec0.iso)
    # Standard generators of the even part, as elements of the ambient algebra.
    def even_std(k: int) -> Element:
        coeffs = tuple(inv0[r][k] for r in range(even_alg.dim))
        out = algebra.zero()
        for c, row in zip(coeffs, even_rows):
            if c:
                out = out + Element(row).scale(c)
        return out

    odd_elements = [Element(r) for r in grading.odd_rows]
    one = algebra.one()

    if rec0.tag == "R":
        f = find_unit_square_vector(algebra, odd_elements)
        basis = [one, f]
        tag = "C"
    elif rec0.tag == "C":
        i_hat = even_std(1)
        f = find_unit_square_vector(algebra, odd_elements, closure=[one, i_hat])
        basis = [one, i_hat, f, algebra.multiply(i_hat, f)]
        tag = "H"
    elif rec0.tag == "H":
        i_hat, j_hat, k_hat = even_std(1), even_std(2), even_std(3)
        f = find_unit_square_vector(
            algebra, odd_elements, closure=[one, i_hat, j_hat, k_hat]
        )
        p = algebra.multiply(i_hat, algebra.multiply(j_hat, f))
        q = algebra.multiply(k_hat, f)
        lam = None
        for a, b in zip(p.coords, q.coords):
            if b != 0:
                lam = a / b
                break
        if lam not in (1, -1) or p.coords != q.scale(lam).coords:
            raise InconsistentInputError("i(jf) is not +-kf; classification impossible")
        basis = [
            one,
            i_hat,
            j_hat,
            k_hat,
            f,
            algebra.multiply(i_hat, f),
            algebra.multiply(j_hat, f),
            algebra.multiply(k_hat, f),
        ]
        tag = "TO" if lam == 1 else "O"
    else:  # rec0.tag == "O"
        e_std = [None] + [even_std(k) for k in range(1, 8)]
        tag, basis = _classify_sedenion_like(algebra, e_std, odd_elements)
    iso = _iso_from_basis(algebra, basis)
    verify_iso(iso, algebra, named_algebra(tag).algebra)
    return RecognitionResult(tag, iso)


def _classify_sedenion_like(
    algebra: Algebra, e_std: list, odd_elements: list[Element]
) -> tuple[str, list[Element]]:
    """The dimension-16 branch: remedy an odd vector, normalize, read the sign."""

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

    last_error = "no odd starting vector produced a normalizable result"
    for start in _candidate_pool(odd_elements):
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
# alter-scalars and annihilators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlterScalarSpace:
    solutions: Subspace
    has_alter_scalars: bool


def alter_scalar_space(algebra: Algebra) -> AlterScalarSpace:
    """All a with x^2 a = x(xa) for every x, as an exact subspace.

    The condition is linear in a and quadratic in x, so it is enough to
    solve the stacked linear systems for x over basis vectors and pairwise
    sums.  The flag reports whether the space is strictly larger than the
    scalars.
    """
    n = algebra.dim
    sweep = AlternativitySweep(algebra, identity(n))
    rows: list[Vector] = []
    for p, q in sweep.family():
        # Column k of the left defect is x^2 b_k - x(x b_k), up to a positive
        # scale that leaves the solution space unchanged.
        for row in sweep.left(p, q).tolist():
            if any(row):
                rows.append(vec(row))
    if not rows:
        solutions = Subspace(identity(n), n)
    else:
        solutions = Subspace(nullspace(rows, n), n)
    return AlterScalarSpace(solutions, solutions.dim >= 2)


def annihilator(algebra: Algebra, x: Element) -> Subspace:
    """Ann(x) = {y : xy = 0}, the exact kernel of left multiplication by x."""
    return Subspace(nullspace(algebra.left_mul_matrix(x), algebra.dim), algebra.dim)


# ---------------------------------------------------------------------------
# zero divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroDivisorSearch:
    """Outcome of a zero-divisor hunt.

    status is "found" (pair multiplies to zero exactly), "none_found"
    (definitive: backed by an exact criterion), or "exhausted" (the bounded
    search gave up; existence remains open as far as this run is concerned).
    """

    status: str
    pair: tuple[Element, Element] | None = None
    definitive: bool = False
    tried: int = 0


def _kernel_partner(algebra: Algebra, x: Element) -> Element | None:
    if x.is_zero():
        return None
    ker = nullspace(algebra.left_mul_matrix(x), algebra.dim)
    if not ker:
        return None
    return Element(ker[0])


def _lowdim_exact_route(algebra: Algebra) -> ZeroDivisorSearch | None:
    """Definitive answers for locally complex algebras of dimension <= 4."""
    if algebra.unit is None or algebra.dim > 4:
        return None
    from . import lowdim  # local import: lowdim depends on this module's siblings
    lc = is_locally_complex(algebra)
    if not lc.holds or lc.certificate is None:
        return None
    cert = lc.certificate
    if algebra.dim <= 2:
        return ZeroDivisorSearch("none_found", definitive=True)
    if algebra.dim == 3:
        e1, e2 = cert.basis[1], cert.basis[2]
        prod = cert.to_certificate_coords(algebra.multiply(e1, e2))
        t, z1, z2 = prod[0], prod[1], prod[2]
        one = algebra.one()
        if z1 == 0 and z2 == 0:
            x = e1
            y = e1.scale(t) + e2
        else:
            x = e1.scale(z1) + e2.scale(z2)
            den = z1 * z1 + z2 * z2
            y1 = (z1 * t - z2) / den
            y2 = (z2 * t + z1) / den
            y = -one + e1.scale(y1) + e2.scale(y2)
        if algebra.multiply(x, y).is_zero() and not x.is_zero() and not y.is_zero():
            return ZeroDivisorSearch("found", (x, y), definitive=True)
        return None
    params = lowdim.extract_params_4d(algebra)
    definite = lowdim.symmetric_part_definite(params.t_matrix)
    if definite:
        return ZeroDivisorSearch("none_found", definitive=True)
    pair = lowdim.exact_zero_divisor_pair(params)
    if pair is not None:
        x = _from_certificate(algebra, cert, pair[0])
        y = _from_certificate(algebra, cert, pair[1])
        if algebra.multiply(x, y).is_zero() and not x.is_zero() and not y.is_zero():
            return ZeroDivisorSearch("found", (x, y), definitive=True)
    return None


def _from_certificate(algebra: Algebra, cert, coords: Sequence[Fraction]) -> Element:
    out = algebra.zero()
    for c, b in zip(coords, cert.basis):
        if c:
            out = out + b.scale(c)
    return out


def zero_divisor_search(
    algebra: Algebra, budget: int = 10_000, seed: int = 0
) -> ZeroDivisorSearch:
    """Search for x, y != 0 with xy = 0, exactly.

    Structured candidates run first and deterministically: basis vectors,
    all differences and sums b_i +- b_j, and their pairwise products; each
    candidate's annihilator kernel provides the exact partner.  Locally
    complex algebras of dimension <= 4 are settled definitively through the
    canonical parameters instead.  Afterwards, seeded random rational
    elements are tried up to the budget.
    """
    exact = _lowdim_exact_route(algebra)
    if exact is not None:
        return exact
    n = algebra.dim
    tried = 0
    basis = [algebra.basis_element(i) for i in range(n)]
    structured: list[Element] = list(basis)
    for i in range(n):
        for j in range(i + 1, n):
            structured.append(basis[i] - basis[j])
            structured.append(basis[i] + basis[j])
    extra: list[Element] = []
    for i in range(0, len(structured), 7):
        for j in range(i + 1, min(i + 4, len(structured))):
            extra.append(algebra.multiply(structured[i], structured[j]))
    for x in structured + extra:
        tried += 1
        y = _kernel_partner(algebra, x)
        if y is not None:
            return ZeroDivisorSearch("found", (x, y), definitive=True, tried=tried)
    rng = random.Random(seed)
    for _ in range(budget):
        tried += 1
        coords = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)
        ]
        x = Element(tuple(coords))
        y = _kernel_partner(algebra, x)
        if y is not None:
            return ZeroDivisorSearch("found", (x, y), definitive=True, tried=tried)
    return ZeroDivisorSearch("exhausted", tried=tried)


# ---------------------------------------------------------------------------
# homomorphisms and subalgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomomorphismCheck:
    holds: bool
    violation: tuple | None = None  # ("shape",) | ("unit",) | ("rank",) | (i, j)


def check_homomorphism(
    map_matrix: Sequence[Sequence[Fraction]], source: Algebra, target: Algebra
) -> HomomorphismCheck:
    """Verify that the matrix defines an injective unital homomorphism.

    The matrix acts on coordinate columns: image = M @ coords.  Checks
    map(1) = 1, multiplicativity on all basis pairs, and full column rank.
    """
    m = mat(map_matrix)
    if len(m) != target.dim or any(len(r) != source.dim for r in m):
        raise DimensionMismatchError("map shape does not match the two algebras")
    violation = _homomorphism_violation(m, source, target)
    if violation is not None:
        return HomomorphismCheck(False, violation)
    if rank(m) != source.dim:
        return HomomorphismCheck(False, ("rank",))
    return HomomorphismCheck(True)


@dataclass(frozen=True)
class CensusEntry:
    dim: int
    generators: tuple[Element, ...]


@dataclass(frozen=True)
class CensusReport:
    """Subalgebra dimensions realized by a bounded generator search.

    Absence of a dimension from ``realized`` is not a nonexistence claim; the
    search is a finite sweep over structured and random generator sets.
    """

    requested: tuple[int, ...]
    realized: dict[int, CensusEntry]

    def found(self, dim: int) -> bool:
        return dim in self.realized


def subalgebra_census(
    algebra: Algebra,
    dims_of_interest: Sequence[int],
    budget: int = 100,
    seed: int = 0,
    extra_generator_sets: Sequence[Sequence[Element]] = (),
) -> CensusReport:
    """Close candidate generator sets under multiplication and record the
    subalgebra dimensions that appear."""
    realized: dict[int, CensusEntry] = {}

    def record(gens: Sequence[Element]) -> None:
        span = generated_subalgebra(algebra, list(gens), include_unit=True)
        d = span.dim
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
            Element(
                tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
            )
            for _ in range(rng.randint(1, 2))
        ]
        record(gens)
    return CensusReport(tuple(dims_of_interest), realized)


# ---------------------------------------------------------------------------
# rational rotations (orthogonal changes of basis)
# ---------------------------------------------------------------------------


def random_rational_orthogonal(k: int, rng: random.Random) -> Matrix:
    """A random special orthogonal matrix with rational entries.

    Cayley transform of a random rational skew matrix: Q = (I - S)(I + S)^-1.
    Exactly orthogonal, determinant +1, and never has eigenvalue -1.
    """
    if k == 0:
        return ()
    s = [[F0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            val = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            s[i][j] = val
            s[j][i] = -val
    eye = identity(k)
    plus = tuple(
        tuple(eye[i][j] + s[i][j] for j in range(k)) for i in range(k)
    )
    minus = tuple(
        tuple(eye[i][j] - s[i][j] for j in range(k)) for i in range(k)
    )
    return mat_mul(minus, mat_inv(plus))


def rotated_basis_rows(
    algebra: Algebra, rng: random.Random, grading: Grading | None = None
) -> Matrix:
    """Rows of a rotated basis: the unit row fixed, imaginary rows mixed by a
    rational orthogonal matrix; with a basis-aligned grading, the even and
    odd imaginary blocks are rotated separately so the index grading survives."""
    if algebra.unit is None:
        raise NotQuadraticError("rotation helper expects a unital table algebra")
    n = algebra.dim
    u = algebra.unit
    if grading is None:
        blocks = [[i for i in range(n) if i != u]]
    else:
        partition = grading.index_partition()
        if partition is None:
            raise InvalidGradingError("rotation helper needs a basis-aligned grading")
        even, odd = partition
        blocks = [[i for i in even if i != u], list(odd)]
    rows = [list(unit_vector(n, i)) for i in range(n)]
    for block in blocks:
        if not block:
            continue
        q = random_rational_orthogonal(len(block), rng)
        for bi, i in enumerate(block):
            row = [F0] * n
            for bj, j in enumerate(block):
                row[j] = q[bi][bj]
            rows[i] = row
    return tuple(tuple(r) for r in rows)


def rotated_copy(
    algebra: Algebra, rng: random.Random, grading: Grading | None = None
) -> tuple[Algebra, Grading | None, Matrix]:
    """A copy of the algebra in a rotated basis, with the transported grading."""
    rows = rotated_basis_rows(algebra, rng, grading)
    new_alg = change_of_basis(algebra, rows, unit_index=algebra.unit)
    new_grading = None
    if grading is not None:
        partition = grading.index_partition()
        assert partition is not None
        new_grading = Grading.from_indices(algebra.dim, partition[0], partition[1])
    return new_alg, new_grading, rows

