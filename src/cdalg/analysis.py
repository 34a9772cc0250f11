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
from itertools import islice
from typing import Iterator, Sequence

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
    unit_vector,
)
from .kernel import (
    AlternativitySweep,
    anticommutator_table,
    first_homomorphism_violation,
    left_mul_rows,
    left_mul_stack,
    primitive_row,
    product_table,
    singularity_screen,
    table_in_rows,
)
from .numth import (
    four_squares_fraction,
    sqrt_fraction,
    two_squares_fraction,
)
from .properties import (
    _super_alternative_sweep,
    combination,
    coordinate_map,
    imaginary_basis,
    is_alternative,
    is_locally_complex,
    is_quadratic,
    symmetrized_scalars,
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
    sym = symmetrized_scalars(algebra, basis)
    for i in range(len(basis)):
        if sym[i][i] is None:
            raise InconsistentInputError("imaginary vector has nonscalar square")
        if any(c is None for c in sym[i][i + 1:]):
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
    sym = symmetrized_scalars(algebra, existing)
    for i in range(len(existing)):
        if sym[i][i] != -2:
            raise ValueError(f"existing[{i}] does not square to -1")
        if any(c != 0 for c in sym[i][i + 1:]):
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


def _candidate_terms(k: int) -> list[tuple[tuple[int, int], ...]]:
    """Signed index terms of the candidates v_p, then v_p + v_q and v_p - v_q
    for p < q, in search order."""
    terms = [((p, 1),) for p in range(k)]
    for p in range(k):
        for q in range(p + 1, k):
            terms += [((p, 1), (q, 1)), ((p, 1), (q, -1))]
    return terms


def _combine(vectors: Sequence, terms: tuple[tuple[int, int], ...]):
    """The candidate of the given terms: elements, or rows of integers."""
    (p, _), *rest = terms
    out = vectors[p]
    for q, sign in rest:
        out = out + vectors[q] if sign > 0 else out - vectors[q]
    return out


def _unit_square(x: Element, sq: Fraction | None) -> Element | None:
    """x scaled to square -1, given x^2 = sq * 1 (sq None: not scalar)."""
    if sq is None or sq >= 0:
        return None
    root = sqrt_fraction(-sq)
    if root is None:
        return None
    return x.scale(F1 / root)


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

    The candidates are v_p and v_p +- v_q over a basis of the part of the
    space that anticommutes with the family, so they all anticommute with it.
    Their squares and pairwise anticommutators are read off one integer
    table of the anticommutators v_p v_q + v_q v_p; only the products of
    candidates are multiplied out.
    """
    n, u = algebra.dim, algebra.unit
    if anticommute_with:
        # Row (e, k): coordinate k of e v + v e for each v in the space.
        table, _ = anticommutator_table(
            algebra, [e.coords for e in anticommute_with], [v.coords for v in space]
        )
        constraint = [[entry[k] for entry in row] for row in table for k in range(n)]
        space = [combination(algebra, coeffs, space)
                 for coeffs in nullspace(constraint, len(space))]
    table, scale = anticommutator_table(
        algebra, [v.coords for v in space], [v.coords for v in space]
    )

    def anticommutator(a, b) -> list[int]:
        """scale * (ab + ba) for candidates given by their terms."""
        out = [0] * n
        for p, s in a:
            for q, t in b:
                for k, entry in enumerate(table[p][q]):
                    out[k] += s * t * entry
        return out

    def square(terms) -> Fraction | None:
        twice = anticommutator(terms, terms)
        if any(c for k, c in enumerate(twice) if k != u):
            return None
        return Fraction(twice[u], 2 * scale)

    candidates = []
    for terms in _candidate_terms(len(space)):
        x = _combine(space, terms)
        if not x.is_zero():
            candidates.append((terms, x, square(terms)))

    def finish_product(x: Element) -> Element | None:
        out = _unit_square(x, _square_scalar(algebra, x))
        if out is None or not _anticommutes_with_all(algebra, out, anticommute_with):
            return None
        return out

    for _, x, sq in candidates:
        out = _unit_square(x, sq)
        if out is not None:
            return out
    # Orthogonal pairs multiply their squared lengths, which can turn two
    # equal non-square classes into a square.
    for i, (terms_a, a, _) in enumerate(candidates):
        for terms_b, b, _ in candidates[i + 1 :]:
            if any(anticommutator(terms_a, terms_b)):
                continue
            out = finish_product(algebra.multiply(a, b))
            if out is not None:
                return out
    if closure is not None:
        for _, cand, sq in candidates:
            if sq is None or sq >= 0:
                continue
            target = F1 / (-sq)
            if len(closure) == 2:
                decomp = two_squares_fraction(target)
            else:
                decomp = four_squares_fraction(target)
            if decomp is None:
                continue
            p = combination(algebra, decomp, closure)
            out = finish_product(algebra.multiply(cand, p))
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
    iso = coordinate_map(basis)
    verify_iso(iso, algebra, named_algebra(tag).algebra)
    return RecognitionResult(tag, iso)


# ---------------------------------------------------------------------------
# super-alternative classification
# ---------------------------------------------------------------------------


def _induced_algebra(algebra: Algebra, rows: Sequence[Vector]) -> Algebra:
    """The multiplication table of a multiplicatively closed subspace.

    The first row must be the unit of the ambient algebra.
    """
    return Algebra(table_in_rows(algebra, rows), unit=0)


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
    sa = _super_alternative_sweep(algebra, grading)
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
    even_alg = _induced_algebra(algebra, even_rows)
    # The even part is a unital subalgebra.  The sweep above covered even u
    # against even x, so it is alternative; quadratic relations and the
    # positive definite norm form restrict to it, so it is locally complex.
    rec0 = _recognize_division(even_alg)
    inv0 = mat_inv(rec0.iso)
    even_elements = [Element(r) for r in even_rows]

    # Standard generators of the even part, as elements of the ambient algebra.
    def even_std(k: int) -> Element:
        return combination(algebra, [row[k] for row in inv0], even_elements)

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
    iso = coordinate_map(basis)
    verify_iso(iso, algebra, named_algebra(tag).algebra)
    return RecognitionResult(tag, iso)


# The relations (i, j) of the dimension-16 branch, with the sign s of
# e_{ij} y = s e_i (e_j y) for e_{ij} = e_i e_j.  The odd vector is remedied
# along each in turn; when a remedy vanishes it is replaced by e_k times the
# vector before it, k given here (None keeps that vector).  The first three
# signs must be -1, and the last one tells S (-1) from TS (+1).
_RELATIONS = (((1, 2), 3), ((1, 4), 2), ((2, 4), 1), ((3, 4), None))


def _classify_sedenion_like(
    algebra: Algebra, e_std: list, odd_elements: list[Element]
) -> tuple[str, list[Element]]:
    """The dimension-16 branch: remedy an odd vector, normalize, read the sign.

    The remedy along (i, j) is p + e_{ij}(e_i(e_j p)).  Everything runs on
    integer matrices: one contraction of the tensor gives sigma L_x, for one
    positive integer sigma, for x = e_1, ..., e_7 and the four e_{ij}.  A
    vector is kept as a primitive integer vector w and a positive rational
    lam with the vector equal to lam w; the zero tests and the relation
    signs do not see lam, and neither does f8 = y / sqrt(-y^2), so only the
    square reported for a rejected y needs it.
    """
    u = algebra.unit
    gens = [e.coords for e in e_std[1:]]
    pairs, pair_scale = product_table(
        algebra,
        [gens[i - 1] for (i, _), _ in _RELATIONS],
        [gens[j - 1] for (_, j), _ in _RELATIONS],
    )
    # e_pairs[r] = e_i e_j for relation r.
    e_pairs = [[Fraction(x, pair_scale) for x in pairs[r, r].tolist()] for r in range(4)]
    stack, sigma = left_mul_stack(algebra, gens + e_pairs)
    stack = stack.astype(object)
    lmul = [None, *stack[:7]]  # lmul[i] = sigma L_{e_i}
    lmul_pairs = stack[7:]  # sigma L_{e_ij} per relation
    cube = sigma**3

    def remedy(w, r: int):
        """sigma^3 times the remedy of w along relation r."""
        (i, j), _ = _RELATIONS[r]
        return cube * w + lmul_pairs[r] @ (lmul[i] @ (lmul[j] @ w))

    def relation_sign(w, r: int) -> int | None:
        # sigma^2 e_ij w and sigma^2 e_i (e_j w).
        (i, j), _ = _RELATIONS[r]
        lhs, rhs = sigma * (lmul_pairs[r] @ w), lmul[i] @ (lmul[j] @ w)
        if not (lhs + rhs).any():
            return -1
        if not (lhs - rhs).any():
            return 1
        return None

    # odd[p] = odd_elements[p] / odd_scale, rows of Python ints.
    odd, odd_scale = primitive_row([c for e in odd_elements for c in e.coords])
    odd = odd.reshape(len(odd_elements), algebra.dim)
    last_error = "no odd starting vector produced a normalizable result"
    for terms in _candidate_terms(len(odd_elements)):
        start = _combine(odd, terms)
        if not start.any():
            continue
        w, lam = primitive_row(start.tolist())
        lam *= odd_scale
        for r, (_, fallback) in enumerate(_RELATIONS):
            out, scale = remedy(w, r), cube
            if not out.any():
                if fallback is None:
                    break
                out, scale = lmul[fallback] @ w, sigma
            if out.any():
                out, g = primitive_row(out.tolist())
                lam = lam * g / scale
            w = out
        if not w.any():
            continue
        table, table_scale = product_table(algebra, [w.tolist()], [w.tolist()])
        square = table[0, 0].tolist()
        if any(c for k, c in enumerate(square) if k != u):
            continue
        sq = lam * lam * Fraction(square[u], table_scale)  # y^2 = sq * 1
        if sq >= 0:
            continue
        root = sqrt_fraction(-sq)
        if root is None:
            last_error = (
                "remedied odd vector has square "
                f"{sq}, whose negative is not a perfect rational square"
            )
            continue
        if any(relation_sign(w, r) != -1 for r in range(3)):
            continue
        sign = relation_sign(w, 3)
        if sign is None:
            continue
        f8 = lam / root  # f8 = (lam / root) w
        basis = [algebra.one(), *e_std[1:], Element(tuple(f8 * x for x in w.tolist()))]
        basis += [Element(tuple(f8 / sigma * x for x in (lmul[i] @ w).tolist()))
                  for i in range(1, 8)]
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
    rows: list[list[int]] = []
    for p, q in sweep.family():
        # Column k of the left defect is x^2 b_k - x(x b_k), up to a positive
        # scale that leaves the solution space unchanged.
        rows += sweep.left(p, q).tolist()
    solutions = Subspace(nullspace(rows, n), n)
    return AlterScalarSpace(solutions, solutions.dim >= 2)


def annihilator(algebra: Algebra, x: Element) -> Subspace:
    """Ann(x) = {y : xy = 0}, the exact kernel of left multiplication by x."""
    if x.dim != algebra.dim:
        raise DimensionMismatchError("element does not conform to algebra")
    return Subspace(nullspace(left_mul_rows(algebra, x.coords), algebra.dim), algebra.dim)


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
    ker = nullspace(left_mul_rows(algebra, x.coords), algebra.dim)
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
    pair = lowdim.exact_zero_divisor_pair(lowdim.extract_params_4d(algebra))
    if pair is None:
        return ZeroDivisorSearch("none_found", definitive=True)
    # A pair over Q(sqrt(m)) is no element of the rational algebra.
    if all(type(c) is Fraction for c in pair[0] + pair[1]):
        x = combination(algebra, pair[0], cert.basis)
        y = combination(algebra, pair[1], cert.basis)
        if algebra.multiply(x, y).is_zero() and not x.is_zero() and not y.is_zero():
            return ZeroDivisorSearch("found", (x, y), definitive=True)
    return None


# Candidates screened together; a find stops the search at most this many
# candidates after the one it needed.
_SCREEN_CHUNK = 32


def _zero_divisor_candidates(algebra: Algebra, budget: int, seed: int) -> Iterator[Element]:
    """The candidates of :func:`zero_divisor_search`, in order and built lazily.

    Basis vectors, then b_i - b_j and b_i + b_j for i < j, then products of
    a few of these, then ``budget`` seeded random rational elements.
    """
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    structured = list(basis)
    yield from basis
    for i in range(n):
        for j in range(i + 1, n):
            for x in (basis[i] - basis[j], basis[i] + basis[j]):
                structured.append(x)
                yield x
    for i in range(0, len(structured), 7):
        for j in range(i + 1, min(i + 4, len(structured))):
            yield algebra.multiply(structured[i], structured[j])
    rng = random.Random(seed)
    draws = {(a, b): Fraction(a, b) for a in range(-3, 4) for b in (1, 2)}
    for _ in range(budget):
        yield Element(tuple(draws[rng.randint(-3, 3), rng.randint(1, 2)] for _ in range(n)))


def zero_divisor_search(
    algebra: Algebra, budget: int = 10_000, seed: int = 0
) -> ZeroDivisorSearch:
    """Search for x, y != 0 with xy = 0, exactly.

    Structured candidates run first and deterministically: basis vectors,
    all differences and sums b_i +- b_j, and some of their pairwise
    products; each candidate's annihilator kernel provides the exact
    partner.  Locally complex algebras of dimension <= 4 are settled
    definitively through the canonical parameters instead.  Afterwards,
    seeded random rational elements are tried up to the budget.

    Candidates are screened in chunks by
    :func:`cdalg.kernel.singularity_screen`: a candidate whose left
    multiplication is nonsingular modulo a prime is nonsingular over the
    rationals, so it is skipped exactly, and every other one gets the exact
    kernel.  The screen changes no verdict, witness or ``tried`` count.
    "exhausted" still means only that the search gave up, not that there is
    no zero divisor.
    """
    exact = _lowdim_exact_route(algebra)
    if exact is not None:
        return exact
    screen = singularity_screen(algebra)
    candidates = _zero_divisor_candidates(algebra, budget, seed)
    tried = 0
    while chunk := list(islice(candidates, _SCREEN_CHUNK)):
        regular = screen([x.coords for x in chunk]) if screen else [False] * len(chunk)
        for x, skip in zip(chunk, regular):
            tried += 1
            if skip:
                continue
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

