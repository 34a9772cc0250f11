"""Constructive structure analysis: basis extension, recognizers, classifier,
alter-scalars, annihilators, zero divisors, homomorphism checks.

The recognizers follow the constructive uniqueness proofs step for step,
and every basis they return is built by doubling steps (:func:`_double`): a
basis B of a recognized subalgebra is extended by a vector f of square -1,
then by b f for each b in B after the unit.  From 1 this gives C, H and O;
on a graded algebra one step over the odd part doubles the recognized even
part, and the dimension-16 step reads the products e_i e_j of its relations
off the doubled even basis as e_(i xor j).  Every change of basis stays
rational.  Each vector of square -1 is a unit vector of the norm form on
the imaginary vectors that anticommute with the family so far; one exists
over Q exactly when that form is a sum of squares, which its determinant
class and Hasse invariants at the odd primes decide, the one at 2 following
by the product formula (:mod:`cdalg.numth`).  Norm multiplicativity is used
in one place: a vector w orthogonal to a recognized subalgebra B, C or H,
is normalized as w h, with h in B of norm 1/N(w) from two or four squares.
A returned isomorphism is always verified multiplicative and invertible
before it leaves this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, islice, tee
from operator import mul
from typing import Callable, Iterator, Sequence

import numpy as np

from .construct import Grading, named_algebra
from .core import Algebra, Element, change_of_basis, generator_rows
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
    Inverse,
    Matrix,
    Subspace,
    _echelon,
    identity,
    kernel_basis,
    mat,
    mat_inv,
    nullspace,
    rank,
    unit_vector,
)
from .kernel import (
    AlternativitySweep,
    alternativity_screen,
    closure_dims,
    first_alternativity_defect,
    first_homomorphism_violation,
    left_mul_rows,
    left_mul_stack,
    product_table,
    scaled_tensor,
    singularity_screen,
    table_in_rows,
)
from .numth import four_squares_fraction, sqrt_fraction, ternary_zero
from .properties import (
    _norm,
    _norm_form,
    _normalized_basis,
    candidate_rows,
    combination,
    coordinate_map,
    imaginary_basis,
    imaginary_rows,
    is_alternative,
    is_locally_complex,
    is_quadratic,
    is_super_alternative,
    square_length_row,
    unit_vector_by_descent,
)


# ---------------------------------------------------------------------------
# vectors of square -1
# ---------------------------------------------------------------------------

# The four-square split of a k-bit numerator times denominator takes on the
# order of 2^(k/8) steps (a two-square search on a remainder of about k/4
# bits), so past this size the descent runs instead.
_FOUR_SQUARES_BITS = 128


def find_unit_square_vector(
    algebra: Algebra,
    space: Sequence[Element],
    anticommute_with: Sequence[Element] = (),
    closure: Sequence[Element] | None = None,
) -> Element:
    """A rational x in span(space) with x^2 = -1, anticommuting with the family.

    In the imaginary part of a quadratic algebra x^2 = -N(x) for the norm
    form N, and anticommuting means orthogonal, so the search reads the form
    of :func:`~cdalg.properties.imaginary_rows`, derived once per algebra;
    InconsistentInputError if the algebra is not quadratic or a space vector
    has nonzero trace.  The family's orthogonality rows give the part W of
    the space that anticommutes with it, which is 0 when a family vector has
    nonzero trace.  Over a basis of W the candidates are the
    :func:`~cdalg.properties.candidate_rows`.  The vector is the first
    candidate whose norm is a rational square, scaled.  Else, for
    ``closure`` a basis B = (1, i) of C or (1, i, j, k) of H orthogonal to
    W, it is w h for the first candidate w with an h in B of norm 1 / N(w):
    two squares from :func:`ternary_zero`, or four from
    :func:`four_squares_fraction`, which needs no factoring, while N(w) has
    at most ``_FOUR_SQUARES_BITS`` bits.  The norm is multiplicative on the
    doubling step w B when B is a subalgebra of an alternative algebra or
    the even part of TO; w h is kept when its trace is 0, its norm 1 and it
    is orthogonal to the family, that is, when it squares to -1 and
    anticommutes with the family, and it is as small as w, which keeps the
    next search small.  Else the vector is built by
    :func:`cdalg.properties.unit_vector_by_descent`, and failing that
    UnsupportedRationalClassError carries the descent's clause: the
    invariant by which N on W is not a sum of squares over Q, the number
    that could not be factored, or that the search ran out.  A closure of
    any other length raises ValueError.
    """
    if closure is not None and len(closure) not in (2, 4):
        raise ValueError("a closure is a basis (1, i) of C or (1, i, j, k) of H")
    (s, e), f = imaginary_rows(algebra, space), imaginary_rows(algebra, anticommute_with)[0]
    if None in s:
        raise InconsistentInputError("the search space is not in the imaginary part")
    m, g, d = len(space), _norm_form(algebra)[1], scaled_tensor(algebra).den
    # G s_q over the nonzero entries of s_q; <s_p, s_q> = s_p G s_q^T / den.
    s = [[(j, b) for j, b in enumerate(q) if b] for q in s]
    gs = [[sum(grow[j] * b for j, b in q) for grow in g] for q in s]
    gram, den = [[sum(c[j] * a for j, a in p) for c in gs] for p in s], 4 * d * d * e * e
    if None in f:
        rows = []
    elif f:
        rows = kernel_basis([[sum(map(mul, r, c)) for c in gs] for r in f], m)
    else:
        rows = [Element.of_ints([int(j == i) for j in range(m)]) for i in range(m)]
    rows = [r for r in rows if _norm(r, gram)]
    if not rows:
        raise UnsupportedRationalClassError(
            "no nonzero vector of the search space anticommutes with the family"
        )
    x = square_length_row(rows, gram, den)
    for r in candidate_rows(rows) if x is None and closure else ():
        norm = Fraction(_norm(r, gram), r.den * r.den * den)
        if len(closure) == 4:
            if (norm.numerator * norm.denominator).bit_length() > _FOUR_SQUARES_BITS:
                continue
            h = four_squares_fraction(F1 / norm)
        else:
            zero = ternary_zero((F1, F1, -norm))  # a^2 + b^2 = N(w) c^2
            if not zero:
                continue
            h = (zero[0] / (zero[2] * norm), zero[1] / (zero[2] * norm))
        out = algebra.multiply(combination(algebra, r, space), combination(algebra, h, closure))
        (o,), oe = imaginary_rows(algebra, [out])
        if o is not None:
            go = [sum(map(mul, grow, o)) for grow in g]
            square, *across = (sum(map(mul, r, go)) for r in (o, *f))
            if square == 4 * d * d * oe * oe and not any(across):
                return out
        break
    if x is None:
        x = unit_vector_by_descent(rows, gram, den)
        if isinstance(x, str):
            raise UnsupportedRationalClassError(
                "a rational normalized basis needs the norm form on the search space "
                f"to be a sum of squares over Q, and it {x}"
            )
    return combination(algebra, x, space)


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


def _homomorphism_violation(iso: Sequence, source: Algebra, target: Algebra) -> tuple | None:
    """The shape, unit or first basis-pair violation of ``iso``, a matrix of
    rational rows or of Element rows acting on coordinate columns."""
    n = source.dim
    iso = [r if isinstance(r, Element) else Element(r) for r in iso]
    if target.dim != len(iso) or any(r.dim != n for r in iso):
        return ("shape",)
    if source.unit is not None:
        if target.unit is None:
            return ("unit",)
        # Column u of the map must be the target's unit vector.
        u, t = source.unit, target.unit
        if any(r.num[u] != (r.den if i == t else 0) for i, r in enumerate(iso)):
            return ("unit",)
    return first_homomorphism_violation(iso, source, target)


def verify_iso(iso: Sequence, source: Algebra, target: Algebra) -> None:
    """Raise unless iso is an invertible multiplicative unit-preserving map.

    An :class:`~cdalg.linalg.Inverse` is invertible by construction, so only
    another matrix has its rank computed.
    """
    violation = _homomorphism_violation(iso, source, target)
    if violation is not None:
        raise InconsistentInputError(f"map is not multiplicative: {violation}")
    if source.dim != target.dim or not isinstance(iso, Inverse) and rank(iso) != source.dim:
        raise InconsistentInputError("map is not invertible")


def recognize_alternative_division(algebra: Algebra) -> RecognitionResult:
    """Identify an alternative locally complex algebra as R, C, H, or O.

    Runs the constructive uniqueness argument: pick i with i^2 = -1; extend
    by an anticommuting j and set k = ij; extend once more by e_4 and read
    e_5, e_6, e_7 off products with e_4.  Alternativity is refuted by the
    sweep modulo one prime and certified by the verified iso onto the named
    table, which is alternative and locally complex
    (:func:`_refute_then_recognize`); local complexity is decided before
    the recognizer runs.
    """
    def recognize() -> RecognitionResult:
        if not is_locally_complex(algebra).holds:
            raise NotLocallyComplexError("input is not locally complex")
        return _verified(algebra, *_division_basis(algebra), graded=False)

    return _refute_then_recognize(
        algebra, [identity(algebra.dim)], "input is not alternative", recognize
    )


def _refute_then_recognize(
    algebra: Algebra,
    parts: Sequence[Matrix],
    message: str,
    recognize: Callable[[], RecognitionResult],
) -> RecognitionResult:
    """``recognize()``, for an algebra whose alternativity laws with u in the
    polarized family of each of ``parts`` must hold; NotAlternativeError with
    ``message`` when they fail.

    - Screen: the sweep of each part modulo one prime
      (:func:`cdalg.kernel.alternativity_screen`).  A nonzero residue refutes
      exactly.  Below 2^63 the sweep is exact, so it decides both ways.
    - Certify: ``recognize`` ends in one :func:`verify_iso` onto a named
      table that maps each part into the matching part of that table, which
      is locally complex and satisfies the same laws (:func:`_named_target`).
      The laws transport along the iso, so the verified iso proves them.
    - Fallback: if ``recognize`` raises, the parts the screen left undecided
      get the full multi-prime sweep first; a defect there gives
      NotAlternativeError, and otherwise the original exception propagates.

    So every input gets the result, or the exception type and message, of
    the gate-first order: the exact sweep, then the recognizer.
    """
    undecided = []
    for rows in parts:
        defective = alternativity_screen(algebra, rows)
        if defective:
            raise NotAlternativeError(message)
        if defective is None:
            undecided.append(rows)
    try:
        return recognize()
    except Exception:
        if any(first_alternativity_defect(algebra, rows) is not None for rows in undecided):
            raise NotAlternativeError(message) from None
        raise


@cache
def _named_target(tag: str, graded: bool) -> Algebra:
    """The named table ``tag``, checked once to be locally complex and
    super-alternative for its natural grading (``graded``) or for the
    trivial one, that is, alternative."""
    named = named_algebra(tag)
    target = named.algebra
    grading = named.grading if graded else Grading.trivial(target.dim)
    if not (is_locally_complex(target).holds and is_super_alternative(target, grading).holds):
        raise AssertionError(f"the named table {tag} fails its own classification")
    return target


def _verified(algebra: Algebra, tag: str, basis: Sequence[Element], graded: bool) -> RecognitionResult:
    """The iso sending ``basis`` to the standard basis of the named table,
    verified onto it; its ``Fraction``s are built once, for the result."""
    iso = coordinate_map(basis)
    verify_iso(iso, algebra, _named_target(tag, graded))
    return RecognitionResult(tag, tuple(r.coords for r in iso))


# The named table a doubled basis of each length maps onto (O or TO if graded).
_TAGS = {1: "R", 2: "C", 4: "H", 8: "O"}


def _double(algebra: Algebra, basis: list[Element], space: Sequence[Element],
            family: Sequence[Element]) -> list[Element]:
    """One doubling step: ``basis``, then f, then b f for each b in
    ``basis[1:]``, where f is the vector of square -1 in span(space)
    anticommuting with ``family`` that :func:`find_unit_square_vector` finds,
    with ``basis`` as its closure when that is a basis of C or H."""
    closure = basis if len(basis) in (2, 4) else None
    f = find_unit_square_vector(algebra, space, anticommute_with=family, closure=closure)
    return [*basis, f, *(algebra.multiply(b, f) for b in basis[1:])]


def _division_basis(algebra: Algebra) -> tuple[str, list[Element]]:
    """The recognizer proper, for an algebra already known to be alternative
    and locally complex: the tag and the basis that becomes the standard
    basis of the named table, not yet verified: 1 doubled in the imaginary
    part until it spans the algebra."""
    n = algebra.dim
    if n not in _TAGS:
        raise InconsistentInputError(
            f"alternative locally complex algebras cannot have dimension {n}"
        )
    imag = imaginary_basis(algebra)
    basis = [algebra.one()]
    while len(basis) < n:
        basis = _double(algebra, basis, imag, basis[1:])
    return _TAGS[n], basis


# ---------------------------------------------------------------------------
# super-alternative classification
# ---------------------------------------------------------------------------


def _induced_algebra(algebra: Algebra, rows: Sequence) -> Algebra:
    """The multiplication table of a multiplicatively closed subspace.

    The first row must be the unit of the ambient algebra.  A unital
    subalgebra of a quadratic algebra is quadratic, so a kept "yes" is
    handed down.
    """
    induced = Algebra._of_table(table_in_rows(algebra, rows), 0)
    quadratic = algebra._facts.get("quadratic")
    if quadratic is not None and quadratic.holds:
        induced._facts["quadratic"] = quadratic
    return induced


def _even_part_rows(algebra: Algebra, grading: Grading) -> list[Element]:
    rows = [algebra.one()]
    for r in map(Element, grading.even_rows):
        if rank(rows + [r]) > len(rows):
            rows.append(r)
    if len(rows) != grading.even.dim:
        raise InvalidGradingError("unit is not contained in the even part")
    return rows


def classify_super_alternative(algebra: Algebra, grading: Grading) -> RecognitionResult:
    """Identify a super-alternative locally complex algebra among
    R, C, H, O, TO, S, TS, with a verified iso.

    The even part is recognized first.  With a nonzero odd part the
    constructive classification follows: below an even part O, one doubling
    step over the odd part (:func:`_double`) gives C or H, or, for the
    O/TO split, the basis whose sign in i(jf) = +-kf decides; for the S/TS
    split the odd starting vector is remedied pairwise until it satisfies
    the three minus-sign relations, and the surviving sign of the fourth
    relation decides the table.

    The grading is validated and local complexity decided first.
    Super-alternativity is refuted by the sweep modulo one prime and
    certified by the one verified iso (:func:`_refute_then_recognize`),
    because the named table is super-alternative for its natural grading
    and the iso is graded: it maps the even part onto the table's even
    part (its first half) and the odd part onto the odd part.  That holds
    by construction.  The basis lists the even vectors first, and they are
    combinations of the even rows.  Each odd vector is f or e f for an even
    e, and f is odd: a combination of the odd rows, an odd vector times an
    even quaternion, or the dimension-16 remedies, which multiply by even
    vectors only.
    """
    grading.validate(algebra)
    if not is_locally_complex(algebra).holds:
        raise NotLocallyComplexError("input is not locally complex")
    return _refute_then_recognize(
        algebra,
        [grading.even_rows, grading.odd_rows],
        "input is not super-alternative for this grading",
        lambda: _classify(algebra, grading),
    )


def _classify(algebra: Algebra, grading: Grading) -> RecognitionResult:
    """The classifier proper, for a graded algebra whose grading is valid
    and which is locally complex and super-alternative."""
    if grading.odd.dim == 0:
        # Super-alternativity for the trivial grading is alternativity.
        return _verified(algebra, *_division_basis(algebra), graded=False)
    if grading.even.dim != grading.odd.dim:
        raise InconsistentInputError(
            "nonzero odd part must match the even part's dimension"
        )
    even_rows = _even_part_rows(algebra, grading)
    # The even part is a unital subalgebra, alternative (u and x both even)
    # and locally complex (the quadratic relations and the positive definite
    # norm form restrict to it).  Its basis is read in even-part coordinates
    # and checked only as part of the final iso.
    _, basis0 = _division_basis(_induced_algebra(algebra, even_rows))
    # The doubled even basis, as elements of the ambient algebra.
    even = [algebra.one(), *(combination(algebra, b, even_rows) for b in basis0[1:])]
    odd_elements = [Element(r) for r in grading.odd_rows]
    if len(even) == 8:
        tag, basis = _classify_sedenion_like(algebra, even, odd_elements)
    else:
        basis = _double(algebra, even, odd_elements, [])
        tag = _TAGS[len(basis)]
        if tag == "O":
            # i(jf) against kf, with jf and kf from the doubled basis: TO when
            # they are equal, O when they are opposite.
            p, q = algebra.multiply(basis[1], basis[6]), basis[7]
            if q.is_zero() or p not in (q, -q):
                raise InconsistentInputError("i(jf) is not +-kf; classification impossible")
            tag = "TO" if p == q else "O"
    return _verified(algebra, tag, basis, graded=True)


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

    ``e_std[1:]`` is e_1, ..., e_7 of the even basis that :func:`_double`
    builds from 1, so e_i e_m = e_(i + m) for 0 < i < m = 1, 2, 4, and the
    products e_i e_j of the relations are e_(i xor j).  The remedy along
    (i, j) is p + e_{ij}(e_i(e_j p)).  Everything runs on integer matrices:
    one contraction of the tensor gives sigma L_x, for one positive integer
    sigma, for x = e_1, ..., e_7.  A vector y is an Element, and these
    matrices act on its integers: the zero tests and the relation signs do
    not see its denominator.  y is multiplied by even vectors only, so it
    stays odd, and imaginary, as t(y) y = y^2 + N(y) is both even and odd;
    y^2 = -N(y) is read off the norm form.
    """
    gens = e_std[1:]
    stack, sigma = left_mul_stack(algebra, gens)
    lmul = [None, *stack.astype(object)]  # lmul[i] = sigma L_{e_i}
    cube = sigma**3
    g, d = _norm_form(algebra)[1], scaled_tensor(algebra).den

    def remedy(w, r: int):
        """sigma^3 times the remedy of w along relation r."""
        (i, j), _ = _RELATIONS[r]
        return cube * w + lmul[i ^ j] @ (lmul[i] @ (lmul[j] @ w))

    def relation_sign(w, r: int) -> int | None:
        # sigma^2 e_ij w and sigma^2 e_i (e_j w).
        (i, j), _ = _RELATIONS[r]
        lhs, rhs = sigma * (lmul[i ^ j] @ w), lmul[i] @ (lmul[j] @ w)
        if not (lhs + rhs).any():
            return -1
        if not (lhs - rhs).any():
            return 1
        return None

    last_error = "no odd starting vector produced a normalizable result"
    for y in candidate_rows(odd_elements):
        if y.is_zero():
            continue
        for r, (_, fallback) in enumerate(_RELATIONS):
            w = np.array(y.num, dtype=object)
            out, scale = remedy(w, r), cube
            if not out.any():
                if fallback is None:
                    break
                out, scale = lmul[fallback] @ w, sigma
            y = Element.of_ints(out.tolist(), y.den * scale)
        if y.is_zero():
            continue
        w = np.array(y.num, dtype=object)
        (v,), e = imaginary_rows(algebra, [y])
        sq = -Fraction(sum(a * sum(map(mul, row, v)) for a, row in zip(v, g)), 4 * d * d * e * e)
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
        # f8 = y / root, and f8 e_i = (sigma L_{e_i} y) / (sigma root).
        basis = [algebra.one(), *gens, y.scale(1 / root)]
        basis += [Element.of_ints((lmul[i] @ w).tolist(), sigma * y.den).scale(1 / root)
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
    sweep = AlternativitySweep(algebra, [algebra.basis_element(i) for i in range(n)])
    # Column k of a member's left defect is x^2 b_k - x(x b_k), up to a
    # positive scale that leaves the solution space unchanged.  Most rows
    # are zero or repeat (on A5, 60 distinct rows among 16,896), so only the
    # distinct nonzero rows reach the elimination.
    rows: set[tuple[int, ...]] = set()
    for _, (left,) in sweep.defects(laws=("left",)):
        block = left[0].swapaxes(1, 2).reshape(-1, n)
        rows.update(map(tuple, block[(block != 0).any(axis=1)].tolist()))
    solutions = Subspace(nullspace(list(rows), n), n)
    return AlterScalarSpace(solutions, solutions.dim >= 2)


def annihilator(algebra: Algebra, x: Element) -> Subspace:
    """Ann(x) = {y : xy = 0}, the exact kernel of left multiplication by x."""
    if x.dim != algebra.dim:
        raise DimensionMismatchError("element does not conform to algebra")
    return Subspace._of_reduced(kernel_basis(left_mul_rows(algebra, x), algebra.dim), algebra.dim)


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
    ker = kernel_basis(left_mul_rows(algebra, x), algebra.dim)
    return ker[0] if ker else None


def _lowdim_exact_route(algebra: Algebra) -> ZeroDivisorSearch | None:
    """Definitive answers for locally complex algebras of dimension <= 4.

    In dimension at most 2 the algebra is Q or Q(b) with b^2 = t b - N and
    t^2 < 4 N (the norm is positive definite): an irreducible quadratic, so
    a field, with or without a rational normalized basis.  In dimension 4,
    with parameters (T, u) read off a rational normalized basis, the
    product is (a, v)(b, w) = (ab - v.w + (v x w).u, a w + b v + T (v x w)).
    Lemma: if x = (a, v) and y = (b, w) are nonzero with x y = 0, then
    c = v x w is a nonzero isotropic vector of the symmetric part P of T,
    rational when x and y are.  Proof: the dot
    product of the vector part with c gives c.T c = 0, since c is
    orthogonal to v and w; and c = 0 is impossible, for then v and w are
    parallel, so x and y lie in span(1, e) for one vector e, where
    e e = -|e|^2: a field, without zero divisors.  So when P has no
    rational isotropic vector the algebra over Q has no zero divisors, and
    "none_found" is definitive; when the descent cannot decide, the bounded
    search runs.
    """
    if algebra.unit is None or algebra.dim > 4:
        return None
    from . import lowdim  # local import: lowdim depends on this module's siblings
    if not is_locally_complex(algebra).holds:
        return None
    if algebra.dim <= 2:
        return ZeroDivisorSearch("none_found", definitive=True)
    cert = _normalized_basis(algebra)
    if isinstance(cert, str):
        return None
    if algebra.dim == 3:
        e1, e2 = cert.basis[1:]
        t, z1, z2 = cert.products(algebra, ((1, 2),))[0].coords
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
    pair = lowdim.rational_zero_divisor_pair(lowdim.extract_params_4d(algebra))
    if pair is False:
        return ZeroDivisorSearch("none_found", definitive=True)
    if pair is not None:
        x = combination(algebra, pair[0], cert.basis)
        y = combination(algebra, pair[1], cert.basis)
        if algebra.multiply(x, y).is_zero() and not x.is_zero() and not y.is_zero():
            return ZeroDivisorSearch("found", (x, y), definitive=True)
    return None


# Candidates screened together; a find stops the search at most this many
# candidates after the one it needed.
_SCREEN_CHUNK = 32


def _randint(rng: random.Random, low: int, high: int) -> int:
    """``rng.randint(low, high)``, the same draw read off ``getrandbits``
    with its rejection rule."""
    width = high - low + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return low + r


def _random_row(rng: random.Random, n: int, bound: int) -> list[int]:
    """n coordinates ``a / b``, as integers over 2, with
    ``a = randint(-bound, bound)`` and ``b = randint(1, 2)`` drawn in that
    order."""
    row = []
    for _ in range(n):
        a = _randint(rng, -bound, bound)
        row.append(a if _randint(rng, 1, 2) == 2 else 2 * a)
    return row


def _zero_divisor_candidates(
    algebra: Algebra, budget: int, seed: int
) -> Iterator[tuple[list[int], int]]:
    """The candidates of :func:`zero_divisor_search`, in order and built
    lazily, each as integers over a denominator.

    Basis vectors, then b_i - b_j and b_i + b_j for i < j, then products of
    a few of these, then ``budget`` seeded random rational elements.
    """
    n = algebra.dim
    structured = [[int(j == i) for j in range(n)] for i in range(n)]
    yield from ((row, 1) for row in structured)
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (-1, 1):  # b_i - b_j, then b_i + b_j
                row = [0] * n
                row[i], row[j] = 1, sign
                structured.append(row)
                yield row, 1
    for i in range(0, len(structured), 7):
        others = structured[i + 1:i + 4]
        if others:
            table, scale = product_table(algebra, [structured[i]], others)
            yield from ((row, scale) for row in table[0].tolist())
    rng = random.Random(seed)
    for _ in range(budget):
        yield _random_row(rng, n, 3), 2


def zero_divisor_search(
    algebra: Algebra, budget: int = 10_000, seed: int = 0
) -> ZeroDivisorSearch:
    """Search for x, y != 0 with xy = 0, exactly.

    Structured candidates run first and deterministically: basis vectors,
    all differences and sums b_i +- b_j, and some of their pairwise
    products; each candidate's annihilator kernel provides the exact
    partner.  Locally complex algebras of dimension <= 2 (fields), and
    those of dimension 3 and 4 wherever their canonical parameters decide
    (:func:`_lowdim_exact_route`), are settled definitively instead.
    Afterwards, seeded random rational elements are tried up to the budget.

    Candidates are screened in chunks by
    :func:`cdalg.kernel.singularity_screen`, which skips exactly the
    candidates it proves regular; every other one gets the exact kernel.
    When the algebra is locally complex (quadratic, x^2 = t(x) x - N(x) with
    N(x) > 0 for x != 0), the identity xbar (x y) = N(x) y + D_x y, where
    xbar = t(x) - x and D_x = L_{x^2} - L_x L_x, proves a candidate x != 0
    with D_x = 0 regular: x y = 0 gives N(x) y = 0, so y = 0.  A candidate
    whose left multiplication is nonsingular modulo a prime is nonsingular
    over the rationals too.  The screen changes no verdict, witness or
    ``tried`` count.  "exhausted" still means only that the search gave up,
    not that there is no zero divisor.
    """
    exact = _lowdim_exact_route(algebra)
    if exact is not None:
        return exact
    screen = singularity_screen(algebra)
    definite = (screen is not None and algebra.unit is not None
                and is_locally_complex(algebra).holds)
    candidates = _zero_divisor_candidates(algebra, budget, seed)
    tried = 0
    while chunk := list(islice(candidates, _SCREEN_CHUNK)):
        regular = screen([x for x, _ in chunk], definite) if screen else [False] * len(chunk)
        for (row, den), skip in zip(chunk, regular):
            tried += 1
            if skip:
                continue
            x = Element.of_ints(row, den)
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
    subalgebra dimensions that appear.

    The candidates are the extra sets, the empty set, each basis vector,
    the sums and differences of two basis vectors and ``budget`` random
    sets of one or two elements, each with the unit; the first candidate
    of each dimension is kept.  In a quadratic algebra
    ``x^2 = t(x) x - N(x)`` lies in ``span(1, x)``, so the unit and one
    element x span the subalgebra they generate.  Polarized, ``x y + y x``
    lies in ``span(1, x, y)``: the unit, x and y span theirs when the
    algebra is commutative, and with ``x y`` when it is alternative, since
    x and y then generate an associative subalgebra (Artin's theorem).
    Such a set is sized by the rank of its spanning rows; the other sets
    are closed in batches (:func:`cdalg.kernel.closure_dims`).  After the
    extra sets, the census stops once it has realized every dimension in
    ``[1, n]`` that these spans can still give: 1, 2 and 3 when the
    algebra is commutative; 1, 2, 3 and 4 when it is alternative, and 1, 2
    and 4 when it is also locally complex, a composition division algebra
    whose two-generated subalgebras are R, C and H; every dimension from
    1 to n otherwise.
    """
    n = algebra.dim
    # Generator sets as integer rows over one denominator; a set becomes
    # Elements only when it is reported.
    basis = [[int(j == i) for j in range(n)] for i in range(n)]
    candidates = [([], 1), *(([b], 1) for b in basis)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates += [([[x + y for x, y in zip(basis[i], basis[j])]], 1),
                           ([[x - y for x, y in zip(basis[i], basis[j])]], 1)]
    # The random sets are drawn as they are read, so none after an early exit.
    rng = random.Random(seed)
    drawn = (([_random_row(rng, n, 2) for _ in range(_randint(rng, 1, 2))], 2)
             for _ in range(budget))
    # The extra sets are checked as given; the others conform by construction.
    extra = [(tuple(gens), generator_rows(algebra, gens)) for gens in extra_generator_sets]
    one = generator_rows(algebra, [])[0]
    sets = chain(extra, (((rows, den), [one, *rows]) for rows, den in chain(candidates, drawn)))
    quadratic = is_quadratic(algebra).holds
    commutative = quadratic and algebra.is_commutative()
    alternative = quadratic and not commutative and is_alternative(algebra).holds
    # Seed sets of up to this many rows, the unit included, are sized by a rank.
    spanned = 3 if commutative or alternative else 2 if quadratic else 0
    reachable = set(range(1, n + 1))
    if commutative:
        reachable &= {1, 2, 3}
    elif alternative:
        reachable &= {1, 2, 4} if is_locally_complex(algebra).holds else {1, 2, 3, 4}

    def spanned_dim(seeds: list) -> int:
        if len(seeds) <= 2:
            return _line_dim(seeds[-1], algebra.unit)
        if not commutative:
            seeds = [*seeds, product_table(algebra, [seeds[1]], [seeds[2]])[0][0, 0].tolist()]
        return len(_echelon(seeds, reduce=False)[1])

    # The closure takes the other sets in order, a batch at a time as they
    # are read.
    mine, ahead = tee((gens, seeds, len(seeds) <= spanned) for gens, seeds in sets)
    closed = closure_dims(algebra, (seeds for _, seeds, direct in ahead if not direct))
    realized: dict[int, CensusEntry] = {}
    for b, (gens, seeds, direct) in enumerate(mine):
        d = spanned_dim(seeds) if direct else next(closed)
        if d not in realized:
            if b >= len(extra):
                rows, den = gens
                gens = tuple(Element.of_ints(r, den) for r in rows)
            realized[d] = CensusEntry(d, gens)
        if b + 1 >= len(extra) and realized.keys() >= reachable:
            break
    return CensusReport(tuple(dims_of_interest), realized)


def _line_dim(x: Element | Sequence[int], unit: int) -> int:
    """dim span(1, x): 1 when the row x is a multiple of b_unit, else 2."""
    coords = x.num if isinstance(x, Element) else x
    return 1 + any(v for j, v in enumerate(coords) if j != unit)


# ---------------------------------------------------------------------------
# rational rotations (orthogonal changes of basis)
# ---------------------------------------------------------------------------


def random_rational_orthogonal(k: int, rng: random.Random) -> Matrix:
    """A random special orthogonal matrix with rational entries.

    Cayley transform of a random rational skew matrix: Q = (I - S)(I + S)^-1,
    which is 2 (I + S)^-1 - I as I - S = 2 I - (I + S).  Exactly orthogonal,
    determinant +1, and never has eigenvalue -1.
    """
    if k == 0:
        return ()
    s = [[F0] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        s[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        s[j][i] = -s[i][j]
    plus = [[(i == j) + s[i][j] for j in range(k)] for i in range(k)]
    return tuple(tuple(2 * x - (i == j) for j, x in enumerate(row))
                 for i, row in enumerate(mat_inv(plus)))


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
    for block in filter(None, blocks):
        q = random_rational_orthogonal(len(block), rng)
        for bi, i in enumerate(block):
            rows[i] = [F0] * n
            for bj, j in enumerate(block):
                rows[i][j] = q[bi][bj]
    return tuple(tuple(r) for r in rows)


def rotated_copy(
    algebra: Algebra, rng: random.Random, grading: Grading | None = None
) -> tuple[Algebra, Grading | None, Matrix]:
    """A copy of the algebra in a rotated basis, with the transported grading."""
    rows = rotated_basis_rows(algebra, rng, grading)
    new_alg = change_of_basis(algebra, rows, unit_index=algebra.unit)
    # rotated_basis_rows has checked that a grading is basis-aligned.
    new_grading = None
    if grading is not None:
        new_grading = Grading.from_indices(algebra.dim, *grading.index_partition())
    return new_alg, new_grading, rows

