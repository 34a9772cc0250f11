"""Decision procedures for the algebra classes handled by this package.

Every verdict here is a finite exact computation, not a sampling argument:
identity checks run over polarized families of basis vectors and pairwise
sums (the defects are quadratic in the squared variable, so vanishing on
that family is equivalent to vanishing identically), and quadraticity is
the polarized identity that x^2 lies in span(1, x).  Each decider but
:func:`is_nicely_normed`, a bool, returns one :class:`Verdict`.  A "no"
always carries a concrete counterexample as its witness; a "yes" rests on
a certificate or the exhaustively checked family.

The alternativity sweeps and the quadraticity test run on the integer
kernel of ``cdalg.kernel``: an algebra's table is the integer tensor C over
the common denominator D of its structure constants, scaled when the
algebra is built, and each check is a handful of integer array operations;
no float is involved.  The quadraticity test
is ``int64`` when a stated worst-case bound on every intermediate is below
2^63 and Python ints otherwise.  The sweep and the middle Moufang cube are
zero tests with one body over a leading prime axis: past 2^63 their
operands are residues modulo enough primes, and exact arithmetic (``int64``
or Python ints) is that axis at length one.  The alternativity family is
walked in the same order as an element-by-element loop would take (part,
then basis rows before pairwise sums, then the basis vector x, left law
before right), so the witness is the first failing one in that order.

Local complexity is then decided without multiplying in the algebra: the
traces t_i of the non-unit basis vectors are read off the diagonal of
C / D, the Gram matrix of the norm form on the imaginary part has the
closed form -((c_iju + c_jiu) + t_i t_j / 2) / 2, and positive definiteness
is the integer LDL of ``cdalg.linalg`` on it.  The algebra is immutable, so
the traces and the Gram matrix, the norm form, are derived once and kept
with the verdict among its facts (:meth:`cdalg.core.Algebra.derived`).  The
certificate is a normalized basis, from :func:`orthonormalize` on
coefficient vectors against the same Gram matrix; products in it are
mapped into its coordinates in integers when they are read.  The verdict
does not need it and most callers never ask for it, so
:func:`certificate_or_raise` builds it on first use and keeps it, or the
clause why there is none, among the algebra's facts as well.

A rational normalized basis exists exactly when the imaginary norm form is
a sum of squares over Q, which the LDL pivots decide by Hasse-Minkowski
(:func:`cdalg.numth.sum_of_squares_obstruction`); a missing certificate
names the invariant that fails, or why the question stayed open.

Being nicely normed is decided without the certificate vectors as well:
the products e_i e_j of a normalized basis have no real part exactly when
no commutator [b_i, b_j] of the original basis has one, where the real part
of x is x_u + sum_{k != u} x_k t_k / 2.  That is one integer contraction of
the tensor with the traces (see :func:`is_nicely_normed`), and it needs no
rational normalized basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from .construct import Grading
from .core import Algebra, Element
from .errors import (
    InconsistentInputError,
    NonUnitalError,
    NotLocallyComplexError,
    UnsupportedRationalClassError,
)
from .linalg import (
    F1,
    Inverse,
    Vector,
    congruence_diagonal,
    inverse,
    rank,
    scaled_rows,
)
from .kernel import (
    commutators_are_imaginary,
    first_alternativity_defect,
    first_middle_moufang_defect,
    first_quadratic_defect,
    scaled_tensor,
)
from .numth import represent_one, sqrt_fraction, sum_of_squares_obstruction


@dataclass(frozen=True)
class Verdict:
    """A decider's answer, ``holds`` (None where nothing was decided), with
    its ``witness``: for "no", x with 1, x, x^2 independent (quadratic), an
    element of the ``kind`` "independent-square", "idempotent",
    "square-zero" or "nonpositive-norm" (locally complex), ``(u, y, law)``
    (the alternativity laws) or a noncommuting basis pair
    (:func:`is_commutative_jn`, whose "yes" carries the iso onto the spin
    factor); ``reason`` says how it was reached when the answer does not."""

    holds: bool | None
    witness: object = None
    kind: str | None = None
    reason: str = ""


# ---------------------------------------------------------------------------
# quadraticity
# ---------------------------------------------------------------------------


def _dependent_with_unit(algebra: Algebra, x: Element) -> bool:
    return rank([algebra.one(), x, algebra.multiply(x, x)]) <= 2


def is_quadratic(algebra: Algebra) -> Verdict:
    """Whether 1, x, x^2 are linearly dependent for every element x.

    Decided on the integer structure tensor by the polarized identity of
    :func:`cdalg.kernel.first_quadratic_defect`.  A defect at ``(a, b, k)``
    means the identity fails on ``span(b_a, b_b)``, so some coordinate of
    ``v_i q_j(v) - v_j q_i(v)`` along the line ``v = b_a + t b_b`` is a
    nonzero polynomial of degree at most 3 in t.  It has at most three
    roots, so one of t = 0, 1, 2, 3 gives the witness (Schwartz-Zippel).
    The verdict is derived once per algebra (:meth:`Algebra.derived`).
    """
    if algebra.unit is None:
        raise NonUnitalError("quadraticity is defined for unital algebras")
    return algebra.derived("quadratic", _decide_quadratic)


def _decide_quadratic(algebra: Algebra) -> Verdict:
    defect = first_quadratic_defect(algebra)
    if defect is None:
        return Verdict(True)
    a, b, _ = defect
    base, step = algebra.basis_element(a), algebra.basis_element(b)
    for t in range(4):
        x = base + step.scale(t)
        if not _dependent_with_unit(algebra, x):
            return Verdict(False, x)
    raise AssertionError("a nonzero cubic in t vanished at t = 0, 1, 2, 3")


# ---------------------------------------------------------------------------
# local complexity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocallyComplexCertificate:
    """A basis 1, e_1, ..., e_{n-1} with e_i^2 = -1 and e_i e_j = -e_j e_i,
    listed as its vectors in the algebra's coordinates."""

    basis: tuple[Element, ...]

    def products(self, algebra: Algebra, pairs) -> list[Element]:
        """The products e_i e_j for (i, j) in ``pairs``, in this basis: rows of
        the table for the standard basis, and otherwise sum_m x_m r_m, in
        integers, for a product x and the rows r_m of the basis matrix's
        inverse (the columns of :func:`coordinate_map`)."""
        e = self.basis
        if all(b == algebra.basis_element(i) for i, b in enumerate(e)):
            return [algebra.table_entry(i, j) for i, j in pairs]
        rows = inverse(e)
        return [_combine(algebra.multiply(e[i], e[j]), rows, len(e)) for i, j in pairs]


def imaginary_basis(algebra: Algebra) -> list[Element]:
    """Basis of U = {u not in R : u^2 in R} + {0} for a quadratic algebra:
    b_i - t_i/2 = (2 D b_i - T_i 1) / (2 D) over the basis complement of the
    unit, for the ``(i, T_i)`` of :func:`_norm_form` and the table's ``D``."""
    n, u, d = algebra.dim, algebra.unit, scaled_tensor(algebra).den
    if u is None:
        raise NonUnitalError("imaginary part needs a unital algebra")
    return [Element.of_ints([2 * d if k == i else -t if k == u else 0 for k in range(n)], 2 * d)
            for i, t in _norm_form(algebra)[0]]


def _imaginary_gram(algebra: Algebra, traces: list[tuple[int, int]]) -> list[list[int]]:
    """Gram matrix of <u, v> = -(uv + vu)/2 on :func:`imaginary_basis`, times
    ``4 D^2``.

    For v_i = b_i - t_i/2 the product v_i v_j + v_j v_i is scalar in a
    quadratic algebra, and its unit coordinate is
    c_iju + c_jiu + t_i t_j / 2.  With c = C / D and t_i = T_i / D the entry
    is -(2 D (C_iju + C_jiu) + T_i T_j) / (4 D^2).
    """
    st, u = scaled_tensor(algebra), algebra.unit
    cu, d = st.c[:, :, u].tolist(), st.den
    return [[-(2 * d * (cu[i][j] + cu[j][i]) + ti * tj) for j, tj in traces] for i, ti in traces]


def _norm_form(algebra: Algebra) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The norm form of a quadratic algebra, read-only: ``(i, T_i)`` over the
    non-unit indices, where ``b_i^2 = t_i b_i - n_i 1`` and ``t_i = T_i / D``
    for the table's ``D``, and the Gram matrix G of :func:`_imaginary_gram`.
    Derived once per algebra (:meth:`Algebra.derived`)."""
    return algebra.derived("norm_form", _derive_norm_form)


def _derive_norm_form(algebra: Algebra) -> tuple[list[tuple[int, int]], list[list[int]]]:
    if not is_quadratic(algebra).holds:
        raise InconsistentInputError("the algebra is not quadratic")
    n, u = algebra.dim, algebra.unit
    squares = scaled_tensor(algebra).c[np.arange(n), np.arange(n)].tolist()
    traces = [(i, square[i]) for i, square in enumerate(squares) if i != u]
    return traces, _imaginary_gram(algebra, traces)


def imaginary_rows(algebra: Algebra,
                   vectors: Sequence[Element]) -> tuple[list[list[int] | None], int]:
    """The vectors on :func:`imaginary_basis`, as integer rows over one
    denominator: x is imaginary when its trace 2 x_u + sum_i t_i x_i, that is
    2 D x_u + sum_i T_i x_i, is 0 for the ``(i, T_i)`` of :func:`_norm_form`,
    and then its coordinates there are its non-unit ones; None for the
    others.  For rows X / e and Y / f, <x, y> = X G Y^T / (4 D^2 e f)."""
    traces = _norm_form(algebra)[0]
    u, d = algebra.unit, scaled_tensor(algebra).den
    rows, e = scaled_rows(vectors)
    return [[r[i] for i, _ in traces] if 2 * d * r[u] + sum(t * r[i] for i, t in traces) == 0
            else None for r in rows], e


def combination(algebra: Algebra, coeffs, vectors: Sequence[Element]) -> Element:
    """The element ``sum_p coeffs[p] vectors[p]``."""
    return _combine(coeffs, vectors, algebra.dim)


def _combine(coeffs, vectors: Sequence[Element], n: int) -> Element:
    """``sum_p coeffs[p] vectors[p]`` in Q^n, for rational coefficients or a
    coefficient Element, summed as integers over one denominator."""
    (c,), cd = scaled_rows([coeffs])
    rows, d = scaled_rows(vectors)
    out = [0] * n
    for a, row in zip(c, rows):
        if a:
            for k, x in enumerate(row):
                if x:
                    out[k] += a * x
    return Element.of_ints(out, cd * d)


def coordinate_map(basis: Sequence[Element]) -> Inverse:
    """The matrix sending coordinates to coordinates in ``basis``: the
    inverse of the matrix whose columns are the basis vectors, as Element
    rows."""
    columns, d = scaled_rows(basis)
    return inverse([Element.of_ints(row, d) for row in zip(*columns)])


def _norm(row: Element, gram: Sequence[Sequence[int]]) -> int:
    """``num G num^T`` for the integers ``num`` of a coefficient row."""
    x = row.num
    return sum(a * sum(g * b for g, b in zip(grow, x) if b) for a, grow in zip(x, gram) if a)


def candidate_rows(rows: Sequence[Element]) -> Iterator[Element]:
    """The rows, then r_p + r_q and r_p - r_q for p < q."""
    yield from rows
    for p, q in combinations(range(len(rows)), 2):
        yield rows[p] + rows[q]
        yield rows[p] - rows[q]


def square_length_row(rows: Sequence[Element], gram: Sequence[Sequence[int]],
                      den: int) -> Element | None:
    """The first of the :func:`candidate_rows` whose length ``r (G / den) r^T``
    is a nonzero rational square, scaled to length 1, or None.

    For ``r = num / e`` the length is ``num G num^T / (e^2 den)``, a square
    exactly when ``s^2 = num G num^T den`` for an integer ``s``, and then
    ``r`` over its length is ``num den / s``.
    """
    for r in candidate_rows(rows):
        norm = _norm(r, gram) * den
        if norm > 0:
            root = isqrt(norm)
            if root * root == norm:
                return Element.of_ints([v * den for v in r.num], root)
    return None


def unit_vector_by_descent(rows: Sequence[Element], gram: Sequence[Sequence[int]],
                           den: int) -> Element | str:
    """A combination x of the coefficient rows with ``x (G / den) x^T = 1``,
    when the form on their span is a sum of squares over Q; otherwise a
    clause naming the failing invariant, or the number that could not be
    factored.  The form is decided and solved on its nonzero LDL pivots.
    """
    ints, d = scaled_rows(rows)
    grams = [[sum(g * b for g, b in zip(grow, r)) for grow in gram] for r in ints]
    pivots, lower = congruence_diagonal(
        [[sum(x * y for x, y in zip(a, gb)) for gb in grams] for a in ints], d * d * den)
    kept = [(p, l) for p, l in zip(pivots, lower) if p]
    obstruction = sum_of_squares_obstruction([p for p, _ in kept])
    if obstruction is not None:
        return obstruction
    y = represent_one([p for p, _ in kept])
    if y is None:
        return "is a sum of squares over Q, but the search for a vector of norm 1 ran out"
    coeffs = [sum(c * l[p] for c, (_, l) in zip(y, kept)) for p in range(len(rows))]
    return _combine(coeffs, rows, rows[0].dim)


def orthonormalize(vectors: Sequence[Element], gram: Sequence) -> list[Element] | str:
    """An orthonormal basis of the span over the rationals, when there is one.

    ``gram[i][j]`` is the inner product of ``vectors[i]`` and ``vectors[j]``
    (rows of rationals, or Elements), positive definite on their span; the
    work is done on integer coefficient vectors against it, without
    multiplying in the algebra.  Each step takes the first of the
    :func:`candidate_rows` over the vectors orthogonalized against the basis
    so far whose length is a rational square, and otherwise one built by
    :func:`unit_vector_by_descent`; by Witt cancellation, what is left after
    a unit vector is again a sum of squares.  Without a basis the clause of
    the descent is returned.
    """
    m = len(vectors)
    g, den = scaled_rows(gram)
    rows = [Element.of_ints([int(j == i) for j in range(m)]) for i in range(m)]
    done: list[Element] = []
    while rows:
        e = square_length_row(rows, g, den)
        if e is None:
            if not any(_norm(r, g) for r in rows):
                break
            e = unit_vector_by_descent(rows, g, den)
            if isinstance(e, str):
                return e
        done.append(e)
        ge = [sum(x * y for x, y in zip(grow, e.num)) for grow in g]
        # <r, e> = num_r G num_e / (den_r den_e den), and <e, e> = 1.
        rows = [r - e.scale(Fraction(c, r.den * e.den * den))
                if (c := sum(x * y for x, y in zip(r.num, ge))) else r for r in rows]
        rows = [r for r in rows if not r.is_zero()]
    return [_combine(e, vectors, vectors[0].dim) for e in done]


def is_locally_complex(algebra: Algebra) -> Verdict:
    """Decide local complexity exactly.

    The verdict never needs square roots: it is quadraticity plus positive
    definiteness of the symmetrized product form on the imaginary part, both
    checked over the rationals.  The normalized basis is not part of it:
    :func:`certificate_or_raise` builds that on first use.  The verdict is
    derived once per algebra (:meth:`Algebra.derived`).
    """
    if algebra.unit is None:
        raise NonUnitalError("local complexity is defined for unital algebras")
    return algebra.derived("locally_complex", _decide_local_complexity)


def _decide_local_complexity(algebra: Algebra) -> Verdict:
    if algebra.dim == 1:
        return Verdict(True, reason="dimension 1")
    q = is_quadratic(algebra)
    if not q.holds:
        return Verdict(False, q.witness, "independent-square", "not quadratic")
    d, gram = scaled_tensor(algebra).den, _norm_form(algebra)[1]  # 4 D^2 times the Gram matrix
    direction = congruence_diagonal(gram, definite=True)
    if direction is not None:
        x = Element(direction)
        bad = combination(algebra, x, imaginary_basis(algebra))
        lam = -Fraction(_norm(x, gram), 4 * d * d * x.den**2)  # bad^2 = lam * 1
        kind = "nonpositive-norm"
        witness = bad
        if lam == 0:
            kind = "square-zero"
        elif lam > 0:
            root = sqrt_fraction(lam)
            if root is not None:
                # (1 - bad/root)/2 squares to itself: a nontrivial idempotent.
                witness = (algebra.one() - bad.scale(F1 / root)).scale(Fraction(1, 2))
                kind = "idempotent"
        return Verdict(False, witness, kind, "norm form is not positive definite")
    return Verdict(True)


def _normalized_basis(algebra: Algebra) -> LocallyComplexCertificate | str:
    """The certificate of a locally complex algebra, or the clause of
    :func:`orthonormalize` without a rational one.  Built on first use and
    kept by :meth:`Algebra.derived`."""
    return algebra.derived("certificate", _build_normalized_basis)


def _build_normalized_basis(algebra: Algebra) -> LocallyComplexCertificate | str:
    d = scaled_tensor(algebra).den
    rows = [Element.of_ints(row, 4 * d * d) for row in _norm_form(algebra)[1]]
    cert = orthonormalize(imaginary_basis(algebra), rows)
    return cert if isinstance(cert, str) else LocallyComplexCertificate((algebra.one(), *cert))


def certificate_or_raise(algebra: Algebra) -> LocallyComplexCertificate:
    res = is_locally_complex(algebra)
    if not res.holds:
        raise NotLocallyComplexError(res.reason or "algebra is not locally complex")
    cert = _normalized_basis(algebra)
    if isinstance(cert, str):
        raise UnsupportedRationalClassError(
            "a rational normalized basis needs the imaginary norm form to be a sum of "
            f"squares over Q, and it {cert}"
        )
    return cert


# ---------------------------------------------------------------------------
# alternativity laws
# ---------------------------------------------------------------------------


def _first_defect(
    algebra: Algebra, rows: Sequence[Vector]
) -> tuple[Element, Element, str] | None:
    """The witness ``(u, y, law)`` of the first nonzero alternativity defect
    over ``u`` in the polarized family of ``rows`` and ``y`` in the basis."""
    hit = first_alternativity_defect(algebra, rows)
    if hit is None:
        return None
    p, q, c, law = hit
    u = Element(rows[p]) if q is None else Element(rows[p]) + Element(rows[q])
    return u, algebra.basis_element(c), law


def is_alternative(algebra: Algebra) -> Verdict:
    """Check x^2 y = x(xy) and y x^2 = (yx)x exactly.

    The defects are quadratic in x and linear in y, so vanishing for x over
    basis vectors and pairwise sums and y over basis vectors is equivalent to
    the full identities.
    """
    witness = _first_defect(algebra, [algebra.basis_element(i) for i in range(algebra.dim)])
    return Verdict(witness is None, witness)


def is_super_alternative(algebra: Algebra, grading: Grading) -> Verdict:
    """The alternativity laws with the squared variable homogeneous.

    The grading is validated first; u then ranges over homogeneous basis
    vectors and pairwise sums within each part, x over the full basis.
    """
    grading.validate(algebra)
    for rows in (grading.even_rows, grading.odd_rows):
        witness = _first_defect(algebra, rows)
        if witness is not None:
            return Verdict(False, witness)
    return Verdict(True)


def middle_moufang_on_basis(algebra: Algebra) -> tuple[bool, tuple[int, int, int] | None]:
    """Check (xy)(zx) = (x(yz))x on all basis triples, exactly.

    Unlike the alternativity check this is not polarized to a complete
    verdict; it is the identity evaluated on the basis cube, which is what
    table-level verification needs.  Both sides for one x = b_i are direct
    contractions of the integer tensor
    (:func:`cdalg.kernel.first_middle_moufang_defect`); the first failing
    ``(i, j, k)`` in lexicographic order is the witness.
    """
    witness = first_middle_moufang_defect(algebra)
    return witness is None, witness


# ---------------------------------------------------------------------------
# nicely normed / commutative detection
# ---------------------------------------------------------------------------


def is_nicely_normed(algebra: Algebra) -> bool:
    """Whether the algebra carries the standard positive involution.

    Equivalent, for finite dimension >= 2, to the products e_i e_j (i != j)
    of a normalized basis 1, e_1, ..., e_{n-1} having no real part; dimension
    1 is nicely normed by convention.  Returns False for algebras that are
    not locally complex.  A normalized basis exists over the reals whenever
    the norm form is positive definite, and the verdict does not depend on
    whether it can be chosen rational.

    The test itself needs neither the basis nor a product.  The real part
    sigma is the projection onto R 1 along the imaginary part U, whatever
    basis U is given in.  The e_i anticommute, so sigma(e_i e_j) is
    sigma([e_i, e_j]) / 2; the commutator is bilinear and alternating, and
    [b_i - t_i/2, b_j - t_j/2] = [b_i, b_j].  So the condition holds exactly
    when sigma([b_i, b_j]) = 0 for the non-unit basis pairs, which
    :func:`cdalg.kernel.commutators_are_imaginary` tests on the integer
    tensor.
    """
    if algebra.unit is None:
        raise NonUnitalError("nicely normed is defined for unital algebras")
    if algebra.dim == 1:
        return True
    if not is_locally_complex(algebra).holds:
        return False
    return commutators_are_imaginary(algebra)


def is_commutative_jn(algebra: Algebra) -> Verdict:
    """Commutativity test; for locally complex algebras this pins the algebra
    down to the spin-factor table, and the normalized basis map, old
    coordinates to spin-factor coordinates, is the witness of a "yes".  The
    witness of a "no" is a noncommuting basis pair."""
    res = is_locally_complex(algebra)
    if not res.holds:
        raise NotLocallyComplexError("commutative classification needs local complexity")
    c = scaled_tensor(algebra).c
    # [i, j]: the cells of b_i b_j and b_j b_i differ, for i < j.
    bad = np.flatnonzero(np.triu((c != c.transpose(1, 0, 2)).any(axis=2), 1))
    if bad.size:
        return Verdict(False, divmod(int(bad[0]), algebra.dim))
    iso = coordinate_map(certificate_or_raise(algebra).basis)
    return Verdict(True, tuple(r.coords for r in iso))

