"""Decision procedures for the algebra classes handled by this package.

Every verdict here is a finite exact computation, not a sampling argument:
identity checks run over polarized families of basis vectors and pairwise
sums (the defects are quadratic in the squared variable, so vanishing on
that family is equivalent to vanishing identically), and quadraticity is
the polarized identity that x^2 lies in span(1, x).  A "no" always carries
a concrete counterexample; a "yes" carries a certificate or the
exhaustively checked family.

The alternativity sweeps and the quadraticity test run on the integer
kernel of ``cdalg.kernel``: the structure constants are scaled once over
their common denominator to an integer tensor, and each check is a handful
of integer array operations.  These are ``int64`` only when a stated
worst-case bound on every intermediate is below 2^63, and Python ints
otherwise; no float is involved.  The alternativity family is walked in the
same order as an element-by-element loop would take (part, then basis rows
before pairwise sums, then the basis vector x, left law before right), so
the witness is the first failing one in that order.

Local complexity is then decided without multiplying in the algebra: the
traces t_i of the non-unit basis vectors are read off the diagonal of the
table, the Gram matrix of the norm form on the imaginary part has the closed
form -((c_iju + c_jiu) + t_i t_j / 2) / 2, positive definiteness is a
rational elimination on it, and the Gram-Schmidt of the certificate runs on
coefficient vectors against it.  The algebra is immutable, so the check is
computed once and kept on it.

Being nicely normed is decided without the certificate vectors as well:
the products e_i e_j of a normalized basis have no real part exactly when
no commutator [b_i, b_j] of the original basis has one, where the real part
of x is x_u + sum_{k != u} x_k t_k / 2.  That is one integer contraction of
the tensor with the traces (see :func:`is_nicely_normed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .construct import Grading
from .core import Algebra, Element
from .errors import (
    InconsistentInputError,
    NonUnitalError,
    NotLocallyComplexError,
    UnsupportedRationalClassError,
)
from .linalg import (
    F0,
    F1,
    Matrix,
    Vector,
    identity,
    mat_inv,
    mat_vec,
    nonpositive_direction,
    rank,
    transpose,
    unit_vector,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .kernel import (
    anticommutator_table,
    commutators_are_imaginary,
    first_alternativity_defect,
    first_middle_moufang_defect,
    first_quadratic_defect,
)
from .numth import sqrt_fraction


# ---------------------------------------------------------------------------
# quadraticity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticCheck:
    holds: bool
    witness: Element | None = None  # x with 1, x, x^2 independent


def _dependent_with_unit(algebra: Algebra, x: Element) -> bool:
    sq = algebra.multiply(x, x)
    return rank([algebra.one().coords, x.coords, sq.coords]) <= 2


def is_quadratic(algebra: Algebra) -> QuadraticCheck:
    """Whether 1, x, x^2 are linearly dependent for every element x.

    Decided on the integer structure tensor by the polarized identity of
    :func:`cdalg.kernel.first_quadratic_defect`.  A defect at ``(a, b, k)``
    means the identity fails on ``span(b_a, b_b)``, so some coordinate of
    ``v_i q_j(v) - v_j q_i(v)`` along the line ``v = b_a + t b_b`` is a
    nonzero polynomial of degree at most 3 in t.  It has at most three
    roots, so one of t = 0, 1, 2, 3 gives the witness (Schwartz-Zippel).
    """
    if algebra.unit is None:
        raise NonUnitalError("quadraticity is defined for unital algebras")
    defect = first_quadratic_defect(algebra)
    if defect is None:
        return QuadraticCheck(True)
    a, b, _ = defect
    base, step = algebra.basis_element(a), algebra.basis_element(b)
    for t in range(4):
        x = base + step.scale(t)
        if not _dependent_with_unit(algebra, x):
            return QuadraticCheck(False, x)
    raise AssertionError("a nonzero cubic in t vanished at t = 0, 1, 2, 3")


# ---------------------------------------------------------------------------
# local complexity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocallyComplexCertificate:
    """A basis 1, e_1, ..., e_{n-1} with e_i^2 = -1 and e_i e_j = -e_j e_i.

    ``basis`` lists the vectors; ``change_of_basis`` maps old coordinates to
    coordinates in this basis (its inverse has the basis vectors as columns).
    """

    basis: tuple[Element, ...]
    change_of_basis: Matrix

    def validate(self, algebra: Algebra) -> None:
        one = self.basis[0]
        if one.coords != algebra.one().coords:
            raise ValueError("certificate must start with the unit")
        sym = symmetrized_scalars(algebra, self.basis)
        for i in range(1, len(self.basis)):
            if sym[i][i] != -2:
                raise ValueError(f"certificate vector {i} does not square to -1")
        for i in range(1, len(self.basis)):
            for j in range(i + 1, len(self.basis)):
                if sym[i][j] != 0:
                    raise ValueError(f"certificate vectors {i},{j} do not anticommute")

    def to_certificate_coords(self, x: Element) -> Vector:
        return mat_vec(self.change_of_basis, x.coords)


@dataclass(frozen=True)
class LocallyComplexCheck:
    holds: bool
    certificate: LocallyComplexCertificate | None = None
    counterexample: Element | None = None
    counterexample_kind: str | None = None  # "independent-square" | "idempotent" |
    #                                         "square-zero" | "nonpositive-norm"
    reason: str = ""


def _traces(algebra: Algebra) -> list[tuple[int, Fraction]]:
    """``(i, t_i)`` over the non-unit indices, where ``b_i^2 = t_i b_i - n_i 1``."""
    u = algebra.unit
    out = []
    for i in range(algebra.dim):
        if i == u:
            continue
        square = algebra.constants[i][i]
        if any(c != 0 for k, c in enumerate(square) if k not in (i, u)):
            raise InconsistentInputError(
                f"basis vector {i} has no quadratic relation; algebra is not quadratic"
            )
        out.append((i, square[i]))
    return out


def imaginary_basis(algebra: Algebra) -> list[Element]:
    """Basis of U = {u not in R : u^2 in R} + {0} for a quadratic algebra.

    Built as b_i - t(b_i)/2 over the basis complement of the unit.
    """
    if algebra.unit is None:
        raise NonUnitalError("imaginary part needs a unital algebra")
    one = algebra.one()
    return [algebra.basis_element(i) - one.scale(t / 2) for i, t in _traces(algebra)]


def _imaginary_gram(algebra: Algebra) -> Matrix:
    """Gram matrix of <u, v> = -(uv + vu)/2 on :func:`imaginary_basis`.

    For v_i = b_i - t_i/2 the product v_i v_j + v_j v_i is scalar in a
    quadratic algebra, and its unit coordinate is
    c_iju + c_jiu + t_i t_j / 2.
    """
    c, u = algebra.constants, algebra.unit
    traces = _traces(algebra)
    g = [[F0] * len(traces) for _ in traces]
    for p, (i, ti) in enumerate(traces):
        for q, (j, tj) in enumerate(traces[p:], start=p):
            g[p][q] = g[q][p] = -((c[i][j][u] + c[j][i][u]) + ti * tj / 2) / 2
    return tuple(tuple(row) for row in g)


def symmetrized_scalars(algebra: Algebra, vectors: Sequence[Element]) -> list[list]:
    """``s[p][q]`` with ``v_p v_q + v_q v_p = s[p][q] * 1``, or None where that
    product is not a multiple of 1, read off one anticommutator table.

    ``s[p][p]`` is twice the scalar square of ``v_p``.
    """
    u = algebra.unit
    rows = [v.coords for v in vectors]
    table, scale = anticommutator_table(algebra, rows, rows)
    return [
        [None if any(c for k, c in enumerate(cell) if k != u) else Fraction(cell[u], scale)
         for cell in row]
        for row in table
    ]


def combination(algebra: Algebra, coeffs: Sequence[Fraction], vectors: Sequence[Element]) -> Element:
    """The element ``sum_p coeffs[p] vectors[p]``."""
    out = [F0] * algebra.dim
    for c, v in zip(coeffs, vectors):
        if c:
            for k, x in enumerate(v.coords):
                if x:
                    out[k] += c * x
    return Element(tuple(out))


def coordinate_map(basis: Sequence[Element]) -> Matrix:
    """The matrix sending coordinates to coordinates in ``basis``: the
    inverse of the matrix whose columns are the basis vectors."""
    return mat_inv(transpose([b.coords for b in basis]))


def orthonormalize(vectors: Sequence[Element], gram: Matrix) -> list[Element] | None:
    """Gram-Schmidt over the rationals, normalized to squared length one.

    ``gram[i][j]`` is the inner product of ``vectors[i]`` and ``vectors[j]``,
    positive definite on their span; the work is done on coefficient vectors
    against it, without multiplying in the algebra.  Candidates are taken in
    order, preferring one whose orthogonalized length is already a square.
    Returns None when every remaining orthogonalized vector has a squared
    length that is not a perfect rational square, in which case no
    certificate basis can be produced by scaling alone.
    """
    m = len(vectors)
    done: list[tuple[Vector, Vector]] = []  # (coefficients e, gram @ e), orthonormal
    pending = [unit_vector(m, i) for i in range(m)]
    while pending:
        for idx, cand in enumerate(pending):
            v = cand
            for e, ge in done:
                c = vec_dot(cand, ge)
                if c:
                    v = vec_sub(v, vec_scale(c, e))
            gv = mat_vec(gram, v)
            norm = vec_dot(v, gv)
            if norm == 0:  # v is the zero vector
                pending.pop(idx)
                break
            root = sqrt_fraction(norm)
            if root is not None:
                done.append((vec_scale(F1 / root, v), vec_scale(F1 / root, gv)))
                pending.pop(idx)
                break
        else:
            return None
    columns = transpose([x.coords for x in vectors])
    return [Element(mat_vec(columns, e)) for e, _ in done]


def is_locally_complex(algebra: Algebra) -> LocallyComplexCheck:
    """Decide local complexity exactly and build a normalized basis when possible.

    The verdict never needs square roots: it is quadraticity plus positive
    definiteness of the symmetrized product form on the imaginary part, both
    checked over the rationals.  The certificate basis does need exact square
    roots of the Gram-Schmidt lengths; when one is irrational the verdict is
    still returned, with certificate None.  The algebra is immutable, so the
    result is computed once and kept in its ``_lc`` slot.
    """
    if algebra.unit is None:
        raise NonUnitalError("local complexity is defined for unital algebras")
    lc = algebra._lc
    if lc is None:
        lc = algebra._lc = _decide_local_complexity(algebra)
    return lc


def _decide_local_complexity(algebra: Algebra) -> LocallyComplexCheck:
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
    gram = _imaginary_gram(algebra)
    direction = nonpositive_direction(gram)
    if direction is not None:
        bad = combination(algebra, direction, imag)
        lam = -vec_dot(direction, mat_vec(gram, direction))  # bad^2 = lam * 1
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
        return LocallyComplexCheck(
            False,
            counterexample=witness,
            counterexample_kind=kind,
            reason="norm form is not positive definite",
        )
    ortho = orthonormalize(imag, gram)
    cert = None
    if ortho is not None:
        basis = (algebra.one(), *ortho)
        cert = LocallyComplexCertificate(basis, coordinate_map(basis))
    return LocallyComplexCheck(True, certificate=cert)


def certificate_or_raise(algebra: Algebra) -> LocallyComplexCertificate:
    res = is_locally_complex(algebra)
    if not res.holds:
        raise NotLocallyComplexError(res.reason or "algebra is not locally complex")
    if res.certificate is None:
        raise UnsupportedRationalClassError(
            "no rational normalized basis: a Gram-Schmidt length is not a perfect square"
        )
    return res.certificate


# ---------------------------------------------------------------------------
# alternativity laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    holds: bool
    witness: tuple[Element, Element, str] | None = None  # (squared var, other, law)


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


def is_alternative(algebra: Algebra) -> IdentityCheck:
    """Check x^2 y = x(xy) and y x^2 = (yx)x exactly.

    The defects are quadratic in x and linear in y, so vanishing for x over
    basis vectors and pairwise sums and y over basis vectors is equivalent to
    the full identities.
    """
    witness = _first_defect(algebra, identity(algebra.dim))
    return IdentityCheck(witness is None, witness)


def is_super_alternative(algebra: Algebra, grading: Grading) -> IdentityCheck:
    """The alternativity laws with the squared variable homogeneous.

    The grading is validated first; u then ranges over homogeneous basis
    vectors and pairwise sums within each part, x over the full basis.
    """
    grading.validate(algebra)
    return _super_alternative_sweep(algebra, grading)


def _super_alternative_sweep(algebra: Algebra, grading: Grading) -> IdentityCheck:
    """:func:`is_super_alternative` for a grading already validated."""
    for rows in (grading.even_rows, grading.odd_rows):
        witness = _first_defect(algebra, rows)
        if witness is not None:
            return IdentityCheck(False, witness)
    return IdentityCheck(True)


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
    not locally complex, and raises UnsupportedRationalClassError when there
    is no rational normalized basis.

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
    res = is_locally_complex(algebra)
    if not res.holds:
        return False
    if res.certificate is None:
        raise UnsupportedRationalClassError(
            "cannot test nicely normed without a rational normalized basis"
        )
    return commutators_are_imaginary(algebra)


@dataclass(frozen=True)
class CommutativeJnCheck:
    holds: bool
    iso: Matrix | None = None  # old coordinates -> spin-factor coordinates
    witness: tuple[int, int] | None = None  # noncommuting basis pair


def is_commutative_jn(algebra: Algebra) -> CommutativeJnCheck:
    """Commutativity test; for locally complex algebras this pins the algebra
    down to the spin-factor table, and the normalized basis map is the iso."""
    res = is_locally_complex(algebra)
    if not res.holds:
        raise NotLocallyComplexError("commutative classification needs local complexity")
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            if algebra.constants[i][j] != algebra.constants[j][i]:
                return CommutativeJnCheck(False, witness=(i, j))
    if res.certificate is None:
        raise UnsupportedRationalClassError(
            "commutative, but no rational normalized basis exists"
        )
    return CommutativeJnCheck(True, iso=res.certificate.change_of_basis)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


@dataclass
class PropertyReport:
    """Tri-state property flags with witnesses, as emitted by the CLI."""

    flags: dict[str, str] = field(default_factory=dict)  # yes / no / unknown
    witnesses: dict[str, object] = field(default_factory=dict)

    def set(self, key: str, value: str, witness: object = None) -> None:
        self.flags[key] = value
        if witness is not None:
            self.witnesses[key] = witness
