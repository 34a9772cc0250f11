"""Decision procedures for the algebra classes handled by this package.

Every verdict here is a finite exact computation, not a sampling argument:
identity checks run over polarized families of basis vectors and pairwise
sums (the defects are quadratic in the squared variable, so vanishing on
that family is equivalent to vanishing identically), and the quadraticity
check expands the relevant cubic coefficient system symbolically.  A "no"
always carries a concrete counterexample; a "yes" carries a certificate or
the exhaustively checked family.

The alternativity sweeps run on the integer kernel of ``cdalg.kernel``: the
structure constants are scaled once over their common denominator to an
integer tensor, and the defects of each family element are integer
matrices.  These are ``int64`` only when a stated worst-case bound on every
intermediate is below 2^63, and Python ints otherwise; no float is involved.
The family is walked in the same order as an element-by-element loop would
take (part, then basis rows before pairwise sums, then the basis vector x,
left law before right), so the witness is the first failing one in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .construct import Grading
from .core import Algebra, Element, minimal_quadratic
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
)
from .kernel import first_alternativity_defect
from .numth import sqrt_fraction


# ---------------------------------------------------------------------------
# quadraticity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticCheck:
    holds: bool
    witness: Element | None = None  # x with 1, x, x^2 independent


def _square_coefficient_forms(algebra: Algebra) -> list[dict[tuple[int, int], Fraction]]:
    """Coordinate k of x^2 as the quadratic form sum q[k][(a,b)] x_a x_b, a <= b."""
    n = algebra.dim
    forms: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k, c in enumerate(algebra.constants[a][b]):
                if c == 0:
                    continue
                key = (a, b) if a <= b else (b, a)
                forms[k][key] = forms[k].get(key, F0) + c
    return forms


def _dependent_with_unit(algebra: Algebra, x: Element) -> bool:
    sq = algebra.multiply(x, x)
    return rank([algebra.one().coords, x.coords, sq.coords]) <= 2


def is_quadratic(algebra: Algebra) -> QuadraticCheck:
    """Whether 1, x, x^2 are linearly dependent for every element x.

    The wedge 1 ^ x ^ x^2 has coordinates that are homogeneous cubics in the
    coordinates of x; with the unit as a basis vector they reduce to
    x_i q_j(x) - x_j q_i(x) over non-unit index pairs, where q_k is the
    k-th coordinate form of x^2.  All cubic coefficients must vanish.
    """
    if algebra.unit is None:
        raise NonUnitalError("quadraticity is defined for unital algebras")
    n = algebra.dim
    u = algebra.unit
    if n <= 2:
        return QuadraticCheck(True)
    forms = _square_coefficient_forms(algebra)
    bad_pair: tuple[int, int] | None = None
    for i in range(n):
        if i == u:
            continue
        for j in range(i + 1, n):
            if j == u:
                continue
            cubic: dict[tuple[int, int, int], Fraction] = {}
            for (a, b), c in forms[j].items():
                key = tuple(sorted((i, a, b)))
                cubic[key] = cubic.get(key, F0) + c
            for (a, b), c in forms[i].items():
                key = tuple(sorted((j, a, b)))
                cubic[key] = cubic.get(key, F0) - c
            if any(c != 0 for c in cubic.values()):
                bad_pair = (i, j)
                break
        if bad_pair:
            break
    if bad_pair is None:
        return QuadraticCheck(True)
    witness = _quadratic_witness(algebra)
    if witness is None:
        raise InconsistentInputError(
            "cubic system is nonzero but no witness was found"
        )
    return QuadraticCheck(False, witness)


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
        minus_one = (-algebra.one()).coords
        for i, e in enumerate(self.basis[1:], start=1):
            if algebra.multiply(e, e).coords != minus_one:
                raise ValueError(f"certificate vector {i} does not square to -1")
        for i in range(1, len(self.basis)):
            for j in range(i + 1, len(self.basis)):
                ab = algebra.multiply(self.basis[i], self.basis[j])
                ba = algebra.multiply(self.basis[j], self.basis[i])
                if (ab + ba).coords != algebra.zero().coords:
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


def imaginary_basis(algebra: Algebra) -> list[Element]:
    """Basis of U = {u not in R : u^2 in R} + {0} for a quadratic algebra.

    Built as b_i - t(b_i)/2 over the basis complement of the unit.
    """
    if algebra.unit is None:
        raise NonUnitalError("imaginary part needs a unital algebra")
    out = []
    for i in range(algebra.dim):
        if i == algebra.unit:
            continue
        mq = minimal_quadratic(algebra, algebra.basis_element(i))
        if mq.kind == "not_quadratic":
            raise InconsistentInputError(
                f"basis vector {i} has no quadratic relation; algebra is not quadratic"
            )
        shift = (mq.trace or F0) / 2
        out.append(algebra.basis_element(i) - algebra.one().scale(shift))
    return out


def _scalar_coefficient(algebra: Algebra, x: Element) -> Fraction | None:
    """lam with x = lam * 1, or None if x is not scalar."""
    u = algebra.unit
    for i, c in enumerate(x.coords):
        if i != u and c != 0:
            return None
    return x.coords[u]


def inner_product_gram(algebra: Algebra, vectors: Sequence[Element]) -> Matrix:
    """Gram matrix of <u, v> = -(uv + vu)/2 on vectors with scalar symmetrized products."""
    m = len(vectors)
    g = [[F0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            s = algebra.multiply(vectors[i], vectors[j]) + algebra.multiply(
                vectors[j], vectors[i]
            )
            lam = _scalar_coefficient(algebra, s)
            if lam is None:
                raise InconsistentInputError(
                    "uv + vu is not scalar on the imaginary part"
                )
            g[i][j] = g[j][i] = -lam / 2
    return tuple(tuple(row) for row in g)


def _certificate_from_orthonormal(
    algebra: Algebra, vectors: Sequence[Element]
) -> LocallyComplexCertificate:
    basis = [algebra.one()] + list(vectors)
    cols = tuple(
        tuple(basis[j].coords[k] for j in range(len(basis)))
        for k in range(algebra.dim)
    )
    return LocallyComplexCertificate(tuple(basis), mat_inv(cols))


def orthonormalize(
    algebra: Algebra, vectors: Sequence[Element], gram: Matrix
) -> list[Element] | None:
    """Gram-Schmidt over the rationals, normalized to squared length one.

    Returns None when some orthogonalized vector has a squared length that is
    not a perfect rational square, in which case no certificate basis can be
    produced by scaling alone.
    """
    done: list[Element] = []
    pending = list(vectors)

    def ip(a: Element, b: Element) -> Fraction:
        s = algebra.multiply(a, b) + algebra.multiply(b, a)
        lam = _scalar_coefficient(algebra, s)
        assert lam is not None
        return -lam / 2

    while pending:
        # Prefer a vector whose orthogonalized length is already a square.
        chosen = None
        for idx, cand in enumerate(pending):
            v = cand
            for e in done:
                v = v - e.scale(ip(v, e))
            if v.is_zero():
                pending.pop(idx)
                chosen = "skip"
                break
            norm = ip(v, v)
            root = sqrt_fraction(norm)
            if root is not None and root != 0:
                done.append(v.scale(F1 / root))
                pending.pop(idx)
                chosen = "ok"
                break
        if chosen == "skip":
            continue
        if chosen is None:
            return None
    return done


def is_locally_complex(algebra: Algebra) -> LocallyComplexCheck:
    """Decide local complexity exactly and build a normalized basis when possible.

    The verdict never needs square roots: it is quadraticity plus positive
    definiteness of the symmetrized product form on the imaginary part, both
    checked over the rationals.  The certificate basis does need exact square
    roots of the Gram-Schmidt lengths; when one is irrational the verdict is
    still returned, with certificate None.
    """
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
    gram = inner_product_gram(algebra, imag)
    direction = nonpositive_direction(gram)
    if direction is not None:
        bad = algebra.zero()
        for c, v in zip(direction, imag):
            if c:
                bad = bad + v.scale(c)
        sq = algebra.multiply(bad, bad)
        lam = _scalar_coefficient(algebra, sq)
        kind = "nonpositive-norm"
        witness = bad
        if lam == 0:
            kind = "square-zero"
        elif lam is not None and lam > 0:
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
    ortho = orthonormalize(algebra, imag, gram)
    cert = None
    if ortho is not None:
        cert = _certificate_from_orthonormal(algebra, ortho)
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
    for rows in (grading.even_rows, grading.odd_rows):
        witness = _first_defect(algebra, rows)
        if witness is not None:
            return IdentityCheck(False, witness)
    return IdentityCheck(True)


def middle_moufang_on_basis(algebra: Algebra) -> tuple[bool, tuple[int, int, int] | None]:
    """Check (xy)(zx) = (x(yz))x on all basis triples, exactly.

    Unlike the alternativity check this is not polarized to a complete
    verdict; it is the identity evaluated on the basis cube, which is what
    table-level verification needs.
    """
    n = algebra.dim
    basis = [algebra.basis_element(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = algebra.multiply(
                    algebra.multiply(basis[i], basis[j]),
                    algebra.multiply(basis[k], basis[i]),
                )
                rhs = algebra.multiply(
                    algebra.multiply(basis[i], algebra.multiply(basis[j], basis[k])),
                    basis[i],
                )
                if lhs.coords != rhs.coords:
                    return False, (i, j, k)
    return True, None


# ---------------------------------------------------------------------------
# nicely normed / commutative detection
# ---------------------------------------------------------------------------


def is_nicely_normed(algebra: Algebra) -> bool:
    """Whether the algebra carries the standard positive involution.

    Equivalent, for finite dimension >= 2, to the products e_i e_j of a
    normalized basis staying inside the span of e_1..e_{n-1}; dimension 1 is
    nicely normed by convention.  Returns False for algebras that are not
    locally complex.
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
