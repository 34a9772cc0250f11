"""Construction and classification of 3- and 4-dimensional locally complex
algebras.

Three dimensions: the product carries two parameters (t, s) and the map
(t, s) -> algebra is a bijection from the closed quadrant onto isomorphism
classes.  Four dimensions: the parameters are a 3x3 matrix T and a vector u,
with (T, u) and (T', u') isomorphic exactly when T' = (det Q) Q T Q^T and
u' = (det Q) Q u for an orthogonal Q.

Everything that can stay rational does: building the algebras, extracting
parameters and round trips.  The division criterion is exact for every
finite input, floats included (read as the rationals they denote): one
congruence diagonalization (LDL) of the symmetric part P of T decides
definiteness, and on "no" yields an isotropic vector z of P, from which
the zero-divisor pair is built and verified exactly.  z is rational when a
zero diagonal entry or pivot, a binary subform with a square discriminant,
or Legendre's descent on the diagonal form (``numth.ternary_zero``) gives
one.  Float entries have pivots too large to factor for the descent; for
them a small zero is found as a common zero of the decimal part of P and
its rounding error.  Otherwise z lies in Q(sqrt(m)) for m = -d_i d_j, a
pair of pivots of opposite signs, and the pair has ``numth.Surd`` entries.
The same pivots
give the exact signature for ``geometric_type`` on int/Fraction input.
Spectral work (canonical forms of the symmetric part, orbit comparison, and
geometric typing of float input) runs in floating point with an explicit
tolerance, default 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .core import Algebra
from .errors import DimensionMismatchError, MalformedInputError
from .linalg import F0, F1, Matrix, Vector, _primitive, congruence_diagonal, mat, unit_vector, vec
from .numth import Surd, rational_roots, sqrt_fraction, sqrt_rational, ternary_zero
from .properties import certificate_or_raise

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# three dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm3:
    """Canonical parameters (t, s), both nonnegative.

    Fields are Fractions when the extraction stayed exact and floats when a
    square root was irrational.
    """

    t: Fraction | float
    s: Fraction | float


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


def build_3d(t, s) -> Algebra:
    """The canonical-form 3-dimensional locally complex algebra for (t, s).

    Canonical parameters are nonnegative; use build_raw_3d for arbitrary raw
    correction data.
    """
    if t < 0 or s < 0:
        raise ValueError("canonical parameters must be nonnegative; use build_raw_3d")
    return build_raw_3d(t, s, 0)


def canonical_params_3d(algebra: Algebra) -> CanonicalForm3:
    """Extract (|t|, ||z||) from any 3-dimensional locally complex algebra.

    Reads the raw parameters off a normalized basis; reflecting the plane
    when t < 0 and rotating z onto the first axis realizes exactly (|t|,
    ||z||), so that pair is returned.  The norm is exact when z's squared
    length is a perfect rational square.
    """
    if algebra.dim != 3:
        raise DimensionMismatchError("canonical 3d form needs a 3-dimensional algebra")
    cert = certificate_or_raise(algebra)
    e1, e2 = cert.basis[1], cert.basis[2]
    prod = cert.to_certificate_coords(algebra.multiply(e1, e2))
    t_raw, z1, z2 = prod[0], prod[1], prod[2]
    s_sq = z1 * z1 + z2 * z2
    root = sqrt_fraction(s_sq)
    s: Fraction | float = root if root is not None else math.sqrt(float(s_sq))
    return CanonicalForm3(abs(t_raw), s)


def params_equal_3d(c1: CanonicalForm3, c2: CanonicalForm3, tol=0) -> bool:
    """Componentwise comparison; tol 0 means exact (for rational forms)."""
    if tol == 0:
        return c1.t == c2.t and c1.s == c2.s
    return abs(float(c1.t) - float(c2.t)) <= tol and abs(float(c1.s) - float(c2.s)) <= tol


# ---------------------------------------------------------------------------
# four dimensions: construction and exact extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Params4:
    """The (T, u) parameters of a 4-dimensional locally complex algebra."""

    t_matrix: Matrix  # 3x3
    u: Vector  # length 3

    def negated(self) -> "Params4":
        return Params4(
            tuple(tuple(-x for x in row) for row in self.t_matrix), self.u
        )


def _cross(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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


def extract_params_4d(algebra: Algebra) -> Params4:
    """Read (T, u) off a normalized basis of a 4-dimensional locally complex
    algebra, with the sign and index conventions fixed by the exact round
    trip against build_4d."""
    if algebra.dim != 4:
        raise DimensionMismatchError("parameter extraction needs dimension 4")
    cert = certificate_or_raise(algebra)
    e = cert.basis
    p12 = cert.to_certificate_coords(algebra.multiply(e[1], e[2]))
    p13 = cert.to_certificate_coords(algebra.multiply(e[1], e[3]))
    p23 = cert.to_certificate_coords(algebra.multiply(e[2], e[3]))
    # e1 e2 = (u3, T e3), e1 e3 = (-u2, -T e2), e2 e3 = (u1, T e1).
    t_cols = (
        tuple(p23[1:]),
        tuple(-x for x in p13[1:]),
        tuple(p12[1:]),
    )
    T = tuple(tuple(t_cols[cidx][r] for cidx in range(3)) for r in range(3))
    u = (p23[0], -p13[0], p12[0])
    return Params4(T, u)


# ---------------------------------------------------------------------------
# symmetric/skew split and exact division criterion
# ---------------------------------------------------------------------------


def symmetric_part(T: Matrix) -> Matrix:
    return tuple(
        tuple((T[i][j] + T[j][i]) / 2 for j in range(3)) for i in range(3)
    )


def skew_axis(T: Matrix) -> Vector:
    """c with skew part R_c = [[0, c3, -c2], [-c3, 0, c1], [c2, -c1, 0]]."""
    R = tuple(
        tuple((T[i][j] - T[j][i]) / 2 for j in range(3)) for i in range(3)
    )
    return (R[1][2], R[2][0], R[0][1])


def symmetric_part_definite(T: Matrix) -> bool:
    """Exact rational test: is (T + T^T)/2 positive or negative definite?"""
    return _definite(congruence_diagonal(symmetric_part(mat(T)))[0])


def _definite(pivots: Vector) -> bool:
    return all(d > 0 for d in pivots) or all(d < 0 for d in pivots)


def _isotropic(T: Matrix, P: Matrix, pivots: Vector, rows: Matrix) -> tuple:
    """z != 0 with z^T P z = 0, for P = (T + T^T)/2 not definite, where
    ``rows P rows^T = diag(pivots)``: rational when :func:`_rational_isotropic`
    or :func:`_decimal_zero` finds one, otherwise in Q(sqrt(m)) with
    m = -d_i d_j for a pair of pivots of opposite signs."""
    z = _rational_isotropic(P, pivots, rows)
    if z is None:
        z = _decimal_zero(T, P)
    if z is not None:
        return z
    i, j = next((i, j) for i in range(3) for j in range(i + 1, 3) if pivots[i] * pivots[j] < 0)
    # d_i + d_j y^2 = 0 at y = sqrt(-d_i d_j) / d_j.
    y = sqrt_rational(-pivots[i] * pivots[j]) / pivots[j]
    return _combine((F1, y), (rows[i], rows[j]))


def _rational_isotropic(P: Matrix, pivots: Vector, rows: Matrix) -> Vector | None:
    """A rational z != 0 with z^T P z = 0 from a zero diagonal entry of P, a
    zero pivot, a 2x2 principal block of P or a pair of pivots whose binary
    form has a square discriminant, or the descent of
    :func:`cdalg.numth.ternary_zero`; None if none of them gives one."""
    for i in range(3):
        if P[i][i] == 0:
            return unit_vector(3, i)
    for d, row in zip(pivots, rows):
        if d == 0:
            return _primitive_vector(row)
    # P_ii x^2 + 2 P_ij x y + P_jj y^2 = 0 at x = r - P_ij, y = P_ii.
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r = sqrt_fraction(P[i][j] * P[i][j] - P[i][i] * P[j][j])
        if r is not None:
            z = [F0, F0, F0]
            z[i], z[j] = r - P[i][j], P[i][i]
            return _primitive_vector(z)
    for i in range(3):
        for j in range(i + 1, 3):
            y = sqrt_fraction(-pivots[i] * pivots[j])
            if y is not None:
                return _primitive_vector(_combine((F1, y / pivots[j]), (rows[i], rows[j])))
    ys = ternary_zero(pivots)
    if ys is not None:
        return _primitive_vector(_combine(ys, rows))
    return None


def _decimal_zero(T: Matrix, P: Matrix) -> Vector | None:
    """A rational zero of P that is also a zero of A, the symmetric part of T
    with each entry that is a float read as the shortest decimal rounding to
    it (``0.1`` for 3602879701896397/2^55), or None.

    P = A + E, where A has small denominators, so its pivots factor, and E
    holds the rounding errors.  A zero z of P with small entries is a zero of
    both: z^T A z is a multiple of 1/den(A), and |z^T E z| is far smaller.
    From one rational zero z0 of A every zero of A is
    z(w) = A(w) z0 - 2 (z0^T A w) w with w = r p1 + p2 (or w = p1) in a plane
    spanned by unit vectors p1, p2 with z0 outside it, and E(z(w)) = 0 is a
    quartic in r whose rational roots (:func:`cdalg.numth.rational_roots`)
    give the common zeros.
    """
    A = symmetric_part(tuple(tuple(_shortest_decimal(x) for x in row) for row in T))
    if A == P:
        return None
    pivots, rows = congruence_diagonal(A)
    z0 = None if _definite(pivots) else _rational_isotropic(A, pivots, rows)
    if z0 is None:
        return None
    # Both forms scaled to integers; z0 is a primitive integer vector.
    E = _integer_form(tuple(tuple(p - a for p, a in zip(rp, ra)) for rp, ra in zip(P, A)))
    A = _integer_form(A)
    z0 = tuple(int(c) for c in z0)
    if _form(E, z0, z0) == 0:
        return vec(z0)
    k = next(i for i in range(3) if z0[i])
    p1, p2 = (tuple(int(i == j) for j in range(3)) for i in range(3) if i != k)
    a01, a02 = _form(A, z0, p1), _form(A, z0, p2)
    # z(r p1 + p2) = r^2 c2 + r c1 + c0.
    c2 = _combine((_form(A, p1, p1), -2 * a01), (z0, p1))
    c1 = _combine((2 * _form(A, p1, p2), -2 * a01, -2 * a02), (z0, p2, p1))
    c0 = _combine((_form(A, p2, p2), -2 * a02), (z0, p2))
    quartic = [
        _form(E, c2, c2),
        2 * _form(E, c2, c1),
        2 * _form(E, c2, c0) + _form(E, c1, c1),
        2 * _form(E, c1, c0),
        _form(E, c0, c0),
    ]
    if not any(quartic):
        return None
    candidates = [c2] if quartic[0] == 0 else []
    while quartic[0] == 0:
        quartic.pop(0)
    for r in rational_roots(quartic):
        p, q = r.numerator, r.denominator
        candidates.append(_combine((p * p, p * q, q * q), (c2, c1, c0)))
    for z in candidates:
        if any(z) and _form(P, z, z) == 0:
            return _primitive_vector(z)
    return None


def _shortest_decimal(x: Fraction) -> Fraction:
    """The shortest decimal that rounds to x when x is a float, else x."""
    d = x.denominator
    if d & (d - 1) == 0 and x.numerator.bit_length() <= 53 and float(x) == x:
        return Fraction(repr(float(x)))
    return x


def _form(M, x, y):
    return _dot(x, tuple(_dot(row, y) for row in M))


def _integer_form(M: Matrix) -> list[list[int]]:
    """M times the lcm of its denominators."""
    d = math.lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in M]


def _combine(coeffs, rows) -> tuple:
    return tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(3))


def _primitive_vector(v: Sequence[Fraction]) -> Vector:
    return tuple(Fraction(x) for x in _primitive(v))


def exact_zero_divisor_pair(params: Params4) -> tuple[tuple, tuple] | None:
    """A pair (x, y) of nonzero elements with x y = 0 in the algebra of these
    parameters, in (scalar, vector) coordinates, or None exactly when the
    symmetric part P of T is definite.

    The entries are ``Fraction``s when :func:`_isotropic` finds a rational
    isotropic vector z of P: always when P has one and the descent can
    factor its pivots, and for a small z when T has float entries.  They
    lie in Q(sqrt(m)) (:class:`cdalg.numth.Surd`) otherwise.  With
    w = -T z, x = (0, w) and y = (1, (z x w)/|w|^2 + (z.u / |w|^2) w); when
    T z = 0, w is any vector orthogonal to z and y has scalar part 0.
    """
    T = mat(params.t_matrix)
    P = symmetric_part(T)
    pivots, rows = congruence_diagonal(P)
    if _definite(pivots):
        return None
    z = _isotropic(T, P, pivots, rows)
    tz = tuple(_dot(row, z) for row in T)
    if all(x == 0 for x in tz):
        w = _any_orthogonal(z)
        t_scalar = F0
    else:
        w = tuple(-x for x in tz)
        t_scalar = F1
    wnorm = _dot(w, w)
    v = tuple(x / wnorm for x in _cross(z, w))
    s = -_dot(z, vec(params.u)) / wnorm
    y_vec = tuple(vi - s * wi for vi, wi in zip(v, w))
    x = (F0, *w)
    y = (t_scalar, *y_vec)
    return (x, y)


def _any_orthogonal(z) -> tuple:
    for trial in ((F1, F0, F0), (F0, F1, F0), (F0, F0, F1)):
        c = _cross(z, trial)
        if any(x != 0 for x in c):
            return c
    raise ValueError("zero vector has no orthogonal complement direction")


def multiply_4d_exact(t_matrix, u, x, y) -> tuple:
    """Exact product in the (T, u) algebra; x and y may have
    :class:`cdalg.numth.Surd` entries."""
    T = mat(t_matrix)
    uu = vec(u)
    x = tuple(c if isinstance(c, Surd) else Fraction(c) for c in x)
    y = tuple(c if isinstance(c, Surd) else Fraction(c) for c in y)
    lam, xv = x[0], x[1:]
    mu, yv = y[0], y[1:]
    cr = _cross(xv, yv)
    scalar = lam * mu - _dot(xv, yv) + _dot(cr, uu)
    vector = tuple(
        lam * yv[r] + mu * xv[r] + _dot(T[r], cr) for r in range(3)
    )
    return (scalar, *vector)


# ---------------------------------------------------------------------------
# geometric type and division
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricType:
    rank: int
    kind: str  # ellipsoid | hyperboloid | elliptic-cylinder | hyperbolic-cylinder | rank1 | rank0


def _sym_eigen(T) -> tuple[np.ndarray, np.ndarray]:
    Tf = np.asarray(T, dtype=float)
    P = (Tf + Tf.T) / 2
    w, V = np.linalg.eigh(P)
    order = np.argsort(-w)
    w = w[order]
    V = V[:, order]
    if np.linalg.det(V) < 0:
        V[:, 2] = -V[:, 2]
    return w, V


def _signature(T, tol: float) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of the symmetric part of T:
    exact for int and ``Fraction`` entries, with ``tol`` otherwise."""
    if all(isinstance(x, Rational) for row in T for x in row):
        pivots = congruence_diagonal(symmetric_part(mat(T)))[0]
        return sum(1 for d in pivots if d > 0), sum(1 for d in pivots if d < 0)
    Tf = np.asarray(T, dtype=float)
    scale = 1.0 + np.abs(Tf).max()
    w, _ = _sym_eigen(Tf)
    return int(np.sum(w > tol * scale)), int(np.sum(w < -tol * scale))


def geometric_type(T, tol: float = DEFAULT_TOL) -> GeometricType:
    """Rank and signature class of the symmetric part, up to a global sign.

    When every entry of T is an int or a ``Fraction`` the signature is
    exact: the signs of the pivots of :func:`cdalg.linalg.congruence_diagonal`
    (Sylvester's law of inertia), the same pivots that decide
    :func:`is_division_4d`, and ``tol`` is unused.  Otherwise the eigenvalues
    of the float symmetric part count as zero within ``tol * (1 + max|T_ij|)``.
    """
    pos, neg = _signature(T, tol)
    rank = pos + neg
    if rank == 3:
        kind = "ellipsoid" if pos == 3 or neg == 3 else "hyperboloid"
    elif rank == 2:
        kind = "elliptic-cylinder" if pos == 2 or neg == 2 else "hyperbolic-cylinder"
    elif rank == 1:
        kind = "rank1"
    else:
        kind = "rank0"
    return GeometricType(rank, kind)


@dataclass(frozen=True)
class DivisionCheck:
    is_division: bool
    pair: tuple | None = None  # ((scalar, v1, v2, v3), (scalar, v1, v2, v3))
    exact: bool = False


def is_division_4d(T, u=None, tol: float = DEFAULT_TOL) -> DivisionCheck:
    """Division criterion: the symmetric part of T must be definite.

    Decided exactly for every finite real input (floats are read as the
    rationals they denote) by one LDL of the symmetric part, so ``tol`` is
    unused.  A "no" carries a zero-divisor pair from
    :func:`exact_zero_divisor_pair`, verified exactly, with ``exact`` True;
    its entries are rational when a rational isotropic vector of the
    symmetric part is found, and lie in Q(sqrt(m)) otherwise.  NaN or
    infinite entries raise :class:`MalformedInputError`.
    """
    try:
        params = Params4(mat(T), vec((0, 0, 0) if u is None else u))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"4d parameters must be finite real numbers: {exc}") from None
    if len(params.t_matrix) != 3 or any(len(r) != 3 for r in params.t_matrix) or len(params.u) != 3:
        raise DimensionMismatchError("T must be 3x3 and u length 3")
    pair = exact_zero_divisor_pair(params)
    if pair is None:
        return DivisionCheck(True)
    x, y = pair
    if any(multiply_4d_exact(params.t_matrix, params.u, x, y)) or not any(x) or not any(y):
        raise ArithmeticError("exact zero-divisor pair failed verification")
    return DivisionCheck(False, pair, exact=True)


# ---------------------------------------------------------------------------
# orbit equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equiv4Result:
    equivalent: bool
    witness: np.ndarray | None = None  # orthogonal Q realizing the signed conjugation
    borderline: bool = False


def equiv_4d(p1, p2, tol: float = DEFAULT_TOL) -> Equiv4Result:
    """Decide whether two parameter pairs give isomorphic algebras.

    Equivalence means T' = (det Q) Q T Q^T and u' = (det Q) Q u for some
    orthogonal Q.  Orthogonal equivalence reduces to rotation equivalence of
    either (T, u) or (-T, u), so both are tried.  Comparisons within a factor
    10 of the tolerance set the borderline flag instead of silently deciding.
    """
    T1, u1 = _as_params(p1)
    T2, u2 = _as_params(p2)
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


def _as_params(p) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, Params4):
        return (
            np.array([[float(x) for x in row] for row in p.t_matrix]),
            np.array([float(x) for x in p.u]),
        )
    T, u = p
    return np.asarray(T, dtype=float), np.asarray(u, dtype=float)


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
    c1 = np.array(skew_axis_float(T1))
    c2 = np.array(skew_axis_float(T2))
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


def skew_axis_float(T: np.ndarray) -> tuple[float, float, float]:
    R = (T - T.T) / 2
    return (R[1][2], R[2][0], R[0][1])


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


# ---------------------------------------------------------------------------
# hyperboloid configurations and the rank-0 classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperboloidConfig:
    delta: tuple[float, float, float]  # d1 >= d2 > 0 > d3
    u: tuple[float, float, float]
    c: tuple[float, float, float]


def hyperboloid_config(p, tol: float = DEFAULT_TOL) -> HyperboloidConfig:
    """Principal-axis form of a hyperboloid-type parameter pair.

    Applies the global sign flip if needed so two eigenvalues are positive,
    then rotates the symmetric part to a sorted diagonal with a determinant-1
    matrix, transporting the skew axis and the vector along.  The type test
    and the flip read the signature as :func:`geometric_type` does, exactly
    for int and ``Fraction`` entries; the frame is computed in floats.
    """
    pos, neg = _signature(p.t_matrix if isinstance(p, Params4) else p[0], tol)
    if pos + neg != 3 or pos == 3 or neg == 3:
        raise ValueError("parameters are not of hyperboloid type")
    T, u = _as_params(p)
    if pos == 1:
        T = -T
    w, V = _sym_eigen(T)
    Q = V.T
    c = np.array(skew_axis_float(T))
    return HyperboloidConfig(tuple(w), tuple(Q @ u), tuple(Q @ c))


def rank0_equiv(d, u, d2, u2, tol: float = DEFAULT_TOL) -> bool:
    """Isomorphism test for the rank-0 family (pure skew T with axis d e_3).

    Invariants: the skew magnitude, the length of u, and, when the skew part
    is nonzero, the magnitude of u's component along the skew axis.  The
    magnitude (not the signed value) is correct here: conjugating by
    diag(1, -1, 1) preserves the skew matrix, has determinant -1, and sends
    u_3 to -u_3, so the sign is not an isomorphism invariant.
    """
    if d < 0 or d2 < 0:
        raise ValueError("skew magnitudes must be nonnegative")
    u = np.asarray(u, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    scale = 1.0 + max(abs(d), abs(d2), np.abs(u).max(), np.abs(u2).max())
    atol = tol * scale
    if abs(d - d2) > atol:
        return False
    if abs(np.linalg.norm(u) - np.linalg.norm(u2)) > atol:
        return False
    if d <= atol:
        return True
    return abs(abs(u[2]) - abs(u2[2])) <= atol
