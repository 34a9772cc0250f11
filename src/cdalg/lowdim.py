"""Construction and classification of 3- and 4-dimensional locally complex
algebras.

Three dimensions: the product carries two parameters (t, s) and the map
(t, s) -> algebra is a bijection from the closed quadrant onto isomorphism
classes.  Four dimensions: the parameters are a 3x3 matrix T and a vector u,
with (T, u) and (T', u') isomorphic exactly when T' = (det Q) Q T Q^T and
u' = (det Q) Q u for an orthogonal Q.

Everything that can stay rational does.  Both families' tables are written
by one helper, as integers over one denominator, in the normalized basis
(``construct.normalized_basis_algebra``); the parameters are read back
through one helper too, the products of a normalized basis in its
coordinates (``LocallyComplexCertificate.products``), so round trips are
exact.  The division criterion is exact for every finite input, floats
included (read as the rationals they denote): one congruence
diagonalization of the symmetric part P of T, the integer LDL of
``linalg.congruence_diagonal``, decides definiteness, and on "no" yields
an isotropic vector z of P, from which the zero-divisor pair is built and
verified exactly.  z is rational when a
zero diagonal entry or pivot, a binary subform with a square discriminant,
or Legendre's descent on the diagonal form (``numth.ternary_zero``) gives
one.  Float entries have pivots too large to factor for the descent; for
them a small zero is found as a common zero of the decimal part of P and
its rounding error.  Otherwise z lies in Q(sqrt(m)) for m = -d_i d_j, a
pair of pivots of opposite signs.  Either way the pair is built and
checked on integer parts (z = a + b sqrt(m), T and u over one
denominator); ``numth.Surd`` is only the value type of the returned
entries.  The same pivots give the exact signature for ``geometric_type``
on int/Fraction input.
Orbit comparison reads polynomial invariants, exactly on int/Fraction input.
On float input it and the geometric type, and the canonical frames, run in
floating point with the fixed tolerance ``DEFAULT_TOL`` = 1e-9.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .construct import normalized_basis_algebra
from .core import Algebra
from .errors import DimensionMismatchError, MalformedInputError
from .linalg import (F0, F1, Matrix, Vector, _primitive, congruence_diagonal, mat, scaled_rows,
                     vec)
from .numth import Surd, rational_roots, sqrt_fraction, sqrt_parts, ternary_zero
from .properties import certificate_or_raise

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# three dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm3:
    """Canonical parameters (t, s), both nonnegative, and s^2.

    ``t`` and ``s^2`` are Fractions when the extraction is exact; ``s`` is a
    Fraction when ``s^2`` is a rational square and otherwise the float
    nearest its root.  ``s_squared`` defaults to ``s * s``.
    """

    t: Fraction | float
    s: Fraction | float
    s_squared: Fraction | float | None = None

    def __post_init__(self):
        if self.s_squared is None:
            object.__setattr__(self, "s_squared", self.s * self.s)


def build_raw_3d(t, z1, z2) -> Algebra:
    """The 3-dimensional algebra with raw correction (t, z) attached to the
    planar determinant; canonical inputs use z = (s, 0)."""
    return normalized_basis_algebra(("1", "e1", "e2"), ((1, 2),), ((t, z1, z2),))


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
    t_raw, z1, z2 = certificate_or_raise(algebra).products(algebra, ((1, 2),))[0].coords
    s_sq = z1 * z1 + z2 * z2
    root = sqrt_fraction(s_sq)
    s: Fraction | float = root if root is not None else math.sqrt(float(s_sq))
    return CanonicalForm3(abs(t_raw), s, s_sq)


def params_equal_3d(c1: CanonicalForm3, c2: CanonicalForm3, tol=0) -> bool:
    """Componentwise comparison; tol 0 means exact, on ``(t, s^2)``, so an
    irrational ``s`` is never compared through its float."""
    if tol == 0:
        return c1.t == c2.t and c1.s_squared == c2.s_squared
    return abs(float(c1.t) - float(c2.t)) <= tol and abs(float(c1.s) - float(c2.s)) <= tol


# ---------------------------------------------------------------------------
# four dimensions: construction and exact extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Params4:
    """The (T, u) parameters of a 4-dimensional locally complex algebra;
    unpacks as the pair ``T, u``."""

    t_matrix: Matrix  # 3x3
    u: Vector  # length 3

    def __iter__(self):
        return iter((self.t_matrix, self.u))


def _cross(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# The pairs (i, j) with e_i e_j = (u_k, T e_k), for k = 1, 2, 3.
_CYCLE = ((2, 3), (3, 1), (1, 2))


def build_4d(t_matrix, u) -> Algebra:
    """The 4-dimensional algebra with vector-product correction T and triple
    product weight u."""
    T = mat(t_matrix)
    uu = vec(u)
    if len(T) != 3 or any(len(r) != 3 for r in T) or len(uu) != 3:
        raise DimensionMismatchError("T must be 3x3 and u length 3")
    cols = [(uk, *col) for uk, col in zip(uu, zip(*T))]  # (u_k, T e_k)
    return normalized_basis_algebra(("1", "e1", "e2", "e3"), _CYCLE, cols)


def extract_params_4d(algebra: Algebra) -> Params4:
    """Read (T, u) off a normalized basis of a 4-dimensional locally complex
    algebra, with the sign and index conventions fixed by the exact round
    trip against build_4d."""
    if algebra.dim != 4:
        raise DimensionMismatchError("parameter extraction needs dimension 4")
    cols = [p.coords for p in certificate_or_raise(algebra).products(algebra, _CYCLE)]
    return Params4(tuple(zip(*(col[1:] for col in cols))), tuple(col[0] for col in cols))


# ---------------------------------------------------------------------------
# symmetric/skew split and exact division criterion
# ---------------------------------------------------------------------------


def symmetric_part(T: Matrix) -> Matrix:
    return tuple(
        tuple((T[i][j] + T[j][i]) / 2 for j in range(3)) for i in range(3)
    )


def _isotropic(T: Matrix) -> tuple | None:
    """(a, b, m) with z = a + b sqrt(m) != 0 and z^T P z = 0 for
    P = (T + T^T)/2, or None when P is definite.  z is rational (b = 0 and
    m = 1) when :func:`_rational_isotropic` or :func:`_decimal_zero` finds
    one; otherwise m is -d_i d_j, up to square factors, for a pair of
    pivots of opposite signs of ``rows P rows^T = diag(pivots)``."""
    P = symmetric_part(T)
    pivots, rows = congruence_diagonal(P)
    z = _rational_isotropic(P, pivots, rows)
    if z is None:
        z = _decimal_zero(T, P)
    if z:
        return z, (F0, F0, F0), 1
    ij = next(((i, j) for i in range(3) for j in range(i + 1, 3) if pivots[i] * pivots[j] < 0), None)
    if ij is None:
        return None
    i, j = ij
    # d_i + d_j y^2 = 0 at y = sqrt(-d_i d_j) / d_j = c sqrt(m) / d_j.
    c, m = sqrt_parts(-pivots[i] * pivots[j])
    return rows[i], tuple(c / pivots[j] * x for x in rows[j]), m


def _rational_isotropic(P: Matrix, pivots: Vector, rows: Matrix) -> tuple | bool | None:
    """A primitive integer z != 0 with z^T P z = 0 from a zero diagonal
    entry of P, a zero pivot, a 2x2 principal block of P or a pair of pivots
    whose binary form has a square discriminant, or the descent of
    :func:`cdalg.numth.ternary_zero`.  Otherwise the descent's answer: False
    when P has no rational isotropic vector (P definite, or z^T P z, the
    diagonal form of the pivots in the coordinates of ``rows``, has no
    rational zero), None when it could not factor a pivot."""
    if all(d > 0 for d in pivots) or all(d < 0 for d in pivots):
        return False
    for i in range(3):
        if P[i][i] == 0:
            return tuple(int(i == j) for j in range(3))
    for d, row in zip(pivots, rows):
        if d == 0:
            return tuple(_primitive(row))
    # P_ii x^2 + 2 P_ij x y + P_jj y^2 = 0 at x = r - P_ij, y = P_ii.
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r = sqrt_fraction(P[i][j] * P[i][j] - P[i][i] * P[j][j])
        if r is not None:
            z = [F0, F0, F0]
            z[i], z[j] = r - P[i][j], P[i][i]
            return tuple(_primitive(z))
    for i in range(3):
        for j in range(i + 1, 3):
            y = sqrt_fraction(-pivots[i] * pivots[j])
            if y is not None:
                return tuple(_primitive(_combine((F1, y / pivots[j]), (rows[i], rows[j]))))
    ys = ternary_zero(pivots)
    return tuple(_primitive(_combine(ys, rows))) if ys else ys


def _decimal_zero(T: Matrix, P: Matrix) -> tuple | None:
    """A primitive integer zero of P that is also a zero of A, the symmetric
    part of T with each entry that is a float read as the shortest decimal
    rounding to it (``0.1`` for 3602879701896397/2^55), or None.

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
    z0 = _rational_isotropic(A, *congruence_diagonal(A))
    if not z0:
        return None
    # Both forms scaled to integers; z0 is a primitive integer vector.
    E = scaled_rows([[p - a for p, a in zip(rp, ra)] for rp, ra in zip(P, A)])[0]
    A = scaled_rows(A)[0]
    if _form(E, z0, z0) == 0:
        return z0
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
            return tuple(_primitive(z))
    return None


def _shortest_decimal(x: Fraction) -> Fraction:
    """The shortest decimal that rounds to x when x is a float, else x."""
    d = x.denominator
    if d & (d - 1) == 0 and x.numerator.bit_length() <= 53 and float(x) == x:
        return Fraction(repr(float(x)))
    return x


def _form(M, x, y):
    return _dot(x, tuple(_dot(row, y) for row in M))


def _combine(coeffs, rows) -> tuple:
    return tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(3))


def rational_zero_divisor_pair(params: Params4) -> tuple[tuple, tuple] | bool | None:
    """The pair of :func:`is_division_4d` when a rational isotropic vector of
    P gives it; False when P has none (definite, or no rational
    zero by the descent), so that the algebra over Q has no zero divisors
    (see ``cdalg.analysis._lowdim_exact_route``); None when the descent
    could not factor a pivot."""
    T = mat(params.t_matrix)
    P = symmetric_part(T)
    z = _rational_isotropic(P, *congruence_diagonal(P))
    return _pair_of_isotropic(T, params.u, (z, (F0, F0, F0), 1)) if z else z


def _pair_of_isotropic(T: Matrix, u: Vector, z: tuple) -> tuple[tuple, tuple]:
    """The pair (x, y) of an isotropic z = a + b sqrt(m) of the symmetric
    part of T, checked: with w = -T z, x = (0, w) and
    y = (1, (z x w + (z.u) w) / |w|^2); when T z = 0, w = z x e_k for the
    first e_k that makes it nonzero, and y has scalar part 0.

    T, u, a and b are scaled once to integers over one denominator D:
    z = Z / D and w = W / D^2 with Z, W in Z[sqrt(m)]^3, and y = (t, Y / N)
    with Y = D (Z x W) + (Z.U) W, U = D u, and N = |W|^2.  These, and D times
    the product (0, W)(t N, Y), which is zero exactly when x y is, are
    computed on integer parts by :func:`_lift`.  ``Fraction`` and ``Surd``
    entries are made only for the returned pair.  Raises ArithmeticError
    when the check fails, as it does when z is not isotropic.
    """
    rows, D = scaled_rows([*T, u, *z[:2]])
    Tn, un, Z, m = rows[:3], rows[3], rows[4:], z[2]
    W = tuple(tuple(-_dot(row, p) for row in Tn) for p in Z)
    t = int(any(W[0] + W[1]))
    if not t:
        axes = ((D, 0, 0), (0, D, 0), (0, 0, D))
        W = next((w for w in (tuple(_cross(p, e) for p in Z) for e in axes) if any(w[0] + w[1])), W)
    N = _lift(_dot, W, W, m)
    Y = _lift(lambda p, q: tuple(D * c + _dot(p, un) * x for c, x in zip(_cross(p, q), q)), Z, W, m)

    def product(x, y):
        # D (l + v)(k + w) = D (lk - v.w + (v x w).u, lw + kv + T (v x w)).
        c = _cross(x[1:], y[1:])
        return (D * (x[0] * y[0] - _dot(x[1:], y[1:])) + _dot(c, un),
                *(D * (x[0] * y[r] + y[0] * x[r]) + _dot(Tn[r - 1], c) for r in (1, 2, 3)))

    xy = _lift(product, ((0, *W[0]), (0, *W[1])), ((t * N[0], *Y[0]), (t * N[1], *Y[1])), m)
    if any(xy[0] + xy[1]) or not any(W[0] + W[1]) or not (t or any(Y[0] + Y[1])):
        raise ArithmeticError("zero-divisor pair failed verification")
    # 1 / N = (N_0 - N_1 sqrt(m)) / (N_0^2 - m N_1^2).
    Y = _lift(lambda c, v: tuple(c * x for x in v), (N[0], -N[1]), Y, m)
    return (F0, *_surds(*W, D * D, m)), (Fraction(t), *_surds(*Y, N[0] * N[0] - m * N[1] * N[1], m))


def _lift(f, x: tuple, y: tuple, m: int) -> tuple:
    """f(x, y) for a bilinear f and x = x0 + x1 sqrt(m), y = y0 + y1 sqrt(m):
    the parts (f(x0, y0) + m f(x1, y1), f(x0, y1) + f(x1, y0)), entrywise
    when f gives vectors."""
    p, q, r, s = f(x[0], y[0]), f(x[1], y[1]), f(x[0], y[1]), f(x[1], y[0])
    if isinstance(p, tuple):
        return tuple(i + m * j for i, j in zip(p, q)), tuple(i + j for i, j in zip(r, s))
    return p + m * q, r + s


def _surds(p: Sequence[int], q: Sequence[int], den: int, m: int) -> tuple:
    """The numbers (p_k + q_k sqrt(m)) / den: a ``Fraction`` where q_k = 0."""
    return tuple(Surd(Fraction(i, den), Fraction(j, den), m) if j else Fraction(i, den)
                 for i, j in zip(p, q))


# ---------------------------------------------------------------------------
# geometric type and division
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricType:
    rank: int
    kind: str  # ellipsoid | hyperboloid | elliptic-cylinder | hyperbolic-cylinder | rank1 | rank0


def _sym_eigen(T) -> tuple[np.ndarray, np.ndarray]:
    Tf = np.asarray(T, dtype=float)
    # Halving first cannot overflow, and it is exact above the subnormals.
    P = Tf / 2 + Tf.T / 2
    w, V = np.linalg.eigh(P)
    order = np.argsort(-w)
    w = w[order]
    V = V[:, order]
    if np.linalg.det(V) < 0:
        V[:, 2] = -V[:, 2]
    return w, V


def _signature(T) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of the symmetric part of T:
    exact for int and ``Fraction`` entries, within ``DEFAULT_TOL`` otherwise."""
    if all(isinstance(x, Rational) for row in T for x in row):
        pivots = congruence_diagonal(symmetric_part(mat(T)))[0]
        return sum(1 for d in pivots if d > 0), sum(1 for d in pivots if d < 0)
    Tf = np.asarray(T, dtype=float)
    scale = 1.0 + np.abs(Tf).max()
    w, _ = _sym_eigen(Tf)
    return int(np.sum(w > DEFAULT_TOL * scale)), int(np.sum(w < -DEFAULT_TOL * scale))


def geometric_type(T) -> GeometricType:
    """Rank and signature class of the symmetric part, up to a global sign.

    When every entry of T is an int or a ``Fraction`` the signature is
    exact: the signs of the pivots of :func:`cdalg.linalg.congruence_diagonal`
    (Sylvester's law of inertia), the same pivots that decide
    :func:`is_division_4d`.  Otherwise the eigenvalues of the float
    symmetric part count as zero within ``DEFAULT_TOL * (1 + max|T_ij|)``.
    """
    pos, neg = _signature(T)
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


def is_division_4d(T, u=None) -> DivisionCheck:
    """Division criterion: the symmetric part of T must be definite.

    Decided exactly for every finite real input (floats are read as the
    rationals they denote) by one LDL of the symmetric part P.  A "no"
    carries the zero-divisor pair of :func:`_pair_of_isotropic`, checked
    exactly, with ``exact`` True.  Its entries are ``Fraction``s when
    :func:`_isotropic` finds a rational isotropic vector of P: always when
    P has one and the descent can factor its pivots, and for a small one
    when T has float entries.  They lie in Q(sqrt(m))
    (:class:`cdalg.numth.Surd`) otherwise.  NaN or infinite entries raise
    :class:`MalformedInputError`.
    """
    try:
        T, u = mat(T), vec((0, 0, 0) if u is None else u)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"4d parameters must be finite real numbers: {exc}") from None
    if len(T) != 3 or any(len(r) != 3 for r in T) or len(u) != 3:
        raise DimensionMismatchError("T must be 3x3 and u length 3")
    z = _isotropic(T)
    if z is None:
        return DivisionCheck(True)
    return DivisionCheck(False, _pair_of_isotropic(T, u, z), exact=True)


# ---------------------------------------------------------------------------
# orbit equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equiv4Result:
    equivalent: bool
    witness: np.ndarray | None = None  # Q with (T', u') = (det Q) (Q T Q^T, Q u)
    borderline: bool = False
    differs: str | None = None  # on "no", the first invariant that differs


# The rows of W with their factors (-1)^(degree in T) under (T, u) -> (-T, u),
# and the rows of the Gram entries and of the triple products.
_ROWS = ("c", "Sc", "S^2c", "u", "Su", "S^2u")
_ROW_SIGNS = np.array((-1, 1, -1, 1, -1, 1))
_PAIRS = np.triu_indices(6)
_TRIPLES = np.array(list(itertools.combinations(range(6), 3))).T
_INVARIANTS = (
    "tr S", "tr S^2", "tr S^3",
    *(f"<{_ROWS[a]}, {_ROWS[b]}>" for a, b in zip(*_PAIRS)),
    *(f"det({_ROWS[a]}, {_ROWS[b]}, {_ROWS[c]})" for a, b, c in _TRIPLES.T),
)
_FLIP = np.concatenate([(-1, 1, -1), _ROW_SIGNS[_PAIRS[0]] * _ROW_SIGNS[_PAIRS[1]],
                        np.prod(_ROW_SIGNS[_TRIPLES], axis=0)])


def equiv_4d(p1, p2) -> Equiv4Result:
    """Decide whether two parameter pairs give isomorphic algebras.

    Equivalence means (T', u') = (det Q) (Q T Q^T, Q u) for an orthogonal Q,
    that is, a rotation R = (det Q) Q taking (T, u) or (-T, u) to (T', u').
    With S the symmetric part of T, c the axis of its skew part
    (:func:`skew_axis`) and W = (c, Sc, S^2 c, u, Su, S^2 u), rotations keep
    44 values: tr S, tr S^2, tr S^3, the 21 entries of the Gram matrix W W^T
    and the 20 triple products det(w_a, w_b, w_c).  For (-T, u) each value
    is multiplied by (-1)^(its degree in T).

    The values separate the orbits.  Equal Gram matrices give an orthogonal
    Q on span W with Q w_i = w'_i.  The traces fix the characteristic
    polynomial, so by Cayley-Hamilton Q S^3 c = S'^3 c' (and so for u):
    Q S = S' Q on span W.  If W has rank 3 the equal triple products force
    det Q = 1, and Q R_c Q^T = R_{Qc} gives Q T Q^T = T'.  Below rank 3,
    the complements of span W and span W' are S- and S'-invariant with equal
    eigenvalues; mapping eigenvectors, one flipped for det Q = 1, extends Q.

    When every entry of both pairs is an int or a ``Fraction`` the values
    are compared exactly, with no tolerance: both pairs are scaled by one
    common integer, so the table is computed on Python ints.  A "yes"
    carries Q = M2^T (M1^T)^-1, M1 the triple of rows of W with the largest
    |det| and M2 the same rows of W', negated when (-T, u) matched; it is
    unique when W has rank 3, and exact and checked exactly.  Below rank 3
    there is no witness: the equal values are the certificate.

    Otherwise both pairs are divided by 1 + max|entry| and the values are
    compared within tol = ``DEFAULT_TOL``.  Near a repeated eigenvalue of S,
    near u = 0 or c = 0, or near u on an eigenvector, a perturbation moves
    the values only to second order, so equal values are not enough: the Q
    of the argument above is built in floats (span W from the singular
    vectors of W with singular value over 10 tol), and "yes" needs it to map
    one scaled pair onto the other within 100 tol.  A float "yes" always
    carries this witness.  ``borderline`` marks a largest invariant
    difference (for the closer sign) in (tol, 10 tol], or a witness residual
    in (100 tol, 1000 tol].  A "no" names the first differing invariant, for
    the sign that agrees longer, or ``"witness residual"``.
    """
    (T1, u1), (T2, u2) = p1, p2
    T, u = np.array([T1, T2], dtype=object), np.array([u1, u2], dtype=object)
    if T.shape != (2, 3, 3) or u.shape != (2, 3):
        raise DimensionMismatchError("T must be 3x3 and u length 3")
    exact = all(isinstance(x, Rational) for x in itertools.chain(T.flat, u.flat))
    tol = 0 if exact else DEFAULT_TOL
    if exact:
        T, u = (np.vectorize(Fraction, otypes=[object])(a) for a in (T, u))
    else:
        T, u = T.astype(float), u.astype(float)
        scale = 1.0 + np.abs(np.append(T, u)).max()
        if not math.isfinite(scale):
            raise MalformedInputError("4d parameters must be finite real numbers")
        T, u = T / scale, u / scale
    S = (T + T.swapaxes(1, 2)) / 2
    table = (S, np.stack(skew_axis(T), axis=-1), u)
    if exact:
        # One common integer factor multiplies each value by the same power
        # of it in both pairs, and leaves Q unchanged.
        den = math.lcm(*(x.denominator for a in table for x in a.flat))
        table = (np.vectorize(lambda x: x.numerator * (den // x.denominator), otypes=[object])(a)
                 for a in table)
    (inv1, inv2), (W1, W2) = _orbit_invariants(*table)
    diffs = np.abs(np.stack([inv1, _FLIP * inv1]) - inv2)  # for (T, u) and for (-T, u)
    over = diffs > tol
    residuals = []
    for flip in (False, True):
        if over[int(flip)].any():
            continue
        if exact:
            return Equiv4Result(True, _exact_witness(inv1, W1, W2, flip, T, u))
        err, Q = _float_witness(W1, W2, S, flip, tol, T, u)
        if err <= 100 * tol:
            return Equiv4Result(True, Q)
        residuals.append(err)
    if residuals:
        return Equiv4Result(False, None, bool(min(residuals) <= 1000 * tol), "witness residual")
    gap, first = diffs.max(axis=1).min(), over.argmax(axis=1).max()
    return Equiv4Result(False, None, bool(tol < gap <= 10 * tol), _INVARIANTS[first])


def _orbit_invariants(S: np.ndarray, c: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``_INVARIANTS`` and the rows of W for a stack of
    symmetric parts S, skew axes c and vectors u, with float, Fraction or
    int entries."""
    X = np.stack([c, u], axis=1)
    XS = X @ S
    W = np.concatenate([X, XS, XS @ S], axis=1)[:, (0, 2, 4, 1, 3, 5)]
    S2 = S @ S
    traces = np.stack([S.trace(axis1=1, axis2=2), S2.trace(axis1=1, axis2=2),
                       (S2 * S).sum(axis=(1, 2))], axis=1)
    gram = (W @ W.swapaxes(1, 2))[:, _PAIRS[0], _PAIRS[1]]
    a, b, c = W[:, _TRIPLES].transpose(1, 3, 0, 2)
    return np.concatenate([traces, gram, _dot(a, _cross(b, c))], axis=1), W


def _residual(Q: np.ndarray, T: np.ndarray, u: np.ndarray):
    """How far Q is from mapping the pair (T[0], u[0]) onto (T[1], u[1])."""
    d = _dot(Q[0], _cross(Q[1], Q[2]))
    return max(np.abs(Q @ Q.T - np.identity(3, dtype=int)).max(),
               np.abs(d * Q @ T[0] @ Q.T - T[1]).max(), np.abs(d * Q @ u[0] - u[1]).max())


def _exact_witness(inv1, W1, W2, flip: bool, T, u) -> np.ndarray | None:
    """Q = M2^T (M1^T)^-1 for the triple of rows with the largest |det|, or
    None when every triple product is 0."""
    dets = inv1[-_TRIPLES.shape[1]:]
    k = int(np.argmax(np.abs(dets)))
    if dets[k] == 0:
        return None
    rows = _TRIPLES[:, k]
    # After a flip, R maps the rows of W for (-T, u) to those of W'.
    M1 = W1[rows] * _ROW_SIGNS[rows, None] if flip else W1[rows]
    # (M1^T)^-1 has the rows (B x C, C x A, A x B) / det for M1 = (A, B, C).
    dual = np.transpose(_cross(M1[[1, 2, 0]].T, M1[[2, 0, 1]].T))
    Q = (-1 if flip else 1) * (W2[rows].T @ dual) / Fraction(M1[0] @ dual[0])
    if _residual(Q, T, u):
        raise ArithmeticError("exact equivalence witness failed verification")
    return Q


def _float_witness(W1, W2, S, flip: bool, tol: float, T, u) -> tuple[float, np.ndarray | None]:
    """The residual and the Q of :func:`equiv_4d`, built in floats.

    Span W is read off the singular vectors of W with singular value over
    10 tol; their images come from the same combinations of the rows of W'.
    On the complement, eigenvectors of S map to eigenvectors of S' in the
    order of their eigenvalues, with the signs that give a rotation R of
    least residual (Q = -R after a flip).
    """
    S1 = -S[0] if flip else S[0]
    U, sigma, Vt = np.linalg.svd(W1 * _ROW_SIGNS[:, None] if flip else W1)
    r = int(np.sum(sigma > 10 * tol))
    B1, B2 = Vt[:r].T, W2.T @ U[:, :r] / sigma[:r]
    E = [np.zeros((3, 0))] * 2
    if r < 3:
        for i, (B, P) in enumerate(((B1, S1), (B2, S[1]))):
            # N: an orthonormal basis of the complement of span B.
            N = np.linalg.qr(np.hstack([B, np.eye(3)]))[0][:, r:]
            E[i] = N @ np.linalg.eigh(N.T @ P @ N)[1]
    best, frame = (math.inf, None), np.hstack([B1, E[0]]).T
    for signs in itertools.product((1, -1), repeat=3 - r):
        R = np.hstack([B2, E[1] * signs]) @ frame
        if np.linalg.det(R) > 0:
            Q = -R if flip else R
            best = min(best, (_residual(Q, T, u), Q), key=lambda t: t[0])
    return best


def skew_axis(T: np.ndarray) -> tuple:
    """The axis c of the skew part of T, (T - T^T)/2 = R_c, over the last
    two axes of an array."""
    return ((T[..., 1, 2] - T[..., 2, 1]) / 2, (T[..., 2, 0] - T[..., 0, 2]) / 2,
            (T[..., 0, 1] - T[..., 1, 0]) / 2)


# ---------------------------------------------------------------------------
# hyperboloid configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperboloidConfig:
    delta: tuple[float, float, float]  # d1 >= d2 > 0 > d3
    u: tuple[float, float, float]
    c: tuple[float, float, float]


def hyperboloid_config(p) -> HyperboloidConfig:
    """Principal-axis form of a hyperboloid-type parameter pair.

    Applies the global sign flip if needed so two eigenvalues are positive,
    then rotates the symmetric part to a sorted diagonal with a determinant-1
    matrix, transporting the skew axis and the vector along.  The type test
    and the flip read the signature as :func:`geometric_type` does, exactly
    for int and ``Fraction`` entries; the frame is computed in floats, so an
    entry beyond the float range, or a frame that leaves it, raises
    :class:`MalformedInputError`.
    """
    T, u = p
    pos, neg = _signature(T)
    if pos + neg != 3 or pos == 3 or neg == 3:
        raise ValueError("parameters are not of hyperboloid type")
    try:
        T, u = np.array(T, dtype=float), np.array(u, dtype=float)
    except OverflowError:
        raise MalformedInputError("hyperboloid frame needs entries in the float range") from None
    if pos == 1:
        T = -T
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        w, V = _sym_eigen(T)
        Q = V.T
        frame = (w, Q @ u, Q @ np.array(skew_axis(T)))
    if not all(np.isfinite(part).all() for part in frame):
        raise MalformedInputError("hyperboloid frame leaves the float range")
    return HyperboloidConfig(*(tuple(part) for part in frame))
