"""Construction and classification of 3- and 4-dimensional locally complex
algebras.

Three dimensions: the product carries two parameters (t, s) and the map
(t, s) -> algebra is a bijection from the closed quadrant onto isomorphism
classes.  Four dimensions: the parameters are a 3x3 matrix T and a vector u,
with (T, u) and (T', u') isomorphic exactly when T' = (det Q) Q T Q^T and
u' = (det Q) Q u for an orthogonal Q.

Everything that can stay rational does: building the algebras, extracting
parameters, round trips, the definiteness test behind the division
criterion, and zero-divisor pairs when a rational isotropic direction
exists.  Spectral work (canonical forms of the symmetric part, orbit
comparison, geometric typing) runs in floating point with an explicit
tolerance, default 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Algebra
from .errors import DimensionMismatchError
from .linalg import F0, F1, Matrix, Vector, is_positive_definite, mat, nullspace, vec
from .numth import sqrt_fraction
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
    P = symmetric_part(mat(T))
    neg = tuple(tuple(-x for x in row) for row in P)
    return is_positive_definite(P) or is_positive_definite(neg)


def _rational_isotropic(P: Matrix) -> Vector | None:
    """A rational z != 0 with z^T P z = 0, if one is easy to find."""
    kernel = nullspace(P, 3)
    if kernel:
        return kernel[0]
    bound = 6
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a == 0 and b == 0 and c == 0:
                    continue
                z = (Fraction(a), Fraction(b), Fraction(c))
                val = _dot(z, tuple(_dot(row, z) for row in P))
                if val == 0:
                    return z
    return None


def exact_zero_divisor_pair(params: Params4) -> tuple[Vector, Vector] | None:
    """A rational pair (x, y) with x y = 0 in the algebra of these parameters,
    in (scalar, vector) coordinates, when a rational isotropic direction of
    the symmetric part exists."""
    T = mat(params.t_matrix)
    P = symmetric_part(T)
    z = _rational_isotropic(P)
    if z is None:
        return None
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


def _any_orthogonal(z: Vector) -> Vector:
    for trial in ((F1, F0, F0), (F0, F1, F0), (F0, F0, F1)):
        c = _cross(z, trial)
        if any(x != 0 for x in c):
            return c
    raise ValueError("zero vector has no orthogonal complement direction")


def multiply_4d(t_matrix, u, x, y):
    """Float product in the (T, u) algebra, for verifying numeric witnesses."""
    T = np.asarray(t_matrix, dtype=float)
    uu = np.asarray(u, dtype=float)
    lam, xv = float(x[0]), np.asarray(x[1:], dtype=float)
    mu, yv = float(y[0]), np.asarray(y[1:], dtype=float)
    cr = np.cross(xv, yv)
    scalar = lam * mu - xv @ yv + cr @ uu
    vector = lam * yv + mu * xv + T @ cr
    return np.concatenate(([scalar], vector))


def multiply_4d_exact(t_matrix, u, x, y) -> tuple[Fraction, ...]:
    """Exact rational product in the (T, u) algebra."""
    T = mat(t_matrix)
    uu = vec(u)
    x = vec(x)
    y = vec(y)
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


def geometric_type(T, tol: float = DEFAULT_TOL) -> GeometricType:
    """Rank and signature class of the symmetric part, up to a global sign."""
    Tf = np.asarray(T, dtype=float)
    scale = 1.0 + np.abs(Tf).max()
    w, _ = _sym_eigen(Tf)
    pos = int(np.sum(w > tol * scale))
    neg = int(np.sum(w < -tol * scale))
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

    On "no", a zero-divisor pair is produced by the isotropic-direction
    recipe, exactly when the inputs are rational and a rational isotropic
    vector is found, otherwise in floating point verified to the tolerance.
    """
    if u is None:
        u = (0, 0, 0)
    exactable = _all_rational(T) and _all_rational_vec(u)
    if exactable:
        Tm = mat(T)
        if symmetric_part_definite(Tm):
            return DivisionCheck(True)
        pair = exact_zero_divisor_pair(Params4(Tm, vec(u)))
        if pair is not None:
            prod = multiply_4d_exact(Tm, u, pair[0], pair[1])
            if any(c != 0 for c in prod):
                raise ArithmeticError("exact zero-divisor pair failed verification")
            return DivisionCheck(False, pair, exact=True)
    Tf = np.asarray(T, dtype=float)
    scale = 1.0 + np.abs(Tf).max()
    w, V = _sym_eigen(Tf)
    if w[0] < -tol * scale or w[2] > tol * scale:
        return DivisionCheck(True)
    if not exactable and (np.all(w > tol * scale) or np.all(w < -tol * scale)):
        return DivisionCheck(True)
    # Indefinite or singular: build a float witness.
    if abs(w[1]) <= tol * scale:
        z = V[:, 1]
    elif abs(w[2]) <= tol * scale:
        z = V[:, 2]
    elif abs(w[0]) <= tol * scale:
        z = V[:, 0]
    else:
        lam_p, lam_m = w[0], w[2]
        z = math.sqrt(lam_p) * V[:, 2] + math.sqrt(-lam_m) * V[:, 0]
        z = z / np.linalg.norm(z)
    tz = Tf @ z
    if np.linalg.norm(tz) < tol * scale:
        w_vec = _float_orthogonal(z)
        t_scalar = 0.0
    else:
        w_vec = -tz
        t_scalar = 1.0
    wnorm = float(w_vec @ w_vec)
    v = np.cross(z, w_vec) / wnorm
    s = -float(z @ np.asarray(u, dtype=float)) / wnorm
    y = np.concatenate(([t_scalar], v - s * w_vec))
    x = np.concatenate(([0.0], w_vec))
    prod = multiply_4d(T, u, x, y)
    if np.abs(prod).max() > 1e-8 * scale:
        raise ArithmeticError("zero-divisor witness failed numeric verification")
    return DivisionCheck(False, (tuple(x), tuple(y)), exact=False)


def _float_orthogonal(z: np.ndarray) -> np.ndarray:
    for trial in np.eye(3):
        c = np.cross(z, trial)
        if np.linalg.norm(c) > 1e-12:
            return c / np.linalg.norm(c)
    raise ValueError("zero vector")


def _all_rational(T) -> bool:
    try:
        mat(T)
        return True
    except (TypeError, ValueError):
        return False


def _all_rational_vec(u) -> bool:
    try:
        vec(u)
        return True
    except (TypeError, ValueError):
        return False


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
    matrix, transporting the skew axis and the vector along.
    """
    T, u = _as_params(p)
    scale = 1.0 + np.abs(T).max()
    w, _ = _sym_eigen(T)
    pos = int(np.sum(w > tol * scale))
    neg = int(np.sum(w < -tol * scale))
    if pos + neg != 3 or pos == 3 or neg == 3:
        raise ValueError("parameters are not of hyperboloid type")
    if pos == 1:
        T = -T
        w, _ = _sym_eigen(T)
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
