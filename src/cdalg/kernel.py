"""Exact integer kernels behind the polarized identity and homomorphism checks.

An algebra's rational structure constants are scaled once, over their common
denominator ``D``, to an integer tensor ``C`` with
``b_i b_j = (1/D) sum_k C[i, j, k] b_k``; the result is cached on the
algebra, which is immutable.  Each check is then a handful of integer
contractions.  The arrays are ``int64`` only when a worst-case bound on every
intermediate, stated where the choice is made, stays below 2^63; otherwise
they hold Python ints (numpy ``object`` dtype).  Both are exact and no float
dtype appears.  Only operations numpy 1.24 supports on object arrays are
used: ``@``, ``tensordot`` and elementwise arithmetic (object ``einsum``
needs 1.25).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

import numpy as np

INT64_LIMIT = 2**63


def _common_scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers m and one denominator d with values[i] = m[i] / d."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _exact(ints: list[int], shape: tuple[int, ...], fits_int64: bool) -> np.ndarray:
    return np.array(ints, dtype=np.int64 if fits_int64 else object).reshape(shape)


class ScaledTensor:
    """The integer tensor ``C``, its denominator ``den`` and ``max |C|``."""

    __slots__ = ("den", "max_abs", "_ints", "_int64")

    def __init__(self, algebra) -> None:
        n = algebra.dim
        flat = [c for row in algebra.constants for entries in row for c in entries]
        ints, self.den = _common_scale(flat)
        self.max_abs = max(map(abs, ints), default=0)
        self._ints = _exact(ints, (n, n, n), False)
        self._int64 = None

    def array(self, fits_int64: bool) -> np.ndarray:
        """``C`` as int64 (the caller has bounded its intermediates) or as Python ints."""
        if not fits_int64:
            return self._ints
        if self._int64 is None:
            self._int64 = self._ints.astype(np.int64)
        return self._int64


def scaled_tensor(algebra) -> ScaledTensor:
    """The algebra's integer tensor, computed on first use and kept in its
    ``_scaled`` slot."""
    st = algebra._scaled
    if st is None:
        st = algebra._scaled = ScaledTensor(algebra)
    return st


class AlternativitySweep:
    """Alternativity defects over the polarized family of a list of rows.

    The family is ``u = r_p`` for each row, then ``u = r_p + r_q`` for
    ``p < q``, keyed ``(p, None)`` and ``(p, q)``.  For each ``u`` the left
    defect ``L_{u^2} - L_u L_u`` and the right defect ``R_{u^2} - R_u R_u``
    are integer matrices (``L_u y = uy``, ``R_u y = yu``) whose column ``c``
    is the defect at ``y = b_c``, scaled by ``(s D)^2`` for the rows' common
    denominator ``s``; ``L_{r_p + r_q} = L_p + L_q``.
    """

    def __init__(self, algebra, rows: Sequence[Sequence[Fraction]]) -> None:
        n = algebra.dim
        st = scaled_tensor(algebra)
        ints, _ = _common_scale([c for r in rows for c in r])
        mu = 2 * max(map(abs, ints), default=0)  # bounds every |u_i|
        # With c = max|C|: entries of L_u and R_u are at most n*mu*c, of
        # u^2 = L_u u at most n^2*mu^2*c, of L_{u^2}, R_{u^2}, L_u L_u and
        # R_u R_u at most n^3*mu^2*c^2, and of each defect at most twice that.
        # C itself must fit too, which the product misses when there are no rows.
        fits = max(2 * n**3 * mu**2 * st.max_abs**2, st.max_abs) < INT64_LIMIT
        c = st.array(fits)
        self.dtype = c.dtype
        self._tensor = c
        self._rows = _exact(ints, (len(rows), n), fits)
        # _left[p] = L_{r_p}: entry [k, j] is coordinate k of r_p b_j.
        self._left = np.tensordot(self._rows, c, axes=(1, 0)).transpose(0, 2, 1)
        # _right[p] = R_{r_p}: entry [k, j] is coordinate k of b_j r_p.
        self._right = np.tensordot(self._rows, c, axes=(1, 1)).transpose(0, 2, 1)

    def family(self) -> Iterator[tuple[int, int | None]]:
        m = len(self._rows)
        for p in range(m):
            yield p, None
        for p in range(m):
            for q in range(p + 1, m):
                yield p, q

    def _member(self, stack: np.ndarray, p: int, q: int | None):
        if q is None:
            return self._rows[p], stack[p]
        return self._rows[p] + self._rows[q], stack[p] + stack[q]

    def left(self, p: int, q: int | None) -> np.ndarray:
        u, lu = self._member(self._left, p, q)
        u2 = lu @ u
        return np.tensordot(u2, self._tensor, axes=(0, 0)).T - lu @ lu

    def right(self, p: int, q: int | None) -> np.ndarray:
        u, ru = self._member(self._right, p, q)
        u2 = ru @ u
        return np.tensordot(self._tensor, u2, axes=(1, 0)).T - ru @ ru


def first_alternativity_defect(
    algebra, rows: Sequence[Sequence[Fraction]]
) -> tuple[int, int | None, int, str] | None:
    """The first ``(p, q, c, law)`` with a nonzero defect at ``u``, ``y = b_c``.

    Walks ``u`` in family order, then ``c``, the left law before the right
    one; None when every defect vanishes.
    """
    sweep = AlternativitySweep(algebra, rows)
    for p, q in sweep.family():
        bad_left = (sweep.left(p, q) != 0).any(axis=0)
        bad = bad_left | (sweep.right(p, q) != 0).any(axis=0)
        if bad.any():
            c = int(np.argmax(bad))
            return p, q, c, "left" if bad_left[c] else "right"
    return None


def first_homomorphism_violation(
    iso: Sequence[Sequence[Fraction]], source, target
) -> tuple[int, int] | None:
    """The first basis pair ``(i, j)``, row-major, with f(b_i b_j) != f(b_i) f(b_j).

    ``iso`` is a target.dim x source.dim matrix acting on coordinate columns.
    Blocked by ``i``: one contraction compares the whole row of products.
    """
    n, m = source.dim, target.dim
    src, tgt = scaled_tensor(source), scaled_tensor(target)
    ints, s = _common_scale([Fraction(c) for r in iso for c in r])
    big = max(map(abs, ints), default=0)
    # Scaled by s*D_src, f(b_i b_j) has entries at most n*c_src*big; scaled by
    # s^2*D_tgt, f(b_i) f(b_j) has entries at most m^2*big^2*c_tgt (its inner
    # sum over the target's first index at most m*big*c_tgt).  The comparison
    # multiplies them by s*D_tgt/g and D_src/g respectively.  The tensors and
    # the scales must fit as well, which the products miss when a factor is 0.
    g = gcd(s * tgt.den, src.den)
    lhs_scale, rhs_scale = s * tgt.den // g, src.den // g
    fits = max(
        n * src.max_abs * big * lhs_scale + m * m * big * big * tgt.max_abs * rhs_scale,
        src.max_abs, tgt.max_abs, lhs_scale, rhs_scale,
    ) < INT64_LIMIT
    f = _exact(ints, (m, n), fits)
    c_src, c_tgt = src.array(fits), tgt.array(fits)
    for i in range(n):
        lhs = c_src[i] @ f.T  # [j, k]: s*D_src * f(b_i b_j)_k
        rhs = f.T @ np.tensordot(f[:, i], c_tgt, axes=(0, 0))  # s^2*D_tgt * (f(b_i) f(b_j))_k
        bad = (lhs * lhs_scale != rhs * rhs_scale).any(axis=1)
        if bad.any():
            return i, int(np.argmax(bad))
    return None
