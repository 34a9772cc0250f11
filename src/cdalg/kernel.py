"""Exact integer kernels behind the polarized identity checks, the
quadraticity and nicely-normed tests, the product and anticommutator
tables, left multiplication matrices, the zero-divisor screen and the
homomorphism check.

One transport of the product table serves every change of basis: the
products of a list of independent rows, written in the basis of those rows
(:func:`table_in_rows`).  It gives ``change_of_basis`` (the rows are a
basis) and the induced algebra of a closed subspace such as the even part
of a grading; the grading closure check reads the same
:func:`product_table`.

An algebra's rational structure constants are scaled once, over their common
denominator ``D``, to an integer tensor ``C`` with
``b_i b_j = (1/D) sum_k C[i, j, k] b_k``; the result is cached on the
algebra, which is immutable.  Each check is then a handful of integer
contractions, and no float dtype appears.  The arithmetic is chosen from a
worst-case bound on every intermediate, stated where the choice is made:

- below 2^63 the arrays are ``int64``;
- past it, a check that only asks whether entries are zero (the
  alternativity sweep, the homomorphism check, the middle Moufang cube)
  runs in ``int64`` modulo the first primes of :data:`ZERO_TEST_PRIMES`
  whose product exceeds the bound.  An integer of absolute value at most
  the bound is then zero exactly when it is zero modulo each of them
  (Chinese remaindering), so the verdict and the first witness are those of
  the exact computation.  The primes are a batch axis of every contraction;
  the residues of ``C`` are cached on the tensor;
- the arrays hold Python ints (numpy ``object`` dtype) where values are
  returned rather than tested for zero, where the dimension passes 128
  (:func:`_screen_fits` rules ``int64`` residues out) and where the
  product of all the primes does not exceed the bound.

Only operations numpy 1.24 supports on object arrays are used: ``@``,
``tensordot`` and elementwise arithmetic (object ``einsum`` needs 1.25).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, InconsistentInputError
from .linalg import F0, _echelon, mat_inv

INT64_LIMIT = 2**63


def _common_scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers m and one denominator d with values[i] = m[i] / d."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _exact(ints: list[int], shape: tuple[int, ...], fits_int64: bool) -> np.ndarray:
    return np.array(ints, dtype=np.int64 if fits_int64 else object).reshape(shape)


class ScaledTensor:
    """The integer tensor ``C``, its denominator ``den`` and ``max |C|``."""

    __slots__ = ("den", "max_abs", "_ints", "_int64", "_residues")

    def __init__(self, algebra) -> None:
        n = algebra.dim
        # Only the nonzero constants are scaled: the named tables are sparse.
        index, values = [], []
        for i, row in enumerate(algebra._nonzero):
            for j, cell in enumerate(row):
                base = (i * n + j) * n
                for k, c in cell:
                    index.append(base + k)
                    values.append(c)
        ints, self.den = _common_scale(values)
        self.max_abs = max(map(abs, ints), default=0)
        flat = np.zeros(n**3, dtype=object)  # Python int zeros
        flat[index] = np.array(ints, dtype=object)
        self._ints = flat.reshape(n, n, n)
        self._int64 = None
        self._residues = None  # (primes, C modulo each of them)

    def array(self, fits_int64: bool) -> np.ndarray:
        """``C`` as int64 (the caller has bounded its intermediates) or as Python ints."""
        if not fits_int64:
            return self._ints
        if self._int64 is None:
            self._int64 = self._ints.astype(np.int64)
        return self._int64

    def residues(self, primes: np.ndarray) -> np.ndarray:
        """``C`` modulo each prime, stacked along a leading axis, as int64.

        Entries are congruent to ``C`` and below each prime in absolute
        value, which is all the zero tests' contractions need: when every
        ``|C|`` is already below the smallest prime, ``C`` itself is
        returned with a leading axis of length one that broadcasts.  The
        zero tests ask for prefixes of one tuple of primes: the last stack
        built is kept, and a prefix of its primes is a slice of it.
        """
        want = primes.tolist()
        if self.max_abs < min(want):
            return self.array(True)[None]
        if self._residues is None or self._residues[0][:len(want)] != want:
            c = self.array(self.max_abs < INT64_LIMIT)
            stack = np.empty((len(want), *c.shape), dtype=np.int64)
            for t, p in enumerate(want):
                stack[t] = c % p
            self._residues = want, stack
        return self._residues[1][:len(want)]


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
    denominator ``s``; ``L_{r_p + r_q} = L_p + L_q``.  The matrices are built
    on first use.
    """

    def __init__(self, algebra, rows: Sequence[Sequence[Fraction]]) -> None:
        n = algebra.dim
        self._st = st = scaled_tensor(algebra)
        self._shape = (len(rows), n)
        self._ints, _ = _common_scale([c for r in rows for c in r])
        mu = 2 * max(map(abs, self._ints), default=0)  # bounds every |u_i|
        # With c = max|C|: entries of L_u and R_u are at most n*mu*c, of
        # u^2 = L_u u at most n^2*mu^2*c, of L_{u^2}, R_{u^2}, L_u L_u and
        # R_u R_u at most n^3*mu^2*c^2, and of each defect at most twice that.
        # C itself must fit too, which the product misses when there are no rows.
        self.bound = max(2 * n**3 * mu**2 * st.max_abs**2, st.max_abs)
        self.dtype = np.dtype(np.int64 if self.bound < INT64_LIMIT else object)
        self._built = None

    def _stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``C``, the rows, and the stacks of ``L_{r_p}`` and ``R_{r_p}``."""
        if self._built is None:
            fits = self.dtype == np.int64
            c = self._st.array(fits)
            rows = _exact(self._ints, self._shape, fits)
            # left[p] = L_{r_p}: entry [k, j] is coordinate k of r_p b_j.
            left = np.tensordot(rows, c, axes=(1, 0)).transpose(0, 2, 1)
            # right[p] = R_{r_p}: entry [k, j] is coordinate k of b_j r_p.
            right = np.tensordot(rows, c, axes=(1, 1)).transpose(0, 2, 1)
            self._built = c, rows, left, right
        return self._built

    def family(self) -> Iterator[tuple[int, int | None]]:
        m = self._shape[0]
        for p in range(m):
            yield p, None
        for p in range(m):
            for q in range(p + 1, m):
                yield p, q

    def _member(self, stack: np.ndarray, p: int, q: int | None):
        rows = self._stacks()[1]
        if q is None:
            return rows[p], stack[p]
        return rows[p] + rows[q], stack[p] + stack[q]

    def left(self, p: int, q: int | None) -> np.ndarray:
        c, _, left, _ = self._stacks()
        u, lu = self._member(left, p, q)
        u2 = lu @ u
        return np.tensordot(u2, c, axes=(0, 0)).T - lu @ lu

    def right(self, p: int, q: int | None) -> np.ndarray:
        c, _, _, right = self._stacks()
        u, ru = self._member(right, p, q)
        u2 = ru @ u
        return np.tensordot(c, u2, axes=(1, 0)).T - ru @ ru

    def first_defect_mod(self, primes: np.ndarray) -> tuple[int, int | None, int, str] | None:
        """:func:`first_alternativity_defect` from the residues modulo
        ``primes``, whose product must exceed :attr:`bound`.

        The same matrices as :meth:`left` and :meth:`right`, modulo each
        prime at once, for a chunk of family members at a time; a defect
        entry is nonzero exactly when it is nonzero modulo some prime.
        """
        (m, n), k = self._shape, len(primes)
        mod3, mod4 = primes.reshape(k, 1, 1), primes.reshape(k, 1, 1, 1)
        c = self._st.residues(primes)
        c_left = c.reshape(len(c), n, n * n)  # [a, (j, l)] = C[a, j, l]
        c_right = c.transpose(0, 2, 1, 3).reshape(len(c), n, n * n)  # [a, (j, l)] = C[j, a, l]
        # Row m is zero, so the member (p, None) is r_p + r_m.
        u = np.zeros((k, m + 1, n), dtype=np.int64)
        u[:, :m] = _residues(self._ints, primes).reshape(k, m, n)

        def transposed(products: np.ndarray) -> np.ndarray:
            # [.., (j, l)] -> [.., l, j]: the matrix whose column j is the
            # product with b_j.
            return products.reshape(*products.shape[:-1], n, n).swapaxes(-1, -2)

        left, right = transposed(u @ c_left % mod3), transposed(u @ c_right % mod3)
        family = list(self.family())
        size = max(1, ZERO_TEST_CHUNK // (n * n))
        for start in range(0, len(family), size):
            chunk = family[start:start + size]
            ps = [p for p, _ in chunk]
            qs = [m if q is None else q for _, q in chunk]
            # In place, to keep the temporaries few: L_u, R_u and u.
            lu, ru, uu = left[:, ps], right[:, ps], u[:, ps]
            lu += left[:, qs]
            ru += right[:, qs]
            uu += u[:, qs]
            lu %= mod4
            ru %= mod4
            u2 = (lu @ uu[..., None])[..., 0] % mod3
            # [b, c]: the defect at y = b_c is nonzero modulo some prime.
            bad_left, bad_right = (
                _nonzero_mod(transposed(u2 @ c_side), mat @ mat, mod4).any(axis=(0, 2))
                for mat, c_side in ((lu, c_left), (ru, c_right))
            )
            bad = bad_left | bad_right
            hits = bad.any(axis=1)
            if hits.any():
                b = int(hits.argmax())
                col = int(bad[b].argmax())
                return (*chunk[b], col, "left" if bad_left[b, col] else "right")
        return None


def first_alternativity_defect(
    algebra, rows: Sequence[Sequence[Fraction]]
) -> tuple[int, int | None, int, str] | None:
    """The first ``(p, q, c, law)`` with a nonzero defect at ``u``, ``y = b_c``.

    Walks ``u`` in family order, then ``c``, the left law before the right
    one; None when every defect vanishes.
    """
    sweep = AlternativitySweep(algebra, rows)
    if sweep.dtype == object:
        primes = _zero_test_primes(sweep.bound, algebra.dim)
        if primes is not None:
            return sweep.first_defect_mod(primes)
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
    bound = max(
        n * src.max_abs * big * lhs_scale + m * m * big * big * tgt.max_abs * rhs_scale,
        src.max_abs, tgt.max_abs, lhs_scale, rhs_scale,
    )
    fits = bound < INT64_LIMIT
    primes = None if fits else _zero_test_primes(bound, max(n, m))
    if primes is not None:
        return _first_violation_mod(ints, (m, n), src, tgt, lhs_scale, rhs_scale, primes)
    f = _exact(ints, (m, n), fits)
    c_src, c_tgt = src.array(fits), tgt.array(fits)
    for i in range(n):
        lhs = c_src[i] @ f.T  # [j, k]: s*D_src * f(b_i b_j)_k
        rhs = f.T @ np.tensordot(f[:, i], c_tgt, axes=(0, 0))  # s^2*D_tgt * (f(b_i) f(b_j))_k
        bad = (lhs * lhs_scale != rhs * rhs_scale).any(axis=1)
        if bad.any():
            return i, int(np.argmax(bad))
    return None


def _first_violation_mod(
    ints: list[int], shape: tuple[int, int], src: ScaledTensor, tgt: ScaledTensor,
    lhs_scale: int, rhs_scale: int, primes: np.ndarray,
) -> tuple[int, int] | None:
    """:func:`first_homomorphism_violation` modulo ``primes``, whose product
    exceeds the bound stated there, for a chunk of rows ``i`` at a time."""
    (m, n), k = shape, len(primes)
    mod = primes.reshape(k, 1, 1, 1)
    f = _residues(ints, primes).reshape(k, m, n)
    ft = f.swapaxes(1, 2)  # [j, b] = f[b, j]
    c_src = src.residues(primes)
    c_tgt = tgt.residues(primes)
    c_tgt = c_tgt.reshape(len(c_tgt), m, m * m)
    scales = _residues([lhs_scale, rhs_scale], primes).reshape(k, 2, 1, 1, 1)
    size = max(1, ZERO_TEST_CHUNK // (n * m))
    for i0 in range(0, n, size):
        i1 = min(n, i0 + size)
        # [i, j, l]: s*D_src * f(b_i b_j)_l, times the left scale.
        lhs = (c_src[:, i0:i1].reshape(len(c_src), -1, n) @ ft).reshape(k, i1 - i0, n, m)
        lhs %= mod
        lhs *= scales[:, 0]
        # [i, b, l]: s*D_tgt * (f(b_i) b_b)_l, then [i, j, l]: s^2*D_tgt *
        # (f(b_i) f(b_j))_l, times the right scale.
        left = (f[:, :, i0:i1].swapaxes(1, 2) @ c_tgt).reshape(k, i1 - i0, m, m)
        left %= mod
        rhs = ft[:, None] @ left
        rhs %= mod
        rhs *= scales[:, 1]
        bad = _nonzero_mod(lhs, rhs, mod).any(axis=(0, 3))
        if bad.any():
            i, j = divmod(int(bad.argmax()), n)
            return i0 + i, j
    return None


def _nonzero_mod(a: np.ndarray, b: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """``(a - b) % mod != 0`` elementwise, overwriting ``a``."""
    a -= b
    a %= mod
    return a != 0


def first_middle_moufang_defect(algebra) -> tuple[int, int, int] | None:
    """The first basis triple ``(i, j, k)``, in lexicographic order, with
    ``(b_i b_j)(b_k b_i) != (b_i (b_j b_k)) b_i``, or None.

    Scaled by ``D^3``, both sides for one ``i`` are direct contractions of
    the tensor: ``lhs[j, k, l] = sum_{a, b} C[i, j, a] C[k, i, b] C[a, b, l]``
    and ``rhs[j, k, l] = sum_a C[j, k, a] M[a, l]`` with
    ``M[a, l] = sum_b C[i, a, b] C[b, i, l]``.
    """
    n = algebra.dim
    st = scaled_tensor(algebra)
    # Each side sums n^2 products of three entries, and the difference is at
    # most twice that; C itself must fit too.
    bound = max(2 * n * n * st.max_abs**3, st.max_abs)
    fits = bound < INT64_LIMIT
    primes = None if fits else _zero_test_primes(bound, n)
    if primes is None:  # exact, with a batch axis of length one
        c, mod = st.array(fits)[None], None
    else:
        c, mod = st.residues(primes), primes.reshape(-1, 1, 1)

    def reduce(x: np.ndarray) -> np.ndarray:
        return x if mod is None else x % mod

    t = len(c)
    by_middle = c.transpose(0, 2, 1, 3).reshape(t, n, n * n)  # [b, (a, l)] = C[a, b, l]
    pairs = c.reshape(t, n * n, n)  # [(j, k), a] = C[j, k, a]
    for i in range(n):
        left, right = c[:, i], c[:, :, i]  # [j, a] = C[i, j, a] and [k, b] = C[k, i, b]
        # [k, a, l] = sum_b C[k, i, b] C[a, b, l], then [a, (k, l)].
        inner = reduce(right @ by_middle).reshape(-1, n, n, n).swapaxes(1, 2)
        lhs = reduce(left @ inner.reshape(-1, n, n * n)).reshape(-1, n * n, n)
        rhs = pairs @ reduce(left @ right)
        bad = (reduce(lhs - rhs) != 0).any(axis=(0, 2))
        if bad.any():
            return (i, *divmod(int(bad.argmax()), n))
    return None


def first_quadratic_defect(algebra) -> tuple[int, int, int] | None:
    """The first non-unit ``(a, b, k)`` where the polarized quadratic
    identity fails, or None when ``x^2`` lies in ``span(1, x)`` for every
    ``x`` of the unital algebra.  The triples with ``a = b`` come first, then
    all of them in lexicographic order.

    With ``x = l 1 + v``, ``v`` over the non-unit indices, the condition only
    involves ``v``: the non-unit coordinates ``q(v)`` of ``v^2`` must satisfy
    ``v_i q_j(v) = v_j q_i(v)``.  With two or more non-unit indices this
    forces ``q(v) = ell(v) v`` for a linear form ``ell`` (and with fewer it
    holds trivially), which polarized over the basis reads
    ``C[a,b,k] + C[b,a,k] = ell_a [b = k] + ell_b [a = k]`` for non-unit
    ``a, b, k``, where ``ell_a = C[a,a,a]``.  The same argument on the plane
    ``span(b_a, b_b)`` shows that a defect at ``(a, b, k)`` means the identity
    already fails on that plane.
    """
    st = scaled_tensor(algebra)
    # Both sides of the identity, and their difference, are at most 2 max|C|.
    c = st.array(2 * st.max_abs < INT64_LIMIT)
    rest = [i for i in range(algebra.dim) if i != algebra.unit]
    sub = c[np.ix_(rest, rest, rest)]
    r = np.arange(len(rest))
    ell = sub[r, r, r]
    defect = sub + sub.transpose(1, 0, 2)
    defect[r, :, r] -= ell  # ell_b at [a, b, a]
    defect[:, r, r] -= ell[:, None]  # ell_a at [a, b, b]
    # Squares first: a defect at (a, a, k) makes b_a itself the witness.
    bad = np.argwhere(defect[r, r] != 0)
    if len(bad):
        a, k = bad[0]
        return rest[a], rest[a], rest[k]
    bad = np.argwhere(defect != 0)
    if not len(bad):
        return None
    a, b, k = bad[0]
    return rest[a], rest[b], rest[k]


def commutators_are_imaginary(algebra) -> bool:
    """Whether every commutator ``[b_i, b_j]`` of a quadratic unital algebra
    has no real part.

    The real part is ``sigma(x) = x_u + sum_{k != u} x_k t_k / 2``, the
    projection onto ``R 1`` along the imaginary part, with ``u`` the unit
    index and ``t_k = c_kkk`` the traces.  Scaled by ``2 D^2`` it reads
    ``2 D (C[i,j,u] - C[j,i,u]) + sum_{k != u} (C[i,j,k] - C[j,i,k]) C[k,k,k]``;
    the unit's own rows commute, so every pair may be tested.
    """
    st = scaled_tensor(algebra)
    c, u, n, den = st.max_abs, algebra.unit, algebra.dim, st.den
    # Commutator entries are at most 2c; the unit term adds 2D * 2c and the
    # others (n-1) * 2c * c.  The weight 2D must fit as well.
    fits = max(4 * den * c + 2 * (n - 1) * c * c, 2 * den) < INT64_LIMIT
    t = st.array(fits)
    weights = t[np.arange(n), np.arange(n), np.arange(n)].copy()
    weights[u] = 2 * den
    commutators = t - t.transpose(1, 0, 2)
    return bool((commutators @ weights == 0).all())


def left_mul_stack(algebra, xs: Sequence[Sequence[Fraction]]) -> tuple[np.ndarray, int]:
    """The matrices of ``y -> x y`` for a list of rows ``x``, times one
    positive integer ``sigma``.

    Returns ``stack[p, k, j]``, coordinate ``k`` of ``x_p b_j`` scaled by
    ``sigma = s D`` for the common denominator ``s`` of the rows (int64 or
    Python ints), and ``sigma``.  The scale leaves kernels, echelon forms and
    zero tests unchanged.
    """
    n = algebra.dim
    st = scaled_tensor(algebra)
    ints, s = _common_scale([c for r in xs for c in r])
    big = max(map(abs, ints), default=0)
    # Each entry sums n products of a coordinate and a constant.
    fits = max(n * big * st.max_abs, st.max_abs, big) < INT64_LIMIT
    x = _exact(ints, (len(xs), n), fits)
    return np.tensordot(x, st.array(fits), axes=(1, 0)).transpose(0, 2, 1), s * st.den


def left_mul_rows(algebra, x: Sequence[Fraction]) -> list[list[int]]:
    """The matrix of ``y -> x y`` times a positive integer, as rows of Python
    ints (:func:`left_mul_stack` of the one row)."""
    return left_mul_stack(algebra, [x])[0][0].tolist()


def primitive_row(values: Sequence[Fraction | int]) -> tuple[np.ndarray, Fraction]:
    """A primitive integer vector ``w`` (Python ints, coprime entries) and a
    positive rational ``lam`` with ``values = lam * w``; ``lam`` is 1 for a
    zero row."""
    ints, d = _common_scale(values)
    g = gcd(*ints)
    if g == 0:
        return np.array(ints, dtype=object), Fraction(1)
    return np.array([v // g for v in ints], dtype=object), Fraction(g, d)


SCREEN_PRIME = 2**28 - 57  # the largest prime below 2^28

# The sixteen largest primes below 2^28, descending from SCREEN_PRIME; their
# product passes 2^447.  A zero test takes the shortest prefix it needs.
ZERO_TEST_PRIMES = tuple(2**28 - d for d in (
    57, 89, 95, 119, 125, 143, 165, 183, 213, 273, 285, 299, 309, 323, 327, 335,
))
# Entries per prime in one batch of a zero test modulo primes.
ZERO_TEST_CHUNK = 2048


def _screen_fits(n: int, p: int) -> bool:
    """Whether the screen modulo ``p`` stays in int64 for dimension ``n``.

    Residues are below p: each entry of L_x mod p is reduced from a sum of
    n products below p^2, and each elimination step from a*b - c*d with all
    four below p.  With SCREEN_PRIME this holds for n <= 128.
    """
    return n * p * p < INT64_LIMIT


def _zero_test_primes(bound: int, n: int) -> np.ndarray | None:
    """The shortest prefix of :data:`ZERO_TEST_PRIMES` whose product exceeds
    ``bound``, as an int64 array, for a zero test whose contractions sum at
    most ``n`` products of residues.

    An integer of absolute value at most ``bound`` that vanishes modulo each
    of these primes is a multiple of their product, hence zero.  None when
    :func:`_screen_fits` rules out int64 residues for ``n`` or when the
    product of all the primes does not exceed the bound.
    """
    primes = ZERO_TEST_PRIMES
    if not _screen_fits(n, max(primes)):
        return None
    product = 1
    for k, p in enumerate(primes, start=1):
        product *= p
        if product > bound:
            return np.array(primes[:k], dtype=np.int64)
    return None


def _residues(ints: Sequence[int], primes: np.ndarray) -> np.ndarray:
    """``[t, i]``: ``ints[i]`` modulo ``primes[t]``, as int64."""
    return np.array([[v % p for v in ints] for p in primes.tolist()],
                    dtype=np.int64).reshape(len(primes), len(ints))


def singularity_screen(algebra):
    """A batched test of which left multiplications ``y -> x y`` are
    nonsingular, or None when :func:`_screen_fits` rules out int64.

    The returned ``regular(rows)`` gives one bool per row ``x``: True when
    the integer matrix of ``L_x`` (any positive multiple, as in
    :func:`left_mul_rows`) is nonsingular modulo the prime ``SCREEN_PRIME``.
    Its determinant is then not divisible by the prime, hence not zero, so
    ``L_x`` is nonsingular over the rationals and ``x`` is not a left zero
    divisor.  False decides nothing.
    """
    n, p = algebra.dim, SCREEN_PRIME
    if not _screen_fits(n, p):
        return None
    residues = scaled_tensor(algebra).residues(np.array([p]))[0]

    def regular(rows: Sequence[Sequence]) -> list[bool]:
        x = np.array([[v % p for v in _common_scale(r)[0]] for r in rows],
                     dtype=np.int64).reshape(len(rows), n)
        # [b, j, k]: coordinate k of x_b b_j, i.e. L_{x_b} transposed.
        return _nonsingular_mod(np.tensordot(x, residues, axes=(1, 0)) % p, p).tolist()

    return regular


def _nonsingular_mod(m: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of a stack of int64 residues are nonsingular mod ``p``.

    Fraction-free forward elimination on the whole stack at once: row ``r``
    below the pivot row ``v`` becomes ``v[c] r - r[c] v``, which clears
    column ``c`` and, ``v[c]`` being invertible mod ``p``, keeps the rank.
    """
    b, n, _ = m.shape
    ok = np.ones(b, dtype=bool)
    every = np.arange(b)
    for col in range(n):
        nonzero = m[:, col:, col] != 0
        ok &= nonzero.any(axis=1)
        piv = col + nonzero.argmax(axis=1)
        pivot_rows = m[every, piv, col:]  # a copy
        m[every, piv, col:] = m[:, col, col:]  # row col is not read again
        below = m[:, col + 1:, col:]
        m[:, col + 1:, col:] = (
            pivot_rows[:, None, :1] * below - below[:, :, :1] * pivot_rows[:, None, :]
        ) % p
    return ok


def product_table(
    algebra, xs: Sequence[Sequence[Fraction]], ys: Sequence[Sequence[Fraction]]
) -> tuple[np.ndarray, int]:
    """The products ``x_p y_q`` of two lists of rows.

    Returns an integer array ``table[p, q, k]`` and its positive scale
    ``s``: coordinate ``k`` of ``x_p y_q`` is ``table[p, q, k] / s``.  The
    dtype leaves room to add two such tables.
    """
    n = algebra.dim
    if any(len(r) != n for r in (*xs, *ys)):
        raise DimensionMismatchError("element does not conform to algebra")
    st = scaled_tensor(algebra)
    x_ints, sx = _common_scale([c for r in xs for c in r])
    y_ints, sy = _common_scale([c for r in ys for c in r])
    mx, my = max(map(abs, x_ints), default=0), max(map(abs, y_ints), default=0)
    # Contracting one row with C gives entries at most n*mx*c, the second
    # contraction at most n^2*mx*my*c, and the sum of two tables twice that.
    # C and the rows must fit too, which the products miss when a factor is
    # 0.  The bound is symmetric in the two lists.
    fits = max(2 * n * n * mx * my * st.max_abs, n * max(mx, my) * st.max_abs,
               st.max_abs, mx, my) < INT64_LIMIT
    c = st.array(fits)
    x = _exact(x_ints, (len(xs), n), fits)
    y = _exact(y_ints, (len(ys), n), fits)
    # [p, k, q] = (x_p y_q)_k, scaled; the shorter list meets C first.
    if len(xs) <= len(ys):
        xy = np.tensordot(np.tensordot(x, c, axes=(1, 0)), y, axes=(1, 1))
    else:
        xy = np.tensordot(x, np.tensordot(c, y, axes=(1, 1)), axes=(1, 0))
    return xy.transpose(0, 2, 1), sx * sy * st.den


def table_in_rows(algebra, rows: Sequence[Sequence[Fraction]]) -> list[list[list[Fraction]]]:
    """The structure constants of ``span(rows)`` in the basis ``rows``.

    Entry ``[p][q][m]`` is coordinate ``m`` of ``r_p r_q`` in that basis.
    Raises ``ValueError("matrix is singular")`` when the rows are dependent
    and :class:`InconsistentInputError` when a product leaves their span.

    With the rows scaled to integers ``R`` and ``A`` their columns at the
    pivot columns of an echelon form, ``A`` is invertible, so a product
    ``P`` has the coordinates ``P_A A^-1``; they are exact only when they
    give back ``P`` in every column, which is checked.  ``Fraction``s are
    built for the k^3 coordinates alone.
    """
    k, n = len(rows), algebra.dim
    table, scale = product_table(algebra, rows, rows)  # the products are table / scale
    ints, s = _common_scale([c for r in rows for c in r])
    r = [ints[i * n:(i + 1) * n] for i in range(k)]  # R = s * rows
    pivots = _echelon(r, reduce=False)[1]
    if len(pivots) < k:
        raise ValueError("matrix is singular")
    a_inv = mat_inv([[x[c] for c in pivots] for x in r])
    inv, d = _common_scale([c for row in a_inv for c in row])  # A^-1 = inv / d
    products = table.astype(object)
    # The coordinates are (table_A / scale) (A / s)^-1 = num * s / (scale d),
    # and num R = d table exactly when every product lies in the span.
    num = products[:, :, pivots] @ np.array(inv, dtype=object).reshape(k, k)
    if (num @ np.array(r, dtype=object).reshape(k, n) != products * d).any():
        raise InconsistentInputError("vector is outside the spanned subspace")
    den = scale * d
    return [[[Fraction(x * s, den) if x else F0 for x in cell] for cell in row]
            for row in num.tolist()]


def anticommutator_table(
    algebra, xs: Sequence[Sequence[Fraction]], ys: Sequence[Sequence[Fraction]]
) -> tuple[list, int]:
    """The anticommutators ``x_p y_q + y_q x_p`` of two lists of rows.

    Returns nested lists ``table[p][q][k]`` of Python ints and their positive
    common scale ``s``: coordinate ``k`` of ``x_p y_q + y_q x_p`` is
    ``table[p][q][k] / s``.  Being bilinear, the table gives the
    anticommutator of any two combinations of the rows.
    """
    xy, scale = product_table(algebra, xs, ys)
    yx, _ = product_table(algebra, ys, xs)
    return (xy + yx.transpose(1, 0, 2)).tolist(), scale
