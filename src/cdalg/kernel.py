"""Exact integer kernels behind the polarized identity checks, the
quadraticity and nicely-normed tests, the product and anticommutator
tables, left multiplication matrices, the zero-divisor screen, the
homomorphism check, the closure of generator sets under multiplication, and
the involution laws and table of the Cayley-Dickson double.

One transport of the product table serves every change of basis: the
products of a list of independent rows, written in the basis of those rows
(:func:`table_in_rows`).  It gives ``change_of_basis`` (the rows are a
basis) and the induced algebra of a closed subspace such as the even part
of a grading; the grading closure check reads the same
:func:`product_table`.

An algebra's table is one :class:`ScaledTensor`: an integer tensor ``C``
over the least common denominator ``D`` of its structure constants, with
``b_i b_j = (1/D) sum_k C[i, j, k] b_k``, scaled once when the algebra is
built and held once (``int64`` below 2^63, Python ints past it).  Each
check is then a handful of integer contractions.  :func:`_carrier` picks
their arithmetic from a worst-case bound on every intermediate, stated
where the choice is made, on three rungs:

- below 2^53, ``float64``.  A double holds every integer of absolute value
  up to 2^53, and IEEE-754 computes the sum, difference or product of two
  such integers exactly whenever the exact result is again one.  With
  every operand, partial sum and result below the bound no value is ever
  rounded, in any order of summation, so BLAS runs the contractions on
  exact integers.  Zero tests compare with 0 directly, and an array leaves
  the kernel as ``int64`` (:func:`_ints`);
- below 2^63, ``int64``;
- past it, Python ints (numpy ``object`` dtype), or residues modulo primes.

The kernels use them so:

- values that are returned rather than tested for zero are computed on the
  rung of their bound and returned as ``int64`` below 2^63, as Python ints
  past it;
- the three zero tests (the alternativity sweep, the homomorphism check,
  the middle Moufang cube) run one body in every arithmetic.  Each operand
  (``C``, the rows, the map, the scales) carries a leading prime axis.
  Past 2^63 it holds the residues modulo the first primes of
  :data:`ZERO_TEST_PRIMES` whose product exceeds the bound; exact
  arithmetic is that axis at length one, on the rung of the bound below
  2^63 and on Python ints where the dimension passes 128
  (:func:`_screen_fits` rules ``int64`` residues out) or the product of
  all the primes does not exceed the bound.  :func:`_reduce` reduces along
  the axis and leaves exact values alone.  An integer of absolute value at
  most the bound is zero exactly when it is zero modulo each prime
  (Chinese remaindering), so the verdict and the first witness do not
  depend on the arithmetic.  The residues of
  ``C`` are cached on the tensor.  :func:`alternativity_screen` runs the
  sweep modulo the first prime only: a nonzero residue is an exact "no",
  and a pass is a "yes" only when that prime is all the bound needs;
- the zero-divisor screen (:func:`singularity_screen`) proves ``L_x``
  nonsingular by ``D_x = L_{x^2} - L_x L_x = 0`` for ``x != 0`` when the
  caller vouches that the algebra is locally complex, where
  ``xbar (x y) = N(x) y + D_x y`` with ``N(x) > 0``, on the exact
  ``float64`` stack of the ``L_x``; and otherwise by an elimination that
  finds the rank of ``L_x`` modulo :data:`SCREEN_PRIME` only, on residues
  reduced from that stack or, past 2^53, made from the residues of ``x``
  and ``C``;
- the subalgebra closure (:func:`closure_dims`, :func:`closure_span`) runs
  modulo :data:`SCREEN_PRIME` on a batch of generator sets and records each
  basis vector as a word: a seed row or the product of two earlier words.
  Words independent mod ``p`` are independent over Q, so the dimension is
  at least their number ``d``; ``d = n`` settles it.  Below ``n`` it is at
  most ``d`` when the integer matrix ``[seeds; words; products of two
  words]`` has rank at most ``d`` modulo each of the first primes of
  :data:`ZERO_TEST_PRIMES` whose product exceeds the Hadamard bound on its
  ``(d+1)``-minors (from bounds on the words' entries), by the zero-test
  rule applied to every such minor.  Modulo ``p`` itself the closure has
  shown it.  A set with no such primes, or with a rank above ``d``, is
  closed again by an exact loop over Z.  From the census
  (:func:`cdalg.analysis.subalgebra_census`) no set of the unit and one
  generator of a quadratic algebra reaches the closure: it spans its
  subalgebra already.

Rows (generators, bases, maps, candidates) are Elements, whose integers
over one denominator every entry point takes as they are, or sequences of
rationals, scaled once on entry (:func:`cdalg.linalg.scaled_rows`).

Only operations numpy 1.24 supports on object arrays are used: ``@``,
``tensordot`` and elementwise arithmetic (object ``einsum`` needs 1.25).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, InconsistentInputError
from .linalg import Subspace, _cancel, _echelon, _primitive, inverse, scaled_rows

INT64_LIMIT = 2**63
# Every integer of absolute value up to 2^53 is a double.
FLOAT_LIMIT = 2**53
_FLOAT = np.dtype(np.float64)


def _carrier(bound: int) -> np.dtype:
    """The dtype of exact integer arithmetic whose operands, partial sums
    and results are all at most ``bound`` in absolute value: ``float64``
    below 2^53, ``int64`` below 2^63 and Python ints (``object``) past it.

    In ``float64`` every such value is a double, and a sum, difference or
    product of two of them is exact because its exact value is one too: no
    operation rounds, in any order, so the values are the integers
    themselves and compare with 0 exactly.
    """
    if bound < FLOAT_LIMIT:
        return _FLOAT
    return np.dtype(np.int64 if bound < INT64_LIMIT else object)


def _ints(x: np.ndarray) -> np.ndarray:
    """Exact values as they leave the kernel: a ``float64`` carrier as
    ``int64``, any other array as it is."""
    return x.astype(np.int64) if x.dtype == _FLOAT else x


def _exact(ints: Sequence, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Integers (flat, or rows) as an array of ``shape`` in the carrier
    ``dtype`` of the caller's bound."""
    return np.array(ints, dtype=dtype).reshape(shape)


def _height(rows: Sequence[Sequence[int]]) -> int:
    """The largest absolute value in integer rows, 0 for none."""
    return max(map(abs, chain.from_iterable(rows)), default=0)


class ScaledTensor:
    """An algebra's table: ``b_i b_j = sum_k c[i, j, k] b_k / den``, over the
    least positive ``den``, so equal tables have equal ``(den, c)``; ``c`` is
    ``int64`` when ``max_abs = max |c|`` is below 2^63 and holds Python ints
    (numpy ``object``) otherwise.  Built from an integer tensor and any
    positive denominator, which are divided by their common factor."""

    __slots__ = ("c", "den", "max_abs", "_residues", "_float")

    def __init__(self, c: np.ndarray, den: int) -> None:
        g = gcd(den, *c[c != 0].tolist())
        self.den, self.max_abs = den // g, int(abs(c).max(initial=0)) // g
        dtype = np.int64 if self.max_abs < INT64_LIMIT else object
        c = c if g == 1 else c // g
        self.c, self._residues = c.astype(dtype, copy=False), None  # (primes, C mod them)
        self._float = None  # the float64 copy, made on first use

    @classmethod
    def of_cells(cls, n: int, rows: Sequence[Sequence[int]], den: int,
                 ids: Sequence[int]) -> "ScaledTensor":
        """From distinct cells, as integer rows over ``den``, and the index
        among them of each cell ``(i, j)``, row-major."""
        dtype = np.int64 if _height(rows) < INT64_LIMIT else object
        return cls(np.array(rows, dtype=dtype).reshape(len(rows), n)[ids].reshape(n, n, n), den)

    @classmethod
    def of_rationals(cls, constants: Sequence[Sequence[Sequence]]) -> "ScaledTensor":
        """From a dense n x n x n tensor of rationals (anything
        ``Fraction`` accepts); ``DimensionMismatchError`` unless it has that
        shape."""
        n = len(constants)
        if any(len(row) != n or any(len(cell) != n for cell in row) for row in constants):
            raise DimensionMismatchError("structure tensor is not n x n x n")
        rows, den = scaled_rows(cell for row in constants for cell in row)
        return cls.of_cells(n, rows, den, range(n * n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaledTensor):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.c, other.c)

    def __hash__(self) -> int:
        return hash((self.den, self.c.shape, tuple(self.c.ravel().tolist())))

    def array(self, dtype: np.dtype) -> np.ndarray:
        """``C`` in the carrier ``dtype`` of a caller's bound, which bounds
        ``max_abs`` too: the ``float64`` copy is made once and kept, as the
        table never changes, and Python ints are converted on the spot."""
        if dtype == _FLOAT:
            if self._float is None:
                self._float = self.c.astype(np.float64)
            return self._float
        return self.c if dtype == self.c.dtype else self.c.astype(object)

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
        c = self.c
        if self.max_abs < min(want):
            return c[None]
        if self._residues is None or self._residues[0][:len(want)] != want:
            stack = np.empty((len(want), *c.shape), dtype=np.int64)
            for t, p in enumerate(want):
                stack[t] = c % p
            self._residues = want, stack
        return self._residues[1][:len(want)]

    def stacked(self, primes: np.ndarray | None, dtype: np.dtype) -> np.ndarray:
        """``C`` as a zero test's operand: :meth:`residues` modulo
        ``primes``, or :meth:`array` on an axis of length one when primes is
        None."""
        return self.array(dtype)[None] if primes is None else self.residues(primes)


def scaled_tensor(algebra) -> ScaledTensor:
    """The algebra's table, built with it."""
    return algebra._scaled


SCREEN_PRIME = 2**28 - 57  # the largest prime below 2^28

# The sixteen largest primes below 2^28, descending from SCREEN_PRIME; their
# product passes 2^447.  A zero test takes the shortest prefix it needs.
ZERO_TEST_PRIMES = tuple(2**28 - d for d in (
    57, 89, 95, 119, 125, 143, 165, 183, 213, 273, 285, 299, 309, 323, 327, 335,
))
# Entries per prime in one batch of a zero test modulo primes.  The
# alternativity sweep in exact arithmetic holds one copy of each entry, and
# its batch takes four times as many.
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


def _zero_test_arithmetic(bound: int, n: int) -> np.ndarray | None:
    """The primes a zero test works modulo when its entries are at most
    ``bound`` in absolute value, or None for exact arithmetic in
    :func:`_carrier` of the bound: below 2^63, and past it when
    :func:`_zero_test_primes` finds no prefix for a test whose
    contractions sum ``n`` products."""
    return None if bound < INT64_LIMIT else _zero_test_primes(bound, n)


def _stacked(ints: Sequence[int], shape: tuple[int, ...], primes: np.ndarray | None,
             dtype: np.dtype) -> np.ndarray:
    """A zero test's operand: ``ints`` in ``shape`` under a leading axis that
    holds their int64 residues modulo each prime, or the exact values in
    ``dtype`` (see :func:`_exact`) on an axis of length one when primes is
    None."""
    if primes is None:
        return _exact(ints, shape, dtype)[None]
    return np.array([[v % p for v in ints] for p in primes.tolist()],
                    dtype=np.int64).reshape(len(primes), *shape)


def _mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """``x % p`` for int64 ``x`` and a prime ``p``, written to ``out`` (``x``
    itself by default), as ``x - (x // p) p``: numpy divides by one integer
    fast and takes a remainder slowly."""
    q = x // p
    q *= p
    return np.subtract(x, q, out=x if out is None else out)


def _reduce(x: np.ndarray, primes: np.ndarray | None) -> np.ndarray:
    """``x`` modulo ``primes[t]`` along its leading axis ``t``, by
    :func:`_mod` one prime at a time, or ``x`` itself when primes is None.
    In place, unless that axis has length one (an operand below every prime)
    and broadcasts over the primes."""
    if primes is None:
        return x
    out = x if len(x) == len(primes) else np.empty((len(primes), *x.shape[1:]), dtype=x.dtype)
    for t, p in enumerate(primes.tolist()):
        _mod(x[t % len(x)], p, out=out[t])
    return out


class AlternativitySweep:
    """Alternativity defects over the polarized family of a list of rows.

    The family is ``u = r_p`` for each row, then ``u = r_p + r_q`` for
    ``p < q``, keyed ``(p, None)`` and ``(p, q)``.  For each ``u`` the left
    defect ``L_{u^2} - L_u L_u`` and the right defect ``R_{u^2} - R_u R_u``
    are integer matrices (``L_u y = uy``, ``R_u y = yu``) whose column ``c``
    is the defect at ``y = b_c``, scaled by ``(s D)^2`` for the rows' common
    denominator ``s``; ``L_{r_p + r_q} = L_p + L_q``.  They are computed as
    their transposes, ``L_{u^2}^T - L_u^T L_u^T``, whose row ``j`` is the
    product with ``b_j``.
    """

    def __init__(self, algebra, rows: Sequence) -> None:
        n = algebra.dim
        self._st = st = scaled_tensor(algebra)
        self._shape = (len(rows), n)
        self._rows = scaled_rows(rows)[0]
        mu = 2 * _height(self._rows)  # bounds every |u_i|
        # With c = max|C|: entries of L_u and R_u are at most n*mu*c, of
        # u^2 = L_u u at most n^2*mu^2*c, of L_{u^2}, R_{u^2}, L_u L_u and
        # R_u R_u at most n^3*mu^2*c^2, and of each defect at most twice that.
        # C itself must fit too, which the product misses when there are no rows.
        self.bound = max(2 * n**3 * mu**2 * st.max_abs**2, st.max_abs)
        self.carrier = _carrier(self.bound)
        # The dtype of the exact stacks :meth:`defects` yields.
        self.dtype = np.dtype(np.int64) if self.carrier == _FLOAT else self.carrier

    def family(self) -> Iterator[tuple[int, int | None]]:
        """Singles, then pairs p < q; ``super_alternativity_after`` needs a
        subsequence of the rows to give a subsequence of this, in order."""
        m = self._shape[0]
        for p in range(m):
            yield p, None
        for p in range(m):
            for q in range(p + 1, m):
                yield p, q

    def defects(
        self, primes: np.ndarray | None = None, laws: Sequence[str] = ("left", "right")
    ) -> Iterator[tuple[list[tuple[int, int | None]], list[np.ndarray]]]:
        """The family in order, a chunk of members at a time, with one defect
        stack per law.

        Yields ``(members, stacks)``: ``stacks[w][t, b, c, k]`` is
        coordinate ``k`` of the ``laws[w]`` defect of ``members[b]`` at
        ``y = b_c``, modulo ``primes[t]`` (whose product must exceed
        :attr:`bound`), or exact in :attr:`dtype` on an axis of length one
        when primes is None, computed in the carrier of :attr:`bound`.  A
        law not asked for is not computed.
        """
        (m, n), dtype = self._shape, self.carrier
        c = self._st.stacked(primes, dtype)
        # Row m is zero, so the member (p, None) is r_p + r_m.
        u = _stacked([v for r in self._rows for v in r] + [0] * n, (m + 1, n), primes, dtype)
        sides = []
        for law in laws:
            # [a, (j, l)] = C[a, j, l] for the left law, C[j, a, l] for the right.
            c_side = (c if law == "left" else c.swapaxes(1, 2)).reshape(len(c), n, n * n)
            # [p, j, l]: coordinate l of r_p b_j (left) or of b_j r_p (right).
            sides.append((c_side, _reduce(u @ c_side, primes).reshape(*u.shape, n)))
        family = list(self.family())
        size = max(1, (ZERO_TEST_CHUNK if primes is not None else 4 * ZERO_TEST_CHUNK) // (n * n))
        for start in range(0, len(family), size):
            members = family[start:start + size]
            ps = [p for p, _ in members]
            qs = [m if q is None else q for _, q in members]
            # In place, to keep the temporaries few: u, then L_u^T or R_u^T.
            # Each is reduced below p, since u^2 sums n products that
            # _screen_fits only bounds for factors below p.
            uu = u[:, ps]
            uu += u[:, qs]
            _reduce(uu, primes)
            stacks = []
            for c_side, mats in sides:
                mat = mats[:, ps]
                mat += mats[:, qs]
                _reduce(mat, primes)
                u2 = _reduce((uu[:, :, None] @ mat)[:, :, 0], primes)
                defect = (u2 @ c_side).reshape(mat.shape)
                defect -= mat @ mat
                stacks.append(_ints(_reduce(defect, primes)))
            yield members, stacks


def first_alternativity_defect(
    algebra, rows: Sequence
) -> tuple[int, int | None, int, str] | None:
    """The first ``(p, q, c, law)`` with a nonzero defect at ``u``, ``y = b_c``.

    Walks ``u`` in family order, then ``c``, the left law before the right
    one; None when every defect vanishes.  Past 2^63 a defect entry is
    nonzero exactly when it is nonzero modulo some prime taken.
    """
    n = algebra.dim
    sweep = AlternativitySweep(algebra, rows)
    for members, (left, right) in sweep.defects(_zero_test_arithmetic(sweep.bound, n)):
        # [b, c]: the defect of member b at y = b_c is nonzero.
        bad_left = (left != 0).any(axis=(0, 3))
        bad = bad_left | (right != 0).any(axis=(0, 3))
        if bad.any():
            b, c = divmod(int(bad.argmax()), n)
            return (*members[b], c, "left" if bad_left[b, c] else "right")
    return None


def alternativity_screen(algebra, rows: Sequence) -> bool | None:
    """Whether some alternativity defect over the polarized family of ``rows``
    is nonzero, tested modulo the first prime only.

    The arithmetic is that of :func:`first_alternativity_defect` cut to the
    first prime it would take.  True when a defect is nonzero in it: a
    nonzero residue is a nonzero integer, so that is exact.  False when every
    defect vanishes and the arithmetic is exact or takes one prime anyway,
    or there are no rows.  None when every defect vanishes modulo the first
    of several primes, which decides nothing.  Stops at the first chunk
    with a defect.
    """
    sweep = AlternativitySweep(algebra, rows)
    primes = _zero_test_arithmetic(sweep.bound, algebra.dim)
    for _, stacks in sweep.defects(None if primes is None else primes[:1]):
        if any(stack.any() for stack in stacks):
            return True
    return None if rows and primes is not None and len(primes) > 1 else False


def first_homomorphism_violation(iso: Sequence, source, target) -> tuple[int, int] | None:
    """The first basis pair ``(i, j)``, row-major, with f(b_i b_j) != f(b_i) f(b_j).

    ``iso`` is a target.dim x source.dim matrix acting on coordinate columns.
    Blocked by ``i``: one contraction compares the rows of products of a
    chunk of basis vectors ``b_i``.
    """
    n, m = source.dim, target.dim
    src, tgt = scaled_tensor(source), scaled_tensor(target)
    rows, s = scaled_rows(iso)
    big = _height(rows)
    # Scaled by s*D_src, f(b_i b_j) has entries at most n*c_src*big; scaled by
    # s^2*D_tgt, f(b_i) f(b_j) has entries at most m^2*big^2*c_tgt (its inner
    # sum over the target's first index at most m*big*c_tgt).  The comparison
    # multiplies them by s*D_tgt/g and D_src/g respectively.  The tensors and
    # the scales must fit as well, which the products miss when a factor is 0.
    # Below 2^53 the check runs in float64.
    g = gcd(s * tgt.den, src.den)
    lhs_scale, rhs_scale = s * tgt.den // g, src.den // g
    bound = max(
        n * src.max_abs * big * lhs_scale + m * m * big * big * tgt.max_abs * rhs_scale,
        src.max_abs, tgt.max_abs, lhs_scale, rhs_scale,
    )
    dtype, primes = _carrier(bound), _zero_test_arithmetic(bound, max(n, m))
    f = _stacked([v for r in rows for v in r], (m, n), primes, dtype)
    ft = f.swapaxes(1, 2)  # [j, b] = f[b, j]
    c_src = src.stacked(primes, dtype)
    c_tgt = tgt.stacked(primes, dtype).reshape(-1, m, m * m)
    scales = _stacked([lhs_scale, rhs_scale], (2, 1, 1, 1), primes, dtype)
    size = max(1, ZERO_TEST_CHUNK // (n * m))
    for i0 in range(0, n, size):
        i1 = min(n, i0 + size)
        # [i, j, l]: s*D_src * f(b_i b_j)_l, times the left scale.
        lhs = (c_src[:, i0:i1].reshape(len(c_src), -1, n) @ ft).reshape(-1, i1 - i0, n, m)
        _reduce(lhs, primes)
        lhs *= scales[:, 0]
        # [i, b, l]: s*D_tgt * (f(b_i) b_b)_l, then [i, j, l]: s^2*D_tgt *
        # (f(b_i) f(b_j))_l, times the right scale.
        left = (f[:, :, i0:i1].swapaxes(1, 2) @ c_tgt).reshape(-1, i1 - i0, m, m)
        rhs = _reduce(ft[:, None] @ _reduce(left, primes), primes)
        rhs *= scales[:, 1]
        lhs -= rhs
        bad = (_reduce(lhs, primes) != 0).any(axis=(0, 3))
        if bad.any():
            i, j = divmod(int(bad.argmax()), n)
            return i0 + i, j
    return None


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
    # most twice that; C itself must fit too.  Below 2^53 it runs in float64.
    bound = max(2 * n * n * st.max_abs**3, st.max_abs)
    primes = _zero_test_arithmetic(bound, n)
    c = st.stacked(primes, _carrier(bound))
    by_middle = c.transpose(0, 2, 1, 3).reshape(-1, n, n * n)  # [b, (a, l)] = C[a, b, l]
    pairs = c.reshape(-1, n * n, n)  # [(j, k), a] = C[j, k, a]
    for i in range(n):
        left, right = c[:, i], c[:, :, i]  # [j, a] = C[i, j, a] and [k, b] = C[k, i, b]
        # [k, a, l] = sum_b C[k, i, b] C[a, b, l], then [a, (k, l)].
        inner = _reduce(right @ by_middle, primes).reshape(-1, n, n, n).swapaxes(1, 2)
        lhs = _reduce(left @ inner.reshape(-1, n, n * n), primes).reshape(-1, n * n, n)
        rhs = pairs @ _reduce(left @ right, primes)
        bad = (_reduce(lhs - rhs, primes) != 0).any(axis=(0, 2))
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
    c = st.array(_carrier(2 * st.max_abs))
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
    t = st.array(_carrier(max(4 * den * c + 2 * (n - 1) * c * c, 2 * den)))
    weights = t[np.arange(n), np.arange(n), np.arange(n)].copy()
    weights[u] = 2 * den
    commutators = t - t.transpose(1, 0, 2)
    return bool((commutators @ weights == 0).all())


def _star_products(algebra, star: Sequence[Sequence]) -> tuple:
    """``(C, S, s, N)`` of the doubling (:mod:`cdalg.construct`): ``C``,
    the star as an integer matrix ``S`` over ``s``, and ``N = S x_1 C``,
    ``N[i, j] = s D b_i* b_j``.

    The law checks and the doubling build only sums of at most n^2
    products of two star entries (or s) and a constant, below
    2 n^2 max(|S|, s)^2 max(|C|, 1): the carrier of that bound (float64
    below 2^53).
    """
    n = algebra.dim
    st = scaled_tensor(algebra)
    ints, scale = scaled_rows(star)
    dtype = _carrier(2 * n * n * max(_height(ints), scale) ** 2 * max(st.max_abs, 1))
    c = st.array(dtype)
    s = _exact(ints, (n, n), dtype)
    return c, s, scale, np.tensordot(s, c, axes=(0, 0))


def involution_violation(algebra, star: Sequence[Sequence]) -> str | None:
    """The first involution law that ``star`` (acting on coordinate columns)
    breaks on the unital ``algebra``, in the order of
    :class:`cdalg.construct.InvolutiveAlgebra`, or None."""
    n = algebra.dim
    c, s, scale, nn = _star_products(algebra, star)
    eye = np.identity(n, dtype=s.dtype) * scale
    if (s @ s != eye * scale).any():  # S S = s^2 I
        return "star is not an involution"
    # (b_i b_j)* = sum_l C[i, j, l] b_l* over D s, and
    # b_j* b_i* = sum_b S[b, i] N[j, b] over D s^2.
    bad = (c @ s.T * scale != (s.T @ nn).transpose(1, 0, 2)).any(axis=2)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        return f"(b_{i} b_{j})* != b_{j}* b_{i}*"
    imaginary = np.arange(n) != algebra.unit
    trace_bad = (eye + s)[imaginary].any(axis=0)  # column i: b_i + b_i* over s
    norm_bad = (s.T[:, None] @ c)[:, 0, imaginary].any(axis=1)  # b_i b_i* over D s
    bad = np.flatnonzero(trace_bad | norm_bad)
    if bad.size:
        return "x + x* is not scalar" if trace_bad[bad[0]] else "x x* is not a central scalar"
    return None


def doubled_table(algebra, star: Sequence[Sequence]) -> ScaledTensor:
    """The table of the Cayley-Dickson double of ``algebra`` with ``star``:
    the four blocks of :mod:`cdalg.construct`, over ``D s``."""
    n, m = algebra.dim, 2 * algebra.dim
    c, s, scale, nn = _star_products(algebra, star)
    doubled = np.zeros((m, m, m), dtype=c.dtype)
    doubled[:n, :n, :n] = c * scale
    doubled[:n, n:, n:] = c.transpose(1, 0, 2) * scale
    doubled[n:, :n, n:] = np.tensordot(c, s, axes=(1, 0)).transpose(0, 2, 1)
    doubled[n:, n:, :n] = -nn.transpose(1, 0, 2)
    return ScaledTensor(_ints(doubled), scaled_tensor(algebra).den * scale)


def left_mul_stack(algebra, xs: Sequence) -> tuple[np.ndarray, int]:
    """The matrices of ``y -> x y`` for a list of rows ``x``, times one
    positive integer ``sigma``.

    Returns ``stack[p, k, j]``, coordinate ``k`` of ``x_p b_j`` scaled by
    ``sigma = s D`` for the common denominator ``s`` of the rows (int64 or
    Python ints), and ``sigma``.  The scale leaves kernels, echelon forms
    and zero tests unchanged.
    """
    n = algebra.dim
    st = scaled_tensor(algebra)
    rows, s = scaled_rows(xs)
    big = _height(rows)
    # Each entry sums n products of a coordinate and a constant; float64
    # below 2^53.
    dtype = _carrier(max(n * big * st.max_abs, st.max_abs, big))
    x = _exact(rows, (len(xs), n), dtype)
    return _ints(np.tensordot(x, st.array(dtype), axes=(1, 0)).transpose(0, 2, 1)), s * st.den


def left_mul_rows(algebra, x) -> list[list[int]]:
    """The matrix of ``y -> x y`` times a positive integer, as rows of Python
    ints (:func:`left_mul_stack` of the one row)."""
    return left_mul_stack(algebra, [x])[0][0].tolist()


def singularity_screen(algebra):
    """A batched test of which left multiplications ``y -> x y`` are
    nonsingular, or None when :func:`_screen_fits` rules out int64.

    The returned ``regular(rows, definite=False)`` gives one bool per row
    ``x``: True when ``L_x`` is proved nonsingular over the rationals, so
    that ``x`` is not a left zero divisor.  False decides nothing.  Two
    proofs are used, the first one only with ``definite``:

    - ``x != 0`` and ``D_x = L_{x^2} - L_x L_x = 0``, where the caller
      vouches with ``definite`` that the algebra is quadratic and unital
      with ``N(x) > 0`` for every ``x != 0``, as a locally complex algebra
      is.  With ``x^2 = t(x) x - N(x)`` and ``xbar = t(x) - x``,
      ``xbar (x y) = N(x) y + D_x y``, so ``D_x = 0`` makes ``L_x``
      injective.  Tested on the exact ``float64`` stack only, for a chunk
      whose integer rows have height ``h`` with ``2 n^3 h^2 max|C|^2``
      below 2^53;
    - the integer matrix of ``L_x`` (any positive multiple, as in
      :func:`left_mul_rows`) is nonsingular modulo the prime
      ``SCREEN_PRIME`` (:func:`_nonsingular_mod`).  Its determinant is then
      not divisible by the prime, hence not zero.
    """
    n, p = algebra.dim, SCREEN_PRIME
    if not _screen_fits(n, p):
        return None
    st = scaled_tensor(algebra)

    def regular(rows: Sequence[Sequence], definite: bool = False) -> list[bool]:
        # One scale for all the rows keeps each a positive multiple of x; a
        # row it makes zero mod p is only left to the exact kernel.
        ints = scaled_rows(rows)[0]
        big = _height(ints)
        # Each entry of L_x sums n products of a coordinate and a constant:
        # below 2^53 the exact stack is built in float64 and then reduced.
        # With s the rows' scale and D the table's, the stack is s D L_x^T,
        # x^2 from it s^2 D x^2 with entries at most n^2 h^2 max|C|, and
        # both (s D)^2 L_{x^2}^T and (s D)^2 (L_x L_x)^T at most
        # n^3 h^2 max|C|^2: their difference, (s D)^2 D_x^T, at most twice that.
        dtype = _carrier(max(n * big * st.max_abs, st.max_abs, big))
        x = _exact(ints, (len(rows), n), dtype)
        if dtype == _FLOAT:
            c = st.array(dtype).reshape(n, n * n)  # [i, (j, k)] = C[i, j, k]
            # [b, j, k]: coordinate k of x_b b_j, i.e. L_{x_b} transposed.
            mats = (x @ c).reshape(len(rows), n, n)
            proved = np.zeros(len(rows), dtype=bool)
            if definite and _carrier(2 * n**3 * big**2 * st.max_abs**2) == _FLOAT:
                defect = ((x[:, None] @ mats)[:, 0] @ c).reshape(mats.shape)
                defect -= mats @ mats
                proved = ~defect.any(axis=(1, 2)) & x.any(axis=1)
            rest = np.flatnonzero(~proved)
            if len(rest):
                proved[rest] = _nonsingular_mod(_mod(mats[rest].astype(np.int64), p), p)
            return proved.tolist()
        x = (x % p).astype(np.int64)
        mats = np.tensordot(x, st.residues(np.array([p]))[0], axes=(1, 0))
        return _nonsingular_mod(_mod(mats, p), p).tolist()

    return regular


def _nonsingular_mod(m: np.ndarray, p: int) -> np.ndarray:
    """Whether each square matrix in a stack of int64 residues mod the prime
    ``p`` is nonsingular mod ``p``; the rank alone, where
    :func:`_row_basis_mod` also finds which rows span.

    Fraction-free elimination on the whole stack at once: the first row
    ``t`` with a nonzero entry in the first column is swapped to the top,
    every other row ``x`` becomes ``t_0 x - x_0 t`` (mod ``p``), and the
    next step works on the rows and columns after the first.  A matrix
    whose first column is zero there is singular and leaves the stack.
    Every entry stays below ``p``, each product below ``p^2``.  ``m`` is
    overwritten.
    """
    regular = np.zeros(len(m), dtype=bool)
    live = np.arange(len(m))
    while len(live) and m.shape[1]:
        column = m[:, :, 0] != 0
        full = column.any(axis=1)
        if not full.all():
            live, m, column = live[full], m[full], column[full]
        every = np.arange(len(live))
        i = column.argmax(axis=1)
        t = m[every, i]  # a copy: the pivot rows
        m[every, i] = m[:, 0]
        rest = m[:, 1:, 1:] * t[:, :1, None]
        rest -= m[:, 1:, :1] * t[:, None, 1:]
        m = _mod(rest, p)
    regular[live] = True
    return regular


def _row_basis_mod(m: np.ndarray, p: int, companion: np.ndarray | None = None) -> np.ndarray:
    """Which rows of each matrix in a stack of int64 residues mod ``p`` are
    independent of the rows before them.

    Returns ``kept[b, i]``: True when row ``i`` of matrix ``b`` is not in the
    span mod ``p`` of its rows ``0..i-1``.  The kept rows are a basis of the
    row space, so ``kept.sum(axis=1)`` is the rank.

    Fraction-free elimination on the whole stack at once, column by column:
    the first row ``t`` with a nonzero entry in column ``u`` is kept, and
    every column ``v`` becomes ``t_u col_v - t_v col_u`` (mod ``p``).  That
    maps each row ``x`` to ``t_u x - x_u t``, whose kernel is ``span(t)``:
    ``t`` and column ``u`` become zero, and at the end every row is zero.
    The rows of ``companion`` (``[b, v, :]`` moving with column ``v`` of
    ``m``) get the same combinations, and its row ``u`` becomes zero.  Every
    entry stays below ``p``, each product below ``p^2``.  Both arrays are
    overwritten.
    """
    b, r, _ = m.shape
    kept = np.zeros((b, r), dtype=bool)
    every = np.arange(b)
    top = 0  # the rows before top are kept in every matrix, so they are zero now
    # A column that is zero in every row stays zero.
    for u in np.flatnonzero(m.any(axis=(0, 1))).tolist():
        sub = m[:, top:, u:]
        column = sub[:, :, 0] != 0
        i = column.argmax(axis=1)
        live = column[every, i]
        kept[every, top + i] |= live
        t = sub[every, i]  # a copy: the kept rows from column u on
        tu = np.where(live, t[:, 0], 1)  # the identity where column u is zero
        step = sub * tu[:, None, None]
        step -= sub[:, :, :1] * t[:, None, :]
        _mod(step, p, out=sub)
        if companion is not None:
            part = companion[:, u:]
            step = part * tu[:, None, None]
            step -= (t * live[:, None])[:, :, None] * part[:, :1]
            _mod(step, p, out=part)
        if kept[:, top].all():
            top += 1
            if top == r:
                break
    return kept


def product_table(algebra, xs: Sequence, ys: Sequence) -> tuple[np.ndarray, int]:
    """The products ``x_p y_q`` of two lists of rows.

    Returns an integer array ``table[p, q, k]`` and its positive scale
    ``s``: coordinate ``k`` of ``x_p y_q`` is ``table[p, q, k] / s``.  The
    dtype (``int64`` or Python ints; the contractions run in float64 below
    2^53) leaves room to add two such tables.
    """
    n = algebra.dim
    (x_ints, sx), (y_ints, sy) = scaled_rows(xs), scaled_rows(ys)
    if any(len(r) != n for r in (*x_ints, *y_ints)):
        raise DimensionMismatchError("element does not conform to algebra")
    st = scaled_tensor(algebra)
    mx, my = _height(x_ints), _height(y_ints)
    # Contracting one row with C gives entries at most n*mx*c, the second
    # contraction at most n^2*mx*my*c, and the sum of two tables twice that.
    # C and the rows must fit too, which the products miss when a factor is
    # 0.  The bound is symmetric in the two lists.
    dtype = _carrier(max(2 * n * n * mx * my * st.max_abs, n * max(mx, my) * st.max_abs,
                         st.max_abs, mx, my))
    c = st.array(dtype)
    x = _exact(x_ints, (len(xs), n), dtype)
    y = _exact(y_ints, (len(ys), n), dtype)
    # [p, k, q] = (x_p y_q)_k, scaled; the shorter list meets C first.
    if len(xs) <= len(ys):
        xy = np.tensordot(np.tensordot(x, c, axes=(1, 0)), y, axes=(1, 1))
    else:
        xy = np.tensordot(x, np.tensordot(c, y, axes=(1, 1)), axes=(1, 0))
    return _ints(xy.transpose(0, 2, 1)), sx * sy * st.den


def table_in_rows(algebra, rows: Sequence) -> ScaledTensor:
    """The table of ``span(rows)`` in the basis ``rows``.

    Entry ``[p, q, m]`` is coordinate ``m`` of ``r_p r_q`` in that basis.
    Raises ``ValueError("matrix is singular")`` when the rows are dependent
    and :class:`InconsistentInputError` when a product leaves their span.

    With the rows scaled to integers ``R`` and ``A`` their columns at the
    pivot columns of an echelon form, ``A`` is invertible, so a product
    ``P`` has the coordinates ``P_A A^-1``; they are exact only when they
    give back ``P`` in every column, which is checked.
    """
    k, n = len(rows), algebra.dim
    table, scale = product_table(algebra, rows, rows)  # the products are table / scale
    r, s = scaled_rows(rows)  # R = s * rows
    pivots = _echelon(r, reduce=False)[1]
    if len(pivots) < k:
        raise ValueError("matrix is singular")
    inv, d = scaled_rows(inverse([[x[c] for c in pivots] for x in r]))  # A^-1 = inv / d
    products = table.astype(object)
    # The coordinates are (table_A / scale) (A / s)^-1 = num * s / (scale d),
    # and num R = d table exactly when every product lies in the span.
    num = products[:, :, pivots] @ np.array(inv, dtype=object).reshape(k, k)
    if (num @ np.array(r, dtype=object).reshape(k, n) != products * d).any():
        raise InconsistentInputError("vector is outside the spanned subspace")
    return ScaledTensor(num * s, scale * d)


def anticommutator_table(algebra, xs: Sequence, ys: Sequence) -> tuple[list, int]:
    """The anticommutators ``x_p y_q + y_q x_p`` of two lists of rows.

    Returns nested lists ``table[p][q][k]`` of Python ints and their positive
    common scale ``s``: coordinate ``k`` of ``x_p y_q + y_q x_p`` is
    ``table[p][q][k] / s``.  Being bilinear, the table gives the
    anticommutator of any two combinations of the rows.
    """
    xy, scale = product_table(algebra, xs, ys)
    yx, _ = product_table(algebra, ys, xs)
    return (xy + yx.transpose(1, 0, 2)).tolist(), scale


# About this many int64 entries (256 KB) per array of a round of the
# subalgebra closure: its products hold k n^2 per generator set for the k
# words the set gained in the last round.
CLOSURE_CHUNK = 2**15
# Generator sets closed together; their state holds about 2 n^2 entries each.
CLOSURE_SETS = 128


def _seed_ints(seeds: Sequence[Sequence]) -> list[list[int]]:
    """The nonzero seed rows as primitive integer rows (Python ints)."""
    return [row for row in map(_primitive, seeds) if row is not None]


def _residues(rows: list[list[list[int]]], width: int, n: int, primes: np.ndarray) -> np.ndarray:
    """``rows[b][s]`` modulo each prime as int64 ``[t, b, s, :]``, zero-padded
    to ``width`` rows."""
    out = np.zeros((len(primes), len(rows), width, n), dtype=np.int64)
    flat = [row for seeds in rows for row in seeds]
    if flat:
        big = max(map(max, flat)) >= INT64_LIMIT or min(map(min, flat)) < -INT64_LIMIT
        ints = np.array(flat, dtype=object if big else np.int64)
        b = np.repeat(np.arange(len(rows)), [len(seeds) for seeds in rows])
        s = np.concatenate([np.arange(len(seeds)) for seeds in rows])
        for t, p in enumerate(primes.tolist()):
            out[t, b, s] = ints % p
    return out


def _close_mod_p(algebra, seed_sets: list[list[list[int]]], p: int) -> list[tuple[int, list]]:
    """The closure of each seed set modulo ``p``, all sets at once.

    Returns ``(d, words)`` per set: ``d`` rows whose residues are independent
    mod ``p`` and whose span mod ``p`` holds the seeds and every product of
    two of them.  Word ``w`` is ``(-1, s)`` for seed ``s`` or ``(a, c)`` for
    the product of words ``a < w`` and ``c < w``, in that order.

    Each round multiplies only the words added in the last round by all
    words (both orders), and keeps the products that extend the span.  The
    span is held as the rows of its annihilator mod ``p``: a product is in
    the span exactly when it is orthogonal to every annihilator row, and
    :func:`_row_basis_mod` takes the first product that is not, in product
    order, and updates the annihilator with it.  A set leaves the batch when
    a round adds nothing or its span is the whole algebra.
    """
    n, count = algebra.dim, len(seed_sets)
    c = scaled_tensor(algebra).residues(np.array([p]))[0]
    by_left = c.reshape(n, n * n)  # [i, (j, k)] = C[i, j, k]
    by_right = np.ascontiguousarray(c.transpose(1, 0, 2)).reshape(n, n * n)
    width = max((len(s) for s in seed_sets), default=0)
    seeds = _residues(seed_sets, width, n, np.array([p]))[0]
    ids = np.arange(count)
    words = np.zeros((count, n + 1, n), dtype=np.int64)  # row n stays zero
    labels = np.zeros((count, n, 2), dtype=np.int64)
    dims = np.zeros(count, dtype=np.int64)
    ann = np.broadcast_to(np.eye(n, dtype=np.int64), (count, n, n)).copy()
    out: list = [None] * count

    def take(lo: int, rows: np.ndarray, row_labels: np.ndarray) -> np.ndarray:
        """Add the rows that extend the spans of sets lo, lo + 1, ..."""
        hi = lo + len(rows)
        kept = _row_basis_mod(_mod(rows @ ann[lo:hi].swapaxes(1, 2), p), p, ann[lo:hi])
        b, r = np.nonzero(kept)
        pos = dims[lo + b] + np.arange(len(b)) - np.searchsorted(b, b)
        words[lo + b, pos] = rows[b, r]
        labels[lo + b, pos] = row_labels[b, r]
        added = kept.sum(axis=1)
        dims[lo:hi] += added
        return added

    def products(lo: int, hi: int, old: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The products of sets lo..hi-1 with a word added in the last round,
        and their labels: new word i times word c, then word a times new
        word i."""
        w, d, m = words[lo:hi], dims[lo:hi], hi - lo
        k, top, top_old = int((d - old).max()), int(d.max()), int(old.max())
        new = old[:, None] + np.arange(k)
        new = np.where(new < d[:, None], new, n)  # [b, i]: word i of the round
        fresh = w[np.arange(m)[:, None], new]
        before = w[:, :top_old] * (np.arange(top_old) < old[:, None])[:, :, None]
        halves = []
        for by, factors in ((by_left, w[:, :top]), (by_right, before)):
            # [b, i, j, l]: coordinate l of the new word i times b_j (by_left)
            # or of b_j times it (by_right), then times each factor.
            side = _mod(fresh @ by, p)
            half = _mod(factors[:, None] @ side.reshape(m, k, n, n), p)
            halves.append(half.reshape(m, -1, n))
        rows = np.concatenate(halves, axis=1)
        pairs = (np.broadcast_arrays(new[:, :, None], np.arange(top)),
                 np.broadcast_arrays(np.arange(top_old), new[:, :, None]))
        row_labels = np.concatenate([np.stack(ac, -1).reshape(m, -1, 2) for ac in pairs], axis=1)
        return rows, row_labels

    seed_labels = np.stack(np.broadcast_arrays(-1, np.arange(width)), axis=-1)
    added = take(0, seeds, np.broadcast_to(seed_labels, (count, width, 2)))
    while True:
        done = (added == 0) | (dims == n)
        for b in np.flatnonzero(done).tolist():
            out[ids[b]] = int(dims[b]), labels[b, :dims[b]].tolist()
        if done.all():
            return out
        live = ~done
        ids, words, labels, dims, ann, added = (
            ids[live], words[live], labels[live], dims[live], ann[live], added[live])
        # A round's arrays hold about k n^2 entries per set, k words new.
        old = dims - added
        step = max(1, CLOSURE_CHUNK // (int(added.max()) * n * n))
        added = np.concatenate([take(lo, *products(lo, min(lo + step, len(ids)), old[lo:lo + step]))
                                for lo in range(0, len(ids), step)])


def _certificate_bound(seeds: list[list[int]], words: list, k: int, n: int) -> int:
    """A bound on every ``(d+1)``-minor of ``[seeds; words; products of two
    words]``, the words taken as exact integer rows.

    A seed's entries are its own; a product of words whose entries are at
    most ``h_a`` and ``h_c`` has entries at most ``k h_a h_c``, where ``k``
    bounds ``sum_{i, j} |C[i, j, l]|`` over ``l``.  By Hadamard a minor is
    at most the product of the Euclidean norms of its rows, and a row with
    entries at most ``h`` has norm at most ``sqrt(n) h``: the ``d + 1``
    largest ``h`` are taken.
    """
    heights: list[int] = []
    for a, c in words:
        heights.append(max(map(abs, seeds[c])) if a < 0 else k * heights[a] * heights[c])
    rows = [max(map(abs, s)) for s in seeds] + heights
    rows += [k * a * c for a in heights for c in heights]
    rows.sort(reverse=True)
    return isqrt(prod(n * h * h for h in rows[:len(words) + 1])) + 1


def _certified(algebra, seed_sets: list[list[list[int]]], closed: list[tuple[int, list]],
               primes: np.ndarray) -> np.ndarray:
    """Whether ``[seeds; words; all products of two words]`` has rank at most
    ``d`` modulo every prime, for each seed set and its closure mod ``p``.

    The words are replayed from the exact seeds modulo each prime, so each
    matrix is the integer matrix of the exact words reduced mod that prime.
    """
    n, count, q = algebra.dim, len(seed_sets), len(primes)
    width = max(len(s) for s in seed_sets)
    top = max(d for d, _ in closed)
    c = scaled_tensor(algebra).residues(primes).reshape(-1, n, n * n)
    seeds = _residues(seed_sets, width, n, primes)
    dims = np.array([d for d, _ in closed])
    labels = np.array([words + [[0, 0]] * (top - d) for d, words in closed],
                      dtype=np.int64).reshape(count, top, 2)
    words = np.zeros((q, count, top, n), dtype=np.int64)
    for w in range(top):
        a, s = labels[:, w, 0], labels[:, w, 1]
        seeded = np.flatnonzero((w < dims) & (a < 0))
        words[:, seeded, w] = seeds[:, seeded, s[seeded]]
        made = np.flatnonzero((w < dims) & (a >= 0))
        x = _reduce(words[:, made, a[made]] @ c, primes).reshape(q, -1, n, n)
        words[:, made, w] = _reduce((words[:, made, s[made]][:, :, None] @ x)[:, :, 0], primes)
    # [t, b, (a, c)]: word a times word c.
    left = _reduce(words.reshape(q, -1, n) @ c, primes).reshape(q, count, top, n, n)
    products = _reduce((words[:, :, None] @ left).reshape(q, count, -1, n), primes)
    stack = np.concatenate([seeds, words, products], axis=2)
    return np.all([_row_basis_mod(m, p).sum(axis=1) <= dims
                   for m, p in zip(stack, primes.tolist())], axis=0)


def _exact_closure(algebra, seeds: list[list[int]]) -> Subspace:
    """The closure over the rationals, one round at a time.

    Each round multiplies only the rows added in the last round by all rows
    (both orders), reduces each product against the integer rows so far,
    and keeps it when something is left.  Every kept row is zero at the
    pivot columns of the rows before it, so reducing in the order the rows
    were kept clears every pivot.  Stops as soon as the span is the whole
    algebra.
    """
    n = algebra.dim
    basis: list[list[int]] = []
    pivots: list[int] = []

    def extend(rows) -> list[list[int]]:
        added = []
        for row in rows:
            rem = _primitive(row)
            if rem is None or len(basis) == n:
                continue
            for kept, col in zip(basis, pivots):
                if rem[col]:
                    rem = _cancel(rem, kept, col)
            if any(rem):
                basis.append(rem)
                pivots.append(next(i for i, v in enumerate(rem) if v))
                added.append(rem)
        return added

    new = extend(seeds)
    while new and len(basis) < n:
        old = basis[:len(basis) - len(new)]
        products = product_table(algebra, new, basis)[0].reshape(-1, n).tolist()
        if old:
            products += product_table(algebra, old, new)[0].reshape(-1, n).tolist()
        new = extend(products)
    return Subspace(basis, n)


def _certify(algebra, chunk: list[list[list[int]]], closed: list[tuple[int, list]]) -> set[int]:
    """The seed sets whose words mod ``p`` span their closure over Q.

    ``d = n`` words settle it.  Below ``n``, words independent mod ``p``
    give ``dim >= d``, and rank at most ``d`` of ``[seeds; words; products]``
    over Q gives ``dim <= d``: by :func:`_certified` modulo the primes of
    :func:`_zero_test_primes` for :func:`_certificate_bound`.  Modulo ``p``
    itself the closure has reduced every seed and product, so ``p`` is left
    out.  A set whose bound no prefix exceeds is not certified.
    """
    n = algebra.dim
    ok = {b for b, (d, _) in enumerate(closed) if d == n}
    if len(ok) == len(closed):
        return ok
    st = scaled_tensor(algebra)
    k = int(abs(st.array(_carrier(n * n * st.max_abs))).sum(axis=(0, 1)).max())
    checks = {}
    for b, (d, words) in enumerate(closed):
        if d < n:
            primes = _zero_test_primes(_certificate_bound(chunk[b], words, k, n), n)
            if primes is not None:
                checks[b] = primes[primes != SCREEN_PRIME]
    ok.update(b for b, primes in checks.items() if not len(primes))
    todo = [b for b, primes in checks.items() if len(primes)]
    if todo:
        # The longest prefix serves every set: more primes only add checks.
        primes = max((checks[b] for b in todo), key=len)
        step = max(1, CLOSURE_CHUNK // (len(primes) * max(closed[b][0] for b in todo) * n * n))
        for lo in range(0, len(todo), step):
            group = todo[lo:lo + step]
            passed = _certified(algebra, [chunk[b] for b in group], [closed[b] for b in group],
                                primes)
            ok.update(b for b, good in zip(group, passed.tolist()) if good)
    return ok


def _closures(algebra, seed_sets: Sequence[Sequence[Sequence]]) -> Iterator[tuple]:
    """``(dim, seeds, how)`` for the subalgebra each seed set generates, in
    order: ``seeds`` are the primitive integer seed rows, and ``how`` is the
    list of words of :func:`_close_mod_p` when :func:`_certify` accepts them,
    else the :class:`Subspace` of :func:`_exact_closure`."""
    n = algebra.dim
    for start in range(0, len(seed_sets), CLOSURE_SETS):
        chunk = [_seed_ints(s) for s in seed_sets[start:start + CLOSURE_SETS]]
        closed, ok = [], set()
        if _screen_fits(n, SCREEN_PRIME):
            closed = _close_mod_p(algebra, chunk, SCREEN_PRIME)
            ok = _certify(algebra, chunk, closed)
        for b, seeds in enumerate(chunk):
            if b in ok:
                d, words = closed[b]
                yield d, seeds, words
            else:
                span = _exact_closure(algebra, seeds)
                yield span.dim, seeds, span


def closure_dims(algebra, seed_sets: Sequence[Sequence[Sequence]]) -> Iterator[int]:
    """The dimension of the subalgebra each seed set generates, in order.

    Closed in batches modulo :data:`SCREEN_PRIME`; a dimension below
    ``dim(A)`` is certified over Q by the ranks of :func:`_certified` or
    comes from the exact loop.
    """
    for dim, _, _ in _closures(algebra, seed_sets):
        yield dim


def closure_span(algebra, seeds: Sequence[Sequence]) -> Subspace:
    """The subalgebra the rows ``seeds`` generate, as an exact subspace."""
    ((dim, rows, how),) = _closures(algebra, [seeds])
    n = algebra.dim
    if isinstance(how, Subspace):
        return how
    if dim == n:
        return Subspace._of_axes(range(n), n)
    exact: list[list[int]] = []
    for a, c in how:  # replay the words over Z
        exact.append(rows[c] if a < 0 else
                     _primitive(product_table(algebra, [exact[a]], [exact[c]])[0][0, 0].tolist()))
    return Subspace(exact, n)
