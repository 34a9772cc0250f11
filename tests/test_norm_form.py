"""Rational unit vectors of positive definite forms: the sum-of-squares
decision of ``properties.orthonormalize`` against brute force and under
congruence, and the recognizers on tables that need it.

A positive definite rational form has a rational orthonormal basis exactly
when it is a sum of squares over Q; the library decides that by the
determinant class and the odd-prime Hasse invariants and builds the basis
by descent.  Brute force over small heights is a one-sided oracle: where it
finds an orthonormal basis, the library must decide "sum of squares" and
build one.
"""

import json
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import numpy as np
import pytest

from cdalg import Element, Grading, change_of_basis, named_algebra
from cdalg.analysis import random_rational_orthogonal
from cdalg.cli import main
from cdalg.fileio import save_algebra
from cdalg.linalg import identity, unit_vector
from cdalg.properties import orthonormalize

from slow_reference import mat_mul, transpose
from test_kernel import _quaternion_table

F0, F1 = Fraction(0), Fraction(1)
HEIGHT = 12
# The entries n/d with 1 <= n <= 12 and 1 <= d <= 3.
ENTRIES = sorted({Fraction(n, d) for n in range(1, 13) for d in range(1, 4)})


def decide(gram):
    """orthonormalize on the standard basis of Q^m against ``gram``."""
    m = len(gram)
    return orthonormalize([Element(unit_vector(m, i)) for i in range(m)], gram)


def assert_orthonormal(basis, gram):
    coords = [b.coords for b in basis]
    assert len(coords) == len(gram)
    g = mat_mul(mat_mul(coords, gram), transpose(coords))
    assert g == identity(len(gram))


def brute_force_orthonormal(d) -> bool:
    """Whether vectors a / k with integer entries |a_i| <= HEIGHT and
    1 <= k <= HEIGHT contain an orthonormal basis of <d_1, ..., d_m>."""
    m, den = len(d), lcm(*(x.denominator for x in d))
    c = np.array([int(x * den) for x in d], dtype=np.int64)
    axis = np.arange(-HEIGHT, HEIGHT + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), -1).reshape(-1, m)
    values = (grid * grid) @ c  # den * q(a)
    units = [grid[values == den * k * k] for k in range(1, HEIGHT + 1)]
    units = np.concatenate([u for u in units if len(u)] or [np.zeros((0, m), np.int64)])
    if m == 1:
        return len(units) > 0
    orth = ((units * c) @ units.T == 0).astype(np.int64)
    if m == 2:
        return bool(orth.any())
    return bool((orth * (orth @ orth)).any())  # a triangle of orthogonal unit vectors


def diagonal(d):
    return tuple(tuple(x if i == j else F0 for j in range(len(d))) for i, x in enumerate(d))


def small_forms():
    rng = random.Random("norm-form:rank3")
    forms = [(x,) for x in ENTRIES]
    forms += list(combinations_with_replacement(ENTRIES, 2))
    triples = list(combinations_with_replacement(ENTRIES, 3))
    forms += rng.sample(triples, 120)
    forms += [(F1, F1, F1), (Fraction(2), Fraction(2), F1), (Fraction(1, 2), Fraction(2), F1),
              (Fraction(3), Fraction(3), Fraction(3)), (Fraction(5), Fraction(5), F1),
              (Fraction(2), Fraction(3), Fraction(6)), (F1, Fraction(3), Fraction(3))]
    return forms


def test_decision_matches_brute_force_on_small_diagonal_forms():
    found = 0
    for d in small_forms():
        gram = diagonal(d)
        result = decide(gram)
        if isinstance(result, list):
            assert_orthonormal(result, gram)
        if brute_force_orthonormal(d):
            found += 1
            assert isinstance(result, list), (d, result)
        else:
            assert not isinstance(result, str) or result.startswith("is not a sum of squares")
    assert found >= 30


def congruent(gram, rng):
    """A G A^T for A a rational Cayley rotation times a diagonal of
    rational rescalings."""
    m = len(gram)
    scale = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(m)]
    a = mat_mul(random_rational_orthogonal(m, rng),
                diagonal([Fraction(rng.choice([-1, 1])) * s for s in scale]))
    return mat_mul(mat_mul(a, gram), transpose(a))


@pytest.mark.parametrize("seed", range(60))
def test_decision_is_invariant_under_congruence(seed):
    """The decision, and the invariant that fails, do not depend on the
    basis the form is written in."""
    rng = random.Random(f"norm-form:congruence:{seed}")
    m = rng.randint(1, 4)
    gram = diagonal([rng.choice(ENTRIES) for _ in range(m)])
    moved = congruent(gram, rng)
    got, want = decide(moved), decide(gram)
    if "could not be factored" in f"{got}{want}":
        return  # undecided, which a congruence can cause by inflating the pivots
    if isinstance(want, list):
        # Decided a sum of squares; the search for a unit vector may run out.
        assert isinstance(got, list) or got.endswith("the search for a vector of norm 1 ran out")
        if isinstance(got, list):
            assert_orthonormal(got, moved)
    else:
        # The determinant itself changes by a square.
        assert re.sub(r"determinant \S+", "determinant", got) == re.sub(
            r"determinant \S+", "determinant", want)


def test_the_quaternions_minus_one_minus_three_name_the_prime_three():
    assert decide(diagonal([F1, Fraction(3), Fraction(3)])) == (
        "is not a sum of squares over Q: its Hasse invariant at 3 is -1")


# -- the command line on tables that need the descent ------------------------


def run(capsys, *argv):
    """Exit code and the JSON printed: the result, or the error on stderr."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, json.loads(out.out if code == 0 else out.err)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]],
])
def test_h_in_a_basis_without_square_lengths(tmp_path, capsys, rows):
    """H in the bases (1, i + j, i - j, k) and (1, i + j, j + k, k + i):
    no Gram-Schmidt length is a square, yet every command finds H."""
    path = str(tmp_path / "h.json")
    save_algebra(path, change_of_basis(named_algebra("H").algebra, rows, unit_index=0))
    code, out = run(capsys, "recognize", path)
    assert code == 0 and out["tag"] == "H"
    code, out = run(capsys, "classify4", path)
    assert code == 0 and out["division"] is True
    code, out = run(capsys, "check", path)
    assert code == 0 and out["flags"]["has_zero_divisors"] == "no"


def test_quaternions_minus_one_minus_three_fail_with_the_invariant(tmp_path, capsys):
    """(-1, -3) over Q, graded even (1, i), odd (j, k), is H over R but has
    no rational normalized basis: every recognizer names the invariant."""
    path = str(tmp_path / "q.json")
    save_algebra(path, _quaternion_table(-1, -3), Grading.from_indices(4, [0, 1], [2, 3]))
    for command in ("classify-super", "recognize", "classify4"):
        code, out = run(capsys, command, path)
        assert code == 1
        assert out["kind"] == "UnsupportedRationalClassError"
        assert out["error"].endswith("its Hasse invariant at 3 is -1")
