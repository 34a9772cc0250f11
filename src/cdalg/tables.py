"""Literal multiplication tables for the built-in algebras.

Each table lists the products of the imaginary basis vectors b_1..b_{n-1}:
row i, column j holds a signed index k meaning b_i * b_j = sign(k) * b_|k|,
and 0 means b_i * b_j = -1 (all diagonal squares are -1 in these tables).
The unit is basis vector 0 and multiplies trivially.

OCTONION_TABLE and SEDENION_TABLE serve as frozen reference data for the
verification suite; the library constructs those algebras by doubling and
checks that the results equal the algebras built from these tables.
TWISTED_OCTONION_TABLE and TWISTED_SEDENION_TABLE define the two
exceptional super-alternative algebras, which are shipped as data because
no doubling construction produces them.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Algebra

F0 = Fraction(0)
F1 = Fraction(1)

OCTONION_TABLE = (
    (0, 3, -2, 5, -4, -7, 6),
    (-3, 0, 1, 6, 7, -4, -5),
    (2, -1, 0, 7, -6, 5, -4),
    (-5, -6, -7, 0, 1, 2, 3),
    (4, -7, 6, -1, 0, -3, 2),
    (7, 4, -5, -2, 3, 0, -1),
    (-6, 5, 4, -3, -2, 1, 0),
)

SEDENION_TABLE = (
    (0, 3, -2, 5, -4, -7, 6, 9, -8, -11, 10, -13, 12, 15, -14),
    (-3, 0, 1, 6, 7, -4, -5, 10, 11, -8, -9, -14, -15, 12, 13),
    (2, -1, 0, 7, -6, 5, -4, 11, -10, 9, -8, -15, 14, -13, 12),
    (-5, -6, -7, 0, 1, 2, 3, 12, 13, 14, 15, -8, -9, -10, -11),
    (4, -7, 6, -1, 0, -3, 2, 13, -12, 15, -14, 9, -8, 11, -10),
    (7, 4, -5, -2, 3, 0, -1, 14, -15, -12, 13, 10, -11, -8, 9),
    (-6, 5, 4, -3, -2, 1, 0, 15, 14, -13, -12, 11, 10, -9, -8),
    (-9, -10, -11, -12, -13, -14, -15, 0, 1, 2, 3, 4, 5, 6, 7),
    (8, -11, 10, -13, 12, 15, -14, -1, 0, -3, 2, -5, 4, 7, -6),
    (11, 8, -9, -14, -15, 12, 13, -2, 3, 0, -1, -6, -7, 4, 5),
    (-10, 9, 8, -15, 14, -13, 12, -3, -2, 1, 0, -7, 6, -5, 4),
    (13, 14, 15, 8, -9, -10, -11, -4, 5, 6, 7, 0, -1, -2, -3),
    (-12, 15, -14, 9, 8, 11, -10, -5, -4, 7, -6, 1, 0, 3, -2),
    (-15, -12, 13, 10, -11, 8, 9, -6, -7, -4, 5, 2, -3, 0, 1),
    (14, -13, -12, 11, 10, -9, 8, -7, 6, -5, -4, 3, 2, -1, 0),
)

TWISTED_OCTONION_TABLE = (
    (0, 3, -2, 5, -4, 7, -6),
    (-3, 0, 1, 6, -7, -4, 5),
    (2, -1, 0, 7, 6, -5, -4),
    (-5, -6, -7, 0, 1, 2, 3),
    (4, 7, -6, -1, 0, 3, -2),
    (-7, 4, 5, -2, -3, 0, 1),
    (6, -5, 4, -3, 2, -1, 0),
)

TWISTED_SEDENION_TABLE = (
    (0, 3, -2, 5, -4, -7, 6, 9, -8, -11, 10, -13, 12, -15, 14),
    (-3, 0, 1, 6, 7, -4, -5, 10, 11, -8, -9, -14, 15, 12, -13),
    (2, -1, 0, 7, -6, 5, -4, 11, -10, 9, -8, 15, 14, -13, -12),
    (-5, -6, -7, 0, 1, 2, 3, 12, 13, 14, -15, -8, -9, -10, 11),
    (4, -7, 6, -1, 0, -3, 2, 13, -12, -15, -14, 9, -8, 11, 10),
    (7, 4, -5, -2, 3, 0, -1, 14, 15, -12, 13, 10, -11, -8, -9),
    (-6, 5, 4, -3, -2, 1, 0, 15, -14, 13, 12, -11, -10, 9, -8),
    (-9, -10, -11, -12, -13, -14, -15, 0, 1, 2, 3, 4, 5, 6, 7),
    (8, -11, 10, -13, 12, -15, 14, -1, 0, -3, 2, -5, 4, -7, 6),
    (11, 8, -9, -14, 15, 12, -13, -2, 3, 0, -1, -6, 7, 4, -5),
    (-10, 9, 8, 15, 14, -13, -12, -3, -2, 1, 0, 7, 6, -5, -4),
    (13, 14, -15, 8, -9, -10, 11, -4, 5, 6, -7, 0, -1, -2, 3),
    (-12, -15, -14, 9, 8, 11, 10, -5, -4, -7, -6, 1, 0, 3, 2),
    (15, -12, 13, 10, -11, 8, -9, -6, 7, -4, 5, 2, -3, 0, -1),
    (-14, 13, 12, -11, -10, 9, 8, -7, -6, 5, 4, -3, -2, 1, 0),
)


def algebra_from_signed_table(
    table: tuple[tuple[int, ...], ...], labels: tuple[str, ...] | None = None
) -> Algebra:
    """Build a unital algebra from a signed-index imaginary table.

    The resulting algebra has dimension len(table) + 1, unit at index 0, and
    b_i b_j read off the table as described in the module docstring.
    """
    m = len(table)
    n = m + 1
    if any(len(row) != m for row in table):
        raise ValueError("table is not square")
    constants = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        constants[0][k][k] = F1
        constants[k][0][k] = F1
    for i in range(m):
        for j in range(m):
            entry = table[i][j]
            if i == j:
                if entry != 0:
                    raise ValueError("diagonal entries must encode -1")
                constants[i + 1][j + 1][0] = -F1
            else:
                if entry == 0:
                    raise ValueError("off-diagonal entries must be signed indices")
                sign = F1 if entry > 0 else -F1
                constants[i + 1][j + 1][abs(entry)] = sign
    constants[0][0] = [F0] * n
    constants[0][0][0] = F1
    return Algebra(constants, unit=0, labels=labels)
