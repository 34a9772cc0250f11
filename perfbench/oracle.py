"""Independent arithmetic for checking the library's outputs.

Nothing here imports cdalg: products, ranks, element parsing and the
low-dimensional formulas are re-derived from their definitions, so a wrong
answer from the library cannot also pass its own re-check.
"""

from __future__ import annotations

import re
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def tensor_from_json(data: dict) -> tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], int]:
    """Structure tensor and unit index of an algebra file, parsed directly."""
    constants = tuple(
        tuple(tuple(Fraction(c) for c in cell) for cell in row)
        for row in data["constants"]
    )
    return constants, data["unit"]


def multiply(constants, x, y) -> tuple[Fraction, ...]:
    """x * y = sum_ijk x_i y_j c_ijk b_k."""
    n = len(constants)
    out = [F0] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = constants[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            f = xi * yj
            for k, c in enumerate(row[j]):
                if c:
                    out[k] += f * c
    return tuple(out)


def sub(a, b) -> tuple[Fraction, ...]:
    return tuple(p - q for p, q in zip(a, b))


def is_zero(v) -> bool:
    return not any(v)


def echelon(rows) -> list[list[Fraction]]:
    """Row echelon basis of the span of the rows (Gaussian elimination)."""
    work = [list(r) for r in rows if any(r)]
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in work:
        for b, p in zip(basis, pivots):
            if row[p]:
                f = row[p] / b[p]
                row = [x - f * y for x, y in zip(row, b)]
        nz = next((k for k, x in enumerate(row) if x), None)
        if nz is not None:
            basis.append(row)
            pivots.append(nz)
    return basis


def rank(rows) -> int:
    return len(echelon(rows))


def left_mul_rank(constants, x) -> int:
    """Rank of y -> x * y."""
    n = len(constants)
    cols = [multiply(constants, x, tuple(F1 if k == j else F0 for k in range(n))) for j in range(n)]
    return rank(cols)


def closure_dim(constants, unit: int, gens) -> int:
    """Dimension of the unital subalgebra generated by gens."""
    n = len(constants)
    span = echelon([tuple(F1 if k == unit else F0 for k in range(n))] + list(gens))
    while True:
        products = [multiply(constants, a, b) for a in span for b in span]
        grown = echelon(span + products)
        if len(grown) == len(span):
            return len(span)
        span = grown


def alternative_defect(constants, x, y, law: str) -> tuple[Fraction, ...]:
    """x^2 y - x(xy) for the left law, y x^2 - (yx)x for the right law."""
    x2 = multiply(constants, x, x)
    if law == "left":
        return sub(multiply(constants, x2, y), multiply(constants, x, multiply(constants, x, y)))
    return sub(multiply(constants, y, x2), multiply(constants, multiply(constants, y, x), x))


_TERM = re.compile(r"^(?:(?P<coef>\d+(?:/\d+)?)\*)?(?P<label>\w+)$")


def parse_text(text: str, labels) -> tuple[Fraction, ...]:
    """Coordinates of an element printed as "2*1 - e3 + 1/2*e7"."""
    index = {label: i for i, label in enumerate(labels)}
    coords = [F0] * len(labels)
    if text == "0":
        return tuple(coords)
    parts = text.split(" ")
    first = parts[0]
    signs = ["-" if first.startswith("-") else "+"] + parts[1::2]
    terms = [first.lstrip("-")] + parts[2::2]
    for sign, term in zip(signs, terms):
        m = _TERM.match(term)
        if m is None or m.group("label") not in index:
            raise ValueError(f"unparsable term {term!r} in {text!r}")
        coef = Fraction(m.group("coef") or 1)
        coords[index[m.group("label")]] += coef if sign == "+" else -coef
    return tuple(coords)


# -- dimensions 3 and 4 -------------------------------------------------------


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b):
    return sum(p * q for p, q in zip(a, b))


def multiply_4d(T, u, x, y):
    """(l + v)(m + w) = (lm - v.w + (v x w).u) + (lw + mv + T(v x w))."""
    lam, v = x[0], x[1:]
    mu, w = y[0], y[1:]
    c = cross(v, w)
    scalar = lam * mu - dot(v, w) + dot(c, u)
    return (scalar, *(lam * w[r] + mu * v[r] + dot(T[r], c) for r in range(3)))


def signature(P) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a symmetric rational 3x3.

    The characteristic polynomial of a symmetric matrix has only real roots,
    so Descartes' rule of signs counts them exactly.
    """
    tr = P[0][0] + P[1][1] + P[2][2]
    m2 = (
        P[0][0] * P[1][1] - P[0][1] * P[1][0]
        + P[0][0] * P[2][2] - P[0][2] * P[2][0]
        + P[1][1] * P[2][2] - P[1][2] * P[2][1]
    )
    det = (
        P[0][0] * (P[1][1] * P[2][2] - P[1][2] * P[2][1])
        - P[0][1] * (P[1][0] * P[2][2] - P[1][2] * P[2][0])
        + P[0][2] * (P[1][0] * P[2][1] - P[1][1] * P[2][0])
    )

    def changes(coeffs) -> int:
        signs = [c > 0 for c in coeffs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return changes((1, -tr, m2, -det)), changes((-1, -tr, -m2, -det))


def symmetric_part(T):
    return tuple(tuple((T[i][j] + T[j][i]) / 2 for j in range(3)) for i in range(3))


def geometric_kind(T) -> tuple[int, str]:
    pos, neg = signature(symmetric_part(T))
    rank_ = pos + neg
    if rank_ == 3:
        return rank_, "ellipsoid" if 3 in (pos, neg) else "hyperboloid"
    if rank_ == 2:
        return rank_, "elliptic-cylinder" if 2 in (pos, neg) else "hyperbolic-cylinder"
    return rank_, "rank1" if rank_ == 1 else "rank0"


def cayley_rotation(a, b, c):
    """The rational rotation (I - S)(I + S)^-1 of the skew matrix with axis (a, b, c)."""
    S = ((F0, -c, b), (c, F0, -a), (-b, a, F0))
    d = 1 + a * a + b * b + c * c
    # (I + S)^-1 = (I - S + w w^T) / d for the axis w = (a, b, c).
    w = (a, b, c)
    inv = tuple(
        tuple(((F1 if i == j else F0) - S[i][j] + w[i] * w[j]) / d for j in range(3))
        for i in range(3)
    )
    minus = tuple(tuple((F1 if i == j else F0) - S[i][j] for j in range(3)) for i in range(3))
    return tuple(
        tuple(sum(minus[i][k] * inv[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
