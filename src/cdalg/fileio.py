"""Algebra file format and the element-expression grammar.

The on-disk format is JSON:

    {
      "dim": 8,
      "unit": 0,
      "constants": [[["0", "1/2", ...], ...], ...],
      "grading": {"even": [0, 1, 2, 3], "odd": [4, 5, 6, 7]},   # optional
      "labels": ["1", "e1", ...]                                 # optional
    }

Rationals are encoded as strings "p/q" or "p" so round trips are lossless.
The reader makes one pass over the cells: each distinct spelling of a cell
and each distinct literal is parsed once, and the table is written as
integers over the lcm of the denominators, with no ``Fraction`` per entry.
Element expressions are linear combinations over the basis labels, e.g.
"f1 - f4", "2/3*e8 + 1", "e_8/2 + e8/2"; labels match case-insensitively
with underscores ignored, so ``Algebra`` rejects two labels equal under that
rule and so does the reader, as a malformed file.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from typing import Any, Iterable, Sequence

from .construct import Grading
from .core import Algebra, Element, label_key
from .errors import InvalidGradingError, MalformedInputError, NonUnitalError
from .kernel import ScaledTensor, scaled_tensor
from .linalg import F0


def fraction_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fraction_from_json(value: Any, literals: dict[str, Fraction]) -> Fraction:
    """A rational from a JSON string "p/q" or integer; booleans are rejected.

    A string literal is kept in ``literals`` (an int is not: ``True`` would
    find it).
    """
    if type(value) is not str and type(value) is not int:
        raise MalformedInputError(f"rationals must be strings or integers, got {value!r}")
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad rational literal {value!r}") from exc
    if type(value) is str:
        literals[value] = frac
    return frac


def _parse_constants(cells: Iterable[Sequence], n: int) -> ScaledTensor:
    """The table of the n^2 cells, row-major, of a tensor of checked shape.

    A new cell of strings has its unseen literals parsed, and is kept under
    its spelling.  Any other cell goes through :func:`_fraction_from_json`
    entry by entry, so its first bad entry raises, and is not kept: a key
    holding an int would also match ``True``.
    """
    literals: dict = {"0": F0}  # a string literal, or a Fraction, -> its value
    known: dict[tuple, int] = {}
    distinct: list[Sequence] = []
    ids = []
    for key in map(tuple, cells):
        try:
            ids.append(known[key])
        except (KeyError, TypeError):  # a new spelling, or an unhashable entry
            if set(map(type, key)) <= {str}:
                for v in [v for v in key if v not in literals]:
                    _fraction_from_json(v, literals)
                known[key] = len(distinct)
            else:
                key = [_fraction_from_json(v, literals) for v in key]
                literals.update(zip(key, key))
            ids.append(len(distinct))
            distinct.append(key)
    d = lcm(*{x.denominator for x in literals.values()})
    ints = {s: x.numerator * (d // x.denominator) for s, x in literals.items()}.__getitem__
    return ScaledTensor.of_cells(n, [list(map(ints, cell)) for cell in distinct], d, ids)


def _index_from_json(value: Any) -> int:
    if type(value) is not int:
        raise MalformedInputError(f"grading indices must be integers, got {value!r}")
    return value


def algebra_to_dict(
    algebra: Algebra, grading: Grading | None = None
) -> dict[str, Any]:
    table = scaled_tensor(algebra)
    spell = {v: fraction_to_str(Fraction(v, table.den))
             for v in set(table.c.ravel().tolist())}.__getitem__
    out: dict[str, Any] = {
        "dim": algebra.dim,
        "unit": algebra.unit,
        "constants": [[list(map(spell, cell)) for cell in row] for row in table.c.tolist()],
    }
    if algebra.labels is not None:
        out["labels"] = list(algebra.labels)
    if grading is not None:
        partition = grading.index_partition()
        if partition is None:
            raise MalformedInputError(
                "only basis-aligned gradings can be stored in the file format"
            )
        out["grading"] = {"even": partition[0], "odd": partition[1]}
    return out


def _is_list_of(value: Any, length: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == length


def algebra_from_dict(data: dict[str, Any]) -> tuple[Algebra, Grading | None]:
    if not isinstance(data, dict):
        raise MalformedInputError("top-level JSON value must be an object")
    n, raw = data.get("dim"), data.get("constants")
    if type(n) is not int or raw is None:
        raise MalformedInputError("missing or bad 'dim'/'constants'")
    if not (_is_list_of(raw, n) and all(map(_is_list_of, raw, repeat(n)))
            and all(map(_is_list_of, chain.from_iterable(raw), repeat(n)))):
        raise MalformedInputError(f"'constants' must be nested lists of shape {n}x{n}x{n}")
    table = _parse_constants(chain.from_iterable(raw), n)
    unit = data.get("unit")
    if unit is not None and (
        not isinstance(unit, int) or isinstance(unit, bool) or not 0 <= unit < n
    ):
        raise MalformedInputError(f"'unit' must be an index in 0..{n - 1}, got {unit!r}")
    labels = data.get("labels")
    if labels is not None:
        if not _is_list_of(labels, n):
            raise MalformedInputError(f"'labels' must be a list of {n} names")
        labels = [str(x) for x in labels]
    try:
        algebra = Algebra._of_table(table, unit, labels)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc
    grading = None
    if "grading" in data and data["grading"] is not None:
        g = data["grading"]
        try:
            grading = Grading.from_indices(
                n,
                [_index_from_json(i) for i in g["even"]],
                [_index_from_json(i) for i in g.get("odd", [])],
            )
        except (KeyError, TypeError, ValueError, InvalidGradingError) as exc:
            raise MalformedInputError(f"bad grading block: {exc}") from exc
    return algebra, grading


def save_algebra(path: str, algebra: Algebra, grading: Grading | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra, grading), fh, indent=1)
        fh.write("\n")


def load_algebra(path: str) -> tuple[Algebra, Grading | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc
    return algebra_from_dict(data)


_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?P<label>[A-Za-z][A-Za-z0-9_]*|(?<=\*)1)?(?:/(?P<div>\d+))?$"
)


def parse_element(expr: str, algebra: Algebra) -> Element:
    """Parse a linear combination of basis labels into an element; a term
    without a label, or with the label 1 after ``*`` as in ``2*1``, is scalar."""
    compact = expr.replace(" ", "")
    if not compact:
        raise MalformedInputError("empty element expression")
    label_index = {label_key(algebra.label(i)): i for i in range(algebra.dim)}
    coords = [Fraction(0)] * algebra.dim
    # Signs not after * or / split the terms; a leading sign leaves an empty
    # first piece, and a term without one is added.
    pieces = re.split(r"(?<![*/])([+-])", compact)
    pieces = pieces[1:] if compact[0] in "+-" else ["+", *pieces]
    for sign, chunk in zip(pieces[::2], pieces[1::2]):
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("label") is None):
            raise MalformedInputError(f"cannot parse term {chunk!r} in {expr!r}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError as exc:
            raise MalformedInputError("division by zero in element expression") from exc
        if m.group("div"):
            div = int(m.group("div"))
            if div == 0:
                raise MalformedInputError("division by zero in element expression")
            coef /= div
        label = m.group("label")
        if label in (None, "1"):
            if algebra.unit is None:
                raise NonUnitalError("scalar term in expression for a non-unital algebra")
            idx = algebra.unit
        else:
            idx = label_index.get(label_key(label))
            if idx is None:
                raise MalformedInputError(f"unknown basis label {label!r}")
        coords[idx] += coef if sign == "+" else -coef
    return Element(tuple(coords))
