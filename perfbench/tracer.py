"""Spans around calls into cdalg's layers, recorded from outside the library.

The tracer wraps each function in ``TARGETS`` by replacing the module
attribute and every other binding of the same object held by a ``cdalg``
module (the modules import by name, e.g. ``from .linalg import rref``).
``Algebra.multiply`` is wrapped on the class.  After installing, every
``cdalg`` namespace is scanned again and any remaining reference to an
original function fails the run, so an import refactor cannot silently
zero a layer.

A span is ``[name, start, end, parent, root, child_s, own_overhead_s,
subtree_overhead_s, counts]``.  Roots are opened by the benchmark around set-up,
each op and each output check.  The wrapper's own bookkeeping is timed and
charged as overhead to the enclosing span, so self and total times exclude it.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ROOT, CHILD, OWN_OVH, SUB_OVH, COUNTS = range(9)

# (layer, attribute) pairs; the layer is the cdalg module holding the function.
TARGETS = (
    ("core", "Algebra.multiply"),
    ("core", "change_of_basis"),
    ("core", "generated_subalgebra"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "mat_inv"),
    ("properties", "is_quadratic"),
    ("properties", "is_locally_complex"),
    ("properties", "orthonormalize"),
    ("properties", "is_alternative"),
    ("properties", "is_super_alternative"),
    ("properties", "is_nicely_normed"),
    ("analysis", "classify_super_alternative"),
    ("analysis", "recognize_alternative_division"),
    ("analysis", "find_unit_square_vector"),
    ("analysis", "verify_iso"),
    ("analysis", "alter_scalar_space"),
    ("analysis", "annihilator"),
    ("analysis", "zero_divisor_search"),
    ("numth", "sqrt_fraction"),
    ("numth", "four_squares_fraction"),
    ("lowdim", "build_4d"),
    ("lowdim", "extract_params_4d"),
    ("lowdim", "canonical_params_3d"),
    ("lowdim", "geometric_type"),
    ("lowdim", "is_division_4d"),
    ("lowdim", "equiv_4d"),
    ("fileio", "load_algebra"),
    ("fileio", "parse_element"),
    ("cli", "main"),
)


def _span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.split('.')[-1]}"


class CoverageError(RuntimeError):
    """A cdalg module still holds an unwrapped reference to a traced function."""


class Tracer:
    def __init__(self) -> None:
        # Span 0 collects calls made outside any root; it is never reported.
        self.spans: list[list] = [["<unrooted>", 0.0, 0.0, -1, 0, 0.0, 0.0, 0.0, None]]
        self.stack: list[int] = [0]
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        self._nonzero: dict[int, tuple] = {}

    # -- roots --------------------------------------------------------------

    @contextmanager
    def root(self, kind: str, label: str = ""):
        """A root span: kind is "setup", "op" or "check"."""
        idx = len(self.spans)
        rec = ["root", 0.0, 0.0, -1, idx, 0.0, 0.0, 0.0, {"root": kind, "label": label}]
        self.spans.append(rec)
        self.stack.append(idx)
        self._nonzero.clear()
        rec[START] = time.perf_counter()
        try:
            yield rec[COUNTS]
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, count, prepare):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            t_in = clock()
            parent = stack[-1]
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent, spans[parent][ROOT], 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            if prepare is not None:
                args, rec[COUNTS] = prepare(args)
            returned = False
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = rec[END] = clock()
                stack.pop()
                if returned and count is not None:
                    rec[COUNTS] = count(args, result)
                p = spans[parent]
                p[CHILD] += end - rec[START]
                overhead = (rec[START] - t_in) + (clock() - end)
                p[OWN_OVH] += overhead
                p[SUB_OVH] += overhead + rec[SUB_OVH]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _multiply_counts(self, args, result):
        algebra, x, y = args[0], args[1], args[2]
        table = self._nonzero.get(id(algebra))
        if table is None or table[0] is not algebra:
            counts = tuple(
                tuple(sum(1 for c in cell if c) for cell in row) for row in algebra.constants
            )
            table = self._nonzero[id(algebra)] = (algebra, counts)
        counts = table[1]
        xs = [i for i, c in enumerate(x.coords) if c]
        ys = [j for j, c in enumerate(y.coords) if c]
        terms = sum(counts[i][j] for i in xs for j in ys)
        bits = 0
        for c in result.coords:
            if c:
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        return {"terms": terms, "bits": bits}

    @staticmethod
    def _rref_prepare(args):
        rows = list(args[0])
        cells = len(rows) * len(rows[0]) if rows else 0
        return (rows, *args[1:]), {"cells": cells}

    def _hooks(self, name: str):
        """(count, prepare) hooks recording counts at the call boundary."""
        return {
            "core.multiply": (self._multiply_counts, None),
            "linalg.rref": (None, self._rref_prepare),
            "analysis.zero_divisor_search": (
                lambda a, r: {"tried": r.tried, "decided": r.status in ("found", "none_found")},
                None,
            ),
            "lowdim.is_division_4d": (lambda a, r: {"exact": bool(r.exact)}, None),
            "lowdim.equiv_4d": (lambda a, r: {"borderline": bool(r.borderline)}, None),
        }.get(name, (None, None))

    def install(self) -> None:
        """Wrap every target everywhere cdalg binds it, then verify coverage."""
        modules = _cdalg_modules()
        for layer, attr in TARGETS:
            name = _span_name(layer, attr)
            home = sys.modules[f"cdalg.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(name, original, *self._hooks(name))
                setattr(cls, meth, wrapper)
                self._patched.append((cls, meth, original))
            else:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, *self._hooks(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
            self._originals[id(original)] = name
        missed = self.unwrapped_references()
        if missed:
            self.uninstall()
            raise CoverageError("unwrapped references to traced functions: " + ", ".join(missed))

    def unwrapped_references(self) -> list[str]:
        """Every place a cdalg module namespace (or a container or class at
        its top level) still holds an original traced function."""
        originals = self._originals
        missed = []
        for mod in _cdalg_modules():
            for key, value in vars(mod).items():
                where = f"{mod.__name__}.{key}"
                if id(value) in originals:
                    missed.append(f"{where} ({originals[id(value)]})")
                    continue
                if isinstance(value, dict):
                    inner = value.values()
                elif isinstance(value, (list, tuple, set, frozenset)):
                    inner = value
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    inner = vars(value).values()
                else:
                    continue
                for item in inner:
                    if id(item) in originals:
                        missed.append(f"{where}[...] ({originals[id(item)]})")
        return missed

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        self._originals.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans, one JSON array per line, in recording order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "root",
                                           "child_s", "own_overhead_s",
                                           "subtree_overhead_s", "counts"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _cdalg_modules() -> list:
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "cdalg" or key.startswith("cdalg."))
    ]


# -- per-layer metrics ----------------------------------------------------------

LAYER_METRICS = (
    ("core.multiply.calls", "count", "lower"),
    ("core.multiply.self_s", "s", "lower"),
    ("core.multiply.terms", "count", "lower"),
    ("core.multiply.max_bits", "bits", "lower"),
    ("core.change_of_basis.calls", "count", "lower"),
    ("core.change_of_basis.total_s", "s", "lower"),
    ("core.generated_subalgebra.total_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.total_s", "s", "lower"),
    ("linalg.mat_inv.calls", "count", "lower"),
    ("linalg.mat_inv.total_s", "s", "lower"),
    ("properties.is_super_alternative.calls", "count", "lower"),
    ("properties.is_super_alternative.total_s", "s", "lower"),
    ("properties.is_super_alternative.multiply_calls", "count", "lower"),
    ("properties.is_alternative.total_s", "s", "lower"),
    ("properties.is_quadratic.self_s", "s", "lower"),
    ("properties.is_locally_complex.calls", "count", "lower"),
    ("properties.is_locally_complex.total_s", "s", "lower"),
    ("properties.is_locally_complex.calls_per_op", "calls/op", "lower"),
    ("properties.is_nicely_normed.total_s", "s", "lower"),
    ("properties.orthonormalize.self_s", "s", "lower"),
    ("analysis.classify_super_alternative.total_s", "s", "lower"),
    ("analysis.recognize_alternative_division.calls", "count", "lower"),
    ("analysis.recognize_alternative_division.total_s", "s", "lower"),
    ("analysis.find_unit_square_vector.calls", "count", "lower"),
    ("analysis.find_unit_square_vector.total_s", "s", "lower"),
    ("numth.sqrt_fraction.calls", "count", "lower"),
    ("numth.four_squares_fraction.total_s", "s", "lower"),
    ("analysis.verify_iso.calls", "count", "lower"),
    ("analysis.verify_iso.total_s", "s", "lower"),
    ("analysis.verify_iso.calls_per_op", "calls/op", "lower"),
    ("analysis.alter_scalar_space.total_s", "s", "lower"),
    ("analysis.annihilator.calls", "count", "lower"),
    ("analysis.annihilator.total_s", "s", "lower"),
    ("analysis.zero_divisor_search.calls", "count", "lower"),
    ("analysis.zero_divisor_search.total_s", "s", "lower"),
    ("analysis.zero_divisor_search.tried", "count", "lower"),
    ("analysis.zero_divisor_search.decided_ratio", "1", "higher"),
    ("lowdim.build_4d.total_s", "s", "lower"),
    ("lowdim.extract_params_4d.total_s", "s", "lower"),
    ("lowdim.canonical_params_3d.total_s", "s", "lower"),
    ("lowdim.geometric_type.total_s", "s", "lower"),
    ("lowdim.is_division_4d.calls", "count", "lower"),
    ("lowdim.is_division_4d.total_s", "s", "lower"),
    ("lowdim.is_division_4d.exact_ratio", "1", "higher"),
    ("lowdim.equiv_4d.calls", "count", "lower"),
    ("lowdim.equiv_4d.total_s", "s", "lower"),
    ("lowdim.equiv_4d.borderline_ratio", "1", "lower"),
    ("fileio.load_algebra.calls", "count", "lower"),
    ("fileio.load_algebra.self_s", "s", "lower"),
    ("fileio.parse_element.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "1", "lower"),
)

# Metrics that must repeat exactly for a seed; everything else is a time or
# a ratio of times.
COUNT_METRICS = tuple(
    name for name, unit, _ in LAYER_METRICS
    if unit in ("count", "bits", "calls/op") or name.endswith(("decided_ratio", "exact_ratio", "borderline_ratio"))
)


def summarize(spans: list[list]) -> dict:
    """Per-name sums over the spans under op roots (set-up roots for
    change_of_basis), plus per-op-kind call counts."""
    stats: dict[str, dict] = {}
    ok_roots = set()
    ok_ops = 0
    by_kind: dict[str, dict[str, int]] = {}
    for idx, rec in enumerate(spans):
        counts = rec[COUNTS]
        if rec[NAME] == "root" and counts["root"] == "op":
            if counts.get("returned"):
                ok_roots.add(idx)
                ok_ops += 1
            by_kind.setdefault(counts["label"], {"ops": 0})["ops"] += 1
    for rec in spans[1:]:
        name = rec[NAME]
        if name == "root" or rec[ROOT] == 0:
            continue
        root = spans[rec[ROOT]][COUNTS]
        scope = root["root"]
        if scope != "op" and not (scope == "setup" and name == "core.change_of_basis"):
            continue
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                     "ok_calls": 0, "parent_calls": {}})
        duration = rec[END] - rec[START]
        st["calls"] += 1
        st["self_s"] += duration - rec[CHILD] - rec[OWN_OVH]
        if not _nested_in_same(spans, rec):
            st["total_s"] += duration - rec[SUB_OVH]
        if rec[ROOT] in ok_roots:
            st["ok_calls"] += 1
        parent_name = spans[rec[PARENT]][NAME]
        st["parent_calls"][parent_name] = st["parent_calls"].get(parent_name, 0) + 1
        if scope == "op":
            kind = by_kind[root["label"]]
            kind[name] = kind.get(name, 0) + 1
        for key, value in (rec[COUNTS] or {}).items():
            if key == "bits":
                st["max_bits"] = max(st.get("max_bits", 0), value)
            else:
                st[key] = st.get(key, 0) + value
    return {"layers": stats, "ok_ops": ok_ops, "by_kind": by_kind}


def _nested_in_same(spans, rec) -> bool:
    parent = rec[PARENT]
    while parent > 0 and spans[parent][NAME] != "root":
        if spans[parent][NAME] == rec[NAME]:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(summary: dict, overhead_ratio: float) -> dict:
    """The per-layer metric values named in LAYER_METRICS."""
    layers = summary["layers"]
    ok_ops = summary["ok_ops"]
    out = {}
    for metric, unit, _ in LAYER_METRICS:
        if metric == "bench.trace_overhead_ratio":
            value = overhead_ratio
        else:
            layer, fn, field = metric.split(".")
            st = layers.get(f"{layer}.{fn}", {})
            calls = st.get("calls", 0)
            if field == "calls_per_op":
                value = st.get("ok_calls", 0) / ok_ops if ok_ops else 0.0
            elif field == "multiply_calls":
                value = layers.get("core.multiply", {}).get("parent_calls", {}).get(f"{layer}.{fn}", 0)
            elif field == "decided_ratio":
                value = st.get("decided", 0) / calls if calls else 0.0
            elif field == "exact_ratio":
                value = st.get("exact", 0) / calls if calls else 0.0
            elif field == "borderline_ratio":
                value = st.get("borderline", 0) / calls if calls else 0.0
            else:
                value = st.get(field, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
