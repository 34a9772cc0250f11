"""Command-line interface.

Every command accepts ``--format json|md`` (JSON is the default and is
lossless: rationals are emitted as "p/q" strings).  Exit codes: 0 success,
1 property or verification failure, 2 usage error, 3 malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Any

import numpy as np

from . import verify as verify_mod
from .analysis import (
    alter_scalar_space,
    annihilator,
    check_homomorphism,
    classify_super_alternative,
    recognize_alternative_division,
    subalgebra_census,
    zero_divisor_search,
)
from .construct import Grading, named_algebra
from .core import Algebra, Element
from .errors import (
    CdalgError,
    MalformedInputError,
    UnknownAlgebraError,
)
from .fileio import (
    _is_list_of,
    algebra_to_dict,
    fraction_to_str,
    load_algebra,
    parse_element,
    save_algebra,
)
from .linalg import Subspace
from .lowdim import (
    build_3d,
    canonical_params_3d,
    equiv_4d,
    extract_params_4d,
    geometric_type,
    hyperboloid_config,
    is_division_4d,
)
from .properties import (
    PropertyReport,
    is_alternative,
    is_locally_complex,
    is_nicely_normed,
    is_quadratic,
    is_super_alternative,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, Element):
        return [fraction_to_str(c) for c in value.coords]
    if isinstance(value, Subspace):
        return {
            "dim": value.dim,
            "basis": [[fraction_to_str(c) for c in row] for row in value.rows],
        }
    if isinstance(value, Grading):
        return {
            "even": _jsonable(value.even),
            "odd": _jsonable(value.odd),
        }
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def element_text(algebra: Algebra, x: Element) -> str:
    parts = []
    for i, c in enumerate(x.coords):
        if c == 0:
            continue
        label = algebra.label(i)
        if c == 1:
            term = label
        elif c == -1:
            term = f"-{label}"
        else:
            term = f"{fraction_to_str(c)}*{label}"
        parts.append(term)
    if not parts:
        return "0"
    text = parts[0]
    for term in parts[1:]:
        text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return text


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(payload), indent=1))
        return
    for key, value in payload.items():
        value = _jsonable(value)
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        print(f"{key}: {value}")


def _load_source(spec: str) -> tuple[Algebra, Grading | None, str | None]:
    """Resolve a CLI operand as a built-in name or a JSON file path."""
    try:
        bundle = named_algebra(spec)
        return bundle.algebra, bundle.grading, bundle.name
    except UnknownAlgebraError:
        pass
    algebra, grading = load_algebra(spec)
    return algebra, grading, None


def _parse_rationals(text: str, expected: int, what: str) -> list[Fraction]:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != expected:
        raise MalformedInputError(f"{what} needs {expected} comma-separated rationals")
    try:
        return [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad rational in {what}: {exc}") from exc


def _read_params(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        T, u = (data.get("T"), data.get("u")) if isinstance(data, dict) else (None, None)
        if not (_is_list_of(T, 3) and all(_is_list_of(row, 3) for row in T) and _is_list_of(u, 3)):
            raise ValueError("need an object with T, 3 lists of 3 numbers, and u, 3 numbers")
        T = [[Fraction(str(x)) for x in row] for row in T]
        u = [Fraction(str(x)) for x in u]
    except (OSError, ValueError) as exc:
        raise MalformedInputError(f"bad parameter file {path}: {exc}") from exc
    return T, u


def _params_from_args(args) -> tuple:
    if args.file:
        return _read_params(args.file)
    if args.T is None:
        raise MalformedInputError("need either a parameter file or --T")
    flat = _parse_rationals(args.T, 9, "--T")
    T = [flat[0:3], flat[3:6], flat[6:9]]
    u = _parse_rationals(args.u, 3, "--u") if args.u else [Fraction(0)] * 3
    return T, u


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    bundle = named_algebra(args.name)
    if args.out:
        try:
            save_algebra(args.out, bundle.algebra, bundle.grading)
        except OSError as exc:
            raise MalformedInputError(f"cannot write {args.out}: {exc}") from exc
        _emit({"written": args.out, "dim": bundle.algebra.dim}, args.format)
    else:
        _emit(algebra_to_dict(bundle.algebra, bundle.grading), args.format)
    return EXIT_OK


def cmd_table(args) -> int:
    algebra, _, _ = _load_source(args.name)
    n = algebra.dim
    labels = [algebra.label(i) for i in range(n)]
    cells = [
        [element_text(algebra, algebra.table_entry(i, j)) for j in range(n)]
        for i in range(n)
    ]
    if args.format == "json":
        _emit({"labels": labels, "table": cells}, "json")
    else:
        width = max(len(c) for row in cells for c in row)
        width = max(width, max(len(l) for l in labels))
        header = " | ".join(l.rjust(width) for l in [""] + labels)
        print(header)
        print("-" * len(header))
        for lab, row in zip(labels, cells):
            print(" | ".join(c.rjust(width) for c in [lab] + row))
    return EXIT_OK


def cmd_check(args) -> int:
    algebra, grading, _ = _load_source(args.target)
    wanted = args.property
    report = PropertyReport()

    def want(key: str) -> bool:
        return wanted in ("all", key)

    if want("quadratic"):
        q = is_quadratic(algebra)
        report.set("quadratic", "yes" if q.holds else "no",
                   None if q.holds else element_text(algebra, q.witness))
    if want("lc"):
        lc = is_locally_complex(algebra)
        witness = None
        if not lc.holds and lc.counterexample is not None:
            witness = {
                "kind": lc.counterexample_kind,
                "element": element_text(algebra, lc.counterexample),
            }
        report.set("locally_complex", "yes" if lc.holds else "no", witness)
    if want("alt"):
        alt = is_alternative(algebra)
        witness = None
        if not alt.holds:
            x, y, law = alt.witness
            witness = {"law": law, "x": element_text(algebra, x), "y": element_text(algebra, y)}
        report.set("alternative", "yes" if alt.holds else "no", witness)
    if want("superalt"):
        if grading is None:
            report.set("super_alternative", "unknown", "no grading available")
        else:
            sa = is_super_alternative(algebra, grading)
            witness = None
            if not sa.holds:
                u, x, law = sa.witness
                witness = {"law": law, "u": element_text(algebra, u), "x": element_text(algebra, x)}
            report.set("super_alternative", "yes" if sa.holds else "no", witness)
    if want("nn"):
        report.set("nicely_normed", "yes" if is_nicely_normed(algebra) else "no")
    if wanted == "all":
        report.set("commutative", "yes" if algebra.is_commutative() else "no")
        zd = zero_divisor_search(algebra, budget=args.budget, seed=args.seed)
        if zd.status == "found":
            x, y = zd.pair
            report.set("has_zero_divisors", "yes",
                       {"x": element_text(algebra, x), "y": element_text(algebra, y)})
        elif zd.status == "none_found":
            report.set("has_zero_divisors", "no")
        else:
            report.set("has_zero_divisors", "unknown", f"search exhausted after {zd.tried} candidates")
    _emit({"flags": report.flags, "witnesses": report.witnesses}, args.format)
    return EXIT_OK


def cmd_recognize(args) -> int:
    algebra, _, _ = _load_source(args.target)
    rec = recognize_alternative_division(algebra)
    _emit({"tag": rec.tag, "iso": rec.iso}, args.format)
    return EXIT_OK


def cmd_classify_super(args) -> int:
    algebra, grading, _ = _load_source(args.target)
    if grading is None:
        raise MalformedInputError("classify-super needs a grading in the input file")
    rec = classify_super_alternative(algebra, grading)
    _emit({"tag": rec.tag, "iso": rec.iso}, args.format)
    return EXIT_OK


def cmd_classify3(args) -> int:
    if args.params:
        t, s = _parse_rationals(" ".join(args.params).replace(" ", ","), 2, "--params")
        try:
            algebra = build_3d(t, s)
        except ValueError as exc:
            raise MalformedInputError(f"bad --params: {exc}") from exc
    else:
        if not args.file:
            raise MalformedInputError("classify3 needs a file or --params t,s")
        algebra, _, _ = _load_source(args.file)
    form = canonical_params_3d(algebra)
    _emit({"t": form.t, "s": form.s, "s_squared": form.s_squared}, args.format)
    return EXIT_OK


def cmd_classify4(args) -> int:
    if (
        args.T
        or not args.file
        or args.file.endswith(".json") and not _looks_like_algebra(args.file)
    ):
        T, u = _params_from_args(args)
    else:
        algebra, _, _ = _load_source(args.file)
        params = extract_params_4d(algebra)
        T, u = [list(r) for r in params.t_matrix], list(params.u)
    gt = geometric_type(T)
    payload: dict[str, Any] = {"T": T, "u": u, "rank": gt.rank, "kind": gt.kind}
    division = is_division_4d(T, u)
    payload["division"] = division.is_division
    if division.pair is not None:
        payload["zero_divisor_pair"] = division.pair
        payload["pair_exact"] = division.exact
    if gt.kind == "hyperboloid":
        config = hyperboloid_config((T, u))
        payload["configuration"] = {
            "delta": list(config.delta),
            "u": list(config.u),
            "c": list(config.c),
        }
    _emit(payload, args.format)
    return EXIT_OK


def _looks_like_algebra(path: str) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return "constants" in data
    except Exception:
        return False


def cmd_iso4(args) -> int:
    res = equiv_4d(_read_params(args.a), _read_params(args.b))
    payload: dict[str, Any] = {"equivalent": res.equivalent, "borderline": res.borderline}
    if res.differs is not None:
        payload["differs"] = res.differs
    if res.witness is not None:
        payload["witness"] = res.witness
    _emit(payload, args.format)
    return EXIT_OK


def cmd_division4(args) -> int:
    T, u = _params_from_args(args)
    res = is_division_4d(T, u)
    payload: dict[str, Any] = {"division": res.is_division}
    if res.pair is not None:
        payload["zero_divisor_pair"] = res.pair
        payload["pair_exact"] = res.exact
    _emit(payload, args.format)
    return EXIT_OK


def cmd_ann(args) -> int:
    algebra, _, _ = _load_source(args.target)
    x = parse_element(args.element, algebra)
    ann = annihilator(algebra, x)
    _emit(
        {
            "element": element_text(algebra, x),
            "dim": ann.dim,
            "basis": [element_text(algebra, r) for r in ann.elements()],
        },
        args.format,
    )
    return EXIT_OK


def cmd_zerodiv(args) -> int:
    algebra, _, _ = _load_source(args.target)
    res = zero_divisor_search(algebra, budget=args.budget, seed=args.seed)
    payload: dict[str, Any] = {
        "status": res.status,
        "definitive": res.definitive,
        "tried": res.tried,
    }
    if res.pair is not None:
        payload["x"] = element_text(algebra, res.pair[0])
        payload["y"] = element_text(algebra, res.pair[1])
    _emit(payload, args.format)
    return EXIT_OK


def cmd_alterscalar(args) -> int:
    algebra, _, _ = _load_source(args.target)
    space = alter_scalar_space(algebra)
    _emit(
        {
            "solution_dim": space.solutions.dim,
            "has_alter_scalars": space.has_alter_scalars,
            "basis": [element_text(algebra, r) for r in space.solutions.elements()],
        },
        args.format,
    )
    return EXIT_OK


def cmd_embed_check(args) -> int:
    source, _, _ = _load_source(getattr(args, "from"))
    target, _, _ = _load_source(args.to)
    try:
        with open(args.map, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        matrix = [[Fraction(str(x)) for x in row] for row in data["matrix"]]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad map file {args.map}: {exc}") from exc
    if len(matrix) != target.dim or any(len(row) != source.dim for row in matrix):
        raise MalformedInputError(
            f"bad map file {args.map}: the matrix needs {target.dim} rows of "
            f"{source.dim} entries each"
        )
    res = check_homomorphism(matrix, source, target)
    payload: dict[str, Any] = {"holds": res.holds}
    if not res.holds:
        payload["violation"] = res.violation
    _emit(payload, args.format)
    return EXIT_OK if res.holds else EXIT_CHECK_FAILED


def cmd_subalg(args) -> int:
    algebra, _, _ = _load_source(args.target)
    try:
        dims = [int(d) for d in args.dims.split(",")] if args.dims else []
    except ValueError as exc:
        raise MalformedInputError(f"bad integer in --dims: {exc}") from exc
    report = subalgebra_census(algebra, dims, budget=args.budget, seed=args.seed)
    payload = {
        "requested": list(report.requested),
        "realized": {
            str(d): [element_text(algebra, g) for g in entry.generators]
            for d, entry in sorted(report.realized.items())
        },
    }
    if dims:
        payload["hits"] = {str(d): report.found(d) for d in dims}
    _emit(payload, args.format)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    report = verify_mod.run_verification()
    if args.format == "json":
        _emit(
            {
                "all_passed": report.all_passed,
                "claims": [
                    {
                        "id": o.claim_id,
                        "description": o.description,
                        "passed": o.passed,
                        "elapsed_ms": round(o.elapsed_ms, 1),
                        "detail": o.detail,
                    }
                    for o in report.outcomes
                ],
            },
            "json",
        )
    else:
        for o in report.outcomes:
            status = "PASS" if o.passed else "FAIL"
            print(f"{o.claim_id} {status} ({o.elapsed_ms:7.0f} ms)  {o.description}")
            print(f"     {o.detail}")
        print("result:", "all claims passed" if report.all_passed else "FAILURES PRESENT")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, options


# An argument that starts with "-" and reads as a rational or a list of them
# ("-1/2", "-1,0,0") is an operand, not an unknown option.
_NEGATIVE_VALUE = re.compile(r"^-[\d.][\d./eE+,;-]*$")
_TARGET = _arg("target")
_SEED = _arg("--seed", type=int, default=0)
_PARAMS = (_arg("file", nargs="?"), _arg("--T"), _arg("--u"))

# name -> (handler, help line, arguments after --format), in help order.
_COMMANDS: dict[str, tuple[Any, str, tuple]] = {
    "gen": (cmd_gen, "emit a built-in algebra as a JSON file", (_arg("name"), _arg("--out"))),
    "table": (cmd_table, "print a multiplication table", (_arg("name"),)),
    "check": (cmd_check, "property report for an algebra", (
        _TARGET,
        _arg("--property", choices=("all", "quadratic", "lc", "alt", "superalt", "nn"),
             default="all"),
        _arg("--budget", type=int, default=500),
        _SEED,
    )),
    "recognize": (cmd_recognize, "recognize an alternative division algebra", (_TARGET,)),
    "classify-super": (cmd_classify_super,
                       "classify a graded super-alternative locally complex algebra", (_TARGET,)),
    "classify3": (cmd_classify3, "canonical form of a 3-dimensional algebra",
                  (_arg("file", nargs="?"), _arg("--params", nargs=2, metavar=("T", "S")))),
    "classify4": (cmd_classify4, "canonical data of a 4-dimensional algebra", _PARAMS),
    "iso4": (cmd_iso4, "equivalence of two parameter pairs",
             (_arg("--a", required=True), _arg("--b", required=True))),
    "division4": (cmd_division4, "division criterion for parameters (T, u)", _PARAMS),
    "ann": (cmd_ann, "annihilator of an element", (_TARGET, _arg("--element", required=True))),
    "zerodiv": (cmd_zerodiv, "zero divisor search",
                (_TARGET, _arg("--budget", type=int, default=10_000), _SEED)),
    "alterscalar": (cmd_alterscalar, "solution space of x^2 a = x(xa)", (_TARGET,)),
    "embed-check": (cmd_embed_check, "verify a homomorphism matrix", (
        _arg("--map", required=True), _arg("--from", required=True), _arg("--to", required=True),
    )),
    "subalg": (cmd_subalg, "bounded subalgebra census",
               (_TARGET, _arg("--dims"), _arg("--budget", type=int, default=100), _SEED)),
    "verify-paper": (cmd_verify_paper, "run the built-in verification suite", ()),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every sub-command or, when the first token of ``argv``
    names one, of that one only; its metavar then lists every command, so
    usage lines are the same.  No command, an unknown one or a leading
    option gets the full parser, whose errors name the command argument."""
    parser = argparse.ArgumentParser(
        prog="cdalg",
        description="Construct, check and classify finite-dimensional real "
        "nonassociative algebras given by structure constants.",
    )
    if argv and argv[0] in _COMMANDS:
        names = [argv[0]]
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
    else:
        names = list(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        func, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "md"), default="json")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


@cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """:func:`build_parser` for a first token naming ``command`` (None: any
    other), built once per process; parsing leaves a parser unchanged."""
    return build_parser([command] if command else None)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        if [] in vars(args).values():
            # argparse drops a "--" given as an option's value
            # ("--element=--"), leaving an empty list in place of the string.
            raise MalformedInputError("'--' is not accepted as an option value")
        if getattr(args, "budget", 0) < 0:
            raise MalformedInputError(f"--budget must be nonnegative, got {args.budget}")
        return args.func(args)
    except MalformedInputError as exc:
        print(json.dumps({"error": str(exc), "kind": "malformed-input"}), file=sys.stderr)
        return EXIT_BAD_INPUT
    except CdalgError as exc:
        print(
            json.dumps({"error": str(exc), "kind": type(exc).__name__}),
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
