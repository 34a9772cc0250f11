"""``cdalg check``'s printed bytes on inputs whose flags say "no", pinned by
digest.

The parity file set (``test_parity.py``) is all locally complex, so it pins
no ``quadratic: no``, no local-complexity counterexample, no ``--property``
filter and no ``--format md``.  These inputs cover each of them:

- the split complex numbers (b^2 = 1: an idempotent);
- the dual numbers (b^2 = 0: a square-zero element);
- b^2 = 2 (a field, but its norm form is not positive definite);
- b^2 = -3 (locally complex; every flag "yes");
- Q[t]/(t^3) (not quadratic: 1, t, t^2 are independent);
- ``build_3d(1/2, 3)``, A5 and J6.

The small tables are written with the trivial grading, so their
super-alternativity is decided; J6 has no grading, so its flag reads
"unknown".  Every input runs under every ``--property`` value in both
formats.  The digests in ``check_digests.json`` were recorded while each
decider returned a result class of its own and ``check`` filled a report
object flag by flag.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from cdalg import Algebra, Grading, build_3d
from cdalg.cli import main
from cdalg.fileio import save_algebra

DIGESTS = Path(__file__).with_name("check_digests.json")
PROPERTIES = ("all", "quadratic", "lc", "alt", "superalt", "nn")
FORMATS = ("json", "md")


def square_root_table(square):
    """The 2-dimensional unital algebra with b_1^2 = square * 1."""
    one, zero = Fraction(1), Fraction(0)
    return Algebra([[[one, zero], [zero, one]], [[zero, one], [Fraction(square), zero]]], unit=0)


def truncated_polynomials():
    """Q[t]/(t^3) on the basis 1, t, t^2."""
    c = [[[int(k == i + j) for k in range(3)] for j in range(3)] for i in range(3)]
    return Algebra(c, unit=0)


def _inputs(tmp: Path) -> list[tuple[str, str]]:
    """``(name, operand)`` of every input: a file path, or a built-in name."""
    tables = {
        "split-complex": square_root_table(1),
        "dual": square_root_table(0),
        "square-2": square_root_table(2),
        "square-minus-3": square_root_table(-3),
        "truncated-cubic": truncated_polynomials(),
        "dim3": build_3d(Fraction(1, 2), 3),
    }
    files = []
    for name, algebra in tables.items():
        path = tmp / f"{name}.json"
        save_algebra(str(path), algebra, Grading.trivial(algebra.dim))
        files.append((name, str(path)))
    return files + [("A5", "A5"), ("J6", "J6")]


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()).hexdigest()


def outputs(tmp: Path) -> dict[str, str]:
    """The digest of every run, keyed by the command line with the input's
    name in place of its path."""
    got = {}
    for name, operand in _inputs(tmp):
        for prop in PROPERTIES:
            for fmt in FORMATS:
                argv = ["check", operand, "--property", prop, "--format", fmt]
                got[" ".join(["check", name, *argv[2:]])] = _digest(argv)
    return got


def test_check_output_is_byte_identical(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = outputs(tmp_path)
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_inputs_cover_every_no(tmp_path, capsys):
    """Every flag says "yes" and "no" on some input, every
    local-complexity counterexample kind appears, and both "unknown"s do."""
    flags, kinds = set(), set()
    for _, operand in _inputs(tmp_path):
        assert main(["check", operand]) == 0
        report = json.loads(capsys.readouterr().out)
        flags |= {(k, v) for k, v in report["flags"].items()}
        kinds.add(report["witnesses"].get("locally_complex", {}).get("kind"))
    for flag in ("quadratic", "locally_complex", "alternative", "super_alternative",
                 "nicely_normed", "commutative", "has_zero_divisors"):
        assert (flag, "yes") in flags and (flag, "no") in flags
    assert {("super_alternative", "unknown"), ("has_zero_divisors", "unknown")} <= flags
    assert kinds == {None, "independent-square", "idempotent", "square-zero", "nonpositive-norm"}
