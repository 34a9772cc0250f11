"""Refute modulo one prime, certify by the verified iso.

``recognize_alternative_division`` and ``classify_super_alternative`` screen
the alternativity sweep modulo the first prime only and let the final
verified iso onto a named table certify a "yes".  These tests compare them
with the gate-first order kept in slow_reference (the exact sweep, then the
recognizer, with the even part verified on its own): the same tag and iso,
or the same exception type and message, on named, rotated and sheared
tables, on invalid gradings, and on tables whose defects all vanish modulo
the screen prime but not over Q.  They also pin that a returned iso is
graded, that rotated S and TS pass the screen with one prime, and that one
``verify_iso`` runs per classification.
"""

import random
from fractions import Fraction

import pytest

from cdalg import Algebra, Grading, build_4d, change_of_basis, named_algebra
from cdalg import analysis
from cdalg.analysis import (
    _named_target,
    classify_super_alternative,
    recognize_alternative_division,
    rotated_copy,
)
from cdalg.kernel import SCREEN_PRIME, AlternativitySweep, alternativity_screen
from cdalg.linalg import identity

import slow_reference as ref
from slow_reference import mat_vec
from test_kernel import _quaternion_table
from test_local_complexity import sheared_named, square_root_table
from test_zero_test_primes import _two_step_table

F0, F1 = Fraction(0), Fraction(1)
NAMES = ("C", "H", "O", "TO", "S", "TS")


def outcome(fn, *args):
    """``(tag, iso)``, or the type and message of the exception raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result.tag, result.iso


def block_sheared(name: str, seed: int) -> Algebra:
    """The named table in a seeded triangular basis within each block of its
    natural grading, so that the index grading stays valid."""
    bundle = named_algebra(name)
    n, rng = bundle.algebra.dim, random.Random(f"block:{name}:{seed}")
    rows = [[F1] + [F0] * (n - 1)]
    for block in (range(1, n // 2), range(n // 2, n)):
        for r in block:
            row = [F0] * n
            row[r] = Fraction(rng.choice([1, -1, 2, Fraction(1, 2)]))
            for k in range(block[0], r):
                row[k] = Fraction(rng.choice([0, 1, -1, 2]))
            rows.append(row)
    return change_of_basis(bundle.algebra, rows, unit_index=0)


def natural(n: int) -> Grading:
    return Grading.from_indices(n, list(range(n // 2)), list(range(n // 2, n)))


def graded_cases():
    """(label, algebra, grading): named, rotated within the grading and
    block-sheared tables with their natural grading; named, fully rotated
    and sheared tables with the trivial grading."""
    for name in NAMES:
        bundle = named_algebra(name)
        n = bundle.algebra.dim
        yield f"{name}-natural", bundle.algebra, bundle.grading
        for seed in range(2):
            rotated, grading, _ = rotated_copy(
                bundle.algebra, random.Random(f"cert:{name}:{seed}"), bundle.grading
            )
            yield f"{name}-natural-rotated-{seed}", rotated, grading
        yield f"{name}-natural-sheared", block_sheared(name, 0), natural(n)
        yield f"{name}-trivial", bundle.algebra, Grading.trivial(n)
        full = rotated_copy(bundle.algebra, random.Random(f"cert:full:{name}"))[0]
        yield f"{name}-trivial-rotated", full, Grading.trivial(n)
        if n <= 8:
            yield f"{name}-trivial-sheared", sheared_named(name, 3), Grading.trivial(n)


def invalid_gradings():
    """Gradings that pass the constructor and fail validation or a gate."""
    h, o, s = (named_algebra(name).algebra for name in ("H", "O", "S"))
    yield "unit-odd", h, Grading.from_indices(4, [2, 3], [0, 1])
    yield "not-closed", o, Grading.from_indices(8, [0, 1, 2, 4], [3, 5, 6, 7])
    yield "odd-odd-not-even", s, Grading.from_indices(16, [0, *range(9, 16)], range(1, 9))
    yield "unit-missing", h, Grading([[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0, 0, 1]], 4)


def hidden_defect_table() -> Algebra:
    """H with e1 e2 = (1 + p) e3 for the screen prime p: locally complex,
    and every alternativity defect is a nonzero multiple of p."""
    return build_4d([[1, 0, 0], [0, 1, 0], [0, 0, 1 + SCREEN_PRIME]], [0, 0, 0])


@pytest.mark.parametrize("label, algebra, grading", list(graded_cases()) + list(invalid_gradings()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_classification_matches_gate_first_reference(label, algebra, grading):
    assert outcome(classify_super_alternative, algebra, grading) == outcome(
        ref.classify_super_alternative, algebra, grading
    )


@pytest.mark.parametrize("name", ["R", *NAMES])
@pytest.mark.parametrize("style", ["named", "rotated", "sheared"])
def test_recognition_matches_gate_first_reference(name, style):
    algebra = named_algebra(name).algebra
    if style == "rotated" and name != "R":
        algebra = rotated_copy(algebra, random.Random(f"cert:rec:{name}"))[0]
    elif style == "sheared" and name not in ("R", "S", "TS"):
        algebra = sheared_named(name, 5)
    assert outcome(recognize_alternative_division, algebra) == outcome(
        ref.recognize_alternative_division, algebra
    )


@pytest.mark.parametrize("algebra", [
    square_root_table(3),
    square_root_table(0),
    build_4d([[1, 2, 0], [0, 1, 0], [0, 0, 3]], [1, 0, 0]),
    Algebra([[[F1, F0], [F0, F0]], [[F0, F0], [F0, F1]]]),  # non-unital
], ids=["split", "dual", "4d", "non-unital"])
def test_other_rejections_match_gate_first_reference(algebra):
    assert outcome(recognize_alternative_division, algebra) == outcome(
        ref.recognize_alternative_division, algebra
    )
    if algebra.unit is not None:
        grading = Grading.trivial(algebra.dim)
        assert outcome(classify_super_alternative, algebra, grading) == outcome(
            ref.classify_super_alternative, algebra, grading
        )


# -- defects that vanish modulo the screen prime ------------------------------


@pytest.fixture
def exact_sweeps(monkeypatch):
    """The rows of every full multi-prime sweep the recognizers fall back to."""
    calls = []
    original = analysis.first_alternativity_defect

    def spy(algebra, rows):
        calls.append(rows)
        return original(algebra, rows)

    monkeypatch.setattr(analysis, "first_alternativity_defect", spy)
    return calls


@pytest.mark.parametrize("grading", ["trivial", "natural"])
def test_hidden_defect_is_refuted_after_the_recognizer_fails(exact_sweeps, grading):
    algebra = hidden_defect_table()
    graded = Grading.trivial(4) if grading == "trivial" else natural(4)
    # The screen passes every part, and the exact sweep finds the defect.
    assert all(alternativity_screen(algebra, rows) is None
               for rows in (graded.even_rows, graded.odd_rows) if rows)
    assert analysis.is_locally_complex(algebra).holds
    want = (analysis.NotAlternativeError, "input is not super-alternative for this grading")
    assert outcome(classify_super_alternative, algebra, graded) == want
    assert outcome(ref.classify_super_alternative, algebra, graded) == want
    assert exact_sweeps  # the fallback ran
    exact_sweeps.clear()
    want = (analysis.NotAlternativeError, "input is not alternative")
    assert outcome(recognize_alternative_division, algebra) == want
    assert outcome(ref.recognize_alternative_division, algebra) == want
    assert exact_sweeps == [identity(4)]


def test_hidden_defect_outranks_local_complexity_in_recognize(exact_sweeps):
    """The two-step table with a = p, d = 1 is not locally complex either:
    the exact sweep runs before NotLocallyComplexError would be raised."""
    algebra = _two_step_table(SCREEN_PRIME, 1)
    assert alternativity_screen(algebra, identity(4)) is None
    assert not analysis.is_locally_complex(algebra).holds
    want = (analysis.NotAlternativeError, "input is not alternative")
    assert outcome(recognize_alternative_division, algebra) == want
    assert outcome(ref.recognize_alternative_division, algebra) == want
    assert exact_sweeps == [identity(4)]


def test_recognizer_failure_after_the_screen_is_re_raised(exact_sweeps):
    """The quaternions (-1, -3 * 10^8), that is (-1, -3) over Q, are alternative
    and locally complex but not H over Q: the norm form on the part
    anticommuting with i, <3, 3> up to squares, has Hasse invariant -1 at 3.
    Past 2^63 the screen decides nothing, so the exact sweep runs, finds no
    defect, and the recognizer's own error comes out, also for the grading
    C + Cj, whose odd part is that binary form."""
    algebra = _quaternion_table(-1, -3 * 10**8)
    assert alternativity_screen(algebra, identity(4)) is None
    for fn, args in ((recognize_alternative_division, (algebra,)),
                     (classify_super_alternative, (algebra, natural(4))),
                     (classify_super_alternative, (algebra, Grading.trivial(4)))):
        exact_sweeps.clear()
        got = outcome(fn, *args)
        assert got[0] is analysis.UnsupportedRationalClassError
        assert got[1].endswith("its Hasse invariant at 3 is -1")
        assert got == outcome(getattr(ref, fn.__name__), *args)
        assert exact_sweeps


def test_exact_path_does_not_sweep_twice(exact_sweeps):
    """Below 2^63 the screen is the exact sweep: a later failure re-raises
    without another sweep."""
    want = (analysis.NotLocallyComplexError, "input is not locally complex")
    assert outcome(recognize_alternative_division, square_root_table(3)) == want
    assert exact_sweeps == []


# -- what the certificate rests on ----------------------------------------------


def test_returned_isos_are_graded():
    """A returned iso maps the even rows into the target's even coordinates
    and the odd rows into its odd coordinates."""
    seen = 0
    for label, algebra, grading in graded_cases():
        if grading.odd.dim == 0:
            continue
        iso = classify_super_alternative(algebra, grading).iso
        half = algebra.dim // 2  # the target's even part is its first half
        for row in grading.even_rows:
            assert not any(mat_vec(iso, row)[half:]), label
        for row in grading.odd_rows:
            assert not any(mat_vec(iso, row)[:half]), label
        seen += 1
    assert seen == 4 * len(NAMES)


def test_named_targets_pass_their_own_checks():
    for tag in ("R", "C", "H", "O"):
        assert _named_target(tag, False) is named_algebra(tag).algebra
    for tag in NAMES:
        assert _named_target(tag, True) is named_algebra(tag).algebra
    with pytest.raises(AssertionError):
        _named_target.__wrapped__("TS", False)  # TS is not alternative


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []
    original = analysis.verify_iso

    def spy(iso, source, target):
        calls.append(target)
        return original(iso, source, target)

    monkeypatch.setattr(analysis, "verify_iso", spy)
    return calls


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("grading", ["natural", "trivial"])
def test_one_verify_iso_per_classification(verify_calls, name, grading):
    bundle = named_algebra(name)
    graded = bundle.grading if grading == "natural" else None
    algebra, moved, _ = rotated_copy(bundle.algebra, random.Random(f"cert:v:{name}"), graded)
    outcome(classify_super_alternative, algebra, moved or Grading.trivial(algebra.dim))
    alternative = grading == "natural" or name in ("C", "H", "O")
    assert len(verify_calls) == (1 if alternative else 0)


@pytest.mark.parametrize("name", ["S", "TS"])
def test_rotated_sedenions_pass_the_screen_with_one_prime(monkeypatch, name):
    bundle = named_algebra(name)
    algebra, grading, _ = rotated_copy(bundle.algebra, random.Random(f"cert:p:{name}"),
                                       bundle.grading)
    _named_target(name, True)  # checked before the spy, on its exact path
    primes = []
    original = AlternativitySweep.defects

    def spy(self, primes_arg=None, laws=("left", "right")):
        primes.append(None if primes_arg is None else len(primes_arg))
        return original(self, primes_arg, laws)

    monkeypatch.setattr(AlternativitySweep, "defects", spy)
    assert classify_super_alternative(algebra, grading).tag == name
    assert primes == [1, 1]
