"""The verification harness itself: registry shape, outcome ordering, and a
mutation test showing the checks have teeth."""

import pytest

from cdalg import (
    Grading,
    annihilator,
    is_locally_complex,
    is_quadratic,
    is_super_alternative,
    named_algebra,
)
from cdalg import tables
from cdalg.tables import TWISTED_OCTONION_TABLE, algebra_from_signed_table
from cdalg.verify import CLAIMS, ClaimOutcome, VerificationReport, run_claim


def test_claim_registry_shape():
    ids = [cid for cid, _, _ in CLAIMS]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_unknown_claim_rejected():
    with pytest.raises(KeyError):
        run_claim("AC99")


def test_report_all_passed_logic():
    good = ClaimOutcome("AC01", "x", True, 1.0, "ok")
    bad = ClaimOutcome("AC02", "y", False, 1.0, "boom")
    assert VerificationReport((good,)).all_passed
    assert not VerificationReport((good, bad)).all_passed


def corrupt_twisted_octonion_table():
    rows = [list(row) for row in TWISTED_OCTONION_TABLE]
    rows[0][5] = -rows[0][5]  # flip one sign: f1 f6 becomes -f7
    return algebra_from_signed_table(tuple(tuple(r) for r in rows))


def test_single_sign_flip_is_detected():
    corrupted = corrupt_twisted_octonion_table()
    grading = Grading.from_indices(8, [0, 1, 2, 3], [4, 5, 6, 7])
    res = is_super_alternative(corrupted, grading)
    assert not res.holds and res.witness is not None
    # The flip also breaks anticommutativity, so quadraticity fails too.
    q = is_quadratic(corrupted)
    assert not q.holds and q.witness is not None
    assert not is_locally_complex(corrupted).holds


@pytest.mark.parametrize("name, dim", [("OCTONION_TABLE", 8), ("SEDENION_TABLE", 16)])
@pytest.mark.parametrize("i, j", [(0, 1), (2, 6), (6, 3)])
def test_doubling_claim_fails_on_one_flipped_sign(monkeypatch, name, dim, i, j):
    rows = [list(row) for row in getattr(tables, name)]
    rows[i][j] = -rows[i][j]
    monkeypatch.setattr(tables, name, tuple(map(tuple, rows)))
    outcome = run_claim("AC01")
    assert not outcome.passed
    assert outcome.detail == f"doubled dim-{dim} table differs from the reference table"


def test_unexpected_exception_is_recorded_as_failure(monkeypatch):
    from cdalg import verify
    from cdalg.errors import InconsistentInputError

    def broken() -> str:
        raise InconsistentInputError("kernel exploded")

    def fine() -> str:
        return "ok"

    monkeypatch.setattr(
        verify, "CLAIMS", (("AC01", "raises", broken), ("AC02", "passes", fine))
    )
    report = verify.run_verification()
    first, second = report.outcomes
    assert not first.passed
    assert first.detail == "InconsistentInputError: kernel exploded"
    assert second.passed and second.detail == "ok"
    assert not report.all_passed


def test_interrupt_still_propagates(monkeypatch):
    from cdalg import verify

    def interrupted() -> str:
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "CLAIMS", (("AC01", "interrupted", interrupted),))
    with pytest.raises(KeyboardInterrupt):
        verify.run_claim("AC01")


def test_paired_basis_zero_divisors_of_the_sedenions_are_the_42_assessors():
    """de Marrais, "The 42 Assessors and the Box-Kites They Fly" (2000): the
    zero divisors e_i +- e_j among pairs of basis vectors of the sedenions
    are the pairs 1 <= i <= 7, 9 <= j <= 15 with j != i + 8, each with both
    signs -- the 84 that AC05 counts, every one with a 4-dimensional
    annihilator."""
    sedenions = named_algebra("S").algebra
    e = sedenions.basis_element
    found = {}
    for i in range(1, 16):
        for j in range(i + 1, 16):
            for sign in (1, -1):
                dim = annihilator(sedenions, e(i) + e(j).scale(sign)).dim
                if dim:
                    found[i, j, sign] = dim
    assessors = {(i, j) for i in range(1, 8) for j in range(9, 16) if j != i + 8}
    assert len(assessors) == 42
    assert set(found) == {(i, j, sign) for i, j in assessors for sign in (1, -1)}
    assert set(found.values()) == {4}
    outcome = run_claim("AC05")
    assert outcome.passed
    assert "84 paired-basis zero divisors" in outcome.detail
