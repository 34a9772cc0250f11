"""The verification harness itself: registry shape, outcome ordering, and a
mutation test showing the checks have teeth."""

import pytest

from cdalg import Grading, is_locally_complex, is_quadratic, is_super_alternative
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
