"""Shared verification-report record."""

from __future__ import annotations

from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    status: str  # pass | fail | skipped
    measured: float
    tolerance: float
    provenance: str  # PAPER | TRIVIAL | DERIVED
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


def residual_report(
    check_id: str,
    measured: float,
    tolerance: float,
    provenance: str,
    notes: str = "",
) -> VerificationReport:
    """Report that passes iff |measured| <= tolerance."""
    status = PASS if abs(measured) <= tolerance else FAIL
    return VerificationReport(check_id, status, float(measured), float(tolerance), provenance, notes)


def predicate_report(
    check_id: str,
    ok: bool,
    measured: float,
    tolerance: float,
    provenance: str,
    notes: str = "",
) -> VerificationReport:
    """Report whose pass/fail is decided by an explicit predicate."""
    return VerificationReport(
        check_id, PASS if ok else FAIL, float(measured), float(tolerance), provenance, notes
    )
