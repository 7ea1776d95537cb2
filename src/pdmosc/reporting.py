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


def residual_report(
    check_id: str,
    measured: float,
    tolerance: float,
    provenance: str,
    notes: str = "",
) -> VerificationReport:
    """Report that passes iff |measured| <= tolerance."""
    return predicate_report(check_id, abs(measured) <= tolerance, measured, tolerance, provenance, notes)


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
