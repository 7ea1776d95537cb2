"""Semiclassical quantization via a Hadamard finite-part action integral.

Between the turning points +-A = +-sqrt(E/lam) the reduced action integrand
sqrt(A^2 - x^2)/x^2 has a non-integrable 1/x^2 singularity at the origin, so
the quantization condition

    2 sqrt(lam) * Integral_{-A}^{A} sqrt(A^2 - x^2)/x^2 dx = (n + 1/2) hbar pi

only makes sense through its finite part: the cutoff integral over
eps <= |x| <= A diverges as 2A/eps, and subtracting that divergence and
letting eps -> 0 leaves the A-independent value  I = -pi.  This module
computes that limit numerically (cutoff quadrature, explicit subtraction,
Richardson extrapolation in eps) instead of trusting the closed form, which
is what makes the pipeline an independent confirmation.  Combining |I| = pi
with the condition above quantizes the coupling:

    lam_n = (n + 1/2)^2 hbar^2 / 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .reporting import VerificationReport, residual_report

#: eps sequence for the finite-part limit: geometric, four points
EPS_START_FRACTION = 1e-2
EPS_RATIO = 10.0
EPS_COUNT = 4

#: required agreement between successive Richardson extrapolants
EXTRAPOLATION_TOL = 1e-6

QUAD_ABS_TOL = 1e-9


class QuadratureError(ArithmeticError, RuntimeError):
    """Adaptive quadrature failed to reach the requested absolute accuracy."""


class ExtrapolationError(ArithmeticError, RuntimeError):
    """Successive finite-part extrapolants disagree beyond tolerance."""


@dataclass(frozen=True)
class ActionResult:
    """Bookkeeping of the finite-part computation.

    raw_value_at_eps and divergent_part refer to the smallest cutoff in
    eps_sequence; finite_part is the eps -> 0 extrapolant of
    raw_value_at_eps - divergent_part and equals -pi for this model.
    """

    raw_value_at_eps: float
    divergent_part: float
    finite_part: float
    eps_sequence: tuple[float, ...]
    error_estimate: float


def _check_hbar(hbar: float) -> None:
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")


def turning_point(E: float, lam: float) -> float:
    """Classical turning point A = sqrt(E/lam) where the momentum vanishes."""
    if E <= 0.0 or lam <= 0.0:
        raise ValueError(f"turning_point requires E > 0 and lam > 0, got E={E}, lam={lam}")
    A = math.sqrt(E / lam)
    if not math.isfinite(A):
        raise OverflowError(f"turning point sqrt(E/lam) overflows for E={E!r}, lam={lam!r}")
    return A


def divergent_part(A: float, eps: float) -> float:
    """The 2 sqrt(A^2 - eps^2)/eps term subtracted at each cutoff."""
    return 2.0 * math.sqrt(A * A - eps * eps) / eps


def quad(*args, **kwargs):
    """:func:`scipy.integrate.quad`, imported on first use; the one wrapper
    this module and :mod:`pdmosc.quantum` call, each through its own module
    attribute, which a test or tracer may replace."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def action_integral_regularized(A: float, eps: float) -> float:
    """Cutoff integral of sqrt(A^2 - x^2)/x^2 over eps <= |x| <= A.

    Adaptive quadrature, absolute error below 1e-9 (checked via the
    integrator's own error estimate).  The integrand is even, so the
    two-sided value is twice the [eps, A] piece.
    """
    if not (0.0 < eps < A):
        raise ValueError(f"need 0 < eps < A, got eps={eps}, A={A}")

    def integrand(x: float) -> float:
        return math.sqrt(max(A * A - x * x, 0.0)) / (x * x)

    value, err, info = quad(
        integrand, eps, A, epsabs=1e-12, epsrel=1e-13, limit=500, full_output=True
    )[:3]
    # For tiny eps the integral is ~2A/eps, so an absolute 1e-9 certificate is
    # below the double-precision floor; allow a machine-relative allowance
    # there.  The antiderivative cross-checks pin the actual error ~1e-11.
    if err > max(QUAD_ABS_TOL, 1e-13 * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {err:.2e} exceeds {QUAD_ABS_TOL:g} "
            f"after {info['last']} subdivisions (A={A}, eps={eps})"
        )
    return 2.0 * value


@functools.lru_cache(maxsize=32, typed=True)
def finite_part_action(A: float) -> ActionResult:
    """Hadamard finite part of the two-sided action integral; equals -pi.

    Evaluates the cutoff integral on the geometric eps sequence
    (1e-2 .. 1e-5) * A, subtracts the explicit divergence at each cutoff,
    and Richardson-extrapolates the remainder to eps -> 0 (two levels,
    killing the eps and eps^2 terms of the remainder).  The result is
    independent of A.

    Memoized on A: the result is a pure function of A, so repeat calls
    (every wkb_condition_check at the same A) return the same frozen
    ActionResult instead of redoing the four quadratures.
    """
    if A <= 0.0:
        raise ValueError(f"A must be positive, got {A}")
    eps_seq = tuple(A * EPS_START_FRACTION / EPS_RATIO**i for i in range(EPS_COUNT))
    raw = [action_integral_regularized(A, e) for e in eps_seq]
    div = [divergent_part(A, e) for e in eps_seq]
    subtracted = [r - d for r, d in zip(raw, div)]

    r = EPS_RATIO
    level1 = [(r * subtracted[i + 1] - subtracted[i]) / (r - 1.0) for i in range(EPS_COUNT - 1)]
    level2 = [(r * r * level1[i + 1] - level1[i]) / (r * r - 1.0) for i in range(len(level1) - 1)]
    finite = level2[-1]
    err_est = abs(level2[-1] - level2[-2])  # EPS_COUNT = 4 gives two level-2 extrapolants
    if err_est > EXTRAPOLATION_TOL:
        raise ExtrapolationError(
            f"successive finite-part extrapolants differ by {err_est:.2e} "
            f"(> {EXTRAPOLATION_TOL:g}) at A={A}"
        )
    return ActionResult(
        raw_value_at_eps=raw[-1],
        divergent_part=div[-1],
        finite_part=finite,
        eps_sequence=eps_seq,
        error_estimate=err_est,
    )


def wkb_lambda(n: int, hbar: float) -> float:
    """Quantized coupling lam_n = (n + 1/2)^2 hbar^2 / 4, n = 0, 1, 2, ..."""
    if int(n) != n or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    _check_hbar(hbar)
    return (n + 0.5) ** 2 * hbar**2 / 4.0


def wkb_condition_check(n: int, hbar: float, A: float = 1.0) -> VerificationReport:
    """Verify 2 sqrt(lam_n) |I| = (n + 1/2) hbar pi with I computed numerically.

    The finite part itself is negative (-pi); the quantization condition
    equates a positive left-hand side, so its magnitude is used.  That sign
    convention is recorded in the report notes.
    """
    lam = wkb_lambda(n, hbar)
    action = finite_part_action(A)
    lhs = 2.0 * math.sqrt(lam) * abs(action.finite_part)
    rhs = (n + 0.5) * hbar * math.pi
    return residual_report(
        check_id=f"wkb_condition_n{n}_hbar{hbar:g}",
        measured=lhs - rhs,
        tolerance=1e-6,
        provenance="PAPER",
        notes=(
            f"lam_n={lam:.12g}; |finite part| used (raw finite part "
            f"{action.finite_part:.9f}); A={A:g} (result is A-independent)"
        ),
    )


def contour_action(E: float, lam: float) -> float:
    """Loop action around the two-branch phase curve, finite-part reading.

    The closed contour traverses both momentum branches, giving twice the
    one-pass action, i.e. 2 * 2 sqrt(lam) |I| = 4 pi sqrt(lam).  Evaluating
    the loop through the finite part is an interpretation: the divergent
    passes through x = 0 are regularized exactly as in
    :func:`finite_part_action`, which is flagged here rather than hidden.
    E fixes the turning point but drops out of the result.
    """
    A = turning_point(E, lam)
    action = finite_part_action(A)
    return 4.0 * math.sqrt(lam) * abs(action.finite_part)
