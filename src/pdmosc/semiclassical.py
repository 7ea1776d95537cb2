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

:func:`wkb_condition_check` returns lam_n, both sides and their difference
as plain numbers, which `pdmosc wkb` prints and :mod:`pdmosc.verification`
judges; its pdmosc imports are ``bessel._as_result``, ``bessel._check_positive_finite``
and ``bessel._square``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bessel import _as_result, _check_positive_finite, _square

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
    """The finite part, the eps -> 0 extrapolant of the cutoff integral minus
    its divergent part, which equals -pi for this model, and its error
    estimate, the difference of the last two extrapolants."""

    finite_part: float
    error_estimate: float


class WkbCondition(NamedTuple):
    """The quantization condition at n: lam_n, both sides and lhs - rhs; floats
    for an integer n, arrays for an integer array n."""

    lam: float
    lhs: float
    rhs: float
    measured: float


def divergent_part(A: float, eps: float) -> float:
    """The 2 sqrt(A^2 - eps^2)/eps term subtracted at each cutoff."""
    return 2.0 * math.sqrt(A * A - eps * eps) / eps


def quad(func, a: float, b: float, *, epsabs: float, epsrel: float, limit: int,
         gate: float, gate_rel: float, label: str) -> float:
    """:func:`scipy.integrate.quad`, imported on first use: the one adaptive quadrature of this
    module and :mod:`pdmosc.quantum`, each calling it through its own module attribute, which a
    test or tracer may replace.  full_output keeps quad's flags from reaching the caller as
    warnings; the value passes only if finite with an error estimate of at most
    max(gate, gate_rel * |value|), else QuadratureError names label and the subdivisions."""
    from scipy.integrate import quad

    value, err, info = quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                            full_output=True)[:3]
    bound = max(gate, gate_rel * abs(value))
    if not (math.isfinite(value) and err <= bound):
        raise QuadratureError(f"{label}: value {value!r} with error estimate {err:.2e} "
                              f"(gate {bound:.2e}) after {info['last']} subdivisions")
    return float(value)


def action_integral_regularized(A: float, eps: float) -> float:
    """Cutoff integral of sqrt(A^2 - x^2)/x^2 over eps <= |x| <= A.

    Adaptive quadrature, absolute error below 1e-9 (checked via the
    integrator's own error estimate).  The integrand is even, so the
    two-sided value is twice the [eps, A] piece.
    """
    if not (0.0 < eps < A):
        raise ValueError(f"need 0 < eps < A, got eps={eps}, A={A}")

    A2 = A * A

    def integrand(x: float) -> float:  # clamps roundoff at x ~ A; NaN and -0.0 pass through
        d = A2 - x * x
        return math.sqrt(0.0 if d < 0.0 else d) / (x * x)

    # For tiny eps the integral is ~2A/eps, so an absolute 1e-9 certificate is
    # below the double-precision floor; allow a machine-relative allowance
    # there.  The antiderivative cross-checks pin the actual error ~1e-11.
    value = quad(integrand, eps, A, epsabs=1e-12, epsrel=1e-13, limit=500, gate=QUAD_ABS_TOL,
                 gate_rel=1e-13, label=f"cutoff integral (A={A}, eps={eps})")
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
    _check_positive_finite("A", A)
    eps_seq = tuple(A * EPS_START_FRACTION / EPS_RATIO**i for i in range(EPS_COUNT))
    subtracted = [action_integral_regularized(A, e) - divergent_part(A, e) for e in eps_seq]

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
    return ActionResult(finite_part=finite, error_estimate=err_est)


def wkb_lambda(n, hbar: float):
    """Quantized coupling lam_n = (n + 1/2)^2 hbar^2 / 4, n = 0, 1, 2, ...,
    elementwise for an integer array n."""
    if not np.all((n % 1 == 0) & (n >= 0)):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    _check_positive_finite("hbar", hbar)
    with np.errstate(over="ignore"):  # an array overflows to inf as a scalar does
        return (n + 0.5) ** 2 * _square(hbar) / 4.0


def wkb_condition_check(n, hbar: float, A: float = 1.0) -> WkbCondition:
    """Both sides of 2 sqrt(lam_n) |I| = (n + 1/2) hbar pi, I computed numerically.

    The finite part itself is negative (-pi); the quantization condition
    equates a positive left-hand side, so its magnitude is used.  I does not
    depend on the turning point A.  measured is lhs - rhs.
    """
    lam = wkb_lambda(n, hbar)
    action = finite_part_action(A)
    lhs = _as_result(2.0 * np.sqrt(lam) * abs(action.finite_part))
    rhs = (n + 0.5) * hbar * math.pi
    return WkbCondition(lam, lhs, rhs, lhs - rhs)
