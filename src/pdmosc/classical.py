"""Classical dynamics of the singular-mass oscillator.

The model is H = x^4 p^2 / 4 + lam * x^2, i.e. a position-dependent mass
m(x) = 2 / x^4 (singular at the origin) in the potential V(x) = lam * x^2.
Its equation of motion  xdd - (2/x) xd^2 + lam x^5 = 0  integrates in closed
form to

    x(t) = 1 / sqrt(lam/c1 + (c2 + sqrt(c1) t)^2),

with first integral H = c1.  For lam > 0 the trajectory is temporally
localized (x -> 0 as t -> +-inf); for lam < 0 the radicand has real roots
and x blows up in finite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bessel import _as_result, _check_positive_finite

#: closed-form trajectories are only evaluated where the radicand exceeds
#: this floor, to avoid catastrophic cancellation next to a singular time
RADICAND_FLOOR = 1e-15

#: |x| beyond this declares a finite-time singularity during integration
BLOWUP_BOUND = 1e6

#: uniform output samples of :func:`integrate_eom` over [0, t_end]
EOM_SAMPLES = 1001


class SingularTrajectoryError(ArithmeticError, ValueError):
    """The trajectory radicand vanished inside the requested time range."""


@dataclass(frozen=True)
class ModelParams:
    """Coupling lam and the two integration constants of the classical model.

    c1 is the first integral (total energy) and must be positive; c2 fixes
    the time of closest approach to the origin of the radicand.  lam may be
    an array: the closed forms then evaluate elementwise over it.  No classical
    quantity depends on hbar; the functions that do take it as an argument.
    """

    lam: float | np.ndarray
    c1: float = 1.0
    c2: float = 0.0

    def __post_init__(self):
        for name in ("lam", "c1", "c2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        _check_positive_finite("c1", self.c1)


class ClassicalState(NamedTuple):
    t: float
    x: float
    p: float


@dataclass(frozen=True)
class Trajectory:
    """Immutable integration result; iterates over its states."""

    states: tuple[ClassicalState, ...]
    blew_up: bool = False
    singular_time: float | None = None

    def __iter__(self):
        return iter(self.states)


def radicand(t, params: ModelParams):
    """lam/c1 + (c2 + sqrt(c1) t)^2, the quantity under the trajectory root."""
    # +inf, or NaN for -inf + inf, unwarned: each caller refuses or classifies it
    with np.errstate(over="ignore", invalid="ignore"):
        w = params.c2 + math.sqrt(params.c1) * np.asarray(t, dtype=float)
        out = params.lam / params.c1 + w * w
    return _as_result(out)


def radicand_roots(params: ModelParams) -> tuple[float, float] | None:
    """Both real roots (t_minus, t_plus) of the radicand, or None if lam > 0.

    For lam = 0 the double root is returned twice.
    """
    if params.lam > 0.0:
        return None
    rc1 = math.sqrt(params.c1)
    half = math.sqrt(-params.lam / params.c1)
    return ((-half - params.c2) / rc1, (half - params.c2) / rc1)


def _regular_radicand(t, params: ModelParams):
    """radicand(t), refusing any t where it is <= RADICAND_FLOOR or not finite."""
    q = radicand(t, params)
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("radicand overflows the double range at a requested t")
    if np.any(np.asarray(q) <= RADICAND_FLOOR):
        raise SingularTrajectoryError(
            f"radicand <= {RADICAND_FLOOR:g} in the requested range "
            f"(singular roots at {radicand_roots(params)})"
        )
    return q


def exact_solution(t, params: ModelParams):
    """Closed-form x(t); strictly positive wherever it is defined."""
    q = _regular_radicand(t, params)
    return _as_result(1.0 / np.sqrt(q))


def exact_momentum(t, params: ModelParams):
    """Canonical momentum p(t) = 2 xd / x^4 along the closed-form trajectory."""
    q = _regular_radicand(t, params)
    rc1 = math.sqrt(params.c1)
    w = params.c2 + rc1 * np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # +-inf, unwarned like radicand: each caller refuses it
        return _as_result(-2.0 * rc1 * w * np.sqrt(q))


def hamiltonian(x, p, lam: float):
    """H(x, p) = x^4 p^2 / 4 + lam x^2.  The model excludes x = 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa == 0.0):
        raise ValueError("x = 0 is outside the model domain (mass 2/x^4 is singular)")
    pa = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN: each caller refuses it
        out = xa**4 * pa**2 / 4.0 + lam * xa**2
        bad = ~np.isfinite(out)
        if np.any(bad):  # x^4 p^2 overflowed: (x^2 p)^2 may not; finite entries keep their bits
            out = np.where(bad, (xa * xa * pa) ** 2 / 4.0 + lam * xa**2, out)
    return _as_result(out)


def singularity_time(params: ModelParams) -> float | None:
    """Finite blow-up time (sqrt(|lam|/c1) - c2)/sqrt(c1) for lam < 0.

    Returns None for lam >= 0 (temporally localized trajectory); an array
    lam gives an object array holding None there.  The radicand actually
    vanishes at two times; this closed form selects the later root t_plus,
    the conventional choice when c1, c2 > 0.  Use :func:`radicand_roots`
    when both are needed.
    """
    lam = np.asarray(params.lam, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # -lam/c1 may overflow; lam >= 0 is masked
        t_plus = (np.sqrt(-lam / params.c1) - params.c2) / math.sqrt(params.c1)
    return _as_result(np.where(lam < 0.0, t_plus, None))


def classify_lambda(params: ModelParams, t_window: tuple[float, float]) -> str:
    """Classify a parameter set as "bounded" or "singular" on a time window.

    "singular" means the radicand vanishes or goes negative somewhere inside
    the window, i.e. the window meets the interval between the two radicand
    roots.  Since the radicand is an upward parabola in t its minimum on the
    window is attained at the vertex -c2/sqrt(c1) when that lies inside, at
    an endpoint otherwise; this reproduces a brute-force sign scan exactly.
    An array lam gives an array of the two strings.
    """
    t0, t1 = sorted(map(float, t_window))
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_window must be finite")
    vertex = -params.c2 / math.sqrt(params.c1)
    candidates = [t0, t1, vertex] if t0 <= vertex <= t1 else [t0, t1]
    singular = np.any([radicand(t, params) <= 0.0 for t in candidates], axis=0)  # +inf is "bounded"
    return _as_result(np.where(singular, "singular", "bounded"))


def phase_curve(E: float, lam: float, x_grid) -> np.ndarray:
    """Momentum branches p = +-sqrt(4E/x^4 - 4 lam/x^2) on a grid.

    Returns an (N, 3) array of rows (x, p_plus, p_minus).  Every grid point
    must satisfy 0 < |x| <= A with A = sqrt(E/lam); p vanishes exactly at
    the turning points +-A.
    """
    if not (0.0 < E < math.inf and 0.0 < lam < math.inf):
        raise ValueError("phase_curve requires E > 0 and lam > 0")
    xs = np.asarray(x_grid, dtype=float)
    amp = math.sqrt(E / lam)
    if np.any(xs == 0.0):
        raise ValueError("x = 0 is outside the model domain")
    if np.any(np.abs(xs) > amp * (1.0 + 1e-12)):
        bad = xs[np.abs(xs) > amp * (1.0 + 1e-12)]
        raise ValueError(f"grid points outside the turning points +-{amp:g}: {bad[:3]}")
    # 4E and xs**4 may overflow (inf/inf is NaN), xs**4 underflow to 0; the caller refuses NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rad = 4.0 * E / xs**4 - 4.0 * lam / xs**2
    p = np.sqrt(np.maximum(rad, 0.0))  # clamp roundoff at |x| = A
    return np.column_stack([xs, p, -p])


class _Run(NamedTuple):
    """One :func:`solve_ivp` run: its (t, x, xdot) samples with the blow-up state last, the
    time the run ended early (None when it reached t_end) and scipy's count of rhs calls."""

    samples: list
    end: float | None
    nfev: int


def solve_ivp(rhs, t_end: float, y0: tuple, tol: float) -> _Run:
    """Steps scipy's DOP853 from t = 0 to t_end at rtol = atol = tol, sampling EOM_SAMPLES
    uniform times in the order the solver steps, until |y[0]| crosses BLOWUP_BOUND or the run
    stops early, a blow-up at the last sample (t = 0 before any): a step fails, or rhs raises
    OverflowError (x**5 left the double range) while the solver is built or while it steps.

    This is :func:`scipy.integrate.solve_ivp`'s loop cut down to one terminal event and one
    t_eval: the same steps, event root and samples to the bit, without solve_ivp's per-step
    event arrays and bookkeeping.  It keeps solve_ivp's name as the module attribute that a
    tracer may replace, reading ``nfev`` from what it returns (0 when building the solver
    overflows).  scipy is imported on first use, so the closed forms load no integrator.
    """
    from scipy.integrate import DOP853
    from scipy.optimize import brentq

    t_eval = np.linspace(0.0, t_end, EOM_SAMPLES)
    i = EOM_SAMPLES if t_end == 0.0 else 0  # as in solve_ivp, a run to t_end = 0 samples nothing
    samples, end, solver = [], None, None
    # a failing step meets inf and NaN inside scipy; the run reports it as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            solver = DOP853(rhs, 0.0, y0, float(t_end), rtol=tol, atol=tol)
            ahead = solver.direction * t_eval  # ascends as the solver steps
            g = abs(y0[0]) - BLOWUP_BOUND
            while solver.status == "running" and end is None:
                if solver.step():  # scipy's failure message: the step size collapsed
                    raise OverflowError  # stop as an overflow in rhs does
                t, sol, g_old = solver.t, None, g
                g = abs(solver.y[0].item()) - BLOWUP_BOUND
                if (g_old <= 0 and g >= 0) or (g_old >= 0 and g <= 0):
                    sol = solver.dense_output()
                    t = end = brentq(lambda s: abs(sol(s)[0]) - BLOWUP_BOUND, solver.t_old, t,
                                     xtol=4 * np.finfo(float).eps, rtol=4 * np.finfo(float).eps)
                j = np.searchsorted(ahead, solver.direction * t, side="right")
                if j > i:
                    sol = solver.dense_output() if sol is None else sol
                    samples += zip(t_eval[i:j].tolist(), *sol(t_eval[i:j]).tolist())
                    i = j
                if end is not None:  # the blow-up state follows the samples
                    samples.append((end, *sol(end).tolist()))
        except OverflowError:  # the one early stop: a blow-up at the last sample
            end = samples[-1][0] if samples else 0.0
    return _Run(samples, end, solver.nfev if solver else 0)


def integrate_eom(x0: float, xdot0: float, lam: float, t_end: float, tol: float) -> Trajectory:
    """Adaptive Runge-Kutta integration of the equation of motion.

    Integrates from t = 0 to t_end (negative t_end integrates backward)
    with local error tolerance tol, sampling EOM_SAMPLES = 1001 points
    uniformly.  The run terminates early, with ``blew_up`` set and the
    reached time in ``singular_time``, when |x| crosses BLOWUP_BOUND = 1e6,
    the step collapses or x**5 overflows; this is the expected outcome for
    lam < 0 trajectories heading into the finite-time singularity.
    """
    for name, value in (("x0", x0), ("xdot0", xdot0), ("lam", lam), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if x0 == 0.0:
        raise ValueError("x0 = 0 is outside the model domain")
    _check_positive_finite("tol", tol)

    def rhs(t, y):  # Python floats: numpy's bits, cheaper; x**5 may raise OverflowError
        x, v = y.tolist()
        return (v, 2.0 * v * v / x - lam * x**5)

    run = solve_ivp(rhs, t_end, (x0, xdot0), tol)
    states = tuple(ClassicalState(t, x, 2.0 * v / x**4) for t, x, v in run.samples)
    return Trajectory(states=states, blew_up=run.end is not None, singular_time=run.end)
