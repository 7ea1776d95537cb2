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

import functools
import math
from bisect import bisect_right
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


#: ClassicalState from one (t, x, p) tuple in C: namedtuple's own __new__ is a Python frame
_new_state = functools.partial(tuple.__new__, ClassicalState)


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


def radicand_roots(params: ModelParams):
    """Both real roots (t_minus, t_plus) of the radicand, elementwise over lam: both
    NaN where lam > 0, which has no real root, and the double root twice where lam = 0."""
    rc1 = math.sqrt(params.c1)
    with np.errstate(over="ignore", invalid="ignore"):  # -lam/c1 may overflow; lam > 0 is NaN
        half = np.sqrt(-np.asarray(params.lam, dtype=float) / params.c1)
        # + 0.0 turns the -0.0 of sqrt(-0.0) at lam = c2 = 0 into 0.0 and keeps every other bit
        return (_as_result((-half - params.c2) / rc1 + 0.0),
                _as_result((half - params.c2) / rc1 + 0.0))


def _regular_radicand(t, params: ModelParams):
    """radicand(t), refusing any t where it is <= RADICAND_FLOOR or not finite."""
    q = radicand(t, params)
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("radicand overflows the double range at a requested t")
    if np.any(np.asarray(q) <= RADICAND_FLOOR):
        t_min = 0.0 - params.c2 / math.sqrt(params.c1)  # 0.0 - keeps c2 = 0 from printing -0
        where = (f"singular roots at {radicand_roots(params)}" if params.lam <= 0.0 else
                 f"no real root; minimum lam/c1 = {params.lam / params.c1:g} at t = {t_min:g}")
        raise SingularTrajectoryError(
            f"radicand <= {RADICAND_FLOOR:g} in the requested range ({where})")
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
    """Finite blow-up time for lam <= 0: the later root t_plus of :func:`radicand_roots`,
    the conventional choice of the two when c1, c2 > 0, and at lam = 0 the double root
    -c2/sqrt(c1), where the radicand touches zero.

    Returns None for lam > 0 (temporally localized trajectory); an array
    lam gives an object array holding None there.
    """
    lam = np.asarray(params.lam, dtype=float)
    return _as_result(np.where(lam <= 0.0, radicand_roots(params)[1], None))


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


def phase_curve(E: float, lam: float, points: int, x_floor_frac: float) -> np.ndarray:
    """Rows (x, p_plus, p_minus) of the momentum branches p = +-sqrt(4E/x^4 - 4 lam/x^2).

    On each side of the origin |x| runs evenly from x_floor_frac * A to the turning point
    A = sqrt(E/lam), where p vanishes up to the rounding of A; an odd points gives the positive
    side the extra row.  Fewer than 4 points cannot give each side both ends (points = 2 gives
    only x = +-x_floor_frac * A, points = 3 gives -A, x_floor_frac * A and A), so the CLI asks
    for at least 4.
    """
    if not (0.0 < x_floor_frac < 1.0):
        raise ValueError(f"x_floor_frac must be in (0, 1), got {x_floor_frac}")
    if not (0.0 < E < math.inf and 0.0 < lam < math.inf):
        raise ValueError(f"phase_curve requires E > 0 and lam > 0, got E={E}, lam={lam}")
    amp = math.sqrt(E / lam)
    if not math.isfinite(amp):
        raise OverflowError(f"turning point sqrt(E/lam) overflows for E={E!r}, lam={lam!r}")
    half = np.linspace(x_floor_frac * amp, amp, points - points // 2)
    xs = np.concatenate([-half[::-1][: points // 2], half])
    if np.any(xs == 0.0):  # A underflows to 0 when E/lam does
        raise ValueError("x = 0 is outside the model domain")
    # 4E and xs**4 may overflow (inf/inf is NaN), xs**4 underflow to 0; the caller refuses NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rad = 4.0 * E / xs**4 - 4.0 * lam / xs**2
    p = np.sqrt(np.maximum(rad, 0.0))  # clamp roundoff at |x| = A
    return np.column_stack([xs, p, -p])


class _Run(NamedTuple):
    """One :func:`solve_ivp` run: its sample columns t, x and xdot with the blow-up state last,
    the time the run ended early (None when it reached t_end) and scipy's count of rhs calls."""

    t: list
    x: list
    xdot: list
    end: float | None
    nfev: int


def _dop853_interpolate(t, t_old, h, y_old, F) -> np.ndarray:
    """DOP853's continuous extension at the times t, each on its own step's table: per row the
    step's start t_old, length h and start state y_old, and its 7 x 2 table F (Hairer, Norsett
    and Wanner, *Solving ODEs I*, II.6).  The Horner pass runs
    ``Dop853DenseOutput._call_impl``'s elementwise operations on all rows at once, so each row
    has the bits of its own call."""
    u = ((t - t_old) / h)[:, None]
    y = np.zeros(y_old.shape)
    for k in range(F.shape[1]):  # F[-1] first, as reversed(F)
        y += F[:, -1 - k]
        y *= 1 - u if k % 2 else u
    y += y_old
    return y


def solve_ivp(rhs, t_end: float, y0: tuple, tol: float) -> _Run:
    """Steps DOP853 from t = 0 to t_end at rtol = atol = tol, sampling EOM_SAMPLES uniform
    times in the order it steps, until |y[0]| crosses BLOWUP_BOUND or the run stops early, a
    blow-up at the last sample (t = 0 before any): a step fails, or rhs(x, v) -> (xdot, vdot)
    raises OverflowError (x**5 left the double range).

    This is :func:`scipy.integrate.solve_ivp`'s loop cut down to one terminal event and one
    t_eval: the same steps, event root, samples and rhs count to the bit.  scipy's DOP853
    object only works out f0, the first step, the tolerances and the tableau; the loop runs
    ``RungeKutta._step_impl`` on local Python floats, which round as numpy's float64 does, and
    keeps each sampled step's table for one :func:`_dop853_interpolate` pass at the end.  Only
    scipy's reductions stay numpy calls, through the bound ``ndarray.dot`` (no ``np.dot``
    dispatcher) into one 2-array ``buf``: the same gemv call, so the same bits.  No float
    operation raises where numpy gave inf or NaN: * and / overflow to inf, and
    ``math.sqrt(DBL_MAX) ** 2`` is finite.  It keeps solve_ivp's name as the module attribute
    a tracer may replace, reading ``nfev`` from what it returns (0 when building the solver
    overflows); scipy is imported on first use.
    """
    from scipy.integrate import DOP853
    from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
    from scipy.optimize import brentq

    def arrays(tables, at):
        """The tables' (t_old, h, y_old, F) as arrays, row k from tables[at[k]]."""
        t_old, h, y_old, head, tail = (np.array(column)[at] for column in zip(*tables))
        return t_old, h, y_old, np.concatenate((head.reshape(-1, 3, 2), tail), 1)

    t_eval = np.linspace(0.0, t_end, EOM_SAMPLES)
    start = i = EOM_SAMPLES if t_end == 0.0 else 0  # as in solve_ivp, t_end = 0 samples nothing
    tables, counts, end, crossed, nfev = [], [], None, False, 0
    # a failing step meets inf and NaN; the run reports it as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            solver = DOP853(lambda t, y: rhs(*y.tolist()), 0.0, y0, float(t_end),
                            rtol=tol, atol=tol)
            t, t_bound, direction = solver.t, solver.t_bound, float(solver.direction)
            atol, rtol, exponent = float(solver.atol), solver.rtol, solver.error_exponent
            (x, v), f, h_abs = solver.y.tolist(), solver.f.tolist(), float(solver.h_abs)
            nfev, g = solver.nfev, abs(x) - BLOWUP_BOUND
            if t == t_bound:  # t_end = 0: scipy takes no step, yet checks the event at y0
                return _Run([t], [x], [v], t, nfev) if g == 0 else _Run([], [], [], None, nfev)
            K_ext, K, E5, E3 = solver.K_extended, solver.K, solver.E5, solver.E3
            flat, KT_dot, D_dot = K_ext.reshape(-1), K.T.dot, solver.D.dot
            buf, scale = np.empty(2), np.empty(2)  # this run's dot outputs and error scale
            # (bound dot of the stage's K rows, its weights, flat index of the stage's row)
            stages = [(K[:s].T.dot, solver.A[s, :s], 2 * s) for s in range(1, solver.n_stages)]
            stages.append((K[:-1].T.dot, solver.B, 2 * solver.n_stages))
            extra = [(K_ext[:s].T.dot, a[:s], 2 * s)
                     for s, a in enumerate(solver.A_EXTRA, start=solver.n_stages + 1)]
            ahead = (direction * t_eval).tolist()  # ascends as the run steps
            while direction * (t - t_bound) < 0 and not crossed:
                flat[0], flat[1] = f  # the first stage is the last step's f_new
                min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
                h_abs = min_step if h_abs < min_step else h_abs
                rejected = False
                while True:  # one accepted step, as RungeKutta._step_impl and rk_step take it
                    if h_abs < min_step:  # scipy's failure: the step size collapsed
                        raise OverflowError  # stop as an overflow in rhs does
                    t_new = t + h_abs * direction
                    if direction * (t_new - t_bound) > 0:
                        t_new = t_bound
                    h = t_new - t  # a float, so each stage input is one, whose x**5 may raise
                    h_abs = abs(h)
                    try:  # the last stage's input is y_new, its rhs f_new
                        for dot, a, at in stages:
                            dx, dv = dot(a, buf).tolist()
                            xs, vs = x + dx * h, v + dv * h
                            flat[at], flat[at + 1] = f_new = rhs(xs, vs)
                    finally:  # scipy counts a call that raises; stage s fills flat[2 * s:2 * s + 2]
                        nfev += at // 2
                    # np.maximum(|y|, |y_new|): NaN on either side is the result
                    ax, av, bx, bv = abs(x), abs(v), abs(xs), abs(vs)
                    scale[0] = atol + (ax if ax >= bx or ax != ax else bx) * rtol
                    scale[1] = atol + (av if av >= bv or av != av else bv) * rtol
                    err5, err3 = KT_dot(E5, buf) / scale, KT_dot(E3, buf) / scale
                    e5, e3 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
                    if e5 == 0 and e3 == 0:
                        error_norm = 0.0
                    else:  # the root is 0 only where e5 = 0: numpy's 0 / 0 is NaN
                        root = math.sqrt((e5 + 0.01 * e3) * 2)  # * len(scale)
                        error_norm = h_abs * e5 / root if root else math.nan
                    if error_norm < 1:
                        factor = MAX_FACTOR if error_norm == 0 else min(
                            MAX_FACTOR, SAFETY * error_norm ** exponent)
                        h_abs *= min(1, factor) if rejected else factor
                        break
                    h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
                    rejected = True
                t_old, x_old, v_old, f_old = t, x, v, f
                t, x, v, f = t_new, xs, vs, f_new
                g_old, g = g, abs(x) - BLOWUP_BOUND
                crossed = (g_old <= 0 and g >= 0) or (g_old >= 0 and g <= 0)
                j = bisect_right(ahead, direction * t)
                if j > i or crossed:  # this step's table, as DOP853._dense_output_impl builds F
                    for dot, a, at in extra:
                        dx, dv = dot(a, buf).tolist()
                        nfev += 1  # before the call: scipy counts a call that raises
                        flat[at], flat[at + 1] = rhs(x_old + dx * h, v_old + dv * h)
                    (fx_old, fv_old), (fx, fv) = f_old, f
                    dx, dv = x - x_old, v - v_old  # delta_y
                    head = (dx, dv, h * fx_old - dx, h * fv_old - dv,
                            2 * dx - h * (fx + fx_old), 2 * dv - h * (fv + fv_old))
                    tables.append((t_old, h, (x_old, v_old), head, h * D_dot(K_ext)))
                    if crossed:  # brentq on this table alone; the blow-up state is one more row
                        row = arrays(tables[-1:], [0])
                        end = brentq(lambda s: abs(_dop853_interpolate(np.array([s]), *row)[0, 0])
                                     - BLOWUP_BOUND, t_old, t,
                                     xtol=4 * np.finfo(float).eps, rtol=4 * np.finfo(float).eps)
                        j = bisect_right(ahead, direction * end)
                    counts.append(j - i + crossed)
                    i = j
        except OverflowError:  # the one early stop: a blow-up at the last sample
            crossed, end = False, t_eval[i - 1].item() if i > start else 0.0
    if not tables:
        return _Run([], [], [], end, nfev)
    ts = np.append(t_eval[start:i], end) if crossed else t_eval[start:i]
    y = _dop853_interpolate(ts, *arrays(tables, np.repeat(np.arange(len(tables)), counts)))
    return _Run(ts.tolist(), *y.T.tolist(), end, nfev)


def integrate_eom(x0: float, xdot0: float, lam: float, t_end: float, tol: float) -> Trajectory:
    """Adaptive Runge-Kutta integration of the equation of motion.

    Integrates from t = 0 to t_end (negative t_end integrates backward)
    with local error tolerance tol (at least 100 eps), sampling
    EOM_SAMPLES = 1001 points uniformly.  The run terminates early, with ``blew_up`` set and the
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
    floor = 100 * np.finfo(float).eps  # DOP853 raises a smaller rtol to this, but not atol
    if tol < floor:
        raise ValueError(f"tol = {tol} is below DOP853's floor 100 eps = {floor}")

    def rhs(x, v):  # Python floats: numpy's bits, cheaper; x**5 may raise OverflowError
        return (v, 2.0 * v * v / x - lam * x**5)

    run = solve_ivp(rhs, t_end, (x0, xdot0), tol)
    ps = [2.0 * v / x**4 for x, v in zip(run.x, run.xdot)]
    states = tuple(map(_new_state, zip(run.t, run.x, ps)))
    return Trajectory(states=states, blew_up=run.end is not None, singular_time=run.end)
