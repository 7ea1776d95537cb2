import hashlib
import itertools
import math
import pickle
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import classical, verification
from pdmosc.classical import ClassicalState, ModelParams, SingularTrajectoryError
from oracles import trajectory_x, trajectory_xdot, trajectory_xddot

FIG1 = ModelParams(lam=1.0, c1=1.0, c2=-5.0)


def test_params_validation():
    for c1 in (0.0, -0.0, -1.0, -2.0):
        with pytest.raises(ValueError, match=f"^c1 must be positive and finite, got {c1}$"):
            ModelParams(lam=1.0, c1=c1)
    for c1 in (math.nan, math.inf, -math.inf):  # the finiteness check comes first
        with pytest.raises(ValueError, match="^c1 must be finite$"):
            ModelParams(lam=1.0, c1=c1)
    with pytest.raises(ValueError, match="hbar must be positive"):  # hbar lives on the suite
        verification.run_suite(["parity"], verification.SuiteConfig(hbar=0.0))
    with pytest.raises(ValueError):
        ModelParams(lam=math.inf)


def test_exact_solution_examples():
    assert classical.exact_solution(5.0, FIG1) == pytest.approx(1.0, abs=1e-15)
    assert classical.exact_solution(0.0, FIG1) == pytest.approx(1.0 / math.sqrt(26.0), rel=1e-15)
    # temporally localized: decays toward zero for large |t|
    assert classical.exact_solution(1e6, FIG1) < 2e-6
    assert classical.exact_solution(-1e6, FIG1) < 2e-6


def test_exact_momentum_examples():
    assert classical.exact_momentum(5.0, FIG1) == pytest.approx(0.0, abs=1e-15)
    assert classical.exact_momentum(0.0, FIG1) == pytest.approx(10.0 * math.sqrt(26.0), rel=1e-15)


def test_energy_identity_along_closed_form():
    ts = np.linspace(-10.0, 10.0, 2001)
    xs = classical.exact_solution(ts, FIG1)
    ps = classical.exact_momentum(ts, FIG1)
    dev = np.abs(classical.hamiltonian(xs, ps, FIG1.lam) - FIG1.c1)
    assert np.max(dev) < 1e-12


def test_hamiltonian_examples():
    assert classical.hamiltonian(1.0, 0.0, 1.0) == 1.0
    assert classical.hamiltonian(1.0, 2.0, 0.5) == 1.5
    E, lam = 2.0, 0.5
    A = math.sqrt(E / lam)
    assert classical.hamiltonian(A, 0.0, lam) == pytest.approx(E, rel=1e-15)
    with pytest.raises(ValueError):
        classical.hamiltonian(0.0, 1.0, 1.0)


def test_eom_residual_from_analytic_derivatives():
    # xdd - (2/x) xd^2 + lam x^5 vanishes along the closed form
    t, lam = 1.0, 1.0
    x = trajectory_x(t, lam, 1.0, -5.0)
    xd = trajectory_xdot(t, lam, 1.0, -5.0)
    xdd = trajectory_xddot(t, lam, 1.0, -5.0)
    assert abs(xdd - 2.0 * xd**2 / x + lam * x**5) < 1e-10


def test_integrator_matches_closed_form():
    x0 = classical.exact_solution(0.0, FIG1)
    v0 = classical.exact_momentum(0.0, FIG1) * x0**4 / 2.0
    traj = classical.integrate_eom(x0, v0, FIG1.lam, t_end=10.0, tol=1e-12)
    assert not traj.blew_up
    ts = np.array([s.t for s in traj])
    xs = np.array([s.x for s in traj])
    assert np.max(np.abs(xs - classical.exact_solution(ts, FIG1))) < 1e-8
    ps = np.array([s.p for s in traj])
    assert np.max(np.abs(classical.hamiltonian(xs, ps, FIG1.lam) - FIG1.c1)) < 1e-9


def test_integrator_blowup_recovers_singular_time():
    # lam = -1, c1 = 1, c2 = 0 blows up at the closed-form time t* = 1.
    # x(t) exists on |t| > 1 only, so start from the regular point t0 = 3 and
    # integrate backward toward the singularity; the event time is t* - t0.
    params = ModelParams(lam=-1.0, c1=1.0, c2=0.0)
    t_star = classical.singularity_time(params)
    assert t_star == pytest.approx(1.0, abs=1e-15)
    t0 = 3.0
    x0 = classical.exact_solution(t0, params)
    v0 = classical.exact_momentum(t0, params) * x0**4 / 2.0
    traj = classical.integrate_eom(x0, v0, params.lam, t_end=-2.5, tol=1e-10)
    assert traj.blew_up
    assert traj.singular_time is not None
    assert t0 + traj.singular_time == pytest.approx(t_star, abs=1e-6)


def test_trajectory_sequence_protocol():
    traj = classical.integrate_eom(1.0, 0.0, 1.0, t_end=1.0, tol=1e-9)
    assert len(traj.states) == classical.EOM_SAMPLES
    assert traj.states[0].t == 0.0
    assert all(isinstance(s.x, float) for s in traj)


def states_digest(traj) -> str:
    """sha256 of every state's t, x and p as little-endian doubles; each must be a float."""
    fields = [f for state in traj for f in state]
    assert all(type(f) is float for f in fields)
    return hashlib.sha256(struct.pack(f"<{len(fields)}d", *fields)).hexdigest()


def test_integrate_eom_end_states_are_pinned():
    # every state's bits, recorded when the right-hand side and the states were
    # computed on numpy scalars rather than Python floats
    bounded = classical.integrate_eom(1.0, 0.0, 1.0, t_end=1.0, tol=1e-9)
    assert states_digest(bounded) == "ce6b13d1765460d1b408bf9aa5b0ec28f6bed5e50983f320fbfcc6d058d35b89"
    assert tuple(bounded.states[500]) == (0.5, 0.8944271910093066, -1.1180339887472763)
    assert (bounded.states[0].t, bounded.states[0].x, bounded.states[0].p) == (0.0, 1.0, 0.0)
    assert (bounded.states[-1].t, bounded.states[-1].x, bounded.states[-1].p) == (
        1.0, 0.7071067811942453, -2.828427124725671
    )
    assert not bounded.blew_up and bounded.singular_time is None
    # lam < 0, backward from t0 = 3 into the singularity at t* = 1 (see above)
    params = ModelParams(lam=-1.0, c1=1.0, c2=0.0)
    x0 = classical.exact_solution(3.0, params)
    v0 = classical.exact_momentum(3.0, params) * x0**4 / 2.0
    singular = classical.integrate_eom(x0, v0, params.lam, t_end=-2.5, tol=1e-10)
    assert len(singular.states) == 802
    assert states_digest(singular) == "2e9d51beab077f95d69f06dc093a1da257cb4c6c26ce73e47ddce67c6093a99c"
    assert tuple(singular.states[-2]) == (-2.0, 71301.34570613115, -2.8049961474554848e-05)
    assert (singular.states[0].t, singular.states[0].x, singular.states[0].p) == (
        0.0, 0.35355339059327373, -16.970562748477143
    )
    assert (singular.states[-1].t, singular.states[-1].x, singular.states[-1].p) == (
        -2.0000000000978506, 1000574.6750457373, -1.9988513099938732e-06
    )
    assert singular.blew_up and singular.singular_time == -2.0000000000978506
    assert type(singular.singular_time) is float  # the appended event state's t


def test_a_first_step_that_fails_is_a_blow_up_at_t_0():
    # xdot0 = 1e200 overflows the first step, so nothing is sampled; the inf and NaN
    # that scipy meets on the way print no warning (the error::RuntimeWarning filter)
    traj = classical.integrate_eom(1.0, 1e200, 1.0, 1.0, 1e-9)
    assert traj == classical.Trajectory(states=(), blew_up=True, singular_time=0.0)


RHS_OVERFLOW_CASES = {
    "x0-1e70": (1e70, 0.0, 1.0, 1.0, 1e-9),  # x**5 overflows while the solver is built
    "x0-1e62": (1e62, 0.0, 1.0, 1.0, 1e-9),
    "t_end-1e300": (1.0, 0.0, 1.0, 1e300, 1e-9),  # a first step so long that x**5 overflows
    "lam-0": (1e70, 0.0, 0.0, 1.0, 1e-9),  # where an inf x**5 would give 0 * inf = NaN
}


@pytest.mark.parametrize("case", RHS_OVERFLOW_CASES.values(), ids=RHS_OVERFLOW_CASES.keys())
def test_an_overflow_in_the_rhs_is_a_blow_up_at_t_0(case):
    # Python's float ** raises OverflowError; the run stops there, as at a failed step,
    # and prints no warning (the error::RuntimeWarning filter)
    traj = classical.integrate_eom(*case)
    assert traj.blew_up and traj.singular_time == 0.0
    assert all(s.t == 0.0 for s in traj.states)


def test_integrator_validation():
    with pytest.raises(ValueError, match="^x0 = 0 is outside the model domain$"):
        classical.integrate_eom(0.0, 1.0, 1.0, 1.0, 1e-9)
    for args, message in [
        ((math.nan, 1.0, 1.0, 1.0, 1e-9), "x0 must be finite, got nan"),
        ((1.0, -math.inf, 1.0, 1.0, 1e-9), "xdot0 must be finite, got -inf"),
        ((1.0, 1.0, math.nan, 1.0, 1e-9), "lam must be finite, got nan"),
        ((1.0, 1.0, 1.0, math.nan, 1e-9), "t_end must be finite, got nan"),
        ((1.0, 1.0, 1.0, math.inf, 1e-9), "t_end must be finite, got inf"),
        ((1.0, 1.0, 1.0, 1.0, 0.0), "tol must be positive and finite, got 0.0"),
        ((1.0, 1.0, 1.0, 1.0, -1e-9), "tol must be positive and finite, got -1e-09"),
        ((1.0, 1.0, 1.0, 1.0, math.nan), "tol must be positive and finite, got nan"),
        ((1.0, 1.0, 1.0, 1.0, math.inf), "tol must be positive and finite, got inf"),
        ((1.0, 1.0, 1.0, 1.0, 1e-15),
         r"tol = 1e-15 is below DOP853's floor 100 eps = 2\.220446049250313e-14"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            classical.integrate_eom(*args)
    # at the floor itself DOP853 keeps rtol = tol: no UserWarning (an error under pytest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = classical.integrate_eom(1.0, 0.0, 1.0, 1.0, 100 * np.finfo(float).eps)
    assert len(traj.states) == classical.EOM_SAMPLES and not traj.blew_up


def solve_ivp_reference(x0, xdot0, lam, t_end, tol):
    """integrate_eom as written on scipy.integrate.solve_ivp: the trajectory and its nfev.
    Where x**5 overflows solve_ivp passes the OverflowError on: None and the rhs calls up to
    and with the one that raised."""
    from scipy.integrate import solve_ivp

    calls = []

    def rhs(t, y):
        calls.append(t)
        x, v = y.tolist()
        return (v, 2.0 * v * v / x - lam * x**5)

    def blowup(t, y):
        return abs(y[0]) - classical.BLOWUP_BOUND

    blowup.terminal = True
    t_eval = np.linspace(0.0, t_end, classical.EOM_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):  # the failed first step meets inf
        try:
            sol = solve_ivp(rhs, (0.0, t_end), (x0, xdot0), method="DOP853", t_eval=t_eval,
                            rtol=tol, atol=tol, events=blowup)
        except OverflowError:
            return None, len(calls)
    ts = np.asarray(sol.t).tolist()
    xs, vs = np.reshape(sol.y, (2, -1)).tolist()
    singular_time = None
    if sol.status == 1:
        singular_time = float(sol.t_events[0][0])
        ts.append(singular_time)
        xs.append(float(sol.y_events[0][0][0]))
        vs.append(float(sol.y_events[0][0][1]))
    elif sol.status == -1:
        singular_time = ts[-1] if ts else 0.0
    states = tuple(classical.ClassicalState(t, x, 2.0 * v / x**4) for t, x, v in zip(ts, xs, vs))
    return classical.Trajectory(states, singular_time is not None, singular_time), sol.nfev


def exact_start(lam, c1, c2):
    """(x0, xdot0, lam) on the closed-form trajectory at t = 0."""
    params = ModelParams(lam=lam, c1=c1, c2=c2)
    x0 = classical.exact_solution(0.0, params)
    return x0, classical.exact_momentum(0.0, params) * x0**4 / 2.0, lam


def sweep_start(lam, c1, t_minus, backward=False):
    """exact_start of a lam < 0 trajectory as the kernel_sweep benchmark draws it: t = 0 lies
    t_minus before the singular interval, or after it (t_plus = -t_minus) when backward."""
    half = math.sqrt(-lam / c1)
    c2 = half + math.sqrt(c1) * t_minus if backward else -half - math.sqrt(c1) * t_minus
    return exact_start(lam, c1, c2)


def sweep_draws(count, seed=20261020):
    """(x0, xdot0, lam, t_end, tol) of kernel_sweep-shaped blow-ups: t_end = t_minus + 2 at
    tol 1e-12, every second one backward."""
    rng = random.Random(seed)
    draws = []
    for k in range(count):
        lam, c1, t_minus = rng.uniform(-2.0, -0.1), rng.uniform(0.5, 2.0), rng.uniform(1.0, 5.0)
        backward = k % 2 == 1
        t_end = -(t_minus + 2.0) if backward else t_minus + 2.0
        draws.append((*sweep_start(lam, c1, t_minus, backward), t_end, 1e-12))
    return draws


def random_draws(count, seed=20240607):
    """(x0, xdot0, lam, t_end, tol) on closed-form trajectories of either sign of lam."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        lam, c1, c2 = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
        if lam / c1 + c2 * c2 > 0.01:  # t = 0 lies off the singular interval
            tol = rng.choice([1e-12, 1e-9, 1e-6])
            draws.append((*exact_start(lam, c1, c2), rng.uniform(-6.0, 6.0), tol))
    return draws


EQUIVALENCE_CASES = {
    **{f"forward-tol-{tol:g}": (1.0, 0.0, 1.0, 1.0, tol) for tol in (1e-12, 1e-9, 1e-6)},
    "backward": (1.0, 0.3, 1.0, -2.0, 1e-9),
    "t_end-0": (1.0, 0.0, 1.0, 0.0, 1e-12),
    "blow-up-forward": (*exact_start(-1.0, 1.0, -2.0), 3.0, 1e-12),  # at t = 1
    "blow-up-backward": (*exact_start(-1.0, 1.0, 2.0), -3.0, 1e-12),  # at t = -1
    "x0-at-the-bound": (classical.BLOWUP_BOUND, 0.0, 1e-30, 1.0, 1e-9),
    # no step, but the event is checked: one state, blown up at t = 0
    "x0-at-the-bound-t_end-0": (classical.BLOWUP_BOUND, 0.0, 1.0, 0.0, 1e-12),
    "x0-beyond-the-bound": (2e6, 0.0, 1e-30, 1.0, 1e-9),
    "failed-first-step": (1.0, 1e200, 1.0, 1.0, 1e-9),
    # kernel_sweep's shape, t_end = t_minus + 2: a blow-up mid-run, forward and backward
    "sweep-blow-up": (*sweep_start(-0.7, 1.3, 2.4), 4.4, 1e-12),
    "sweep-blow-up-backward": (*sweep_start(-0.7, 1.3, 2.4, backward=True), -4.4, 1e-12),
    "sweep-rejected-steps": (*sweep_start(-1.5, 0.6, 1.2), 3.2, 1e-9),  # 200 of 402 rejected
    "sweep-tol-1e-6": (*sweep_start(-0.2, 1.9, 4.1), 6.1, 1e-6),
    # long runs of ~470 steps into the blow-up, as a kernel_sweep study integrates
    **{f"sweep-draw-{k}": draw for k, draw in enumerate(sweep_draws(10))},
    # a run whose error norm rounds apart if math.sqrt(d) ** 2 becomes its product with itself
    "norm-square": (0.6439937987960748, -0.5367359055551177, -1.01262, 10.0, 1e-12),
    # steps much longer than the sample spacing: one step's table gives many samples
    "long-steps": (1.0, 0.0, 1.0, 1000.0, 1e-6),
    **{f"draw-{k}": draw for k, draw in enumerate(random_draws(50))},
}


@pytest.mark.parametrize("case", EQUIVALENCE_CASES.values(), ids=EQUIVALENCE_CASES.keys())
def test_integrate_eom_steps_dop853_as_solve_ivp_does(case, monkeypatch):
    nfev = []
    driver = classical.solve_ivp

    def counted(*args, **kwargs):
        run = driver(*args, **kwargs)
        nfev.append(run.nfev)
        return run

    monkeypatch.setattr(classical, "solve_ivp", counted)
    traj = classical.integrate_eom(*case)
    expected, expected_nfev = solve_ivp_reference(*case)
    assert [struct.pack("<3d", *s) for s in traj] == [struct.pack("<3d", *s) for s in expected]
    assert traj.blew_up == expected.blew_up
    assert repr(traj.singular_time) == repr(expected.singular_time)
    assert nfev == [expected_nfev]


@pytest.mark.parametrize("name", ["forward-tol-1e-09", "sweep-draw-0"])
def test_integrated_states_are_classical_states(name):
    """integrate_eom builds its states with tuple.__new__, which skips ClassicalState's own
    __new__; each must still be a ClassicalState with its fields, equality and pickling."""
    traj = classical.integrate_eom(*EQUIVALENCE_CASES[name])
    assert len(traj.states) > 1 and traj.blew_up == name.startswith("sweep")
    for s in traj:
        assert type(s) is ClassicalState
        assert s._asdict() == {"t": s.t, "x": s.x, "p": s.p}
        assert s == (s.t, s.x, s.p)
        copy = pickle.loads(pickle.dumps(s))
        assert type(copy) is ClassicalState and copy == s


@pytest.mark.parametrize("name", ["sweep-rejected-steps", "blow-up-backward", "t_end-0",
                                  "x0-at-the-bound-t_end-0", "long-steps", "failed-first-step",
                                  "t_end-1e300"])
def test_the_driver_counts_each_rhs_call_and_never_calls_scipy_step(name, monkeypatch):
    import scipy.integrate

    # t_end-1e300: x**5 overflows mid-step, after the solver is built
    case = {**EQUIVALENCE_CASES, **RHS_OVERFLOW_CASES}[name]
    expected, expected_nfev = solve_ivp_reference(*case)
    calls, nfev = [], []
    driver = classical.solve_ivp

    def counted(rhs, *args):
        def counted_rhs(*state):
            calls.append(state)  # before the call: scipy counts a call that raises
            return rhs(*state)

        run = driver(counted_rhs, *args)
        nfev.append(run.nfev)
        return run

    def no_call(name):
        def raises(self):
            raise AssertionError(f"DOP853.{name} was called")

        return raises

    class Frozen(scipy.integrate.DOP853):
        """A DOP853 whose attributes the driver may read, but not write, once it is built."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            object.__setattr__(self, "built", True)

        def __setattr__(self, attr, value):
            if getattr(self, "built", False):
                raise AssertionError(f"DOP853.{attr} was written")
            super().__setattr__(attr, value)

    monkeypatch.setattr(classical, "solve_ivp", counted)
    # the driver steps and interpolates itself, on its own state
    monkeypatch.setattr(scipy.integrate.DOP853, "step", no_call("step"))
    monkeypatch.setattr(scipy.integrate.DOP853, "dense_output", no_call("dense_output"))
    monkeypatch.setattr(scipy.integrate, "DOP853", Frozen)
    traj = classical.integrate_eom(*case)
    assert nfev == [len(calls)] == [expected_nfev]
    if expected is not None:
        assert [struct.pack("<3d", *s) for s in traj] == [struct.pack("<3d", *s) for s in expected]
        assert repr(traj.singular_time) == repr(expected.singular_time)


@pytest.mark.parametrize("case, nfev", [((1.0, 0.0, 1.0, 1.0, 1e-6), 74),
                                        ((1.0, 0.3, 1.0, -2.0, 1e-9), 206)],
                         ids=["forward", "backward"])
def test_an_overflow_at_any_rhs_call_stops_the_run_at_its_last_sample(case, nfev, monkeypatch):
    # the k-th rhs call raises OverflowError, for every k of the run and two past it
    driver, counts, k = classical.solve_ivp, [], 0

    def injected(rhs, *args):
        calls = 0

        def raises_at_k(*state):
            nonlocal calls
            calls += 1
            if calls == k:
                raise OverflowError
            return rhs(*state)

        run = driver(raises_at_k, *args)
        counts.append(run.nfev)
        return run

    def packed(traj):
        return [struct.pack("<3d", *s) for s in traj]

    monkeypatch.setattr(classical, "solve_ivp", injected)
    whole = classical.integrate_eom(*case)
    assert counts == [nfev] and not whole.blew_up
    for k in range(1, nfev + 3):
        counts.clear()
        traj = classical.integrate_eom(*case)
        if k > nfev:  # no call raised
            assert packed(traj) == packed(whole) and counts == [nfev]
            assert not traj.blew_up and traj.singular_time is None
            continue
        # the first two calls build the solver, which then never reports its count
        assert counts == [k if k > 2 else 0]
        assert packed(traj) == packed(whole)[:len(traj.states)]
        assert traj.blew_up and traj.singular_time == (traj.states[-1].t if traj.states else 0.0)


def test_integrate_eom_at_t_end_0_samples_nothing():
    # solve_ivp's direction is +1 at t_end = 0 and its t_eval is reversed, so the
    # slice of the one finishing step is empty
    assert classical.integrate_eom(1.0, 0.0, 1.0, 0.0, 1e-12).states == ()


def test_singularity_time_examples():
    assert classical.singularity_time(ModelParams(lam=-1.0, c1=1.0, c2=0.0)) == pytest.approx(1.0)
    assert classical.singularity_time(FIG1) is None
    assert classical.singularity_time(ModelParams(lam=-4.0, c1=4.0, c2=-5.0)) == pytest.approx(3.0)


# exact floats of t_plus = (sqrt(-lam/c1) - c2)/sqrt(c1), keyed by (lam, c1, c2)
SINGULARITY_TIMES = [
    ((-1.0, 1.0, -5.0), 6.0),
    ((-0.5, 1.0, -5.0), 5.707106781186548),
    ((-1.1984, 0.53876, 0.490329), 1.363894410551041),
    ((-2.0, 3.0, 0.25), 0.32706695349362525),
    ((-1e-3, 0.7, 1.3), -1.5086217969894493),
]


@pytest.mark.parametrize("lam_c1_c2, t_plus", SINGULARITY_TIMES)
def test_singularity_time_bits_are_pinned(lam_c1_c2, t_plus):
    lam, c1, c2 = lam_c1_c2
    assert classical.singularity_time(ModelParams(lam=lam, c1=c1, c2=c2)) == t_plus


def test_radicand_roots():
    params = ModelParams(lam=-1.0, c1=1.0, c2=0.0)
    roots = classical.radicand_roots(params)
    assert roots == pytest.approx((-1.0, 1.0))
    for t in roots:
        assert abs(classical.radicand(t, params)) < 1e-14
    assert all(map(math.isnan, classical.radicand_roots(FIG1)))  # lam > 0: no real root
    assert classical.radicand_roots(ModelParams(lam=0.0, c1=4.0, c2=-3.0)) == (1.5, 1.5)
    # sqrt(-0.0) is -0.0: the double root of lam = c2 = 0 must still be +0.0 twice
    assert repr(classical.radicand_roots(ModelParams(lam=0.0))) == "(0.0, 0.0)"


def test_radicand_roots_of_an_array_lam_are_the_scalar_roots_and_give_singularity_time():
    lams = np.linspace(-3.0, 3.0, 61)  # crosses lam = 0 exactly
    for c1, c2 in [(1.0, 0.0), (0.37, 1.3), (2.0, -5.0)]:
        params = ModelParams(lam=lams, c1=c1, c2=c2)
        t_minus, t_plus = classical.radicand_roots(params)
        t_star = classical.singularity_time(params)
        for i, lam in enumerate(lams.tolist()):
            scalar = classical.radicand_roots(ModelParams(lam=lam, c1=c1, c2=c2))
            assert struct.pack("<2d", t_minus[i], t_plus[i]) == struct.pack("<2d", *scalar)
            if lam <= 0.0:
                assert t_star[i] == t_plus[i]
            else:
                assert t_star[i] is None


def test_exact_solution_raises_near_singular_time():
    params = ModelParams(lam=-1.0, c1=1.0, c2=0.0)
    with pytest.raises(SingularTrajectoryError):
        classical.exact_solution(1.0, params)
    with pytest.raises(SingularTrajectoryError):
        classical.exact_solution(np.linspace(0.0, 5.0, 50), params)
    # regular piece of the same trajectory evaluates fine
    assert classical.exact_solution(3.0, params) == pytest.approx(1.0 / math.sqrt(8.0))


@pytest.mark.parametrize("params, where", [
    # lam > 0: no real root, so the minimum lam/c1 at t = -c2/sqrt(c1) is named
    (ModelParams(lam=1e-300, c1=1.0, c2=0.0), "no real root; minimum lam/c1 = 1e-300 at t = 0"),
    (ModelParams(lam=1e-300, c1=4.0, c2=-3.0),
     "no real root; minimum lam/c1 = 2.5e-301 at t = 1.5"),
    (ModelParams(lam=-1.0, c1=1.0, c2=0.0), "singular roots at (-1.0, 1.0)"),
])
def test_a_singular_radicand_names_its_roots_or_its_minimum(params, where):
    with pytest.raises(SingularTrajectoryError) as info:
        classical.exact_solution(np.array([0.0, 1.0, 1.5, 2.0]), params)
    assert str(info.value) == f"radicand <= 1e-15 in the requested range ({where})"


def test_exact_solution_refuses_an_overflowing_radicand():
    params = ModelParams(lam=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (classical.exact_solution, classical.exact_momentum):
            with pytest.raises(FloatingPointError, match="radicand overflows"):
                f(np.array([0.0, 1e308]), params)


def test_overflowing_momentum_is_inf_without_a_warning():
    # the radicand stays finite, the product 2 sqrt(c1) w sqrt(q) does not; the
    # error::RuntimeWarning filter fails this test on a numpy overflow warning
    params = ModelParams(lam=1.0, c1=1e300, c2=2.0)
    assert classical.exact_momentum(1.0, params) == -math.inf
    assert classical.exact_momentum(np.array([1.0]), params).tolist() == [-math.inf]


def test_localization_peak_and_monotone_decay():
    peak_t = -FIG1.c2 / math.sqrt(FIG1.c1)
    assert classical.exact_solution(peak_t, FIG1) == pytest.approx(
        math.sqrt(FIG1.c1 / FIG1.lam), rel=1e-15
    )
    left = classical.exact_solution(np.linspace(peak_t - 8.0, peak_t, 100), FIG1)
    right = classical.exact_solution(np.linspace(peak_t, peak_t + 8.0, 100), FIG1)
    assert np.all(np.diff(left) > 0.0)
    assert np.all(np.diff(right) < 0.0)


def test_classify_lambda_examples():
    assert classical.classify_lambda(FIG1, (0.0, 10.0)) == "bounded"
    singular = ModelParams(lam=-1.0, c1=1.0, c2=0.0)
    assert classical.classify_lambda(singular, (0.0, 10.0)) == "singular"
    assert classical.classify_lambda(singular, (2.0, 10.0)) == "bounded"
    with pytest.raises(ValueError):
        classical.classify_lambda(FIG1, (0.0, math.inf))


def test_classify_lambda_agrees_with_sign_scan():
    rng = np.random.default_rng(99)
    ts = np.linspace(0.0, 10.0, 10000)
    for _ in range(300):
        params = ModelParams(
            lam=float(rng.uniform(-2.0, 2.0)),
            c1=float(rng.uniform(0.1, 3.0)),
            c2=float(rng.uniform(-6.0, 6.0)),
        )
        brute = "singular" if np.min(classical.radicand(ts, params)) <= 0.0 else "bounded"
        assert classical.classify_lambda(params, (0.0, 10.0)) == brute


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    lams=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20),
    c1=st.floats(0.1, 3.0),
    c2=st.floats(-6.0, 6.0),
    window=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_classify_lambda_array_agrees_with_a_brute_force_sign_scan(lams, c1, c2, window):
    """Each entry of one array call against a 10001-point scan of that lam's radicand.
    Between grid points the parabola (second derivative 2 c1) dips at most sag below
    the scan's minimum, so a minimum within sag (plus rounding) of zero decides nothing."""
    ts = np.linspace(min(window), max(window), 10001)
    sag = c1 * ((ts[1] - ts[0]) / 2.0) ** 2 + 1e-12
    got = classical.classify_lambda(ModelParams(lam=np.array(lams), c1=c1, c2=c2), window)
    assert got.shape == (len(lams),)
    for lam, status in zip(lams, got.tolist()):
        scan_min = np.min(classical.radicand(ts, ModelParams(lam=lam, c1=c1, c2=c2)))
        if scan_min < -1e-12:
            assert status == "singular", (lam, scan_min)
        elif scan_min > sag:
            assert status == "bounded", (lam, scan_min)


def test_lambda_array_gives_the_scalar_results_elementwise():
    """An array lam through ModelParams gives, element by element, what the
    scalar call gives: the same strings, the same bits and None for lam >= 0."""
    lams = np.linspace(-3.0, 3.0, 601)  # crosses lam = 0 exactly
    windows = [(0.37, 1.3, (-4.0, 7.0)), (1.0, -5.0, (10.0, 0.0)), (2.0, 0.25, (0.0, 0.0))]
    for c1, c2, window in windows:
        params = ModelParams(lam=lams, c1=c1, c2=c2)
        status = classical.classify_lambda(params, window)
        t_star = classical.singularity_time(params)
        radicand = classical.radicand(window[0], params)
        assert status.shape == t_star.shape == radicand.shape == lams.shape
        for i, lam in enumerate(lams.tolist()):
            scalar = ModelParams(lam=lam, c1=c1, c2=c2)
            assert status[i] == classical.classify_lambda(scalar, window)
            assert t_star[i] == classical.singularity_time(scalar)  # None, or the same bits
            assert radicand[i] == classical.radicand(window[0], scalar)
    scalar_types = (type(classical.classify_lambda(FIG1, (0.0, 1.0))),
                    type(classical.singularity_time(ModelParams(lam=-1.0))))
    assert scalar_types == (str, float)


def test_lambda_array_refuses_a_non_finite_entry():
    with pytest.raises(ValueError, match="lam must be finite"):
        ModelParams(lam=np.array([0.0, math.nan]))


def test_overflowing_singularity_time_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_star = classical.singularity_time(ModelParams(lam=np.array([-2.0, 1.0]), c1=5e-324))
    assert t_star.tolist() == [math.inf, None]


def test_phase_curve_turning_points_and_divergence():
    # the turning points +-A, A = sqrt(E/lam), are the end rows, with p = 0 there
    for (E, lam, amp), points in itertools.product([(1.0, 1.0, 1.0), (0.5, 0.5, 1.0),
                                                    (4.0, 1.0, 2.0)], (4, 5)):
        rows = classical.phase_curve(E, lam, points, 0.25)
        assert rows.shape == (points, 3)
        assert rows[[0, -1], 0].tolist() == [-amp, amp]
        assert rows[[0, -1], 1].tolist() == [0.0, 0.0]
        assert (rows[:, 0] < 0.0).sum() == points // 2  # an odd count: the extra row is positive
    xs, p_plus, p_minus = classical.phase_curve(1.0, 0.5, 9, 0.05).T
    assert p_plus**2 == pytest.approx(4.0 * 1.0 / xs**4 - 4.0 * 0.5 / xs**2, rel=1e-13)
    assert np.array_equal(p_minus, -p_plus)
    peaks = [classical.phase_curve(1.0, 0.5, 2, frac)[0, 1] for frac in (0.5, 0.05, 1e-3)]
    assert peaks == sorted(peaks) and peaks[-1] > 1e5  # p diverges toward the origin


def _reference_phase_curve(E, lam, points, x_floor_frac):
    """The command line's grid and phase_curve's rows on it, as they were computed
    apart: the reference whose bits phase_curve must keep."""
    amp = math.sqrt(E / lam)
    half = np.linspace(x_floor_frac * amp, amp, points - points // 2)
    xs = np.concatenate([-half[::-1][: points // 2], half])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rad = 4.0 * E / xs**4 - 4.0 * lam / xs**2
    p = np.sqrt(np.maximum(rad, 0.0))
    return np.column_stack([xs, p, -p])


@pytest.mark.parametrize("points", [2, 7, 400, 401])
@pytest.mark.parametrize("x_floor_frac", [1e-3, 0.05, 0.9])
def test_phase_curve_keeps_the_bits_of_the_command_line_grid(points, x_floor_frac):
    for E, lam in [(0.5, 1.0), (0.7, 1.0), (0.8, 0.37), (3.0, 1e-3)]:
        assert np.array_equal(classical.phase_curve(E, lam, points, x_floor_frac),
                              _reference_phase_curve(E, lam, points, x_floor_frac))


def test_phase_curve_rejections():
    for frac in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(ValueError, match=rf"^x_floor_frac must be in \(0, 1\), got {frac}$"):
            classical.phase_curve(0.5, 0.5, 4, frac)
    for E, lam in [(-1.0, 0.5), (0.0, 1.0), (1.0, 0.0), (1.0, -1.0), (math.nan, 1.0),
                   (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError, match=f"^phase_curve requires E > 0 and lam > 0, got "
                                             f"E={E}, lam={lam}$"):
            classical.phase_curve(E, lam, 4, 0.05)
    with pytest.raises(OverflowError, match=r"sqrt\(E/lam\) overflows for E=1.0, lam=5e-324"):
        classical.phase_curve(1.0, 5e-324, 4, 0.05)
    with pytest.raises(ValueError, match="^x = 0 is outside the model domain$"):
        classical.phase_curve(5e-324, 1e300, 4, 0.05)  # E/lam underflows: A = 0
