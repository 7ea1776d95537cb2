"""Seeded operation schedules for the two workloads.

A schedule is an endless, deterministic sequence of operations built cycle
by cycle: cycle ``k`` of workload ``w`` under seed ``s`` draws from
``random.Random(f"{w}:{s}:{k}")``, so the i-th operation depends only on the
workload, the seed and i, never on timing.  Sizes are stratified inside a
cycle (each cycle visits every size stratum once, in a seeded order) so that
every run, which holds whole cycles, sees the same mix whatever the seed.

CLI operations are :class:`CliOp` (the argv handed to ``pdmosc`` plus what
the oracle needs to check it); ``kernel_sweep`` operations are parameter
dicts for :func:`run_study`.  This module imports pdmosc only inside
:func:`run_study` and :func:`warm_kernels`, which are called with the
modules passed in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SUBCOMMANDS = (
    "trajectory", "lambda-map", "phase-portrait", "wkb",
    "spectrum", "eigenfunction", "box-spectrum", "verify",
)

#: malformed --t grids; each is documented to exit 1 with a one-line message
MALFORMED_GRIDS = ("0:10", "5:1:0.1", "0:1:-0.1", "a:b:c", "0:10:0", "1:2:3:4")

#: cli_cold row strata of trajectory, eigenfunction and phase-portrait
CLI_COLD_ROWS = (400, 700, 1000)

#: kernel_sweep box sizes: N_max from 16 log-spaced strata of 5..200, one per study of a cycle
SWEEP_N_MAX = (5, 200)
SWEEP_CYCLE = 16


@dataclass
class CliOp:
    """One pdmosc invocation; the oracle reads its parameters from ``argv``."""

    sub: str
    argv: list[str]
    fmt: str
    expect_code: int = 0


def _g(value: float) -> str:
    return format(value, ".6g")


def _log_strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k values near the centres of k equal log-strata of [lo, hi], shuffled.

    Each value stays within a tenth of a stratum of its centre: the largest
    values set the tail percentile, which must not swing with the seed.
    """
    a, b = math.log(lo), math.log(hi)
    vals = [math.exp(a + (b - a) * (i + 0.5 + rng.uniform(-0.1, 0.1)) / k) for i in range(k)]
    rng.shuffle(vals)
    return vals


def _op(sub, args, fmt, expect_code=0) -> CliOp:
    argv = [sub] + [str(a) for a in args] + ["--format", fmt]
    return CliOp(sub, argv, fmt, expect_code)


# ---------------------------------------------------------------------------
# cli_cold: all eight subcommands at default-to-small sizes, plus two
# documented-invalid inputs per cycle of ten


def _trajectory(rng, fmt, rows) -> CliOp:
    lam, c1, c2 = rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
    t1 = rng.uniform(5.0, 20.0)
    grid = f"0:{_g(t1)}:{_g(t1 / (rows - 1))}"
    args = ["--lambda", _g(lam), "--c1", _g(c1), "--c2", _g(c2), "--t", grid]
    return _op("trajectory", args, fmt)


def _eigenfunction(rng, fmt, half_points) -> CliOp:
    n, E, hbar = rng.randint(1, 6), rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
    x1 = rng.uniform(2.0, 4.0)
    grid = f"0.02:{_g(x1)}:{_g((x1 - 0.02) / (half_points - 1))}"
    args = ["--n", n, "--E", _g(E), "--hbar", _g(hbar), "--x", grid]
    return _op("eigenfunction", args, fmt)


def _phase_portrait(rng, fmt, points) -> CliOp:
    lam = rng.uniform(0.5, 2.0)
    energies = [float(_g(rng.uniform(0.2, 2.0))) for _ in range(4)]
    args = ["--lambda", _g(lam), "--energies", ",".join(_g(e) for e in energies),
            "--points", points]
    return _op("phase-portrait", args, fmt)


def _cli_cold_cycle(rng: random.Random) -> list[CliOp]:
    fmts = ["csv", "json"] * 5
    rng.shuffle(fmts)
    fmt = iter(fmts)
    # the three row-heavy subcommands share CLI_COLD_ROWS strata, so every
    # cycle prints about the same number of rows whatever the seed
    traj_rows, eig_rows, phase_rows = (int(r * rng.uniform(0.95, 1.05)) for r in
                                       rng.sample(CLI_COLD_ROWS, 3))
    ops = [
        _trajectory(rng, next(fmt), traj_rows),
        _op("lambda-map", ["--lambda-min", _g(rng.uniform(-2, -0.5)),
                           "--lambda-max", _g(rng.uniform(0.5, 2)),
                           "--count", rng.randint(11, 81),
                           "--c1", _g(rng.uniform(0.5, 2)), "--c2", _g(rng.uniform(-6, 2)),
                           "--window", f"0:{_g(rng.uniform(2, 10))}"], next(fmt)),
        _phase_portrait(rng, next(fmt), 2 * (phase_rows // 8)),
        _op("wkb", ["--n-max", rng.randint(3, 10), "--hbar", _g(rng.uniform(0.5, 2)),
                    "--turning-point", _g(rng.uniform(0.5, 5))], next(fmt)),
        _op("spectrum", ["--alpha1", _g(rng.uniform(-1, 1)), "--gamma1", _g(rng.uniform(-1, 1)),
                         "--n-max", rng.randint(3, 10), "--hbar", _g(rng.uniform(0.5, 2))],
            next(fmt)),
        _eigenfunction(rng, next(fmt), eig_rows // 2),
        _op("box-spectrum", ["--n", rng.randint(1, 5), "--n-zeros", rng.randint(1, 10),
                             "--eps", _g(rng.uniform(0.05, 0.5)),
                             "--hbar", _g(rng.uniform(0.5, 2))], next(fmt)),
        _op("verify", _suite_args(rng), next(fmt)),
    ]
    # invalid 1: malformed time grid -> exit 1
    ops.append(_op("trajectory", ["--lambda", "1", "--t", rng.choice(MALFORMED_GRIDS)],
                   next(fmt), expect_code=1))
    # invalid 2: lambda < 0 with a window crossing the singular times -> exit 2
    lam, t_minus = -rng.uniform(0.1, 2.0), rng.uniform(1.0, 5.0)
    c2 = -math.sqrt(-lam) - t_minus
    t1 = t_minus + 2.0 * math.sqrt(-lam) + rng.uniform(0.5, 3.0)
    ops.append(_op("trajectory", ["--lambda", _g(lam), "--c2", _g(c2),
                                  "--t", f"0:{_g(t1)}:0.01"], next(fmt), expect_code=2))
    rng.shuffle(ops)
    return ops


def _suite_draw(rng: random.Random) -> dict:
    """Parameters of one verification suite run, with lambda of either sign.

    For lambda < 0 a few percent of draws fail ``classical_energy_conservation``
    (absolute 1e-12 tolerance on H near the singular times, where x ~ 1e3);
    see the known-defect test in test_perfbench.py.  Those draws are kept:
    the operation counts as failed and is listed with its cause.
    """
    alpha = rng.uniform(-1.0, 1.0)
    gamma = alpha + 0.75 if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0)
    return {
        "lam": float(_g(lam)), "c1": float(_g(rng.uniform(0.5, 2.0))),
        "c2": float(_g(rng.uniform(-6.0, 2.0))), "alpha1": float(_g(alpha)),
        "gamma1": float(_g(gamma)), "seed": rng.randint(0, 999_999),
    }


def _suite_args(rng: random.Random) -> list:
    d = _suite_draw(rng)
    return ["--lambda", _g(d["lam"]), "--c1", _g(d["c1"]), "--c2", _g(d["c2"]),
            "--alpha1", _g(d["alpha1"]), "--gamma1", _g(d["gamma1"]), "--seed", d["seed"]]


# ---------------------------------------------------------------------------
# kernel_sweep: in-process studies of one seeded parameter point each


def _sweep_cycle(rng: random.Random) -> list[dict]:
    studies = []
    for n_max in _log_strata(rng, SWEEP_CYCLE, *SWEEP_N_MAX):
        n_max = int(round(n_max))
        n = rng.randint(1, 5)
        top = min(n_max, 30)
        diagonal = rng.randint(1, top)
        pairs = [(diagonal, diagonal)] + [tuple(sorted(rng.sample(range(1, top + 1), 2)))
                                          for _ in range(2)]
        lam_sign = 1 if len(studies) % 2 == 0 else -1
        c1 = rng.uniform(0.5, 2.0)
        if lam_sign > 0:
            lam, c2, t_end = rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(2.0, 10.0)
            t_minus = None
        else:
            lam, t_minus = -rng.uniform(0.1, 2.0), rng.uniform(1.0, 5.0)
            c2 = -math.sqrt(-lam / c1) - math.sqrt(c1) * t_minus
            t_end = t_minus + 2.0
        E = rng.uniform(0.5, 2.0)
        alpha = rng.uniform(-1.0, 1.0)
        studies.append({
            "n": n, "n_max": n_max, "eps": rng.uniform(0.05, 0.5),
            "hbar": rng.uniform(0.5, 2.0), "pairs": pairs, "A": rng.uniform(0.5, 5.0),
            "eom": {"lam": lam, "c1": c1, "c2": c2, "t_end": t_end, "t_minus": t_minus},
            "overlap": {"n": rng.randint(1, 5), "E": E,
                        "E_prime": E if rng.random() < 0.5 else rng.uniform(0.5, 2.0),
                        "R": rng.uniform(5.0, 50.0)},
            "state": {"n": rng.randint(1, 6), "E": rng.uniform(0.5, 3.0),
                      "alpha1": alpha, "gamma1": alpha + 0.75},
            "suite": _suite_draw(rng),
        })
    return studies


_CYCLES = {"cli_cold": _cli_cold_cycle, "kernel_sweep": _sweep_cycle}

#: operations per cycle: eight subcommands plus two invalid inputs; 16 studies
CYCLE_LENGTH = {"cli_cold": len(SUBCOMMANDS) + 2, "kernel_sweep": SWEEP_CYCLE}


def schedule(workload: str, seed: int):
    """Endless deterministic operation sequence for one workload and seed."""
    cycle = 0
    while True:
        yield from _CYCLES[workload](random.Random(f"{workload}:{seed}:{cycle}"))
        cycle += 1


def run_study(pd, s: dict) -> dict:
    """One kernel_sweep operation: every call whose result the oracle checks.

    ``pd`` is a namespace holding the pdmosc modules.  Returns plain floats
    and lists so that the oracle needs nothing from pdmosc to check them.
    """
    q, c, sc, v = pd.quantum, pd.classical, pd.semiclassical, pd.verification
    out = {}
    box = q.box_spectrum(s["n"], s["n_max"], s["eps"], s["hbar"])
    out["box_E"] = [b.energy for b in box]
    out["box_C"] = [b.norm_const for b in box]
    out["orth"] = [q.box_orthonormality(s["n"], N, M, s["eps"], s["hbar"]) for N, M in s["pairs"]]
    out["finite_part"] = sc.finite_part_action(s["A"]).finite_part
    out["wkb_residual"] = [sc.wkb_condition_check(n, s["hbar"], s["A"]).measured for n in range(11)]

    e = s["eom"]
    params = c.ModelParams(lam=e["lam"], c1=e["c1"], c2=e["c2"])
    x0 = c.exact_solution(0.0, params)
    v0 = c.exact_momentum(0.0, params) * x0**4 / 2.0
    traj = c.integrate_eom(x0, v0, e["lam"], e["t_end"], 1e-12)
    out["eom_t"] = [st.t for st in traj]
    out["eom_x"] = [st.x for st in traj]
    out["eom_blew_up"] = traj.blew_up
    out["eom_singular_time"] = traj.singular_time

    o = s["overlap"]
    out["overlap"] = q.overlap_kernel(o["n"], o["E"], o["E_prime"], o["R"], s["hbar"])

    st = s["state"]
    state = q.ContinuumState(n=st["n"], E=st["E"])
    xs = [0.02 + 0.025 * k for k in range(200)]
    out["psi"] = list(q.eigenfunction([-x for x in reversed(xs)] + xs, state, s["hbar"]))
    ordering = q.SingleTermOrdering.from_alpha_gamma(st["alpha1"], st["gamma1"])
    lam_n = q.lambda_quantized(st["n"], ordering, s["hbar"])
    out["ode_lam"] = lam_n
    out["ode_residual"] = q.ode_residual(state, ordering, lam_n, s["hbar"])

    d = s["suite"]
    cfg = v.SuiteConfig(
        params=c.ModelParams(lam=d["lam"], c1=d["c1"], c2=d["c2"]),
        ordering=q.SingleTermOrdering.from_alpha_gamma(d["alpha1"], d["gamma1"]),
        seed=d["seed"],
    )
    out["suite"] = [(r.check_id, r.status, r.measured) for r in v.run_suite(v.all_check_ids(), cfg)]
    return out


def study_rows(out: dict) -> int:
    """Result records of one study, counted as the CLI would print them."""
    return (len(out["box_E"]) + len(out["orth"]) + 1 + len(out["wkb_residual"])
            + len(out["eom_t"]) + 1 + len(out["psi"]) + 1 + len(out["suite"]))


def warm_kernels(pd) -> None:
    """One small call of each kernel the sweep times (set-up, not measured)."""
    run_study(pd, next(schedule("kernel_sweep", 0)) | {"n_max": 5})
