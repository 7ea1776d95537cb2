"""Command-line front end emitting bit-stable CSV / line-delimited JSON.

Subcommands map one-to-one onto the library surfaces: `trajectory`,
`lambda-map`, `phase-portrait`, `wkb`, `spectrum`, `eigenfunction`,
`box-spectrum`, and `verify`.  Numeric output uses 17 significant digits so
datasets diff reproducibly.  Exit codes: 0 success, 1 validation error,
2 numerical failure (non-convergence, blow-up, failed verification).

Every option can also come from a flat key=value config file (``--config``);
command-line flags take precedence over config entries, which take
precedence over built-in defaults.  Plots are never rendered here: the
figure-producing subcommands can emit a small companion matplotlib script
next to the CSV instead (``--emit-plot-script``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import classical, quantum, semiclassical, verification
from .bessel import ZeroRefinementError
from .classical import ModelParams, SingularTrajectoryError
from .quantum import ComplexOrderError, QuadratureFailure, SingleTermOrdering
from .semiclassical import ExtrapolationError, QuadratureError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

NUMERICAL_ERRORS = (
    SingularTrajectoryError,
    ZeroRefinementError,
    ExtrapolationError,
    QuadratureError,
    QuadratureFailure,
    ComplexOrderError,
)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract wants 1
        raise UsageError(f"{message}\n{self.format_usage()}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def write_rows(header: list[str], rows: list[tuple], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:  # line-delimited JSON records
        lines = [json.dumps(dict(zip(header, row)), allow_nan=True) for row in rows]
        text = "\n".join(lines) + ("\n" if lines else "")
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments allowed."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# user-facing flag spellings for dests that differ from them
FLAG_LABELS = {"lam": "--lambda", "energy": "--E", "fmt": "--format"}


def _resolve(args, cfg: dict[str, str], dest: str, cast, default):
    """flag > config file entry > built-in default."""
    value = getattr(args, dest, None)
    if value is not None:
        return value
    if dest in cfg:
        try:
            return cast(cfg[dest])
        except ValueError as exc:
            raise UsageError(f"config entry {dest}={cfg[dest]!r}: {exc}") from exc
    if default is None:
        flag = FLAG_LABELS.get(dest, "--" + dest.replace("_", "-"))
        raise UsageError(f"missing required option {flag}")
    return default


def parse_grid(spec: str) -> np.ndarray:
    """'start:stop:step' inclusive of both ends (up to roundoff)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"start, stop and step must be finite in {spec!r}")
    if step <= 0.0 or stop < start:
        raise ValueError(f"need stop >= start and step > 0 in {spec!r}")
    count = int(round((stop - start) / step)) + 1
    return start + step * np.arange(count)


def parse_floats(spec: str) -> list[float]:
    try:
        return [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise ValueError(f"bad float list {spec!r}") from exc


def parse_window(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected t0:t1, got {spec!r}")
    return float(parts[0]), float(parts[1])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (header, rows, exit_code)


def run_trajectory(args, cfg):
    params = ModelParams(
        lam=_resolve(args, cfg, "lam", float, None),
        hbar=_resolve(args, cfg, "hbar", float, 1.0),
        c1=_resolve(args, cfg, "c1", float, 1.0),
        c2=_resolve(args, cfg, "c2", float, 0.0),
    )
    ts = parse_grid(_resolve(args, cfg, "t", str, "0:10:0.01"))
    xs = classical.exact_solution(ts, params)
    ps = classical.exact_momentum(ts, params)
    es = classical.hamiltonian(xs, ps, params.lam)
    rows = [(float(t), float(x), float(p), float(e)) for t, x, p, e in zip(ts, xs, ps, es)]
    return ["t", "x", "p", "E"], rows, EXIT_OK


def run_lambda_map(args, cfg):
    c1 = _resolve(args, cfg, "c1", float, 1.0)
    c2 = _resolve(args, cfg, "c2", float, -5.0)
    lo = _resolve(args, cfg, "lambda_min", float, -2.0)
    hi = _resolve(args, cfg, "lambda_max", float, 2.0)
    count = _resolve(args, cfg, "count", int, 81)
    window = parse_window(_resolve(args, cfg, "window", str, "0:10"))
    if count < 2:
        raise UsageError("--count must be at least 2")
    rows = []
    for lam in np.linspace(lo, hi, count):
        params = ModelParams(lam=float(lam), c1=c1, c2=c2)
        status = classical.classify_lambda(params, window)
        t_star = classical.singularity_time(params)
        rows.append((float(lam), status, t_star))
    return ["lambda", "status", "singular_time"], rows, EXIT_OK


def run_phase_portrait(args, cfg):
    lam = _resolve(args, cfg, "lam", float, None)
    energies = parse_floats(_resolve(args, cfg, "energies", str, "0.5,0.7,0.8,1"))
    points = _resolve(args, cfg, "points", int, 400)
    floor_frac = _resolve(args, cfg, "x_floor_frac", float, 0.05)
    if not energies:
        raise UsageError("--energies must name at least one energy")
    if not (0.0 < floor_frac < 1.0):
        raise UsageError("--x-floor-frac must be in (0, 1)")
    rows = []
    for E in energies:
        amp = semiclassical.turning_point(E, lam)
        half = np.linspace(floor_frac * amp, amp, points // 2)
        grid = np.concatenate([-half[::-1], half])
        for x, p_plus, p_minus in classical.phase_curve(E, lam, grid):
            rows.append((float(E), float(x), float(p_plus), float(p_minus)))
    return ["E", "x", "p_plus", "p_minus"], rows, EXIT_OK


def run_wkb(args, cfg):
    n_max = _resolve(args, cfg, "n_max", int, 10)
    hbar = _resolve(args, cfg, "hbar", float, 1.0)
    A = _resolve(args, cfg, "turning_point", float, 1.0)
    rows = []
    for n in range(n_max + 1):
        lam = semiclassical.wkb_lambda(n, hbar)
        report = semiclassical.wkb_condition_check(n, hbar, A)
        rhs = (n + 0.5) * hbar * math.pi
        lhs = rhs + report.measured
        rows.append((n, lam, lhs, rhs, report.measured))
    return ["n", "lambda_n", "lhs", "rhs", "residual"], rows, EXIT_OK


def run_spectrum(args, cfg):
    alpha1 = _resolve(args, cfg, "alpha1", float, 0.0)
    gamma1 = _resolve(args, cfg, "gamma1", float, 0.75)
    n_max = _resolve(args, cfg, "n_max", int, 10)
    hbar = _resolve(args, cfg, "hbar", float, 1.0)
    ordering = SingleTermOrdering.from_alpha_gamma(alpha1, gamma1)
    rows = []
    for n in range(1, n_max + 1):
        lam = quantum.lambda_quantized(n, ordering, hbar)
        nu = quantum.nu_from_params(ordering, lam, hbar)
        rows.append((n, alpha1, gamma1, ordering.s, lam, nu))
    return ["n", "alpha1", "gamma1", "s", "lambda_n", "nu_roundtrip"], rows, EXIT_OK


def run_eigenfunction(args, cfg):
    n = _resolve(args, cfg, "n", int, None)
    E = _resolve(args, cfg, "energy", float, None)
    hbar = _resolve(args, cfg, "hbar", float, 1.0)
    amplitude = _resolve(args, cfg, "amplitude", float, 1.0)
    xs = parse_grid(_resolve(args, cfg, "x", str, "0.02:3:0.005"))
    xs = np.concatenate([-xs[::-1], xs]) if xs[0] > 0.0 else xs
    state = quantum.ContinuumState(n=n, E=E, amplitude=amplitude)
    psi = quantum.eigenfunction(xs, state, hbar)
    rows = [(float(x), float(v)) for x, v in zip(xs, psi)]
    return ["x", "psi"], rows, EXIT_OK


def run_box_spectrum(args, cfg):
    n = _resolve(args, cfg, "n", int, None)
    n_zeros = _resolve(args, cfg, "n_zeros", int, 5)
    eps = _resolve(args, cfg, "eps", float, 0.1)
    hbar = _resolve(args, cfg, "hbar", float, 1.0)
    states = quantum.box_spectrum(n, n_zeros, eps, hbar)
    rows = [(s.n, s.N, s.eps, s.energy, s.norm_const) for s in states]
    return ["n", "N", "eps", "E", "C"], rows, EXIT_OK


def run_verify(args, cfg):
    checks_spec = _resolve(args, cfg, "checks", str, "all")
    seed = _resolve(args, cfg, "seed", int, verification.DEFAULT_SEED)
    params = ModelParams(
        lam=_resolve(args, cfg, "lam", float, 1.0),
        hbar=_resolve(args, cfg, "hbar", float, 1.0),
        c1=_resolve(args, cfg, "c1", float, 1.0),
        c2=_resolve(args, cfg, "c2", float, -5.0),
    )
    ordering = SingleTermOrdering.from_alpha_gamma(
        _resolve(args, cfg, "alpha1", float, 0.0),
        _resolve(args, cfg, "gamma1", float, 0.75),
    )
    if checks_spec.strip() == "all":
        selection = verification.all_check_ids()
    else:
        selection = [c.strip() for c in checks_spec.split(",") if c.strip()]
    try:
        reports = verification.run_suite(
            selection, verification.SuiteConfig(params=params, ordering=ordering, seed=seed)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [
        (r.check_id, r.status, r.measured, r.tolerance, r.provenance, r.notes)
        for r in reports
    ]
    n_pass = sum(r.status == "pass" for r in reports)
    n_fail = sum(r.status == "fail" for r in reports)
    n_skip = sum(r.status == "skipped" for r in reports)
    print(
        f"verify: {n_pass} passed, {n_fail} failed, {n_skip} skipped",
        file=sys.stderr,
    )
    code = EXIT_OK if verification.suite_passed(reports) else EXIT_NUMERICAL
    return ["check_id", "status", "measured", "tolerance", "provenance", "notes"], rows, code


HANDLERS = {
    "trajectory": run_trajectory,
    "lambda-map": run_lambda_map,
    "phase-portrait": run_phase_portrait,
    "wkb": run_wkb,
    "spectrum": run_spectrum,
    "eigenfunction": run_eigenfunction,
    "box-spectrum": run_box_spectrum,
    "verify": run_verify,
}

PLOTTABLE = {
    "trajectory": ("t", ["x"]),
    "phase-portrait": ("x", ["p_plus", "p_minus"]),
    "eigenfunction": ("x", ["psi"]),
}

_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# companion plot script; reads the CSV written alongside it
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(Path({csv_name!r}).open()))
x = [float(r[{xcol!r}]) for r in rows]
for col in {ycols!r}:
    plt.plot(x, [float(r[col]) for r in rows], ".", ms=2, label=col)
plt.xlabel({xcol!r})
plt.legend()
plt.tight_layout()
plt.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
"""


def emit_plot_script(subcommand: str, output: str) -> Path:
    xcol, ycols = PLOTTABLE[subcommand]
    out = Path(output)
    script = out.with_name(out.stem + "_plot.py")
    script.write_text(
        _PLOT_TEMPLATE.format(
            csv_name=out.name, xcol=xcol, ycols=ycols, png_name=out.stem + ".png"
        )
    )
    return script


def build_parser() -> _Parser:
    parser = _Parser(prog="pdmosc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None, help="flat key=value config file")

    p = sub.add_parser("trajectory", help="closed-form trajectory samples (t, x, p, E)")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--t", type=str, default=None, help="time grid start:stop:step")
    p.add_argument("--emit-plot-script", action="store_true")

    p = sub.add_parser("lambda-map", help="bounded/singular classification over a lambda grid")
    add_common(p)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--window", type=str, default=None, help="time window t0:t1")

    p = sub.add_parser("phase-portrait", help="momentum branches between the turning points")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--energies", type=str, default=None, help="comma-separated energies")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--x-floor-frac", dest="x_floor_frac", type=float, default=None)
    p.add_argument("--emit-plot-script", action="store_true")

    p = sub.add_parser("wkb", help="semiclassical quantization table (n, lambda_n, lhs, rhs)")
    add_common(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--turning-point", dest="turning_point", type=float, default=None)

    p = sub.add_parser("spectrum", help="quantized coupling table lambda_n = (n^2 - s^2) hbar^2/4")
    add_common(p)
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--hbar", type=float, default=None)

    p = sub.add_parser("eigenfunction", help="bound-state samples (x, psi) on a symmetric grid")
    add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--E", dest="energy", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--x", type=str, default=None, help="positive half-grid start:stop:step (mirrored)")
    p.add_argument("--emit-plot-script", action="store_true")

    p = sub.add_parser("box-spectrum", help="box-regularized spectrum rows (n, N, eps, E, C)")
    add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-zeros", dest="n_zeros", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)

    p = sub.add_parser("verify", help="run the named verification checks")
    add_common(p)
    p.add_argument("--checks", type=str, default=None, help="'all' or comma-separated ids")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"pdmosc: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        cfg = load_config(args.config) if args.config else {}
        fmt = _resolve(args, cfg, "fmt", str, "csv")
        if fmt not in ("csv", "json"):
            raise UsageError(f"unknown format {fmt!r}")
        output = _resolve(args, cfg, "output", str, "") or None
        header, rows, code = HANDLERS[args.command](args, cfg)
        write_rows(header, rows, fmt, output)
        if getattr(args, "emit_plot_script", False):
            if not output or fmt != "csv":
                raise UsageError("--emit-plot-script requires --output and csv format")
            emit_plot_script(args.command, output)
        return code
    except UsageError as exc:
        print(f"pdmosc: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NUMERICAL_ERRORS as exc:
        print(f"pdmosc: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"pdmosc: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
