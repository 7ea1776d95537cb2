"""Command-line front end emitting bit-stable CSV / line-delimited JSON.

Subcommands map one-to-one onto the library surfaces: `trajectory`,
`lambda-map`, `phase-portrait`, `wkb`, `spectrum`, `eigenfunction`,
`box-spectrum`, and `verify`.  CSV prints floats with ``.17g`` and JSON
with their shortest round-trip repr (``0.0``, not ``0``; ``0.1``, not
``0.10000000000000001``); both read back to the same double, so datasets
diff reproducibly.  Exit codes: 0 success, 1 validation error (any
ValueError or OSError), 2 failed verification or numerical failure: any
ArithmeticError, as every pdmosc non-convergence, blow-up or non-finite row is.

Every option but ``--config`` and ``--emit-plot-script`` can also come from a
flat key=value config file (``--config``), keyed by its dest in :data:`SUBCOMMANDS`;
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
from typing import Callable, NamedTuple

import numpy as np
from numpy import errstate

from . import bessel, classical, quantum, semiclassical, verification
from .classical import ModelParams
from .quantum import SingleTermOrdering
from .verification import FAIL, PASS, SKIPPED, SuiteConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

#: cap on a grid's (stop - start)/step and on every row-count option (1e6 rows peak near 0.4 GB)
MAX_POINTS = 10**7


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each token that follows an option taking a value attached to it as
    ``--X=token`` where it starts with '-' and is neither one of the subcommand's flags nor
    -h/--help: argparse would read it as a flag unless it looks like -1 or -0.5, so
    ``--c2 -1e-5`` and ``--window -2:2`` would lose their values."""
    command = next((a for a in argv if a in SUBCOMMANDS), None)
    if command is None:
        return argv
    valued = {opt.flag for opt in COMMON_OPTIONS + SUBCOMMANDS[command][2]}
    flags = valued | {"-h", "--help", "--emit-plot-script"}
    out = []
    for a in argv:
        if out and out[-1] in valued and a.startswith("-") and a not in flags:
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):
        """argparse reports a subcommand's unknown flags from the top-level parser,
        whose help does not list them; point to the subcommand's help instead."""
        args = sys.argv[1:] if args is None else list(args)
        args, extras = self.parse_known_args(_attach_values(args), namespace)
        if extras:
            raise ValueError(f"unrecognized arguments: {' '.join(extras)}; "
                             f"see '{self.prog} {args.command} --help' for usage")
        return args

    def error(self, message):  # argparse would sys.exit(2); the contract wants 1
        raise ValueError(f"{message}; see '{self.prog} --help' for usage")


def write_rows(header: list[str], rows: list[tuple], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:  # line-delimited JSON records
        lines = [json.dumps(dict(zip(header, row)), allow_nan=True) for row in rows]
        text = "\n".join(lines) + ("\n" if lines else "")
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def build_rows(header: list[str], columns: list, refuse_non_finite: bool) -> list[tuple]:
    """Zip a handler's columns into rows, repeating a scalar down its column.  With
    refuse_non_finite, the first row holding a NaN or infinite float raises before
    anything is written, naming its first such column; None is an empty cell."""
    columns = np.broadcast_arrays(*map(np.asarray, columns))
    if refuse_non_finite:  # None, an empty cell, reads as 0.0 here; strings are never refused
        cells = [np.where(c == None, 0.0, c).astype(float) if c.dtype == object else c  # noqa: E711
                 for c in columns]
        bad = np.array([~np.isfinite(c) if c.dtype.kind == "f" else np.zeros(c.shape, bool)
                        for c in cells]).T
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), len(columns))  # the first row, then its first column
            raise FloatingPointError(f"non-finite {header[j]} = {float(columns[j][i])} in row {i + 1}")
    return list(zip(*(c.tolist() for c in columns)))


class Option(NamedTuple):
    """One option of one subcommand: dest is also its config-file key, type casts
    flag and config values alike, and a default of None makes it required.  A
    row count declares its lowest value in low; MAX_POINTS is its highest."""

    flag: str
    dest: str
    type: Callable
    default: object
    help: str | None = None
    choices: tuple[str, ...] | None = None
    low: int | None = None


#: options every subcommand takes, ahead of its own
COMMON_OPTIONS = [
    Option("--format", "fmt", str, "csv", choices=("csv", "json")),
    Option("--output", "output", str, "", "output path (default: stdout)"),
    Option("--config", "config", str, "", "flat key=value config file"),
]


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments allowed.  Keys are the
    dests of :data:`SUBCOMMANDS` options (``-`` reads as ``_``); others are errors."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _resolve(args, cfg: dict[str, str], opt: Option):
    """flag > config file entry > built-in default; whichever source gave it,
    a float must be finite, hbar positive, the seed non-negative, a row count
    within [low, MAX_POINTS] and a value with choices one of them."""
    value = getattr(args, opt.dest)
    if value is None and opt.dest in cfg:
        try:
            value = opt.type(cfg[opt.dest])
        except ValueError as exc:
            raise ValueError(f"config entry {opt.dest}={cfg[opt.dest]!r}: {exc}") from exc
    if value is None:
        if opt.default is None:
            raise ValueError(f"missing required option {opt.flag}")
        value = opt.default
    if opt.type is float and not math.isfinite(value):
        raise ValueError(f"{opt.flag} must be finite, got {value}")
    if opt.dest == "hbar" and value <= 0.0:
        raise ValueError(f"{opt.flag} must be positive, got {value}")
    if opt.dest == "seed" and value < 0:
        raise ValueError(f"{opt.flag} must be non-negative, got {value}")
    if opt.low is not None and not opt.low <= value <= MAX_POINTS:
        raise ValueError(f"{opt.flag} must be between {opt.low} and {MAX_POINTS}, got {value}")
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{opt.flag} must be one of {', '.join(opt.choices)}, got {value!r}")
    return value


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
    count = (stop - start) / step  # finite fields can still overflow to inf
    if not count < MAX_POINTS:
        raise ValueError(f"too many grid points in {spec!r}")
    return start + step * np.arange(int(round(count)) + 1)


def parse_floats(spec: str) -> list[float]:
    try:
        values = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise ValueError(f"bad float list {spec!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ValueError(f"every value must be finite in {spec!r}")
    return values


def parse_window(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected t0:t1, got {spec!r}")
    return float(parts[0]), float(parts[1])


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the resolved options and returns (header, columns,
# exit_code), a column being an array, a sequence or one value for every row


def run_trajectory(o):
    params = ModelParams(lam=o.lam, c1=o.c1, c2=o.c2)
    ts = parse_grid(o.t)
    xs = classical.exact_solution(ts, params)
    ps = classical.exact_momentum(ts, params)
    es = classical.hamiltonian(xs, ps, params.lam)
    return ["t", "x", "p", "E"], [ts, xs, ps, es], EXIT_OK


def run_lambda_map(o):
    window = parse_window(o.window)
    if not math.isfinite(o.lambda_max - o.lambda_min):
        raise ValueError(f"--lambda-max - --lambda-min overflows: {o.lambda_max} - {o.lambda_min}")
    params = ModelParams(lam=np.linspace(o.lambda_min, o.lambda_max, o.count), c1=o.c1, c2=o.c2)
    status, t_star = classical.classify_lambda(params, window), classical.singularity_time(params)
    return ["lambda", "status", "singular_time"], [params.lam, status, t_star], EXIT_OK


def run_phase_portrait(o):
    energies = parse_floats(o.energies)
    if not energies:
        raise ValueError("--energies must name at least one energy")
    curves = [classical.phase_curve(E, o.lam, o.points, o.x_floor_frac) for E in energies]
    tables = [np.column_stack([np.full(o.points, E), c]) for E, c in zip(energies, curves)]
    return ["E", "x", "p_plus", "p_minus"], list(np.concatenate(tables).T), EXIT_OK


def run_wkb(o):
    n = np.arange(o.n_max + 1)
    c = semiclassical.wkb_condition_check(n, o.hbar, o.turning_point)
    return ["n", "lambda_n", "lhs", "rhs", "residual"], [n, *c], EXIT_OK


def run_spectrum(o):
    ordering = SingleTermOrdering.from_alpha_gamma(o.alpha1, o.gamma1)
    n = np.arange(1, o.n_max + 1)
    lam = quantum.lambda_quantized(n, ordering, o.hbar)
    nu = quantum.nu_from_params(ordering, lam, o.hbar)
    columns = [n, o.alpha1, o.gamma1, ordering.s, lam, nu]
    return ["n", "alpha1", "gamma1", "s", "lambda_n", "nu_roundtrip"], columns, EXIT_OK


def run_eigenfunction(o):
    if o.n > bessel.ORDER_MAX:
        raise ValueError(f"--n {o.n} needs J_{o.n}, past J's domain "
                         f"(order <= {bessel.ORDER_MAX:g})")
    xs = parse_grid(o.x)
    xs = np.concatenate([-xs[::-1], xs]) if xs[0] > 0.0 else xs
    state = quantum.ContinuumState(n=o.n, E=o.energy, amplitude=o.amplitude)
    return ["x", "psi"], [xs, quantum.eigenfunction(xs, state, o.hbar)], EXIT_OK


def run_box_spectrum(o):
    if o.n + 1 > bessel.ORDER_MAX:  # the norms evaluate J_{n+1}
        raise ValueError(f"--n {o.n} needs J_{o.n + 1}, past J's domain "
                         f"(order <= {bessel.ORDER_MAX:g})")
    eps, n, N, E, C = zip(*quantum.box_spectrum(o.n, o.n_zeros, o.eps, o.hbar))
    return ["n", "N", "eps", "E", "C"], [n, N, eps, E, C], EXIT_OK


def run_verify(o):
    params = ModelParams(lam=o.lam, c1=o.c1, c2=o.c2)
    ordering = SingleTermOrdering.from_alpha_gamma(o.alpha1, o.gamma1)
    if o.checks.strip() == "all":
        selection = verification.all_check_ids()
    else:
        selection = [c.strip() for c in o.checks.split(",") if c.strip()]
    reports = verification.run_suite(
        selection, SuiteConfig(params=params, ordering=ordering, seed=o.seed, hbar=o.hbar)
    )
    columns = list(zip(*reports))  # a report is a tuple of its columns
    status = columns[1]
    print(f"verify: {status.count(PASS)} passed, {status.count(FAIL)} failed, "
          f"{status.count(SKIPPED)} skipped", file=sys.stderr)
    code = EXIT_OK if verification.suite_passed(reports) else EXIT_NUMERICAL
    return list(verification.VerificationReport._fields), columns, code


#: subcommand -> (handler, help, options): the parser, the option resolution
#: and the dispatch all read this one table
SUBCOMMANDS = {
    "trajectory": (run_trajectory, "closed-form trajectory samples (t, x, p, E)", [
        Option("--lambda", "lam", float, None),
        Option("--c1", "c1", float, 1.0),
        Option("--c2", "c2", float, 0.0),
        Option("--t", "t", str, "0:10:0.01", "time grid start:stop:step"),
    ]),
    "lambda-map": (run_lambda_map, "bounded/singular classification over a lambda grid", [
        Option("--lambda-min", "lambda_min", float, -2.0),
        Option("--lambda-max", "lambda_max", float, 2.0),
        Option("--count", "count", int, 81, low=2),
        Option("--c1", "c1", float, 1.0),
        Option("--c2", "c2", float, -5.0),
        Option("--window", "window", str, "0:10", "time window t0:t1"),
    ]),
    "phase-portrait": (run_phase_portrait, "momentum branches between the turning points", [
        Option("--lambda", "lam", float, None),
        Option("--energies", "energies", str, "0.5,0.7,0.8,1", "comma-separated energies"),
        Option("--points", "points", int, 400, low=4),
        Option("--x-floor-frac", "x_floor_frac", float, 0.05),
    ]),
    "wkb": (run_wkb, "semiclassical quantization table (n, lambda_n, lhs, rhs)", [
        Option("--n-max", "n_max", int, 10, low=0),
        Option("--hbar", "hbar", float, 1.0),
        Option("--turning-point", "turning_point", float, 1.0),
    ]),
    "spectrum": (run_spectrum, "quantized coupling table lambda_n = (n^2 - s^2) hbar^2/4", [
        Option("--alpha1", "alpha1", float, 0.0),
        Option("--gamma1", "gamma1", float, 0.75),
        Option("--n-max", "n_max", int, 10, low=1),
        Option("--hbar", "hbar", float, 1.0),
    ]),
    "eigenfunction": (run_eigenfunction, "bound-state samples (x, psi) on a symmetric grid", [
        Option("--n", "n", int, None),
        Option("--E", "energy", float, None),
        Option("--hbar", "hbar", float, 1.0),
        Option("--amplitude", "amplitude", float, 1.0),
        Option("--x", "x", str, "0.02:3:0.005", "start:stop:step; mirrored if start > 0, else as given"),
    ]),
    "box-spectrum": (run_box_spectrum, "box-regularized spectrum rows (n, N, eps, E, C)", [
        Option("--n", "n", int, None),
        Option("--n-zeros", "n_zeros", int, 5, low=1),
        Option("--eps", "eps", float, 0.1),
        Option("--hbar", "hbar", float, 1.0),
    ]),
    "verify": (run_verify, "run the named verification checks", [
        Option("--checks", "checks", str, "all", "'all' or comma-separated ids"),
        Option("--seed", "seed", int, SuiteConfig().seed),
        Option("--lambda", "lam", float, SuiteConfig().params.lam),
        Option("--hbar", "hbar", float, SuiteConfig().hbar),
        Option("--c1", "c1", float, SuiteConfig().params.c1),
        Option("--c2", "c2", float, SuiteConfig().params.c2),
        Option("--alpha1", "alpha1", float, SuiteConfig().ordering.alpha1),
        Option("--gamma1", "gamma1", float, SuiteConfig().ordering.gamma1),
    ]),
}

#: main dispatches through this mapping, whose entries perfbench/tracing.py wraps
HANDLERS = {name: handler for name, (handler, _, _) in SUBCOMMANDS.items()}

#: a config file may set any option of any subcommand but --config, so one file can serve several
CONFIG_KEYS = frozenset(
    opt.dest for _, _, options in SUBCOMMANDS.values() for opt in COMMON_OPTIONS + options
) - {"config"}

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
    # allow_abbrev=False: _attach_values matches flags as the option table spells them,
    # so argparse reads no prefix of one either
    parser = _Parser(prog="pdmosc", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for opt in COMMON_OPTIONS + options:
            p.add_argument(opt.flag, dest=opt.dest, type=opt.type, choices=opt.choices, help=opt.help)
        if name in PLOTTABLE:
            p.add_argument("--emit-plot-script", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config else {}
        options = COMMON_OPTIONS + SUBCOMMANDS[args.command][2]
        o = argparse.Namespace(**{opt.dest: _resolve(args, cfg, opt) for opt in options})
        output = o.output or None
        plot = getattr(args, "emit_plot_script", False)
        if plot and (not output or o.fmt != "csv"):
            raise ValueError("--emit-plot-script requires --output and csv format")
        with errstate(all="ignore"):  # build_rows refuses the NaN or inf a silenced overflow leaves
            header, columns, code = HANDLERS[args.command](o)
            rows = build_rows(header, columns, args.command != "verify")  # a skipped check is NaN
        write_rows(header, rows, o.fmt, output)
        if plot:
            emit_plot_script(args.command, output)
        return code
    except (OverflowError, ZeroDivisionError) as exc:  # as in wkb --hbar 1e200, verify --c1 1e-300
        print(f"pdmosc: numerical failure: {args.command}: an input is too large or too small "
              f"({exc.args[-1]})", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        print(f"pdmosc: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"pdmosc: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
