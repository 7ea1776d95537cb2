"""In-memory span tracer installed around pdmosc's public functions.

:func:`install` replaces each traced function at the module attribute its
callers look up (``quantum.bessel_zero`` as well as ``bessel.bessel_zero``,
the entries of ``cli.HANDLERS`` and ``verification.CHECKS``), so pdmosc's
own source is never touched.  Spans are ``[name, start, end, parent]`` rows
on the :func:`time.perf_counter` clock (CLOCK_MONOTONIC on Linux, so spans
from a child process line up with the parent's timestamps).

A tracer either times or counts.  A timing tracer installs span wrappers
only.  A counting tracer also counts the work (every quadrature integrand
call, every J_nu value, every finite-part argument), which costs more than
the work it counts in some layers, so its spans are not used as times.
"""

from __future__ import annotations

import time
from collections import Counter

#: (module, attribute, span name) of every plain timed function
TIMED = [
    ("classical", "exact_solution", "classical.exact"),
    ("classical", "exact_momentum", "classical.exact"),
    ("classical", "hamiltonian", "classical.exact"),
    ("classical", "phase_curve", "classical.exact"),
    ("classical", "classify_lambda", "classical.classify"),
    ("classical", "singularity_time", "classical.classify"),
    ("classical", "integrate_eom", "classical.integrate_eom"),
    ("quantum", "box_spectrum", "quantum.box_spectrum"),
    ("quantum", "box_orthonormality", "quantum.box_orthonormality"),
    ("quantum", "overlap_kernel", "quantum.overlap_kernel"),
    ("quantum", "eigenfunction", "quantum.eigenfunction"),
    ("quantum", "ode_residual", "quantum.ode_residual"),
    ("cli", "load_config", "cli.config"),
    ("cli", "_resolve", "cli.config"),
]


class Tracer:
    """Spans and, when ``count`` is set, work counts of one process, kept in memory."""

    def __init__(self, count: bool = False):
        self.count = count
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.finite_part_args: set = set()

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def counting(self, fn, key: str):
        """fn with its calls counted under ``key``."""

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


class _SpecialProxy:
    """Stands in for ``bessel._sp``; counts every J_nu value evaluated."""

    def __init__(self, sp, tracer: Tracer, np):
        self._sp, self._tracer, self._np = sp, tracer, np

    def jv(self, nu, x):
        self._tracer.counts["bessel.jv_evals"] += self._np.broadcast(nu, x).size
        return self._sp.jv(nu, x)

    def __getattr__(self, name):
        return getattr(self._sp, name)


def install(tracer: Tracer, pd) -> callable:
    """Wrap pdmosc's traced functions; returns a function that undoes it.

    ``pd`` is a namespace with the modules bessel, classical, semiclassical,
    quantum, verification and, optionally, cli.
    """
    import numpy as np

    undo = []

    def patch(obj, attr, value, mapping=False):
        old = obj[attr] if mapping else getattr(obj, attr)
        undo.append((obj, attr, old, mapping))
        if mapping:
            obj[attr] = value
        else:
            setattr(obj, attr, value)
        return old

    for mod_name, attr, span in TIMED:
        mod = getattr(pd, mod_name, None)
        if mod is not None:
            patch(mod, attr, tracer.timed(getattr(mod, attr), span))

    finite_part, zero = pd.semiclassical.finite_part_action, pd.bessel.bessel_zero
    if tracer.count:
        fp = finite_part

        def finite_part(A):
            tracer.finite_part_args.add(float(A))
            return fp(A)

        finite_part = tracer.counting(finite_part, "semiclassical.finite_part_calls")
        zero = tracer.counting(zero, "bessel.zero_calls")
        patch(pd.bessel, "_sp", _SpecialProxy(pd.bessel._sp, tracer, np))

        for mod, key in ((pd.semiclassical, "semiclassical.quad_integrand_evals"),
                         (pd.quantum, "quantum.quad_integrand_evals")):
            def quad(func, *args, _quad=mod.quad, _key=key, **kwargs):
                return _quad(tracer.counting(func, _key), *args, **kwargs)

            patch(mod, "quad", quad)

        solve_ivp = pd.classical.solve_ivp

        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            tracer.counts["classical.rhs_evals"] += int(sol.nfev)
            return sol

        patch(pd.classical, "solve_ivp", counted_solve_ivp)
    patch(pd.semiclassical, "finite_part_action", tracer.timed(finite_part, "semiclassical.finite_part"))
    zero = tracer.timed(zero, "bessel.zero")
    patch(pd.bessel, "bessel_zero", zero)
    patch(pd.quantum, "bessel_zero", zero)

    for check_id, fn in list(pd.verification.CHECKS.items()):
        patch(pd.verification.CHECKS, check_id, tracer.timed(fn, f"verification.{check_id}"), True)

    cli = getattr(pd, "cli", None)
    if cli is not None:
        for sub, fn in list(cli.HANDLERS.items()):
            patch(cli.HANDLERS, sub, tracer.timed(fn, f"cli.handler.{sub}"), True)
        build = cli.build_parser

        def build_parser():
            tracer.begin("cli.parse")
            parser = build()
            parse = parser.parse_args

            def parse_args(argv=None):
                try:
                    return parse(argv)
                finally:
                    tracer.end()

            parser.parse_args = parse_args
            return parser

        patch(cli, "build_parser", build_parser)
        write_rows = cli.write_rows
        if tracer.count:
            write = write_rows

            def write_rows(header, rows, fmt, output):
                tracer.counts["cli.rows"] += len(rows)
                return write(header, rows, fmt, output)

        patch(cli, "write_rows", tracer.timed(write_rows, "cli.write"))

    def restore():
        for obj, attr, old, mapping in reversed(undo):
            if mapping:
                obj[attr] = old
            else:
                setattr(obj, attr, old)

    return restore
