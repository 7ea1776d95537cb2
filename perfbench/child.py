"""Child-process side of the benchmark.

``python child.py <time|count> <spans.json> <pdmosc argv...>`` runs one
traced CLI operation: it imports ``pdmosc.cli``, installs the wrappers of a
timing or a counting tracer (see tracing.py), calls ``cli.main(argv)`` and
writes its spans and counts to ``spans.json`` before exiting with main's
exit code.  Start it with ``-X importtime`` to get the
per-module import split on stderr.

``python child.py warm`` is the kernel_sweep set-up probe: in-process import
of pdmosc plus one warm call of each kernel; it prints the elapsed seconds.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402


def _modules(with_cli: bool) -> SimpleNamespace:
    from pdmosc import bessel, classical, quantum, semiclassical, verification

    pd = SimpleNamespace(bessel=bessel, classical=classical, quantum=quantum,
                         semiclassical=semiclassical, verification=verification)
    if with_cli:
        from pdmosc import cli

        pd.cli = cli
    return pd


def trace(count: bool, spans_path: str, argv: list[str]) -> int:
    import tracing

    t_import = time.perf_counter()
    pd = _modules(with_cli=True)
    t_imported = time.perf_counter()
    tracer = tracing.Tracer(count)
    tracing.install(tracer, pd)
    t_main = time.perf_counter()
    code = pd.cli.main(argv)
    sys.stdout.flush()
    t_done = time.perf_counter()
    with open(spans_path, "w") as fh:
        json.dump({
            "start": T_START, "import": [t_import, t_imported], "main": [t_main, t_done],
            "spans": tracer.spans, "counts": tracer.counts,
            "finite_part_args": sorted(tracer.finite_part_args),
        }, fh)
    return code


def warm() -> int:
    import workloads

    t0 = time.perf_counter()
    workloads.warm_kernels(_modules(with_cli=False))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    if sys.argv[1] in ("time", "count"):
        sys.exit(trace(sys.argv[1] == "count", sys.argv[2], sys.argv[3:]))
    sys.exit(warm())
