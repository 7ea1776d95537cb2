#!/usr/bin/env python3
"""pdmosc benchmark: one client in a closed loop, one operation in flight.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): ``cli_cold`` runs a fresh
``python -m pdmosc.cli`` process per operation; ``kernel_sweep`` runs
in-process studies.  Every operation is checked by an oracle that shares no
code with pdmosc (perfbench/oracle.py); on the default seed each output is
also compared with a recorded digest of its bytes.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` every operation runs twice, under a timing tracer and
untraced in alternating order, the first cycle runs once more under a
counting tracer, and the last line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import oracle
import workloads
from launcher import TIMEOUT_S as CHILD_TIMEOUT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: operations of a seed's pool (whole cycles).  A run executes the whole
#: pool once, then replays it from the start, in whole cycles, until
#: --seconds have passed; so the operations, and which of them fail, depend
#: only on the seed.  wall_tail_s is the percentile that leaves ten samples
#: above it in a run of this length
MIN_OPS = {"cli_cold": 4 * workloads.CYCLE_LENGTH["cli_cold"],
           "kernel_sweep": 7 * workloads.CYCLE_LENGTH["kernel_sweep"]}
#: the reference task (reference.py) runs before every k-th operation
REFERENCE_EVERY = {"cli_cold": 3, "kernel_sweep": 2}
MB = 1e6

#: -X importtime buckets: a module's self time goes to the nearest enclosing
#: package below (itself included)
IMPORT_BUCKETS = {"numpy": "import.numpy_s", "scipy.special": "import.scipy_special_s",
                  "scipy.integrate": "import.scipy_integrate_s"}


# ---------------------------------------------------------------------------
# child processes


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Launcher:
    """Client of launcher.py, which starts and times every child process."""

    def __init__(self, tmp: Path):
        self.out = tmp / "child.out"
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=_env(), cwd=ROOT, text=True)

    def run(self, cmd: list[str]) -> SimpleNamespace:
        """Run one child to exit; exec-to-exit wall time and the child's own peak RSS."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "out": str(self.out)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        r = json.loads(line)
        return SimpleNamespace(t0=r["t0"], t1=r["t1"], wall=r["t1"] - r["t0"],
                               rss_mb=r["maxrss_kb"] * 1024 / MB, code=r["code"],
                               out=self.out.read_bytes(),
                               err=self.out.with_suffix(".out.err").read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def import_split(err: bytes) -> tuple[dict, bytes]:
    """Per-package import seconds from ``-X importtime`` lines, and the other stderr."""
    stack, rest = [], []
    for line in err.decode(errors="replace").splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line.split("|")
        if not fields[0].split(":")[1].strip().isdigit():
            continue  # column header
        name = fields[2].rstrip("\n")
        depth = len(name) - len(name.lstrip())
        node = (name.strip(), int(fields[0].split(":")[1]), int(fields[1]), [])
        while stack and stack[-1][0] > depth:
            node[3].append(stack.pop()[1])
        stack.append((depth, node))
    split = Counter()

    def walk(node, bucket):
        name, self_us, _, children = node
        for prefix, key in IMPORT_BUCKETS.items():
            if name == prefix or name.startswith(prefix + "."):
                bucket = key
        split[bucket] += self_us / 1e6
        for child in children:
            walk(child, bucket)

    for _, root in stack:
        if root[0].split(".")[0] == "pdmosc":
            split["import.total_s"] += root[2] / 1e6
            walk(root, None)
    split.pop(None, None)
    return split, "".join(rest).encode()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# runners: set-up probe and one operation, traced or not


def child_reference(launcher: Launcher) -> float:
    """Seconds of one ``python reference.py`` child, exec to exit."""
    r = launcher.run([sys.executable, str(HERE / "reference.py")])
    if r.code:
        raise RuntimeError(f"reference task failed: {r.err.decode(errors='replace')}")
    return r.wall


#: typical seconds of one child_reference() on an idle machine
NOMINAL_CHILD_REF_S = 0.8


class CliRunner:
    """Fresh ``pdmosc`` process per operation."""

    NOMINAL_REF_S = NOMINAL_CHILD_REF_S

    def __init__(self, launcher: Launcher):
        self.launcher = launcher

    def reference(self) -> float:
        return child_reference(self.launcher)

    def setup(self, trace: bool) -> tuple[float, dict]:
        flags = ["-X", "importtime"] if trace else []
        r = self.launcher.run([sys.executable, *flags, "-c", "import pdmosc.cli"])
        if r.code:
            raise RuntimeError(f"import pdmosc.cli failed: {r.err.decode(errors='replace')}")
        return r.wall, import_split(r.err)[0] if trace else {}

    def execute(self, op: workloads.CliOp, index: int, mode: str) -> SimpleNamespace:
        """Run one operation; ``mode`` is "plain", or "time" / "count" for a tracer."""
        spans_path = self.launcher.out.with_name("spans.json")
        traced = mode != "plain"
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"), mode,
                   str(spans_path)] + op.argv
        else:
            cmd = [sys.executable, "-m", "pdmosc.cli"] + op.argv
        r = self.launcher.run(cmd)
        out = r.out
        imports, err = import_split(r.err) if traced else ({}, r.err)
        rows, cause = oracle.check_cli(op.argv, op.expect_code, r.code, out, err)
        res = SimpleNamespace(index=index, mode=mode, wall=r.wall, rss_mb=r.rss_mb,
                              rows=rows, bytes=len(out), cause=cause, what=" ".join(op.argv),
                              digest=_digest(r.code, out, err), sub=op.sub,
                              valid=op.expect_code == 0, imports=imports,
                              sample=(op, r.code, out, err))
        if traced:
            res.trace = self._op_trace(r, spans_path)
        return res

    @staticmethod
    def _op_trace(r, spans_path: Path) -> dict:
        """Child spans under a root span [exec, exit]; all on the system-wide perf_counter clock."""
        try:
            data = json.loads(spans_path.read_text())
            spans_path.unlink()
        except FileNotFoundError:
            data = {"start": r.t0, "import": [r.t0, r.t0], "main": [r.t0, r.t0],
                    "spans": [], "counts": {}, "finite_part_args": []}
        offset = 5  # root + the four process-level spans below
        spans = [["op", r.t0, r.t1, -1], ["startup", r.t0, data["start"], 0],
                 ["import", *data["import"], 0], ["trace.install", data["import"][1],
                                                  data["main"][0], 0],
                 ["teardown", data["main"][1], r.t1, 0]]
        for name, start, end, parent in data["spans"]:
            spans.append([name, start, end, 0 if parent < 0 else parent + offset])
        return {"spans": spans, "counts": Counter(data["counts"]),
                "distinct_A": len(data["finite_part_args"])}


class KernelRunner:
    """In-process studies; no import and no serialization in the timed region."""

    #: typical seconds of one in-process ``reference.compute()`` on an idle machine
    NOMINAL_REF_S = 0.06

    def __init__(self, launcher: Launcher):
        import reference
        import tracing

        self.launcher = launcher
        self.reference = reference.compute
        sys.path.insert(0, str(SRC))
        from pdmosc import bessel, classical, quantum, semiclassical, verification

        self.tracing = tracing
        self.pd = SimpleNamespace(bessel=bessel, classical=classical, quantum=quantum,
                                  semiclassical=semiclassical, verification=verification)
        workloads.warm_kernels(self.pd)

    def setup(self, trace: bool) -> tuple[float, dict]:
        flags = ["-X", "importtime"] if trace else []
        r = self.launcher.run([sys.executable, *flags, str(HERE / "child.py"), "warm"])
        if r.code:
            raise RuntimeError(f"kernel set-up failed: {r.err.decode(errors='replace')}")
        return json.loads(r.out)["setup_s"], import_split(r.err)[0] if trace else {}

    def execute(self, study: dict, index: int, mode: str) -> SimpleNamespace:
        """Run one study; ``mode`` is "plain", or "time" / "count" for a tracer."""
        traced = mode != "plain"
        tracer = self.tracing.Tracer(mode == "count") if traced else None
        restore = self.tracing.install(tracer, self.pd) if traced else None
        t0 = time.perf_counter()
        if traced:
            tracer.begin("op", t0)
        try:
            out = workloads.run_study(self.pd, study)
            cause = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, cause = None, oracle.Reported(f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.end()
                restore()
        wall = time.perf_counter() - t0
        cause = cause or oracle.check_study(study, out)
        res = SimpleNamespace(index=index, mode=mode, wall=wall, rss_mb=None,
                              rows=workloads.study_rows(out) if out else 0, bytes=0,
                              cause=cause, what=json.dumps(study), imports={},
                              digest=_digest(json.dumps(out, sort_keys=True)), sub=None,
                              valid=True, sample=(study, out))
        if traced:
            res.trace = {"spans": tracer.spans, "counts": tracer.counts,
                         "distinct_A": len(tracer.finite_part_args)}
        return res


# ---------------------------------------------------------------------------
# statistics


def tail(walls: list[float], min_ops: int) -> tuple[float, float, int]:
    """Value at the highest percentile that has ten samples above it in a run of
    ``min_ops`` operations: (value, percentile, n).

    The percentile is fixed per workload, not taken from this run's n: how
    many operations fit in a run follows the machine's speed, and a
    percentile that moved with n would move the tail of stratified sizes.
    """
    s, n = sorted(walls), len(walls)
    k = max(-(-(min_ops - 10) * n // min_ops) - 1, 0)  # ceil((min_ops - 10) n / min_ops) - 1
    return s[k], 100.0 * (min_ops - 10) / min_ops, n


def end_to_end(setups: list[float], walls: list[float], runs, min_ops: int) -> dict:
    """End-to-end metrics from set-up and operation times (raw or scaled)."""
    busy = sum(walls)
    value, pct, n = tail(walls, min_ops)
    rss = [r.rss_mb for r in runs if r.rss_mb is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": value, "tail_percentile": pct, "samples": n,
        "ops_per_s": len(runs) / busy,
        "rows_per_s": sum(r.rows for r in runs) / busy,
        "peak_rss_mb": max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def speed_scale(refs: list[tuple[float, float]], nominal: float):
    """Scale factor at time t: nominal over the mean of the references around t."""
    times = [t for t, _ in refs]

    def scale(t: float) -> float:
        i = bisect.bisect_right(times, t)
        around = [v for _, v in refs[max(i - 1, 0):i + 1]]
        return nominal / statistics.fmean(around)

    return scale


def per_layer(runs, counted, untraced, imports, per_layer_names) -> dict:
    """Per-layer metrics: times from the timing-traced operations ``runs``,
    exact counts from the counting-traced operations ``counted``."""
    incl, self_t = Counter(), Counter()
    uncovered, covered_base = 0.0, 0.0
    sub_time, sub_ops = Counter(), Counter()
    for r in runs:
        spans = r.trace["spans"]
        child_sum = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_sum[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            incl[name] += end - start
            self_t[name] += end - start - child_sum[i]
            if r.valid and name == f"cli.handler.{r.sub}":
                sub_time[r.sub] += end - start
        root = spans[0][2] - spans[0][1]
        uncovered += root - child_sum[0]
        covered_base += root
        sub_ops[r.sub] += r.valid  # invalid draws exit early; they would dilute the handler time
    n = len(runs)
    counts = sum((r.trace["counts"] for r in counted), Counter())
    distinct_A = sum(r.trace["distinct_A"] for r in counted)
    handlers = [k for k in incl if k.startswith("cli.handler.")]
    m = {f"{name}_s": incl[name] / n for name in incl}
    m.update({
        "cli.handler_s": sum(incl[k] for k in handlers) / n,
        "cli.rows_s": sum(self_t[k] for k in handlers) / n,
        "cli.write_mb_per_s": sum(r.bytes for r in runs) / MB / incl["cli.write"]
        if incl["cli.write"] else 0.0,
        "cli.rows": counts["cli.rows"],
        "cli.bytes": sum(r.bytes for r in counted),
        "bessel.zeros_per_jv_eval": counts["bessel.zero_calls"] / counts["bessel.jv_evals"]
        if counts["bessel.jv_evals"] else 0.0,
        "semiclassical.finite_part_reuse": distinct_A / counts["semiclassical.finite_part_calls"]
        if counts["semiclassical.finite_part_calls"] else 0.0,
        "trace.uncovered_s": uncovered / n,
        "trace.coverage": 1.0 - uncovered / covered_base,
        "trace.overhead_wall_p50_s": statistics.median(r.wall for r in runs)
        - statistics.median(r.wall for r in untraced),
    })
    for sub in workloads.SUBCOMMANDS:
        m[f"cli.handler.{sub}_s"] = sub_time[sub] / sub_ops[sub] if sub_ops[sub] else 0.0
    for key in ("bessel.zero_calls", "bessel.jv_evals", "semiclassical.finite_part_calls",
                "semiclassical.quad_integrand_evals", "quantum.quad_integrand_evals",
                "classical.rhs_evals"):
        m[key] = counts[key]
    for key in ("import.total_s", *IMPORT_BUCKETS.values()):
        m[key] = statistics.median(i.get(key, 0.0) for i in imports) if imports else 0.0
    return {name: m.get(name, 0.0) for name in per_layer_names}


def operation_outcomes(results) -> tuple[int, list[int]]:
    """Distinct operations of the pool, and those that failed.

    An operation fails if any of its executions, replayed or traced, fails;
    so both figures depend only on the seed, not on how many replays fit.
    """
    return len({r.op for r in results}), sorted({r.op for r in results if r.cause})


# ---------------------------------------------------------------------------
# negative control


def flip_digit(data: bytes, start: int) -> bytes:
    """data with the first digit at or after ``start`` changed."""
    i = next(k for k in range(start, len(data)) if data[k:k + 1].isdigit())
    return data[:i] + str((int(data[i:i + 1]) + 1) % 10).encode() + data[i + 1:]


def _control_eligible(r) -> bool:
    return r.cause is None and r.rows > 0 and (r.sub is None or r.sub in oracle.NUMERIC)


def negative_control(sample) -> bool:
    """A flipped digit and a wrong exit code must both be caught by the oracle."""
    if sample is None:
        return False
    if isinstance(sample[0], workloads.CliOp):
        op, code, out, err = sample
        flipped = flip_digit(out, out.index(b"\n") + 1 if op.fmt == "csv" else 0)
        return (oracle.check_cli(op.argv, op.expect_code, code, flipped, err)[1] is not None
                and oracle.check_cli(op.argv, op.expect_code, code + 1, out, err)[1] is not None)
    study, out = sample
    bad = dict(out, box_E=[out["box_E"][0] * (1 + 1e-6)] + out["box_E"][1:])
    return oracle.check_study(study, bad) is not None


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool):
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(tmp)
    try:
        runner = (KernelRunner if workload == "kernel_sweep" else CliRunner)(launcher)
        # each set-up is a fresh child, scaled by the child reference just before it
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            ref = child_reference(launcher)
            wall, split = runner.setup(trace)
            setups.append((wall, wall * NOMINAL_CHILD_REF_S / ref))
            imports.append(split)
        refs = []
        expected = json.loads(DIGESTS.read_text()).get(workload, []) if seed == DEFAULT_SEED else []
        pool = list(itertools.islice(workloads.schedule(workload, seed), MIN_OPS[workload]))
        results, sample = [], None
        deadline = time.perf_counter() + seconds
        index = 0
        cycle = workloads.CYCLE_LENGTH[workload]
        # runs hold whole cycles, so every run sees the same mix of operations
        while index < len(pool) or time.perf_counter() < deadline or index % cycle:
            if index % REFERENCE_EVERY[workload] == 0:
                refs.append((time.perf_counter(), runner.reference()))
            op_id = index % len(pool)
            op = pool[op_id]
            modes = ("plain",)
            if trace:
                modes = ("time", "plain") if index % 2 == 0 else ("plain", "time")
                if index < cycle:  # exact counts come from the first cycle
                    modes += ("count",)
            group = []
            for mode in modes:
                start = time.perf_counter()
                group.append(runner.execute(op, index, mode))
                group[-1].start, group[-1].op = start, op_id
            for r in group:
                r.cause = r.cause or digest_cause(r.digest, op_id, expected)
                if r.digest != group[0].digest and not (r.cause or group[0].cause):
                    r.cause = f"{r.mode}-traced and {group[0].mode} outputs differ"
            for r in group:
                if sample is None and _control_eligible(r):
                    sample = r.sample
                r.sample = None  # outputs can be large; keep one for the negative control
            results.extend(group)
            index += 1
        refs.append((time.perf_counter(), runner.reference()))
    finally:
        launcher.close()
        shutil.rmtree(tmp, ignore_errors=True)
    scale = speed_scale(refs, runner.NOMINAL_REF_S)
    for r in results:
        r.scaled = r.wall * scale(r.start)
    return setups, imports, results, sample


def digest_cause(digest: str, index: int, expected: list[str]):
    """Cause when a default-seed output's digest differs from the recorded one."""
    if index < len(expected) and digest != expected[index]:
        return f"output digest {digest} differs from recorded {expected[index]}"
    return None


def record_digests(workload: str, count: int) -> None:
    """Store the output digests of the first ``count`` default-seed operations."""
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(tmp)
    try:
        runner = (KernelRunner if workload == "kernel_sweep" else CliRunner)(launcher)
        ops = workloads.schedule(workload, DEFAULT_SEED)
        results = [runner.execute(next(ops), i, "plain") for i in range(count)]
    finally:
        launcher.close()
        shutil.rmtree(tmp, ignore_errors=True)
    bad = [r for r in results if oracle.is_wrong(r.cause)]
    if bad:
        sys.exit(f"not recording: {len(bad)} operations give wrong output, first: {bad[0].cause}")
    for r in results:
        if r.cause:
            print(f"recorded a failure that pdmosc reports, op {r.index}: {r.what}: {r.cause}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[workload] = [r.digest for r in results]
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CYCLE_LENGTH))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", type=int, default=0, metavar="N",
                    help="record the digests of the first N default-seed operations and exit")
    args = ap.parse_args()
    if not (SRC / "pdmosc" / "cli.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no pdmosc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(args.workload, args.record_digests)
        return 0
    spec = json.loads(SPEC.read_text())

    setups, imports, results, sample = measure(args.workload, args.seed, args.seconds,
                                               bool(args.trace))
    untraced = [r for r in results if r.mode == "plain"]
    traced = [r for r in results if r.mode == "time"]
    counted = [r for r in results if r.mode == "count"]
    failed = [r for r in results if r.cause]
    wrong = [r for r in failed if oracle.is_wrong(r.cause)]
    attempted, failed_ops = operation_outcomes(results)
    control = negative_control(sample)

    scaled_setups = [s for _, s in setups]
    min_ops = MIN_OPS[args.workload]
    e2e = end_to_end(scaled_setups, [r.scaled for r in untraced], untraced, min_ops)
    raw = end_to_end([w for w, _ in setups], [r.wall for r in untraced], untraced, min_ops)
    speed = statistics.median(r.scaled / r.wall for r in untraced)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, 1 client, "
          f"{len(untraced)} untraced executions of {attempted} operations, "
          f"{len(failed_ops)} operations failed, {len(wrong)} executions with wrong output")
    print(f"  times scaled to nominal machine speed, median factor {speed:.4f} (reference task); "
          f"raw: " + ", ".join(f"{k} {raw[k]:.6g}" for k in ("setup_s", "wall_p50_s", "wall_tail_s",
                                                             "ops_per_s", "rows_per_s")))
    for name, value, unit in [
        ("setup_s", e2e["setup_s"], f"s (median of {len(setups)} set-ups)"),
        ("wall_p50_s", e2e["wall_p50_s"], "s"),
        ("wall_tail_s", e2e["wall_tail_s"], f"s (p{e2e['tail_percentile']:.1f} of {e2e['samples']} samples)"),
        ("ops_per_s", e2e["ops_per_s"], "1/s"),
        ("rows_per_s", e2e["rows_per_s"], "1/s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("error_rate", len(failed_ops) / attempted, f"({len(failed_ops)} failed / {attempted} operations)"),
    ]:
        print(f"  {name:<14} {value:.6g} {unit}")
    if traced:
        t = end_to_end(scaled_setups, [r.scaled for r in traced], traced, min_ops)
        print("  tracing overhead (timing-traced - untraced, scaled): " + ", ".join(
            f"{k} {t[k] - e2e[k]:+.4g}" for k in ("wall_p50_s", "wall_tail_s", "ops_per_s",
                                                   "rows_per_s", "peak_rss_mb")))
        first = [r.wall for r in untraced if r.index in {c.index for c in counted}]
        print(f"  counting-tracer overhead on the first cycle (raw wall_p50_s): "
              f"{statistics.median(r.wall for r in counted) - statistics.median(first):+.4g}")
    print(f"  negative control flagged: {control}")
    for op in failed_ops:
        runs = [r for r in failed if r.op == op]
        kind = "wrong output" if any(oracle.is_wrong(r.cause) for r in runs) else "reported by pdmosc"
        print(f"  FAILED op {op} ({kind}, {len(runs)} of {sum(r.op == op for r in results)} "
              f"executions): {runs[0].what}: {runs[0].cause}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        imports += [r.imports for r in traced if r.imports]
        values = per_layer(traced, counted, untraced, imports, list(units))
        for name, value in values.items():
            print(f"  {name:<40} {value:.6g} {units[name]}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: e2e[name] for name in units}
    print(json.dumps({
        "correct": not wrong and control,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
