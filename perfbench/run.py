"""The spgrid benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 30 --trace 0

One client, one process, one thread.  The run times whole blocks of
operations (every cell of the workload once per block, see
``workloads.py``) until at least ``--seconds`` have passed and at least
``MIN_OPS`` operations ran, and checks every answer against
``reference.json``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every operation twice in a row, untraced and then with
every layer wrapped, and prints the per-layer metrics.  The last line of standard output is the
JSON result; the full record, with provenance, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One thread: fixed before numpy loads its BLAS, and inherited by the probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_OPS = 100        # so that at least ten operations lie beyond op_s_p90
SETUP_PROBES = 7     # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT = 60.0
QUANTILE_GRID = 200_000
CAL_SIZE = 5000     # calibration kernel: about 3 ms
CAL_EVERY = 0.25    # seconds between calibration samples in the timed loop
CAL_WINDOW = 2.0    # an op is scaled by the samples within this many seconds
# The kernel's median time on the machine the benchmark was written on
# (2-core Xeon VM, Python 3.11.7, numpy 2.4.6); the reference speed.
CAL_REF_S = 3.0e-3

S_OP, N_OP = "s/op", "count/op"

# (name, unit, value(totals, counts, ops)) of the traced run.  Seconds and
# counts are per operation, so runs of different lengths compare.
PER_LAYER = (
    ("linsolve.thomas_solve.s", S_OP, lambda t, c, n: t["linsolve.thomas_solve"]["s"] / n),
    ("linsolve.thomas_solve.calls", N_OP,
     lambda t, c, n: t["linsolve.thomas_solve"]["calls"] / n),
    ("linsolve.unknowns", N_OP, lambda t, c, n: c["linsolve.unknowns"] / n),
    ("linsolve.thomas_solve.ns_per_unknown", "ns",
     lambda t, c, n: _ratio(1e9 * t["linsolve.thomas_solve"]["s"], c["linsolve.unknowns"])),
    ("newton.reduced_initial.s", S_OP, lambda t, c, n: t["newton.reduced_initial"]["s"] / n),
    ("newton.reduced_initial.points_per_node", "points/node",
     lambda t, c, n: _ratio(c["newton.reduced_initial.points"],
                            c["newton.reduced_initial.nodes"])),
    ("newton.residual.s", S_OP, lambda t, c, n: t["newton.residual"]["s"] / n),
    ("newton.jacobian.s", S_OP, lambda t, c, n: t["newton.jacobian"]["s"] / n),
    ("newton.newton_step.self_s", S_OP,
     lambda t, c, n: t["newton.newton_step"]["self_s"] / n),
    ("newton.solve.calls", N_OP, lambda t, c, n: t["newton.solve"]["calls"] / n),
    ("newton.iterations", N_OP, lambda t, c, n: c["newton.iterations"] / n),
    ("newton.iterations_per_solve", "iter/solve",
     lambda t, c, n: _ratio(c["newton.iterations"], t["newton.solve"]["calls"])),
    ("problems.callback.calls", N_OP, lambda t, c, n: t["problems.callback"]["calls"] / n),
    ("problems.callback.s", S_OP, lambda t, c, n: t["problems.callback"]["s"] / n),
    ("problems.callback.points", N_OP, lambda t, c, n: c["problems.callback.points"] / n),
    ("mesh.build_mesh.self_s", S_OP, lambda t, c, n: t["mesh.build_mesh"]["self_s"] / n),
    ("mesh.build_mesh.calls", N_OP, lambda t, c, n: t["mesh.build_mesh"]["calls"] / n),
    ("mesh.bakhvalov_alpha.s", S_OP, lambda t, c, n: t["mesh.bakhvalov_alpha"]["s"] / n),
    ("mesh.nodes", N_OP, lambda t, c, n: c["mesh.nodes"] / n),
    ("twogrid.interpolant_slopes.s", S_OP,
     lambda t, c, n: t["twogrid.interpolant_slopes"]["s"] / n),
    ("twogrid.coarse_stage.s", S_OP, lambda t, c, n: c["twogrid.coarse_stage.s"] / n),
    ("twogrid.fine_stage.s", S_OP, lambda t, c, n: c["twogrid.fine_stage.s"] / n),
    ("twogrid.fine_unknowns", N_OP, lambda t, c, n: c["twogrid.fine_unknowns"] / n),
    ("bench.run_report.self_s", S_OP, lambda t, c, n: t["bench.run_report"]["self_s"] / n),
    ("bench.error.s", S_OP, lambda t, c, n: t["bench.error"]["s"] / n),
    ("bench.render.s", S_OP, lambda t, c, n: t["bench.render"]["s"] / n),
    ("bench.failed_cells", N_OP, lambda t, c, n: c["bench.failed_cells"] / n),
    ("cli.main.self_s", S_OP, lambda t, c, n: t["cli.main"]["self_s"] / n),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``values``.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of every order statistic.  A
    single order statistic jumps whenever a gap between two classes of
    operations falls at its rank, as one does at the middle of the direct
    mix (ex2 before ex1 at n = 2^14); this estimate moves smoothly.  The
    Beta CDF is integrated with the midpoint rule on ``QUANTILE_GRID`` cells.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = (np.arange(QUANTILE_GRID) + 0.5) / QUANTILE_GRID
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    edges = np.arange(1, QUANTILE_GRID + 1) / QUANTILE_GRID
    at = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], edges)),
                   np.concatenate(([0.0], cdf / cdf[-1])))
    return float(np.diff(at) @ x)


class Pass:
    """Operations of one pass over the loop, with their times and answers."""

    def __init__(self) -> None:
        self.ops: list = []
        self.seconds: list = []
        self.unknowns = 0
        self.failures: list = []
        self.peak_rss_mb = 0.0
        self.starts: list = []
        self.calibration: list = []  # (perf_counter when taken, kernel seconds)

    def run_op(self, sp, op, reference, call=wl.run) -> None:
        self.ops.append(op)
        start = time.perf_counter()
        self.starts.append(start)
        try:
            raw = call(sp, op)
        except Exception:  # the loop must go on; the failure is counted
            self.seconds.append(time.perf_counter() - start)
            self.failures.append(f"{op}: {traceback.format_exc(limit=3)}")
            return
        self.seconds.append(time.perf_counter() - start)
        try:
            rows = wl.answer_rows(sp, op, raw)
            wl.check(op, rows, reference)
        except (ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
            return
        self.unknowns += wl.unknowns(rows)

    def p50(self) -> float:
        return quantile(self.seconds, 0.5)


def calibrate(n: int = CAL_SIZE) -> float:
    """Seconds of one fixed kernel that does not touch spgrid.

    A tridiagonal elimination in plain floats plus a few numpy vector ops,
    the same mix of work as the solver's inner loops.
    """
    x = np.linspace(1.0, 2.0, n)
    start = time.perf_counter()
    diag = (4.0 + x).tolist()
    off = (0.5 * x).tolist()
    rhs = np.sin(x).tolist()
    c = [0.0] * n
    d = [0.0] * n
    c[0], d[0] = off[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        piv = diag[i] - off[i] * c[i - 1]
        c[i] = off[i] / piv
        d[i] = (rhs[i] - off[i] * d[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    float(np.max(np.abs(np.asarray(d))))
    return time.perf_counter() - start


def loop(stream, seconds: float, step, min_ops: int = MIN_OPS, cal=None) -> None:
    """``step(op)`` over whole blocks until ``seconds`` passed and ``min_ops`` ran."""
    start = time.perf_counter()
    last = start - CAL_EVERY  # sample after the first op, so there is one
    count = 0
    while time.perf_counter() - start < seconds or count < min_ops:
        for op in next(stream):
            step(op)
            count += 1
            if cal is not None and time.perf_counter() - last >= CAL_EVERY:
                cal.append((time.perf_counter(), calibrate()))
                last = time.perf_counter()


def timed_pass(sp, stream, reference, seconds: float, min_ops: int = MIN_OPS) -> Pass:
    """The untraced loop that gives the end-to-end metrics."""
    result = Pass()
    loop(stream, seconds, lambda op: result.run_op(sp, op, reference), min_ops,
         result.calibration)
    # read before the statistics allocate anything
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def paired_pass(sp, stream, reference, seconds: float, spans_path: Path,
                min_ops: int = MIN_OPS):
    """Each operation twice in a row: untraced, then with every layer wrapped.

    Adjacent pairs see the same machine, so drift cancels in
    ``trace.overhead_frac``.  Returns ``(untraced, traced, tracer)``.
    """
    plain, traced, tracer = Pass(), Pass(), Tracer()
    call = tracer.wrap("op", wl.run)

    def step(op) -> None:
        plain.run_op(sp, op, reference)
        tracer.op = len(traced.ops)
        tracer.install(sp)
        try:
            traced.run_op(sp, op, reference, call)
        finally:
            tracer.uninstall()

    loop(stream, seconds, step, min_ops)
    tracer.write(spans_path)
    return plain, traced, tracer


def setup_seconds(workload: str, seed: int, probes: int) -> list:
    """Set-up time of ``probes`` fresh interpreters.

    Each probe prints ``CLOCK_MONOTONIC`` (system-wide on Linux) when its
    set-up is done, so the time runs from just before the interpreter is
    spawned to the end of the warm-up op, and the parent's wait does not
    add its polling granularity.
    """
    times = []
    for _ in range(probes):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                              cwd=wl.ROOT, check=True, timeout=PROBE_TIMEOUT,
                              capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=wl.ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, ops: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": ops,
        "cores": os.cpu_count(), "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha, "git_dirty": None if status is None else bool(status),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_seconds(timed: Pass) -> np.ndarray:
    """Each op's seconds at the reference speed.

    The shared machine this was written on runs the same work up to 60%
    slower from one minute to the next, and by about 12% from one few-second
    window to the next.  The calibration kernel, sampled between operations,
    slows down with it.  So each op's wall time is multiplied by
    ``CAL_REF_S / median(samples within CAL_WINDOW of the op's midpoint)``.
    """
    at = np.array([t for t, _ in timed.calibration])
    kernel = np.array([c for _, c in timed.calibration])
    out = np.empty(len(timed.seconds))
    for i, (start, seconds) in enumerate(zip(timed.starts, timed.seconds)):
        distance = np.abs(at - (start + 0.5 * seconds))
        near = distance <= max(CAL_WINDOW, distance.min())
        out[i] = seconds * CAL_REF_S / np.median(kernel[near])
    return out


def raw_speed(timed: Pass) -> dict:
    """The timing metrics as the wall clock read them, unscaled."""
    return {
        "op_s_p50": timed.p50(),
        "op_s_p90": quantile(timed.seconds, 0.9),
        "unknowns_per_s": timed.unknowns / sum(timed.seconds),
        "calibration_s": statistics.median(c for _, c in timed.calibration),
    }


def end_to_end(timed: Pass, setup: list) -> dict:
    """The bounded metrics; operation times are at the reference speed."""
    scaled = scaled_seconds(timed)
    return {
        "op_s_p50": metric(quantile(scaled, 0.5), "s"),
        "op_s_p90": metric(quantile(scaled, 0.9), "s"),
        "unknowns_per_s": metric(timed.unknowns / float(scaled.sum()), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(timed.peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced: Pass, plain: Pass) -> dict:
    totals, counts, n = tracer.totals(), tracer.counts, len(traced.ops)
    out = {name: metric(value(totals, counts, n), unit) for name, unit, value in PER_LAYER}
    out["trace.overhead_frac"] = metric(traced.p50() / plain.p50() - 1.0, "ratio")
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl.import_spgrid()
    except wl.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # half the set-up probes before the loop and half after, so that setup_s
    # samples the machine at both ends of the run
    before = 0 if args.trace else (SETUP_PROBES + 1) // 2
    setup = setup_seconds(args.workload, args.seed, before)
    sp, stream, reference = wl.prepare(args.workload, args.seed)
    if args.trace:
        plain, traced, tracer = paired_pass(sp, stream, reference, args.seconds,
                                            OUT / f"{stem}-spans.json")
        passes = [plain, traced]
        metrics = per_layer(tracer, traced, plain)
        raw = {}
    else:
        plain = timed_pass(sp, stream, reference, args.seconds)
        passes = [plain]
        setup += setup_seconds(args.workload, args.seed, SETUP_PROBES - before)
        metrics = end_to_end(plain, setup)
        raw = raw_speed(plain)
    attempted = sum(len(p.ops) for p in passes)
    failures = [f for p in passes for f in p.failures]
    index = {op: i for i, op in enumerate(wl.cells(args.workload))}
    record = {"provenance": provenance(args, attempted), "metrics": metrics,
              "raw": raw, "failed_frac": len(failures) / attempted, "failures": failures,
              "setup_probes_s": setup,
              "op_cells": [index[op] for op in plain.ops], "op_seconds": plain.seconds,
              "op_starts": [t - plain.starts[0] for t in plain.starts],
              "calibration": [(t - plain.starts[0], c) for t, c in plain.calibration]}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{'raw.' + name:40s} {value:.6g} (wall clock, unscaled)")
    print(f"{'failed_frac':40s} {record['failed_frac']:.6g} ({len(failures)} of {attempted} ops)")
    print(json.dumps(record["provenance"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
