"""Seeded operation lists, the operations themselves and their answer check.

Every workload is a full factorial of *cells* (problem, mesh family, eps,
size, algorithm, ...).  An operation list is a sequence of *blocks*; each
block visits every cell of the workload exactly once, in an order drawn
from the seed.  So the seed changes what runs next to what, never the mix
of work, and the spread between seeds measures the machine, not the draw.

The operations call the library through module attributes at call time
(``spgrid.newton.solve``, not a name bound at import), so that the traced
run sees the functions that ``tracing.Tracer`` rebinds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("direct", "twogrid", "table")
PROBLEMS = ("ex1", "ex2")
FAMILIES = ("shishkin", "bakhvalov", "vulanovic")
GRADED = ("bakhvalov", "vulanovic")
EPS = (1e-2, 1e-4, 1e-6)
DIRECT_N = (2 ** 12, 2 ** 14, 2 ** 16)
TG1_N = (128, 256, 512)          # fine n = N^2 = 2^14 .. 2^18
TG2_N, TG2_LEVELS = 16, 2        # n = 256, then 65536
TABLE_COARSE = (8, 16, 32, 64)   # fine n <= 64^2 = 4096
TABLE_ALGORITHMS = ("direct", "tg1", "tg1_ropt")
TABLE_FORMATS = ("csv", "json", "markdown")
TABLE_EPS_LISTS = ((1e-2,), (1e-4,), (1e-6,), EPS)

# Answer check: |error - reference| <= RTOL*|reference| + ATOL.  RTOL covers
# the six significant digits that the csv and markdown tables print; ATOL
# is the floor for cells whose error is already at roundoff (ex1 on
# bakhvalov at eps = 1e-4 sits near 3e-16), where a change of pivoting or
# summation order may move the last bits.
RTOL = 1e-5
ATOL = 1e-12


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/spgrid`` to benchmark."""


def import_spgrid():
    """Import ``spgrid`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "spgrid" / "__init__.py").is_file():
        raise MissingSourceError(f"no spgrid sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spgrid
    import spgrid.cli  # noqa: F401  (not imported by the package itself)

    if Path(spgrid.__file__).resolve().parent != SRC / "spgrid":
        raise MissingSourceError(f"spgrid imported from {spgrid.__file__}, not {SRC}")
    return spgrid


def grading(problem: str, family: str) -> float:
    """Grading strength ``a`` as the acceptance suite uses it."""
    if problem == "ex2":
        return 2.0
    return 4.0 if family == "bakhvalov" else 1.0


@dataclass(frozen=True)
class Op:
    """One cell of a workload: the inputs of one operation.

    ``size`` is the mesh size n for ``direct`` and the coarse size N for
    ``twogrid``; table operations always sweep ``TABLE_COARSE``.
    """

    workload: str
    problem: str
    family: str
    eps: tuple
    size: int = 0
    algorithm: str = "direct"
    fmt: str = ""

    @property
    def a(self) -> float:
        return grading(self.problem, self.family)

    def row_key(self, eps: float, N: int, step: int) -> str:
        """Reference key of one answer row (one mesh solved on)."""
        return f"{self.workload}|{self.problem}|{self.family}|{self.algorithm}|{eps!r}|{N}|{step}"

    def argv(self) -> list:
        """Command line of a table operation."""
        return ["table", "--problem", self.problem, "--mesh", self.family,
                "--a", repr(self.a), "--eps", ",".join(repr(e) for e in self.eps),
                "--coarse", ",".join(str(n) for n in TABLE_COARSE),
                "--algorithm", self.algorithm, "--format", self.fmt]


def cells(workload: str) -> list:
    """Every cell of a workload, in a fixed canonical order (cheapest first)."""
    if workload == "direct":
        return [Op("direct", p, f, (e,), n) for n in DIRECT_N
                for p in PROBLEMS for f in FAMILIES for e in EPS]
    if workload == "twogrid":
        plans = [("tg1", N) for N in TG1_N] + [("tg2", TG2_N)]
        return [Op("twogrid", p, f, (e,), N, alg) for alg, N in plans
                for p in PROBLEMS for f in GRADED for e in EPS]
    if workload == "table":
        return [Op("table", p, f, eps, 0, alg, fmt) for eps in TABLE_EPS_LISTS
                for alg in TABLE_ALGORITHMS for p in PROBLEMS for f in FAMILIES
                for fmt in TABLE_FORMATS]
    raise ValueError(f"unknown workload {workload!r}")


def blocks(workload: str, seed: int):
    """Endless blocks; each is every cell once, in an order drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    base = cells(workload)
    while True:
        yield rng.sample(base, len(base))


def check_plan_sizes(sp, ops) -> None:
    """Reject ops whose meshes exceed the library's interval budget."""
    budget = sp.twogrid.MAX_INTERVALS
    for op in ops:
        if op.algorithm == "tg2":
            largest = op.size ** (2 ** TG2_LEVELS)
        elif op.workload == "table":
            largest = max(TABLE_COARSE) ** 2
        elif op.algorithm == "tg1":
            largest = op.size ** 2
        else:
            largest = op.size
        if largest > budget:
            raise ValueError(f"{op} needs {largest} intervals, over {budget}")


def prepare(workload: str, seed: int):
    """Everything a run does before its first timed operation.

    Imports spgrid, makes the seeded operation stream, loads the reference
    answers and runs the workload's first (cheapest) canonical cell once,
    untimed, so that lazy imports and first-call costs land here and not in
    the loop.  Returns ``(spgrid, block iterator, reference)``.
    """
    sp = import_spgrid()
    check_plan_sizes(sp, cells(workload))
    stream = blocks(workload, seed)
    reference = load_reference()
    try:
        run(sp, cells(workload)[0])
    except Exception:  # counted as a failure when the loop reaches this cell
        pass
    return sp, stream, reference


def run(sp, op: Op):
    """Execute one operation; returns the raw program output (timed part)."""
    if op.workload == "table":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sp.cli.main(op.argv())
        return code, buf.getvalue()
    eps = op.eps[0]
    problem = sp.problems.make_problem(op.problem, eps)
    spec = sp.mesh.MeshSpec(op.family, eps, op.size, a=op.a)
    if op.workload == "direct":
        mesh = sp.mesh.build_mesh(spec)
        return problem, [mesh], [sp.newton.solve(mesh, problem)]
    plan = sp.twogrid.TwoGridPlan(coarse=spec, cascade_levels=TG2_LEVELS
                                  if op.algorithm == "tg2" else 1)
    algorithm = sp.twogrid.algorithm2 if op.algorithm == "tg2" else sp.twogrid.algorithm1
    result = algorithm(problem, plan)
    return (problem, [result.coarse_mesh, *result.fine_meshes],
            [result.coarse, *result.fine])


class AnswerError(ValueError):
    """The program's output disagrees with the reference or is malformed."""


def answer_rows(sp, op: Op, raw) -> list:
    """Rows ``(eps, N, n, step, error)``, one per mesh solved on (untimed)."""
    if op.workload == "table":
        return _table_rows(sp, op, *raw)
    problem, meshes, outcomes = raw
    rows = []
    for step, (mesh, out) in enumerate(zip(meshes, outcomes), start=1):
        if out.y.shape != mesh.nodes.shape or not np.all(np.isfinite(out.y)):
            raise AnswerError(f"step {step}: malformed solution vector")
        error = float(np.max(np.abs(problem.exact(mesh.nodes) - out.y)))
        rows.append((op.eps[0], meshes[0].n, mesh.n, step, error))
    return rows


def _table_rows(sp, op: Op, code: int, text: str) -> list:
    if code != 0:
        raise AnswerError(f"table exited with {code}")
    if op.fmt == "json":
        records = json.loads(text)["rows"]
    else:
        lines = text.splitlines()
        if op.fmt == "csv":
            if lines[0] != sp.bench.CSV_HEADER:
                raise AnswerError(f"csv header {lines[0]!r}")
            table = list(csv.reader(lines))
        else:
            table = [[c.strip() for c in line.strip("|").split("|")]
                     for line in lines if line.startswith("|")]
            del table[1]  # the |---| rule under the header
        header, body = table[0], table[1:]
        records = [dict(zip(header, cells_)) for cells_ in body]
    return [(float(r["eps"]), int(r["N"]), int(r["n"]), int(r["step"]),
             float(r["error"])) for r in records]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["rows"]


def expected_keys(op: Op) -> set:
    """Reference keys that one operation must answer, no more, no fewer."""
    if op.workload == "direct":
        return {op.row_key(op.eps[0], op.size, 1)}
    if op.workload == "twogrid":
        steps = 1 + (TG2_LEVELS if op.algorithm == "tg2" else 1)
        return {op.row_key(op.eps[0], op.size, s) for s in range(1, steps + 1)}
    return {op.row_key(e, N, s) for e in op.eps for N in TABLE_COARSE
            for s in (1, 2) if s == 1 or op.algorithm != "direct"}


def check(op: Op, rows: list, reference: dict) -> None:
    """Raise AnswerError unless every row matches its reference error."""
    got = {}
    for eps, N, n, step, error in rows:
        got[op.row_key(eps, N, step)] = (n, error)
    want = expected_keys(op)
    if len(got) != len(rows) or set(got) != want:
        raise AnswerError(f"rows {sorted(set(got) ^ want)} missing or unexpected")
    for key, (n, error) in got.items():
        ref_n, ref_error = reference[key]
        if n != ref_n or not abs(error - ref_error) <= RTOL * abs(ref_error) + ATOL:
            raise AnswerError(f"{key}: n={n} error={error!r}, "
                              f"reference n={ref_n} error={ref_error!r}")


def unknowns(rows: list) -> int:
    """Interior unknowns solved for, summed over every mesh of the answer."""
    return sum(n - 1 for _, _, n, _, _ in rows)
