"""Paired A/B timing of two spgrid source trees in one interpreter.

    python3 tools/ab_paired.py --parent /path/to/parent/checkout --workload table --rounds 4

The parent checkout's ``src/spgrid`` is loaded as package ``spgrid_parent``
and this checkout's as ``spgrid_change``, side by side in one process.
Each round visits every cell of the workload (``perfbench/workloads.py``)
once, in an order drawn from the seed, and runs each cell on both sides
back to back, the side that goes first also drawn from the seed.  So both
sides see the same machine at nearly the same moment, and drift that
separates two ``perfbench/run.py`` runs cancels in the per-op ratio.
Every answer is checked against ``perfbench/reference.json`` with the
workload's own check; a side that fails a cell stops the comparison.

Prints each side's p50 and p90 of raw op seconds (linear-interpolated
quantiles, no calibration scaling) and the median of the per-op ratios
change/parent with their quartiles.  For ``direct`` and ``twogrid`` it also
prints the largest gap between the two sides' solutions of an op, level by
level, relative to ``max(1, |y|_inf)`` of the parent's: one figure for the
Newton-converged levels (the direct solve, the two-grid coarse level) and one
for the one-step fine levels.  That is the numerical comparison for a change
that moves the arithmetic on purpose.  Nothing under ``perfbench/`` is
changed.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
import time
from pathlib import Path

import numpy as np

from toolbox import ROOT, load, perfbench

SIDES = ("parent", "change")
wl = perfbench("workloads")


def load_spgrid(checkout: Path, name: str):
    """``checkout/src/spgrid`` as package ``name``, with its ``cli`` submodule."""
    package_dir = checkout / "src" / "spgrid"
    if name in sys.modules:
        raise ValueError(f"module {name!r} is already loaded")
    if not (package_dir / "__init__.py").is_file():
        raise FileNotFoundError(f"no spgrid sources under {checkout / 'src'}")
    sp = load(name, package_dir / "__init__.py", package_dir)
    importlib.import_module(f"{name}.cli")
    return sp


def timed_op(sp, op, reference) -> tuple:
    """Seconds of one ``workloads.run`` and its solutions, one per level (none
    for a table op); the answer is checked untimed."""
    start = time.perf_counter()
    raw = wl.run(sp, op)
    seconds = time.perf_counter() - start
    wl.check(op, wl.answer_rows(sp, op, raw), reference)
    return seconds, [] if op.workload == "table" else [out.y for out in raw[2]]


def level_gaps(parent: list, change: list) -> list:
    """``max|y_parent - y_change| / max(1, |y_parent|_inf)`` per level."""
    return [float(np.max(np.abs(p - c)) / max(1.0, np.max(np.abs(p))))
            for p, c in zip(parent, change, strict=True)]


def compare(parent_sp, change_sp, workload: str, rounds: int, seed: int) -> dict:
    """Times of every cell on both sides, ``rounds`` times, paired per cell."""
    packages = dict(zip(SIDES, (parent_sp, change_sp)))
    reference = wl.load_reference()
    cells = wl.cells(workload)
    for sp in packages.values():  # first-call costs land outside the timing
        timed_op(sp, cells[0], reference)
    rng = random.Random(f"ab:{workload}:{seed}")
    seconds = {side: [] for side in SIDES}
    gaps = {"converged": [], "one_step": []}  # level 0 is Newton-converged
    for _ in range(rounds):
        for op in rng.sample(cells, len(cells)):
            ys = {}
            for side in rng.sample(SIDES, 2):
                op_s, ys[side] = timed_op(packages[side], op, reference)
                seconds[side].append(op_s)
            if ys["parent"]:
                first, *rest = level_gaps(ys["parent"], ys["change"])
                gaps["converged"].append(first)
                gaps["one_step"].extend(rest)
    parent, change = (np.array(seconds[side]) for side in SIDES)
    ratio = change / parent
    summary = {"workload": workload, "pairs": len(ratio)}
    for side, values in zip(SIDES, (parent, change)):
        summary[f"{side}_p50_s"] = float(np.quantile(values, 0.5))
        summary[f"{side}_p90_s"] = float(np.quantile(values, 0.9))
    summary["ratio_p25"], summary["ratio_p50"], summary["ratio_p75"] = (
        float(q) for q in np.quantile(ratio, [0.25, 0.5, 0.75]))
    for kind, values in gaps.items():
        summary[f"gap_{kind}"] = max(values) if values else None
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout whose src/spgrid is the baseline")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, default=4,
                        help="visits of every cell per side (default 4)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    s = compare(load_spgrid(args.parent, "spgrid_parent"),
                load_spgrid(ROOT, "spgrid_change"),
                args.workload, args.rounds, args.seed)
    print(f"workload {s['workload']}: {s['pairs']} paired ops, seed {args.seed}")
    for side in SIDES:
        print(f"{side:7s} p50 {1e3 * s[f'{side}_p50_s']:.3f} ms  "
              f"p90 {1e3 * s[f'{side}_p90_s']:.3f} ms")
    print(f"per-op ratio change/parent: median {s['ratio_p50']:.3f} "
          f"(quartiles {s['ratio_p25']:.3f}, {s['ratio_p75']:.3f})")
    if s["gap_converged"] is not None:
        fine = s["gap_one_step"]
        print(f"largest solution gap / max(1, |y|_inf): converged "
              f"{s['gap_converged']:.1e}, one-step fine "
              f"{'none' if fine is None else f'{fine:.1e}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
