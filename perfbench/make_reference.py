"""Record the reference nodal error of every cell of every workload.

    python3 perfbench/make_reference.py

writes ``perfbench/reference.json``.  Run it only at a commit whose answers
are trusted; the benchmark checks every later operation against this file.
Table cells are recorded from the json format, which prints full precision.
"""

from __future__ import annotations

import json
import platform
import time

import workloads as wl


def main() -> None:
    sp = wl.import_spgrid()
    rows = {}
    for workload in wl.WORKLOADS:
        for op in wl.cells(workload):
            if workload == "table" and (op.eps != wl.EPS or op.fmt != "json"):
                continue  # one json sweep over every eps covers the other cells
            t0 = time.perf_counter()
            answer = wl.answer_rows(sp, op, wl.run(sp, op))
            seconds = time.perf_counter() - t0
            for eps, N, n, step, error in answer:
                rows[op.row_key(eps, N, step)] = [n, error]
            print(f"{seconds:8.3f} s  {op}")
    payload = {"python": platform.python_version(),
               "numpy": __import__("numpy").__version__, "rows": rows}
    with open(wl.REFERENCE, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(rows)} reference rows -> {wl.REFERENCE}")


if __name__ == "__main__":
    main()
