#!/usr/bin/env python3
"""Record the simulated outputs the benchmark checks against.

Usage, from the root of a repro checkout::

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed, at both sizes,
and writes each cell's outputs to ``perfbench/reference.json``.
Figure 3 and 5 cells at paper size are skipped: they are checked
against the committed ``results/figures_paper.csv`` instead.  Re-record
only when a change is meant to alter simulated results.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import locate_program  # noqa: E402


def main():
    locate_program()
    from workloads import (DEFAULT_SEED, REFERENCE_PATH, SIZES, WORKLOADS,
                           Workload)

    reference = {}
    for size in SIZES:
        reference[size] = {}
        for name in WORKLOADS:
            if size == "paper" and name in ("fig3_matmul", "fig5_sort"):
                continue
            workload = Workload(name, size, DEFAULT_SEED, reference={})
            cells = {}
            for cell in workload.order(0):
                outcome = workload.execute(cell)
                if outcome.failed:
                    sys.exit(f"{name} {cell.name} failed; not recording")
                cells[cell.name] = outcome.outputs
            reference[size][name] = dict(sorted(cells.items()))
            print(f"recorded {size} {name}: {len(cells)} cells")
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
