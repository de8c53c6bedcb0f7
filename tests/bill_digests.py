#!/usr/bin/env python3
"""Print the benchmark's bill digest for seeds of every workload.

    python3 tests/bill_digests.py [--root CHECKOUT] [--seeds 1-10,11]
                                  [--lists shared|random]

One line per (workload, seed): the digest `perfbench/run.py` prints, the
hash of the per-phase rounds, the message total and the coloring of one
`run_pipeline` call. `--lists random` runs each workload's graph on
`make_palettes(mode="random")` lists drawn at seed + 1 instead of the
workload's shared lists: nearly every color a winner strips is then looked
up on another pool row. A change meant only to speed up the simulator must
print the same lines as its parent: run this once in each checkout, or once
per checkout with `--root`, and diff the outputs. `--root` names the
checkout whose `perfbench/` and `src/` are imported (default: the one this
file is in); both are read, never changed. Not collected by pytest.
"""

from __future__ import annotations

import argparse
import os
import sys


def seed_list(text: str) -> list:
    """'1-10,11' -> [1, ..., 11]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append",
                        help="one workload (repeatable); default all")
    parser.add_argument("--lists", choices=("shared", "random"), default="shared")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "perfbench"))
    import run          # puts the checkout's src/ first on the path
    from workloads import WORKLOADS

    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        config = run.SimConfig(**workload.config)
        for seed in args.seeds:
            graph, palettes = workload.build(seed)
            if args.lists == "random":
                palettes = run.graphs.make_palettes(graph, seed=seed + 1, mode="random")
            report = run.harness.run_pipeline(graph, palettes, config, seed)
            print(f"{name} {seed} {run.bill_digest(report)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
