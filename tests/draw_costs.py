#!/usr/bin/env python3
"""Print the median per-call cost of `Streams.integers` for fixed shapes.

    python3 tests/draw_costs.py [--root CHECKOUT]

One line per shape:
- distinct sorted rows, 15, 600 and 16,383 of them, one draw each;
- 159 rows x 32 draws, each row's draws one after another (the rows of
  `small_degree._packed_trials` in rank order).

A checkout whose `integers` takes a row several times draws the repeated
shape in one call; an older one draws it in 32 calls of 159 distinct rows,
one per rank, and the line says which. Run it on two checkouts on one host
to compare their draw costs. `--root` names the checkout whose `src/` is
imported (default: the one this file is in); nothing is written. Not
collected by pytest.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import timeit

import numpy as np

STREAM_ROWS = 1 << 16
DISTINCT = (15, 600, 16_383)
REPEATED = (159, 32)
REPEATS = 11            # timed batches per shape; the median is printed


def per_call(fn) -> float:
    """Median seconds of one fn() call over REPEATS batches of at least 0.2 s."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(REPEATS, number)) / number


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from congestcolor.sim import Streams, seed_words

    streams = Streams(seed_words([1], np.arange(STREAM_ROWS)))
    gen = np.random.default_rng(0)
    for count in DISTINCT:
        rows = np.linspace(0, STREAM_ROWS - 1, count).astype(np.int64)
        hs = gen.integers(2, 513, count)
        cost = per_call(lambda: streams.integers(rows, hs))
        print(f"distinct {count} rows: {cost * 1e3:.4f} ms per call", flush=True)

    n_rows, draws = REPEATED
    rows = np.linspace(0, STREAM_ROWS - 1, n_rows).astype(np.int64)
    hs = gen.integers(2, 17, (n_rows, draws))
    try:
        Streams(seed_words([1], [0])).integers([0, 0], [2, 2])
        how = "one call"
        fn = lambda: streams.integers(np.repeat(rows, draws), hs.ravel())
    except ValueError:          # a row at most once per call: one call per rank
        how = f"{draws} calls, one per rank"
        fn = lambda: [streams.integers(rows, hs[:, j]) for j in range(draws)]
    cost = per_call(fn)
    print(f"repeated {n_rows} rows x {draws} draws ({how}): "
          f"{cost * 1e3:.4f} ms per shape", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
