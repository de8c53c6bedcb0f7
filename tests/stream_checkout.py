"""Real numpy generators in the states of `sim.Streams` rows.

`Streams` draws only `integers`, `random`, `permutations` and `samples`. The reference
implementations and `LiteralEngine` are written against `Generator` methods,
so they check a row's state out into a generator, draw, and write the state
back: the rows then continue exactly where those draws left them.
"""

from contextlib import contextmanager

import numpy as np


@contextmanager
def generators(streams, rows):
    """Yield a generator per row (rows distinct) in the row's state, and
    write the states back on exit. Meanwhile the rows must take no draw
    through `streams` itself, or the two would fork."""
    rows = np.asarray(rows, dtype=np.int64).tolist()
    if len(set(rows)) != len(rows):
        raise ValueError("a row appears twice in one checkout")
    gens = []
    for r in rows:
        g = np.random.Generator(np.random.PCG64())
        g.bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": int(streams.has32[r]),
            "uinteger": streams.buf32.item(r),
            "state": {"state": streams.hi.item(r) << 64 | streams.lo.item(r),
                      "inc": streams.inc_hi.item(r) << 64 | streams.inc_lo.item(r)}}
        gens.append(g)
    try:
        yield gens
    finally:
        for r, g in zip(rows, gens):
            st = g.bit_generator.state
            streams.hi[r], streams.lo[r] = divmod(st["state"]["state"], 1 << 64)
            streams.has32[r], streams.buf32[r] = st["has_uint32"], st["uinteger"]
