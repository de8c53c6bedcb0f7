"""Reference color lists: `make_palettes` and `load_palettes` in their plain
form, one frozenset per node in a dict, from the same generator calls in the
same order. The differential oracle for the pooled lists of
`graphs.PaletteAssignment`."""

from __future__ import annotations

import numpy as np


def reference_make_palettes(graph, seed: int, colorspace_size=None,
                            mode: str = "random", kind: str = "delta_plus_one"):
    """(U, {node: frozenset of colors}) as `graphs.make_palettes` draws them."""
    n = graph.n
    u_size = colorspace_size if colorspace_size is not None else max(4, n * n)
    if kind == "delta_plus_one":
        sizes = [graph.delta + 1] * n
    else:
        sizes = (graph.degrees + 1).tolist()
    if mode == "shared":
        return u_size, {v: frozenset(range(1, s + 1)) for v, s in enumerate(sizes)}
    rng = np.random.default_rng([seed, 0xBA1E77E])
    return u_size, {v: frozenset((rng.choice(u_size, size=s, replace=False) + 1).tolist())
                    for v, s in enumerate(sizes)}


def reference_load_palettes(text: str):
    """(U, {node: frozenset of colors}) of a well-formed palette file."""
    u_size, lists = 0, {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("U "):
            u_size = int(line.split()[1])
        elif line:
            head, _, tail = line.partition(":")
            lists[int(head)] = frozenset(int(c) for c in tail.split())
    return u_size or max((max(s) for s in lists.values() if s), default=1), lists
