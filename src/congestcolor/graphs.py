"""Graph construction, edge-list I/O, palettes, and ground-truth oracles.

Everything in this module is pure. The validators here (`verify_coloring`,
the density oracle) audit the distributed algorithms; they share no code
with them beyond the lookup in the input lists, `PaletteAssignment.find`.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

import numpy as np

EDGE_BLOCK = 1 << 18    # edge slots one pass holds at once; see `Graph.blocks`


class GraphError(ValueError):
    pass


class Graph:
    """Immutable simple undirected graph.

    Nodes are 0..n-1. The CSR arrays are the only adjacency: v's neighbors
    are `indices[indptr[v]:indptr[v + 1]]`, ascending, `edge_src` is the tail
    of each directed edge (aligned with `indices`), and `degrees` the row
    lengths. `edges` is an (m, 2) integer array or any iterable of pairs.
    """

    def __init__(self, n: int, edges):
        if n <= 0:
            raise GraphError("empty graph")
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if e.size and (e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu"):
            raise GraphError("edges must be pairs of integer node ids")
        u, v = e.reshape(-1, 2).astype(np.int64, copy=False).T
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
        # both directions of every edge, sorted by (tail, head)
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        if bad.any() or (keys[1:] == keys[:-1]).any():
            _reject(n, u, v, bad)
        self.n = n
        self.m = len(u)
        del e, u, v
        # the heads overwrite the keys: no temporary as large as the keys
        self.edge_src = keys // n
        self.indices = np.remainder(keys, n, out=keys)
        self.degrees = np.bincount(self.edge_src, minlength=n)
        self.delta = int(self.degrees.max())
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])

    def neighbors(self, v: int) -> list:
        """v's neighbors, ascending."""
        return self.indices[self.indptr.item(v):self.indptr.item(v + 1)].tolist()

    def degree(self, v: int) -> int:
        return self.degrees.item(v)

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.indptr.item(u), self.indptr.item(u + 1)
        i = bisect_left(self.indices, v, lo, hi)
        return i < hi and self.indices.item(i) == v

    def rows(self, nodes):
        """The CSR rows of `nodes` (an int64 array), one after another: for
        each entry, the index in `nodes` of its row and the neighbor."""
        lo = self.indptr[nodes]
        lens = self.indptr[nodes + 1] - lo
        slots = np.arange(int(lens.sum())) + np.repeat(lo - np.cumsum(lens) + lens, lens)
        return np.repeat(np.arange(len(nodes)), lens), self.indices[slots]

    def blocks(self, nodes):
        """Slices of `nodes`, in order, whose CSR rows together hold at most
        EDGE_BLOCK slots; a longer row is a block of its own. Every pass over
        the edge arrays, or over a node set's rows, walks these blocks."""
        ends = np.cumsum(self.degrees[nodes])
        lo = 0
        while lo < ends.size:
            cap = EDGE_BLOCK + (ends[lo - 1] if lo else 0)
            hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
            yield slice(lo, hi)
            lo = hi

    def bfs(self, root: int, within, radius: int | None = None) -> dict:
        """Hop distance from `root` of every node reachable inside the node
        set `within` (at most `radius` hops if given), in visiting order:
        level by level, each level in its parents' order and then by
        ascending neighbor id. The search stops as soon as every node of
        `within` has been reached."""
        ptr, ind = self.indptr, self.indices
        dist = {root: 0}
        left = len(within) - (root in within)
        frontier = [root]
        d = 0
        while frontier and left and (radius is None or d < radius):
            d += 1
            nxt = []
            for u in frontier:
                for w in ind[ptr.item(u):ptr.item(u + 1)].tolist():
                    if w in within and w not in dist:
                        dist[w] = d
                        nxt.append(w)
                        left -= 1
                if not left:
                    break
            frontier = nxt
        return dist

    def edges(self):
        """Every edge once, as (u, v) with u < v, ascending."""
        up = self.edge_src < self.indices
        return zip(self.edge_src[up].tolist(), self.indices[up].tolist())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, delta={self.delta})"


def sorted_unique(a):
    """`np.unique(a)` of a 1-D array, by a sort and an adjacent-difference
    mask: numpy 2.4 hashes a plain `np.unique` of integers, which is about
    60 times slower than the sort on a million random int64."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _reject(n: int, u, v, bad):
    """Raise for the first faulty edge (u[i], v[i]) in input order: an id out
    of range, a self-loop (`bad` marks both), or the later occurrence of an
    edge already given in either orientation."""
    stop = int(np.argmax(bad)) if bad.any() else len(u)
    keys = np.minimum(u, v)[:stop] * n + np.maximum(u, v)[:stop]
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if later.size:
        i = int(later.min())
        raise GraphError(f"duplicate edge ({u[i]},{v[i]})")
    a, b = u[stop], v[stop]
    if not (0 <= a < n and 0 <= b < n):
        raise GraphError(f"node id out of range: ({a},{b})")
    raise GraphError(f"self-loop at node {a}")


class PaletteAssignment:
    """Color lists over a colorspace [1..colorspace_size], held as one pool.

    Pool row r holds one list's colors, ascending:
    `pool_colors[pool_ptr[r]:pool_ptr[r + 1]]`. Node v's list is row
    `list_id[v]`, which other nodes may share; -1, or a v past the end of
    `list_id`, means v has no list. The arrays are read-only. Built from
    `pool` = (list_id, pool_ptr, pool_colors), or from `lists`, a dict node ->
    colors, with one row per distinct list, numbered by their first node.
    """

    def __init__(self, colorspace_size: int, lists: dict | None = None, pool=None):
        if pool is None:
            rows = {}
            ids = {v: rows.setdefault(frozenset(lists[v]), len(rows)) for v in sorted(lists)}
            if min(ids, default=0) < 0:
                raise ValueError(f"node {min(ids)} has a negative id")
            rows = [sorted(r) for r in rows]
            ptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
            pool = (np.full(max(ids, default=-1) + 1, -1, dtype=np.int64), ptr,
                    np.fromiter(chain.from_iterable(rows), np.int64, int(ptr[-1])))
            pool[0][list(ids)] = list(ids.values())
        self.colorspace_size = colorspace_size
        self.list_id, self.pool_ptr, self.pool_colors = pool
        for a in pool:
            a.flags.writeable = False
        self._longest = int(np.diff(self.pool_ptr).max(initial=0))

    def node_rows(self, n: int):
        """`list_id` of nodes 0..n-1, -1 for a node without a list."""
        return np.pad(self.list_id[:n], (0, max(0, n - self.list_id.size)), constant_values=-1)

    def find(self, rows, colors):
        """Where each colors[i] is, or would go, in pool row rows[i], counted
        from the row's start, and whether it is there; a row of -1 holds
        nothing. One lower-bound search runs in every row at once, halving
        the longest row's span each step; a probe at or past its own row's
        end counts as too large."""
        start, end = self.pool_ptr[rows], self.pool_ptr[rows + 1]
        base, pool, k = start.copy(), self.pool_colors, self._longest
        if not pool.size:
            return np.zeros_like(start), np.zeros(start.shape, dtype=bool)
        while k > 1:
            half = k >> 1
            k -= half
            probe = base + half
            ok = pool.take(probe, mode="clip") < colors
            ok &= probe < end
            base += half * ok
        ok = pool.take(base, mode="clip") < colors
        ok &= base < end
        base += ok
        return base - start, (base < end) & (pool.take(base, mode="clip") == colors)

    @functools.cached_property
    def lists(self):
        """Read-only view node -> frozenset of colors, built on first use."""
        ptr, colors = self.pool_ptr.tolist(), self.pool_colors.tolist()
        rows = [frozenset(colors[a:b]) for a, b in zip(ptr, ptr[1:])]
        return MappingProxyType({v: rows[r] for v, r in enumerate(self.list_id.tolist())
                                 if r >= 0})


# ---------------------------------------------------------------------------
# generation


def generate(model: str, params: dict, seed: int) -> Graph:
    """Generate a test graph. Models: gnp, clique_union, planted_almost_cliques,
    path, cycle, star, complete."""
    rng = np.random.default_rng([seed, 0xC0109])
    if model == "complete":
        n = _pos_int(params, "n")
        return Graph(n, np.column_stack(np.triu_indices(n, 1)))
    if model == "path":
        n = _pos_int(params, "n")
        return Graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))
    if model == "cycle":
        n = _pos_int(params, "n")
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return Graph(n, np.column_stack((np.arange(n), np.arange(1, n + 1) % n)))
    if model == "star":
        n = _pos_int(params, "n")
        return Graph(n, np.column_stack((np.zeros(n - 1, np.int64), np.arange(1, n))))
    if model == "gnp":
        n = _pos_int(params, "n")
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"invalid gnp probability {p}")
        return Graph(n, _row_draws(rng, n, np.arange(1, n + 1), p))
    if model == "clique_union":
        k = _pos_int(params, "k")
        size = _pos_int(params, "size")
        block = np.column_stack(np.triu_indices(size, 1))
        return Graph(k * size, np.concatenate([block + i * size for i in range(k)]))
    if model == "planted_almost_cliques":
        return _planted_almost_cliques(params, rng)
    raise GraphError(f"unknown graph model: {model}")


def _pos_int(params, key):
    v = int(params[key])
    if v < 1:
        raise GraphError(f"{key} must be >= 1, got {v}")
    return v


def _row_draws(rng, n: int, starts, p: float):
    """Edges (u, w) with w in [starts[u], n), one vector draw
    `rng.random(n - starts[u]) < p` per row u in order; rows whose columns
    are empty draw nothing."""
    none = np.empty(0, dtype=np.int64)
    heads = [np.flatnonzero(rng.random(n - s) < p) + s if s < n else none
             for s in starts.tolist()]
    tails = np.repeat(np.arange(len(heads)), [len(h) for h in heads])
    return np.column_stack((tails, np.concatenate([none] + heads)))


def _planted_almost_cliques(params: dict, rng) -> Graph:
    """k groups of size delta+1, each complete minus a random fraction
    `removal` of its internal edges, plus sparse inter-group edges
    (probability `inter_p` per cross pair, default tuned to add ~2 edges/node).
    Exercises both the dense and the sparse branch of the decomposition."""
    k = _pos_int(params, "k")
    delta = _pos_int(params, "delta")
    removal = float(params.get("removal", 0.05))
    if not 0.0 <= removal < 1.0:
        raise GraphError(f"invalid removal fraction {removal}")
    size = delta + 1
    n = k * size
    inter_p = float(params.get("inter_p", min(1.0, 2.0 / max(1, n - size))))
    # each group's internal pairs in row-major order, one draw per pair
    block = np.column_stack(np.triu_indices(size, 1))
    parts = [block[rng.random(len(block)) >= removal] + i * size for i in range(k)]
    if k > 1 and inter_p > 0:
        # groups are contiguous blocks, so the cross pairs above u form the
        # contiguous tail [end-of-u's-group, n)
        parts.append(_row_draws(rng, n, (np.arange(n) // size + 1) * size, inter_p))
    edges = np.concatenate(parts)
    del parts
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# DIMACS-style edge lists


def load_edge_list(text: str) -> Graph:
    """Parse DIMACS-style text: optional `p edge n m` header, `e u v` lines
    with 1-based node ids. Comment lines start with `c`."""
    n_declared = None
    edges = []
    seen = set()
    max_id = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphError(f"malformed header at line {lineno}: {raw!r}")
            n_declared = int(parts[2])
        elif parts[0] == "e":
            if len(parts) != 3:
                raise GraphError(f"malformed edge at line {lineno}: {raw!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError(f"malformed edge at line {lineno}: {raw!r}")
            if u == v:
                raise GraphError(f"self-loop at line {lineno}")
            if u < 1 or v < 1 or (
                n_declared is not None and (u > n_declared or v > n_declared)
            ):
                raise GraphError(f"node id out of range at line {lineno}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge at line {lineno}")
            seen.add(key)
            edges.append((u - 1, v - 1))
            max_id = max(max_id, u, v)
        else:
            raise GraphError(f"malformed line {lineno}: {raw!r}")
    n = n_declared if n_declared is not None else max_id
    if n is None or n == 0:
        raise GraphError("empty graph")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# palettes


def make_palettes(
    graph: Graph,
    seed: int,
    colorspace_size: int | None = None,
    mode: str = "random",
    kind: str = "delta_plus_one",
) -> PaletteAssignment:
    """Build list-coloring instances.

    kind='delta_plus_one': every list has Delta+1 colors.
    kind='deg_plus_one': list of v has degree(v)+1 colors.
    mode='random' draws each node's list uniformly without replacement from
    [1..U] (U defaults to n^2) into a pool row of its own; mode='shared' gives
    everyone the prefix {1..size}.
    """
    n = graph.n
    u_size = colorspace_size if colorspace_size is not None else max(4, n * n)
    if kind == "delta_plus_one":
        sizes = np.full(n, graph.delta + 1)
    elif kind == "deg_plus_one":
        sizes = graph.degrees + 1
    else:
        raise ValueError(f"unknown palette kind {kind}")
    if sizes.max() > u_size:
        raise ValueError("colorspace smaller than required list size")
    if mode == "shared":    # one row per distinct size, ascending: the prefix {1..size}
        present = np.bincount(sizes) > 0
        list_id, sizes = (np.cumsum(present) - 1)[sizes], np.flatnonzero(present)
        colors = np.concatenate([np.arange(1, s + 1) for s in sizes.tolist()])
    elif mode == "random":  # one row per node, drawn in id order
        rng = np.random.default_rng([seed, 0xBA1E77E])
        list_id = np.arange(n)
        colors = np.concatenate([np.sort(rng.choice(u_size, size=s, replace=False))
                                 for s in sizes.tolist()]) + 1
    else:
        raise ValueError(f"unknown palette mode {mode}")
    return PaletteAssignment(u_size, pool=(list_id, np.cumsum(np.r_[0, sizes]), colors))


def load_palettes(text: str) -> PaletteAssignment:
    """Parse `U <size>` and `<node>: <colors>` lines; equal lists share one
    pool row. A line that does not parse or names a negative node, a node
    listed twice, or a color outside [1, U] when U is given, is a ValueError
    naming the line or the node."""
    u_size = 0
    lists = {}
    rows = {}       # one object per distinct list
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        try:
            if line.startswith("U "):
                u_size = int(line.split()[1])
                continue
            v, colors = int(head), frozenset(int(c) for c in tail.split())
        except ValueError:
            raise ValueError(f"malformed line {lineno}: {raw!r}") from None
        if v < 0:
            raise ValueError(f"negative node id at line {lineno}: {raw!r}")
        if v in lists:
            raise ValueError(f"node {v} is listed twice at line {lineno}")
        lists[v] = rows.setdefault(colors, colors)
    if u_size:
        for v, s in lists.items():
            if s and not 1 <= min(s) <= max(s) <= u_size:
                raise ValueError(f"node {v} has a color outside [1, {u_size}]")
    else:
        u_size = max((max(s) for s in rows if s), default=1)
    return PaletteAssignment(u_size, lists)


# ---------------------------------------------------------------------------
# oracles


def density_oracle(graph: Graph, v: int, gamma: float) -> bool:
    """gamma-dense: v has at least (1-gamma)*Delta gamma-friends."""
    nbrs = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
    # |N(u) cap N(v)| for every neighbor u, from the neighbors' rows
    at, w = graph.rows(nbrs)
    common = np.bincount(at[np.isin(w, nbrs)], minlength=len(nbrs))
    friends = int((common >= (1.0 - gamma) * graph.delta).sum())
    return friends >= (1.0 - gamma) * graph.delta


# ---------------------------------------------------------------------------
# coloring validation


@dataclass
class ColoringReport:
    monochromatic_edges: list
    off_list_nodes: list
    uncolored_nodes: list
    allow_partial: bool

    @property
    def ok(self) -> bool:
        if self.monochromatic_edges or self.off_list_nodes:
            return False
        return self.allow_partial or not self.uncolored_nodes

    def summary(self) -> str:
        return (
            f"mono_edges={len(self.monochromatic_edges)} "
            f"off_list={len(self.off_list_nodes)} "
            f"uncolored={len(self.uncolored_nodes)} ok={self.ok}"
        )


def verify_coloring(
    graph: Graph,
    palettes: PaletteAssignment,
    coloring: dict,
    allow_partial: bool = False,
) -> ColoringReport:
    """Audit a coloring with one blocked pass over the edge arrays and one
    lookup into the input lists; monochromatic edges come as (u, v) with u < v,
    ascending, and off-list nodes (a node without a list among them) in the
    coloring's order."""
    n = graph.n
    nodes = np.fromiter(coloring.keys(), np.int64, len(coloring))
    outside = (nodes < 0) | (nodes >= n)
    if outside.any():
        raise GraphError(f"coloring names node {nodes[outside][0]}, not in [0, {n})")
    col = np.zeros(n, dtype=np.int64)
    col[nodes] = np.fromiter(coloring.values(), np.int64, len(coloring))
    colored = np.zeros(n, dtype=bool)
    colored[nodes] = True
    mono_edges = []
    for s in graph.blocks(np.arange(n)):
        a, b = graph.indptr[s.start], graph.indptr[s.stop]
        src, dst = graph.edge_src[a:b], graph.indices[a:b]
        mono = (src < dst) & colored[src] & colored[dst] & (col[src] == col[dst])
        mono_edges += zip(src[mono].tolist(), dst[mono].tolist())
    off_list = nodes[~palettes.find(palettes.node_rows(n)[nodes], col[nodes])[1]].tolist()
    uncolored = np.flatnonzero(~colored).tolist()
    return ColoringReport(mono_edges, off_list, uncolored, allow_partial)
