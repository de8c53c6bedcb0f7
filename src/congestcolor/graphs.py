"""Graph construction, edge-list I/O, palettes, and ground-truth oracles.

Everything in this module is pure. The validators here (`verify_coloring`,
the similarity/density oracles) audit the distributed algorithms; they share
no code with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    pass


class Graph:
    """Immutable simple undirected graph.

    Nodes are 0..n-1. Adjacency is stored both as per-node sorted tuples (for
    set-style queries) and in CSR form (indptr/indices) for vectorized passes.
    """

    def __init__(self, n: int, edges):
        if n <= 0:
            raise GraphError("empty graph")
        seen = set()
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"node id out of range: ({u},{v})")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.neighbors = [tuple(sorted(a)) for a in adj]
        self.neighbor_sets = [frozenset(a) for a in adj]
        self.degrees = np.array([len(a) for a in adj], dtype=np.int64)
        self.delta = int(self.degrees.max()) if n else 0
        self.m = len(seen)
        deg = self.degrees
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=self.indptr[1:])
        self.indices = np.empty(int(deg.sum()), dtype=np.int64)
        for v in range(n):
            self.indices[self.indptr[v]:self.indptr[v + 1]] = self.neighbors[v]
        # tail of each directed edge, aligned with self.indices
        self.edge_src = np.repeat(np.arange(n, dtype=np.int64), deg)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]

    def rows(self, nodes):
        """The CSR rows of `nodes` (an int64 array), one after another: for
        each entry, the index in `nodes` of its row and the neighbor."""
        lo = self.indptr[nodes]
        lens = self.indptr[nodes + 1] - lo
        slots = np.arange(int(lens.sum())) + np.repeat(lo - np.cumsum(lens) + lens, lens)
        return np.repeat(np.arange(len(nodes)), lens), self.indices[slots]

    def bfs(self, root: int, within, radius: int | None = None) -> dict:
        """Hop distance from `root` of every node reachable inside the node
        set `within` (at most `radius` hops if given), in visiting order:
        level by level, each level in its parents' order and then by
        ascending neighbor id."""
        dist = {root: 0}
        frontier = [root]
        d = 0
        while frontier and (radius is None or d < radius):
            d += 1
            nxt = []
            for u in frontier:
                for w in self.neighbors[u]:
                    if w in within and w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def edges(self):
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, delta={self.delta})"


@dataclass
class PaletteAssignment:
    """Color lists over a colorspace [1..colorspace_size]."""

    colorspace_size: int
    lists: dict = field(default_factory=dict)

    def palette(self, v: int) -> frozenset:
        return self.lists[v]


# ---------------------------------------------------------------------------
# generation


def generate(model: str, params: dict, seed: int) -> Graph:
    """Generate a test graph. Models: gnp, clique_union, planted_almost_cliques,
    path, cycle, star, complete."""
    rng = np.random.default_rng([seed, 0xC0109])
    if model == "complete":
        n = _pos_int(params, "n")
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if model == "path":
        n = _pos_int(params, "n")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if model == "cycle":
        n = _pos_int(params, "n")
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if model == "star":
        n = _pos_int(params, "n")
        return Graph(n, [(0, i) for i in range(1, n)])
    if model == "gnp":
        n = _pos_int(params, "n")
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"invalid gnp probability {p}")
        edges = []
        # sample the upper triangle row by row to keep memory bounded
        for u in range(n - 1):
            hits = np.nonzero(rng.random(n - u - 1) < p)[0]
            edges.extend((u, u + 1 + int(h)) for h in hits)
        return Graph(n, edges)
    if model == "clique_union":
        k = _pos_int(params, "k")
        size = _pos_int(params, "size")
        edges = []
        for i in range(k):
            base = i * size
            edges.extend(
                (base + u, base + v) for u in range(size) for v in range(u + 1, size)
            )
        return Graph(k * size, edges)
    if model == "planted_almost_cliques":
        return _planted_almost_cliques(params, rng)
    raise GraphError(f"unknown graph model: {model}")


def _pos_int(params, key):
    v = int(params[key])
    if v < 1:
        raise GraphError(f"{key} must be >= 1, got {v}")
    return v


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
    edges = []
    for i in range(k):
        base = i * size
        internal = [
            (base + u, base + v) for u in range(size) for v in range(u + 1, size)
        ]
        drop = rng.random(len(internal)) < removal
        edges.extend(e for e, d in zip(internal, drop) if not d)
    if k > 1 and inter_p > 0:
        # groups are contiguous blocks, so the cross pairs above u form the
        # contiguous tail [end-of-u's-group, n); one vector draw per row
        for u in range(n):
            start = (u // size + 1) * size
            if start >= n:
                continue
            hits = np.nonzero(rng.random(n - start) < inter_p)[0]
            edges.extend((u, start + int(h)) for h in hits)
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


def save_edge_list(graph: Graph) -> str:
    lines = [f"p edge {graph.n} {graph.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


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
    mode='random' draws lists uniformly without replacement from [1..U]
    (U defaults to n^2); mode='shared' gives everyone the prefix {1..size}.
    """
    n = graph.n
    u_size = colorspace_size if colorspace_size is not None else max(4, n * n)
    if kind == "delta_plus_one":
        sizes = [graph.delta + 1] * n
    elif kind == "deg_plus_one":
        sizes = [graph.degree(v) + 1 for v in range(n)]
    else:
        raise ValueError(f"unknown palette kind {kind}")
    if max(sizes) > u_size:
        raise ValueError("colorspace smaller than required list size")
    lists = {}
    if mode == "shared":
        for v in range(n):
            lists[v] = frozenset(range(1, sizes[v] + 1))
    elif mode == "random":
        rng = np.random.default_rng([seed, 0xBA1E77E])
        for v in range(n):
            picks = rng.choice(u_size, size=sizes[v], replace=False)
            lists[v] = frozenset(int(c) + 1 for c in picks)
    else:
        raise ValueError(f"unknown palette mode {mode}")
    return PaletteAssignment(colorspace_size=u_size, lists=lists)


def save_palettes(palettes: PaletteAssignment) -> str:
    lines = [f"U {palettes.colorspace_size}"]
    for v in sorted(palettes.lists):
        cols = " ".join(str(c) for c in sorted(palettes.lists[v]))
        lines.append(f"{v}: {cols}")
    return "\n".join(lines) + "\n"


def load_palettes(text: str) -> PaletteAssignment:
    """Parse `U <size>` and `<node>: <colors>` lines. A node listed twice,
    or a color outside [1, U] when U is given, is a ValueError naming the
    node."""
    u_size = 0
    lists = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("U "):
            u_size = int(line.split()[1])
            continue
        head, _, tail = line.partition(":")
        v = int(head)
        if v in lists:
            raise ValueError(f"node {v} is listed twice")
        lists[v] = frozenset(int(c) for c in tail.split())
    if u_size:
        for v, s in lists.items():
            if s and not 1 <= min(s) <= max(s) <= u_size:
                raise ValueError(f"node {v} has a color outside [1, {u_size}]")
    else:
        u_size = max((max(s) for s in lists.values() if s), default=1)
    return PaletteAssignment(colorspace_size=u_size, lists=lists)


# ---------------------------------------------------------------------------
# oracles


def similarity_oracle(graph: Graph, u: int, v: int, gamma: float) -> bool:
    """gamma-similar: |N(u) cap N(v)| >= (1-gamma)*Delta."""
    inter = len(graph.neighbor_sets[u] & graph.neighbor_sets[v])
    return inter >= (1.0 - gamma) * graph.delta


def density_oracle(graph: Graph, v: int, gamma: float) -> bool:
    """gamma-dense: v has at least (1-gamma)*Delta gamma-friends."""
    friends = sum(
        1 for u in graph.neighbors[v] if similarity_oracle(graph, u, v, gamma)
    )
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
    """Audit a coloring with one pass over the edge arrays; monochromatic
    edges come as (u, v) with u < v, ascending."""
    n = graph.n
    nodes = np.fromiter(coloring.keys(), np.int64, len(coloring))
    outside = (nodes < 0) | (nodes >= n)
    if outside.any():
        raise GraphError(f"coloring names node {nodes[outside][0]}, not in [0, {n})")
    col = np.zeros(n, dtype=np.int64)
    col[nodes] = np.fromiter(coloring.values(), np.int64, len(coloring))
    colored = np.zeros(n, dtype=bool)
    colored[nodes] = True
    src, dst = graph.edge_src, graph.indices
    mono = (src < dst) & colored[src] & colored[dst] & (col[src] == col[dst])
    mono_edges = list(zip(src[mono].tolist(), dst[mono].tolist()))
    off_list = [v for v, c in coloring.items() if c not in palettes.lists[v]]
    uncolored = np.flatnonzero(~colored).tolist()
    return ColoringReport(mono_edges, off_list, uncolored, allow_partial)
