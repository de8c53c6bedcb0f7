"""Brute-force references over a `Graph`: the per-edge loop constructor and
the edge-list generators that `Graph` and `graphs.generate` are checked
against, a graph's tails and edge list derived from its CSR, the writers
whose files `graphs.load_edge_list` and `graphs.load_palettes` read back,
local sparsity, the similarity oracle, the diameter of an induced subgraph,
a sequential greedy list coloring, and the per-edge loop form of
`graphs.verify_coloring` that the array version is checked against."""

from fractions import Fraction

import numpy as np

from congestcolor.graphs import ColoringReport, GraphError, _pos_int


class ReferenceGraph:
    """The loop form of `Graph`: one Python step per edge against a `seen`
    set, per-node sorted tuples, then the CSR arrays filled row by row."""

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
        self.rows = [tuple(sorted(a)) for a in adj]
        self.degrees = np.array([len(a) for a in adj], dtype=np.int64)
        self.delta = int(self.degrees.max())
        self.m = len(seen)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])
        self.indices = np.empty(int(self.degrees.sum()), dtype=np.int64)
        for v in range(n):
            self.indices[self.indptr[v]:self.indptr[v + 1]] = self.rows[v]
        self.edge_src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)

    def edges(self):
        """Every edge once, as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in self.rows[u]:
                if u < v:
                    yield (u, v)


def edge_tails(graph):
    """The tail of every CSR slot of `graph`, aligned with its `indices`,
    derived from the row lengths."""
    return np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)


def graph_edges(graph):
    """Every edge of a `Graph` (or `ReferenceGraph`) once, as (u, v) with
    u < v, ascending."""
    tails = edge_tails(graph)
    up = tails < graph.indices
    return zip(tails[up].tolist(), graph.indices[up].tolist())


def save_edge_list(graph) -> str:
    lines = [f"p edge {graph.n} {graph.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph_edges(graph))
    return "\n".join(lines) + "\n"


def save_palettes(palettes) -> str:
    lines = [f"U {palettes.colorspace_size}"]
    for v in sorted(palettes.lists):
        cols = " ".join(str(c) for c in sorted(palettes.lists[v]))
        lines.append(f"{v}: {cols}")
    return "\n".join(lines) + "\n"


def reference_generate(model: str, params: dict, seed: int) -> ReferenceGraph:
    """`graphs.generate` with Python edge lists: the same draws, in the same
    order, from the same generator."""
    rng = np.random.default_rng([seed, 0xC0109])
    if model == "complete":
        n = _pos_int(params, "n")
        return ReferenceGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if model == "path":
        n = _pos_int(params, "n")
        return ReferenceGraph(n, [(i, i + 1) for i in range(n - 1)])
    if model == "cycle":
        n = _pos_int(params, "n")
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return ReferenceGraph(n, [(i, (i + 1) % n) for i in range(n)])
    if model == "star":
        n = _pos_int(params, "n")
        return ReferenceGraph(n, [(0, i) for i in range(1, n)])
    if model == "gnp":
        n = _pos_int(params, "n")
        p = float(params["p"])
        edges = []
        for u in range(n - 1):
            hits = np.nonzero(rng.random(n - u - 1) < p)[0]
            edges.extend((u, u + 1 + int(h)) for h in hits)
        return ReferenceGraph(n, edges)
    if model == "clique_union":
        k = _pos_int(params, "k")
        size = _pos_int(params, "size")
        edges = []
        for i in range(k):
            base = i * size
            edges.extend(
                (base + u, base + v) for u in range(size) for v in range(u + 1, size)
            )
        return ReferenceGraph(k * size, edges)
    if model == "planted_almost_cliques":
        k = _pos_int(params, "k")
        size = _pos_int(params, "delta") + 1
        removal = float(params.get("removal", 0.05))
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
            for u in range(n):
                start = (u // size + 1) * size
                if start >= n:
                    continue
                hits = np.nonzero(rng.random(n - start) < inter_p)[0]
                edges.extend((u, start + int(h)) for h in hits)
        return ReferenceGraph(n, edges)
    raise GraphError(f"unknown graph model: {model}")


def neighborhood_edge_count(graph, v: int) -> int:
    """Number of edges inside N(v), by brute force over neighbor pairs."""
    nbrs = graph.neighbors(v)
    count = 0
    for i, u in enumerate(nbrs):
        us = set(graph.neighbors(u))
        for w in nbrs[i + 1:]:
            if w in us:
                count += 1
    return count


def local_sparsity(graph, v: int) -> Fraction:
    """Exact local sparsity: (1/Delta) * (C(Delta,2) - m(N(v)))."""
    d = graph.delta
    if d < 1:
        raise GraphError("local sparsity undefined for Delta < 1")
    return Fraction(d * (d - 1) // 2 - neighborhood_edge_count(graph, v), d)


def similarity_oracle(graph, u: int, v: int, gamma: float) -> bool:
    """gamma-similar: |N(u) cap N(v)| >= (1-gamma)*Delta."""
    inter = len(set(graph.neighbors(u)).intersection(graph.neighbors(v)))
    return inter >= (1.0 - gamma) * graph.delta


def induced_diameter(graph, nodes) -> int:
    """Most hops between two of `nodes` inside the subgraph they induce, by
    one BFS from each; `nodes` must induce a connected subgraph."""
    return max(max(graph.bfs(s, nodes).values()) for s in nodes)


def greedy_list_coloring(graph, palettes) -> dict:
    """Sequential greedy baseline; always succeeds on (deg+1)-list instances."""
    coloring = {}
    for v in range(graph.n):
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        avail = palettes.lists[v] - used
        if not avail:
            raise GraphError(f"greedy oracle stuck at node {v}")
        coloring[v] = min(avail)
    return coloring


def verify_coloring_reference(graph, palettes, coloring: dict,
                              allow_partial: bool = False) -> ColoringReport:
    """One Python step per edge and per node."""
    mono = []
    off_list = []
    for u, v in graph_edges(graph):
        cu, cv = coloring.get(u), coloring.get(v)
        if cu is not None and cu == cv:
            mono.append((u, v))
    for v, c in coloring.items():
        if c not in palettes.lists.get(v, ()):
            off_list.append(v)
    uncolored = [v for v in range(graph.n) if v not in coloring]
    return ColoringReport(mono, off_list, uncolored, allow_partial)
