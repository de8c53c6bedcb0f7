"""Brute-force references over a `Graph`: local sparsity, a sequential greedy
list coloring, and the per-edge loop form of `graphs.verify_coloring` that
the array version is checked against."""

from fractions import Fraction

from congestcolor.graphs import ColoringReport, GraphError


def neighborhood_edge_count(graph, v: int) -> int:
    """Number of edges inside N(v), by brute force over neighbor pairs."""
    nbrs = graph.neighbors[v]
    count = 0
    for i, u in enumerate(nbrs):
        us = graph.neighbor_sets[u]
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


def greedy_list_coloring(graph, palettes) -> dict:
    """Sequential greedy baseline; always succeeds on (deg+1)-list instances."""
    coloring = {}
    for v in range(graph.n):
        used = {coloring[u] for u in graph.neighbors[v] if u in coloring}
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
    for u, v in graph.edges():
        cu, cv = coloring.get(u), coloring.get(v)
        if cu is not None and cu == cv:
            mono.append((u, v))
    for v, c in coloring.items():
        if c not in palettes.lists[v]:
            off_list.append(v)
    uncolored = [v for v in range(graph.n) if v not in coloring]
    return ColoringReport(mono, off_list, uncolored, allow_partial)
