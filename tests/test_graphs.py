from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from congestcolor import graphs
from congestcolor.graphs import (
    Graph,
    GraphError,
    density_oracle,
    generate,
    load_edge_list,
    make_palettes,
    verify_coloring,
)
from graph_oracles import (
    graph_edges,
    greedy_list_coloring,
    local_sparsity,
    save_edge_list,
    save_palettes,
    similarity_oracle,
    verify_coloring_reference,
)


def test_generate_complete():
    g = generate("complete", {"n": 5}, seed=0)
    assert g.n == 5 and g.m == 10 and g.delta == 4


def test_generate_star():
    g = generate("star", {"n": 11}, seed=0)
    assert g.delta == 10 and g.m == 10


def test_generate_clique_union():
    g = generate("clique_union", {"k": 2, "size": 9}, seed=0)
    assert g.n == 18 and g.delta == 8
    assert not g.has_edge(0, 9)


def test_generate_gnp_bounds():
    g = generate("gnp", {"n": 50, "p": 0.1}, seed=3)
    assert g.n == 50
    with pytest.raises(GraphError):
        generate("gnp", {"n": 10, "p": 1.5}, seed=0)


def test_generate_planted_shape():
    g = generate("planted_almost_cliques", {"k": 3, "delta": 16, "removal": 0.05}, seed=1)
    assert g.n == 3 * 17
    # groups stay nearly complete
    internal = sum(1 for v in g.neighbors(0) if v < 17)
    assert internal >= 12


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        Graph(0, [])


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])


def test_load_edge_list_k2():
    g = load_edge_list("p edge 2 1\ne 1 2\n")
    assert g.n == 2 and g.m == 1


def test_edge_list_roundtrip():
    g = generate("gnp", {"n": 30, "p": 0.2}, seed=9)
    g2 = load_edge_list(save_edge_list(g))
    assert g2.n == g.n
    assert all(g2.neighbors(v) == g.neighbors(v) for v in range(g.n))


def test_load_edge_list_errors():
    with pytest.raises(GraphError, match="line 1"):
        load_edge_list("e 1 1")
    with pytest.raises(GraphError):
        load_edge_list("p edge 2 2\ne 1 2\ne 2 1\n")
    with pytest.raises(GraphError):
        load_edge_list("p edge 2 1\ne 1 5\n")


def test_local_sparsity_clique_zero():
    g = generate("complete", {"n": 8}, seed=0)
    for v in range(8):
        assert local_sparsity(g, v) == 0


def test_local_sparsity_star_center():
    g = generate("star", {"n": 11}, seed=0)
    assert local_sparsity(g, 0) == Fraction(9, 2)


def test_local_sparsity_five_cycle():
    g = generate("cycle", {"n": 5}, seed=0)
    for v in range(5):
        assert local_sparsity(g, v) == Fraction(1, 2)


def test_local_sparsity_range():
    g = generate("gnp", {"n": 60, "p": 0.2}, seed=4)
    for v in range(g.n):
        z = local_sparsity(g, v)
        assert 0 <= z < Fraction(g.delta, 2)


def test_similarity_clique():
    g = generate("complete", {"n": 10}, seed=0)  # Delta = 9
    assert similarity_oracle(g, 0, 1, 1.0 / 3.0)


def test_similarity_disjoint():
    g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    assert not similarity_oracle(g, 0, 3, 0.9)


def test_star_leaves_similar():
    g = generate("star", {"n": 11}, seed=0)  # Delta = 10
    assert similarity_oracle(g, 1, 2, 0.9)


def test_density_planted_no_removal():
    g = generate(
        "planted_almost_cliques",
        {"k": 2, "delta": 12, "removal": 0.0, "inter_p": 0.0},
        seed=0,
    )
    for v in range(g.n):
        assert density_oracle(g, v, 1.0 / g.delta)


def test_verify_coloring_cases():
    g = load_edge_list("p edge 2 1\ne 1 2\n")
    pal = graphs.PaletteAssignment(2, {0: frozenset({1, 2}), 1: frozenset({1, 2})})
    assert verify_coloring(g, pal, {0: 1, 1: 2}).ok
    rep = verify_coloring(g, pal, {0: 1, 1: 1})
    assert not rep.ok and rep.monochromatic_edges == [(0, 1)]
    rep = verify_coloring(g, pal, {0: 5, 1: 2})
    assert not rep.ok and rep.off_list_nodes == [0]
    rep = verify_coloring(g, pal, {0: 1}, allow_partial=True)
    assert rep.ok and rep.uncolored_nodes == [1]


@pytest.mark.parametrize("seed", range(5))
def test_greedy_oracle_always_valid(seed):
    g = generate("gnp", {"n": 40, "p": 0.15}, seed=seed)
    pal = make_palettes(g, seed=seed, kind="deg_plus_one")
    coloring = greedy_list_coloring(g, pal)
    assert verify_coloring(g, pal, coloring).ok


def test_palette_roundtrip():
    g = generate("cycle", {"n": 6}, seed=0)
    pal = make_palettes(g, seed=2)
    pal2 = graphs.load_palettes(save_palettes(pal))
    assert pal2.lists == pal.lists
    assert pal2.colorspace_size == pal.colorspace_size


def test_palette_sizes():
    g = generate("star", {"n": 6}, seed=0)
    pal = make_palettes(g, seed=1)
    assert all(len(pal.lists[v]) == g.delta + 1 for v in range(g.n))
    pal = make_palettes(g, seed=1, kind="deg_plus_one")
    assert all(len(pal.lists[v]) == g.degree(v) + 1 for v in range(g.n))


@st.composite
def bfs_cases(draw):
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    within = set(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    root = draw(st.integers(0, n - 1))
    within.add(root)
    radius = draw(st.none() | st.integers(0, n))
    return Graph(n, [e for e, k in zip(pairs, keep) if k]), root, within, radius


@settings(max_examples=200, deadline=None)
@given(bfs_cases())
def test_bfs_matches_shortest_paths_on_induced_subgraph(case):
    g, root, within, radius = case
    members = sorted(within)
    index = {v: i for i, v in enumerate(members)}
    adj = np.zeros((len(members), len(members)))
    for u, v in graph_edges(g):
        if u in index and v in index:
            adj[index[u], index[v]] = adj[index[v], index[u]] = 1
    hops = shortest_path(csr_matrix(adj), unweighted=True, indices=index[root])
    expected = {
        v: int(hops[index[v]]) for v in members
        if np.isfinite(hops[index[v]])
        and (radius is None or hops[index[v]] <= radius)
    }
    dist = g.bfs(root, within, radius)
    assert dist == expected
    order = list(dist.values())
    assert order[0] == 0 and order == sorted(order)


def test_load_palettes_rejects_node_listed_twice():
    with pytest.raises(ValueError, match="node 0 is listed twice"):
        graphs.load_palettes("U 5\n0: 1 2\n0: 3 4\n")


def test_load_palettes_rejects_color_outside_colorspace():
    with pytest.raises(ValueError, match=r"node 0 has a color outside \[1, 2\]"):
        graphs.load_palettes("U 2\n0: 1 7\n")
    with pytest.raises(ValueError, match="node 1"):
        graphs.load_palettes("U 4\n0: 1 2\n1: 0 3\n")
    # without a U line the colorspace is the largest color listed
    assert graphs.load_palettes("0: 1 7\n").colorspace_size == 7


def test_verify_coloring_rejects_unknown_node():
    g = generate("path", {"n": 3}, seed=0)
    pal = make_palettes(g, seed=1, mode="shared")
    for v in (-1, 3):
        with pytest.raises(GraphError, match=f"node {v}"):
            verify_coloring(g, pal, {0: 1, v: 2})


@st.composite
def coloring_cases(draw):
    n = draw(st.integers(1, 16))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    u_size = draw(st.integers(1, 5))
    lists = {v: frozenset(draw(st.lists(st.integers(1, u_size), min_size=1)))
             for v in range(n)}
    # a few colors over a partial, shuffled node order: monochromatic edges,
    # off-list colors (0, -1 and u_size + 1 are on no list) and uncolored
    # nodes all turn up, and the report must keep the dict's order
    order = draw(st.permutations(range(n)))
    colored = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    coloring = {v: draw(st.integers(-1, u_size + 1)) for v in order if colored[v]}
    graph = Graph(n, [e for e, k in zip(pairs, keep) if k])
    return graph, graphs.PaletteAssignment(u_size, lists), coloring


@settings(max_examples=300, deadline=None)
@given(coloring_cases(), st.booleans())
def test_verify_coloring_matches_edge_loop(case, allow_partial):
    g, pal, coloring = case
    assert verify_coloring(g, pal, coloring, allow_partial) == \
        verify_coloring_reference(g, pal, coloring, allow_partial)
