"""The array-built `Graph` and `graphs.generate` against the loop constructor
and the edge-list generators of `graph_oracles`: the same CSR arrays, the
same tails, the same counts, the same edge order and the same rejection
messages."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from congestcolor.graphs import Graph, GraphError, generate
from graph_oracles import ReferenceGraph, edge_tails, graph_edges, reference_generate

CSR = ("indptr", "indices", "degrees")


def assert_same_graph(g, ref):
    for name in CSR:
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.int64, name
        assert np.array_equal(got, want), name
    # the tails derived from the row lengths, whole and through `Graph.tails`
    assert np.array_equal(edge_tails(g), ref.edge_src)
    assert np.array_equal(g.tails(slice(0, g.n)), ref.edge_src)
    assert (g.n, g.m, g.delta) == (ref.n, ref.m, ref.delta)
    assert list(graph_edges(g)) == list(ref.edges())
    for v in range(g.n):
        assert g.neighbors(v) == list(ref.rows[v])
        assert g.degree(v) == len(ref.rows[v])


@st.composite
def edge_lists(draw):
    """A simple graph on n nodes as a shuffled list of pairs, each pair in a
    random orientation."""
    n = draw(st.integers(1, 14))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    return n, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.booleans())
def test_csr_matches_loop_constructor(case, as_array):
    n, edges = case
    given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
    assert_same_graph(Graph(n, given_edges), ReferenceGraph(n, edges))


def test_single_node_without_edges():
    for edges in ([], np.empty((0, 2), dtype=np.int64), iter(())):
        g = Graph(1, edges)
        assert_same_graph(g, ReferenceGraph(1, []))
        assert g.bfs(0, {0}) == {0: 0}


def error_of(build, n, edges):
    with pytest.raises(GraphError) as info:
        build(n, edges)
    return str(info.value)


@st.composite
def bad_edge_lists(draw):
    """A valid edge list with a few faults injected at random positions:
    ids out of range, self-loops and repeated edges in either orientation."""
    n, edges = draw(edge_lists())
    edges = list(edges)
    faults = draw(st.lists(st.sampled_from(("range", "loop", "dup")),
                           min_size=1, max_size=4))
    for kind in faults:
        if kind == "range":
            bad = draw(st.sampled_from((-1, n, n + 5, -(2 ** 40), 2 ** 40)))
            other = draw(st.integers(0, n - 1))
            fault = (bad, other) if draw(st.booleans()) else (other, bad)
        elif kind == "loop":
            v = draw(st.integers(0, n - 1))
            fault = (v, v)
        elif edges:
            u, v = draw(st.sampled_from(edges))
            fault = (v, u) if draw(st.booleans()) else (u, v)
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), fault)
    return n, edges


@settings(max_examples=300, deadline=None)
@given(bad_edge_lists(), st.booleans())
def test_rejection_message_matches_loop_constructor(case, as_array):
    n, edges = case
    try:
        ReferenceGraph(n, edges)
    except GraphError as err:
        want = str(err)
    else:
        want = None
    given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
    if want is None:
        assert_same_graph(Graph(n, given_edges), ReferenceGraph(n, edges))
    else:
        assert error_of(Graph, n, given_edges) == want


def test_rejects_non_integer_ids():
    with pytest.raises(GraphError, match="integer node ids"):
        Graph(3, [(0.0, 1.0)])
    with pytest.raises(GraphError, match="pairs"):
        Graph(3, np.array([0, 1, 2]))


MODELS = [
    ("planted_almost_cliques", {"k": 3, "delta": 16, "removal": 0.1, "inter_p": 0.0}),
    ("planted_almost_cliques", {"k": 4, "delta": 12, "removal": 0.05}),
    ("planted_almost_cliques", {"k": 1, "delta": 9}),
    ("gnp", {"n": 40, "p": 0.0}),
    ("gnp", {"n": 40, "p": 0.1}),
    ("gnp", {"n": 40, "p": 1.0}),
    ("gnp", {"n": 1, "p": 0.5}),
    ("clique_union", {"k": 3, "size": 6}),
    ("clique_union", {"k": 2, "size": 1}),
    ("complete", {"n": 9}),
    ("complete", {"n": 1}),
    ("path", {"n": 7}),
    ("path", {"n": 1}),
    ("cycle", {"n": 3}),
    ("cycle", {"n": 11}),
    ("star", {"n": 8}),
    ("star", {"n": 1}),
]


@pytest.mark.parametrize("model,params", MODELS)
def test_generators_match_edge_list_generators(model, params):
    for seed in range(4):
        assert_same_graph(generate(model, params, seed),
                          reference_generate(model, params, seed))


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.data())
@example((1, []), None)
@example((5, [(0, 4)]), None)
def test_tails_match_reference_over_row_ranges(case, data):
    """`Graph.tails` of a random row range, of all rows and of empty
    ranges, against the loop constructor's tails of the same slots, on
    graphs with isolated nodes (empty rows) anywhere."""
    n, edges = case
    g, ref = Graph(n, edges), ReferenceGraph(n, edges)
    ranges = [(0, n), (0, 0), (n, n)]
    if data is not None:
        a = data.draw(st.integers(0, n), label="a")
        ranges += [(a, data.draw(st.integers(a, n), label="b")), (a, a)]
    for a, b in ranges:
        got = g.tails(slice(a, b))
        assert got.dtype == np.int64
        assert np.array_equal(got, ref.edge_src[ref.indptr[a]:ref.indptr[b]])
