"""Differential test: the batched post-shattering stage of
`small_degree.color_small_degree` against the per-component loop in
`small_degree_reference.py`.

Both must give the same coloring, book the same bill, leave every node's
random stream at the same position and, with tracing on, log the same events
at the same rounds (compared as multisets: the batch assigns the colors of
many components in one call, so the log order differs).
"""

from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import small_degree_reference as reference
from congestcolor import dense_sparse, harness, small_degree
from congestcolor.config import SimConfig
from congestcolor.graphs import Graph, PaletteAssignment, generate, make_palettes
from congestcolor.sim import SimError, new_network
from test_bill_pinned import PINNED

LISTS = {
    "shared": dict(mode="shared"),
    "deg+1": dict(mode="shared", kind="deg_plus_one"),
    "random": dict(mode="random"),
}


def build(model, n, seed):
    if model == "matching":
        return Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    if model == "complete":         # clusters whose trials leave stragglers
        return generate("complete", {"n": min(n, 16)}, seed)
    if model == "gnp":
        return generate("gnp", {"n": n, "p": min(1.0, 3.0 / n)}, seed)
    return generate(model, {"n": n}, seed)


def whole_components(network, subgraph):
    """A stand-in for `shatter` that colors nothing: the uncolored
    components of the subgraph, large enough to carve into several
    clusters and classes."""
    remaining = {v for v in subgraph if network.color[v] < 0}
    components = []
    while remaining:
        comp = sorted(network.graph.bfs(min(remaining), remaining))
        remaining -= set(comp)
        components.append(comp)
    return components


def outcome(color, g, pal, seed, unshattered):
    net = new_network(g, pal, SimConfig(trace=True), seed)
    with ExitStack() as stack:
        if unshattered:
            for module in (small_degree, reference):
                stack.enter_context(
                    mock.patch.object(module, "shatter", whole_components))
        try:
            color(net, range(g.n))
            result = net.coloring()
        except SimError as exc:
            result = ("error", str(exc))
    next_draws = net.streams.random(np.arange(g.n)).tolist()
    return result, net.stats.snapshot(), next_draws, Counter(net.trace)


def assert_same(g, pal, seed, unshattered):
    new = outcome(small_degree.color_small_degree, g, pal, seed, unshattered)
    ref = outcome(reference.color_small_degree, g, pal, seed, unshattered)
    assert new[0] == ref[0]
    assert new[1] == ref[1]
    assert new[2] == ref[2]
    assert new[3] == ref[3]
    return new


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["cycle", "path", "matching", "gnp", "complete"]),
       st.integers(3, 120), st.sampled_from(sorted(LISTS)),
       st.integers(0, 40), st.booleans())
def test_batch_matches_per_component_loop(model, n, lists, seed, unshattered):
    g = build(model, n, seed)
    pal = make_palettes(g, seed=seed + 1, **LISTS[lists])
    assert_same(g, pal, seed, unshattered)


def test_components_of_several_classes_rederive_stale_maps():
    # four uncolored paths of 150 nodes on one shared list of six colors:
    # each carves into clusters of two classes, and the second class
    # re-derives its maps once the first has taken colors off its lists
    g = Graph(600, [(i, i + 1) for i in range(599) if (i + 1) % 150])
    pal = PaletteAssignment(64, {v: frozenset(range(1, 7)) for v in range(600)})
    result = assert_same(g, pal, 2, unshattered=True)[0]
    assert len(result) == 600
    net = new_network(g, pal, SimConfig(), 2)
    decomp = small_degree.decompose_clusters(net, range(150))
    assert len(decomp.classes) == 2
    with mock.patch.object(small_degree, "reduce_colorspace",
                           wraps=small_degree.reduce_colorspace) as reduce, \
            mock.patch.object(small_degree, "shatter", whole_components):
        small_degree.color_small_degree(net, range(g.n))
    assert reduce.call_count > 4 * sum(1 for _ in decomp.all_clusters())


def test_stale_colormap_rederived_like_the_reference():
    # the scenario of test_stale_colormap_recertified, through both
    # color_clusters
    runs = []
    for impl in (small_degree, reference):
        g = generate("complete", {"n": 12}, seed=4)
        extra = Graph(13, list(g.edges()) + [(11, 12)])
        net = new_network(extra, make_palettes(extra, seed=5), SimConfig(), 4)
        decomp = small_degree.decompose_clusters(net, range(12), r_cluster=13)
        (cluster,) = decomp.all_clusters()
        cmap = impl.reduce_colorspace(net, cluster)
        net.assign_colors([12], [sorted(set(net.palette(12))
                                       & set(net.palette(11)))[0]])
        before = net.stats.per_phase["small_reduce"]
        impl.color_clusters(net, decomp, {cluster: cmap})
        assert net.stats.per_phase["small_reduce"] > before
        runs.append((net.coloring(), net.stats.snapshot(),
                     net.streams.random(np.arange(13)).tolist()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_instances_match_reference(name):
    # the planted instances reach color_small_degree from the dense stage
    model, params, seed, cfg, *_ = PINNED[name]
    g = generate(model, params, seed)
    pal = make_palettes(g, seed=seed + 1, mode="shared")
    new = harness.run_pipeline(g, pal, SimConfig(**cfg), seed)
    with mock.patch.object(harness, "color_small_degree",
                           reference.color_small_degree), \
            mock.patch.object(dense_sparse, "color_small_degree",
                              reference.color_small_degree):
        ref = harness.run_pipeline(g, pal, SimConfig(**cfg), seed)
    assert new.stats == ref.stats
    assert new.coloring == ref.coloring
