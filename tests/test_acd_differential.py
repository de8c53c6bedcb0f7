"""Differential test: the array-pass `compute_acd` against the per-node loop
formulation in `acd_reference.py`.

Both must return the same decomposition, book the same phases and leave
every node's random stream at the same position. Sets are compared as lists,
so their iteration order must match too: later stages walk the cliques in
that order and draw from node streams as they go.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acd_reference import compute_acd_reference
from congestcolor import acd as acd_module
from congestcolor.acd import compute_acd
from congestcolor.config import SimConfig
from congestcolor.graphs import Graph, generate, make_palettes
from congestcolor.sim import SimError, new_network


def outcome(compute, g, config, seed):
    net = new_network(g, make_palettes(g, seed=1, mode="shared"), config, seed)
    try:
        acd = compute(net)
    except SimError as exc:
        result = ("error", str(exc))
    else:
        result = (
            list(acd.v_sparse),
            [(ac, list(members)) for ac, members in acd.cliques.items()],
            list(acd.leaders.items()),
            (acd.f_edges.dtype, acd.f_edges.shape, acd.f_edges.tolist()),
            acd.skipped,
            acd.epsilon,
            acd.eta,
        )
    next_draws = net.streams.random(np.arange(g.n)).tolist()
    return result, net.stats.snapshot(), next_draws


def assert_same(g, config, seed, margin=None):
    """Compare both formulations, with `acd.MARGIN` set to `margin` if given."""
    with pytest.MonkeyPatch.context() as mp:
        if margin is not None:
            mp.setattr(acd_module, "MARGIN", margin)
        new = outcome(compute_acd, g, config, seed)
        ref = outcome(compute_acd_reference, g, config, seed)
    assert new[0] == ref[0]
    assert new[1] == ref[1]
    assert new[2] == ref[2]
    return new[0]


CASES = {
    "planted_no_cross_edges": (
        "planted_almost_cliques",
        {"k": 3, "delta": 64, "removal": 0.01, "inter_p": 0.0}, 1, {}, None,
    ),
    "planted_cross_edges": (
        "planted_almost_cliques",
        {"k": 3, "delta": 64, "removal": 0.05, "inter_p": 0.01}, 2, {}, None,
    ),
    # heavy removal: some groups fail the size or internal-degree floor
    "planted_rejected_groups": (
        "planted_almost_cliques",
        {"k": 3, "delta": 64, "removal": 0.3, "inter_p": 0.0}, 2, {}, None,
    ),
    # low thresholds on a loose instance: some groups are not connected
    "planted_fragmented_groups": (
        "planted_almost_cliques",
        {"k": 4, "delta": 20, "removal": 0.5, "inter_p": 0.02}, 1, {}, 0.3,
    ),
    "clique_union": ("clique_union", {"k": 2, "size": 65}, 0, {}, None),
    "gnp": ("gnp", {"n": 400, "p": 0.08}, 0, {}, None),
    "theory_mode": ("clique_union", {"k": 2, "size": 257}, 0, {"mode": "theory"}, None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(name):
    model, params, graph_seed, cfg, margin = CASES[name]
    g = generate(model, params, seed=graph_seed)
    assert g.delta >= 16  # below that the decomposition is skipped
    for seed in range(3):
        assert_same(g, SimConfig(**cfg), seed, margin)


def test_planted_case_finds_cliques():
    model, params, graph_seed, _, _ = CASES["planted_no_cross_edges"]
    g = generate(model, params, seed=graph_seed)
    result = assert_same(g, SimConfig(), 0)
    assert len(result[1]) == 3


def test_planted_case_with_shuffled_ids():
    # with the groups' IDs interleaved, the order of their lowest members
    # (which fixes the order of `cliques`) differs from the anchors' order
    model, params, graph_seed, _, _ = CASES["planted_no_cross_edges"]
    g = generate(model, params, seed=graph_seed)
    perm = np.random.default_rng(5).permutation(g.n).tolist()
    g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    result = assert_same(g, SimConfig(), 0)
    anchors = [ac for ac, _ in result[1]]
    assert len(anchors) == 3 and anchors != sorted(anchors)


def test_double_adoption_raises_alike():
    # dense cross-group edges and low thresholds let a node hear two anchors
    # often enough to adopt both, which the decomposition must reject
    g = generate(
        "planted_almost_cliques",
        {"k": 3, "delta": 32, "removal": 0.05, "inter_p": 0.2},
        seed=0,
    )
    for seed in range(3):
        result = assert_same(g, SimConfig(), seed, margin=0.05)
        assert result[0] == "error"
        assert re.fullmatch(r"node \d+ qualifies for \d+ anchors", result[1])


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 4),
    delta=st.integers(16, 40),
    removal=st.floats(0.0, 0.5),
    inter_p=st.sampled_from([0.0, 0.01, 0.05]),
    margin=st.sampled_from([0.3, 0.5]),
    graph_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
def test_matches_reference_on_planted_sweep(
    k, delta, removal, inter_p, margin, graph_seed, seed
):
    g = generate(
        "planted_almost_cliques",
        {"k": k, "delta": delta, "removal": removal, "inter_p": inter_p},
        seed=graph_seed,
    )
    assert_same(g, SimConfig(), seed, margin=margin)
