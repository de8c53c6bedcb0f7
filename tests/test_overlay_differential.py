"""Differential test: the adjacency-block `compute_overlay` against the
per-pair set formulation in `overlay_reference.py`.

Both must assign the same relays in the same order, book the same phases,
write the same trace and leave every node's random stream at the same
position, so that the rest of a pipeline run sees the same bill.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import overlay_reference
from overlay_reference import compute_overlay_reference, multi_trial
from congestcolor.acd import compute_acd
from congestcolor.config import SimConfig
from congestcolor.graphs import Graph, generate, make_palettes
from congestcolor import overlay
from congestcolor.overlay import compute_overlay
from congestcolor.sim import SimError, Streams, new_network


def outcome(compute, g, cliques, seed, epsilon=0.05, through_acd=False, **cfg):
    """Overlays of `cliques` ([(members, leader)]) built one after another
    on one traced network, or of the decomposition's cliques when
    `through_acd` is set; an error ends the run and is part of the result."""
    config = SimConfig(trace=True, **cfg)
    net = new_network(g, make_palettes(g, seed=1, mode="shared"), config, seed)
    result = []
    try:
        if through_acd:
            acd = compute_acd(net)
            epsilon = float(acd.epsilon)
            cliques = [(acd.cliques[ac], acd.leaders[ac]) for ac in sorted(acd.cliques)]
        for members, leader in cliques:
            ov = compute(net, members, leader, epsilon=epsilon)
            result.append((
                ov.clique,
                sorted(ov.members),
                list(ov.relays.items()),
            ))
    except SimError as exc:
        result.append(("error", str(exc)))
    next_draws = net.streams.random(np.arange(g.n)).tolist()
    return result, net.stats.snapshot(), net.trace, next_draws


def assert_same(g, cliques, seed, **kwargs):
    new = outcome(compute_overlay, g, cliques, seed, **kwargs)
    ref = outcome(compute_overlay_reference, g, cliques, seed, **kwargs)
    assert new[0] == ref[0]
    assert new[1] == ref[1]
    assert new[2] == ref[2]
    assert new[3] == ref[3]
    return new


def whole(g):
    return [(range(g.n), 0)]


def without(g, drop):
    return Graph(g.n, [e for e in g.edges() if e not in set(drop)])


@pytest.mark.parametrize("seed", range(5))
def test_planted_single_clique(seed):
    g = generate(
        "planted_almost_cliques", {"k": 1, "delta": 128, "removal": 0.05}, seed=seed
    )
    result, _, _, _ = assert_same(g, whole(g), seed)
    assert result[0][2]


def test_planted_two_large_cliques_through_acd():
    g = generate(
        "planted_almost_cliques",
        {"k": 2, "delta": 512, "removal": 0.03, "inter_p": 0.0},
        seed=1,
    )
    result, _, _, _ = assert_same(g, None, 1, through_acd=True)
    assert len(result) == 2 and all(r[0] != "error" for r in result)


def test_planted_with_cross_edges_through_acd():
    # members' CSR rows hold neighbors outside the clique, which the
    # adjacency block must drop
    g = generate(
        "planted_almost_cliques",
        {"k": 3, "delta": 64, "removal": 0.05, "inter_p": 0.003},
        seed=2,
    )
    for seed in range(2):
        result, _, _, _ = assert_same(g, None, seed, through_acd=True)
        assert len(result) == 3 and all(r[0] != "error" for r in result)


def test_complete_clique():
    g = generate("complete", {"n": 20}, seed=0)
    result, _, _, _ = assert_same(g, whole(g), 0)
    assert result[0][2] == []


def test_single_missing_edge():
    g = without(generate("complete", {"n": 20}, seed=0), [(3, 7)])
    result, _, _, _ = assert_same(g, whole(g), 0)
    assert [pair for pair, _ in result[0][2]] == [frozenset((3, 7))]


def test_clique_given_as_range_and_as_set():
    # a sub-range of a larger graph, once as a range and once as a set; the
    # default epsilon puts a warning into the trace
    g = generate(
        "planted_almost_cliques", {"k": 2, "delta": 48, "removal": 0.05}, seed=3
    )
    for members in (range(49), set(range(49))):
        result, _, trace, _ = assert_same(g, [(members, 5)], 0, epsilon=1.0 / 3.0)
        assert result[0][0] == 5 and result[0][2]
        assert any(event == "overlay_warn" for _, _, event, _ in trace)


def spy_permutations(monkeypatch):
    """The rows of every `Streams.permutations` call from now on."""
    calls = []
    permutations = Streams.permutations

    def spy(self, rows, sizes):
        calls.append(np.asarray(rows).tolist())
        return permutations(self, rows, sizes)

    monkeypatch.setattr(Streams, "permutations", spy)
    return calls


def round_cap(g, mult):
    return mult * max(1, math.ceil(math.log2(max(2.0, math.log2(max(4, g.n))))))


@pytest.mark.parametrize("seed", range(3))
def test_no_checkout_within_cap(monkeypatch, seed):
    # the capped rounds draw with `integers`; a clique they finish makes no
    # `permutations` call
    g = generate(
        "planted_almost_cliques", {"k": 1, "delta": 128, "removal": 0.01}, seed=seed
    )
    calls = spy_permutations(monkeypatch)
    result, stats, _, _ = outcome(compute_overlay, g, whole(g), seed)
    assert result[0][2]
    assert stats["per_phase"]["overlay_pair"] <= 2 * round_cap(g, overlay.ROUND_MULT)
    assert calls == []


def test_finishing_rounds(monkeypatch):
    # with the paired-round cap halved, pairs are left over for the
    # parallel-candidate finishing rounds
    monkeypatch.setattr(overlay, "ROUND_MULT", 1)
    g = generate(
        "planted_almost_cliques", {"k": 1, "delta": 128, "removal": 0.05}, seed=2
    )
    _, stats, _, _ = assert_same(g, whole(g), 2)
    assert stats["per_phase"]["overlay_pair"] > 2 * round_cap(g, 1)
    # the reference calls multi_trial once per pair pending in a finishing
    # round, in pending order; each finishing round is one `permutations`
    # call whose rows are exactly those pairs' handlers
    rounds = defaultdict(list)      # round stamp -> callers, in call order

    def record(network, v, *args):
        rounds[network.round_counter].append(v)
        return multi_trial(network, v, *args)

    monkeypatch.setattr(overlay_reference, "multi_trial", record)
    outcome(compute_overlay_reference, g, whole(g), 2)
    calls = spy_permutations(monkeypatch)
    outcome(compute_overlay, g, whole(g), 2)
    assert len(rounds) > 1 and calls == list(rounds.values())


@pytest.mark.parametrize("edges, n, first", [
    # path 0-2-3-1: the non-edge (0,1) has no common neighbor
    ([(0, 2), (2, 3), (3, 1)], 4, (0, 1)),
    # path 0-4-3-2 with 1 hanging off 4: (0,1) has a common neighbor, (0,2)
    # and (1,2) have none
    ([(0, 4), (1, 4), (3, 4), (2, 3)], 5, (0, 2)),
])
def test_no_common_neighbor_raises_alike(edges, n, first):
    g = Graph(n, edges)
    result, _, _, _ = assert_same(g, whole(g), 0)
    assert result == [
        ("error", f"non-edge ({first[0]},{first[1]}) has no common neighbor in clique")
    ]


def test_run_out_of_candidates_raises_alike():
    # a star around 3: relay 3 serves (0,1) first, then rejects (0,2) for the
    # shared endpoint 0, and 3 was the only candidate of (0,2)
    g = Graph(4, [(0, 3), (1, 3), (2, 3)])
    result, _, _, _ = assert_same(g, [(range(4), 3)], 0)
    assert result == [("error", "overlay: pair (0, 2) ran out of candidate relays")]


def test_grant_wider_than_bandwidth_raises_alike():
    # n=20 gives 5-bit IDs and 11-bit grants, one bit over the budget
    g = generate("complete", {"n": 20}, seed=0)
    result, _, _, _ = assert_same(g, whole(g), 0, bandwidth_bits=10)
    assert result == [("error", "overlay grant message exceeds bandwidth")]


@settings(max_examples=25, deadline=None)
@given(
    delta=st.integers(4, 48),
    removal=st.floats(0.0, 0.3),
    round_mult=st.integers(1, 2),
    graph_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
def test_matches_reference_on_planted_sweep(delta, removal, round_mult, graph_seed, seed):
    g = generate(
        "planted_almost_cliques",
        {"k": 1, "delta": delta, "removal": removal},
        seed=graph_seed,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(overlay, "ROUND_MULT", round_mult)
        assert_same(g, whole(g), seed)
