"""The color-trial kernel against its plain form in `trial_reference.py`.

`Network.assign_colors` and `trials.try_color_round` walk their rows in
blocks, and `Network.settle` strips a winner's color from a neighbor on the
winner's own pool row at the winner's offset, looks only the other neighbors
up, and finds the owner of each stripped entry from `pal_ptr`;
`random_color_trial` finishes its last redrawing rows one at a time.
`test_edge_blocks.py` runs these tests again with blocks of a few slots. On every instance, both
forms must leave the same colors, uncolored degrees, removed masks and live
counts, pick the same winners, leave every node's stream at the same place
and refuse a bad batch with the same error.

The lists come in three kinds: shared Δ+1 lists (one pool row), shared deg+1
lists (several rows, each color at the same offset in all of them) and random
lists from a colorspace just above the list size (rows that overlap at
different offsets).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trial_reference as ref
from congestcolor.config import SimConfig
from congestcolor.graphs import PaletteAssignment, generate, make_palettes
from congestcolor.sim import TAIL_ROWS, SimError, new_network
from congestcolor.trials import random_color_trial

LIST_KINDS = ("shared_delta", "shared_deg", "random_tight")


def lists_of(g, kind, seed):
    if kind == "shared_delta":
        return make_palettes(g, seed, mode="shared")
    if kind == "shared_deg":
        return make_palettes(g, seed, mode="shared", kind="deg_plus_one")
    return make_palettes(g, seed, colorspace_size=g.delta + 2, mode="random")


@st.composite
def instances(draw):
    g = generate("gnp", {"n": draw(st.integers(2, 48)),
                         "p": draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))},
                 seed=draw(st.integers(0, 2 ** 16)))
    pal = lists_of(g, draw(st.sampled_from(LIST_KINDS)),
                   draw(st.integers(0, 2 ** 16)))
    return g, pal, draw(st.integers(0, 2 ** 16))


def twins(g, pal, seed):
    """Two networks in the same state: the fast form and the reference."""
    return (new_network(g, pal, SimConfig(), seed),
            ref.use_reference(new_network(g, pal, SimConfig(), seed)))


def assert_same(fast, slow):
    for name in ("color", "udeg", "removed", "live"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
    for name in ("hi", "lo", "has32", "buf32"):
        assert np.array_equal(getattr(fast.streams, name),
                              getattr(slow.streams, name)), name


def assert_same_next_draws(fast, slow):
    every = np.arange(fast.graph.n)
    assert fast.streams.integers(every, [2 ** 32] * every.size).tolist() == \
        slow.streams.integers(every, [2 ** 32] * every.size).tolist()


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_trials_match_the_reference(inst, data):
    fast, slow = twins(*inst)
    for _ in range(data.draw(st.integers(1, 6))):
        left = np.flatnonzero(fast.color < 0)
        if not left.size:
            break
        # all uncolored nodes, or a subset in any order
        active = data.draw(st.one_of(
            st.just(left.tolist()),
            st.lists(st.sampled_from(left.tolist()), unique=True, min_size=1)))
        assert random_color_trial(fast, active) == \
            ref.random_color_trial(slow, active)
        assert_same(fast, slow)
    assert_same_next_draws(fast, slow)


def outcome(assign, net, nodes, colors):
    try:
        assign(net, nodes, colors)
    except SimError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_bad_batches_fail_like_the_reference(inst, data):
    """Batches drawn with recolored nodes, removed or unlisted colors,
    repeated nodes and same-colored neighbors: the same error, or none, and
    the same state after."""
    fast, slow = twins(*inst)
    # a first trial colors some nodes and strips their colors
    random_color_trial(fast, range(fast.graph.n))
    ref.random_color_trial(slow, range(slow.graph.n))
    n, colorspace = fast.graph.n, fast.palettes.colorspace_size
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    colors = [data.draw(st.one_of(
        st.sampled_from(sorted(fast.palettes.lists[v])),
        st.integers(0, colorspace + 1))) for v in nodes]
    assert outcome(type(fast).assign_colors, fast, nodes, colors) == \
        outcome(ref.assign_colors, slow, nodes, colors)
    assert_same(fast, slow)


def test_empty_palette_fails_like_the_reference():
    g = generate("complete", {"n": 3}, seed=0)
    pal = PaletteAssignment(2, {0: frozenset({1, 2}), 1: frozenset({1}),
                                2: frozenset({2})})
    fast, slow = twins(g, pal, 1)
    for net in (fast, slow):
        net.assign_colors([1, 2], [1, 2])
    with pytest.raises(SimError) as got:
        random_color_trial(fast, [0])
    with pytest.raises(SimError) as want:
        ref.random_color_trial(slow, [0])
    assert str(got.value) == str(want.value) == \
        "node 0 has an empty palette in rct"


def test_same_color_winners_strip_a_shared_neighbor_once():
    # 0 - 1 - 2: the two ends both win color 1, which node 1 loses once
    g = generate("path", {"n": 3}, seed=0)
    fast, slow = twins(g, make_palettes(g, 0, mode="shared"), 1)
    for net in (fast, slow):
        net.assign_colors([0, 2], [1, 1])
    assert_same(fast, slow)
    assert fast.live[1] == 2 and fast.palette(1) == [2, 3]
    assert fast.udeg.tolist() == [1, 0, 1]


def test_neighbor_holding_the_color_at_another_offset():
    # 5 is node 0's second color and node 1's first: the strip must look
    # node 1 up, not reuse node 0's offset (which would take 9)
    g = generate("path", {"n": 2}, seed=0)
    pal = PaletteAssignment(9, {0: frozenset({1, 5}), 1: frozenset({5, 9})})
    fast, slow = twins(g, pal, 1)
    for net in (fast, slow):
        net.assign_colors([0], [5])
    assert_same(fast, slow)
    assert fast.palette(1) == [9] and fast.live[1] == 1


def test_one_live_color_of_129_redraws_its_long_tail():
    # the last node of a 129-clique sees 128 colored neighbors: its trial
    # redraws until it hits the one color they left, about 129 draws, which
    # the fast form makes row by row and the reference in one pass each
    g = generate("complete", {"n": 129}, seed=0)
    fast, slow = twins(g, make_palettes(g, 0, mode="shared"), 5)
    order = np.random.default_rng(3).permutation(129)
    for net in (fast, slow):
        net.assign_colors(order[:128], np.arange(1, 129))
    assert fast.live[order[128]] == 1
    assert random_color_trial(fast, [order[128]]) == \
        ref.random_color_trial(slow, [order[128]]) == [order[128]]
    assert fast.color[order[128]] == 129
    assert_same(fast, slow)
    assert_same_next_draws(fast, slow)


@pytest.mark.parametrize("kind", LIST_KINDS)
def test_planted_trial_loop_matches_the_reference(kind):
    # more redrawing rows than the cut-over: array passes, then the tail
    assert TAIL_ROWS < 123
    g = generate("planted_almost_cliques",
                 {"k": 3, "delta": 40, "removal": 0.1, "inter_p": 0.02}, seed=2)
    fast, slow = twins(g, lists_of(g, kind, 4), 7)
    while (fast.color < 0).any():
        left = np.flatnonzero(fast.color < 0)
        assert random_color_trial(fast, left) == ref.random_color_trial(slow, left)
        assert_same(fast, slow)
    assert_same_next_draws(fast, slow)
