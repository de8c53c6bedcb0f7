"""Edge passes in blocks of rows (`Graph.blocks`) at block sizes of 1 and 7.

Every pass over the edge arrays, or over a node set's rows, walks the blocks
of `Graph.blocks`, which hold at most `graphs.EDGE_BLOCK` edge slots. The
small instances the other tests run fit in one block at the default size, so
here the size is set to 1 (every row a block of its own) and to 7 (blocks of
a few short rows, and long rows alone): the bill, the coloring, the audit and
the color-trial kernel must come out exactly as they do in one block.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_bill_pinned as pinned
import test_trial_differential as trial_diff
import trial_reference as ref
from congestcolor import graphs
from congestcolor.config import SimConfig
from congestcolor.graphs import generate, make_palettes, verify_coloring
from congestcolor.harness import run_pipeline

SIZES = (1, 7)


@pytest.fixture(params=SIZES)
def tiny_blocks(request, monkeypatch):
    monkeypatch.setattr(graphs, "EDGE_BLOCK", request.param)
    return request.param


def trajectory(name):
    model, params, seed, cfg = pinned.PINNED[name][:4]
    g = generate(model, params, seed)
    pal = make_palettes(g, seed=seed + 1, mode="shared")
    return run_pipeline(g, pal, SimConfig(**cfg), seed).trajectory


@pytest.mark.parametrize("name", sorted(pinned.PINNED))
def test_pinned_bills_in_tiny_blocks(monkeypatch, name):
    # the dense stage's per-iteration layer metrics come out the same too
    whole = trajectory(name)
    for size in SIZES:
        monkeypatch.setattr(graphs, "EDGE_BLOCK", size)
        pinned.test_bill_matches_pinned_literals(name)
        assert trajectory(name) == whole


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2 ** 16),
       st.sampled_from(SIZES), st.data())
def test_blocks_cover_in_order_and_keep_rows_whole(n, p, seed, size, data):
    g = generate("gnp", {"n": n, "p": p}, seed=seed)
    nodes = np.array(data.draw(st.lists(st.integers(0, n - 1))), dtype=np.int64)
    old, graphs.EDGE_BLOCK = graphs.EDGE_BLOCK, size
    try:
        blocks = list(g.blocks(nodes))
    finally:
        graphs.EDGE_BLOCK = old
    # consecutive, non-empty slices from the start to the end of `nodes`
    assert [s.start for s in blocks] == [0] * bool(blocks) + [s.stop for s in blocks[:-1]]
    assert (blocks[-1].stop if blocks else 0) == nodes.size
    assert all(s.stop > s.start and s.step is None for s in blocks)
    for s in blocks:
        slots = int(g.degrees[nodes[s]].sum())
        # within the bound, or one row longer than it, alone
        assert slots <= size or s.stop - s.start == 1
        # greedy: the next row would not have fit
        if s.stop < nodes.size:
            assert slots + g.degrees[nodes[s.stop]] > size


def test_long_rows_stand_alone(tiny_blocks):
    # the star's center has n - 1 slots, more than a block holds
    g = generate("star", {"n": 20}, seed=0)
    nodes = np.array([1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10], dtype=np.int64)
    blocks = list(g.blocks(nodes))
    assert slice(2, 3) in blocks
    assert all(s.stop - s.start <= tiny_blocks for s in blocks)


def test_verify_coloring_is_the_same_in_tiny_blocks(monkeypatch):
    # a random coloring: many monochromatic edges, off-list and uncolored
    # nodes, given in a shuffled order
    g = generate("gnp", {"n": 60, "p": 0.3}, seed=4)
    pal = make_palettes(g, seed=5, colorspace_size=g.delta + 3)
    rng = np.random.default_rng(6)
    order = rng.permutation(g.n)[:50].tolist()
    coloring = {v: int(rng.integers(0, 6)) for v in order}
    whole = verify_coloring(g, pal, coloring, allow_partial=True)
    assert len(whole.monochromatic_edges) > 20 and whole.off_list_nodes
    for size in SIZES:
        monkeypatch.setattr(graphs, "EDGE_BLOCK", size)
        assert verify_coloring(g, pal, coloring, allow_partial=True) == whole


def test_trials_match_the_reference_in_tiny_blocks(tiny_blocks):
    trial_diff.test_trials_match_the_reference()


def test_bad_batches_fail_like_the_reference_in_tiny_blocks(tiny_blocks):
    trial_diff.test_bad_batches_fail_like_the_reference()


def test_a_clash_in_a_later_block_refuses_the_whole_batch(tiny_blocks):
    # 2 and 3 clash, and every block before theirs is valid: no block may
    # be settled before all are checked
    g = generate("path", {"n": 12}, seed=0)
    fast, slow = trial_diff.twins(g, make_palettes(g, 0, mode="shared"), 1)
    nodes, colors = [0, 4, 6, 8, 10, 2, 3], [1, 1, 1, 1, 1, 2, 2]
    assert len(list(g.blocks(np.array(nodes)))) > 1
    assert trial_diff.outcome(type(fast).assign_colors, fast, nodes, colors) == \
        trial_diff.outcome(ref.assign_colors, slow, nodes, colors) == \
        "adjacent nodes 2 and 3 both colored 2"
    trial_diff.assert_same(fast, slow)
    assert (fast.color < 0).all() and not fast.removed.any()


def test_planted_trial_loop_in_tiny_blocks(tiny_blocks):
    for kind in trial_diff.LIST_KINDS:
        trial_diff.test_planted_trial_loop_matches_the_reference(kind)
