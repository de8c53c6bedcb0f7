"""Memory bounds of the CSR build and of the edge passes: no stage holds an
edge-length temporary beyond what it is allowed.

On a planted instance with 2m far above `graphs.EDGE_BLOCK` (patched small,
so that the edge passes take about 250 blocks), tracemalloc measures each
call's peak above the level at its entry:
- `Graph(n, edges)` may hold one buffer of 2m int64 keys, a few bytes of
  boolean masks per edge and O(n) beside the caller's edge array;
- `acd.compute_acd` may hold arrays of n * GOSSIP_REPS entries (the gossip
  table and its draws), of the F-edges, and a few blocks' temporaries;
- `small_degree.shatter` may hold O(n) and a few blocks' temporaries.
Each budget is below what a pass over the whole edge array would hold.
"""

import tracemalloc

import numpy as np
import pytest

from congestcolor import acd, graphs, small_degree
from congestcolor.config import SimConfig
from congestcolor.graphs import Graph, generate, make_palettes
from congestcolor.sim import new_network
from graph_oracles import edge_tails

BLOCK = 4096
PLANTED = {"k": 4, "delta": 512, "removal": 0.05}


@pytest.fixture(scope="module")
def planted():
    g = generate("planted_almost_cliques", PLANTED, 1)
    assert 2 * g.m > 200 * BLOCK
    return g


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(graphs, "EDGE_BLOCK", BLOCK)


def peak_above_entry(fn, *args):
    """fn(*args) and the most bytes it held at once above its entry level."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def block_bytes(blocks):
    """`blocks` row blocks' temporaries, each at most BLOCK slots of int64."""
    return blocks * 8 * BLOCK


def test_graph_build_holds_one_key_buffer(planted):
    n, m = planted.n, planted.m
    tails = edge_tails(planted)
    up = tails < planted.indices
    edges = np.column_stack((tails[up], planted.indices[up]))
    del tails, up
    g, peak = peak_above_entry(Graph, n, edges)
    assert np.array_equal(g.indices, planted.indices)
    # the 2m keys, then the heads in place; the bad-edge and duplicate masks
    assert peak <= 8 * 2 * m + 4 * m + 64 * n + (64 << 10)


def network_of(g):
    return new_network(g, make_palettes(g, seed=1, mode="shared"), SimConfig(), 1)


def test_compute_acd_holds_node_arrays_and_blocks(planted):
    decomposition, peak = peak_above_entry(acd.compute_acd, network_of(planted))
    assert decomposition.cliques
    n, f = planted.n, len(decomposition.f_edges)
    # `sent` and the gossip draws; the F-edge keys and their directed copies
    assert peak <= 4 * 8 * n * acd.GOSSIP_REPS + 128 * f + block_bytes(16)


def test_shatter_holds_node_arrays_and_blocks(planted):
    network = network_of(planted)
    _, peak = peak_above_entry(small_degree.shatter, network, range(planted.n))
    assert peak <= 256 * planted.n + block_bytes(16)
