"""`acd._frequent_pairs` against a whole-array count in `acd_reference.py`.

The kernel counts each row block's (receiver, value) keys by sorting them
and reading runs: a key heard at least t = ceil(threshold) times is one that
equals the key t - 1 places later. Its keys are relative to the block's first
receiver and 32-bit while the block's key range fits, else 64-bit. Both
forms must return the same sorted int64 keys r*n + x for any value table,
threshold, receiver mask and block size.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acd_reference import frequent_pairs_reference
from congestcolor import graphs
from congestcolor.acd import _frequent_pairs
from congestcolor.graphs import generate

# fractional ones, ones at or below 1 (every key heard once counts) and ones
# above every count
thresholds = st.one_of(
    st.floats(-3.0, 8.0, allow_nan=False),
    st.sampled_from([0, 1, 1.0, 2, 2.5, 3]),
    st.just(10 ** 6),
)


def same(g, values, threshold, receivers=None, adjacent=False):
    got = _frequent_pairs(g, values, threshold, receivers=receivers,
                          adjacent=adjacent)
    want = frequent_pairs_reference(g, values, threshold, receivers, adjacent)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.sampled_from([0.1, 0.3, 0.7, 1.0]),
       st.integers(0, 2 ** 16), st.data())
def test_matches_the_whole_array_count(n, p, seed, data):
    g = generate("gnp", {"n": n, "p": p}, seed=seed)
    shape = data.draw(st.sampled_from([(n,), (n, 1), (n, 4)]))
    # values from a narrow span, so that keys repeat; -1 stays silent
    span = data.draw(st.integers(0, n - 1))
    values = np.array(data.draw(st.lists(
        st.integers(-1, span), min_size=int(np.prod(shape)),
        max_size=int(np.prod(shape)))), dtype=np.int64).reshape(shape)
    receivers = data.draw(st.one_of(st.none(), st.lists(
        st.booleans(), min_size=n, max_size=n).map(np.array)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "EDGE_BLOCK",
                   data.draw(st.sampled_from([1, 7, graphs.EDGE_BLOCK])))
        same(g, values, data.draw(thresholds), receivers, data.draw(st.booleans()))


def test_every_threshold_on_a_few_runs():
    # path 0 - 1 - 2, every node sending 1 four times: in blocks of one row,
    # receivers 0 and 2 hear the key 4 times and receiver 1 hears it 8 times,
    # so t runs below, between and above the blocks' key counts
    g = generate("path", {"n": 3}, seed=0)
    values = np.ones((3, 4), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "EDGE_BLOCK", 1)
        for threshold in range(-1, 11):
            same(g, values, threshold)


@pytest.mark.parametrize("model", ["cycle", "matching"])
@pytest.mark.parametrize("adjacent", [False, True])
def test_64_bit_keys_past_2_to_the_32(model, adjacent):
    # 2^17 nodes of degree at most 2: a block of 2^18 edge slots spans 2^17
    # receivers, a key range of 2^34
    n = 1 << 17
    if model == "cycle":
        g = generate("cycle", {"n": n}, seed=0)
    else:
        g = graphs.Graph(n, np.arange(n).reshape(-1, 2))
    ends = [s.stop - s.start for s in g.blocks(np.arange(n))]
    assert max(ends) * n > 1 << 32
    # each node sends itself, a node two steps away or nothing, so that a
    # receiver hears some neighbors and some non-neighbors several times
    rng = np.random.default_rng(5)
    offsets = rng.choice([0, 2, -2, -1], size=(n, 3), p=[0.4, 0.2, 0.2, 0.2])
    values = np.where(offsets == -1, -1, (np.arange(n)[:, None] + offsets) % n)
    receivers = rng.random(n) < 0.9
    for threshold in (1, 1.5, 3):
        assert same(g, values, threshold, receivers, adjacent).size
