"""The per-node random streams against numpy's own `default_rng`.

`sim.seed_words` reimplements numpy's `SeedSequence` hash as one array pass
and `sim.stream` starts PCG64 from one row of it. Every node stream and every
layer draw must be the stream `np.random.default_rng(list(prefix) + [v])`
builds: same draws, in the same order, for any mix of draw kinds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congestcolor.config import SimConfig
from congestcolor.dense_sparse import _LAYER_TAG, layer_schedule, partition_layers
from congestcolor.graphs import generate, make_palettes
from congestcolor.sim import new_network, seed_words, stream

# an entropy integer of one, two or three 32-bit words, or zero
entropy_ints = st.one_of(
    st.just(0),
    st.integers(0, 2 ** 32 - 1),
    st.integers(2 ** 32, 2 ** 80),
)
node_ids = st.one_of(st.sampled_from([0, 1, 2 ** 16 - 1, 2 ** 32 - 1]),
                     st.integers(0, 2 ** 32 - 1))
draws = st.lists(
    st.tuples(st.sampled_from(["integers", "random", "permutation"]),
              st.integers(1, 300)),
    min_size=1, max_size=8,
)


def draw_all(rng, plan):
    out = []
    for kind, k in plan:
        if kind == "integers":
            out.append(int(rng.integers(k)))
        elif kind == "random":
            out.append(float(rng.random()))
        else:
            out.append(rng.permutation(k).tolist())
    return out


def test_seed_words_equal_seed_sequence_on_every_16_bit_id():
    words = seed_words([7], np.arange(2 ** 16))
    assert words.shape == (2 ** 16, 4) and words.dtype == np.uint64
    for v in range(2 ** 16):
        ref = np.random.SeedSequence([7, v]).generate_state(4, np.uint64)
        assert np.array_equal(words[v], ref), v


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(entropy_ints, min_size=1, max_size=4),
        # the layer draws' prefix: master seed, tag, layer seed
        st.tuples(entropy_ints, entropy_ints).map(
            lambda t: [t[0], _LAYER_TAG, t[1]]),
    ),
    st.lists(node_ids, min_size=1, max_size=6),
    draws,
)
def test_streams_equal_default_rng(prefix, nodes, plan):
    words = seed_words(prefix, nodes)
    for v, row in zip(nodes, words):
        ours = draw_all(stream(row), plan)
        assert ours == draw_all(np.random.default_rng(list(prefix) + [v]), plan)


def network(n=40, seed=3):
    g = generate("gnp", {"n": n, "p": 0.1}, seed=0)
    return new_network(g, make_palettes(g, seed=1, mode="shared"), SimConfig(), seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 40), st.randoms(use_true_random=False), draws)
def test_network_streams_independent_of_build_order(seed, shuffler, plan):
    net = network(seed=seed)
    order = list(range(net.graph.n))
    shuffler.shuffle(order)
    shuffled = {v: draw_all(net.rng(v), plan) for v in order}
    in_order = network(seed=seed)
    for v in range(net.graph.n):
        assert shuffled[v] == draw_all(in_order.rng(v), plan)
        assert shuffled[v] == draw_all(np.random.default_rng([seed, v]), plan)


def test_rng_is_cached_per_node():
    net = network()
    assert net.rng(5) is net.rng(5)
    ref = np.random.default_rng([3, 5])
    assert [net.rng(5).random() for _ in range(3)] == [ref.random() for _ in range(3)]


def test_layer_draws_equal_default_rng():
    g = generate("planted_almost_cliques",
                 {"k": 1, "delta": 512, "removal": 0.03}, seed=2)
    net = new_network(g, make_palettes(g, seed=3, mode="shared"),
                      SimConfig(c_layer=0.25), 2)
    part = partition_layers(net, range(g.n), seed=9)
    assert part.t >= 2
    _, _, probs, _, _ = layer_schedule(net)
    cumulative = np.cumsum([float(p) for p in probs])
    for v in range(g.n):
        u = np.random.default_rng([2, _LAYER_TAG, 9, v]).random()
        want = min(int(np.searchsorted(cumulative, u, side="right")), part.t)
        assert part.layer(v) == want


def test_negative_seed_raises_like_default_rng():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        seed_words([-1], [0])
    with pytest.raises(ValueError):
        network(seed=-1).rng(0)


def test_out_of_range_ids_are_refused():
    with pytest.raises(ValueError):
        seed_words([1], [2 ** 32])
    with pytest.raises(ValueError):
        seed_words([1], [-1])
    net = network()
    for v in (-1, net.graph.n):
        with pytest.raises(ValueError, match=f"no node {v}"):
            net.rng(v)


def test_preset_seed_serves_only_the_pcg64_request():
    seed_seq = stream(seed_words([1], [0])[0]).bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).shape == (4,)
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError):
            seed_seq.generate_state(n_words, dtype)
