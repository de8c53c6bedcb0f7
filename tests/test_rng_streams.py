"""The per-node random streams against numpy's own `default_rng`.

`sim.seed_words` reimplements numpy's `SeedSequence` hash as one array pass,
`sim.stream` starts PCG64 from one row of it, and `sim.Streams` holds the
PCG64 state of every row in arrays. Every node stream and every layer draw
must be the stream `np.random.default_rng(list(prefix) + [v])` builds: same
draws, in the same order, for any mix of draw kinds, whether a row draws in
an array pass or on a checked-out generator.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congestcolor import sim
from congestcolor.config import SimConfig
from congestcolor.dense_sparse import _LAYER_TAG, layer_schedule, partition_layers
from congestcolor.graphs import generate, make_palettes
from congestcolor.sim import SimError, Streams, new_network, seed_words, stream

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
    with net.streams.generators(order) as gens:
        shuffled = {v: draw_all(rng, plan) for v, rng in zip(order, gens)}
    in_order = network(seed=seed)
    with in_order.streams.generators(range(net.graph.n)) as gens:
        for v, rng in enumerate(gens):
            assert shuffled[v] == draw_all(rng, plan)
            assert shuffled[v] == draw_all(np.random.default_rng([seed, v]), plan)


def test_rng_is_cached_per_node():
    net = network()
    assert net.streams is net.streams
    ref = np.random.default_rng([3, 5])
    assert [net.streams.random([5])[0] for _ in range(3)] == \
        [ref.random() for _ in range(3)]


def test_layer_draws_equal_default_rng():
    g = generate("planted_almost_cliques",
                 {"k": 1, "delta": 512, "removal": 0.03}, seed=2)
    net = new_network(g, make_palettes(g, seed=3, mode="shared"),
                      SimConfig(c_layer=0.25), 2)
    schedule = layer_schedule(net)
    partition_layers(net, range(g.n), schedule, seed=9)
    assert schedule.t >= 2
    cumulative = np.cumsum([float(p) for p in schedule.probabilities])
    for v in range(g.n):
        u = np.random.default_rng([2, _LAYER_TAG, 9, v]).random()
        want = min(int(np.searchsorted(cumulative, u, side="right")), schedule.t)
        assert net.layer[v] == want


def test_negative_seed_raises_like_default_rng():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        seed_words([-1], [0])
    with pytest.raises(ValueError):
        network(seed=-1).streams


def test_out_of_range_ids_are_refused():
    with pytest.raises(ValueError):
        seed_words([1], [2 ** 32])
    with pytest.raises(ValueError):
        seed_words([1], [-1])
    net = network()
    for v in (-1, net.graph.n):
        with pytest.raises(ValueError, match=f"no row {v}"):
            net.streams.random([v])


def test_preset_seed_serves_only_the_pcg64_request():
    seed_seq = stream(seed_words([1], [0])[0]).bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).shape == (4,)
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError):
            seed_seq.generate_state(n_words, dtype)


ROWS = 12
# 2**31 + 1 rejects about half of its 32-bit draws
highs = st.one_of(st.integers(1, 300),
                  st.sampled_from([2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]))
row_sets = st.lists(st.integers(0, ROWS - 1), unique=True, max_size=ROWS)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 40), st.data())
def test_array_streams_equal_generator_draws(seed, data):
    words = seed_words([seed], np.arange(ROWS))
    streams = Streams(words)
    refs = [stream(row) for row in words]
    for _ in range(data.draw(st.integers(1, 12))):
        rows = data.draw(row_sets)
        kind = data.draw(st.sampled_from(["integers", "random", "checkout"]))
        if kind == "integers":
            hs = data.draw(st.lists(highs, min_size=len(rows), max_size=len(rows)))
            assert streams.integers(rows, hs).tolist() == \
                [int(refs[r].integers(h)) for r, h in zip(rows, hs)]
        elif kind == "random":
            assert streams.random(rows).tolist() == [refs[r].random() for r in rows]
        else:
            plan = data.draw(draws)
            with streams.generators(rows) as gens:
                got = [draw_all(g, plan) for g in gens]
            assert got == [draw_all(refs[r], plan) for r in rows]
    assert streams.random(np.arange(ROWS)).tolist() == [g.random() for g in refs]


def test_bad_calls_are_refused_without_drawing():
    words = seed_words([4], np.arange(6))
    streams = Streams(words)
    for call in (lambda: streams.integers([1, 2, 1], [3, 3, 3]),
                 lambda: streams.random([5, 5]),
                 lambda: streams.generators([0, 0]).__enter__(),
                 lambda: streams.integers([1, 2], [3, 0]),
                 lambda: streams.integers([1], [-1]),
                 lambda: streams.integers([1], [2 ** 32 + 1]),
                 lambda: streams.random([6])):
        with pytest.raises(ValueError):
            call()
    assert streams.random(np.arange(6)).tolist() == \
        [stream(row).random() for row in words]


def test_checked_out_row_takes_no_array_draw():
    words = seed_words([4], np.arange(6))
    streams = Streams(words)
    ref = stream(words[3])
    with streams.generators([3, 1]) as (g3, _):
        g3.permutation(10)
        for call in (lambda: streams.random([0, 3]),
                     lambda: streams.integers([3], [7]),
                     lambda: streams.generators([3]).__enter__()):
            with pytest.raises(SimError, match="row 3 is checked out"):
                call()
        streams.random([0, 2])
    ref.permutation(10)
    assert streams.integers([3], [7]).tolist() == [ref.integers(7)]


RNG_BUILDERS = {"default_rng", "Generator", "PCG64", "stream"}
# graphs.py's instance generators draw the inputs, not the simulation
EXEMPT = {("graphs.py", "generate"), ("graphs.py", "make_palettes")}


def test_only_sim_builds_generators():
    """One RNG scheme: outside sim.py, no module of the package builds a
    generator; every simulation draw goes through `Streams`."""
    found = []
    for path in sorted(Path(sim.__file__).parent.glob("*.py")):
        if path.name == "sim.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) in EXEMPT:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "attr", getattr(f, "id", None))
                    if name in RNG_BUILDERS:
                        found.append(f"{path.name}:{node.lineno} {name}(")
    assert not found, found
