"""The per-node random streams against numpy's own `default_rng`.

`sim.seed_words` reimplements numpy's `SeedSequence` hash as one array pass,
and `sim.Streams` holds the PCG64 state of every row in arrays. Every node
stream and every layer draw must be the stream
`np.random.default_rng(list(prefix) + [v])` builds: same draws, in the same
order, for any mix of the draw kinds (`integers`, `random`, `permutations`,
`samples`, `redraws` and `distinct_picks`), with `integers` taking a row
several times in one call.
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
from congestcolor.sim import Streams, new_network, seed_words

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


def draw_streams(streams, row, plan):
    """`draw_all` for one row of `streams`, through its array draws."""
    out = []
    for kind, k in plan:
        if kind == "integers":
            out.append(streams.integers([row], [k]).item())
        elif kind == "random":
            out.append(streams.random([row]).item())
        else:
            out.append(streams.permutations([row], [k])[0].tolist())
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
    streams = Streams(seed_words(prefix, nodes))
    for row, v in enumerate(nodes):
        ours = draw_streams(streams, row, plan)
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
    shuffled = {v: draw_streams(net.streams, v, plan) for v in order}
    in_order = network(seed=seed)
    for v in range(net.graph.n):
        assert shuffled[v] == draw_streams(in_order.streams, v, plan)
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


ROWS = 12
# 2**31 + 1 rejects about half of its 32-bit draws, and highs above it
# reject fewer, down to none at 2**32: a row that draws several times then
# redraws its sequence on the generator
highs = st.one_of(st.integers(1, 300),
                  st.sampled_from([2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]),
                  st.integers(2 ** 31 + 1, 2 ** 32))
row_sets = st.lists(st.integers(0, ROWS - 1), unique=True, max_size=ROWS)
# integers and permutations take a row more than once; sizes 0 and 1 draw nothing
row_lists = st.lists(st.integers(0, ROWS - 1), max_size=ROWS)
sizes = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 600))


def ref_samples(rng, mask, count):
    """`Streams.samples` for one row, written against a generator."""
    live = np.flatnonzero(mask)
    if count == live.size:
        return live[rng.permutation(count)].tolist()
    out = []
    while len(out) < count:
        e = int(rng.integers(len(mask)))
        if mask[e] and e not in out:
            out.append(e)
    return out


@st.composite
def masked_counts(draw):
    """A mask of 0 to 600 entries, most or few of them set, and a count of
    0, 1, all set entries or any number between."""
    size = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 600)))
    p = draw(st.sampled_from([0.05, 0.5, 0.95, 1.0]))
    mask = np.random.default_rng(draw(st.integers(0, 2 ** 32))).random(size) < p
    live = int(mask.sum())
    count = draw(st.one_of(st.sampled_from([0, min(1, live), live]),
                           st.integers(0, live)))
    return mask, count


def ref_redraw(rng, rejected):
    """`Streams.redraws` for one row, written against a generator."""
    e = int(rng.integers(len(rejected)))
    while rejected[e]:
        e = int(rng.integers(len(rejected)))
    return e


def ref_distinct_picks(rng, lists):
    """`Streams.distinct_picks`, written against a generator."""
    taken, out = set(), []
    for entries in lists:
        left = [c for c in entries if c not in taken]
        if not left:
            out.append(None)
            continue
        out.append(left[int(rng.integers(len(left)))])
        taken.add(out[-1])
    return out


def redraw_rows(streams, rows, masks) -> list:
    """`Streams.redraws` with row i's entries at masks[i] in one flat mask."""
    sizes = np.array([m.size for m in masks], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate(masks) if masks else np.zeros(0, dtype=bool)
    return streams.redraws(rows, sizes, starts, flat).tolist()


@st.composite
def rejections(draw):
    """A mask of 1 to 600 entries, none to all but one of them rejected."""
    size = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 600)))
    p = draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))
    mask = np.random.default_rng(draw(st.integers(0, 2 ** 32))).random(size) < p
    mask[draw(st.integers(0, size - 1))] = False
    return mask


# the lists a leader assigns from: overlapping, some empty or used up
pick_lists = st.lists(st.lists(st.integers(0, 12), unique=True, max_size=6),
                      max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 40), st.data())
def test_array_streams_equal_generator_draws(seed, data):
    streams = Streams(seed_words([seed], np.arange(ROWS)))
    refs = [np.random.default_rng([seed, r]) for r in range(ROWS)]
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["integers", "random", "permutations",
                                          "samples", "redraws", "distinct_picks"]))
        if kind == "integers":
            rows = data.draw(row_lists)
            hs = data.draw(st.lists(highs, min_size=len(rows), max_size=len(rows)))
            assert streams.integers(rows, hs).tolist() == \
                [int(refs[r].integers(h)) for r, h in zip(rows, hs)]
        elif kind == "random":
            rows = data.draw(row_sets)
            assert streams.random(rows).tolist() == [refs[r].random() for r in rows]
        elif kind == "permutations":
            rows = data.draw(row_lists)
            ks = data.draw(st.lists(sizes, min_size=len(rows), max_size=len(rows)))
            got = [p.tolist() for p in streams.permutations(rows, ks)]
            assert got == [refs[r].permutation(k).tolist() for r, k in zip(rows, ks)]
        elif kind == "samples":
            rows = data.draw(row_lists)
            cases = [data.draw(masked_counts()) for _ in rows]
            got = streams.samples(rows, [m for m, _ in cases], [c for _, c in cases])
            assert got == [ref_samples(refs[r], m, c) for r, (m, c) in zip(rows, cases)]
        elif kind == "redraws":
            rows = data.draw(row_sets)
            masks = [data.draw(rejections()) for _ in rows]
            assert redraw_rows(streams, rows, masks) == \
                [ref_redraw(refs[r], m) for r, m in zip(rows, masks)]
        else:
            row, lists = data.draw(st.integers(0, ROWS - 1)), data.draw(pick_lists)
            assert streams.distinct_picks(row, lists) == \
                ref_distinct_picks(refs[row], lists)
    assert_states_equal(streams, refs)
    assert streams.random(np.arange(ROWS)).tolist() == [g.random() for g in refs]


def assert_states_equal(streams, refs):
    """Row r holds refs[r]'s whole state: the LCG state and numpy's 32-bit
    buffer with its flag, whether or not the flag is set."""
    for r, g in enumerate(refs):
        st = g.bit_generator.state
        assert (streams.hi.item(r) << 64 | streams.lo.item(r),
                bool(streams.has32[r]), streams.buf32.item(r)) == \
            (st["state"]["state"], bool(st["has_uint32"]), st["uinteger"]), r


def test_integers_draw_long_sequences_per_row_in_list_order():
    # 200 draws per row, the rows interleaved: each row's draws come from
    # one jump-ahead pass, or its redrawn sequence where a word is rejected
    streams = Streams(seed_words([21], np.arange(ROWS)))
    refs = [np.random.default_rng([21, r]) for r in range(ROWS)]
    rows = np.tile(np.arange(ROWS), 200)
    hs = np.random.default_rng(5).choice([1, 2, 7, 300, 2 ** 20, 2 ** 32], rows.size)
    hs[rows == 3] = 2 ** 31 + 1         # row 3 rejects about half its words
    hs[rows == 4] = 1                   # row 4 draws nothing
    for call in (slice(0, 1), slice(1, 1000), slice(1000, None)):
        assert streams.integers(rows[call], hs[call]).tolist() == \
            [int(refs[r].integers(h)) for r, h in zip(rows[call], hs[call])]
        assert_states_equal(streams, refs)
    assert streams.integers([1, 2, 1], [3, 3, 3]).tolist() == \
        [int(refs[r].integers(3)) for r in (1, 2, 1)]
    assert_states_equal(streams, refs)


@pytest.mark.parametrize("k", [1, 2, 31, 1000])
def test_jump_table_equals_pcg64_advance(k):
    streams = Streams(seed_words([8], [0, 5]))
    for r in range(2):
        bits = np.random.PCG64(np.random.SeedSequence([8, 5 * r]))
        bits.advance(k)
        hi, lo = sim._advance(streams.hi[r:r + 1], streams.lo[r:r + 1],
                              streams.inc_hi[r:r + 1], streams.inc_lo[r:r + 1],
                              np.array([k]))
        assert hi.item() << 64 | lo.item() == bits.state["state"]["state"]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 40), st.data())
def test_redraws_equal_generator_draws_past_the_tail(seed, data):
    # more rows than TAIL_ROWS: array passes first, then the tail row by row
    rows = data.draw(st.lists(st.integers(0, 299), unique=True,
                              min_size=sim.TAIL_ROWS + 1, max_size=300))
    streams = Streams(seed_words([seed], np.arange(300)))
    refs = [np.random.default_rng([seed, r]) for r in range(300)]
    masks = [data.draw(rejections()) for _ in rows]
    assert redraw_rows(streams, rows, masks) == \
        [ref_redraw(refs[r], m) for r, m in zip(rows, masks)]
    assert streams.random(np.arange(300)).tolist() == [g.random() for g in refs]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 40), st.data())
def test_permutations_equal_default_rng(seed, data):
    # every row first draws a 32-bit value and keeps its high half pending,
    # which the shuffle must take before it steps the generator
    streams = Streams(seed_words([seed], np.arange(4)))
    refs = [np.random.default_rng([seed, r]) for r in range(4)]
    assert streams.integers(range(4), [5] * 4).tolist() == \
        [int(r.integers(5)) for r in refs]
    assert streams.has32.all()
    rows = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    ks = data.draw(st.lists(sizes, min_size=len(rows), max_size=len(rows)))
    got = streams.permutations(rows, ks)
    assert [p.tolist() for p in got] == \
        [refs[r].permutation(k).tolist() for r, k in zip(rows, ks)]
    assert all(p.dtype == np.int64 for p in got)
    assert streams.integers(range(4), [2 ** 32] * 4).tolist() == \
        [int(r.integers(2 ** 32)) for r in refs]


def test_bad_calls_are_refused_without_drawing():
    streams = Streams(seed_words([4], np.arange(6)))
    for call in (lambda: streams.random([5, 5]),
                 lambda: streams.integers([1, 2], [3, 0]),
                 lambda: streams.integers([1], [-1]),
                 lambda: streams.integers([1], [2 ** 32 + 1]),
                 lambda: streams.random([6]),
                 lambda: streams.permutations([1, 2], [3, -1]),
                 lambda: streams.permutations([1, 6], [3, 3]),
                 lambda: streams.samples([1, 2], [[1, 1], [1, 0]], [1, 2]),
                 lambda: streams.samples([1], [[1, 1]], [-1]),
                 lambda: streams.samples([6], [[1]], [1]),
                 lambda: redraw_rows(streams, [1, 1], [np.zeros(2, dtype=bool)] * 2),
                 lambda: redraw_rows(streams, [6], [np.zeros(1, dtype=bool)]),
                 lambda: streams.distinct_picks(6, [[1, 2]])):
        with pytest.raises(ValueError):
            call()
    assert streams.random(np.arange(6)).tolist() == \
        [np.random.default_rng([4, v]).random() for v in range(6)]


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
