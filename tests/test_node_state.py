"""Invariants of the array-backed node state in `sim.Network`.

After any sequence of color trials and single assignments, each node's
uncolored degree and live palette must equal what a brute-force pass over
`coloring()` derives; one batched `assign_colors` must leave the same state
as the same assignments made one at a time; and the array palette sampling
must draw the same colors, from the same stream positions, as the per-node
tuple-plus-removed-set formulation below. Equal lists share one pool row,
found by value, and a node's `list_id` must keep overlapping lists apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congestcolor.config import SimConfig
from congestcolor.graphs import (
    PaletteAssignment,
    generate,
    load_palettes,
    make_palettes,
)
from congestcolor.sim import SimError, new_network
from congestcolor.trials import try_color_round


def ref_sample_colors(base, removed, rng, count):
    """Uniform subset in draw order: a permutation of the sorted palette when
    `count` covers it, else rejection over the sorted base list."""
    live = len(base) - len(removed)
    count = min(count, live)
    if count == live:
        pal = sorted(set(base) - removed)
        order = rng.permutation(len(pal))
        return [pal[int(i)] for i in order]
    picked = set()
    out = []
    k = len(base)
    while len(out) < count:
        c = base[int(rng.integers(k))]
        if c not in removed and c not in picked:
            picked.add(c)
            out.append(c)
    return out


@st.composite
def instances(draw):
    n = draw(st.integers(1, 64))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]))
    g = generate("gnp", {"n": n, "p": p}, seed=draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["delta_plus_one", "deg_plus_one"]))
    mode = draw(st.sampled_from(["shared", "random"]))
    # a colorspace just above the list size makes random lists overlap
    spare = draw(st.sampled_from([0, 2, None]))
    u_size = None if spare is None else g.delta + 1 + spare
    pal = make_palettes(g, seed=draw(st.integers(0, 2 ** 16)),
                        colorspace_size=u_size, mode=mode, kind=kind)
    return g, pal, draw(st.integers(0, 2 ** 16))


def base_and_removed(net, v):
    """v's sorted list and the colors of it that colored neighbors hold."""
    coloring = net.coloring()
    base = tuple(sorted(net.palettes.lists[v]))
    taken = {coloring[u] for u in net.graph.neighbors(v) if u in coloring}
    return base, taken & set(base)


def uncolored(net):
    return np.flatnonzero(net.color < 0).tolist()


def check_state(net):
    coloring = net.coloring()
    for v in range(net.graph.n):
        nbrs = net.graph.neighbors(v)
        assert net.udeg[v] == sum(1 for u in nbrs if u not in coloring)
        base, removed = base_and_removed(net, v)
        assert net.palette(v) == sorted(set(base) - removed)
        assert net.live[v] == len(net.palette(v))


def random_step(net, data):
    """One try_color_round over a drawn subset of uncolored nodes with drawn
    palette picks, or one single-node assign_colors of a drawn live color."""
    active = [v for v in uncolored(net) if net.live[v]]
    if not active:
        return
    if data.draw(st.booleans()):
        chosen = data.draw(st.lists(st.sampled_from(active), min_size=1,
                                    unique=True))
        picks = {v: data.draw(st.sampled_from(net.palette(v))) for v in chosen}
        winners = try_color_round(net, picks)
        assert all(net.coloring()[v] == picks[v] for v in winners)
    else:
        v = data.draw(st.sampled_from(active))
        net.assign_colors([v], [data.draw(st.sampled_from(net.palette(v)))])


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_state_matches_brute_force(inst, data):
    g, pal, seed = inst
    net = new_network(g, pal, SimConfig(), seed)
    check_state(net)
    for _ in range(data.draw(st.integers(1, 8))):
        random_step(net, data)
        check_state(net)


def state(net):
    return (net.color.tolist(), net.udeg.tolist(), net.removed.tolist(),
            net.live.tolist())


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_batch_equals_one_at_a_time(inst, data):
    g, pal, seed = inst
    nets = [new_network(g, pal, SimConfig(), seed) for _ in range(2)]
    steps = data.draw(st.integers(0, 3))
    prefix_seed = data.draw(st.integers(0, 2 ** 32 - 1))
    for net in nets:
        rng = np.random.default_rng(prefix_seed)
        for _ in range(steps):
            picks = {v: net.palette(v)[int(rng.integers(net.live[v]))]
                     for v in uncolored(net) if net.live[v]}
            try_color_round(net, picks)
    assert state(nets[0]) == state(nets[1])
    # a valid batch: distinct uncolored nodes with live colors, no two
    # adjacent ones sharing a color
    net = nets[0]
    batch = {}
    for v in data.draw(st.permutations(uncolored(net))):
        free = [c for c in net.palette(v)
                if all(batch.get(u) != c for u in g.neighbors(v))]
        if free and data.draw(st.booleans()):
            batch[v] = data.draw(st.sampled_from(free))
    nets[0].assign_colors(list(batch), list(batch.values()))
    for v, c in batch.items():
        nets[1].assign_colors([v], [c])
    assert state(nets[0]) == state(nets[1])
    check_state(nets[0])


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_sampling_matches_reference(inst, data):
    # the streams are exactly default_rng([seed, v]), so the per-node
    # reference draws from those; a warm-up `integers` draw can leave a
    # 32-bit half-word pending
    g, pal, seed = inst
    net = new_network(g, pal, SimConfig(), seed)
    for _ in range(data.draw(st.integers(0, 4))):
        random_step(net, data)
    nodes = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    refs = [np.random.default_rng([seed, v]) for v in nodes]
    highs = data.draw(st.lists(st.sampled_from([1, 7, 2 ** 32]),
                               min_size=len(nodes), max_size=len(nodes)))
    assert net.streams.integers(nodes, highs).tolist() == \
        [int(r.integers(h)) for r, h in zip(refs, highs)]
    counts, want = [], []
    for v, ref in zip(nodes, refs):
        base, removed = base_and_removed(net, v)
        live = net.live[v]
        counts.append(data.draw(st.one_of(st.sampled_from([0, 1, live]),
                                          st.integers(0, len(base) + 1))))
        want.append(ref_sample_colors(base, removed, ref, counts[-1]))
    assert net.sample_colors(nodes, counts) == want
    # both consumed the same number of draws
    assert net.streams.random(nodes).tolist() == [r.random() for r in refs]


@st.composite
def pooled_instances(draw):
    """Every node holds its own copy of one of a few lists over a small
    colorspace, so lists overlap and equal ones are equal only by value."""
    n = draw(st.integers(1, 24))
    p = draw(st.sampled_from([0.0, 0.2, 0.6]))
    g = generate("gnp", {"n": n, "p": p}, seed=draw(st.integers(0, 2 ** 16)))
    u_size = draw(st.integers(1, 6))
    shapes = draw(st.lists(st.sets(st.integers(1, u_size), min_size=1),
                           min_size=1, max_size=4))
    lists = {v: frozenset(sorted(draw(st.sampled_from(shapes))))
             for v in range(n)}
    return g, PaletteAssignment(u_size, lists), draw(st.integers(0, 2 ** 16))


@settings(max_examples=150, deadline=None)
@given(pooled_instances(), st.data())
def test_in_palettes_matches_lists(inst, data):
    g, pal, seed = inst
    net = new_network(g, pal, SimConfig(), seed)
    assert net.pool_ptr.size - 1 == len(set(pal.lists.values()))
    for _ in range(data.draw(st.integers(0, 3))):
        random_step(net, data)
    # every node against every color from -1 to two past the stride: colors
    # on no list, color 0 and colors >= the stride are never live
    top = max(max(s) for s in pal.lists.values())
    nodes, colors = np.divmod(np.arange(g.n * (top + 4)), top + 4)
    colors -= 1
    want = []
    for v, c in zip(nodes.tolist(), colors.tolist()):
        base, removed = base_and_removed(net, v)
        want.append(c in base and c not in removed)
    assert net.in_palettes(nodes, colors).tolist() == want


def test_overlapping_lists_kept_apart():
    g = generate("path", {"n": 3}, seed=0)
    pal = PaletteAssignment(4, {0: frozenset({1, 2, 3}), 1: frozenset({2, 3, 4}),
                                2: frozenset({1, 2, 3})})
    net = new_network(g, pal, SimConfig(), 0)
    assert net.list_id.tolist() == [0, 1, 0]
    nodes = np.array([0, 0, 1, 1, 2, 2])
    cols = np.array([1, 4, 1, 4, 1, 4])
    assert net.in_palettes(nodes, cols).tolist() == [True, False, False, True,
                                                     True, False]
    # node 1 taking 3 strips it from its neighbors' rows only
    net.assign_colors([1], [3])
    assert [net.palette(v) for v in range(3)] == [[1, 2], [2, 3, 4], [1, 2]]


def test_pool_rows():
    g = generate("gnp", {"n": 60, "p": 0.1}, seed=3)
    # shared lists: one row per distinct list size
    for kind in ("delta_plus_one", "deg_plus_one"):
        pal = make_palettes(g, 1, mode="shared", kind=kind)
        sizes = {len(s) for s in pal.lists.values()}
        assert kind == "delta_plus_one" or len(sizes) > 1
        assert new_network(g, pal, SimConfig(), 1).pool_ptr.size - 1 == len(sizes)
    # random lists on the n^2 colorspace are all distinct: one row per node
    pal = make_palettes(g, 1, mode="random")
    assert len(set(pal.lists.values())) == g.n
    assert new_network(g, pal, SimConfig(), 1).pool_ptr.size - 1 == g.n
    # identical lines read through load_palettes: equal frozensets, one row
    pal = load_palettes("U 5\n" + "".join(f"{v}: 3 1 2\n" for v in range(g.n)))
    net = new_network(g, pal, SimConfig(), 1)
    assert net.pool_ptr.tolist() == [0, 3]
    assert net.pool_colors.tolist() == [1, 2, 3]
    assert net.list_id.tolist() == [0] * g.n
    assert net.pal_ptr[-1] == 3 * g.n


def test_negative_color_rejected():
    g = generate("path", {"n": 2}, seed=0)
    pal = PaletteAssignment(3, {0: frozenset({1, 2}), 1: frozenset({-1, 2})})
    with pytest.raises(SimError, match="negative color in a list"):
        new_network(g, pal, SimConfig(), 0)


def test_key_overflow_counts_distinct_lists():
    # colors near 2**62 on several distinct lists: the lookup searches inside
    # each row, so no (row, color) key has to fit in 64 bits
    big = 2 ** 62
    g = generate("path", {"n": 3}, seed=0)
    shared = PaletteAssignment(big, {v: frozenset({1, big}) for v in range(3)})
    net = new_network(g, shared, SimConfig(), 0)
    assert net.in_palettes(np.array([0, 2, 1]), np.array([big, big, 2])).tolist() \
        == [True, True, False]
    two = PaletteAssignment(big, {0: frozenset({1, big}), 1: frozenset({2, big}),
                                  2: frozenset({1, big})})
    net = new_network(g, two, SimConfig(), 0)
    assert net.pool_ptr.size - 1 == 2
    nodes = np.array([0, 1, 2, 0, 1, 2, 1])
    colors = np.array([big, big, big, 2, 2, 1, 1])
    assert net.in_palettes(nodes, colors).tolist() == [True] * 3 + [False, True, True, False]
    net.assign_colors([1], [big])
    assert [net.palette(v) for v in range(3)] == [[1], [2, big], [1]]