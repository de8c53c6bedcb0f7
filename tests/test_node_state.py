"""Invariants of the array-backed node state in `sim.Network`.

After any sequence of color trials and single assignments, each node's
uncolored degree and live palette must equal what a brute-force pass over
`coloring()` derives; one batched `assign_colors` must leave the same state
as the same assignments made one at a time; and palette sampling must draw
the same colors, from the same stream positions, as the tuple-plus-removed-set
formulation below.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from congestcolor.config import SimConfig
from congestcolor.graphs import generate, make_palettes
from congestcolor.sim import new_network
from congestcolor.trials import try_color_round


def ref_sample_color(base, removed, rng):
    """Uniform draw from the palette: rejection over the sorted base list."""
    k = len(base)
    while True:
        c = base[int(rng.integers(k))]
        if c not in removed:
            return c


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
        assert net.palette_size(v) == len(net.palette(v))


def random_step(net, data):
    """One try_color_round over a drawn subset of uncolored nodes with drawn
    palette picks, or one single-node assign_colors of a drawn live color."""
    active = [v for v in uncolored(net) if net.palette_size(v)]
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
            picks = {v: net.palette(v)[int(rng.integers(net.palette_size(v)))]
                     for v in uncolored(net) if net.palette_size(v)}
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
    g, pal, seed = inst
    net = new_network(g, pal, SimConfig(), seed)
    for _ in range(data.draw(st.integers(0, 4))):
        random_step(net, data)
    for v in range(g.n):
        base, removed = base_and_removed(net, v)
        if not net.palette_size(v):
            continue
        s = data.draw(st.integers(0, 2 ** 32 - 1))
        ours, ref = np.random.default_rng(s), np.random.default_rng(s)
        assert net.sample_color(v, ours) == ref_sample_color(base, removed, ref)
        count = data.draw(st.integers(0, len(base) + 1))
        assert net.sample_colors(v, ours, count) == \
            ref_sample_colors(base, removed, ref, count)
        # both consumed the same number of draws
        assert ours.integers(2 ** 62) == ref.integers(2 ** 62)
