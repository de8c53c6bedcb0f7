import numpy as np
import pytest

from congestcolor.config import SimConfig
from congestcolor.graphs import generate, make_palettes, verify_coloring
from congestcolor.sim import SimError, new_network
from congestcolor.trials import (
    random_color_trial,
    slack_generation,
    try_color_round,
)
from overlay_reference import multi_trial
from slack_measure import measure_slack
from stream_checkout import generators


def mk(model, params, seed=0, pal_mode="shared", pal_kind="delta_plus_one", **cfg):
    g = generate(model, params, seed=0)
    pal = make_palettes(g, seed=1, mode=pal_mode, kind=pal_kind)
    return new_network(g, pal, SimConfig(**cfg), seed)


def test_try_color_isolated_winner():
    net = mk("path", {"n": 3})
    (c,), = net.sample_colors([0], [1])
    winners = try_color_round(net, {0: c})
    assert winners == [0]
    assert net.color[0] == c
    assert not net.in_palettes(np.array([1]), np.array([c]))[0]
    # the non-adjacent node keeps its full list
    assert net.live[2] == net.graph.delta + 1


def test_try_color_conflict_blocks_both():
    net = mk("path", {"n": 2})
    c = net.palette(0)[0]
    winners = try_color_round(net, {0: c, 1: c})
    assert winners == []
    assert net.color[0] == -1 and net.color[1] == -1
    assert net.in_palettes(np.array([0, 1]), np.array([c, c])).all()


def test_try_color_path_mixed_picks():
    net = mk("path", {"n": 3})
    pal = net.palette(0)
    a, b = pal[0], pal[1]
    winners = try_color_round(net, {0: a, 1: b, 2: a})
    assert sorted(winners) == [0, 1, 2]
    ok = verify_coloring(net.graph, net.palettes, net.coloring())
    assert ok.ok


def test_try_color_off_palette_rejected():
    net = mk("path", {"n": 2})
    bad = max(net.palette(0)) + 1
    with pytest.raises(SimError, match="outside its palette"):
        try_color_round(net, {0: bad})


def test_try_color_colored_node_rejected():
    net = mk("path", {"n": 2})
    c = net.palette(0)[0]
    try_color_round(net, {0: c})
    with pytest.raises(SimError, match="already-colored"):
        try_color_round(net, {0: net.palette(0)[0]})


def test_try_color_charges_rounds():
    net = mk("path", {"n": 3})
    before = net.round_counter
    try_color_round(net, {0: net.palette(0)[0]})
    assert net.round_counter == before + 2


def test_rct_k2_success_rate():
    # both endpoints share a 2-color list: success prob is exactly 1/2
    wins = 0
    trials = 1500
    for seed in range(trials):
        g = generate("path", {"n": 2}, seed=0)
        pal = make_palettes(g, seed=1, mode="shared", kind="deg_plus_one")
        net = new_network(g, pal, SimConfig(), seed)
        random_color_trial(net, [0, 1])
        if len(net.coloring()) == 2:
            wins += 1
    assert 0.4 <= wins / trials <= 0.6


def test_rct_empty_palette_hard_failure():
    net = mk("path", {"n": 2})
    net.removed[net.pal_ptr[0]:net.pal_ptr[1]] = True
    net.live[0] = 0
    with pytest.raises(SimError, match="node 0"):
        random_color_trial(net, [0])


def test_rct_names_first_empty_palette_in_active_order():
    net = mk("path", {"n": 5})
    net.assign_colors([0], [net.palette(0)[0]])
    for v in (0, 2, 4):
        net.removed[net.pal_ptr[v]:net.pal_ptr[v + 1]] = True
        net.live[v] = 0
    # node 0 is colored, so its empty list is not an error
    with pytest.raises(SimError, match="node 4 has an empty palette in rct"):
        random_color_trial(net, [0, 3, 4, 2])


def test_rct_skips_colored_nodes_without_drawing():
    net = mk("path", {"n": 4})
    ref = mk("path", {"n": 4})
    net.assign_colors([1], [net.palette(1)[0]])
    ref.assign_colors([1], [ref.palette(1)[0]])
    random_color_trial(net, [1, 3])
    random_color_trial(ref, [3])
    assert net.coloring() == ref.coloring()
    assert net.streams.random([1]).tolist() == ref.streams.random([1]).tolist()


def test_rct_progress_on_cycle():
    net = mk("cycle", {"n": 30}, seed=5)
    for _ in range(60):
        active = np.flatnonzero(net.color < 0).tolist()
        if not active:
            break
        random_color_trial(net, active)
    assert (net.color >= 0).all()
    assert verify_coloring(net.graph, net.palettes, net.coloring()).ok


def test_slack_generation_requires_fresh_network():
    net = mk("path", {"n": 3})
    try_color_round(net, {0: net.palette(0)[0]})
    with pytest.raises(SimError, match="uncolored"):
        slack_generation(net)


def test_slack_generation_preserves_clique_tightness():
    # complete graph with one shared (Delta+1)-list: slack stays exactly 1
    net = mk("complete", {"n": 17}, seed=3)
    slack_generation(net)
    for v in np.flatnonzero(net.color < 0).tolist():
        assert measure_slack(net, v) == 1


def test_slack_generation_samples_small_fraction():
    net = mk("gnp", {"n": 400, "p": 0.05}, seed=9, trace=True)
    slack_generation(net)
    sampled = [d for r, v, e, d in net.trace if e == "slack_sample"]
    assert len(sampled) == 1
    assert int(sampled[0]) < 80   # p = 0.05, n = 400: far below 20%


def test_multi_trial_distinct_in_palette():
    net = mk("complete", {"n": 10})
    with generators(net.streams, [0]) as (rng,):
        out = multi_trial(net, 0, 5, net.palette(0), rng)
    assert len(out) == 5 and len(set(out)) == 5
    assert net.in_palettes(np.zeros(5, dtype=np.int64), np.array(out)).all()


def test_multi_trial_clamps_to_palette_size():
    net = mk("path", {"n": 2}, pal_kind="deg_plus_one")
    with generators(net.streams, [0]) as (rng,):
        out = multi_trial(net, 0, 10, net.palette(0), rng)
    assert sorted(out) == net.palette(0)


def test_measure_slack_fresh():
    net = mk("star", {"n": 6})
    # list size Delta+1 = 6; center degree 5, leaves degree 1
    assert measure_slack(net, 0) == 1
    assert measure_slack(net, 1) == 5


def test_measure_slack_subgraph():
    net = mk("star", {"n": 6})
    assert measure_slack(net, 0, subgraph={1, 2}) == 4


def test_slack_monotone_under_coloring():
    net = mk("gnp", {"n": 60, "p": 0.2}, seed=2)
    before = {v: measure_slack(net, v) for v in range(net.graph.n)}
    for _ in range(5):
        random_color_trial(net, np.flatnonzero(net.color < 0).tolist())
    for v in np.flatnonzero(net.color < 0).tolist():
        assert measure_slack(net, v) >= before[v]


def test_full_run_deterministic():
    outs = []
    for _ in range(2):
        net = mk("gnp", {"n": 50, "p": 0.15}, seed=11)
        while (net.color < 0).any():
            random_color_trial(net, np.flatnonzero(net.color < 0).tolist())
        outs.append((net.coloring(), net.stats.snapshot()))
    assert outs[0] == outs[1]
