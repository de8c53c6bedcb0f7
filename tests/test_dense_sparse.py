import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from congestcolor import dense_sparse, overlay
from congestcolor.acd import AlmostCliqueDecomposition, compute_acd
from congestcolor.config import SimConfig
from congestcolor.dense_sparse import (
    LayerSchedule,
    _layer_metrics,
    clique_index,
    color_dense_nodes,
    color_sparse_nodes,
    layer_schedule,
    partition_layers,
    synchronized_color_trial,
    trajectory_csv,
)
from congestcolor.graphs import (
    Graph,
    PaletteAssignment,
    generate,
    make_palettes,
    verify_coloring,
)
from congestcolor.harness import run_pipeline
from congestcolor.overlay import compute_overlay, route
from congestcolor.sim import SimError, new_network
from congestcolor.trials import slack_generation

EPS = Fraction(1, 3)
ETA = EPS / 108


def net_for(g, seed=0, **cfg):
    pal = make_palettes(g, seed=seed + 1, mode="shared")
    return new_network(g, pal, SimConfig(**cfg), seed)


def single_clique_setup(n, seed=0, **cfg):
    """A complete graph treated as one almost-clique with node 0 leading."""
    g = generate("complete", {"n": n}, seed=seed)
    net = net_for(g, seed, **cfg)
    acd = AlmostCliqueDecomposition(
        g, set(), {0: set(range(n))}, {0: 0}, EPS, ETA
    )
    overlays = {0: compute_overlay(net, acd.cliques[0], 0, 0, epsilon=0.05)}
    return g, net, acd, overlays


def test_layer_p1_at_big_n():
    g = generate("cycle", {"n": 2 ** 16}, seed=0)
    net = net_for(g)
    _, t, probs, lambdas, fallback = layer_schedule(net, delta=2 ** 20)
    assert not fallback
    assert probs[1] == Fraction(1, 64)
    assert sum(probs) == 1
    assert t >= 1 and len(probs) == t + 1
    assert all(lam > 0 for lam in lambdas)


def test_layer_fallback_and_theory_refusal():
    g = generate("complete", {"n": 65}, seed=0)
    net = net_for(g)
    _, t, probs, lambdas, fallback = layer_schedule(net)
    assert fallback and t == 1
    assert sum(probs) == 1
    assert 0 < float(probs[1]) <= 0.5
    net_th = net_for(g, mode="theory")
    with pytest.raises(SimError, match="theory"):
        layer_schedule(net_th)


def test_layer_theory_band():
    g = generate("cycle", {"n": 2 ** 16}, seed=0)
    net = net_for(g, mode="theory")
    _, t, probs, lambdas, fallback = layer_schedule(net, delta=4096)
    assert not fallback
    logn = 16.0
    assert logn <= lambdas[t] <= logn ** 2
    assert lambdas[0] >= 4096 / 4.0


@pytest.mark.parametrize("mode", ["practical", "theory"])
@pytest.mark.parametrize("c_layer", [0.05, 0.0])
def test_layer_schedule_refuses_a_floor_it_never_reaches(mode, c_layer):
    # with c_layer * log2 n <= 1 the floor c_layer*log2 n/Delta lies at or
    # below 1/Delta, the limit of p -> sqrt(p/Delta), so the tail never ends
    g = generate("cycle", {"n": 16383}, seed=0)
    net = net_for(g, mode=mode)
    net.config.c_layer = c_layer   # 0 fails validate(); set it past the check
    with pytest.raises(SimError, match=rf"c_layer \* log2 n = {c_layer} \* 14\.00 <= 1$"):
        layer_schedule(net, delta=128)


def _tail_without_guard(p1, floor, t_prime, delta, steps=10_000):
    """The layer tail as the loop computed it before it refused a floor it
    never reaches; None when it is still running after `steps` steps."""
    tail = [p1]
    for i in range(2, steps):
        prev = tail[-1]
        nxt = prev ** 1.5 if i <= t_prime else math.sqrt(prev / delta)
        if nxt < floor:
            return tail
        tail.append(nxt)
    return None


def test_layer_schedule_changes_no_schedule_that_ends():
    checked = refused = 0
    for n in (2 ** 10, 16383, 2 ** 16):
        net = net_for(generate("cycle", {"n": n}, seed=0))
        logn = dense_sparse._log2n(n)
        for delta in (128, 512, 4096, 2 ** 20):
            t_prime = max(1, math.ceil(math.log(max(1.0 + 1e-9, math.log(
                math.sqrt(delta), logn)), 1.5)))
            p1 = 1.0 / logn ** 1.5
            for c_layer in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0):
                net.config.c_layer = c_layer
                floor = c_layer * logn / delta
                if not floor <= p1 < 1.0:
                    continue
                tail = _tail_without_guard(p1, floor, t_prime, delta)
                if tail is None:
                    refused += 1
                    with pytest.raises(SimError, match="never ends"):
                        layer_schedule(net, delta=delta)
                else:
                    checked += 1
                    schedule = layer_schedule(net, delta=delta)
                    assert [float(p) for p in schedule.probabilities[1:]] == tail
                    assert schedule.t_prime == t_prime
    assert checked >= 30 and refused >= 10


def test_partition_sizes_near_expectation():
    g = generate(
        "planted_almost_cliques", {"k": 1, "delta": 512, "removal": 0.03}, seed=2
    )
    net = net_for(g, 2, c_layer=0.25)
    schedule = layer_schedule(net)
    partition_layers(net, range(g.n), schedule, seed=0)
    assert schedule.t >= 2
    assert sum(schedule.probabilities) == 1
    sizes = np.bincount(net.layer, minlength=schedule.t + 1)
    assert sizes.size == schedule.t + 1
    lam1 = schedule.lambdas[1] * g.n / g.delta
    assert 0.3 * lam1 <= sizes[1] <= 3.0 * lam1
    assert sizes[0] > 0.8 * g.n


def test_sparse_graph_fully_colored():
    g = generate("gnp", {"n": 2048, "p": 8.0 / 2048.0}, seed=5)
    net = net_for(g, 5)
    acd = compute_acd(net)
    assert not acd.cliques  # everything sparse at this density
    slack_generation(net)
    color_sparse_nodes(net, acd)
    rep = verify_coloring(g, net.palettes, net.coloring())
    assert rep.ok


def test_sync_trial_single_member():
    n = 33
    g, net, acd, overlays = single_clique_setup(n)
    probs = (Fraction(1) - Fraction(1, 8) - Fraction(1, 16),
             Fraction(1, 8), Fraction(1, 16))
    net.layer[:] = 0
    net.layer[7] = 1
    schedule = LayerSchedule(1, 2, probs, tuple(32 * float(p) for p in probs))
    res = synchronized_color_trial(net, acd, overlays, 1, schedule,
                                   clique_index(net, acd))
    assert res == {"tried": 1, "colored": 1, "failures": 0}
    c = net.coloring()[7]
    nbrs = np.array(g.neighbors(7))
    assert not net.in_palettes(nbrs, np.full(nbrs.size, c)).any()


def test_sync_trial_candidates_distinct_in_clique():
    # on a complete clique, pairwise-distinct candidates mean every tried
    # member must win its trial
    n = 40
    g, net, acd, overlays = single_clique_setup(n)
    probs = (Fraction(3, 4), Fraction(1, 8), Fraction(1, 8))
    net.layer[:] = np.arange(n) % 8 == 0
    schedule = LayerSchedule(1, 2, probs, tuple(39 * float(p) for p in probs))
    for _ in range(6):
        res = synchronized_color_trial(net, acd, overlays, 1, schedule,
                                       clique_index(net, acd))
        assert res["colored"] == res["tried"]
        if res["tried"] == 0:
            break
    layer1 = np.flatnonzero(net.layer == 1)
    assert (net.color[layer1] >= 0).all()
    rep = verify_coloring(g, net.palettes, net.coloring(), allow_partial=True)
    assert rep.ok


def test_sync_trial_leader_draws_as_one_call_per_member(monkeypatch):
    """The leader's one `distinct_picks` pass per clique makes the draws that
    one `Streams.integers` call per member made, with the same failures."""
    def per_member(streams, row, lists):
        taken, out = set(), []
        for entries in lists:
            left = [c for c in entries if c not in taken]
            if not left:
                out.append(None)
                continue
            out.append(left[streams.integers([row], [len(left)]).item()])
            taken.add(out[-1])
        return out

    # one-color subpalettes collide often, so some members get none
    monkeypatch.setattr(dense_sparse, "C_P", 0.05)
    n = 48
    runs = []
    for loop in (False, True):
        g, net, acd, overlays = single_clique_setup(n, trace=True)
        if loop:
            net.streams.distinct_picks = types.MethodType(per_member, net.streams)
        net.layer[:] = np.arange(n) % 3 == 0
        probs = (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
        schedule = LayerSchedule(1, 2, probs, tuple(47 * float(p) for p in probs))
        res = [synchronized_color_trial(net, acd, overlays, 1, schedule,
                                        clique_index(net, acd)) for _ in range(3)]
        runs.append((res, net.coloring(), net.trace,
                     [getattr(net.streams, a).tolist() for a in ("hi", "lo", "buf32")]))
    assert runs[0] == runs[1]
    assert sum(r["failures"] for r in runs[0][0]) > 0
    assert any(e[2] == "assignment_failure" for e in runs[0][2])


def test_sync_trial_layer_range_checked():
    g, net, acd, overlays = single_clique_setup(12)
    net.layer[:] = 0
    schedule = LayerSchedule(1, 1, (Fraction(1, 2), Fraction(1, 2)), (6.0, 6.0))
    with pytest.raises(SimError, match="layer"):
        synchronized_color_trial(net, acd, overlays, 1, schedule,
                                 clique_index(net, acd))


def test_dense_stage_colors_planted_cliques(monkeypatch):
    schedules = []

    def counted(*args, **kwargs):
        schedules.append(layer_schedule(*args, **kwargs))
        return schedules[-1]

    monkeypatch.setattr(dense_sparse, "layer_schedule", counted)
    g = generate(
        "planted_almost_cliques",
        {"k": 2, "delta": 64, "removal": 0.01, "inter_p": 0.0},
        seed=3,
    )
    net = net_for(g, 3, c_layer=0.25)
    acd = compute_acd(net)
    assert acd.cliques
    overlays = {
        ac: compute_overlay(net, acd.cliques[ac], acd.leaders[ac], ac,
                            epsilon=0.05)
        for ac in acd.cliques
    }
    res = color_dense_nodes(net, acd, overlays)
    dense = [v for ac in acd.cliques for v in acd.cliques[ac]]
    assert (net.color[dense] >= 0).all()
    rep = verify_coloring(g, net.palettes, net.coloring(), allow_partial=True)
    assert rep.ok
    assert res["rounds"] > 0
    assert res["trajectory"]
    assert net.stats.max_edge_bits_per_round <= net.bandwidth_bits
    assert len(acd.cliques) == 2 and len(schedules) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.floats(0.05, 0.6), st.integers(0, 2 ** 16),
       st.integers(1, 4), st.integers(0, 2), st.data())
def test_layer_metrics_match_per_node_loop(n, p, seed, k, layer, data):
    g = generate("gnp", {"n": n, "p": p}, seed=seed)
    net = net_for(g, seed)
    ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    clique_of = np.array(data.draw(ints(-1, k - 1)), dtype=np.int64)
    net.layer[:] = data.draw(ints(-1, 2))
    # the metrics read only whether a node is colored
    net.color[:] = data.draw(ints(-1, 0))
    live = [v for v in range(n) if clique_of[v] >= 0
            and net.layer[v] == layer and net.color[v] < 0]
    max_e = max((sum(1 for w in g.neighbors(u)
                     if w in live and clique_of[w] != clique_of[u])
                 for u in live), default=0)
    max_r = max((sum(1 for w in g.neighbors(u) if w in live) for u in live),
                default=0)
    assert _layer_metrics(net, clique_of, layer) == (max_e, max_r, len(live))


def test_dense_stage_load_within_cap_at_128():
    # the sub-palette gather must stay under the routing load cap, which
    # route() enforces fatally
    g = generate(
        "planted_almost_cliques", {"k": 1, "delta": 128, "removal": 0.05},
        seed=4,
    )
    net = net_for(g, 4, c_layer=0.25)
    acd = compute_acd(net)
    overlays = {
        ac: compute_overlay(net, acd.cliques[ac], acd.leaders[ac], ac,
                            epsilon=0.05)
        for ac in acd.cliques
    }
    res = color_dense_nodes(net, acd, overlays)
    dense = [v for ac in acd.cliques for v in acd.cliques[ac]]
    assert (net.color[dense] >= 0).all()


def test_subpalette_sampling_uniform():
    # chi-square over many independent draws of a 3-subset of 6 colors
    net = new_network(Graph(1, []),
                      PaletteAssignment(15, {0: frozenset(range(10, 16))}),
                      SimConfig(), 0)
    counts = {c: 0 for c in net.palette(0)}
    draws = 3000
    for _ in range(draws):
        for c in net.sample_colors([0], [3])[0]:
            counts[c] += 1
    observed = [counts[c] for c in net.palette(0)]
    _, pvalue = scipy_stats.chisquare(observed)
    assert pvalue > 0.01


@pytest.mark.parametrize("kind", ["delta_plus_one", "deg_plus_one"])
@pytest.mark.parametrize("seed", [3, 4])
def test_random_lists_route_over_the_load_cap(monkeypatch, seed, kind):
    # the benchmark's two-clique instance with random lists: a subpalette
    # gather loads one node beyond LOAD_CAP * Delta, which practical mode
    # books over more rounds instead of refusing
    over = []

    def spy(network, ov, requests):
        load = np.zeros(network.graph.n, dtype=np.int64)
        for r in requests:
            load[[r.src, r.dst]] += r.size
        over.append(load.max() > overlay.LOAD_CAP * network.graph.delta)
        return route(network, ov, requests)

    monkeypatch.setattr(dense_sparse, "route", spy)
    g = generate("planted_almost_cliques",
                 {"k": 2, "delta": 512, "removal": 0.03, "inter_p": 0.0}, seed)
    pal = make_palettes(g, seed=seed + 1, mode="random", kind=kind)
    report = run_pipeline(g, pal, SimConfig(c_small=0.002, c_layer=0.25, k4=0), seed)
    assert any(over)
    assert report.valid and verify_coloring(g, pal, report.coloring).ok


def test_trajectory_csv_format():
    text = trajectory_csv([(0, 0, 3, 7, 100), (1, 2, 1, 4, 5)])
    lines = text.strip().splitlines()
    assert lines[0] == "layer,iter,max_e,max_r,uncolored"
    assert lines[1] == "0,0,3,7,100"
    assert lines[2] == "1,2,1,4,5"


def test_empty_sparse_set_is_free():
    g = generate("complete", {"n": 20}, seed=0)
    net = net_for(g)
    acd = AlmostCliqueDecomposition(
        g, set(), {0: set(range(20))}, {0: 0}, EPS, ETA
    )
    assert color_sparse_nodes(net, acd) == {"rounds": 0}
