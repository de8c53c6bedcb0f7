import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congestcolor import overlay
from congestcolor.config import SimConfig
from congestcolor.graphs import Graph, generate, make_palettes
from congestcolor.overlay import (
    CliqueOverlay,
    RoutingRequest,
    _adjacency_block,
    compute_overlay,
    route,
    verify_overlay,
)
from congestcolor.sim import SimError, new_network


def dump_overlay(overlay: CliqueOverlay) -> str:
    lines = []
    for pair in sorted(overlay.relays, key=sorted):
        u, v = sorted(pair)
        lines.append(f"{u} {v} via {overlay.relays[pair]}")
    return "\n".join(lines) + ("\n" if lines else "")


def net_for(g, seed=0, **cfg):
    pal = make_palettes(g, seed=1, mode="shared")
    return new_network(g, pal, SimConfig(**cfg), seed)


def remove_edges(g, drop):
    return Graph(g.n, [e for e in g.edges() if e not in set(drop)])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    p=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_adjacency_block_matches_has_edge(n, p, graph_seed, data):
    # members are a random subset, so their CSR rows also hold neighbors
    # outside it, which the block must drop
    g = generate("gnp", {"n": n, "p": p}, seed=graph_seed)
    members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    block = _adjacency_block(g, np.array(members, dtype=np.int64))
    assert block.tolist() == [[g.has_edge(u, v) for v in members] for u in members]


def test_complete_clique_empty_overlay():
    g = generate("complete", {"n": 20}, seed=0)
    net = net_for(g)
    ov = compute_overlay(net, range(20), 0, epsilon=0.05)
    rep = verify_overlay(g, ov)
    assert not ov.relays and rep.max_congestion == 0
    assert rep.ok


def test_single_missing_edge():
    g = remove_edges(generate("complete", {"n": 20}, seed=0), [(3, 7)])
    net = net_for(g)
    ov = compute_overlay(net, range(20), 0, epsilon=0.05)
    assert len(ov.relays) == 1
    w = ov.relays[frozenset((3, 7))]
    assert g.has_edge(3, w) and g.has_edge(7, w)
    rep = verify_overlay(g, ov)
    assert rep.max_congestion == 1
    assert rep.ok


def test_planted_clique_congestion_two():
    for seed in range(10):
        g = generate(
            "planted_almost_cliques",
            {"k": 1, "delta": 128, "removal": 0.05},
            seed=seed,
        )
        net = net_for(g, seed)
        ov = compute_overlay(net, range(g.n), 0, epsilon=0.05)
        rep = verify_overlay(g, ov)
        assert rep.ok, rep.violations[:3]
        assert 1 <= rep.max_congestion <= 2


def test_construction_rounds_bounded():
    # n grows with n_exp through the number of planted cliques of the same
    # delta, and the round cap and candidate counts grow with n; the last
    # clique's overlay is built at each size
    rounds = []
    for n_exp in (8, 10, 12):
        k = 2 ** n_exp // 65
        g = generate("planted_almost_cliques",
                     {"k": k, "delta": 64, "removal": 0.05, "inter_p": 0.0}, seed=1)
        assert g.n == 65 * k
        net = net_for(g, 2, bandwidth_bits=4 * n_exp)
        clique = range(g.n - 65, g.n)
        before = net.round_counter
        compute_overlay(net, clique, clique[0], epsilon=0.05)
        rounds.append(net.round_counter - before)
    assert max(rounds) <= 60


def test_leader_must_be_member():
    g = generate("complete", {"n": 10}, seed=0)
    net = net_for(g)
    with pytest.raises(SimError, match="leader"):
        compute_overlay(net, range(5), 9)


def test_theory_mode_epsilon_assert():
    g = generate("complete", {"n": 10}, seed=0)
    net = net_for(g, mode="theory")
    with pytest.raises(SimError, match="1/15"):
        compute_overlay(net, range(10), 0, epsilon=1.0 / 3.0)


def test_practical_mode_epsilon_warns():
    g = generate("complete", {"n": 10}, seed=0)
    net = net_for(g, trace=True)
    compute_overlay(net, range(10), 0, epsilon=1.0 / 3.0)
    assert any(e == "overlay_warn" for _, _, e, _ in net.trace)


def test_verify_catches_bad_relay():
    g = remove_edges(generate("complete", {"n": 10}, seed=0), [(0, 1), (1, 2)])
    ov = CliqueOverlay(
        0, frozenset(range(10)),
        {frozenset((0, 1)): 2, frozenset((1, 2)): 0},
    )
    rep = verify_overlay(g, ov)
    # 2 misses the pair's higher end, 0 its lower end
    assert rep.violations == [
        "relay 2 not adjacent to both of (0,1)",
        "relay 0 not adjacent to both of (1,2)",
    ]


def test_verify_catches_missing_coverage():
    g = remove_edges(generate("complete", {"n": 10}, seed=0), [(0, 1)])
    ov = CliqueOverlay(0, frozenset(range(10)), {})
    rep = verify_overlay(g, ov)
    assert any("no relay" in v for v in rep.violations)


def test_verify_catches_congestion_three():
    g = remove_edges(
        generate("complete", {"n": 10}, seed=0), [(0, 1), (0, 2), (0, 3)]
    )
    ov = CliqueOverlay(
        0, frozenset(range(10)),
        {
            frozenset((0, 1)): 9,
            frozenset((0, 2)): 9,
            frozenset((0, 3)): 9,
        },
    )
    rep = verify_overlay(g, ov)
    assert any("relay paths" in v for v in rep.violations)
    assert rep.max_congestion == 3


def test_route_empty():
    g = generate("complete", {"n": 8}, seed=0)
    net = net_for(g)
    ov = compute_overlay(net, range(8), 0, epsilon=0.05)
    assert route(net, ov, []) == 0


def test_route_adjacent_single_round():
    g = generate("complete", {"n": 8}, seed=0)
    net = net_for(g)
    ov = compute_overlay(net, range(8), 0, epsilon=0.05)
    reqs = [RoutingRequest(u, v) for u, v in g.edges()]
    assert route(net, ov, reqs) == 1


def test_route_via_relay_two_rounds():
    g = remove_edges(generate("complete", {"n": 8}, seed=0), [(0, 1)])
    net = net_for(g)
    ov = compute_overlay(net, range(8), 0, epsilon=0.05)
    assert route(net, ov, [RoutingRequest(0, 1)]) == 2


def test_route_load_cap(monkeypatch):
    monkeypatch.setattr(overlay, "LOAD_CAP", 1)
    g = generate("complete", {"n": 8}, seed=0)
    net = net_for(g, mode="theory")
    ov = compute_overlay(net, range(8), 0, epsilon=0.05)
    reqs = [RoutingRequest(0, v, size=4) for v in range(1, 8)]
    with pytest.raises(SimError, match="node 0 carries 28 payload units, above the cap 7"):
        route(net, ov, reqs)


def test_route_books_over_cap_load_in_practical_mode(monkeypatch):
    # node 0 carries 28 units: within the default cap 4 * 7, above the cap
    # 1 * 7; practical mode books the same rounds either way and logs it
    g = generate("complete", {"n": 8}, seed=0)
    reqs = [RoutingRequest(0, v, size=4) for v in range(1, 8)]
    booked = []
    for load_cap in (overlay.LOAD_CAP, 1):
        monkeypatch.setattr(overlay, "LOAD_CAP", load_cap)
        net = net_for(g, trace=True)
        ov = compute_overlay(net, range(8), 0, epsilon=0.05)
        before = net.stats.snapshot()
        rounds = route(net, ov, reqs)
        after = net.stats.snapshot()
        booked.append((rounds, after["rounds"] - before["rounds"],
                       after["total_messages"] - before["total_messages"]))
        over = [(v, d) for _, v, e, d in net.trace if e == "route_over_cap"]
        assert over == ([(0, "28>7")] if load_cap == 1 else [])
    assert booked[0] == booked[1] and booked[0][0] >= 4


def test_route_counts_every_delivery():
    g = generate(
        "planted_almost_cliques", {"k": 1, "delta": 32, "removal": 0.1}, seed=3
    )
    net = net_for(g, 1)
    ov = compute_overlay(net, range(g.n), 0, epsilon=0.05)
    before = net.stats.total_messages
    reqs = [RoutingRequest(0, v) for v in range(1, g.n)]
    rounds = route(net, ov, reqs)
    assert rounds >= 1
    sent = net.stats.total_messages - before
    # each request takes one or two edge messages
    assert len(reqs) <= sent <= 2 * len(reqs)


def test_overwide_color_routed_over_several_rounds():
    # 21-bit colors against an 8-bit budget: each unit crosses its edge in
    # three rounds, so the same requests cost more than under a budget that
    # fits one color exactly
    g = generate("complete", {"n": 8}, seed=0)
    pal = make_palettes(g, seed=1, colorspace_size=2 ** 20)
    ov = CliqueOverlay(0, frozenset(range(8)), {})
    reqs = [RoutingRequest(0, v, size=2) for v in range(1, 8)]
    rounds = {}
    for budget in (8, 21):
        net = new_network(g, pal, SimConfig(bandwidth_bits=budget), 0)
        assert net.color_bits == 21
        rounds[budget] = route(net, ov, reqs)
        assert net.stats.max_edge_bits_per_round <= budget
        assert net.stats.per_phase["route"] == rounds[budget]
    assert rounds == {8: 2 * 3, 21: 2}


def test_subpalette_gather_rounds_within_cap():
    # everyone ships ~log n colors to the leader at Delta = 128
    r_cap = 12                       # routing round ceiling
    g = generate(
        "planted_almost_cliques", {"k": 1, "delta": 128, "removal": 0.05}, seed=5
    )
    for seed in range(5):
        net = net_for(g, seed)
        ov = compute_overlay(net, range(g.n), 0, epsilon=0.05)
        payload = max(1, round(net.bandwidth_bits / net.color_bits))
        reqs = [RoutingRequest(v, 0, size=payload) for v in range(1, g.n)]
        assert route(net, ov, reqs) <= r_cap


def test_dump_format():
    ov = CliqueOverlay(0, frozenset(range(5)), {frozenset((1, 3)): 2})
    assert dump_overlay(ov) == "1 3 via 2\n"
