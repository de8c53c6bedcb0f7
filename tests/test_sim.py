import pytest

from congestcolor.config import SimConfig
from congestcolor.graphs import generate, make_palettes
from congestcolor.sim import BandwidthError, SimError, new_network
from literal_engine import LiteralEngine, Message


def mk(graph_model="complete", n=3, seed=7, **cfg):
    g = generate(graph_model, {"n": n}, seed=0)
    pal = make_palettes(g, seed=1, mode="shared")
    return new_network(g, pal, SimConfig(**cfg), seed)


def test_new_network_k3():
    net = mk()
    assert net.round_counter == 0
    assert net.uncolored() == [0, 1, 2]
    assert len(net.color) == 3


def test_bandwidth_floor_rejected():
    g = generate("complete", {"n": 16}, seed=0)
    pal = make_palettes(g, seed=1, mode="shared")
    with pytest.raises(SimError):
        new_network(g, pal, SimConfig(bandwidth_bits=1), 0)


def test_silent_round():
    net = mk()
    delta = LiteralEngine(net).run_round(lambda v, net_, inbox, rng: [])
    assert delta["messages"] == 0
    assert net.round_counter == 1


def test_k2_id_exchange():
    net = mk(n=2)

    def handler(v, network, inbox, rng):
        return [Message(v, 1 - v, network.id_bits, v)]

    delta = LiteralEngine(net).run_round(handler)
    assert delta["messages"] == 2
    assert delta["max_edge_bits"] == net.id_bits


def test_oversize_message_names_node():
    net = mk(n=2)

    def handler(v, network, inbox, rng):
        if v == 1:
            return [Message(1, 0, 2 * network.bandwidth_bits, None)]
        return []

    with pytest.raises(BandwidthError, match="node 1"):
        LiteralEngine(net).run_round(handler)


def test_edge_budget_accumulates():
    net = mk(n=2)

    def handler(v, network, inbox, rng):
        b = network.bandwidth_bits
        return [Message(v, 1 - v, b // 2 + 1, None), Message(v, 1 - v, b // 2 + 1, None)]

    with pytest.raises(BandwidthError):
        LiteralEngine(net).run_round(handler)


def test_non_neighbor_rejected():
    net = mk(graph_model="path", n=3)

    def handler(v, network, inbox, rng):
        if v == 0:
            return [Message(0, 2, 1, None)]
        return []

    with pytest.raises(SimError, match="non-neighbor"):
        LiteralEngine(net).run_round(handler)


def test_synchrony_one_round_delay():
    net = mk(n=2)
    seen = {}

    def handler(v, network, inbox, rng):
        seen.setdefault(network.round_counter, {})[v] = [m.data for m in inbox]
        return [Message(v, 1 - v, network.id_bits, f"r{network.round_counter}-{v}")]

    engine = LiteralEngine(net)
    engine.run_round(handler)
    engine.run_round(handler)
    assert seen[0] == {0: [], 1: []}
    assert sorted(seen[1][0]) == ["r0-1"]


def test_determinism_traces_match():
    def noisy(v, network, inbox, rng):
        x = int(rng.integers(1000))
        network.log(v, "draw", str(x))
        nbrs = network.graph.neighbors(v)
        return [Message(v, nbrs[0], network.id_bits, x)] if nbrs else []

    runs = []
    for _ in range(2):
        net = mk(n=4, trace=True)
        engine = LiteralEngine(net)
        for _ in range(100):
            engine.run_round(noisy)
        runs.append((net.trace, net.stats.snapshot()))
    assert runs[0] == runs[1]

    other = mk(n=4, seed=8, trace=True)
    engine = LiteralEngine(other)
    for _ in range(100):
        engine.run_round(noisy)
    assert other.trace != runs[0][0]


def test_tree_aggregate_single_node_broadcast():
    net = mk(graph_model="path", n=5)
    result, rounds = net.tree_aggregate({2}, 2, "broadcast", {2: 42})
    assert result == {2: 42} and rounds == 0


def test_tree_aggregate_sum_path():
    net = mk(graph_model="path", n=5)
    cluster = set(range(5))
    result, rounds = net.tree_aggregate(cluster, 0, "sum", {v: 1 for v in cluster})
    assert result == 5
    assert rounds >= 4


def test_tree_aggregate_bitwise_max():
    net = mk(graph_model="path", n=2)
    result, _ = net.tree_aggregate({0, 1}, 0, "bitwise_max", {0: 0b1010, 1: 0b0110})
    assert result == 0b1110


def test_tree_aggregate_bitwise_and():
    net = mk(graph_model="path", n=2)
    result, _ = net.tree_aggregate({0, 1}, 0, "bitwise_and", {0: 0b1010, 1: 0b0110})
    assert result == 0b0010


def test_tree_aggregate_disconnected_rejected():
    net = mk(graph_model="path", n=5)
    with pytest.raises(SimError, match="connected"):
        net.tree_aggregate({0, 4}, 0, "sum", {0: 1, 4: 1})


def test_tree_aggregate_wide_value_rejected():
    net = mk(graph_model="path", n=3, max_agg_bits=8)
    with pytest.raises(SimError, match="maximum"):
        net.tree_aggregate({0, 1}, 0, "sum", {0: 1, 1: 1}, value_bits=64)


def test_wide_value_split_charges_more_rounds():
    net = mk(graph_model="path", n=5)
    cluster = set(range(5))
    _, r1 = net.tree_aggregate(cluster, 0, "min", {v: v for v in cluster})
    _, r2 = net.tree_aggregate(
        cluster, 0, "min", {v: v for v in cluster},
        value_bits=3 * net.bandwidth_bits,
    )
    assert r2 > r1


def test_bandwidth_soundness_tracked():
    net = mk(n=4)
    LiteralEngine(net).run_round(lambda v, network, inbox, rng: [
        Message(v, u, network.bandwidth_bits, None)
        for u in network.graph.neighbors(v)[:1]
    ])
    assert net.stats.max_edge_bits_per_round <= net.bandwidth_bits


def test_untraced_coloring_logs_nothing(monkeypatch):
    net = mk()
    assert net.trace is None

    def no_log(*args):
        raise AssertionError("log called with tracing off")

    monkeypatch.setattr(net, "log", no_log)
    net.assign_color(0, min(net.palette(0)))
    traced = mk(trace=True)
    traced.assign_color(0, min(traced.palette(0)))
    assert [e for _, _, e, _ in traced.trace] == ["color"]


def test_config_text_round_trip():
    cfg = SimConfig(mode="theory", bandwidth_bits=40, k1=7, c_p=2.5, trace=True)
    back = SimConfig.from_text(cfg.to_text())
    assert back == cfg
    assert type(back.k1) is int and type(back.c_p) is float
    assert SimConfig.from_text("trace=no\n").trace is False
    with pytest.raises(ValueError, match="unknown config key"):
        SimConfig.from_text("nope=1\n")
