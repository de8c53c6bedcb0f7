import ast
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from congestcolor import config
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
    assert (net.color == -1).all()
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
    assert net.tree_aggregate({2}, 2) == 0
    assert net.stats.snapshot()["total_messages"] == 0


def test_tree_aggregate_sum_path():
    net = mk(graph_model="path", n=5)
    assert net.tree_aggregate(set(range(5)), 0, phase="agg") == 8
    assert net.stats.per_phase == {"agg": 8}
    assert net.stats.total_messages == 8
    assert net.stats.max_edge_bits_per_round == net.id_bits


def test_tree_aggregate_disconnected_rejected():
    net = mk(graph_model="path", n=5)
    with pytest.raises(SimError, match="connected"):
        net.tree_aggregate({0, 4}, 0)


@st.composite
def clusters(draw):
    """A graph of at most 64 nodes, a connected node set in it and a root:
    a single node, a whole path or star, or the root's component inside a
    random node subset of a G(n, p)."""
    kind = draw(st.sampled_from(["single", "path", "star", "gnp"]))
    n = draw(st.integers(2, 64))
    if kind == "gnp":
        p = draw(st.floats(0.02, 0.5))
        g = generate("gnp", {"n": n, "p": p}, seed=draw(st.integers(0, 999)))
    else:
        g = generate("path" if kind == "single" else kind, {"n": n}, seed=0)
    root = draw(st.integers(0, n - 1))
    if kind == "single":
        return g, {root}, root
    if kind != "gnp":
        return g, set(range(n)), root
    keep = set(draw(st.sets(st.integers(0, n - 1)))) | {root}
    return g, set(g.bfs(root, keep)), root


@settings(max_examples=150, deadline=None)
@given(clusters(), st.data())
def test_tree_aggregate_charge_matches_literal_run(inst, data):
    g, cluster, root = inst
    pal = make_palettes(g, seed=1, mode="shared")
    charged, literal = (new_network(g, pal, SimConfig(), 3) for _ in range(2))
    values = {v: data.draw(st.integers(0, 1)) for v in sorted(cluster)}
    rounds = charged.tree_aggregate(cluster, root, phase="agg")
    total = LiteralEngine(literal).tree_aggregate(cluster, root, values,
                                                  phase="agg")
    assert total == sum(values.values())
    assert rounds == literal.stats.rounds
    bill = lambda net: (net.stats.rounds, net.stats.total_messages,
                        net.stats.max_edge_bits_per_round,
                        net.stats.per_phase.get("agg", 0))
    assert bill(charged) == bill(literal)


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
    net.assign_colors([0], [min(net.palette(0))])
    traced = mk(trace=True)
    traced.assign_colors([0], [min(traced.palette(0))])
    assert [e for _, _, e, _ in traced.trace] == ["color"]


def test_config_text_round_trip():
    cfg = SimConfig(mode="theory", bandwidth_bits=40, k4=7, c_layer=2.5, trace=True)
    back = SimConfig.from_text(cfg.to_text())
    assert back == cfg
    assert type(back.k4) is int and type(back.c_layer) is float
    assert SimConfig.from_text("trace=no\n").trace is False
    # k1 is now the module constant dense_sparse.K1
    for key in ("nope", "max_agg_bits", "k1"):
        with pytest.raises(ValueError, match=f"unknown config key {key}$"):
            SimConfig.from_text(f"{key}=5\n")


@pytest.mark.parametrize("field, value, problem", [
    ("b_factor", 0, "b_factor must be >= 1"),
    ("bandwidth_bits", 0, "bandwidth_bits must be >= 1"),
    ("k4", -1, "k4 must be >= 0"),
    ("c_small", -0.5, "c_small must be >= 0"),
    ("c_small", float("nan"), "c_small must be >= 0"),
    ("c_layer", 0.0, "c_layer must be finite and > 0"),
    ("c_layer", -1.0, "c_layer must be finite and > 0"),
    ("c_layer", float("nan"), "c_layer must be finite and > 0"),
    ("c_layer", float("inf"), "c_layer must be finite and > 0"),
])
def test_config_validate_rejects_out_of_range_values(field, value, problem):
    with pytest.raises(ValueError, match=f"^{problem}$"):
        SimConfig(**{field: value}).validate()
    with pytest.raises(ValueError, match=f"^{problem}$"):
        SimConfig.from_text(f"{field}={value}\n")
    # the edge of each range is accepted
    SimConfig(b_factor=1, bandwidth_bits=1, k4=0, c_small=0.0, c_layer=1e-9).validate()


def test_config_fields_are_pinned():
    """A field stays only while a caller outside tests/ sets or reads it, named
    beside it here; a value nobody varies is a constant beside its reader."""
    assert [f.name for f in fields(SimConfig)] == [
        "mode",            # the CLI's --mode
        "b_factor",        # perfbench/run.py's bandwidth audit
        "bandwidth_bits",  # perfbench/run.py's bandwidth audit
        "k4",              # perfbench/workloads.py (dense_sync sets 0)
        "c_layer",         # perfbench/workloads.py, demos/
        "c_small",         # perfbench/workloads.py, demos/sweep_spec.json
        "trace",           # Network's event log, set from a CLI config file
    ]


def test_every_config_field_is_read():
    """A knob leaves with its last reader: each `SimConfig` field is read,
    as an attribute of that name, by some module of the package other than
    config.py."""
    read = set()
    for path in Path(config.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load))
    assert not [f.name for f in fields(SimConfig) if f.name not in read]
