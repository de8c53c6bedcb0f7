"""Tests of the benchmark itself, on reduced-size versions of its workloads.

    python3 -m pytest perfbench
"""

import json
import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from spans import BILLED_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

SMALL = {
    "planted_cliques": replace(
        WORKLOADS["planted_cliques"],
        params={"k": 7, "delta": 64, "removal": 0.01, "inter_p": 0.0}),
    "dense_sync": replace(
        WORKLOADS["dense_sync"],
        params={"k": 2, "delta": 64, "removal": 0.03, "inter_p": 0.0}),
    "lowdeg_cycle": replace(WORKLOADS["lowdeg_cycle"], params={"n": 1024}),
}

# each configured so that it misses the layer its guard watches
MISSES = {
    # default cross-group edges: the decomposition finds no clique
    "planted_cliques": replace(
        SMALL["planted_cliques"],
        params={"k": 7, "delta": 64, "removal": 0.01}),
    # default k4: plain trials finish the middle layers, no synchronized trial
    "dense_sync": replace(
        SMALL["dense_sync"], config={"c_small": 0.002, "c_layer": 0.25}),
    # a tiny small-degree threshold sends the cycle down the full branch
    "lowdeg_cycle": replace(SMALL["lowdeg_cycle"], config={"c_small": 0.0001}),
}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(SMALL) == set(MISSES) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_run_emits_every_metric(name, trace, tmp_path):
    span_path = str(tmp_path / "spans.jsonl")
    result = run.measure(SMALL[name], seed=1, seconds=0, trace=bool(trace),
                         span_path=span_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert run.harness.run_pipeline.__name__ == "run_pipeline"
    assert not hasattr(run.harness.run_pipeline, "__wrapped__")
    if trace:
        with open(span_path) as fh:
            spans = [json.loads(line) for line in fh]
        assert {"trace", "id", "parent", "name", "start", "end"} <= set(spans[0])
        assert any(s["name"] == "harness.run_pipeline" for s in spans)
    else:
        assert not os.path.exists(span_path)


def test_traced_self_bills_add_up_to_the_report():
    tracer = run.Tracer()
    w = SMALL["planted_cliques"]
    graph, palettes = w.build(1)
    tracer.new_trace()
    with tracer.installed():
        report = run.harness.run_pipeline(graph, palettes,
                                          run.SimConfig(**w.config), 1)
    layer = tracer.trace_metrics(tracer.trace_id)
    assert sum(layer[f"{b}.rounds"] for b in BILLED_LAYERS) == report.stats["rounds"]
    assert (sum(layer[f"{b}.messages"] for b in BILLED_LAYERS)
            == report.stats["total_messages"])
    # the per-clique overlay builds are discounted as booked, in harness
    assert layer["harness.rounds"] < 0
    assert layer["acd.cliques"] == w.params["k"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_guard_fires_when_the_workload_misses_its_layer(name):
    result = run.measure(MISSES[name], seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1 and result["metrics"] == {}


def test_command_exits_nonzero_on_guard_failure(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "dense_sync", MISSES["dense_sync"])
    code = run.main(["--workload", "dense_sync", "--seed", "1",
                     "--seconds", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert json.loads(last)["correct"] is False


def test_audit_rejects_improper_coloring_and_overwide_edges():
    w = SMALL["lowdeg_cycle"]
    graph, palettes = w.build(1)
    config = run.SimConfig(**w.config)
    report = run.harness.run_pipeline(graph, palettes, config, 1)
    assert run.audit(w, graph, palettes, config, report) == []

    report.coloring[1] = report.coloring[0]
    assert any("coloring rejected" in p
               for p in run.audit(w, graph, palettes, config, report))

    report = run.harness.run_pipeline(graph, palettes, config, 1)
    report.stats["max_edge_bits_per_round"] = run.bandwidth_bits(graph.n, config) + 1
    assert any("budget" in p
               for p in run.audit(w, graph, palettes, config, report))
