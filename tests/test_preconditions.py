"""Analysis preconditions: `Network.require` records each one in both modes and
refuses an unmet one in theory mode; every run report lists them.

The instances repeat the benchmark's `planted_cliques` and `dense_sync`
workloads (seed 1), built here so that the tests do not read the benchmark.
"""

import ast
import json
import pathlib

import pytest

from congestcolor.config import SimConfig
from congestcolor.graphs import generate, make_palettes
from congestcolor.harness import run_pipeline
from congestcolor.sim import SimError, new_network

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "congestcolor"


def small_net(**cfg):
    g = generate("complete", {"n": 4}, seed=0)
    return new_network(g, make_palettes(g, seed=1, mode="shared"), SimConfig(**cfg), 0)


def test_require_records_and_returns_ok_in_practical_mode():
    net = small_net()
    assert net.preconditions == {}
    assert net.require("a", True, "never shown") is True
    assert net.require("b", False, "b failed") is False
    assert net.preconditions == {"a": True, "b": False}
    # repeated checks are ANDed: one failure makes the precondition unmet
    assert net.require("a", False, "a failed") is False
    assert net.require("a", True, "never shown") is True
    assert net.require("b", True, "never shown") is True
    assert net.preconditions == {"a": False, "b": False}


def test_require_raises_the_detail_in_theory_mode():
    net = small_net(mode="theory")
    assert net.require("a", True, "never shown") is True
    with pytest.raises(SimError, match=r"^a failed: 3 > 2$"):
        net.require("a", False, "a failed: 3 > 2")
    assert net.preconditions == {"a": False}


_DENSE = {"c_small": 0.002, "c_layer": 0.25}
_PLANTED = {"acd_delta_floor": False, "overlay_epsilon": False,
            "layer_floor": False, "layer0_size": True, "last_layer_band": False}
_SYNC = {"acd_delta_floor": True, "overlay_epsilon": False, "layer_floor": True,
         "layer0_size": True, "last_layer_band": True, "route_load_cap": True}

# (model, params, graph seed, palette mode, config, recorded preconditions)
RECORDED = {
    "planted_cliques": (
        "planted_almost_cliques",
        {"k": 127, "delta": 128, "removal": 0.01, "inter_p": 0.0}, 1, "shared",
        _DENSE, _PLANTED),
    "dense_sync": (
        "planted_almost_cliques",
        {"k": 2, "delta": 512, "removal": 0.03, "inter_p": 0.0}, 1, "shared",
        {**_DENSE, "k4": 0}, _SYNC),
    # random lists from the n^2 colorspace load a routing node past the cap
    "dense_sync_random_lists": (
        "planted_almost_cliques",
        {"k": 2, "delta": 512, "removal": 0.03, "inter_p": 0.0}, 3, "random",
        {**_DENSE, "k4": 0}, {**_SYNC, "route_load_cap": False}),
    # the low-degree branch checks nothing the analysis assumes
    "cycle": ("cycle", {"n": 512}, 1, "shared", {}, {}),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_run_report_lists_the_preconditions(name):
    model, params, seed, palette_mode, cfg, expected = RECORDED[name]
    g = generate(model, params, seed)
    pal = make_palettes(g, seed=seed + 1, mode=palette_mode)
    report = run_pipeline(g, pal, SimConfig(**cfg), seed)
    assert report.preconditions == expected
    assert json.loads(report.to_json())["preconditions"] == expected


class _ModeReads(ast.NodeVisitor):
    """(file, enclosing function) of every read of an attribute named `mode`."""

    def __init__(self, file):
        self.file, self.func, self.sites = file, None, []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    def visit_Attribute(self, node):
        if node.attr == "mode" and isinstance(node.ctx, ast.Load):
            self.sites.append((self.file, self.func))
        self.generic_visit(node)


def test_mode_is_read_only_in_require_the_acd_pin_config_and_cli():
    # acd's calibration pin is a mode switch, not a precondition; config.py
    # and cli.py set and check the option itself
    sites = []
    for path in sorted(SRC.glob("*.py")):
        reads = _ModeReads(path.name)
        reads.visit(ast.parse(path.read_text()))
        sites += [s for s in reads.sites if s[0] not in ("config.py", "cli.py")]
    assert sorted(sites) == [("acd.py", "compute_acd"), ("sim.py", "require")]
