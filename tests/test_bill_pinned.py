"""The bill and the coloring of a few fast instances, pinned as literals.

A change meant to leave the simulated bill alone (a refactor, a speed-up) must
reproduce these numbers exactly: the per-phase rounds, the message total, the
widest edge load and a SHA-256 of the sorted coloring. A change that moves the
bill on purpose updates the literals and says why.

The instances cover every trial loop of the pipeline: the low-degree branch
(shatter, cluster carving, colorspace reduction, cluster coloring) on shared
lists, the sparse stage's warm-up and log-log loops, the dense stage's bulk
and plain middle-layer loops, and, with k4=0, the synchronized trial routed
over the relay overlays.
"""

import hashlib
import json

import pytest

from congestcolor.config import SimConfig
from congestcolor.graphs import generate, make_palettes
from congestcolor.harness import run_pipeline

_ACD = {"acd_sample": 1, "acd_gossip": 8, "acd_fedges": 1, "acd_sdense": 1,
        "acd_anchor": 1, "acd_adopt": 1, "acd_prune": 6}
_DENSE = dict(c_small=0.002, c_layer=0.25)

# (model, params, seed, config, per_phase, total_messages,
#  max_edge_bits_per_round, coloring sha256)
PINNED = {
    "cycle512_seed1": (
        "cycle", {"n": 512}, 1, {},
        {"small_shatter": 10, "small_components": 1, "small_decompose": 2,
         "small_reduce": 18, "small_color": 43},
        3736, 36,
        "1590302b53a57fb593918f6b1880618c14c71da3222152e558ae5a018c0e777a",
    ),
    "cycle512_seed2": (
        "cycle", {"n": 512}, 2, {},
        {"small_shatter": 10, "small_components": 1, "small_decompose": 2,
         "small_reduce": 18, "small_color": 43},
        3248, 36,
        "a07436cb2398fa3a6882c81812d4ef9409a277d0811cdecd577ece5679ad125d",
    ),
    "cycle512_seed3": (
        "cycle", {"n": 512}, 3, {},
        {"small_shatter": 16, "small_components": 1, "small_decompose": 2,
         "small_reduce": 18, "small_color": 43},
        2861, 36,
        "9c1c591484495f19c83d5ac717853841595e896b6ea39563cb0edfc354416875",
    ),
    # default cross edges: the decomposition finds no clique, all nodes sparse
    "planted_k2_d64_sparse": (
        "planted_almost_cliques", {"k": 2, "delta": 64}, 1, _DENSE,
        {**_ACD, "slack_generation": 2, "sparse_warmup": 10,
         "sparse_loglog": 2},
        80737, 15,
        "a14266c7d8bceb49e90d8bba7afe200e316fc941e2e99a0b2c53a1b77f8b7079",
    ),
    "planted_k2_d64_dense": (
        "planted_almost_cliques",
        {"k": 2, "delta": 64, "removal": 0.03, "inter_p": 0.0}, 1, _DENSE,
        {**_ACD, "overlay_setup": 5, "overlay_pair": 6, "slack_generation": 2,
         "dense_partition": 1, "dense_r0": 10, "dense_layer_rct": 2,
         "sync_agg": 4, "small_shatter": 2},
        108723, 17,
        "297d058ef9c6fb904e01966f04fc5dd44153e4d018ab9bf6add47bdd78331f01",
    ),
    # the smallest Delta (seed 1) at which the synchronized trial tries a
    # color and route() moves a payload
    "planted_k2_d43_sync": (
        "planted_almost_cliques",
        {"k": 2, "delta": 43, "removal": 0.03, "inter_p": 0.0}, 1,
        {**_DENSE, "k4": 0},
        {**_ACD, "overlay_setup": 5, "overlay_pair": 6, "slack_generation": 2,
         "dense_partition": 1, "dense_r0": 10, "sync_agg": 4, "route": 8,
         "sync_trial": 2, "small_shatter": 2},
        53823, 26,
        "5b1c729ead0b0748cbff057ee80c0f41bfb106084f13b6d5d7b132b1a6e55fcf",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bill_matches_pinned_literals(name):
    model, params, seed, cfg, per_phase, messages, edge_bits, digest = PINNED[name]
    g = generate(model, params, seed)
    pal = make_palettes(g, seed=seed + 1, mode="shared")
    report = run_pipeline(g, pal, SimConfig(**cfg), seed)
    stats = report.stats
    assert stats["per_phase"] == per_phase
    assert stats["total_messages"] == messages
    assert stats["max_edge_bits_per_round"] == edge_bits
    coloring = json.dumps(sorted(report.coloring.items()))
    assert hashlib.sha256(coloring.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bill_has_no_negative_phase_and_adds_up(name):
    model, params, seed, cfg = PINNED[name][:4]
    g = generate(model, params, seed)
    pal = make_palettes(g, seed=seed + 1, mode="shared")
    stats = run_pipeline(g, pal, SimConfig(**cfg), seed).stats
    assert min(stats["per_phase"].values()) >= 0
    assert sum(stats["per_phase"].values()) == stats["rounds"]
