"""Coloring stages for the sparse set and the almost-cliques.

Sparse nodes carry palette slack proportional to their local sparsity, so
plain random color trials shrink their uncolored degree doubly exponentially;
a short warm-up loop plus a log-log loop leaves a low-degree remainder that
the low-degree machinery finishes.

Dense nodes are colored clique by clique through a layer schedule: each member
independently joins a layer, layer probabilities shrink so that later layers
are small enough for a leader to coordinate. The schedule is computed once per
dense stage. A node's layer lives only in `network.layer`, which the stage
reads with the color array through one node -> clique-index array
(`clique_index`). The workhorse is the synchronized trial: members of the
active layer ship random sub-palettes to the clique leader over the relay
overlay, the leader hands out pairwise-distinct candidates, and one
simultaneous trial runs on the layer's induced graph. Distinct candidates mean
members of the same clique never collide with each other, only with the few
external neighbors in the same layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .overlay import RoutingRequest, route
from .sim import Network, SimError, Streams, seed_words
from .small_degree import color_small_degree
from .trials import random_color_trial, trial_loop, try_color_round

_LAYER_TAG = 0xD15E
K1 = 5      # sparse warm-up trials
K2 = 4      # sparse trials per ceil(log2 log2 Delta)
K3 = 4      # bulk-layer trials per ceil(log2 log2 n)
K5 = 4      # synchronized trials per middle layer, per ceil(log2 log2 Delta)
C_P = 2.0   # sub-palette size C_P * max(1, |R_i| / lambda_{i+1}) * log2 n


class LayerSchedule(NamedTuple):
    t_prime: int
    t: int
    probabilities: tuple     # exact rationals p_0..p_t, summing to 1
    lambdas: tuple           # expected layer sizes Delta * p_i
    fallback: bool = False   # single-layer fallback used (small Delta)


def _log2n(n: int) -> float:
    return max(2.0, math.log2(max(4, n)))


def layer_schedule(network: Network, delta: int | None = None) -> LayerSchedule:
    """The layer schedule shared by every clique.

    p_1 = 1/log^{3/2} n, then p_i = p_{i-1}^{3/2} up to t_prime and
    p_i = sqrt(p_{i-1}/Delta) after; t is maximal with p_t >= c*log n/Delta.
    Probabilities are exact rationals (binary-float values promoted), so the
    residual p_0 = 1 - sum makes the total exactly 1. When even p_1 misses the
    floor — Delta below ~log^4 n — practical mode falls back to one layer of
    the largest admissible size, and the `layer_floor` precondition fails.
    """
    cfg = network.config
    if delta is None:
        delta = network.graph.delta
    logn = _log2n(network.graph.n)
    floor = cfg.c_layer * logn / delta
    p1 = 1.0 / logn ** 1.5
    ratio = math.log(max(1.0 + 1e-9, math.sqrt(delta)), logn)
    t_prime = max(1, math.ceil(math.log(max(1.0 + 1e-9, ratio), 1.5)))
    tail = []
    if p1 < 1.0 and p1 >= floor:
        tail = [p1]
        i = 2
        while True:
            prev = tail[-1]
            nxt = prev ** 1.5 if i <= t_prime else math.sqrt(prev / delta)
            if nxt < floor:
                break
            if nxt >= prev:  # p -> sqrt(p/Delta) is monotone: p never falls again
                raise SimError(f"layer schedule never ends: c_layer * log2 n = "
                               f"{cfg.c_layer} * {logn:.2f} <= 1")
            tail.append(nxt)
            i += 1
    fallback = not network.require(
        "layer_floor", bool(tail),
        f"layer schedule needs Delta above ~log^4 n in theory mode "
        f"(Delta={delta}, n={network.graph.n})")
    if fallback:
        lam_floor = cfg.c_layer * logn * logn
        tail = [min(0.5, lam_floor / delta)]
        network.log(-1, "layer_fallback",
                    f"t=1 p1={tail[0]:.5f} lam={delta * tail[0]:.1f}")
    probs = [Fraction(p) for p in tail]
    p0 = 1 - sum(probs)
    if p0 <= 0:
        raise SimError("layer probabilities exceed 1")
    probs = [p0] + probs
    t = len(tail)
    lambdas = tuple(delta * float(p) for p in probs)
    c = cfg.c_layer
    network.require("layer0_size", lambdas[0] >= delta / 4.0,
                    f"layer 0 too small: {lambdas[0]:.1f} < Delta/4")
    network.require("last_layer_band", c * logn <= lambdas[t] <= (c * logn) ** 2,
                    f"last layer size {lambdas[t]:.1f} outside "
                    f"[{c * logn:.1f}, {(c * logn) ** 2:.1f}]")
    return LayerSchedule(t_prime, t, tuple(probs), lambdas, fallback)


def partition_layers(network: Network, clique, schedule: LayerSchedule,
                     seed: int = 0):
    """Independent per-node layer draws for one clique, written to
    `network.layer`; one announcement round so neighbors know each member's
    layer."""
    cumulative = np.cumsum([float(p) for p in schedule.probabilities])
    members = np.array(sorted(clique), dtype=np.int64)
    draws = Streams(seed_words([network.master_seed, _LAYER_TAG, seed],
                               members)).random(np.arange(members.size))
    network.layer[members] = np.minimum(
        np.searchsorted(cumulative, draws, side="right"), schedule.t)
    inside = np.zeros(network.graph.n, dtype=bool)
    inside[members] = True
    internal = int(inside[network.graph.rows(members)[1]].sum())
    network.charge_phase("dense_partition", 1, internal,
                         (schedule.t + 1).bit_length())


def clique_index(network: Network, acd) -> np.ndarray:
    """Each node's almost-clique as its position in ascending AC-ID order,
    -1 for nodes in no clique."""
    clique_of = np.full(network.graph.n, -1, dtype=np.int64)
    for i, ac in enumerate(sorted(acd.cliques)):
        clique_of[list(acd.cliques[ac])] = i
    return clique_of


def color_sparse_nodes(network: Network, acd) -> dict:
    """Trial loop on the sparse set, then hand the low-degree remainder to the
    component machinery. Returns round usage."""
    start = network.stats.rounds
    sparse = sorted(acd.v_sparse)
    if sparse:
        trial_loop(network, sparse, K1, "sparse_warmup")
        dlog = math.ceil(math.log2(max(2.0, math.log2(max(4, network.graph.delta)))))
        rest = trial_loop(network, sparse, K2 * dlog, "sparse_loglog")
        if rest:
            color_small_degree(network, rest)
    return {"rounds": network.stats.rounds - start}


def synchronized_color_trial(network: Network, acd, overlays, layer: int,
                             schedule: LayerSchedule, clique_of) -> dict:
    """One leader-coordinated trial iteration on the given layer, run on all
    cliques in parallel; `clique_of` is `clique_index(network, acd)`. Returns
    tried/colored/assignment-failure counts."""
    logn = _log2n(network.graph.n)
    if not 1 <= layer <= schedule.t - 1:
        raise SimError(
            f"synchronized trial needs a layer in [1, t-1], got {layer} "
            f"(t={schedule.t})"
        )
    cliques = sorted(acd.cliques)
    # the layer's uncolored members, grouped by clique, ascending within each
    live = np.flatnonzero((network.layer == layer) & (network.color < 0)
                          & (clique_of >= 0))
    live = live[np.argsort(clique_of[live], kind="stable")]
    bounds = np.searchsorted(clique_of[live], np.arange(len(cliques) + 1))
    picks = {}
    failures = 0
    with network.parallel() as clique:
        for i, ac in enumerate(cliques):
            leader = acd.leaders[ac]
            active = live[bounds[i]:bounds[i + 1]].tolist()
            with clique():
                # leader learns |R_i^C| and tells everyone
                network.tree_aggregate(acd.cliques[ac], leader, phase="sync_agg")
                if not active:
                    continue
                lam_next = schedule.lambdas[layer + 1]
                pi_size = math.ceil(
                    C_P * max(1.0, len(active) / max(lam_next, 1e-9)) * logn
                )
                sizes = np.minimum(pi_size, network.live[active])
                if network.trace is not None:
                    for v in np.array(active)[sizes < pi_size].tolist():
                        network.log(v, "subpalette_clamp", f"{pi_size}->{network.live[v]}")
                sub = dict(zip(active, network.sample_colors(active, sizes)))
                ship = [RoutingRequest(v, leader, size=len(sub[v]))
                        for v in active if v != leader]
                if ship:
                    route(network, overlays[ac], ship)
                # the leader assigns in ascending-ID order
                granted = []
                for v, c in zip(active, network.streams.distinct_picks(
                        leader, [sub[v] for v in active])):
                    if c is None:
                        failures += 1
                        if network.trace is not None:
                            network.log(v, "assignment_failure", f"layer={layer}")
                        continue
                    picks[v] = c
                    granted.append(v)
                back = [RoutingRequest(leader, v, size=1)
                        for v in granted if v != leader]
                if back:
                    route(network, overlays[ac], back)
    colored = try_color_round(network, picks, phase="sync_trial") if picks else []
    return {"tried": len(picks), "colored": len(colored), "failures": failures}


def _layer_metrics(network: Network, clique_of, layer: int):
    """Over the layer's uncolored clique members (its live set): the most
    live neighbors in other cliques that one live node has, the most live
    neighbors that one live node has, and the live count. `clique_of` holds
    each node's clique index, -1 outside every clique."""
    g = network.graph
    # clique index of each uncolored layer member, else -1
    live_of = np.where((network.layer == layer) & (network.color < 0),
                       clique_of, -1)
    live = np.flatnonzero(live_of >= 0)
    # r_i(u) = |N(u) cap live|: count incidences from the live side
    r = np.zeros(g.n, dtype=np.int64)
    max_e = 0
    for s in g.blocks(live):
        at, nbrs = g.rows(live[s])
        r += np.bincount(nbrs, minlength=g.n)
        ext = (live_of[nbrs] >= 0) & (live_of[nbrs] != live_of[live[s]][at])
        max_e = max(max_e, int(np.bincount(at[ext]).max(initial=0)))
    return max_e, int(r[live].max(initial=0)), live.size


def color_dense_nodes(network: Network, acd, overlays, seed: int = 0) -> dict:
    """The full dense stage: partition into layers, trial-color the bulk
    layer and finish it with the low-degree machinery, run the synchronized
    trial schedule on the middle layers, and sweep up everything left.

    Returns round usage, the post-trial bulk layer size of each clique, and a
    `layer,iter,max_e,max_r,uncolored` trajectory table.
    """
    cfg = network.config
    g = network.graph
    start = network.stats.rounds
    trajectory = []
    if not any(acd.cliques.values()):
        return {"rounds": 0, "r0_sizes": {}, "trajectory": trajectory,
                "failures": 0}

    schedule = layer_schedule(network)
    with network.parallel() as clique:
        for ac in sorted(acd.cliques):
            with clique():
                partition_layers(network, acd.cliques[ac], schedule, seed)
    clique_of = clique_index(network, acd)
    dense = np.flatnonzero(clique_of >= 0)

    # bulk layer: log-log many plain trials, then the low-degree finisher
    r0 = dense[network.layer[dense] == 0]
    loops = K3 * math.ceil(math.log2(_log2n(g.n)))
    for it in range(loops):
        active = r0[network.color[r0] < 0].tolist()
        if not active:
            break
        random_color_trial(network, active, phase="dense_r0")
        e, r, u = _layer_metrics(network, clique_of, 0)
        trajectory.append((0, it, e, r, u))
    leftover0 = r0[network.color[r0] < 0]
    r0_sizes = dict(zip(sorted(acd.cliques), np.bincount(
        clique_of[leftover0], minlength=len(acd.cliques)).tolist()))
    if leftover0.size:
        color_small_degree(network, leftover0.tolist())

    # middle layers, leader-coordinated; the last layer is small enough to go
    # straight to the final low-degree sweep
    failures = 0
    for layer in range(1, schedule.t):
        active = dense[network.layer[dense] == layer]
        trial_loop(network, active, cfg.k4, "dense_layer_rct")
        iters = K5 * math.ceil(math.log2(max(2.0, math.log2(max(4, g.delta)))))
        for it in range(iters):
            res = synchronized_color_trial(network, acd, overlays, layer,
                                           schedule, clique_of)
            failures += res["failures"]
            e, r, u = _layer_metrics(network, clique_of, layer)
            trajectory.append((layer, it, e, r, u))
            if u == 0:
                break

    rest = dense[network.color[dense] < 0].tolist()
    if rest:
        color_small_degree(network, rest)
    return {
        "rounds": network.stats.rounds - start,
        "r0_sizes": r0_sizes,
        "trajectory": trajectory,
        "failures": failures,
    }


def trajectory_csv(rows) -> str:
    out = ["layer,iter,max_e,max_r,uncolored"]
    out.extend(f"{l},{i},{e},{r},{u}" for l, i, e, r, u in rows)
    return "\n".join(out) + "\n"
