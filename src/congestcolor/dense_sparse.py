"""Coloring stages for the sparse set and the almost-cliques.

Sparse nodes carry palette slack proportional to their local sparsity, so
plain random color trials shrink their uncolored degree doubly exponentially;
a short warm-up loop plus a log-log loop leaves a low-degree remainder that
the low-degree machinery finishes.

Dense nodes are colored clique by clique through a layer schedule: each member
independently joins a layer, layer probabilities shrink so that later layers
are small enough for a leader to coordinate. The workhorse is the synchronized
trial: members of the active layer ship random sub-palettes to the clique
leader over the relay overlay, the leader hands out pairwise-distinct
candidates, and one simultaneous trial runs on the layer's induced graph.
Distinct candidates mean members of the same clique never collide with each
other, only with the few external neighbors in the same layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .overlay import RoutingRequest, route
from .sim import Network, SimError, seed_words, stream
from .small_degree import color_small_degree
from .trials import random_color_trial, trial_loop, try_color_round

_LAYER_TAG = 0xD15E


@dataclass
class LayerPartition:
    t_prime: int
    t: int
    probabilities: tuple     # exact rationals p_0..p_t, summing to 1
    lambdas: tuple           # expected layer sizes Delta * p_i
    assignment: dict         # member -> layer index
    fallback: bool = False   # single-layer fallback used (small Delta)

    def layer(self, v: int) -> int:
        return self.assignment[v]


def _log2n(n: int) -> float:
    return max(2.0, math.log2(max(4, n)))


def layer_schedule(network: Network, delta: int | None = None):
    """The (t_prime, t, probabilities) triple shared by every clique.

    p_1 = 1/log^{3/2} n, then p_i = p_{i-1}^{3/2} up to t_prime and
    p_i = sqrt(p_{i-1}/Delta) after; t is maximal with p_t >= c*log n/Delta.
    Probabilities are exact rationals (binary-float values promoted), so the
    residual p_0 = 1 - sum makes the total exactly 1. When even p_1 misses the
    floor — Delta below ~log^4 n — practical mode falls back to one layer of
    the largest admissible size and records the deviation.
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
    fallback = False
    if p1 < 1.0 and p1 >= floor:
        tail = [p1]
        i = 2
        while True:
            prev = tail[-1]
            nxt = prev ** 1.5 if i <= t_prime else math.sqrt(prev / delta)
            if nxt < floor:
                break
            tail.append(nxt)
            i += 1
    if not tail:
        if cfg.mode == "theory":
            raise SimError(
                f"layer schedule needs Delta above ~log^4 n in theory mode "
                f"(Delta={delta}, n={network.graph.n})"
            )
        fallback = True
        lam_floor = cfg.c_layer * logn * logn
        tail = [min(0.5, lam_floor / delta)]
        if network.trace is not None:
            network.log(-1, "layer_fallback",
                        f"t=1 p1={tail[0]:.5f} lam={delta * tail[0]:.1f}")
    probs = [Fraction(p) for p in tail]
    p0 = 1 - sum(probs)
    if p0 <= 0:
        raise SimError("layer probabilities exceed 1")
    probs = [p0] + probs
    t = len(tail)
    lambdas = tuple(delta * float(p) for p in probs)
    if cfg.mode == "theory":
        c = cfg.c_layer
        if lambdas[0] < delta / 4.0:
            raise SimError(f"layer 0 too small: {lambdas[0]:.1f} < Delta/4")
        if not c * logn <= lambdas[t] <= (c * logn) ** 2:
            raise SimError(
                f"last layer size {lambdas[t]:.1f} outside "
                f"[{c * logn:.1f}, {(c * logn) ** 2:.1f}]"
            )
    return t_prime, t, tuple(probs), lambdas, fallback


def partition_layers(network: Network, clique, seed: int = 0) -> LayerPartition:
    """Independent per-node layer draws for one clique; one announcement
    round so neighbors know each member's layer."""
    t_prime, t, probs, lambdas, fallback = layer_schedule(network)
    cumulative = np.cumsum([float(p) for p in probs])
    members = sorted(clique)
    draws = [stream(w).random() for w in
             seed_words([network.master_seed, _LAYER_TAG, seed], members)]
    layers = np.minimum(np.searchsorted(cumulative, draws, side="right"), t)
    assignment = dict(zip(members, layers.tolist()))
    ms = np.array(members, dtype=np.int64)
    network.layer[ms] = layers
    inside = np.zeros(network.graph.n, dtype=bool)
    inside[ms] = True
    internal = int(inside[network.graph.rows(ms)[1]].sum())
    network.charge_phase("dense_partition", 1, internal, (t + 1).bit_length())
    return LayerPartition(t_prime, t, probs, lambdas, assignment, fallback)


def color_sparse_nodes(network: Network, acd) -> dict:
    """Trial loop on the sparse set, then hand the low-degree remainder to the
    component machinery. Returns round usage."""
    cfg = network.config
    start = network.stats.rounds
    sparse = sorted(acd.v_sparse)
    if sparse:
        trial_loop(network, sparse, cfg.k1, "sparse_warmup")
        dlog = math.ceil(math.log2(max(2.0, math.log2(max(4, network.graph.delta)))))
        rest = trial_loop(network, sparse, cfg.k2 * dlog, "sparse_loglog")
        if rest:
            color_small_degree(network, rest)
    return {"rounds": network.stats.rounds - start}


def synchronized_color_trial(network: Network, acd, overlays, layer: int,
                             partitions: dict) -> dict:
    """One leader-coordinated trial iteration on the given layer, run on all
    cliques in parallel. Returns tried/colored/assignment-failure counts."""
    cfg = network.config
    logn = _log2n(network.graph.n)
    picks = {}
    failures = 0
    with network.parallel() as clique:
        for ac in sorted(acd.cliques):
            part = partitions[ac]
            if not 1 <= layer <= part.t - 1:
                raise SimError(
                    f"synchronized trial needs a layer in [1, t-1], got {layer} "
                    f"(t={part.t})"
                )
            members = frozenset(acd.cliques[ac])
            leader = acd.leaders[ac]
            active = sorted(
                v for v in members
                if part.layer(v) == layer and network.color.item(v) < 0
            )
            with clique():
                # leader learns |R_i^C| and tells everyone
                active_set = set(active)
                network.tree_aggregate(
                    members, leader, "sum",
                    {v: 1 if v in active_set else 0 for v in members},
                    phase="sync_agg")
                network.tree_aggregate(members, leader, "broadcast",
                                       {leader: len(active)}, phase="sync_agg")
                if not active:
                    continue
                lam_next = part.lambdas[layer + 1]
                pi_size = math.ceil(
                    cfg.c_p * max(1.0, len(active) / max(lam_next, 1e-9)) * logn
                )
                sub = {}
                for v in active:
                    size = min(pi_size, network.palette_size(v))
                    if size < pi_size and network.trace is not None:
                        network.log(v, "subpalette_clamp", f"{pi_size}->{size}")
                    sub[v] = network.sample_colors(v, network.rng(v), size)
                ship = [RoutingRequest(v, leader, size=len(sub[v]))
                        for v in active if v != leader]
                if ship:
                    route(network, overlays[ac], ship)
                taken = set()
                leader_rng = network.rng(leader)
                granted = []
                for v in active:            # ascending-ID assignment order
                    avail = [c for c in sub[v] if c not in taken]
                    if not avail:
                        failures += 1
                        if network.trace is not None:
                            network.log(v, "assignment_failure", f"layer={layer}")
                        continue
                    c = avail[int(leader_rng.integers(len(avail)))]
                    taken.add(c)
                    picks[v] = c
                    granted.append(v)
                back = [RoutingRequest(leader, v, size=1)
                        for v in granted if v != leader]
                if back:
                    route(network, overlays[ac], back)
    colored = try_color_round(network, picks, phase="sync_trial") if picks else []
    return {"tried": len(picks), "colored": len(colored), "failures": failures}


def _layer_metrics(network: Network, acd, partitions, layer: int):
    """(max external uncolored same-layer degree, max same-layer degree,
    uncolored count) over the layer's members."""
    g = network.graph
    # index of each layer member's clique among the partitions, else -1
    clique_of = np.full(g.n, -1, dtype=np.int64)
    for i, (ac, part) in enumerate(partitions.items()):
        clique_of[[v for v in acd.cliques[ac] if part.layer(v) == layer]] = i
    live = np.flatnonzero((clique_of >= 0) & (network.color < 0))
    src, nbrs = g.rows(live)
    # r_i(u) = |N(u) cap live|: count incidences from the live side
    max_r = int(np.bincount(nbrs, minlength=g.n).max())
    ext = (clique_of[nbrs] >= 0) & (network.color[nbrs] < 0) \
        & (clique_of[nbrs] != clique_of[live][src])
    max_e = int(np.bincount(src[ext], minlength=live.size).max(initial=0))
    return max_e, max_r, live.size


def color_dense_nodes(network: Network, acd, overlays, seed: int = 0) -> dict:
    """The full dense stage: partition into layers, trial-color the bulk
    layer and finish it with the low-degree machinery, run the synchronized
    trial schedule on the middle layers, and sweep up everything left.

    Returns round usage, the per-clique layer partitions, the post-trial bulk
    layer sizes, and a `layer,iter,max_e,max_r,uncolored` trajectory table.
    """
    cfg = network.config
    g = network.graph
    start = network.stats.rounds
    trajectory = []
    dense = sorted(v for ac in acd.cliques for v in acd.cliques[ac])
    if not dense:
        return {"rounds": 0, "partitions": {}, "r0_sizes": {},
                "trajectory": trajectory, "failures": 0}

    partitions = {}
    with network.parallel() as clique:
        for ac in sorted(acd.cliques):
            with clique():
                partitions[ac] = partition_layers(network, acd.cliques[ac], seed)
    t = next(iter(partitions.values())).t

    # bulk layer: log-log many plain trials, then the low-degree finisher
    dense = np.array(dense, dtype=np.int64)
    r0 = dense[network.layer[dense] == 0]
    loops = cfg.k3 * math.ceil(math.log2(_log2n(g.n)))
    for it in range(loops):
        active = r0[network.color[r0] < 0].tolist()
        if not active:
            break
        random_color_trial(network, active, phase="dense_r0")
        e, r, u = _layer_metrics(network, acd, partitions, 0)
        trajectory.append((0, it, e, r, u))
    r0_sizes = {
        ac: sum(1 for v in acd.cliques[ac]
                if partitions[ac].layer(v) == 0 and network.color.item(v) < 0)
        for ac in partitions
    }
    leftover0 = r0[network.color[r0] < 0].tolist()
    if leftover0:
        color_small_degree(network, leftover0)

    # middle layers, leader-coordinated; the last layer is small enough to go
    # straight to the final low-degree sweep
    failures = 0
    for layer in range(1, t):
        active = dense[network.layer[dense] == layer]
        trial_loop(network, active, cfg.k4, "dense_layer_rct")
        iters = cfg.k5 * math.ceil(math.log2(max(2.0, math.log2(max(4, g.delta)))))
        for it in range(iters):
            res = synchronized_color_trial(network, acd, overlays, layer,
                                           partitions)
            failures += res["failures"]
            e, r, u = _layer_metrics(network, acd, partitions, layer)
            trajectory.append((layer, it, e, r, u))
            if u == 0:
                break

    rest = dense[network.color[dense] < 0].tolist()
    if rest:
        color_small_degree(network, rest)
    return {
        "rounds": network.stats.rounds - start,
        "partitions": partitions,
        "r0_sizes": r0_sizes,
        "trajectory": trajectory,
        "failures": failures,
    }


def trajectory_csv(rows) -> str:
    out = ["layer,iter,max_e,max_r,uncolored"]
    out.extend(f"{l},{i},{e},{r},{u}" for l, i, e, r, u in rows)
    return "\n".join(out) + "\n"
