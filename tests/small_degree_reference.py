"""Reference low-degree coloring: each shattered component runs its own
colorspace reductions and packed trial instances, one component after another.

This is the loop form of `small_degree.color_small_degree`, kept as the
differential oracle for the batched post-shattering stage. It recomputes every
evaluation point from scratch (no memo), draws each (node, instance) candidate
with its own scalar `rng.integers` call and resolves conflicts pick by pick.
It books the same bill: components are branches of one `Network.parallel()`
block, and so are the up-front reductions and the stale-map re-derivations of
one class.
"""

from __future__ import annotations

import math

import numpy as np

from congestcolor import small_degree
from congestcolor.sim import Network, SimError
from congestcolor.small_degree import (
    Cluster,
    ClusterDecomposition,
    ColorMap,
    _cluster_lists,
    _color_poly,
    _field,
    _roots_mod_p,
    decompose_clusters,
    shatter,
)
from stream_checkout import generators


def reduce_colorspace(network: Network, cluster: Cluster) -> ColorMap:
    """Deterministically pick an evaluation point g whose induced map keeps
    every member's list size intact (hard-checked)."""
    lists = _cluster_lists(network, cluster)
    n_bound = max(3, len(cluster.nodes), max(len(l) for l in lists.values()))
    c0, p, degree = _field(n_bound, network.palettes.colorspace_size)

    # collision sets: the evaluation points where some pair of one node's
    # colors collides
    collision = {}
    for v, pal in lists.items():
        bad = set()
        for i, a in enumerate(pal):
            pa = _color_poly(a, p, degree)
            for b in pal[i + 1:]:
                pb = _color_poly(b, p, degree)
                diff = [(x - y) % p for x, y in zip(pa, pb)]
                bad.update(_roots_mod_p(diff, p))
        collision[v] = np.array(sorted(bad), dtype=np.int64)

    ell = max(1, math.ceil(math.log2(p)))
    scale = n_bound ** 5            # fixed-point denominator for expectations
    prefix = 0
    for i in range(1, ell + 1):
        span = 1 << (ell - i)
        scores = []
        for b in (0, 1):
            lo = (prefix << 1 | b) << (ell - i)
            hi = min(lo + span, p)
            total = 0
            for v, bad in collision.items():
                count = int(np.searchsorted(bad, hi) - np.searchsorted(bad, lo)) \
                    if hi > lo else 0
                exact = count / span
                total += round(exact * scale)       # node-local fixed point
            y_term = max(0, (lo + span) - max(lo, p)) / span
            scores.append(total / scale + y_term)
        prefix = prefix << 1 | (0 if scores[0] <= scores[1] else 1)
    g_point = prefix
    depth = max(1, cluster.tree_depth)
    width = network.chunks(max(1, math.ceil(math.log2(scale * n_bound + 1))))
    network.charge_phase(
        "small_reduce", ell * 2 * depth * width,
        ell * 2 * (len(cluster.nodes) - 1), min(
            network.bandwidth_bits,
            max(1, math.ceil(math.log2(scale * n_bound + 1)))),
    )

    if g_point >= p:
        raise SimError("colorspace reduction fixed an out-of-field point")
    cmap = ColorMap(n_bound, c0, p, degree, g_point,
                    tuple(sorted(lists.items())))
    for v, pal in lists.items():
        if len({cmap.map_color(c) for c in pal}) != len(pal):
            raise SimError(f"colorspace reduction shrank the list of node {v}")
    return cmap


def color_clusters(network: Network, decomposition: ClusterDecomposition,
                   colormaps: dict) -> dict:
    """Color every cluster, class by class, via packed parallel trial
    instances; each cluster adopts an instance that colored all its members.
    Returns per-phase round usage."""
    start = network.stats.rounds
    n = network.graph.n
    instances = max(1, math.ceil(
        small_degree.INSTANCE_MULT * math.log2(max(4, n))))
    for cls in decomposition.classes:
        live = [c for c in cls
                if any(network.color.item(v) < 0 for v in c.nodes)]
        if not live:
            continue
        plans = []
        with network.parallel() as rederive:
            for cluster in live:
                lists = _cluster_lists(network, cluster)
                if tuple(sorted(lists.items())) != colormaps[cluster].lists_snapshot:
                    # palettes changed since the map was certified: re-derive
                    with rederive():
                        colormaps[cluster] = reduce_colorspace(network, cluster)
                plans.append((cluster, colormaps[cluster], lists))

        iters = max(1, math.ceil(small_degree.INSTANCE_MULT * math.log2(max(
            4, max(p[1].n_bound for p in plans)))))
        width = max(1, math.ceil(math.log2(max(p[1].p for p in plans))))
        pack = max(1, network.bandwidth_bits // width)
        # a packed message wider than the budget (width alone exceeds it)
        # is split over several rounds
        rounds_per_iter = 2 * math.ceil(instances / pack) * network.chunks(pack * width)
        cluster_msgs = 0

        winners = {}
        for cluster, cmap, lists in plans:
            members = sorted(cluster.nodes)
            reduced = {v: {cmap.map_color(c): c for c in lists[v]}
                       for v in members}
            for v in members:
                if len(reduced[v]) != len(lists[v]):
                    raise SimError(f"stale colorspace map at node {v}")
            nbrs = {v: [u for u in network.graph.neighbors(v)
                        if u in cluster.nodes] for v in members}
            pal = {(v, i): set(reduced[v]) for v in members
                   for i in range(instances)}
            got = {(v, i): None for v in members for i in range(instances)}
            for _ in range(iters):
                picks = {}
                with generators(network.streams, members) as rngs:
                    for v, rng in zip(members, rngs):
                        for i in range(instances):
                            if got[(v, i)] is None and pal[(v, i)]:
                                opts = sorted(pal[(v, i)])
                                picks[(v, i)] = opts[int(rng.integers(len(opts)))]
                for (v, i), c in picks.items():
                    if any(picks.get((u, i)) == c for u in nbrs[v]):
                        continue
                    got[(v, i)] = c
                    for u in nbrs[v]:
                        pal[(u, i)].discard(c)
                cluster_msgs += sum(len(nbrs[v]) for v in members) * math.ceil(
                    instances / pack) * 2
            success = 0
            for i in range(instances):
                if all(got[(v, i)] is not None for v in members):
                    success |= 1 << i
            if not success:
                raise SimError(
                    f"no trial instance colored cluster rooted at {cluster.root}"
                )
            chosen = (success & -success).bit_length() - 1
            winners[cluster] = {
                v: reduced[v][got[(v, chosen)]] for v in members
            }
        # simulate the per-class schedule: packed trials, success convergecast
        # (bitwise AND over instance masks), index broadcast, permanent colors
        max_depth = max(max(1, c.tree_depth) for c, _, _ in plans)
        agg_rounds = max_depth * network.chunks(instances) + max_depth + 1
        network.charge_phase(
            "small_color", iters * rounds_per_iter + agg_rounds,
            cluster_msgs + sum(2 * len(c.nodes) for c, _, _ in plans),
            min(network.bandwidth_bits, pack * width),
        )
        # clusters of one class are pairwise non-adjacent: one batch
        order = [vc for a in winners.values() for vc in sorted(a.items())]
        network.assign_colors([v for v, _ in order], [c for _, c in order])
    return {"rounds": network.stats.rounds - start}


def color_small_degree(network: Network, subgraph) -> dict:
    """Full low-degree coloring: shatter, then decompose, reduce and color
    each component in its own branch. Returns per-stage round usage."""
    start = network.stats.rounds
    components = shatter(network, subgraph)
    with network.parallel() as component:
        for comp in components:
            with component():
                decomp = decompose_clusters(network, comp)
                colormaps = {}
                with network.parallel() as cluster:
                    for c in decomp.all_clusters():
                        with cluster():
                            colormaps[c] = reduce_colorspace(network, c)
                color_clusters(network, decomp, colormaps)
    leftovers = [v for v in subgraph if network.color.item(v) < 0]
    if leftovers:
        raise SimError(f"low-degree coloring left {len(leftovers)} nodes uncolored")
    return {"rounds": network.stats.rounds - start}
