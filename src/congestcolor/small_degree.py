"""(deg+1)-list coloring for low-degree subgraphs.

Four stages: random trials shatter the graph into small uncolored components;
each component is carved into low-diameter clusters grouped into independent
classes; each cluster deterministically computes a list-size-preserving map
from the huge original colorspace into one of size poly(cluster size), so that
a reduced color fits in a few bits; finally many parallel trial instances run
per cluster with their candidates packed into shared messages, and the cluster
adopts one instance that colored every member.

The colorspace reduction assigns each original color a distinct low-degree
polynomial over a prime field and maps it to the polynomial's value at a
common evaluation point g; g is fixed bit by bit via conditional expectation
so that no node's list shrinks. The cluster decomposition here is a
deterministic BFS ball-carving stand-in with the same interface and audited
outputs (independent classes, bounded weak diameter).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import sympy

from .sim import Network, SimError
from .trials import trial_loop

# ---------------------------------------------------------------------------
# cluster decomposition


@dataclass(eq=False)          # identity hashing: clusters key colormap dicts
class Cluster:
    nodes: frozenset
    root: int
    tree_depth: int                  # depth of the BFS tree from root
    diameter: int
    class_index: int = -1


@dataclass
class ClusterDecomposition:
    classes: list                    # list of lists of Cluster
    component: frozenset

    def all_clusters(self):
        for cls in self.classes:
            yield from cls


def shatter(network: Network, subgraph) -> list:
    """Trial-color the subgraph until the uncolored remainder falls apart into
    small connected components, which are returned as node lists.

    Runs k6*ceil(log2 Delta_H) trial iterations, splits the survivors into a
    low- and a high-degree group at half the maximum uncolored degree, gives
    the high-degree group the same number of extra iterations, and then
    flood-fills the remaining uncolored components (charging, in rounds, the
    largest eccentricity of a component's lowest-ID node).
    """
    cfg = network.config
    g = network.graph
    h = np.fromiter(subgraph, dtype=np.int64)
    h = h[network.color[h] < 0]
    if not h.size:
        return []
    in_h = np.zeros(g.n, dtype=bool)
    in_h[h] = True

    def udeg(nodes):
        """Uncolored neighbors inside the subgraph, per node."""
        src, nbrs = g.rows(nodes)
        keep = in_h[nbrs] & (network.color[nbrs] < 0)
        return np.bincount(src[keep], minlength=len(nodes))

    iters = cfg.k6 * max(1, math.ceil(math.log2(max(2, udeg(h).max()))))
    survivors = np.array(trial_loop(network, h, iters, "small_shatter"),
                         dtype=np.int64)
    if survivors.size:
        d = udeg(survivors)
        trial_loop(network, survivors[d > d.max() / 2.0], iters, "small_shatter")

    rem = h[network.color[h] < 0]
    remaining = set(rem.tolist())
    edge_count = int(udeg(rem).sum())
    components = []
    seen = set()
    max_diam = 0
    for v in sorted(remaining):
        if v not in seen:
            dist = g.bfs(v, remaining)
            seen.update(dist)
            components.append(sorted(dist))
            max_diam = max(max_diam, max(dist.values()))
    if components:
        network.charge_phase(
            "small_components", max(1, max_diam), edge_count,
            min(network.id_bits, network.bandwidth_bits),
        )
    return components


def decompose_clusters(network: Network, component,
                       r_cluster: int | None = None) -> ClusterDecomposition:
    """Deterministic BFS ball carving: repeatedly peel the ball of radius
    r_cluster around the lowest-ID remaining node, then greedy-color the
    cluster adjacency graph into independent classes."""
    comp = sorted(component)
    if len(comp) > network.config.n_max_component:
        raise SimError(
            f"component of size {len(comp)} exceeds the "
            f"{network.config.n_max_component}-node ceiling: shattering failed"
        )
    if r_cluster is None:
        r_cluster = max(1, math.ceil(math.log2(max(2, len(comp))) ** 2))
    g = network.graph
    remaining = set(comp)
    clusters = []
    carve_rounds = 0
    msgs = 0
    while remaining:
        root = min(remaining)
        ball = g.bfs(root, remaining, r_cluster)
        nodes = frozenset(ball)
        tree_depth = max(ball.values())
        clusters.append(Cluster(nodes, root, tree_depth,
                                _induced_diameter(g, nodes)))
        remaining -= nodes
        # one round per level searched (the last one, past the ball, finds
        # nothing unless r_cluster cut the search off), plus one
        carve_rounds += min(tree_depth + 1, r_cluster) + 1
        msgs += len(ball) - 1
    network.charge_phase("small_decompose", carve_rounds, msgs,
                         min(network.id_bits, network.bandwidth_bits))

    # greedy class assignment on the cluster adjacency graph
    classes: list = []
    for c in clusters:
        used = set()
        for i, cls in enumerate(classes):
            for other in cls:
                if _adjacent(g, c.nodes, other.nodes):
                    used.add(i)
                    break
        slot = next(i for i in range(len(classes) + 1) if i not in used)
        if slot == len(classes):
            classes.append([])
        c.class_index = slot
        classes[slot].append(c)
    return ClusterDecomposition(classes, frozenset(comp))


def _adjacent(g, a, b):
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    return any(not big.isdisjoint(g.neighbors(v)) for v in small)


def _induced_diameter(g, nodes):
    return max(max(g.bfs(s, nodes).values()) for s in nodes)


# ---------------------------------------------------------------------------
# colorspace reduction


@dataclass
class ColorMap:
    n_bound: int          # N: size/diameter bound used in the formulas
    c0: float
    p: int
    degree: int           # polynomial degree d = ceil(p / N^5)
    g: int                # evaluation point
    lists_snapshot: tuple # the per-node lists the map was certified for

    def map_color(self, color: int) -> int:
        return _poly_eval(_color_poly(color, self.p, self.degree), self.g, self.p)


def _minimal_c0(n_bound: int, u_size: int) -> float:
    """Smallest c0 (on a 1/64 grid) with (N^c0/2)^(N^(c0-5)/2) > U."""
    log_u = math.log(u_size)
    log_n = math.log(n_bound)
    c0 = 3.0
    while c0 < 64.0:
        exponent = n_bound ** (c0 - 5.0) / 2.0
        if exponent * (c0 * log_n - math.log(2.0)) > log_u:
            return c0
        c0 += 1.0 / 64.0
    raise SimError("no workable colorspace-reduction exponent found")


@functools.lru_cache(maxsize=None)
def _field(n_bound: int, u_size: int) -> tuple:
    """(c0, p, degree) of the reduction: the smallest workable c0, the prime
    field size p and the polynomial degree whose family covers the U colors.
    A pure function of (N, U), computed once per pair."""
    c0 = _minimal_c0(n_bound, u_size)
    while True:
        p = int(sympy.nextprime(n_bound ** c0 / 2.0))
        if p > n_bound ** c0 + 1:
            raise SimError("no prime found in the target window")
        degree = max(1, math.ceil(p / n_bound ** 5))
        if p ** (degree + 1) > u_size:
            return c0, p, degree
        c0 += 1.0 / 64.0   # family too small for the colorspace; widen


def _color_poly(color: int, p: int, degree: int):
    """Distinct polynomial per color: base-p digits as coefficients."""
    coeffs = []
    x = color
    for _ in range(degree + 1):
        coeffs.append(x % p)
        x //= p
    if x:
        raise SimError(f"color {color} exceeds the polynomial family size")
    return coeffs


def _poly_eval(coeffs, g, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * g + c) % p
    return acc


def _roots_mod_p(coeffs, p):
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        if cs:
            return []
        raise SimError("identical polynomials for distinct colors")
    if p <= (1 << 16):
        gs = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for c in reversed(cs):
            acc = (acc * gs + c) % p
        return np.nonzero(acc == 0)[0].tolist()
    if len(cs) == 2:
        return [(-cs[0] * pow(cs[1], -1, p)) % p]
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in reversed(cs)], x, modulus=p)
    return sorted(int(r) % p for r in poly.ground_roots())


def _cluster_lists(network: Network, cluster: Cluster):
    """Working lists for the reduced-space trials: each member keeps its
    |cluster| smallest palette colors (enough for a (deg+1) instance inside
    the cluster, and small enough for the reduction's size bound)."""
    cap = len(cluster.nodes)
    color = network.color
    # clusters hold a few nodes: a walk over their rows beats array passes
    return {
        v: tuple(network.palette(v)[:max(cap, 1 + sum(
            1 for u in network.graph.neighbors(v)
            if u in cluster.nodes and color.item(u) < 0))])
        for v in cluster.nodes
    }


def reduce_colorspace(network: Network, cluster: Cluster) -> ColorMap:
    """Deterministically pick an evaluation point g whose induced map keeps
    every member's list size intact (hard-checked)."""
    lists = _cluster_lists(network, cluster)
    n_bound = max(3, len(cluster.nodes), cluster.diameter + 1,
                  max(len(l) for l in lists.values()))
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


# ---------------------------------------------------------------------------
# cluster coloring


def color_clusters(network: Network, decomposition: ClusterDecomposition,
                   colormaps: dict) -> dict:
    """Color every cluster, class by class, via packed parallel trial
    instances; each cluster adopts an instance that colored all its members.
    Returns per-phase round usage."""
    cfg = network.config
    start = network.stats.rounds
    n = network.graph.n
    instances = max(1, math.ceil(cfg.instance_mult * math.log2(max(4, n))))
    for cls in decomposition.classes:
        live = [c for c in cls
                if any(network.color.item(v) < 0 for v in c.nodes)]
        if not live:
            continue
        plans = []
        for cluster in live:
            cmap = colormaps[cluster]
            lists = _cluster_lists(network, cluster)
            if tuple(sorted(lists.items())) != cmap.lists_snapshot:
                # palettes changed since the map was certified: re-derive
                cmap = reduce_colorspace(network, cluster)
                colormaps[cluster] = cmap
            plans.append((cluster, cmap, lists))

        iters = max(1, math.ceil(cfg.instance_mult * math.log2(max(
            4, max(p[1].n_bound for p in plans)))))
        width = max(1, math.ceil(math.log2(max(p[1].p for p in plans))))
        pack = max(1, network.bandwidth_bits // width)
        rounds_per_iter = 2 * math.ceil(instances / pack)
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
                for v in members:
                    rng = network.rng(v)
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
    """Full low-degree coloring: shatter, decompose, reduce, color. Returns
    per-stage round usage."""
    start = network.stats.rounds
    components = shatter(network, subgraph)
    for comp in components:
        decomp = decompose_clusters(network, comp)
        colormaps = {c: reduce_colorspace(network, c)
                     for c in decomp.all_clusters()}
        color_clusters(network, decomp, colormaps)
    leftovers = [v for v in subgraph if network.color.item(v) < 0]
    if leftovers:
        raise SimError(f"low-degree coloring left {len(leftovers)} nodes uncolored")
    return {"rounds": network.stats.rounds - start}
