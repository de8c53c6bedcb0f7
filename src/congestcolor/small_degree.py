"""(deg+1)-list coloring for low-degree subgraphs.

Four stages: random trials shatter the graph into small uncolored components;
each component is carved into low-diameter clusters grouped into independent
classes; each cluster deterministically computes a list-size-preserving map
from the huge original colorspace into one of size poly(cluster size), so that
a reduced color fits in a few bits; finally many parallel trial instances run
per cluster with their candidates packed into shared messages, and the cluster
adopts one instance that colored every member. The post-shattering stage is
one batch: every component is decomposed and reduced in its own branch of one
parallel block, then class j of all components runs its trials in the same
array passes, each component keeping the iterations, instance choice and
charge it would have alone.

The colorspace reduction assigns each original color a distinct low-degree
polynomial over a prime field and maps it to the polynomial's value at a
common evaluation point g; g is fixed bit by bit via conditional expectation
so that no node's list shrinks, once per multiset of lists. The cluster
decomposition here is a deterministic BFS ball-carving stand-in with the same
interface and audited outputs (independent classes, bounded weak diameter).
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .sim import Network, SimError
from .trials import trial_loop

# shattering runs K6 * ceil(log2 Delta_H) trials per group
K6 = 4
# a shattered component above N_MAX_COMPONENT nodes means shattering failed
N_MAX_COMPONENT = 20000
# clusters run INSTANCE_MULT * log2 n parallel trial instances
INSTANCE_MULT = 2.0


# ---------------------------------------------------------------------------
# cluster decomposition


@dataclass(eq=False)          # identity hashing: clusters key colormap dicts
class Cluster:
    nodes: frozenset
    root: int
    tree_depth: int                  # depth of the BFS tree from root
    class_index: int = -1


@dataclass
class ClusterDecomposition:
    classes: list                    # list of lists of Cluster

    def all_clusters(self):
        for cls in self.classes:
            yield from cls


def shatter(network: Network, subgraph) -> list:
    """Trial-color the subgraph until the uncolored remainder falls apart into
    small connected components, which are returned as node lists.

    Runs K6*ceil(log2 Delta_H) trial iterations, splits the survivors into a
    low- and a high-degree group at half the maximum uncolored degree, gives
    the high-degree group the same number of extra iterations, and then
    flood-fills the remaining uncolored components (charging, in rounds, the
    largest eccentricity of a component's lowest-ID node).
    """
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

    iters = K6 * max(1, math.ceil(math.log2(max(2, udeg(h).max()))))
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
        network.charge_phase("small_components", max(1, max_diam), edge_count,
                             network.id_bits)
    return components


def decompose_clusters(network: Network, component,
                       r_cluster: int | None = None) -> ClusterDecomposition:
    """Deterministic BFS ball carving: repeatedly peel the ball of radius
    r_cluster around the lowest-ID remaining node, then greedy-color the
    cluster adjacency graph into independent classes."""
    comp = sorted(component)
    if len(comp) > N_MAX_COMPONENT:
        raise SimError(
            f"component of size {len(comp)} exceeds the "
            f"{N_MAX_COMPONENT}-node ceiling: shattering failed"
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
        clusters.append(Cluster(nodes, root, tree_depth))
        remaining -= nodes
        # one round per level searched (the last one, past the ball, finds
        # nothing unless r_cluster cut the search off), plus one
        carve_rounds += min(tree_depth + 1, r_cluster) + 1
        msgs += len(ball) - 1
    network.charge_phase("small_decompose", carve_rounds, msgs, network.id_bits)

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
    return ClusterDecomposition(classes)


def _adjacent(g, a, b):
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    return any(not big.isdisjoint(g.neighbors(v)) for v in small)


# ---------------------------------------------------------------------------
# colorspace reduction


@dataclass
class ColorMap:
    n_bound: int          # N: size bound used in the formulas
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


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _next_prime(x) -> int:
    """The smallest prime above int(x), 2 if int(x) < 2, as sympy's `nextprime`."""
    m = max(int(x), 1) + 1
    while not _is_prime(m):
        m += 1
    return m


def _is_prime(m: int) -> bool:
    """Miller-Rabin on the first 13 primes as bases: exact below 3.3e24."""
    if m <= 41 or any(m % b == 0 for b in _PRIME_BASES):
        return m in _PRIME_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1        # m - 1 = d * 2**s, d odd
    for b in _PRIME_BASES:
        x = pow(b, (m - 1) >> s, m)
        if x != 1 and all(pow(x, 1 << i, m) != m - 1 for i in range(s)):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _field(n_bound: int, u_size: int) -> tuple:
    """(c0, p, degree) of the reduction: the smallest workable c0, the prime
    field size p and the polynomial degree whose family covers the U colors.
    A pure function of (N, U), computed once per pair."""
    c0 = _minimal_c0(n_bound, u_size)
    while True:
        p = _next_prime(n_bound ** c0 / 2.0)
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
    import sympy        # slow to import, and only this path needs it
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


@functools.lru_cache(maxsize=1 << 12)
def _evaluation_point(lists: tuple, p: int, degree: int, ell: int,
                      scale: int) -> int:
    """The point g fixed bit by bit for a cluster whose members hold `lists`.
    Per-node counts add up as integers, so g depends on the multiset of lists
    alone, and clusters with equal lists share one computation."""
    # collision sets: the evaluation points where some pair of one node's
    # colors collides
    collision = []
    for pal in lists:
        bad = set()
        for i, a in enumerate(pal):
            pa = _color_poly(a, p, degree)
            for b in pal[i + 1:]:
                pb = _color_poly(b, p, degree)
                diff = [(x - y) % p for x, y in zip(pa, pb)]
                bad.update(_roots_mod_p(diff, p))
        collision.append(np.array(sorted(bad), dtype=np.int64))

    prefix = 0
    for i in range(1, ell + 1):
        span = 1 << (ell - i)
        scores = []
        for b in (0, 1):
            lo = (prefix << 1 | b) << (ell - i)
            hi = min(lo + span, p)
            total = 0
            for bad in collision:
                count = int(np.searchsorted(bad, hi) - np.searchsorted(bad, lo)) \
                    if hi > lo else 0
                exact = count / span
                total += round(exact * scale)       # node-local fixed point
            y_term = max(0, (lo + span) - max(lo, p)) / span
            scores.append(total / scale + y_term)
        prefix = prefix << 1 | (0 if scores[0] <= scores[1] else 1)
    return prefix


def reduce_colorspace(network: Network, cluster: Cluster) -> ColorMap:
    """Deterministically pick an evaluation point g whose induced map keeps
    every member's list size intact (hard-checked)."""
    lists = _cluster_lists(network, cluster)
    # a cluster's diameter is below its size, so the size bounds both
    n_bound = max(3, len(cluster.nodes), max(len(l) for l in lists.values()))
    c0, p, degree = _field(n_bound, network.palettes.colorspace_size)
    ell = max(1, math.ceil(math.log2(p)))
    scale = n_bound ** 5            # fixed-point denominator for expectations
    g_point = _evaluation_point(tuple(sorted(lists.values())), p, degree,
                                ell, scale)
    bits = max(1, math.ceil(math.log2(scale * n_bound + 1)))
    network.charge_phase(
        "small_reduce", ell * 2 * max(1, cluster.tree_depth) * network.chunks(bits),
        ell * 2 * (len(cluster.nodes) - 1), min(network.bandwidth_bits, bits))
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
    start = network.stats.rounds
    _color_classes(network, [(decomposition, colormaps)],
                   lambda _: contextlib.nullcontext())
    return {"rounds": network.stats.rounds - start}


# jobs per lockstep pass: small passes keep their arrays small (one pass over
# 1,377 components raised the benchmark's peak RSS by about 4%)
_PASS_JOBS = 128


def _color_classes(network: Network, jobs: list, branch, fresh=False) -> None:
    """Color the clusters of every job, a (decomposition, colormaps) pair,
    class by class; the jobs' nodes are pairwise non-adjacent, so class j of
    all jobs runs in the same passes. Job k books inside `branch(k)`. With
    `fresh`, nothing was colored since the maps were certified, so class 0
    takes its lists from their snapshots; later classes re-derive stale maps."""
    instances = max(1, math.ceil(
        INSTANCE_MULT * math.log2(max(4, network.graph.n))))
    for j in range(max((len(d.classes) for d, _ in jobs), default=0)):
        groups = []
        for k, (decomp, colormaps) in enumerate(jobs):
            cls = decomp.classes[j] if j < len(decomp.classes) else []
            live = [c for c in cls
                    if any(network.color.item(v) < 0 for v in c.nodes)]
            if not live:
                continue
            if fresh and j == 0:
                groups.append((k, [(c, colormaps[c], dict(
                    colormaps[c].lists_snapshot)) for c in live]))
                continue
            lists = [_cluster_lists(network, c) for c in live]
            stale = [c for c, l in zip(live, lists)
                     if tuple(sorted(l.items())) != colormaps[c].lists_snapshot]
            if stale:
                # palettes changed since the maps were certified: re-derive
                with branch(k), network.parallel() as rederive:
                    for c in stale:
                        with rederive():
                            colormaps[c] = reduce_colorspace(network, c)
            groups.append((k, [(c, colormaps[c], l) for c, l in zip(live, lists)]))
        for i in range(0, len(groups), _PASS_JOBS):
            _packed_trials(network, groups[i:i + _PASS_JOBS], instances, branch)


def _packed_trials(network: Network, groups: list, instances: int,
                   branch) -> None:
    """Run the packed trial instances of one class of several jobs, each a
    (job, [(cluster, colormap, lists), ...]) group, in lockstep. Each job
    keeps the iteration count, packing and charge it would have alone. Each
    iteration, a node draws the candidates of its open instances in
    instance order; a cluster adopts the lowest instance that colored all its
    members."""
    plans = [plan for _, job in groups for plan in job]
    members = [sorted(c.nodes) for c, _, _ in plans]
    nodes = np.array([v for m in members for v in m], dtype=np.int64)
    owner = np.repeat(np.arange(len(plans)), [len(m) for m in members])
    maps = []                   # per row: reduced color -> original color
    for (_, cmap, lists), m in zip(plans, members):
        for v in m:
            maps.append({cmap.map_color(c): c for c in lists[v]})
            if len(maps[-1]) != len(lists[v]):
                raise SimError(f"stale colorspace map at node {v}")
    slots = max(len(r) for r in maps)
    red = np.array([sorted(r) + [-1] * (slots - len(r)) for r in maps],
                   dtype=np.int64)
    # edges inside one cluster, as row pairs
    src, nbr = network.graph.rows(nodes)
    order = np.argsort(nodes)
    at = order[np.searchsorted(nodes, nbr, sorter=order).clip(max=len(nodes) - 1)]
    keep = (nodes[at] == nbr) & (owner[at] == owner[src])
    ea, eb = src[keep], at[keep]
    sizes = [sum(len(c.nodes) for c, _, _ in job) for _, job in groups]
    iters = [max(1, math.ceil(INSTANCE_MULT * math.log2(max(
        4, max(cmap.n_bound for _, cmap, _ in job))))) for _, job in groups]
    row_iters = np.repeat(iters, sizes)

    alive = np.repeat(red[:, None, :] >= 0, instances, axis=1)
    got = np.full(alive.shape[:2], -1, dtype=np.int64)      # the won color
    for t in range(max(iters)):
        highs = alive.sum(axis=2)
        act = (got < 0) & (highs > 0) & (row_iters > t)[:, None]
        r, i = np.nonzero(act)
        if not r.size:
            break
        # one call: each row draws for its open instances in instance order
        draws = network.streams.integers(nodes[r], highs[r, i])
        # each open (row, instance) picks its draws-th live color
        pick = np.full(got.shape, -1, dtype=np.int64)
        pick[act] = red[r, np.argmax(
            np.cumsum(alive[act], axis=1) > draws[:, None], axis=1)]
        # a pick wins unless a cluster neighbor picked the same color in the
        # same instance; a winner's color leaves the neighbors' lists there
        e, i = np.nonzero((pick[ea] == pick[eb]) & (pick[ea] >= 0))
        win = pick >= 0
        win[ea[e], i] = False
        got[win] = pick[win]
        e, i = np.nonzero(win[ea])
        w, s = np.nonzero(red[eb[e]] == pick[ea[e], i][:, None])
        alive[eb[e[w]], i[w], s] = False

    success = np.logical_and.reduceat(
        got >= 0, np.cumsum([0] + [len(m) for m in members[:-1]]), axis=0)
    if not success.any(axis=1).all():
        root = plans[int(np.argmin(success.any(axis=1)))][0].root
        raise SimError(f"no trial instance colored cluster rooted at {root}")
    chosen = got[np.arange(len(nodes)), np.argmax(success, axis=1)[owner]]
    colors = np.array([m[c] for m, c in zip(maps, chosen.tolist())])

    # each job's schedule: packed trials, success convergecast (bitwise AND
    # over instance masks), index broadcast, permanent colors; the winners
    # are assigned in one batch per round reached, which a trace logs
    edges = np.bincount(ea, minlength=len(nodes))
    bounds = np.cumsum([0] + sizes).tolist()
    batches = {}
    for (k, job), lo, hi, n_iters in zip(groups, bounds, bounds[1:], iters):
        width = max(1, math.ceil(math.log2(max(cm.p for _, cm, _ in job))))
        pack = max(1, network.bandwidth_bits // width)
        packets = math.ceil(instances / pack)
        # a packed message wider than the budget (width alone exceeds it)
        # is split over several rounds
        rounds_per_iter = 2 * packets * network.chunks(pack * width)
        max_depth = max(max(1, c.tree_depth) for c, _, _ in job)
        agg_rounds = max_depth * network.chunks(instances) + max_depth + 1
        with branch(k):
            network.charge_phase(
                "small_color", n_iters * rounds_per_iter + agg_rounds,
                int(edges[lo:hi].sum()) * packets * 2 * n_iters
                + sum(2 * len(c.nodes) for c, _, _ in job),
                min(network.bandwidth_bits, pack * width))
            at = batches.setdefault(network.round_counter, (k, []))
            at[1].extend(range(lo, hi))
    for k, rows in batches.values():
        with branch(k):
            network.assign_colors(nodes[rows], colors[rows])


def color_small_degree(network: Network, subgraph) -> dict:
    """Full low-degree coloring: shatter, decompose, reduce, color, with each
    component a branch of one parallel block. Returns per-stage round usage."""
    start = network.stats.rounds
    components = shatter(network, subgraph)
    with network.parallel() as component:
        jobs = []
        for k, comp in enumerate(components):
            with component(k):
                decomp = decompose_clusters(network, comp)
                colormaps = {}
                with network.parallel() as cluster:
                    for c in decomp.all_clusters():
                        with cluster():
                            colormaps[c] = reduce_colorspace(network, c)
            jobs.append((decomp, colormaps))
        _color_classes(network, jobs, component, fresh=True)
    left = np.count_nonzero(
        network.color[np.fromiter(subgraph, dtype=np.int64)] < 0)
    if left:
        raise SimError(f"low-degree coloring left {left} nodes uncolored")
    return {"rounds": network.stats.rounds - start}
