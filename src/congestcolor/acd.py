"""Constant-round almost-clique decomposition and its brute-force auditor.

The distributed construction partitions the nodes into a sparse set plus
"almost-cliques": groups of size about Delta in which every member has at
least (1-eps)*Delta internal neighbors. It works by sampling a small set S,
gossiping sampled IDs so nodes can detect approximately-similar neighborhoods
without ever shipping a neighborhood across an edge, and then agreeing on a
minimum-ID anchor per group. All decisions use one ID (or one bit) per edge
per round.

The simulator runs the construction as array passes over the graph's CSR
arrays (`indptr`, `indices`, `edge_src`): gossip multiplicities are counted
by sorting (receiver, ID) keys in blocks of receivers, F-edges are looked up
in the sorted edge keys, and the groups' connectivity and depth come from one
multi-source BFS. Node streams are drawn in a fixed per-node order: one draw
for S-membership, then one pick and one forwarding coin per gossip
repetition, so the result does not depend on how the passes are arranged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import Graph, density_oracle
from .sim import Network, SimError

# gossip and adoption pairs sorted at once, at most: the receivers are counted
# in blocks of _PAIR_BUDGET // (Delta * reps) nodes
_PAIR_BUDGET = 1 << 20


@dataclass
class AlmostCliqueDecomposition:
    graph: Graph
    v_sparse: set
    cliques: dict          # AC-ID (anchor node id) -> set of members
    leaders: dict          # AC-ID -> node id used as aggregation root
    epsilon: Fraction
    eta: Fraction
    skipped: bool = False  # small-Delta instances route everything to sparse
    f_edges: list = field(default_factory=list)  # detected similar-pair edges

    _home: dict | None = field(default=None, init=False, repr=False, compare=False)

    def clique_of(self, v: int):
        """AC-ID of the first almost-clique holding v, None for sparse nodes.
        The node -> clique map is built on the first call, so `cliques` must
        not change after it."""
        if self._home is None:
            self._home = {}
            for ac, members in self.cliques.items():
                for u in members:
                    self._home.setdefault(u, ac)
        return self._home.get(v)


def compute_acd(network: Network, delta: float | None = None) -> AlmostCliqueDecomposition:
    """Build the decomposition in a constant number of simulated rounds.

    delta is the detection slack parameter; epsilon = 27*delta and
    eta = epsilon/108 are derived from it. For Delta < 16 the square-root
    thresholds degenerate, so the whole graph goes to the sparse set (the
    small-degree pipeline branch handles that regime anyway).
    """
    g = network.graph
    cfg = network.config
    if delta is None:
        delta = cfg.delta_acd
    if not 0.0 < delta < 1.0 / 80.0:
        raise SimError(f"acd delta {delta} outside (0, 1/80)")
    eps = Fraction(delta).limit_denominator(10**9) * 27
    eta = eps / 108
    big_d = g.delta
    if big_d < 2:
        raise SimError("acd needs Delta >= 2")
    if cfg.mode == "theory":
        floor = cfg.c_theory * math.log2(max(2, g.n)) ** 2
        if big_d < floor:
            raise SimError(
                f"theory mode requires Delta >= c*log^2 n = {floor:.1f}, got {big_d}"
            )
    if big_d < 16:
        network.log(-1, "acd", "skipped (Delta < 16)")
        return AlmostCliqueDecomposition(
            g, set(range(g.n)), {}, {}, eps, eta, skipped=True
        )

    sqrt_d = math.sqrt(big_d)
    n = g.n
    id_bits = network.id_bits

    # At desk-scale Delta the literal detection thresholds sit exactly at the
    # expected gossip counts and never separate (the analysis assumes
    # Delta >> log^2 n). Practical mode oversamples S, repeats the gossip, and
    # puts the thresholds at a fixed fraction of the expectation; theory mode
    # pins all three knobs so the computation below is the literal algorithm.
    if cfg.mode == "theory":
        s_mult, reps, margin = 1.0, 1, 1.0
    else:
        s_mult, reps, margin = cfg.acd_sample_mult, cfg.acd_gossip_reps, cfg.acd_margin
    p_s = min(1.0, s_mult / sqrt_d)
    exp_s_deg = big_d * p_s
    forward_p = min(1.0, exp_s_deg / (2.0 * sqrt_d))
    exp_count = reps * big_d * forward_p / exp_s_deg  # per friend edge

    # step 1: sample S
    in_s = np.fromiter(
        (network.rng(v).random() < p_s for v in range(n)), dtype=bool, count=n
    )
    # everyone learns which neighbors are sampled (one bit per edge); the
    # sampled neighbors of v are s_nbrs[s_ptr[v]:s_ptr[v + 1]], ascending
    s_edge = in_s[g.indices]
    s_nbrs = g.indices[s_edge]
    s_deg = np.bincount(g.edge_src[s_edge], minlength=n)
    s_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(s_deg, out=s_ptr[1:])
    network.charge_phase("acd_sample", 1, 2 * g.m, 1)

    # step 2: per repetition, every node with a sampled neighbor picks one
    # and forwards its ID to all sampled neighbors with probability
    # deg_S/(2 sqrt Delta). Draws stay scalar and per node, so each stream
    # sees one pick and one coin per repetition.
    senders = np.flatnonzero(s_deg)
    picks, coins = [], []
    for v, k in zip(senders.tolist(), s_deg[senders].tolist()):
        rng = network.rng(v)
        for _ in range(reps):
            picks.append(rng.integers(k))
            coins.append(rng.random())
    picks = np.array(picks, dtype=np.int64).reshape(-1, reps)
    coins = np.array(coins, dtype=np.float64).reshape(-1, reps)
    forwards = coins < np.minimum(1.0, s_deg[senders] / (2.0 * sqrt_d))[:, None]
    # sent[v, r]: the ID v forwarded in repetition r, -1 if it stayed silent
    sent = np.full((n, reps), -1, dtype=np.int64)
    sent[senders] = np.where(forwards, s_nbrs[s_ptr[senders][:, None] + picks], -1)
    gossip_msgs = int((forwards.sum(axis=1) * s_deg[senders]).sum())
    network.charge_phase("acd_gossip", reps, gossip_msgs, id_bits)

    # step 3: a sampled node detects the IDs it heard often enough
    sim_threshold = margin * (1.0 - 2.0 * delta) * exp_count
    detected = _frequent_pairs(g, sent, sim_threshold, receivers=in_s)

    # step 4: F-edges — either endpoint detected the other (one-bit notify)
    edge_keys = g.edge_src * n + g.indices  # ascending: CSR rows are sorted
    pos = np.minimum(np.searchsorted(edge_keys, detected), edge_keys.size - 1)
    notified = detected[edge_keys[pos] == detected]
    network.charge_phase("acd_fedges", 1, int(notified.size), 1)
    u, w = np.divmod(notified, n)
    f_u, f_w = np.divmod(_sorted_unique(np.minimum(u, w) * n + np.maximum(u, w)), n)
    f_edges = list(zip(f_u.tolist(), f_w.tolist()))
    f_src = np.concatenate([f_u, f_w])  # both directions of every F-edge
    f_dst = np.concatenate([f_w, f_u])

    # step 5: dense core of S
    dense_threshold = margin * (1.0 - 2.0 * delta) * exp_s_deg
    in_s_dense = in_s & (np.bincount(f_src, minlength=n) > dense_threshold)
    network.charge_phase("acd_sdense", 1, 2 * g.m, 1)  # S_dense bit exchange

    # step 6: each dense-core node broadcasts its min dense-core F-neighbor
    core = in_s_dense[f_src] & in_s_dense[f_dst]
    proposal = np.full(n, n, dtype=np.int64)
    np.minimum.at(proposal, f_src[core], f_dst[core])
    proposal[proposal == n] = -1
    bc_msgs = int(g.degrees[proposal >= 0].sum())
    network.charge_phase("acd_anchor", 1, bc_msgs, id_bits)

    # step 7: adoption by multiplicity
    adopt_threshold = margin * (1.0 - 11.0 * delta) * exp_s_deg
    won_v, won_anchor = np.divmod(_frequent_pairs(g, proposal, adopt_threshold), n)
    wins = np.bincount(won_v, minlength=n)
    multi = np.flatnonzero(wins > 1)
    if multi.size:
        v = int(multi[0])
        raise SimError(f"node {v} qualifies for {int(wins[v])} anchors")
    adopted = np.full(n, -1, dtype=np.int64)
    adopted[won_v] = won_anchor

    # step 8: exchange adopted IDs, then leader-driven pruning
    network.charge_phase("acd_adopt", 1, 2 * g.m, id_bits)
    joined = np.flatnonzero(adopted >= 0)
    anchors, first, group = np.unique(
        adopted[joined], return_index=True, return_inverse=True
    )
    # the anchor leads its group if it joined it, else the lowest member does
    lowest = joined[first]
    roots = np.where(adopted[anchors] == anchors, anchors, lowest)
    inside = adopted[g.edge_src] == adopted[g.indices]
    inside &= adopted[g.edge_src] >= 0
    internal = np.bincount(g.edge_src[inside], minlength=n)
    dist = _bfs_levels(internal, g.indices[inside], roots)
    reached = np.bincount(group[dist[joined] < 0], minlength=anchors.size) == 0
    depth = np.zeros(anchors.size, dtype=np.int64)
    np.maximum.at(depth, group, dist[joined])
    internal_min = np.full(anchors.size, n, dtype=np.int64)
    np.minimum.at(internal_min, group, internal[joined])
    # members grouped by group, ascending within each group
    grouped = joined[np.argsort(group, kind="stable")]
    sizes = np.bincount(group, minlength=anchors.size)
    ends = np.cumsum(sizes)
    starts = ends - sizes

    cliques = {}
    leaders = {}
    sparse = set(np.flatnonzero(adopted < 0).tolist())
    size_floor = (1.0 - delta) * big_d
    internal_floor = (1.0 - 27.0 * delta) * big_d
    max_depth = 0
    prune_msgs = 0
    # groups in order of their lowest member; each members set is filled in
    # ascending order and the cliques hold copies, as in the per-node
    # formulation (tests/acd_reference.py), so that every set iterates in the
    # same order for the stages whose draws follow it
    for i in np.argsort(lowest, kind="stable").tolist():
        members = set(grouped[starts[i]:ends[i]].tolist())
        if not reached[i]:
            sparse |= members  # fragmented group cannot host an aggregation tree
            continue
        max_depth = max(max_depth, int(depth[i]))
        prune_msgs += 3 * (len(members) - 1)
        if len(members) < size_floor or internal_min[i] < internal_floor:
            sparse |= members
        else:
            ac = int(anchors[i])
            cliques[ac] = set(members)
            leaders[ac] = int(roots[i])
    # count/min convergecast plus the keep-or-drop broadcast, run in parallel
    # across groups, so rounds are charged at the deepest tree
    network.charge_phase("acd_prune", 3 * max(1, max_depth), prune_msgs, id_bits)

    if network.trace is not None:
        network.log(-1, "acd", f"cliques={len(cliques)} sparse={len(sparse)}")
    return AlmostCliqueDecomposition(
        g, sparse, cliques, leaders, eps, eta, f_edges=f_edges
    )


def _frequent_pairs(g: Graph, values, threshold: float, receivers=None):
    """Sorted keys r*n + x of the (receiver r, value x) pairs that arrive at
    least `threshold` times, when every neighbor s of r delivers each entry
    x >= 0 of values[s] (a vector of length n, or an (n, reps) table).

    `receivers` (a boolean mask) limits who counts. Receivers are taken in
    blocks of about _PAIR_BUDGET / (Delta * reps) nodes, so at most about
    _PAIR_BUDGET pairs are sorted at once.
    """
    n = g.n
    values = values.reshape(n, -1)
    block = max(1, _PAIR_BUDGET // (g.delta * values.shape[1]))
    found = [np.empty(0, dtype=np.int64)]
    for lo in range(0, n, block):
        a, b = g.indptr[lo], g.indptr[min(n, lo + block)]
        recv, send = g.edge_src[a:b], g.indices[a:b]
        if receivers is not None:
            keep = receivers[recv]
            recv, send = recv[keep], send[keep]
        heard = values[send]
        keys = (recv[:, None] * n + heard)[heard >= 0]
        keys, counts = np.unique(keys, return_counts=True)
        found.append(keys[counts >= threshold])
    return np.concatenate(found)


def _sorted_unique(a):
    """`np.unique(a)` of a 1-D array, by a sort and an adjacent-difference
    mask: numpy 2.4 hashes a plain `np.unique` of integers, which is about
    60 times slower than the sort on a million random int64."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _bfs_levels(degree, nbrs, roots):
    """Hop distance of every node from its root, -1 where unreached, by one
    level-synchronous BFS from all roots at once over the CSR adjacency with
    row lengths `degree` and targets `nbrs`."""
    ptr = np.zeros(degree.size + 1, dtype=np.int64)
    np.cumsum(degree, out=ptr[1:])
    dist = np.full(degree.size, -1, dtype=np.int64)
    dist[roots] = 0
    frontier = roots
    level = 0
    while frontier.size:
        lens = degree[frontier]
        # edge slots of the frontier's rows, row after row
        offsets = np.repeat(ptr[frontier] - np.cumsum(lens) + lens, lens)
        reach = nbrs[offsets + np.arange(offsets.size)]
        frontier = _sorted_unique(reach[dist[reach] < 0])
        level += 1
        dist[frontier] = level
    return dist


# ---------------------------------------------------------------------------
# validation


@dataclass
class AcdReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str):
        self.violations.append(msg)


def verify_acd(graph: Graph, acd: AlmostCliqueDecomposition) -> AcdReport:
    """Brute-force audit: partition, size bounds, internal degrees, sparse-set
    purity, diameter <= 2, and external degree <= eps*Delta."""
    rep = AcdReport()
    big_d = graph.delta
    eps = float(acd.epsilon)
    eta = float(acd.eta)
    assigned = set(acd.v_sparse)
    for ac, members in acd.cliques.items():
        overlap = assigned & members
        if overlap:
            rep.add(f"clique {ac} overlaps earlier assignment: {sorted(overlap)[:5]}")
        assigned |= members
    if assigned != set(range(graph.n)):
        rep.add("sparse set and cliques do not partition the node set")
    for v in acd.v_sparse:
        if density_oracle(graph, v, eta):
            rep.add(f"eta-dense node {v} left in the sparse set")
    for ac, members in acd.cliques.items():
        size = len(members)
        if not (1 - eps) * big_d <= size <= (1 + eps) * big_d:
            rep.add(f"clique {ac} size {size} outside [(1-eps)D,(1+eps)D]")
        for v in members:
            internal = sum(1 for u in graph.neighbors(v) if u in members)
            if internal < (1 - eps) * big_d:
                rep.add(f"node {v} has only {internal} neighbors inside clique {ac}")
            ext = external_degree(acd, v)
            if ext > eps * big_d:
                rep.add(f"node {v} external degree {ext} exceeds eps*Delta")
        if _diameter_within(graph, members) > 2:
            rep.add(f"clique {ac} has diameter > 2")
    return rep


def _diameter_within(graph: Graph, members: set) -> int:
    best = 0
    for s in members:
        dist = graph.bfs(s, members)
        if len(dist) != len(members):
            return graph.n  # disconnected: effectively infinite
        best = max(best, max(dist.values()))
    return best


def external_degree(acd: AlmostCliqueDecomposition, v: int) -> int:
    """Neighbors of v living in other almost-cliques."""
    home = acd.clique_of(v)
    if home is None:
        raise SimError(f"external_degree: node {v} is in the sparse set")
    return sum(1 for u in acd.graph.neighbors(v)
               if acd.clique_of(u) not in (None, home))
