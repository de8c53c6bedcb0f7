"""Constant-round almost-clique decomposition and its brute-force auditor.

The distributed construction partitions the nodes into a sparse set plus
"almost-cliques": groups of size about Delta in which every member has at
least (1-eps)*Delta internal neighbors. It works by sampling a small set S,
gossiping sampled IDs so nodes can detect approximately-similar neighborhoods
without ever shipping a neighborhood across an edge, and then agreeing on a
minimum-ID anchor per group. All decisions use one ID (or one bit) per edge
per round.

The simulator runs the construction as array passes over the CSR arrays
(`indptr`, `indices`, and a block's tails from `Graph.tails`) in the row
blocks of `Graph.blocks`, so that no pass holds more than one block's edge
temporaries beside arrays of one entry per node: a block's sampled
neighbors are found in its own rows, its gossip multiplicities counted by
one sort of its (receiver, ID) keys, whose runs give the keys heard often
enough, and its F-edges looked up in its own rows' edge keys; the groups'
connectivity, depth and internal degrees come from one multi-source BFS
that expands each level's frontier a block at a time. Node streams are
drawn in a fixed per-node order: one draw for S-membership, then one pick
and one forwarding coin per gossip repetition, so the result does not
depend on how the passes are arranged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import Graph, density_oracle, sorted_unique
from .sim import Network, SimError

# detection slack delta: epsilon = 27 * delta and eta = epsilon / 108
DELTA_ACD = 1.0 / 81.0
# the analysis requires Delta >= C_THEORY * log^2 n (`acd_delta_floor`)
C_THEORY = 1.0
# practical-mode calibration; theory mode pins all three to 1.0 / 1 / 1.0
SAMPLE_MULT = 4.0     # sampling probability min(1, SAMPLE_MULT / sqrt(Delta))
GOSSIP_REPS = 8       # gossip repetitions, whose counts accumulate
MARGIN = 0.5          # detection thresholds at MARGIN times the expectation


@dataclass
class AlmostCliqueDecomposition:
    graph: Graph
    v_sparse: set
    cliques: dict          # AC-ID (anchor node id) -> set of members
    leaders: dict          # AC-ID -> node id used as aggregation root
    epsilon: Fraction
    eta: Fraction
    skipped: bool = False  # small-Delta instances route everything to sparse
    # detected similar-pair edges, one (u, w) row each with u < w, ascending
    f_edges: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64))

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


def compute_acd(network: Network) -> AlmostCliqueDecomposition:
    """Build the decomposition in a constant number of simulated rounds.

    The detection slack is delta = DELTA_ACD; epsilon = 27*delta and
    eta = epsilon/108 are derived from it. For Delta < 16 the square-root
    thresholds degenerate, so the whole graph goes to the sparse set (the
    small-degree pipeline branch handles that regime anyway).
    """
    g = network.graph
    delta = DELTA_ACD
    eps = Fraction(delta).limit_denominator(10**9) * 27
    eta = eps / 108
    big_d = g.delta
    if big_d < 2:
        raise SimError("acd needs Delta >= 2")
    floor = C_THEORY * math.log2(max(2, g.n)) ** 2
    network.require("acd_delta_floor", big_d >= floor,
                    f"theory mode requires Delta >= c*log^2 n = {floor:.1f}, got {big_d}")
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
    # pins all three so the computation below is the literal algorithm.
    if network.config.mode == "theory":
        s_mult, reps, margin = 1.0, 1, 1.0
    else:
        s_mult, reps, margin = SAMPLE_MULT, GOSSIP_REPS, MARGIN
    p_s = min(1.0, s_mult / sqrt_d)
    exp_s_deg = big_d * p_s
    forward_p = min(1.0, exp_s_deg / (2.0 * sqrt_d))
    exp_count = reps * big_d * forward_p / exp_s_deg  # per friend edge

    # step 1: sample S; everyone learns which neighbors are sampled (one bit
    # per edge), a row block at a time
    in_s = network.streams.random(np.arange(n)) < p_s
    blocks = list(g.blocks(np.arange(n)))
    s_deg = np.zeros(n, dtype=np.int64)
    for s in blocks:
        sampled = in_s[g.indices[g.indptr[s.start]:g.indptr[s.stop]]]
        s_deg[s] = np.bincount(g.tails(s)[sampled] - s.start, minlength=s.stop - s.start)
    network.charge_phase("acd_sample", 1, 2 * g.m, 1)

    # step 2: per repetition, every node with a sampled neighbor picks one
    # and forwards its ID to all sampled neighbors with probability
    # deg_S/(2 sqrt Delta). Each stream sees one pick and one coin per
    # repetition, in that order.
    senders = np.flatnonzero(s_deg)
    picks = np.empty((senders.size, reps), dtype=np.int64)
    coins = np.empty((senders.size, reps))
    for r in range(reps):
        picks[:, r] = network.streams.integers(senders, s_deg[senders])
        coins[:, r] = network.streams.random(senders)
    forwards = coins < np.minimum(1.0, s_deg[senders] / (2.0 * sqrt_d))[:, None]
    gossip_msgs = int((forwards.sum(axis=1) * s_deg[senders]).sum())
    # sent[v, r]: the ID v forwarded in repetition r, -1 if it stayed silent;
    # a pick indexes v's sampled neighbors, ascending, found in v's block
    sent = np.full((n, reps), -1, dtype=np.int64)
    s_ptr = np.cumsum(s_deg) - s_deg
    for s in blocks:
        nbrs = g.indices[g.indptr[s.start]:g.indptr[s.stop]]
        i, j = np.searchsorted(senders, (s.start, s.stop))
        at = s_ptr[senders[i:j], None] - s_ptr[s.start] + picks[i:j]
        sent[senders[i:j]] = np.where(forwards[i:j], nbrs[in_s[nbrs]][at], -1)
    del picks, coins, forwards
    network.charge_phase("acd_gossip", reps, gossip_msgs, id_bits)

    # step 3: a sampled node detects the IDs it heard often enough; step 4:
    # F-edges, where either endpoint detected the other (one-bit notify)
    sim_threshold = margin * (1.0 - 2.0 * delta) * exp_count
    notified = _frequent_pairs(g, sent, sim_threshold, receivers=in_s, adjacent=True)
    network.charge_phase("acd_fedges", 1, int(notified.size), 1)
    u, w = np.divmod(notified, n)
    f_u, f_w = np.divmod(sorted_unique(np.minimum(u, w) * n + np.maximum(u, w)), n)
    del notified, u, w
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
    del f_src, f_dst, core
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
    dist, internal = _bfs_levels(g, adopted, roots)
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
        g, sparse, cliques, leaders, eps, eta, f_edges=np.column_stack([f_u, f_w])
    )


def _frequent_pairs(g: Graph, values, threshold: float, receivers=None,
                    adjacent=False):
    """Sorted keys r*n + x of the (receiver r, value x) pairs that arrive at
    least `threshold` times, when every neighbor s of r delivers each entry
    x >= 0 of values[s] (a vector of length n, or an (n, reps) table).

    `receivers` (a boolean mask) limits who counts, and `adjacent` keeps only
    the pairs whose value is a neighbor of the receiver. The receivers are
    taken in the blocks of `Graph.blocks`, whose keys, counted from the
    block's first receiver (uint32 when they fit), are sorted in place: a key
    heard t = ceil(threshold) >= 1 times equals the key t - 1 places on. The
    hits are looked up in the block's own rows' edge keys.
    """
    n = g.n
    values = values.reshape(n, -1)
    t = max(1, math.ceil(threshold))
    found = [np.empty(0, dtype=np.int64)]
    for s in g.blocks(np.arange(n)):
        a, b = g.indptr[s.start], g.indptr[s.stop]
        recv, send = g.tails(s), g.indices[a:b]
        if receivers is not None:
            keep = receivers[recv]
            recv, send = recv[keep], send[keep]
        heard = values[send]
        key = np.uint32 if (s.stop - s.start) * n <= 1 << 32 else np.int64
        keys = ((recv - s.start).astype(key)[:, None] * key(n) + heard.astype(key))[heard >= 0]
        keys.sort()
        k = max(keys.size - t + 1, 0)
        hits = keys[:k][keys[:k] == keys[t - 1:t - 1 + k]]
        fresh = np.ones(hits.size, dtype=bool)
        fresh[1:] = hits[1:] != hits[:-1]
        keys = hits[fresh].astype(np.int64) + s.start * n
        if adjacent:        # the edge keys ascend: CSR rows are sorted
            edges = recv * n + send
            pos = np.minimum(np.searchsorted(edges, keys), edges.size - 1)
            keys = keys[edges[pos] == keys]
        found.append(keys)
    return np.concatenate(found)


def _bfs_levels(g: Graph, group, roots):
    """Hop distance of every node from its root, -1 where unreached, and the
    neighbors in its own group of every reached node, 0 elsewhere, by one
    level-synchronous BFS from all roots at once along the edges whose ends
    share a group (`group[v]`, -1 outside every group). Each level expands
    the frontier's rows block by block (`Graph.blocks`), and a node joins
    the level in the first block that reaches it."""
    dist = np.full(g.n, -1, dtype=np.int64)
    internal = np.zeros(g.n, dtype=np.int64)
    dist[roots] = 0
    frontier, level = roots, 0
    while frontier.size:
        level += 1
        reached = [np.empty(0, dtype=np.int64)]
        for s in g.blocks(frontier):
            at, nbrs = g.rows(frontier[s])
            inside = group[nbrs] == group[frontier[s]][at]
            internal[frontier[s]] = np.bincount(at[inside], minlength=s.stop - s.start)
            reached.append(sorted_unique(nbrs[inside & (dist[nbrs] < 0)]))
            dist[reached[-1]] = level
        frontier = np.concatenate(reached)
    return dist, internal


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
