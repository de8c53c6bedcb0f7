"""Reference almost-clique decomposition: the per-node loop formulation.

`congestcolor.acd.compute_acd` computes the same decomposition with array
passes over the graph's CSR arrays. This module keeps the direct
transcription of the construction (sample S, gossip sampled IDs, detect
similar pairs, agree on anchors, prune groups) as the differential oracle
the array version is checked against: same result, same booked phases, and
the same draws from every node's random stream.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

from congestcolor import acd
from congestcolor.acd import AlmostCliqueDecomposition
from congestcolor.graphs import Graph
from congestcolor.sim import Network, SimError
from stream_checkout import generators


def compute_acd_reference(network: Network) -> AlmostCliqueDecomposition:
    """Build the decomposition in a constant number of simulated rounds.

    The detection slack is delta = acd.DELTA_ACD; epsilon = 27*delta and
    eta = epsilon/108 are derived from it. For Delta < 16 the square-root
    thresholds degenerate, so the whole graph goes to the sparse set (the
    small-degree pipeline branch handles that regime anyway).
    """
    g = network.graph
    cfg = network.config
    delta = acd.DELTA_ACD
    eps = Fraction(delta).limit_denominator(10**9) * 27
    eta = eps / 108
    big_d = g.delta
    if big_d < 2:
        raise SimError("acd needs Delta >= 2")
    if cfg.mode == "theory":
        floor = acd.C_THEORY * math.log2(max(2, g.n)) ** 2
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

    # At desk-scale Delta the literal detection thresholds sit exactly at the
    # expected gossip counts and never separate (the analysis assumes
    # Delta >> log^2 n). Practical mode oversamples S, repeats the gossip, and
    # puts the thresholds at a fixed fraction of the expectation; theory mode
    # pins all three so the computation below is the literal algorithm.
    if cfg.mode == "theory":
        s_mult, reps, margin = 1.0, 1, 1.0
    else:
        s_mult, reps, margin = acd.SAMPLE_MULT, acd.GOSSIP_REPS, acd.MARGIN
    p_s = min(1.0, s_mult / sqrt_d)
    exp_s_deg = big_d * p_s
    forward_p = min(1.0, exp_s_deg / (2.0 * sqrt_d))
    exp_count = reps * big_d * forward_p / exp_s_deg  # per friend edge

    with generators(network.streams, range(n)) as rngs:
        # step 1: sample S
        in_s = [rngs[v].random() < p_s for v in range(n)]
        # everyone learns which neighbors are sampled (one bit per edge)
        s_nbrs = [[u for u in g.neighbors(v) if in_s[u]] for v in range(n)]
        network.charge_phase("acd_sample", 1, 2 * g.m, 1)

        # step 2: gossip one sampled-neighbor ID to sampled neighbors
        counts: list = [Counter() for _ in range(n)]
        gossip_msgs = 0
        for _ in range(reps):
            for v in range(n):
                sn = s_nbrs[v]
                if not sn:
                    continue
                rng = rngs[v]
                pick = sn[int(rng.integers(len(sn)))]
                if rng.random() < min(1.0, len(sn) / (2.0 * sqrt_d)):
                    for u in sn:
                        counts[u][pick] += 1
                        gossip_msgs += 1
    network.charge_phase(
        "acd_gossip", reps, gossip_msgs,
        min(network.id_bits, network.bandwidth_bits),
    )

    # step 3: similarity detection from gossip multiplicities
    sim_threshold = margin * (1.0 - 2.0 * delta) * exp_count
    detects = [
        {w for w, c in counts[u].items() if c >= sim_threshold} if in_s[u] else set()
        for u in range(n)
    ]

    # step 4: F-edges — either endpoint detected the other (one-bit notify)
    f_nbrs = [set() for _ in range(n)]
    notify_msgs = 0
    for u in range(n):
        for w in detects[u]:
            if g.has_edge(u, w):
                f_nbrs[u].add(w)
                f_nbrs[w].add(u)
                notify_msgs += 1
    network.charge_phase("acd_fedges", 1, notify_msgs, 1)
    f_edges = np.array(sorted(
        (u, w) for u in range(n) for w in f_nbrs[u] if u < w
    ), dtype=np.int64).reshape(-1, 2)

    # step 5: dense core of S
    dense_threshold = margin * (1.0 - 2.0 * delta) * exp_s_deg
    in_s_dense = [
        in_s[u] and len(f_nbrs[u]) > dense_threshold for u in range(n)
    ]
    network.charge_phase("acd_sdense", 1, 2 * g.m, 1)  # S_dense bit exchange

    # step 6: each dense-core node broadcasts its min dense-core F-neighbor
    proposals = {}
    for u in range(n):
        if in_s_dense[u]:
            cand = [w for w in f_nbrs[u] if in_s_dense[w]]
            if cand:
                proposals[u] = min(cand)
    bc_msgs = sum(g.degree(u) for u in proposals)
    network.charge_phase(
        "acd_anchor", 1, bc_msgs, min(network.id_bits, network.bandwidth_bits)
    )

    # step 7: adoption by multiplicity
    adopt_threshold = margin * (1.0 - 11.0 * delta) * exp_s_deg
    adopted: list = [None] * n
    for v in range(n):
        recv = Counter()
        for u in g.neighbors(v):
            if u in proposals:
                recv[proposals[u]] += 1
        winners = [a for a, c in recv.items() if c >= adopt_threshold]
        if len(winners) > 1:
            raise SimError(f"node {v} qualifies for {len(winners)} anchors")
        if winners:
            adopted[v] = winners[0]

    # step 8: exchange adopted IDs, then leader-driven pruning
    network.charge_phase(
        "acd_adopt", 1, 2 * g.m, min(network.id_bits, network.bandwidth_bits)
    )
    groups = defaultdict(set)
    for v in range(n):
        if adopted[v] is not None:
            groups[adopted[v]].add(v)

    cliques = {}
    leaders = {}
    sparse = {v for v in range(n) if adopted[v] is None}
    size_floor = (1.0 - delta) * big_d
    internal_floor = (1.0 - 27.0 * delta) * big_d
    max_depth = 0
    prune_msgs = 0
    id_bits = min(network.id_bits, network.bandwidth_bits)
    for ac, members in groups.items():
        leader = ac if ac in members else min(members)
        reached, depth = _bfs_depth(g, members, leader)
        if reached != members:
            sparse |= members  # fragmented group cannot host an aggregation tree
            continue
        max_depth = max(max_depth, depth)
        prune_msgs += 3 * (len(members) - 1)
        internal_min = min(
            sum(1 for u in g.neighbors(v) if adopted[u] == ac) for v in members
        )
        if len(members) < size_floor or internal_min < internal_floor:
            sparse |= members
        else:
            cliques[ac] = set(members)
            leaders[ac] = leader
    # count/min convergecast plus the keep-or-drop broadcast, run in parallel
    # across groups, so rounds are charged at the deepest tree
    network.charge_phase("acd_prune", 3 * max(1, max_depth), prune_msgs, id_bits)

    network.log(-1, "acd", f"cliques={len(cliques)} sparse={len(sparse)}")
    return AlmostCliqueDecomposition(
        g, sparse, cliques, leaders, eps, eta, f_edges=f_edges
    )


def _bfs_depth(g: Graph, members: set, root: int):
    seen = {root}
    frontier = [root]
    depth = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in members and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if nxt:
            depth += 1
        frontier = nxt
    return seen, depth
