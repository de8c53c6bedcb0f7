"""Relay overlays for almost-cliques, plus a measured-round routing scheduler.

An almost-clique has diameter 2, so every non-adjacent pair inside it can talk
through a common neighbor. The overlay assigns one relay per non-edge so that
no graph edge sits on more than two relay paths; with that bound, all-to-all
communication inside the clique costs only a constant factor over a true
clique. The construction treats non-edges as vertices of a conflict graph and
relays as colors: pairs sharing an endpoint must use distinct relays, which is
exactly what caps the per-edge congestion at 2.

`compute_overlay` works on one clique at a time. The sorted members get local
indices, and an s x s boolean adjacency block is filled from their CSR rows.
The block gives the clique's edge count, its non-edges in row-major (u, v)
order, the common-neighbor check (row ANDs) and whether a proposed relay is
adjacent to both ends of a pair. Each non-edge is handled by its higher
endpoint. A pair's apparent palette is its handler's block row minus the
pair's row of a pruned mask, which permanent rejections mark. Every round's
proposals are adjudicated in one array pass over (pair, relay) entries.

The node streams see a fixed sequence of draws. In each capped round, every
pending pair makes one `integers` draw on its handler's stream, a handler's
pairs in non-edge order: the round is one `Streams.integers` call over the
pending pairs' handlers, in non-edge order. Each finishing round is one
`Streams.permutations` call over the pending pairs' handlers, in non-edge
order: a pair's candidates are the first entries of a permutation of its
apparent palette.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .sim import Network, SimError

# bytes of the row-AND temporary in the common-neighbor check
_AND_BUDGET = 1 << 24
# the paired rounds stop after ROUND_MULT * ceil(log2 log2 n) rounds
ROUND_MULT = 2
# `route` needs no node to carry more than LOAD_CAP * Delta units (`route_load_cap`)
LOAD_CAP = 4


@dataclass
class CliqueOverlay:
    clique: int                      # AC-ID
    members: frozenset
    relays: dict                     # frozenset({u,v}) -> relay node w


@dataclass
class OverlayReport:
    violations: list = field(default_factory=list)
    max_congestion: int = 0          # most relay paths on one graph edge

    @property
    def ok(self) -> bool:
        return not self.violations


def _adjacency_block(graph, ms):
    """Boolean adjacency among the sorted members `ms` (an int64 array):
    entry [i, j] says whether ms[i] and ms[j] are adjacent. Filled from the
    members' CSR rows, whose entries outside the clique are dropped."""
    s = len(ms)
    local = np.full(graph.n, -1)
    local[ms] = np.arange(s)
    rows, nbrs = graph.rows(ms)
    cols = local[nbrs]
    block = np.zeros(s * s, dtype=bool)
    block[(rows * s + cols)[cols >= 0]] = True
    return block.reshape(s, s)


def compute_overlay(network: Network, clique, leader: int,
                    ac_id: int | None = None, epsilon: float = 1.0 / 3.0) -> CliqueOverlay:
    """Assign a relay to every non-edge of the clique.

    Runs paired simulated rounds: each non-edge's higher-ID endpoint proposes
    a candidate relay; a relay grants at most one proposal per round, refuses
    pairs that share an endpoint with one it already serves (which is what
    makes the relay assignment a proper conflict-graph coloring), and answers
    hopeless proposals with a permanent rejection so proposers stop retrying
    them. Leftover pairs after the round cap go through parallel-candidate
    finishing rounds; a pair still unserved after that is a hard failure.
    """
    g = network.graph
    members = frozenset(clique)
    if leader not in members:
        raise SimError("overlay leader must belong to the clique")
    if ac_id is None:
        ac_id = leader
    if not network.require("overlay_epsilon", epsilon <= 1.0 / 15.0,
                           f"overlay requires epsilon <= 1/15 in theory mode, got {epsilon}"):
        network.log(leader, "overlay_warn",
                    f"epsilon {epsilon:.4f} above 1/15; slack margin not guaranteed")

    # leader-rooted renumbering so members know |C| and all member IDs, after
    # which one neighbor-exchange round reveals each node's non-neighbors
    network.tree_aggregate(members, leader, phase="overlay_setup")
    ms = np.array(sorted(members), dtype=np.int64)
    s = len(ms)
    block = _adjacency_block(g, ms)
    m_int = int(block.sum()) // 2
    network.charge_phase("overlay_setup", 1, 2 * m_int, network.id_bits)

    # pair p is the non-edge (ms[pu[p]], ms[pv[p]]), pu < pv, in row-major
    # order; its handler is pv[p], the higher endpoint
    pu, pv = np.nonzero(np.triu(~block, 1))
    step = max(1, _AND_BUDGET // s)
    for a in range(0, len(pu), step):
        has_common = (block[pu[a:a + step]] & block[pv[a:a + step]]).any(axis=1)
        if not has_common.all():
            i = a + int(np.argmin(has_common))
            raise SimError(
                f"non-edge ({ms[pu[i]]},{ms[pv[i]]}) has no common neighbor in clique"
            )

    grant_bits = 2 * network.id_bits + 1
    if grant_bits > network.bandwidth_bits:
        raise SimError("overlay grant message exceeds bandwidth")

    # the handler only knows its own adjacencies, so a pair's apparent
    # palette starts as the handler's block row (row h of the CSR nbr_ptr,
    # nbr_col) and loses the relays that reject it permanently: pruned[p, w],
    # with `touched` marking the pairs that lost any
    nbr_col = np.nonzero(block)[1]
    nbr_ptr = np.zeros(s + 1, dtype=np.int64)
    np.cumsum(block.sum(axis=1), out=nbr_ptr[1:])
    pruned = np.zeros((len(pu), s), dtype=bool)
    touched = np.zeros(len(pu), dtype=bool)
    served = np.zeros((s, s), dtype=bool)    # [w, x]: w relays a pair with end x
    relays = {}
    degrees = g.degrees[ms]
    ids = ms.tolist()

    def relay_round(props, cands):
        """One paired round: pair props[i] asks relay cands[i] (local
        indices), each (pair, relay) at most once. Returns the granted pairs."""
        u, v = pu[props], pv[props]
        reject = ~(block[cands, u] & block[cands, v]) | served[cands, u] | served[cands, v]
        pruned[props[reject], cands[reject]] = True
        touched[props[reject]] = True
        # a relay serves at most one new pair per round, its first usable one
        # in (u, v) order; contenders keep the color and retry later
        ok = ~reject
        order = np.lexsort((props[ok], cands[ok]))
        gw, first = np.unique(cands[ok][order], return_index=True)
        gp = props[ok][order][first]
        # grant broadcasts, then one accept/release notice per grant
        messages = len(props) + int(degrees[gw].sum()) + len(gw)
        # the handler keeps the lowest grant and releases the rest; `relays`
        # takes the granted pairs by ascending relay
        keep = np.sort(np.unique(gp, return_index=True)[1])
        gp, gw = gp[keep], gw[keep]
        served[gw, pu[gp]] = True
        served[gw, pv[gp]] = True
        for a, b, w in zip(ms[pu[gp]].tolist(), ms[pv[gp]].tolist(), ms[gw].tolist()):
            relays[frozenset((a, b))] = w
        network.charge_phase("overlay_pair", 2, messages, grant_bits)
        return gp

    def exhausted(p):
        return SimError(f"overlay: pair {(ids[pu[p]], ids[pv[p]])} ran out of candidate relays")

    pending = np.arange(len(pu))
    cap = ROUND_MULT * max(
        1, math.ceil(math.log2(max(2.0, math.log2(max(4, g.n)))))
    )
    for _ in range(cap):
        if not pending.size:
            break
        h = pv[pending]
        sizes = nbr_ptr[h + 1] - nbr_ptr[h]
        t = np.flatnonzero(touched[pending])
        apparent = block[h[t]] & ~pruned[pending[t]]
        sizes[t] = apparent.sum(axis=1)
        empty = np.flatnonzero(sizes == 0)
        stop = empty[0] if empty.size else len(pending)
        # one call: each handler draws for its pending pairs in non-edge order
        draws = network.streams.integers(ms[h[:stop]], sizes[:stop])
        if stop < len(pending):
            raise exhausted(pending[stop])
        w = nbr_col[nbr_ptr[h] + draws]
        w[t] = np.argmax(np.cumsum(apparent, axis=1) > draws[t, None], axis=1)
        # duplicate candidates within one handler are dropped (not colored
        # this round), mirroring the one-message-per-edge constraint
        kept = np.sort(np.unique(h * s + w, return_index=True)[1])
        pending = np.setdiff1d(pending, relay_round(pending[kept], w[kept]),
                               assume_unique=True)

    # finishing: parallel candidates per remaining pair, the first k entries
    # of a permutation of its apparent palette
    k = math.ceil(3 * math.log2(max(2, g.n)))
    for _ in range(8):
        if not pending.size:
            break
        h = pv[pending]
        apparent = block[h] & ~pruned[pending]
        sizes = apparent.sum(axis=1)
        empty = np.flatnonzero(sizes == 0)
        stop = empty[0] if empty.size else len(pending)
        if network.trace is not None:
            for i in np.flatnonzero(sizes[:stop] < k).tolist():
                network.log(ids[h[i]], "multi_trial_clamp", f"{k}->{sizes[i]}")
        perms = network.streams.permutations(ms[h[:stop]], sizes[:stop])
        if stop < len(pending):
            raise exhausted(pending[stop])
        props = np.repeat(pending, np.minimum(sizes, k))
        cands = np.concatenate([np.flatnonzero(row)[perm[:k]]
                                for row, perm in zip(apparent, perms)])
        # a handler proposes each relay for at most one of its pairs
        kept = np.sort(np.unique(pv[props] * s + cands, return_index=True)[1])
        granted = relay_round(props[kept], cands[kept])
        pending = np.setdiff1d(pending, granted, assume_unique=True)
    if pending.size:
        raise SimError(
            f"overlay construction failed for {len(pending)} non-edges "
            f"in clique {ac_id}"
        )
    return CliqueOverlay(ac_id, members, relays)


def verify_overlay(graph, overlay: CliqueOverlay) -> OverlayReport:
    """Independent audit from the graph and the relay map alone: full
    non-edge coverage, relay adjacency, and the per-edge congestion bound.
    The report also records the largest per-edge congestion."""
    rep = OverlayReport()
    ms = np.array(sorted(overlay.members), dtype=np.int64)
    s = len(ms)
    block = _adjacency_block(graph, ms)
    relays = overlay.relays
    ends = np.array([(*sorted(pair), w) for pair, w in relays.items()],
                    dtype=np.int64).reshape(-1, 3)
    loc = np.minimum(np.searchsorted(ms, ends), s - 1)
    inside = ms[loc] == ends
    lu, lv, lw = loc.T
    iu, iv = np.nonzero(np.triu(~block, 1))
    pair_in = inside[:, 0] & inside[:, 1]
    relayed = np.zeros((s, s), dtype=bool)
    relayed[lu[pair_in], lv[pair_in]] = True
    covered = relayed[iu, iv]
    for u, v in zip(ms[iu[~covered]].tolist(), ms[iv[~covered]].tolist()):
        rep.violations.append(f"non-edge ({u},{v}) has no relay")
    # a triple with a node outside the clique is looked up in the graph itself
    triple_in = inside.all(axis=1)
    via = np.zeros(len(ends), dtype=bool)
    via[triple_in] = block[lu, lw][triple_in] & block[lv, lw][triple_in]
    for i in np.flatnonzero(~triple_in):
        u, v, w = ends[i].tolist()
        via[i] = graph.has_edge(u, w) and graph.has_edge(v, w)
    for i in np.flatnonzero(~inside[:, 2] | ~via):
        u, v, w = ends[i].tolist()
        if not inside[i, 2]:
            rep.violations.append(f"relay {w} for ({u},{v}) outside the clique")
        if not via[i]:
            rep.violations.append(f"relay {w} not adjacent to both of ({u},{v})")
    # every relay path uses the edges (u, w) and (v, w)
    x, w = ends[:, :2].ravel(), np.repeat(ends[:, 2], 2)
    nodes = np.unique(ends)
    lo = np.searchsorted(nodes, np.minimum(x, w))
    hi = np.searchsorted(nodes, np.maximum(x, w))
    counts = np.bincount(lo * len(nodes) + hi)
    rep.max_congestion = int(counts.max(initial=0))
    for e in np.flatnonzero(counts > 2).tolist():
        a, b = nodes[list(divmod(e, len(nodes)))].tolist()
        rep.violations.append(f"edge {(a, b)} lies on {counts[e]} relay paths")
    return rep


@dataclass
class RoutingRequest:
    src: int
    dst: int
    size: int = 1     # payload length in color-widths


def route(network: Network, overlay: CliqueOverlay, requests) -> int:
    """Deliver the requests over direct edges and relay paths, greedily
    packing each edge up to the bit budget per round; returns rounds used.
    A node carrying more than LOAD_CAP * Delta payload units fails the
    `route_load_cap` precondition (logged as `route_over_cap`)."""
    g = network.graph
    cap = LOAD_CAP * g.delta
    load = defaultdict(int)
    for r in requests:
        if r.src not in overlay.members or r.dst not in overlay.members:
            raise SimError(f"routing request ({r.src},{r.dst}) leaves the clique")
        load[r.src] += r.size
        load[r.dst] += r.size
    over = [(v, l) for v, l in load.items() if l > cap]
    detail = (f"node {over[0][0]} carries {over[0][1]} payload units, "
              f"above the cap {cap}" if over else "")
    if not network.require("route_load_cap", not over, detail):
        for v, l in over:
            network.log(v, "route_over_cap", f"{l}>{cap}")
    if not requests:
        return 0

    units_per_round = max(1, network.bandwidth_bits // network.color_bits)
    # expand each request into unit messages along its 1- or 2-edge path
    hops = []   # per unit: list of directed edges left to traverse
    for r in requests:
        if g.has_edge(r.src, r.dst):
            path = [(r.src, r.dst)]
        else:
            w = overlay.relays.get(frozenset((r.src, r.dst)))
            if w is None:
                raise SimError(f"no relay for non-adjacent pair ({r.src},{r.dst})")
            path = [(r.src, w), (w, r.dst)]
        hops.extend(list(path) for _ in range(r.size))

    rounds = 0
    messages = 0
    while any(hops):
        rounds += 1
        edge_used = defaultdict(int)
        for path in hops:
            if not path:
                continue
            e = path[0]
            if edge_used[e] < units_per_round:
                edge_used[e] += 1
                path.pop(0)
                messages += 1
        if rounds > 10_000:
            raise SimError("routing scheduler failed to make progress")
    # a unit wider than the budget crosses its edge over several rounds
    rounds *= network.chunks(units_per_round * network.color_bits)
    network.charge_phase(
        "route", rounds, messages,
        min(units_per_round * network.color_bits, network.bandwidth_bits),
    )
    return rounds
