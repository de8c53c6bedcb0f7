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
endpoint. A handler's pairs share one sorted list of its clique neighbors as
their apparent palette; a pair copies the list on its first permanent
rejection. The node streams see a fixed sequence of draws: in each
capped round, one `integers` call per pending pair from its handler's stream,
in non-edge order; in each finishing round, one `permutation` call per
pending pair (`multi_trial` on the same sorted palette).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .sim import Network, SimError
from .trials import multi_trial

# bytes of the row-AND temporary in the common-neighbor check
_AND_BUDGET = 1 << 24


@dataclass
class CliqueOverlay:
    clique: int                      # AC-ID
    members: frozenset
    relays: dict                     # frozenset({u,v}) -> relay node w
    edge_congestion: dict            # (min,max) graph edge -> path count
    construction_rounds: int = 0


@dataclass
class OverlayReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _member_adjacency(graph, ms):
    """The local index of every node (-1 outside the sorted members `ms`)
    and the s x s adjacency among the members, marked from their CSR rows."""
    local = np.full(graph.n, -1)
    local[ms] = np.arange(len(ms))
    at, j = graph.rows(ms)
    j = local[j]
    marked = np.zeros((len(ms), len(ms)), dtype=bool)
    marked[at[j >= 0], j[j >= 0]] = True
    return local, marked


def _adjacency_block(graph, ms):
    """Boolean adjacency among the sorted members `ms` (an int64 array):
    entry [i, j] says whether ms[i] and ms[j] are adjacent. Filled from the
    members' CSR rows, whose entries outside the clique are dropped."""
    s = len(ms)
    rows, nbrs = graph.rows(ms)
    cols = np.minimum(np.searchsorted(ms, nbrs), s - 1)
    inside = ms[cols] == nbrs
    block = np.zeros((s, s), dtype=bool)
    block[rows[inside], cols[inside]] = True
    return block


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
    cfg = network.config
    members = frozenset(clique)
    if leader not in members:
        raise SimError("overlay leader must belong to the clique")
    if ac_id is None:
        ac_id = leader
    if epsilon > 1.0 / 15.0:
        if cfg.mode == "theory":
            raise SimError(
                f"overlay requires epsilon <= 1/15 in theory mode, got {epsilon}"
            )
        if network.trace is not None:
            network.log(leader, "overlay_warn",
                        f"epsilon {epsilon:.4f} above 1/15; slack margin not guaranteed")

    rounds_before = network.round_counter
    # leader-rooted renumbering so members know |C| and all member IDs, after
    # which one neighbor-exchange round reveals each node's non-neighbors
    network.tree_aggregate(members, leader, "sum",
                           {v: 1 for v in members}, phase="overlay_setup")
    network.tree_aggregate(members, leader, "broadcast",
                           {leader: len(members)}, phase="overlay_setup")
    ms = np.array(sorted(members), dtype=np.int64)
    block = _adjacency_block(g, ms)
    m_int = int(block.sum()) // 2
    network.charge_phase("overlay_setup", 1, 2 * m_int, network.id_bits)

    # non-edges (ms[i], ms[j]) with i < j, in row-major order
    iu, iv = np.nonzero(np.triu(~block, 1))
    step = max(1, _AND_BUDGET // len(ms))
    for a in range(0, len(iu), step):
        has_common = (block[iu[a:a + step]] & block[iv[a:a + step]]).any(axis=1)
        if not has_common.all():
            i = a + int(np.argmin(has_common))
            raise SimError(
                f"non-edge ({ms[iu[i]]},{ms[iv[i]]}) has no common neighbor in clique"
            )

    # pair (u, v) -> apparent palette of its handler v, the higher endpoint:
    # v only knows its own adjacencies, so it starts from all its clique
    # neighbors and prunes on rejections; v's pairs share one sorted list
    # until their first prune
    ids = ms.tolist()
    local = {v: i for i, v in enumerate(ids)}
    shared = {}
    rngs = {}
    pending = {}
    for i, j in zip(iu.tolist(), iv.tolist()):
        handler = ids[j]
        if handler not in shared:
            shared[handler] = ms[block[j]].tolist()
            rngs[handler] = network.rng(handler)
        pending[(ids[i], handler)] = shared[handler]

    relays = {}
    serving = defaultdict(set)       # relay -> endpoints of granted pairs
    grant_bits = 2 * network.id_bits + 1
    if grant_bits > network.bandwidth_bits:
        raise SimError("overlay grant message exceeds bandwidth")

    def prune(pair, w):
        """Permanent rejection: drop w from the pair's apparent palette."""
        apparent = pending[pair]
        if apparent is shared[pair[1]]:
            apparent = pending[pair] = list(apparent)
        i = bisect_left(apparent, w)
        if i < len(apparent) and apparent[i] == w:
            del apparent[i]

    def relay_round(proposals):
        """One paired round: proposals is {(u,v): [distinct candidate
        relays]}. Granted pairs get their relay and leave `pending`."""
        by_relay = defaultdict(list)
        messages = 0
        for pair, cands in proposals.items():
            for w in cands:
                by_relay[w].append(pair)
            messages += len(cands)
        tentative = defaultdict(list)
        for w, reqs in sorted(by_relay.items()):
            usable = []
            served = serving[w]
            # candidates come from the handlers' clique neighbors, so w is
            # a member and its block row answers adjacency
            adj = block[local[w]]
            for pair in sorted(reqs):
                u, v = pair
                if not (adj.item(local[u]) and adj.item(local[v])):
                    prune(pair, w)                   # permanent: not a common nbr
                elif u in served or v in served:
                    prune(pair, w)                   # permanent: endpoint clash
                else:
                    usable.append(pair)
            if usable:
                # a relay serves at most one new pair per round; contenders
                # keep the color in their palettes and retry later
                pair = usable[0]
                tentative[pair].append(w)
                messages += g.degree(w)              # grant broadcast
        granted = {}
        for pair, ws in tentative.items():
            w = min(ws)   # handler keeps the lowest grant, releases the rest
            granted[pair] = w
            serving[w].update(pair)
            messages += len(ws)                      # accept/release notices
        for pair, w in granted.items():
            relays[frozenset(pair)] = w
            del pending[pair]
        network.charge_phase("overlay_pair", 2, messages, grant_bits)

    # duplicate candidates within one handler are dropped (not colored this
    # round), mirroring the one-message-per-edge constraint
    cap = cfg.overlay_round_mult * max(
        1, math.ceil(math.log2(max(2.0, math.log2(max(4, g.n)))))
    )
    for _ in range(cap):
        if not pending:
            break
        proposals = {}
        handler_picks = defaultdict(set)
        for pair, apparent in pending.items():
            handler = pair[1]
            if not apparent:
                raise SimError(f"overlay: pair {pair} ran out of candidate relays")
            w = apparent[int(rngs[handler].integers(len(apparent)))]
            if w in handler_picks[handler]:
                continue  # same color sampled twice by one handler: skip round
            handler_picks[handler].add(w)
            proposals[pair] = [w]
        relay_round(proposals)

    # finishing: parallel candidates per remaining pair
    k = math.ceil(3 * math.log2(max(2, g.n)))
    finish_cap = 8
    for _ in range(finish_cap):
        if not pending:
            break
        proposals = {}
        handler_edges = defaultdict(set)
        for pair, apparent in pending.items():
            handler = pair[1]
            if not apparent:
                raise SimError(f"overlay: pair {pair} ran out of candidate relays")
            cands = multi_trial(network, handler, k, palette=apparent)
            kept = [w for w in cands if w not in handler_edges[handler]]
            handler_edges[handler].update(kept)
            proposals[pair] = kept
        relay_round(proposals)
    if pending:
        raise SimError(
            f"overlay construction failed for {len(pending)} non-edges "
            f"in clique {ac_id}"
        )

    congestion = defaultdict(int)
    for pair, w in relays.items():
        for u in pair:
            e = (min(u, w), max(u, w))
            congestion[e] += 1
    return CliqueOverlay(
        ac_id, members, relays, dict(congestion),
        construction_rounds=network.round_counter - rounds_before,
    )


def verify_overlay(graph, overlay: CliqueOverlay) -> OverlayReport:
    """Brute-force audit: full non-edge coverage, relay adjacency, and the
    per-edge congestion bound."""
    rep = OverlayReport()
    members = overlay.members
    ms = np.array(sorted(members), dtype=np.int64)
    local, marked = _member_adjacency(graph, ms)
    covered = set(overlay.relays)
    iu, iv = np.nonzero(np.triu(~marked, 1))
    for u, v in zip(ms[iu].tolist(), ms[iv].tolist()):
        if frozenset((u, v)) not in covered:
            rep.violations.append(f"non-edge ({u},{v}) has no relay")
    relays = overlay.relays
    ends = [(*sorted(pair), w) for pair, w in relays.items()]
    ids = np.array(ends, dtype=np.int64).reshape(-1, 3)
    # local indices of (u, v, w); a triple with a node outside the clique is
    # looked up in the graph itself
    loc = np.where((ids >= 0) & (ids < graph.n), local[ids.clip(0, graph.n - 1)], -1)
    inside = (loc >= 0).all(axis=1)
    lu, lv, lw = loc[inside].T
    via = np.zeros(len(ids), dtype=bool)
    via[inside] = marked[lu, lw] & marked[lv, lw]
    congestion = defaultdict(int)
    for (pair, w), (u, v, _), ok, checked in zip(relays.items(), ends, via.tolist(),
                                                  inside.tolist()):
        if w not in members:
            rep.violations.append(f"relay {w} for ({u},{v}) outside the clique")
        if not (ok if checked else graph.has_edge(u, w) and graph.has_edge(v, w)):
            rep.violations.append(f"relay {w} not adjacent to both of ({u},{v})")
        for x in pair:
            congestion[(x, w) if x < w else (w, x)] += 1
    for e, c in congestion.items():
        if c > 2:
            rep.violations.append(f"edge {e} lies on {c} relay paths")
    return rep


@dataclass
class RoutingRequest:
    src: int
    dst: int
    size: int = 1     # payload length in color-widths


def route(network: Network, overlay: CliqueOverlay, requests) -> int:
    """Deliver the requests over direct edges and relay paths, greedily
    packing each edge up to the bit budget per round; returns rounds used."""
    g = network.graph
    cap = network.config.load_cap * g.delta
    load = defaultdict(int)
    for r in requests:
        if r.src not in overlay.members or r.dst not in overlay.members:
            raise SimError(f"routing request ({r.src},{r.dst}) leaves the clique")
        load[r.src] += r.size
        load[r.dst] += r.size
    for v, l in load.items():
        if l > cap:
            raise SimError(
                f"node {v} carries {l} payload units, above the cap {cap}"
            )
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
