"""Reference relay-overlay construction: the per-pair loop formulation.

`congestcolor.overlay.compute_overlay` builds the same overlay from a boolean
adjacency block of the clique and one shared sorted palette per handler. This
module keeps the direct transcription with per-pair sets (common neighbors
and apparent palette, re-sorted at every draw) as the differential oracle the
array version is checked against: same relays, same booked phases, same trace
and the same draws from every node's random stream.
"""

from __future__ import annotations

import math
from collections import defaultdict

from congestcolor import overlay
from congestcolor.overlay import CliqueOverlay
from congestcolor.sim import Network, SimError
from stream_checkout import generators


def multi_trial(network: Network, v: int, k: int, palette, rng) -> list:
    """Sample k distinct colors of `palette` in draw order with v's
    generator: the first k entries of a permutation of the sorted palette,
    clamped to its size."""
    pal = sorted(palette)
    if k > len(pal):
        if network.trace is not None:
            network.log(v, "multi_trial_clamp", f"{k}->{len(pal)}")
        k = len(pal)
    return [pal[int(i)] for i in rng.permutation(len(pal))[:k]]


def compute_overlay_reference(network: Network, clique, leader: int,
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

    # leader-rooted renumbering so members know |C| and all member IDs, after
    # which one neighbor-exchange round reveals each node's non-neighbors
    network.tree_aggregate(members, leader, phase="overlay_setup")
    m_int = sum(
        1 for u in members for w in g.neighbors(u) if w in members
    ) // 2
    network.charge_phase("overlay_setup", 1, 2 * m_int,
                         min(network.id_bits, network.bandwidth_bits))

    pending = {}
    ms = sorted(members)
    non_edges = [(u, v) for i, u in enumerate(ms) for v in ms[i + 1:]
                 if not g.has_edge(u, v)]
    for u, v in non_edges:
        common = set(g.neighbors(u)) & set(g.neighbors(v)) & members
        if not common:
            raise SimError(f"non-edge ({u},{v}) has no common neighbor in clique")
        handler = max(u, v)
        # apparent palette: the handler only knows its own adjacencies, so it
        # starts from all its clique neighbors and prunes on rejections
        apparent = set(g.neighbors(handler)) & members
        pending[(u, v)] = [handler, apparent, common]

    relays = {}
    serving = defaultdict(list)      # relay -> endpoint list of granted pairs
    grant_bits = 2 * network.id_bits + 1
    if grant_bits > network.bandwidth_bits:
        raise SimError("overlay grant message exceeds bandwidth")

    def relay_round(proposals):
        """One paired round: proposals is {(u,v): [candidate relays]}.
        Returns the set of pairs granted this round."""
        by_relay = defaultdict(list)
        messages = 0
        for pair, cands in proposals.items():
            used = set()
            for w in cands:
                if w in used:
                    continue
                used.add(w)
                by_relay[w].append(pair)
                messages += 1
        tentative = defaultdict(list)
        for w, reqs in sorted(by_relay.items()):
            usable = []
            for pair in sorted(reqs):
                if w not in pending[pair][2]:
                    pending[pair][1].discard(w)      # permanent: not a common nbr
                elif any(e in pair for e in serving[w]):
                    pending[pair][1].discard(w)      # permanent: endpoint clash
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
            serving[w].extend(pair)
            messages += len(ws)                      # accept/release notices
        for pair, w in granted.items():
            relays[frozenset(pair)] = w
            del pending[pair]
        network.charge_phase("overlay_pair", 2, messages,
                             min(grant_bits, network.bandwidth_bits))
        return granted

    # duplicate candidates within one handler are dropped (not colored this
    # round), mirroring the one-message-per-edge constraint
    cap = overlay.ROUND_MULT * max(
        1, math.ceil(math.log2(max(2.0, math.log2(max(4, g.n)))))
    )
    for _ in range(cap):
        if not pending:
            break
        proposals = {}
        handler_picks = defaultdict(set)
        for pair, (handler, apparent, _) in pending.items():
            if not apparent:
                raise SimError(f"overlay: pair {pair} ran out of candidate relays")
            with generators(network.streams, [handler]) as (rng,):
                w = sorted(apparent)[int(rng.integers(len(apparent)))]
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
        for pair, (handler, apparent, _) in pending.items():
            if not apparent:
                raise SimError(f"overlay: pair {pair} ran out of candidate relays")
            with generators(network.streams, [handler]) as (rng,):
                cands = multi_trial(network, handler, k, apparent, rng)
            kept = [w for w in cands if w not in handler_edges[handler]]
            handler_edges[handler].update(kept)
            proposals[pair] = kept
        relay_round(proposals)
    if pending:
        raise SimError(
            f"overlay construction failed for {len(pending)} non-edges "
            f"in clique {ac_id}"
        )
    return CliqueOverlay(ac_id, members, relays)
