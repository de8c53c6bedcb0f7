"""Basic randomized coloring primitives: color trials and slack generation.
Every draw goes through the node streams (`sim.Streams`)."""

from __future__ import annotations

import numpy as np

from .sim import Network, SimError

# slack generation samples each node with probability P_SAMPLE
P_SAMPLE = 0.05


def try_color_round(network: Network, picks, phase: str = "rct") -> list:
    """One simultaneous color-trial exchange for all nodes in `picks`, a
    {node: color} dict or a (k, 2) array of (node, color) rows.

    Each node announces its candidate to its uncolored neighbors and keeps it
    iff no neighbor announced the same color; permanent colors are then
    exchanged and removed from neighboring palettes. Costs two simulated
    exchanges (trial + permanent colors), each one color wide. The picks'
    rows are read once, block by block (`Graph.blocks`): each block's losers
    are found against every candidate, and its winners settled.

    Returns the list of nodes that got colored.
    """
    if not len(picks):
        return []
    g = network.graph
    if isinstance(picks, dict):
        picks = np.array(list(picks.items()), dtype=np.int64)
    nodes, cols = picks[:, 0], picks[:, 1]
    taken = network.color[nodes] >= 0
    pos, live = network.entries(nodes, cols)
    bad = taken | ~live
    if bad.any():
        i = int(np.argmax(bad))
        if taken[i]:
            raise SimError(f"try_color on already-colored node {nodes[i]}")
        raise SimError(f"node {nodes[i]} tried color {cols[i]} outside its palette")
    if (np.diff(np.sort(nodes)) == 0).any():
        raise SimError("a node tries twice in one round")
    trial_msgs = int(network.udeg[nodes].sum())
    arr = np.full(g.n, -1, dtype=np.int64)
    arr[nodes] = cols
    won = []
    for s in g.blocks(nodes):
        # a node loses iff some neighbor announced the same color
        at, nbrs = g.rows(nodes[s])
        lost = np.zeros(s.stop - s.start, dtype=bool)
        lost[at[arr[nbrs] == cols[s][at]]] = True
        win = np.flatnonzero(~lost) + s.start
        network.settle(nodes[win], cols[win], pos[win], nbrs[~lost[at]])
        won.append(win)
    winners = nodes[np.concatenate(won)]
    perm_msgs = int(g.degrees[winners].sum())
    rounds = 2 * network.chunks(network.color_bits)
    network.charge_phase(
        phase, rounds, trial_msgs + perm_msgs,
        min(network.color_bits, network.bandwidth_bits),
    )
    return winners.tolist()


def random_color_trial(network: Network, active, phase: str = "rct") -> list:
    """One iteration: every active node draws a uniform palette color and
    tries it. An empty palette is a hard invariant violation."""
    active = np.asarray(active, dtype=np.int64)
    active = active[network.color[active] < 0]
    empty = network.live[active] <= 0
    if empty.any():
        raise SimError(f"node {active[np.argmax(empty)]} has an empty palette "
                       f"in {phase}")
    # uniform entries of the full sorted lists, redrawn while removed
    lo = network.pal_ptr[active]
    offset = network.streams.redraws(active, network.pal_ptr[active + 1] - lo, lo,
                                     network.removed)
    row = network.pool_ptr[network.list_id[active]]
    picks = np.column_stack([active, network.pool_colors[row + offset]])
    return try_color_round(network, picks, phase=phase)


def trial_loop(network: Network, nodes, iters: int, phase: str) -> list:
    """Up to `iters` random color trials on the still-uncolored `nodes`,
    stopping once none is left; returns the uncolored ones in input order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    for _ in range(iters):
        active = nodes[network.color[nodes] < 0]
        if not active.size:
            return []
        random_color_trial(network, active, phase=phase)
    return nodes[network.color[nodes] < 0].tolist()


def slack_generation(network: Network) -> list:
    """Sampled one-shot trial: each node independently joins S with
    probability P_SAMPLE and one random color trial runs on G[S]. Non-sampled
    nodes keep their color lists but see neighbors' permanent colors."""
    if (network.color >= 0).any():
        raise SimError("slack_generation must run on a fully uncolored network")
    sampled = np.flatnonzero(
        network.streams.random(np.arange(network.graph.n)) < P_SAMPLE)
    if network.trace is not None:
        network.log(-1, "slack_sample", str(len(sampled)))
    return random_color_trial(network, sampled, phase="slack_generation")

