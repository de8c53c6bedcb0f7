"""Basic randomized coloring primitives: color trials, slack generation,
parallel multi-trials, and slack measurement."""

from __future__ import annotations

import numpy as np

from .sim import Network, SimError


def try_color_round(network: Network, picks: dict, phase: str = "rct") -> list:
    """One simultaneous color-trial exchange for all nodes in `picks`.

    Each node announces its candidate to its uncolored neighbors and keeps it
    iff no neighbor announced the same color; permanent colors are then
    exchanged and removed from neighboring palettes. Costs two simulated
    exchanges (trial + permanent colors), each one color wide.

    Returns the list of nodes that got colored.
    """
    if not picks:
        return []
    g = network.graph
    states = network.states
    for v, c in picks.items():
        st = states[v]
        if st.color is not None:
            raise SimError(f"try_color on already-colored node {v}")
        if not st.palette_contains(c):
            raise SimError(f"node {v} tried color {c} outside its palette")
    arr = np.full(g.n, -1, dtype=np.int64)
    nodes = np.fromiter(picks.keys(), dtype=np.int64, count=len(picks))
    arr[nodes] = np.fromiter(picks.values(), dtype=np.int64, count=len(picks))
    src, dst = g.edge_src, g.indices
    conflict = (arr[src] >= 0) & (arr[src] == arr[dst])
    losers = set(np.unique(src[conflict]).tolist())
    winners = [v for v in picks if v not in losers]
    trial_msgs = int(sum(len(states[v].uncolored_neighbors) for v in picks))
    for v in winners:
        network.assign_color(v, picks[v])
    perm_msgs = int(sum(len(g.neighbors[v]) for v in winners))
    rounds = 2 * network.chunks(network.color_bits)
    network.charge_phase(
        phase, rounds, trial_msgs + perm_msgs,
        min(network.color_bits, network.bandwidth_bits),
    )
    return winners


def random_color_trial(network: Network, active, phase: str = "rct") -> list:
    """One iteration: every active node draws a uniform palette color and
    tries it. An empty palette is a hard invariant violation."""
    picks = {}
    for v in active:
        st = network.states[v]
        if st.color is not None:
            continue
        if st.palette_size() <= 0:
            raise SimError(f"node {v} has an empty palette in {phase}")
        picks[v] = st.sample_color(network.rng(v))
    return try_color_round(network, picks, phase=phase)


def trial_loop(network: Network, nodes, iters: int, phase: str) -> list:
    """Up to `iters` random color trials on the still-uncolored `nodes`,
    stopping once none is left; returns the uncolored ones in input order."""
    states = network.states
    for _ in range(iters):
        active = [v for v in nodes if states[v].color is None]
        if not active:
            return active
        random_color_trial(network, active, phase=phase)
    return [v for v in nodes if states[v].color is None]


def slack_generation(network: Network) -> list:
    """Sampled one-shot trial: each node independently joins S with the
    configured probability and one random color trial runs on G[S]. Non-sampled
    nodes keep their color lists but see neighbors' permanent colors."""
    if any(st.color is not None for st in network.states):
        raise SimError("slack_generation must run on a fully uncolored network")
    p = network.config.p_sample
    sampled = [
        v for v in range(network.graph.n)
        if network.rng(v).random() < p
    ]
    if network.trace is not None:
        network.log(-1, "slack_sample", str(len(sampled)))
    return random_color_trial(network, sampled, phase="slack_generation")


def multi_trial(network: Network, v: int, k: int, palette=None) -> list:
    """Sample k distinct colors in draw order, from node v's palette by
    default or from an explicit color set; the caller adjudicates conflicts
    and colors with the first non-conflicting one."""
    rng = network.rng(v)
    if palette is not None:
        pal = sorted(palette)
        if k > len(pal):
            if network.trace is not None:
                network.log(v, "multi_trial_clamp", f"{k}->{len(pal)}")
            k = len(pal)
        order = rng.permutation(len(pal))
        return [pal[int(i)] for i in order[:k]]
    st = network.states[v]
    live = st.palette_size()
    if k > live:
        if network.trace is not None:
            network.log(v, "multi_trial_clamp", f"{k}->{live}")
        k = live
    return st.sample_colors(rng, k)


def measure_slack(network: Network, v: int, subgraph=None) -> int:
    """Palette size minus the number of uncolored neighbors (optionally
    restricted to a node subset)."""
    st = network.states[v]
    if subgraph is None:
        d = len(st.uncolored_neighbors)
    else:
        d = sum(1 for u in st.uncolored_neighbors if u in subgraph)
    return st.palette_size() - d
