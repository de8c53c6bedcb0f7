"""Reference color trial: the strip step, the trial round and the redraw
loop in their plain form, kept as the differential oracle for
`Network.assign_colors` and `trials.random_color_trial`.

`assign_colors` reads all of the batch's rows at once, looks every
(neighbor, color) pair up in the list pool and finds the stripped entries by
sorting them; `udeg` and `live` drop through `np.subtract.at`.
`try_color_round` finds the losers over all the picks' rows at once and
hands the winners to `assign_colors`. `trial_picks` redraws every rejected
row in array passes until none is left, one `Streams.integers` call per
pass. All must leave the same node state, the same draws and the same errors
as the fast forms.
"""

from __future__ import annotations

import types

import numpy as np

from congestcolor.sim import Network, SimError


def assign_colors(network: Network, nodes, colors):
    """`Network.assign_colors`, with the same checks in the same order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    if not nodes.size:
        return
    bad = network.color[nodes] >= 0
    if bad.any():
        i = int(np.argmax(bad))
        raise SimError(f"node {nodes[i]} recolored "
                       f"(had {network.color[nodes[i]]}, got {colors[i]})")
    bad = ~network.in_palettes(nodes, colors)
    if bad.any():
        i = int(np.argmax(bad))
        raise SimError(f"node {nodes[i]} colored off-palette with {colors[i]}")
    if (np.diff(np.sort(nodes)) == 0).any():
        raise SimError("a node is colored twice in one batch")
    src, nbrs = network.graph.rows(nodes)
    network.color[nodes] = colors
    bad = network.color[nbrs] == colors[src]
    if bad.any():
        network.color[nodes] = -1
        i = int(np.argmax(bad))
        raise SimError(f"adjacent nodes {nodes[src[i]]} and {nbrs[i]} "
                       f"both colored {colors[src[i]]}")
    if network.trace is not None:
        for v, c in zip(nodes.tolist(), colors.tolist()):
            network.log(v, "color", str(c))
    np.subtract.at(network.udeg, nbrs, 1)
    # strip each new color from the neighbors' lists that hold it
    pos, found = network._find(nbrs, colors[src])
    gone, owner = pos[found], nbrs[found]
    order = np.argsort(gone)
    gone, owner = gone[order], owner[order]
    fresh = ~network.removed[gone] & (np.diff(gone, prepend=-1) != 0)
    network.removed[gone[fresh]] = True
    np.subtract.at(network.live, owner[fresh], 1)


def use_reference(network: Network) -> Network:
    """Make `network.assign_colors` the reference form; returns network."""
    network.assign_colors = types.MethodType(assign_colors, network)
    return network


def trial_picks(network: Network, active) -> np.ndarray:
    """The (node, color) rows `random_color_trial` tries: every active node
    draws uniform entries of its full sorted list until one is live."""
    active = np.asarray(active, dtype=np.int64)
    active = active[network.color[active] < 0]
    empty = network.live[active] <= 0
    if empty.any():
        raise SimError(f"node {active[np.argmax(empty)]} has an empty palette "
                       f"in rct")
    lo = network.pal_ptr[active]
    size = network.pal_ptr[active + 1] - lo
    offset = np.zeros(active.size, dtype=np.int64)
    todo = np.arange(active.size)
    while todo.size:
        offset[todo] = network.streams.integers(active[todo], size[todo])
        todo = todo[network.removed[lo[todo] + offset[todo]]]
    row = network.pool_ptr[network.list_id[active]]
    return np.column_stack([active, network.pool_colors[row + offset]])


def try_color_round(network: Network, picks) -> list:
    """`trials.try_color_round`'s coloring, on valid (node, color) rows."""
    nodes, cols = picks[:, 0], picks[:, 1]
    src, nbrs = network.graph.rows(nodes)
    arr = np.full(network.graph.n, -1, dtype=np.int64)
    arr[nodes] = cols
    lost = np.zeros(len(nodes), dtype=bool)
    lost[src[arr[nbrs] == cols[src]]] = True
    assign_colors(network, nodes[~lost], cols[~lost])
    return nodes[~lost].tolist()


def random_color_trial(network: Network, active) -> list:
    """`trials.random_color_trial`'s coloring and draws."""
    return try_color_round(network, trial_picks(network, active))
