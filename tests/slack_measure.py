"""Palette slack of one node, read from a network's array state; the slack
measurements of the trial and acceptance suites use it."""


def measure_slack(network, v: int, subgraph=None) -> int:
    """Palette size minus the number of uncolored neighbors (optionally
    restricted to a node subset)."""
    if subgraph is None:
        d = int(network.udeg[v])
    else:
        d = sum(1 for u in network.graph.neighbors(v)
                if u in subgraph and network.color[u] < 0)
    return network.live.item(v) - d
