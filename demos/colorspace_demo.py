"""Demonstrates the derandomized colorspace reduction.

Twelve nodes hold 13-color lists drawn from a colorspace of 10^12 colors
(40-bit color names). The reduction maps each list into a field of ~20-bit
elements without shrinking any list: each original color becomes a low-degree
polynomial, and a single evaluation point — fixed bit by bit via conditional
expectations — works for every node at once.

    python3 demos/colorspace_demo.py
"""

import math

from congestcolor.config import SimConfig
from congestcolor.graphs import generate, make_palettes
from congestcolor.sim import new_network
from congestcolor.small_degree import decompose_clusters, reduce_colorspace


def main():
    u_size = 10 ** 12
    g = generate("complete", {"n": 12}, seed=1)
    net = new_network(
        g, make_palettes(g, seed=2, colorspace_size=u_size), SimConfig(), 1
    )
    decomp = decompose_clusters(net, range(12), r_cluster=13)
    cluster = next(decomp.all_clusters())
    cmap = reduce_colorspace(net, cluster)
    print(f"colorspace: {u_size} colors ({math.ceil(math.log2(u_size))} bits)")
    print(f"reduced field: p = {cmap.p} ({math.ceil(math.log2(cmap.p))} bits), "
          f"polynomial degree {cmap.degree}, evaluation point g = {cmap.g}")
    for v in sorted(cluster.nodes)[:3]:
        pal = net.palette(v)
        mapped = [cmap.map_color(c) for c in pal]
        print(f"\nnode {v}: {len(pal)} colors -> {len(set(mapped))} images")
        for c, m in list(zip(pal, mapped))[:4]:
            print(f"  {c:14d} -> {m}")
        print("  ...")


if __name__ == "__main__":
    main()
