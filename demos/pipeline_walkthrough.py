"""Narrative walkthrough of the full coloring pipeline on one instance.

Builds a planted almost-clique instance, runs every stage by hand (instead of
run_pipeline) so each stage's effect is visible, and prints the round/message
bill at the end.

    python3 demos/pipeline_walkthrough.py
"""

from congestcolor.acd import compute_acd, verify_acd
from congestcolor.config import SimConfig
from congestcolor.dense_sparse import color_dense_nodes, color_sparse_nodes
from congestcolor.graphs import generate, make_palettes, verify_coloring
from congestcolor.overlay import compute_overlay, verify_overlay
from congestcolor.sim import new_network
from congestcolor.trials import slack_generation


def main():
    g = generate(
        "planted_almost_cliques",
        {"k": 2, "delta": 64, "removal": 0.01, "inter_p": 0.0},
        seed=7,
    )
    print(f"instance: n={g.n} m={g.m} Delta={g.delta}")
    net = new_network(g, make_palettes(g, seed=8), SimConfig(c_layer=0.25), 7)
    print(f"bandwidth: {net.bandwidth_bits} bits/edge/round")

    acd = compute_acd(net)
    print(f"\ndecomposition: {len(acd.cliques)} almost-cliques, "
          f"{len(acd.v_sparse)} sparse nodes "
          f"(audit: {'ok' if verify_acd(g, acd).ok else 'FAILED'})")

    overlays = {}
    for ac in sorted(acd.cliques):
        ov = compute_overlay(net, acd.cliques[ac], acd.leaders[ac], ac,
                             epsilon=0.05)
        overlays[ac] = ov
        print(f"  clique {ac}: {len(acd.cliques[ac])} members, "
              f"{len(ov.relays)} relayed non-edges, max congestion "
              f"{verify_overlay(g, ov).max_congestion}")

    colored = len(slack_generation(net))
    print(f"\nslack generation: {colored} sampled nodes colored one-shot")

    color_sparse_nodes(net, acd)
    print(f"sparse stage done, {int((net.color < 0).sum())} nodes left")

    res = color_dense_nodes(net, acd, overlays)
    print(f"dense stage done in {res['rounds']} rounds, "
          f"{res['failures']} candidate-assignment failures")

    rep = verify_coloring(g, net.palettes, net.coloring())
    print(f"\nfinal audit: {'valid' if rep.ok else 'INVALID'}; "
          f"{len(set(net.coloring().values()))} distinct colors used")
    print("\nround bill by phase:")
    for phase, rounds in sorted(net.stats.per_phase.items()):
        print(f"  {phase:28s} {rounds:6d}")
    print(f"  {'total':28s} {net.stats.rounds:6d}   "
          f"({net.stats.total_messages} messages, "
          f"<= {net.stats.max_edge_bits_per_round} bits/edge/round)")


if __name__ == "__main__":
    main()
