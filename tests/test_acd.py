from fractions import Fraction

import numpy as np
import pytest

from congestcolor import acd as acd_module
from congestcolor.acd import (
    AlmostCliqueDecomposition,
    compute_acd,
    external_degree,
    verify_acd,
)
from congestcolor.config import SimConfig
from congestcolor.graphs import density_oracle, generate, make_palettes
from congestcolor.sim import SimError, new_network
from graph_oracles import graph_edges


def dump_acd(acd: AlmostCliqueDecomposition) -> str:
    lines = ["sparse: " + " ".join(str(v) for v in sorted(acd.v_sparse))]
    for ac in sorted(acd.cliques):
        members = " ".join(str(v) for v in sorted(acd.cliques[ac]))
        lines.append(f"clique {ac} leader {acd.leaders[ac]}: {members}")
    return "\n".join(lines) + "\n"


def antidegree(acd: AlmostCliqueDecomposition, v: int) -> int:
    """Members of v's almost-clique that are not adjacent to v."""
    home = acd.clique_of(v)
    if home is None:
        raise SimError(f"antidegree: node {v} is in the sparse set")
    members = acd.cliques[home]
    nbrs = set(acd.graph.neighbors(v))
    return sum(1 for u in members if u != v and u not in nbrs)


def net_for(g, seed, **cfg):
    pal = make_palettes(g, seed=1, mode="shared")
    return new_network(g, pal, SimConfig(**cfg), seed)


EPS = Fraction(1, 3)
ETA = EPS / 108


def test_two_cliques_recovered():
    g = generate("clique_union", {"k": 2, "size": 65}, seed=0)  # Delta = 64
    hits = 0
    for seed in range(40):
        net = net_for(g, seed)
        acd = compute_acd(net)
        if (
            len(acd.cliques) == 2
            and not acd.v_sparse
            and verify_acd(g, acd).ok
        ):
            hits += 1
    assert hits >= 38  # >= 95%


def test_sparse_graph_all_sparse():
    g = generate("gnp", {"n": 2048, "p": 0.01}, seed=0)
    # confirm the premise: nobody is eta-dense
    eta = float(ETA)
    assert not any(density_oracle(g, v, eta) for v in range(g.n))
    hits = 0
    for seed in range(20):
        net = net_for(g, seed)
        acd = compute_acd(net)
        if not acd.cliques and acd.v_sparse == set(range(g.n)):
            hits += 1
    assert hits >= 19


def test_round_ceiling_constant():
    for size in (33, 65, 129):
        g = generate("clique_union", {"k": 2, "size": size}, seed=0)
        net = net_for(g, 3)
        compute_acd(net)
        assert net.round_counter <= 20


def test_small_delta_skipped():
    g = generate("cycle", {"n": 30}, seed=0)  # Delta = 2
    net = net_for(g, 0, trace=True)
    acd = compute_acd(net)
    assert acd.skipped and acd.v_sparse == set(range(30))
    assert any("skipped" in d for _, _, e, d in net.trace if e == "acd")
    assert net.round_counter == 0


def test_theory_mode_delta_floor(monkeypatch):
    monkeypatch.setattr(acd_module, "C_THEORY", 10.0)
    g = generate("clique_union", {"k": 2, "size": 17}, seed=0)  # Delta = 16
    net = net_for(g, 0, mode="theory")
    with pytest.raises(SimError, match="theory mode"):
        compute_acd(net)


def test_at_most_one_adoption():
    g = generate(
        "planted_almost_cliques", {"k": 3, "delta": 64, "removal": 0.05}, seed=2
    )
    for seed in range(10):
        net = net_for(g, seed)
        acd = compute_acd(net)  # double adoption raises inside
        total = sum(len(c) for c in acd.cliques.values()) + len(acd.v_sparse)
        assert total == g.n


def test_dense_nodes_get_assigned():
    # the (delta/4)-density oracle is vacuous below Delta ~ 4/delta, so the
    # assignment check uses a loose density parameter that planted instances
    # actually satisfy
    g = generate(
        "planted_almost_cliques",
        {"k": 2, "delta": 64, "removal": 0.01, "inter_p": 0.0},
        seed=1,
    )
    dense = [v for v in range(g.n) if density_oracle(g, v, 0.1)]
    assert dense  # planted instance must exercise the check
    hits = 0
    for seed in range(40):
        net = net_for(g, seed)
        acd = compute_acd(net)
        if all(acd.clique_of(v) is not None for v in dense):
            hits += 1
    assert hits >= 38


def test_verify_trivial_all_sparse():
    g = generate("gnp", {"n": 200, "p": 0.02}, seed=5)
    eta = float(ETA)
    assert not any(density_oracle(g, v, eta) for v in range(g.n))
    acd = AlmostCliqueDecomposition(g, set(range(g.n)), {}, {}, EPS, ETA)
    assert verify_acd(g, acd).ok


def test_verify_oversized_clique_fails():
    # a "clique" far above (1+eps)*Delta
    g = generate("complete", {"n": 30}, seed=0)
    acd = AlmostCliqueDecomposition(
        g, set(), {0: set(range(30))}, {0: 0}, Fraction(1, 100), ETA
    )
    rep = verify_acd(g, acd)
    assert any("size" in v for v in rep.violations)


def test_verify_kdelta_plus_one_clique_passes():
    g = generate("complete", {"n": 65}, seed=0)
    acd = AlmostCliqueDecomposition(
        g, set(), {0: set(range(65))}, {0: 0}, EPS, ETA
    )
    assert verify_acd(g, acd).ok


def test_verify_catches_far_members():
    # path has diameter > 2 and tiny internal degrees
    g = generate("path", {"n": 10}, seed=0)
    acd = AlmostCliqueDecomposition(
        g, set(), {0: set(range(10))}, {0: 0}, EPS, ETA
    )
    rep = verify_acd(g, acd)
    assert not rep.ok


def test_external_and_antidegree():
    g = generate("clique_union", {"k": 2, "size": 5}, seed=0)
    acd = AlmostCliqueDecomposition(
        g, set(), {0: set(range(5)), 5: set(range(5, 10))}, {0: 0, 5: 5}, EPS, ETA
    )
    for v in range(10):
        assert external_degree(acd, v) == 0
        assert antidegree(acd, v) == 0
    with pytest.raises(SimError):
        external_degree(
            AlmostCliqueDecomposition(g, set(range(10)), {}, {}, EPS, ETA), 0
        )


def test_external_degree_cross_edge():
    g = generate("clique_union", {"k": 2, "size": 5}, seed=0)
    edges = list(graph_edges(g)) + [(0, 5)]
    from congestcolor.graphs import Graph

    g2 = Graph(10, edges)
    acd = AlmostCliqueDecomposition(
        g2, set(), {0: set(range(5)), 5: set(range(5, 10))}, {0: 0, 5: 5}, EPS, ETA
    )
    assert external_degree(acd, 0) == 1
    assert external_degree(acd, 5) == 1
    assert external_degree(acd, 1) == 0


def test_antidegree_missing_edge():
    from congestcolor.graphs import Graph

    g = generate("complete", {"n": 6}, seed=0)
    edges = [e for e in graph_edges(g) if e != (0, 1)]
    g2 = Graph(6, edges)
    acd = AlmostCliqueDecomposition(
        g2, set(), {0: set(range(6))}, {0: 0}, EPS, ETA
    )
    assert antidegree(acd, 0) == 1
    assert antidegree(acd, 2) == 0


def test_f_edge_soundness():
    # on planted instances nearly every detected similar pair really does
    # share most of its neighborhood
    g = generate(
        "planted_almost_cliques",
        {"k": 2, "delta": 64, "removal": 0.01, "inter_p": 0.0},
        seed=4,
    )
    from graph_oracles import similarity_oracle

    total = friendly = 0
    for seed in range(20):
        net = net_for(g, seed)
        acd = compute_acd(net)
        assert acd.f_edges.dtype == np.int64 and acd.f_edges.shape[1] == 2
        for u, v in acd.f_edges.tolist():
            total += 1
            if similarity_oracle(g, u, v, 0.1):
                friendly += 1
    assert total > 0
    assert friendly / total >= 0.99


def test_dump_format():
    g = generate("clique_union", {"k": 2, "size": 5}, seed=0)
    acd = AlmostCliqueDecomposition(
        g, {9}, {0: {0, 1, 2, 3, 4}}, {0: 0}, EPS, ETA
    )
    text = dump_acd(acd)
    assert "sparse: 9" in text.splitlines()[0]
    assert "clique 0 leader 0: 0 1 2 3 4" in text


def test_clique_of_first_holding_clique():
    g = generate("complete", {"n": 6}, seed=0)
    acd = AlmostCliqueDecomposition(
        g, {5}, {3: {0, 1, 2}, 0: {2, 3, 4}}, {3: 0, 0: 3}, EPS, ETA
    )
    assert [acd.clique_of(v) for v in range(6)] == [3, 3, 3, 0, 0, None]
