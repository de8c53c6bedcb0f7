import math

import pytest
import sympy

from congestcolor.config import SimConfig
from congestcolor.graphs import (
    Graph,
    PaletteAssignment,
    generate,
    make_palettes,
    verify_coloring,
)
from congestcolor.harness import run_pipeline
from congestcolor.sim import SimError, new_network
from congestcolor.small_degree import (
    ClusterDecomposition,
    _minimal_c0,
    _roots_mod_p,
    color_clusters,
    color_small_degree,
    decompose_clusters,
    reduce_colorspace,
    shatter,
)


def dump_decomposition(decomp: ClusterDecomposition) -> str:
    lines = []
    for i, cls in enumerate(decomp.classes):
        for c in cls:
            members = " ".join(str(v) for v in sorted(c.nodes))
            lines.append(
                f"class {i} root {c.root} diameter {c.diameter}: {members}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def net_for(g, seed=0, colorspace=None, **cfg):
    pal = make_palettes(g, seed=seed + 1, colorspace_size=colorspace)
    return new_network(g, pal, SimConfig(**cfg), seed)


def single_cluster(net, nodes):
    decomp = decompose_clusters(net, nodes, r_cluster=len(nodes) + 1)
    clusters = list(decomp.all_clusters())
    assert len(clusters) == 1
    return decomp, clusters[0]


def test_matching_fully_colored():
    g = Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
    net = net_for(g)
    color_small_degree(net, range(20))
    rep = verify_coloring(g, net.palettes, net.coloring())
    assert rep.ok


def test_shatter_leaves_small_components():
    g = generate("gnp", {"n": 512, "p": 0.02}, seed=3)
    net = net_for(g, seed=3)
    comps = shatter(net, range(g.n))
    bound = 4 * g.delta ** 2 * math.ceil(math.log2(g.n))
    assert all(len(c) <= bound for c in comps)
    # colored part so far must already be proper and on-list
    rep = verify_coloring(g, net.palettes, net.coloring(), allow_partial=True)
    assert rep.ok


def test_path_ball_carving_radius_two():
    g = generate("path", {"n": 9}, seed=0)
    net = net_for(g)
    decomp = decompose_clusters(net, range(9), r_cluster=2)
    clusters = sorted(decomp.all_clusters(), key=lambda c: c.root)
    assert [sorted(c.nodes) for c in clusters] == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8]
    ]
    assert all(c.diameter <= 2 for c in clusters)
    # adjacent balls must land in different classes
    assert clusters[0].class_index != clusters[1].class_index
    assert clusters[1].class_index != clusters[2].class_index


def test_component_size_ceiling():
    g = generate("path", {"n": 9}, seed=0)
    net = net_for(g, n_max_component=5)
    with pytest.raises(SimError, match="ceiling"):
        decompose_clusters(net, range(9))


def test_single_node_list():
    g = Graph(1, [])
    pal = PaletteAssignment(64, {0: frozenset({42})})
    net = new_network(g, pal, SimConfig(), 0)
    decomp, cluster = single_cluster(net, [0])
    cmap = reduce_colorspace(net, cluster)
    assert cmap.g < cmap.p
    color_clusters(net, decomp, {cluster: cmap})
    assert net.color[0] == 42


def test_overwide_packed_trial_split_over_rounds():
    # the single-node instance above, whose reduced colors are 8 bits wide:
    # a 4-bit budget sends each packed message over two rounds, so it costs
    # more than a budget that fits one color exactly
    bills = {}
    for budget in (4, 8):
        g = Graph(1, [])
        pal = PaletteAssignment(64, {0: frozenset({42})})
        net = new_network(g, pal, SimConfig(bandwidth_bits=budget), 0)
        decomp, cluster = single_cluster(net, [0])
        cmap = reduce_colorspace(net, cluster)
        assert math.ceil(math.log2(cmap.p)) == 8
        color_clusters(net, decomp, {cluster: cmap})
        assert net.color[0] == 42
        assert net.stats.max_edge_bits_per_round <= budget
        bills[budget] = net.stats.per_phase["small_color"]
    assert bills[4] > bills[8]


def test_reduction_small_prime_exhaustive():
    # six-node clique over a 50-color space: the minimal exponent sits just
    # below 5, the prime fits in 13 bits, and the derandomized point must be
    # collision-free -- checked here against every point of the field
    g = generate("complete", {"n": 6}, seed=0)
    net = net_for(g, colorspace=50)
    _, cluster = single_cluster(net, range(6))
    cmap = reduce_colorspace(net, cluster)
    assert 4.5 < cmap.c0 <= 5.01
    assert cmap.p <= 2 ** 13 and sympy.isprime(cmap.p)
    assert cmap.degree == 1

    lists = {v: net.palette(v) for v in range(6)}
    collisions_at = []
    for point in range(cmap.p):
        bad = 0
        for v, pal in lists.items():
            imgs = {_eval(c, point, cmap) for c in pal}
            if len(imgs) != len(pal):
                bad += 1
        collisions_at.append(bad)
    assert collisions_at[cmap.g] == 0
    # exact expectation over a uniform point is below 1/N^2
    assert sum(collisions_at) / cmap.p <= 1.0 / 36.0


def _eval(color, point, cmap):
    acc, x = 0, color
    coeffs = []
    for _ in range(cmap.degree + 1):
        coeffs.append(x % cmap.p)
        x //= cmap.p
    for c in reversed(coeffs):
        acc = (acc * point + c) % cmap.p
    return acc


def test_reduction_shrinks_wide_colorspace():
    # 10^12 colors on 12 nodes: the reduced colors fit in ~20 bits while the
    # originals need 40, and every list keeps its size
    g = generate("complete", {"n": 12}, seed=1)
    net = net_for(g, seed=1, colorspace=10 ** 12)
    _, cluster = single_cluster(net, range(12))
    cmap = reduce_colorspace(net, cluster)
    assert cmap.p ** (cmap.degree + 1) > 10 ** 12
    assert math.ceil(math.log2(cmap.p)) < math.ceil(math.log2(10 ** 12)) / 1.5
    for v in range(12):
        pal = net.palette(v)
        assert len({cmap.map_color(c) for c in pal}) == len(pal)


def test_minimal_c0_is_minimal():
    c0 = _minimal_c0(6, 50)
    step = 1.0 / 64.0

    def holds(c):
        return (6 ** (c - 5.0) / 2.0) * (c * math.log(6) - math.log(2)) \
            > math.log(50)

    assert holds(c0)
    assert not holds(c0 - step)


def test_roots_mod_p_paths_agree():
    # (x - 3)(x - 11) mod 13 = x^2 - 14x + 33 -> x^2 + 12x + 7
    small = _roots_mod_p([7, 12, 1], 13)
    assert small == [3, 11]
    # same polynomial over a prime above the enumeration cutoff
    p = int(sympy.nextprime(1 << 17))
    coeffs = [33 % p, (-14) % p, 1]
    assert _roots_mod_p(coeffs, p) == [3, 11]
    # linear closed form
    assert _roots_mod_p([(-10) % 101, 2], 101) == [5]
    with pytest.raises(SimError, match="identical"):
        _roots_mod_p([0, 0], 13)


def test_fifty_node_cluster_colored():
    g = generate("complete", {"n": 50}, seed=2)
    net = net_for(g, seed=2)
    decomp, cluster = single_cluster(net, range(50))
    cmap = reduce_colorspace(net, cluster)
    color_clusters(net, decomp, {cluster: cmap})
    rep = verify_coloring(g, net.palettes, net.coloring())
    assert rep.ok


def test_stale_colormap_recertified():
    # a block of the graph gets colored between certification and use; the
    # map must be re-derived for the shrunken lists, and coloring still lands
    g = generate("complete", {"n": 12}, seed=4)
    extra = Graph(13, list(g.edges()) + [(11, 12)])
    pal = make_palettes(extra, seed=5)
    net = new_network(extra, pal, SimConfig(), 4)
    decomp, cluster = single_cluster(net, range(12))
    cmap = reduce_colorspace(net, cluster)
    pick = sorted(set(net.palette(12)) & set(net.palette(11)))
    if pick:
        net.assign_color(12, pick[0])
    color_clusters(net, decomp, {cluster: cmap})
    rep = verify_coloring(
        extra, pal, net.coloring(), allow_partial=bool(net.color[12] < 0)
    )
    assert rep.ok
    assert (net.color[:12] >= 0).all()


def test_low_degree_graph_fully_colored():
    g = generate("gnp", {"n": 1024, "p": 8.0 / 1024.0}, seed=7)
    net = net_for(g, seed=7)
    color_small_degree(net, range(g.n))
    rep = verify_coloring(g, net.palettes, net.coloring())
    assert rep.ok
    assert net.stats.max_edge_bits_per_round <= net.bandwidth_bits


def test_shatter_round_count_tracks_log_delta():
    counts = {}
    for n, p in ((256, 4.0 / 256.0), (256, 16.0 / 256.0)):
        g = generate("gnp", {"n": n, "p": p}, seed=9)
        net = net_for(g, seed=9)
        shatter(net, range(g.n))
        counts[g.delta] = net.stats.per_phase.get("small_shatter", 0)
    deltas = sorted(counts)
    lo, hi = counts[deltas[0]], counts[deltas[-1]]
    # twice the trial batches, each 2*k6*ceil(log2 Delta) iterations deep
    for d, c in counts.items():
        assert c <= 2 * 2 * 4 * math.ceil(math.log2(max(2, d))) * 2
    assert hi <= 4 * lo


def test_dump_format():
    g = generate("path", {"n": 3}, seed=0)
    net = net_for(g)
    decomp = decompose_clusters(net, range(3), r_cluster=1)
    text = dump_decomposition(decomp)
    lines = text.strip().splitlines()
    assert all(line.startswith("class ") and ":" in line for line in lines)
    assert isinstance(decomp, ClusterDecomposition)


def test_cycle_bill_does_not_grow_linearly():
    # shattered components are colored side by side, so 16 times the nodes
    # must cost less than twice the rounds
    bills = {}
    for n in (2 ** 10, 2 ** 14):
        g = generate("cycle", {"n": n}, 1)
        pal = make_palettes(g, seed=2, mode="shared")
        bills[n] = run_pipeline(g, pal, SimConfig(), 1).stats["rounds"]
    assert bills[2 ** 14] < 2 * bills[2 ** 10]
