"""Statistical acceptance suite: the release bar for the package.

Each test pins one acceptance criterion with a frozen tolerance. The checks
are property-based and trend-based: validity and bandwidth compliance are
absolute, probabilistic claims use seed-fraction thresholds, and round
complexity is checked as a growth trend rather than an asymptotic constant.

These tests are slower than the unit suites (the whole file runs in minutes);
they are ordered cheapest-first, with the scaling trend last.
"""

import math

import numpy as np

from congestcolor.acd import compute_acd, verify_acd
from congestcolor.config import SimConfig
from congestcolor.dense_sparse import color_dense_nodes
from congestcolor.graphs import (
    Graph,
    PaletteAssignment,
    density_oracle,
    generate,
    make_palettes,
)
from congestcolor.harness import run_pipeline
from congestcolor.overlay import compute_overlay, verify_overlay
from congestcolor.sim import new_network
from congestcolor.small_degree import decompose_clusters, reduce_colorspace
from congestcolor.trials import random_color_trial, slack_generation
from graph_oracles import local_sparsity
from slack_measure import measure_slack

CORPUS = (
    ("complete", {"n": 65}),
    ("star", {"n": 257}),
    ("cycle", {"n": 512}),
    ("gnp", {"n": 1024, "p": 8.0 / 1024.0}),
    ("planted_almost_cliques", {"k": 2, "delta": 64, "removal": 0.05}),
    ("clique_union", {"k": 4, "size": 33}),
)
CORPUS_SEEDS = 100


def _net(g, seed, palettes=None, **cfg):
    if palettes is None:
        palettes = make_palettes(g, seed=seed + 1)
    return new_network(g, palettes, SimConfig(**cfg), seed)


def test_criterion_01_unconditional_validity():
    # run_pipeline raises on any improper/off-list/partial final coloring, so
    # "no exception" over the corpus is the whole criterion; tolerance 0
    failures = []
    for model, params in CORPUS:
        for seed in range(CORPUS_SEEDS):
            g = generate(model, params, seed)
            pal = make_palettes(g, seed=seed + 1)
            try:
                rep = run_pipeline(g, pal, SimConfig(), seed)
            except Exception as exc:   # noqa: BLE001 - any failure counts
                failures.append((model, seed, repr(exc)))
                continue
            if not rep.valid:
                failures.append((model, seed, "invalid"))
    assert not failures, f"{len(failures)} invalid runs, first: {failures[:3]}"


def test_criterion_02_overlay_congestion_at_most_two():
    violations = []
    for seed in range(20):
        g = generate(
            "planted_almost_cliques", {"k": 1, "delta": 128, "removal": 0.05},
            seed=seed,
        )
        net = _net(g, seed)
        ov = compute_overlay(net, range(g.n), 0, 0, epsilon=0.05)
        rep = verify_overlay(g, ov)
        if not rep.ok:
            violations.extend(rep.violations[:2])
        if rep.max_congestion > 2:
            violations.append(f"seed {seed}: congestion above 2")
    assert not violations, violations[:5]


def test_criterion_03_decomposition_validity_and_round_ceiling():
    seeds = 40
    good = 0
    for seed in range(seeds):
        g = generate(
            "planted_almost_cliques",
            {"k": 2, "delta": 64, "removal": 0.01, "inter_p": 0.0},
            seed=seed,
        )
        net = _net(g, seed)
        acd = compute_acd(net)
        assert net.round_counter <= 20, f"seed {seed}: {net.round_counter} rounds"
        ok = verify_acd(g, acd).ok
        if ok:
            dense = [v for v in range(g.n) if density_oracle(g, v, 0.1)]
            ok = all(acd.clique_of(v) is not None for v in dense)
        good += ok
    assert good / seeds >= 0.95, f"only {good}/{seeds} seeds valid"


def test_criterion_04_trial_colors_a_ninth_per_iteration():
    # wide lists (>= 32*log2 n colors) make the 1/9 bound easy to clear
    n = 4096
    list_size = 32 * math.ceil(math.log2(n))
    pairs = 0
    ok_pairs = 0
    for seed in range(10):
        g = generate("gnp", {"n": n, "p": 4.0 / n}, seed=seed)
        rng = np.random.default_rng([seed, 0xACC4])
        u_size = n * n
        lists = {
            v: frozenset(rng.choice(u_size, size=list_size, replace=False) + 1)
            for v in range(n)
        }
        net = new_network(g, PaletteAssignment(u_size, lists), SimConfig(), seed)
        for _ in range(5):
            active = np.flatnonzero(net.color < 0).tolist()
            if not active:
                break
            winners = random_color_trial(net, active)
            pairs += 1
            ok_pairs += (len(winners) / len(active)) >= 1.0 / 9.0
    assert pairs >= 10
    assert ok_pairs / pairs >= 0.99, f"{ok_pairs}/{pairs} iterations cleared 1/9"


def test_criterion_05_slack_generation_on_star():
    # center of a star: zeta = (Delta-1)/2; floor 0.01*zeta frozen after
    # calibration (typical measured slack is ~25 vs floor ~2.6 at Delta=512)
    delta = 512
    g = generate("star", {"n": delta + 1}, seed=0)
    zeta = float(local_sparsity(g, 0))
    assert zeta == (delta - 1) / 2.0
    good = 0
    seeds = 100
    for seed in range(seeds):
        net = _net(g, seed)
        slack_generation(net)
        good += measure_slack(net, 0) >= 0.01 * zeta
    assert good / seeds >= 0.99, f"only {good}/{seeds} seeds reached the floor"


def test_criterion_06_degree_reduction_rate():
    # equal-slack instances: lists of size d0 + s with s = 4*d0 = 64*log2 n;
    # normalized max uncolored degree must fall at the squared-ish rate
    n = 1024
    logn = math.ceil(math.log2(n))
    s = 64 * logn
    d0 = s // 4
    u_size = n * n
    histories = []
    for seed in range(11):
        g = generate("gnp", {"n": n, "p": d0 / (n - 1.0)}, seed=seed)
        rng = np.random.default_rng([seed, 0xDE6])
        lists = {
            v: frozenset(rng.choice(u_size, size=d0 + s, replace=False) + 1)
            for v in range(n)
        }
        net = new_network(g, PaletteAssignment(u_size, lists), SimConfig(), seed)
        hist = []
        for _ in range(8):
            hist.append(int(net.udeg[net.color < 0].max(initial=0)) / s)
            if (net.color >= 0).all():
                break
            random_color_trial(net, np.flatnonzero(net.color < 0).tolist())
        histories.append(hist)
    floor = (4.0 * logn) / s
    iters = min(len(h) for h in histories) - 1
    for i in range(iters):
        med_now = float(np.median([h[i] for h in histories]))
        med_next = float(np.median([h[i + 1] for h in histories]))
        if med_now <= floor:
            break
        assert med_next <= med_now ** 1.4 + floor, (
            f"iteration {i}: median {med_next:.4f} above "
            f"{med_now ** 1.4 + floor:.4f}"
        )


def test_criterion_07_dense_stage_trajectories():
    # frozen fitted constant a = 4 for both trajectory bounds
    a = 4.0
    seeds = 10
    good = 0
    for seed in range(seeds):
        g = generate(
            "planted_almost_cliques",
            {"k": 2, "delta": 512, "removal": 0.03, "inter_p": 0.0},
            seed=seed,
        )
        logn = math.log2(g.n)
        net = _net(g, seed, c_layer=0.25)
        acd = compute_acd(net)
        if not acd.cliques:
            continue
        overlays = {
            ac: compute_overlay(net, acd.cliques[ac], acd.leaders[ac], ac,
                                epsilon=0.05)
            for ac in acd.cliques
        }
        res = color_dense_nodes(net, acd, overlays)
        r0_ok = all(r0 < g.delta / logn ** 2 for r0 in res["r0_sizes"].values())
        upper = [row for row in res["trajectory"] if row[0] >= 1]
        e_ok = all(row[2] <= a * logn for row in upper)
        r_ok = all(row[3] <= a * logn ** 2 for row in upper)
        good += r0_ok and e_ok and r_ok
    assert good / seeds >= 0.95, f"only {good}/{seeds} seeds within bounds"


def test_criterion_08_colorspace_reduction():
    # (a) list sizes preserved on every certified map (the constructor
    # hard-fails otherwise); (b) exhaustive field check on a 13-bit prime;
    # (c) Monte-Carlo collision expectation below 1/N^2 within 3 SEs
    for seed in range(20):
        n = 6 + (seed % 10)
        g = generate("complete", {"n": n}, seed=seed)
        u_size = 10 ** 9 if seed % 2 else None
        pal = make_palettes(g, seed=seed + 1, colorspace_size=u_size)
        net = new_network(g, pal, SimConfig(), seed)
        decomp = decompose_clusters(net, range(n), r_cluster=n + 1)
        cluster = next(decomp.all_clusters())
        cmap = reduce_colorspace(net, cluster)
        for v in range(n):
            lst = net.palette(v)
            assert len({cmap.map_color(c) for c in lst}) == len(lst)

    g = generate("complete", {"n": 6}, seed=0)
    net = new_network(g, make_palettes(g, seed=1, colorspace_size=50),
                      SimConfig(), 0)
    decomp = decompose_clusters(net, range(6), r_cluster=7)
    cluster = next(decomp.all_clusters())
    cmap = reduce_colorspace(net, cluster)
    assert cmap.p <= 2 ** 13
    lists = {v: net.palette(v) for v in range(6)}

    def bad_nodes(point):
        return sum(
            1 for pal in lists.values()
            if len({_eval(c, point, cmap) for c in pal}) != len(pal)
        )

    assert cmap.g < cmap.p and bad_nodes(cmap.g) == 0  # Y + sum X_u < 1

    g12 = generate("complete", {"n": 12}, seed=3)
    net12 = new_network(
        g12, make_palettes(g12, seed=4, colorspace_size=10 ** 12),
        SimConfig(), 3,
    )
    decomp12 = decompose_clusters(net12, range(12), r_cluster=13)
    cluster12 = next(decomp12.all_clusters())
    cmap12 = reduce_colorspace(net12, cluster12)
    lists12 = {v: net12.palette(v) for v in range(12)}
    rng = np.random.default_rng(0xACC8)
    draws = 2000
    xs = []
    for point in rng.integers(0, cmap12.p, size=draws):
        xs.append(sum(
            1 for pal in lists12.values()
            if len({_eval(c, int(point), cmap12) for c in pal}) != len(pal)
        ))
    mean = float(np.mean(xs))
    se = float(np.std(xs)) / math.sqrt(draws)
    assert mean <= 1.0 / 144.0 + 3.0 * se, f"mean {mean:.5f}, se {se:.5f}"


def _eval(color, point, cmap):
    coeffs = []
    x = color
    for _ in range(cmap.degree + 1):
        coeffs.append(x % cmap.p)
        x //= cmap.p
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * point + c) % cmap.p
    return acc


def test_criterion_09_bandwidth_compliance():
    # over-budget edges raise immediately inside the engine, so completing a
    # run already proves compliance; the booked maximum is checked anyway
    for model, params, cfg in (
        ("gnp", {"n": 1024, "p": 8.0 / 1024.0}, {}),
        ("planted_almost_cliques", {"k": 2, "delta": 64, "removal": 0.05}, {}),
        ("planted_almost_cliques", {"k": 2, "delta": 128, "removal": 0.05},
         {"c_small": 0.002, "c_layer": 0.25}),
        ("complete", {"n": 129}, {}),
        ("star", {"n": 513}, {}),
    ):
        for seed in range(3):
            g = generate(model, params, seed)
            pal = make_palettes(g, seed=seed + 1)
            rep = run_pipeline(g, pal, SimConfig(**cfg), seed)
            budget = 4 * math.ceil(math.log2(max(2, g.n)))
            assert rep.stats["max_edge_bits_per_round"] <= budget


def test_criterion_10_two_node_trial_frequency():
    g = Graph(2, [(0, 1)])
    pal = make_palettes(g, seed=1, mode="shared")
    assert len(pal.lists[0]) == 2 and pal.lists[0] == pal.lists[1]
    seeds = 10_000
    both = 0
    for seed in range(seeds):
        net = new_network(g, pal, SimConfig(), seed)
        random_color_trial(net, [0, 1])
        both += bool((net.color >= 0).all())
    freq = both / seeds
    assert 0.45 <= freq <= 0.55, f"both-colored frequency {freq:.4f}"


def test_criterion_11_scaling_trend():
    # planted instances with Delta ~ sqrt(n); rounds outside the low-degree
    # component phases must not double across a 64x growth in n
    nonsmall = {}
    for nexp in (10, 12, 14, 16):
        n = 2 ** nexp
        delta = int(n ** 0.5)
        k = max(1, n // (delta + 1))
        g = generate(
            "planted_almost_cliques",
            {"k": k, "delta": delta, "removal": 0.01, "inter_p": 0.0},
            seed=1,
        )
        pal = make_palettes(g, seed=2, mode="shared")
        rep = run_pipeline(g, pal, SimConfig(c_small=0.002, c_layer=0.25), 1)
        assert rep.branch == "full"
        small = sum(v for k_, v in rep.stats["per_phase"].items()
                    if k_.startswith("small_"))
        nonsmall[nexp] = rep.stats["rounds"] - small
        del g, pal, rep
    ratio = nonsmall[16] / nonsmall[10]
    assert ratio <= 2.0, f"round growth {ratio:.2f} ({nonsmall})"
