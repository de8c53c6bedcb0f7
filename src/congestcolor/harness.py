"""Pipeline orchestration, sweeps, and statistical verdicts.

`run_pipeline` is the top-level algorithm: low-degree instances go straight to
the component machinery; everything else runs decomposition -> overlays ->
slack generation -> sparse stage -> dense stage. Validity is unconditional:
a run that ends with an improper or off-list coloring is a hard error, never
a statistic.

Verdicts about colorings come exclusively from the brute-force validators in
`graphs`; the algorithms under test only produce, never judge.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .acd import compute_acd
from .config import SimConfig
from .dense_sparse import color_dense_nodes, color_sparse_nodes, trajectory_csv
from .graphs import Graph, PaletteAssignment, generate, make_palettes, verify_coloring
from .overlay import compute_overlay, verify_overlay
from .sim import SimError, bandwidth_bits, new_network
from .small_degree import color_small_degree
from .trials import slack_generation


@dataclass
class RunReport:
    config_text: str
    graph_info: dict
    seed: int
    branch: str                     # "small_degree" | "full"
    stats: dict                     # round/message accounting snapshot
    valid: bool
    colors_used: int
    coloring: dict
    trajectory: list = field(default_factory=list)
    acd_info: dict = field(default_factory=dict)
    overlay_info: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "config": self.config_text,
            "graph": self.graph_info,
            "seed": self.seed,
            "branch": self.branch,
            "stats": self.stats,
            "valid": self.valid,
            "colors_used": self.colors_used,
            "acd": self.acd_info,
            "overlay": self.overlay_info,
            "trajectory": self.trajectory,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def small_degree_branch(graph: Graph, config: SimConfig) -> bool:
    logn = math.ceil(math.log2(max(2, graph.n)))
    return graph.delta <= config.c_small * logn ** 4


def _check_lists(graph: Graph, palettes: PaletteAssignment):
    """Reject an instance in which some node has no list or fewer than
    deg(v)+1 colors, naming the first such node."""
    lists = palettes.lists
    # list sizes, -1 for a node without a list
    sizes = np.fromiter((len(lists[v]) if v in lists else -1 for v in range(graph.n)),
                        np.int64, graph.n)
    v = int(np.argmax(sizes <= graph.degrees))
    if sizes[v] < 0:
        raise ValueError(f"node {v} has no color list")
    if sizes[v] <= graph.degrees[v]:
        raise ValueError(f"node {v} has {sizes[v]} colors, "
                         f"needs at least deg+1 = {graph.degrees[v] + 1}")


def run_pipeline(graph: Graph, palettes: PaletteAssignment, config: SimConfig,
                 seed: int) -> RunReport:
    _check_lists(graph, palettes)
    net = new_network(graph, palettes, config, seed)
    trajectory = []
    acd_info = {}
    overlay_info = {}
    if small_degree_branch(graph, config):
        branch = "small_degree"
        color_small_degree(net, range(graph.n))
    else:
        branch = "full"
        acd = compute_acd(net)
        acd_info = {
            "skipped": acd.skipped,
            "sparse": len(acd.v_sparse),
            "cliques": {str(ac): len(m) for ac, m in acd.cliques.items()},
        }
        overlays = {}
        # disjoint cliques build their overlays in the same simulated rounds
        with net.parallel() as clique:
            for ac in sorted(acd.cliques):
                with clique():
                    ov = compute_overlay(net, acd.cliques[ac], acd.leaders[ac], ac,
                                         epsilon=float(acd.epsilon))
                rep = verify_overlay(graph, ov)
                if not rep.ok:
                    raise SimError(
                        f"overlay audit failed for clique {ac}: {rep.violations[:2]}"
                    )
                overlays[ac] = ov
                overlay_info[str(ac)] = {
                    "relays": len(ov.relays),
                    "max_congestion": max(ov.edge_congestion.values(), default=0),
                }
        slack_generation(net)
        color_sparse_nodes(net, acd)
        dense = color_dense_nodes(net, acd, overlays)
        trajectory = [list(row) for row in dense["trajectory"]]

    coloring = net.coloring()
    verdict = verify_coloring(graph, palettes, coloring)
    if not verdict.ok:
        raise SimError(
            f"pipeline produced an invalid coloring in branch {branch}: "
            f"{verdict.monochromatic_edges[:2]} {verdict.off_list_nodes[:2]} "
            f"{verdict.uncolored_nodes[:2]}"
        )
    return RunReport(
        config_text=config.to_text(),
        graph_info={"n": graph.n, "m": graph.m, "delta": graph.delta},
        seed=seed,
        branch=branch,
        stats=net.stats.snapshot(),
        valid=verdict.ok,
        colors_used=len(set(coloring.values())),
        coloring=coloring,
        trajectory=trajectory,
        acd_info=acd_info,
        overlay_info=overlay_info,
    )


def write_report(report: RunReport, outdir: str, tag: str):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{tag}.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    with open(os.path.join(outdir, f"{tag}.trajectory.csv"), "w") as fh:
        fh.write(trajectory_csv([tuple(r) for r in report.trajectory]))
    with open(os.path.join(outdir, f"{tag}.coloring.txt"), "w") as fh:
        for v in sorted(report.coloring):
            fh.write(f"{v} {report.coloring[v]}\n")


def _build_graph(entry: dict, seed: int) -> Graph:
    return generate(entry["model"], entry.get("params", {}), seed)


def sweep(spec: dict, outdir: str | None = None) -> list:
    """Run every (entry, seed) combination in the sweep spec; returns result
    rows sorted by (model, n, delta, seed). Spec format:
    {"runs": [{"model":..., "params": {...}, "seeds": [...],
               "config": {key: value, ...}, "palette_mode": ...}]}
    """
    rows = []
    for entry in spec.get("runs", []):
        cfg_overrides = entry.get("config", {})
        for seed in entry.get("seeds", [0]):
            graph = _build_graph(entry, seed)
            config = SimConfig(**cfg_overrides)
            palettes = make_palettes(
                graph, seed=seed + 1, mode=entry.get("palette_mode", "random")
            )
            report = run_pipeline(graph, palettes, config, seed)
            tag = f"{entry['model']}_n{graph.n}_d{graph.delta}_s{seed}"
            if outdir:
                write_report(report, outdir, tag)
            rows.append({
                "model": entry["model"],
                "n": graph.n,
                "delta": graph.delta,
                "seed": seed,
                "branch": report.branch,
                "rounds": report.stats["rounds"],
                "messages": report.stats["total_messages"],
                "max_edge_bits": report.stats["max_edge_bits_per_round"],
                "bandwidth": bandwidth_bits(graph.n, config),
                "colors_used": report.colors_used,
                "valid": report.valid,
            })
    rows.sort(key=lambda r: (r["model"], r["n"], r["delta"], r["seed"]))
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "results.csv"), "w") as fh:
            fh.write(results_csv(rows))
    return rows


_COLUMNS = ("model", "n", "delta", "seed", "branch", "rounds", "messages",
            "max_edge_bits", "bandwidth", "colors_used", "valid")


def results_csv(rows) -> str:
    out = [",".join(_COLUMNS)]
    out.extend(",".join(str(r[c]) for c in _COLUMNS) for r in rows)
    return "\n".join(out) + "\n"


def load_results_csv(text: str) -> list:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != ",".join(_COLUMNS):
        raise ValueError("unrecognized results header")
    rows = []
    for line in lines[1:]:
        vals = line.split(",")
        row = dict(zip(_COLUMNS, vals))
        for k in ("n", "delta", "seed", "rounds", "messages",
                  "max_edge_bits", "bandwidth", "colors_used"):
            row[k] = int(row[k])
        row["valid"] = row["valid"] == "True"
        rows.append(row)
    return rows


def stats_tests(rows) -> list:
    """Machine-checkable verdicts over a result table. Each verdict is
    (criterion, threshold, observed, passed). The deeper statistical criteria
    live in the acceptance test suite; these are the ones any sweep can
    answer from its result rows alone."""
    if not rows:
        raise ValueError("no results to evaluate")
    verdicts = []

    valid_frac = sum(1 for r in rows if r["valid"]) / len(rows)
    verdicts.append(("validity_fraction", "== 1.0", valid_frac,
                     valid_frac == 1.0))

    bw_ok = sum(1 for r in rows if r["max_edge_bits"] <= r["bandwidth"])
    frac = bw_ok / len(rows)
    verdicts.append(("bandwidth_compliance", "== 1.0", frac, frac == 1.0))

    worst = max(r["rounds"] for r in rows)
    budget = max(64 * math.ceil(math.log2(max(4, r["n"]))) ** 4 for r in rows)
    verdicts.append(("rounds_within_polylog_budget", f"<= {budget}", worst,
                     worst <= budget))
    return verdicts


def verdict_text(verdicts) -> str:
    lines = ["criterion,threshold,observed,pass"]
    lines.extend(
        f"{name},{thr},{obs},{'pass' if ok else 'FAIL'}"
        for name, thr, obs, ok in verdicts
    )
    return "\n".join(lines) + "\n"
