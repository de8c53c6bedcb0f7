"""The benchmark's workloads: generator parameters, config overrides and guards.

Every workload uses shared lists (`make_palettes(mode="shared")`): random lists
drawn from an n^2 colorspace let one or two trials color nearly every node, so
they stress none of the stages the benchmark is meant to watch.

Why each workload was chosen is recorded beside its name in BENCHMARK.json.
A guard checks, from the run's own report, that the workload still reaches the
layer it was chosen for. A workload that silently stopped exercising its layer
would otherwise report a false speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from congestcolor import graphs


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    params: dict
    guard: Callable             # (workload, report) -> list of problems
    config: dict = field(default_factory=dict)

    def build(self, seed: int):
        """The instance for `seed`: the same seed gives the same graph and lists."""
        graph = graphs.generate(self.model, self.params, seed)
        palettes = graphs.make_palettes(graph, seed=seed + 1, mode="shared")
        return graph, palettes


def _guard_planted(workload: Workload, report) -> list:
    problems = []
    if report.branch != "full":
        problems.append(f"branch {report.branch}, expected full")
    cliques = len(report.acd_info.get("cliques", {}))
    if cliques != workload.params["k"]:
        problems.append(
            f"decomposition found {cliques} cliques, expected {workload.params['k']}"
        )
    return problems


def _guard_dense_sync(workload: Workload, report) -> list:
    # the ledger books a "sync_trial" phase only when the synchronized trial
    # tried at least one color, and a "route" phase only when route() moved
    # at least one payload
    per_phase = report.stats["per_phase"]
    problems = []
    if per_phase.get("sync_trial", 0) <= 0:
        problems.append("the synchronized trial tried no color")
    if per_phase.get("route", 0) <= 0:
        problems.append("overlay.route was never called")
    return problems


def _guard_lowdeg(workload: Workload, report) -> list:
    # color_clusters books "small_color" for every class it colors
    problems = []
    if report.branch != "small_degree":
        problems.append(f"branch {report.branch}, expected small_degree")
    if report.stats["per_phase"].get("small_color", 0) <= 0:
        problems.append("small_degree.color_clusters colored no cluster")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="planted_cliques",
            model="planted_almost_cliques",
            # inter_p stays 0 as in acceptance criterion 11: with the default
            # cross-group edges the decomposition finds no clique at this size
            params={"k": 127, "delta": 128, "removal": 0.01, "inter_p": 0.0},
            config={"c_small": 0.002, "c_layer": 0.25},
            guard=_guard_planted,
        ),
        Workload(
            name="dense_sync",
            model="planted_almost_cliques",
            params={"k": 2, "delta": 512, "removal": 0.03, "inter_p": 0.0},
            # with the default k4 the plain trials finish every middle layer
            # first and the synchronized trial never tries a color
            config={"c_small": 0.002, "c_layer": 0.25, "k4": 0},
            guard=_guard_dense_sync,
        ),
        Workload(
            name="lowdeg_cycle",
            model="cycle",
            params={"n": 2 ** 16},
            guard=_guard_lowdeg,
        ),
    )
}
