#!/usr/bin/env python3
"""congestcolor benchmark: host cost and simulated bill of `run_pipeline`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the `src/` directory beside `perfbench/`; the
benchmark fails before printing a result when it is missing. Each run is one
single-threaded process on one workload (see `workloads.py`), whose instance
is generated from `--seed`.

`--trace 0` builds the instance SETUP_REPEATS times (`setup_s` is the median),
then calls `run_pipeline` with tracing off, again and again until `--seconds`
have passed (at least once), and prints the end-to-end metrics. `pipeline_s`
and `setup_s` are wall seconds rescaled to a fixed host speed (see
`HostSpeed`); the run also prints the raw wall times. `--trace 1` alternates an
untraced and a traced call for the same time and prints the per-layer metrics,
medians over the traced calls (see `spans.py`), in wall seconds; it writes the
spans to `.perfbench/` at the end.

Every output is audited independently of the program: the coloring is checked
against the generated lists with `graphs.verify_coloring`, the widest edge
load against the bandwidth the config implies, the workload's guard against
the report, and the bill digest against the first call's. A call that raises
or fails the audit counts in `failed` and is never timed. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the exit status is 1 if any call failed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from congestcolor import graphs, harness  # noqa: E402
from congestcolor.config import SimConfig  # noqa: E402

if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
    raise ImportError(
        f"congestcolor was imported from {harness.__file__}, not from {SRC}"
    )

from spans import SPAN_METRICS, Tracer, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3

# name -> unit, in report order
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_rounds": "rounds",
    "sim_messages": "messages",
}

PER_LAYER = SPAN_METRICS + ("trace.overhead_s",)

# median time of `_speed_loop` on the host the benchmark was defined on
# (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11)
REFERENCE_LOOP_S = 0.1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("rounds"):
        return "rounds"
    if name.endswith("messages"):
        return "messages"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def bandwidth_bits(n: int, config) -> int:
    """Per-edge budget the config implies; computed here, not by the program,
    so that the audit does not trust the code it audits."""
    if config.bandwidth_bits is not None:
        return int(config.bandwidth_bits)
    return config.b_factor * max(1, math.ceil(math.log2(max(2, n))))


def bill_digest(report) -> str:
    """Hash of the simulated bill and the coloring: a change meant only to
    speed up the simulator must leave it bit-identical."""
    payload = json.dumps({
        "per_phase": report.stats["per_phase"],
        "total_messages": report.stats["total_messages"],
        "coloring": sorted(report.coloring.items()),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def audit(workload, graph, palettes, config, report) -> list:
    """Problems with one run's output; an empty list means it passed."""
    problems = []
    verdict = graphs.verify_coloring(graph, palettes, report.coloring)
    if not verdict.ok:
        problems.append(f"coloring rejected: {verdict.summary()}")
    widest = report.stats["max_edge_bits_per_round"]
    budget = bandwidth_bits(graph.n, config)
    if widest > budget:
        problems.append(f"{widest} bits on an edge in one round, budget {budget}")
    problems += workload.guard(workload, report)
    return problems


def _speed_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Rescales wall seconds to a fixed host speed.

    A shared host can run the same code up to twice as slowly for minutes at
    a time, because of load outside this process; on the host the benchmark
    was defined on, the medians of ten runs spread by more than the bounds
    allow. A fixed pure-Python loop, which allocates nothing and touches
    nothing of the program, is timed before and after each timed interval.
    `scale` multiplies the interval by REFERENCE_LOOP_S over the mean of the
    two loop times.
    """

    def __init__(self):
        self.loop_s = [_speed_loop()]

    def scale(self, wall_s: float) -> float:
        self.loop_s.append(_speed_loop())
        return wall_s * REFERENCE_LOOP_S / statistics.mean(self.loop_s[-2:])


def build_instance(workload, seed: int, host: HostSpeed, tracer=None):
    """Build the instance SETUP_REPEATS times, traced when a tracer is given;
    returns the last graph and lists and every (wall, scaled) set-up time."""
    setup_s = []
    graph = palettes = None
    for _ in range(SETUP_REPEATS):
        graph = palettes = None
        gc.collect()
        if tracer:
            tracer.new_trace()
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            graph, palettes = workload.build(seed)
            wall = time.perf_counter() - t0
        setup_s.append((wall, host.scale(wall)))
    return graph, palettes, setup_s


def timed_call(workload, graph, palettes, config, seed: int, tracer=None):
    """One audited `run_pipeline` call, traced when a tracer is given.
    Returns (seconds, report, problems); a call that raised has no report."""
    gc.collect()
    if tracer:
        tracer.new_trace()
    try:
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            report = harness.run_pipeline(graph, palettes, config, seed)
            elapsed = time.perf_counter() - t0
    except Exception:      # any failure of the program is a failed run
        traceback.print_exc()
        return None, None, ["run_pipeline raised"]
    return elapsed, report, audit(workload, graph, palettes, config, report)


def measure(workload, seed: int, seconds: float, trace: bool,
            span_path: str | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    config = SimConfig(**workload.config)
    tracer = Tracer() if trace else None
    host = HostSpeed()
    graph, palettes, setup_s = build_instance(workload, seed, host, tracer)
    print(f"perfbench {workload.name} seed={seed}: n={graph.n} m={graph.m} "
          f"delta={graph.delta}, {SETUP_REPEATS} set-ups")

    times = {False: [], True: []}      # traced? -> (wall, scaled) call times
    per_trace = []
    attempted = failed = 0
    digest = report = None
    deadline = time.perf_counter() + seconds
    while not failed:
        # traced runs alternate which call of a pair goes first, so that a
        # first-call penalty does not land on one side of trace.overhead_s
        order = (False, True) if len(times[True]) % 2 == 0 else (True, False)
        for on in (order if trace else (False,)):
            attempted += 1
            elapsed, report, problems = timed_call(
                workload, graph, palettes, config, seed, tracer if on else None)
            if report is not None:
                run_digest = bill_digest(report)
                if digest is None:
                    digest = run_digest
                    print(f"bill_digest {digest} branch={report.branch}")
                elif run_digest != digest:
                    problems.append(f"bill digest {run_digest} differs from {digest}")
            if problems:
                failed += 1
                print(f"FAILED call {attempted}: " + "; ".join(problems),
                      file=sys.stderr)
                break
            times[on].append((elapsed, host.scale(elapsed)))
            if on:
                per_trace.append(tracer.trace_metrics(tracer.trace_id))
        if time.perf_counter() >= deadline:
            break

    metrics = {}
    if not failed:
        wall = {on: [w for w, _ in times[on]] for on in times}
        scaled = {on: [x for _, x in times[on]] for on in times}
        if trace:
            values = median_metrics(per_trace)
            values["graphs.generate_s"] = statistics.median(
                tracer.span_times("graphs.generate"))
            values["graphs.make_palettes_s"] = statistics.median(
                tracer.span_times("graphs.make_palettes"))
            values["trace.overhead_s"] = (statistics.median(wall[True])
                                          - statistics.median(wall[False]))
            metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                       for name in PER_LAYER}
        else:
            values = {
                "pipeline_s": statistics.median(scaled[False]),
                "setup_s": statistics.median(x for _, x in setup_s),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "sim_rounds": report.stats["rounds"],
                "sim_messages": report.stats["total_messages"],
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            print(f"{name:36s} {m['value']:<22} {m['unit']}")
        kind = "traced " if trace else ""
        print(f"{len(wall[trace])} {kind}calls took "
              + " ".join(f"{t:.3f}" for t in wall[trace])
              + f" s wall, median {statistics.median(wall[trace]):.4f} s; "
              f"scaled to the reference host speed, median "
              f"{statistics.median(scaled[trace]):.4f} s")
        print(f"{SETUP_REPEATS} set-ups took "
              + " ".join(f"{w:.3f}" for w, _ in setup_s) + " s wall; "
              f"speed loop median {statistics.median(host.loop_s):.4f} s, "
              f"reference {REFERENCE_LOOP_S} s")
    print(f"failed_runs {failed} of {attempted} attempted")
    if tracer and span_path:
        os.makedirs(os.path.dirname(span_path), exist_ok=True)
        tracer.write_jsonl(span_path)
        print(f"spans written to {span_path}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    span_path = os.path.join(
        ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), span_path)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
