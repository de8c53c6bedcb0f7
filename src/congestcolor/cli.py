"""Command-line front end: single runs, coloring verification, sweeps, and
statistical verdicts over sweep results."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import SimConfig
from .graphs import (
    PaletteAssignment,
    generate,
    load_edge_list,
    load_palettes,
    make_palettes,
    verify_coloring,
)
from .harness import (
    check_lists,
    load_results_csv,
    run_pipeline,
    stats_tests,
    sweep,
    verdict_text,
    write_report,
)

OUT_ENV = "CONGESTCOLOR_OUT"


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "results")


class InputError(Exception):
    """A named input file is missing or malformed: `<file>: <problem>`."""


def _parse(path: str, parse):
    """parse(the text of the file at path); a file that cannot be read, or a
    ValueError, is an InputError naming the file."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_config(path: str | None, mode: str | None) -> SimConfig:
    cfg = _parse(path, SimConfig.from_text) if path else SimConfig()
    if mode:
        cfg.mode = mode
    return cfg.validate()


def _gen_params(args) -> dict:
    if args.gen == "planted_almost_cliques":
        k = max(1, (args.n or (args.delta + 1)) // (args.delta + 1))
        return {"k": k, "delta": args.delta, "removal": 0.05}
    if args.gen == "clique_union":
        return {"k": max(1, args.n // (args.delta + 1)), "size": args.delta + 1}
    if args.gen == "gnp":
        return {"n": args.n, "p": min(0.5, args.delta / max(1, args.n))}
    return {"n": args.n}


def cmd_run(args) -> int:
    if args.graph:
        graph = _parse(args.graph, load_edge_list)
    elif args.gen:
        graph = generate(args.gen, _gen_params(args), args.seed)
    else:
        print("run: need --graph or --gen", file=sys.stderr)
        return 2
    config = _load_config(args.config, args.mode)
    palettes = (_parse(args.palettes, lambda text: check_lists(graph, load_palettes(text)))
                if args.palettes else make_palettes(graph, seed=args.seed + 1))
    report = run_pipeline(graph, palettes, config, args.seed)
    tag = f"run_n{graph.n}_d{graph.delta}_s{args.seed}"
    write_report(report, args.out, tag)
    print(f"{tag}: branch={report.branch} rounds={report.stats['rounds']} "
          f"colors={report.colors_used} valid={report.valid}")
    return 0


def cmd_verify(args) -> int:
    graph = _parse(args.graph, load_edge_list)
    palettes = _parse(args.palettes, load_palettes) if args.palettes else None
    listed = palettes.node_rows(graph.n) >= 0 if palettes else None
    coloring = {}
    for i, line in enumerate(_parse(args.coloring, str.splitlines), 1):
        if not line.strip():
            continue
        try:
            v, c = map(int, line.split())
            problem = (f"node {v} is listed twice" if v in coloring
                       else f"node {v} is not in the {graph.n}-node graph"
                       if not 0 <= v < graph.n
                       else f"node {v} has no list in {args.palettes}"
                       if palettes and not listed[v] else "")
        except ValueError:
            problem = f"expected '<node> <color>', got {line.strip()!r}"
        if problem:
            print(f"verify: {args.coloring} line {i}: {problem}", file=sys.stderr)
            return 2
        coloring[v] = c
    if palettes is None:
        # no lists supplied: audit properness only, against a permissive list
        colors = set(coloring.values()) or {1}
        palettes = PaletteAssignment(
            max(colors), {v: frozenset(colors) for v in range(graph.n)}
        )
    rep = verify_coloring(graph, palettes, coloring)
    if rep.ok:
        print("valid")
        return 0
    for kind, items in (
        ("monochromatic", rep.monochromatic_edges),
        ("off-list", rep.off_list_nodes),
        ("uncolored", rep.uncolored_nodes),
    ):
        for item in items[:10]:
            print(f"{kind}: {item}")
    return 1


def cmd_sweep(args) -> int:
    try:
        rows = sweep(_parse(args.spec, json.loads), outdir=args.out)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:  # an entry it cannot build
        raise InputError(f"{args.spec}: {exc}") from None
    print(f"{len(rows)} runs -> {os.path.join(args.out, 'results.csv')}")
    return 0


def cmd_stats(args) -> int:
    verdicts = _parse(os.path.join(args.results, "results.csv"),
                      lambda text: stats_tests(load_results_csv(text)))
    text = verdict_text(verdicts)
    out_path = os.path.join(args.results, "verdicts.csv")
    with open(out_path, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0 if all(ok for _, _, _, ok in verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="congestcolor",
        description="Bandwidth-limited distributed (deg+1)-list coloring "
                    "simulator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline once")
    run.add_argument("--graph", help="DIMACS edge-list file")
    run.add_argument("--gen", help="generator model (gnp, complete, star, "
                                   "cycle, path, clique_union, "
                                   "planted_almost_cliques)")
    run.add_argument("--n", type=int, default=256)
    run.add_argument("--delta", type=int, default=16)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mode", choices=("theory", "practical"))
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--palettes", help="palette file (defaults to random "
                                        "Delta+1 lists)")
    run.add_argument("--out", default=_default_out())
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="audit a coloring file")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--coloring", required=True)
    ver.add_argument("--palettes")
    ver.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="run a JSON sweep spec")
    sw.add_argument("--spec", required=True)
    sw.add_argument("--out", default=_default_out())
    sw.set_defaults(func=cmd_sweep)

    st = sub.add_parser("stats", help="evaluate verdicts over sweep results")
    st.add_argument("--results", default=_default_out())
    st.set_defaults(func=cmd_stats)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
