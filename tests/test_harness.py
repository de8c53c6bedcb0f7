import json
import os

import pytest

from congestcolor.cli import main
from congestcolor.config import SimConfig
from congestcolor.graphs import (
    PaletteAssignment,
    generate,
    make_palettes,
)
from congestcolor.harness import (
    load_results_csv,
    results_csv,
    run_pipeline,
    small_degree_branch,
    stats_tests,
    sweep,
    verdict_text,
    write_report,
)
from graph_oracles import save_edge_list, save_palettes


def run_on(model, params, seed=0, **cfg):
    g = generate(model, params, seed)
    pal = make_palettes(g, seed=seed + 1)
    return run_pipeline(g, pal, SimConfig(**cfg), seed)


def test_small_branch_taken_at_low_degree():
    g = generate("gnp", {"n": 256, "p": 8.0 / 256.0}, seed=0)
    assert small_degree_branch(g, SimConfig())
    rep = run_on("gnp", {"n": 256, "p": 8.0 / 256.0}, seed=0)
    assert rep.branch == "small_degree"
    assert rep.valid


def test_full_branch_on_planted_instance():
    rep = run_on(
        "planted_almost_cliques", {"k": 1, "delta": 128, "removal": 0.05},
        seed=1, c_small=0.005, c_layer=0.25,
    )
    assert rep.branch == "full"
    assert rep.valid
    assert rep.acd_info["cliques"]
    assert all(o["max_congestion"] <= 2 for o in rep.overlay_info.values())


def test_clique_uses_exactly_delta_plus_one_colors():
    rep = run_on("complete", {"n": 65}, seed=2)
    assert rep.valid
    assert rep.colors_used == 65


def shared_lists(g):
    """`g`'s shared lists as a dict that a test may edit."""
    return dict(make_palettes(g, seed=1, mode="shared").lists)


def test_missing_list_rejected_at_the_boundary():
    g = generate("cycle", {"n": 64}, seed=0)
    lists = shared_lists(g)
    del lists[5]
    with pytest.raises(ValueError, match="node 5 has no color list"):
        run_pipeline(g, PaletteAssignment(3, lists), SimConfig(), 0)


def test_short_list_rejected_at_the_boundary():
    g = generate("cycle", {"n": 64}, seed=0)
    pal = PaletteAssignment(3, {v: frozenset((1, 2)) for v in range(g.n)})
    with pytest.raises(ValueError, match=r"node 0 has 2 colors, needs at least deg\+1 = 3"):
        run_pipeline(g, pal, SimConfig(), 0)
    lists = shared_lists(g)
    lists[13] = frozenset((1, 2))
    with pytest.raises(ValueError, match="node 13 has 2 colors"):
        run_pipeline(g, PaletteAssignment(3, lists), SimConfig(), 0)


def test_first_bad_node_in_id_order_is_named():
    g = generate("cycle", {"n": 64}, seed=0)
    # a short list before a missing one
    lists = shared_lists(g)
    lists[7] = frozenset((1, 2))
    del lists[20]
    with pytest.raises(ValueError, match="node 7 has 2 colors"):
        run_pipeline(g, PaletteAssignment(3, lists), SimConfig(), 0)
    # a missing list before a short one
    lists = shared_lists(g)
    del lists[7]
    lists[20] = frozenset((1, 2))
    with pytest.raises(ValueError, match="node 7 has no color list"):
        run_pipeline(g, PaletteAssignment(3, lists), SimConfig(), 0)
    # an empty list is a list: it is short, not missing
    lists = shared_lists(g)
    lists[3] = frozenset()
    with pytest.raises(ValueError, match="node 3 has 0 colors"):
        run_pipeline(g, PaletteAssignment(3, lists), SimConfig(), 0)
    # a missing last node: the pool's node rows end before it
    lists = shared_lists(g)
    del lists[63]
    with pytest.raises(ValueError, match="node 63 has no color list"):
        run_pipeline(g, PaletteAssignment(3, lists), SimConfig(), 0)


def test_reports_reproducible():
    a = run_on("gnp", {"n": 512, "p": 0.02}, seed=7)
    b = run_on("gnp", {"n": 512, "p": 0.02}, seed=7)
    assert a.to_json() == b.to_json()


def test_write_report_files(tmp_path):
    rep = run_on("cycle", {"n": 32}, seed=0)
    write_report(rep, str(tmp_path), "demo")
    assert (tmp_path / "demo.json").exists()
    assert (tmp_path / "demo.trajectory.csv").exists()
    data = json.loads((tmp_path / "demo.json").read_text())
    assert data["valid"] is True
    lines = (tmp_path / "demo.coloring.txt").read_text().splitlines()
    assert len(lines) == 32


def test_sweep_and_results_roundtrip(tmp_path):
    spec = {
        "runs": [
            {"model": "cycle", "params": {"n": 24}, "seeds": [0, 1]},
            {"model": "complete", "params": {"n": 17}, "seeds": [0]},
        ]
    }
    rows = sweep(spec, outdir=str(tmp_path))
    assert len(rows) == 3
    assert all(r["valid"] for r in rows)
    loaded = load_results_csv((tmp_path / "results.csv").read_text())
    assert loaded == rows


def test_empty_sweep_and_empty_stats():
    assert sweep({"runs": []}) == []
    with pytest.raises(ValueError, match="no results"):
        stats_tests([])


def test_stats_verdicts_detect_failure():
    rows = sweep({"runs": [{"model": "complete", "params": {"n": 9},
                            "seeds": [0, 1]}]})
    verdicts = stats_tests(rows)
    assert all(ok for _, _, _, ok in verdicts)
    rows[0]["valid"] = False
    verdicts = stats_tests(rows)
    flags = {name: ok for name, _, _, ok in verdicts}
    assert flags["validity_fraction"] is False


def test_verdict_text_format():
    text = verdict_text([("x", "== 1.0", 1.0, True), ("y", "== 0", 3, False)])
    lines = text.strip().splitlines()
    assert lines[0] == "criterion,threshold,observed,pass"
    assert lines[1].endswith("pass")
    assert lines[2].endswith("FAIL")


def test_cli_run_verify_sweep_stats(tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--gen", "gnp", "--n", "128", "--delta", "6",
                 "--seed", "3", "--out", out]) == 0
    produced = [f for f in os.listdir(out) if f.endswith(".coloring.txt")]
    assert len(produced) == 1

    g = generate("gnp", {"n": 128, "p": 6.0 / 128.0}, seed=3)
    gpath = tmp_path / "g.col"
    gpath.write_text(save_edge_list(g))
    pal = make_palettes(g, seed=4)
    ppath = tmp_path / "p.txt"
    ppath.write_text(save_palettes(pal))
    assert main(["verify", "--graph", str(gpath),
                 "--coloring", os.path.join(out, produced[0])]) == 0

    spec = {"runs": [{"model": "cycle", "params": {"n": 20}, "seeds": [0]}]}
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    sweep_out = str(tmp_path / "sweep")
    assert main(["sweep", "--spec", str(spath), "--out", sweep_out]) == 0
    assert main(["stats", "--results", sweep_out]) == 0
    assert (tmp_path / "sweep" / "verdicts.csv").exists()


def test_cli_verify_flags_bad_coloring(tmp_path):
    g = generate("complete", {"n": 4}, seed=0)
    gpath = tmp_path / "g.col"
    gpath.write_text(save_edge_list(g))
    cpath = tmp_path / "bad.txt"
    cpath.write_text("0 1\n1 1\n2 2\n3 3\n")
    assert main(["verify", "--graph", str(gpath),
                 "--coloring", str(cpath)]) == 1


@pytest.mark.parametrize("text, problem", [
    ("0 1\n1 2 3\n2 1\n", "line 2: expected '<node> <color>', got '1 2 3'"),
    ("0 1\n1 2\n0 2\n2 1\n", "line 3: node 0 is listed twice"),
    ("0 1\n\n7 2\n2 1\n", "line 3: node 7 is not in the 3-node graph"),
])
def test_cli_verify_rejects_malformed_coloring(tmp_path, capsys, text, problem):
    gpath = tmp_path / "g.col"
    gpath.write_text(save_edge_list(generate("path", {"n": 3}, seed=0)))
    cpath = tmp_path / "c.txt"
    cpath.write_text(text)
    assert main(["verify", "--graph", str(gpath),
                 "--coloring", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert err == f"verify: {cpath} {problem}\n"


@pytest.mark.parametrize("which, text, problem", [
    ("palettes", "U 3\n0: 1 2\n0: 2 3\n", "node 0 is listed twice at line 3"),
    ("palettes", "U 3\nx: 1 2 3\n", "malformed line 2: 'x: 1 2 3'"),
    ("palettes", "U three\n0: 1 2\n", "malformed line 1: 'U three'"),
    ("palettes", "U 3\n-1: 1 2\n0: 1 2\n", "negative node id at line 2: '-1: 1 2'"),
    ("graph", "p edge 3 2\ne 1 9\n", "node id out of range at line 2"),
])
def test_cli_verify_rejects_malformed_graph_or_palettes(tmp_path, capsys, which,
                                                        text, problem):
    paths = {"graph": tmp_path / "g.col", "palettes": tmp_path / "p.txt"}
    paths["graph"].write_text(save_edge_list(generate("path", {"n": 3}, seed=0)))
    paths["palettes"].write_text("U 3\n0: 1 2\n1: 1 2\n2: 1 2\n")
    paths[which].write_text(text)
    cpath = tmp_path / "c.txt"
    cpath.write_text("0 1\n1 2\n2 1\n")
    assert main(["verify", "--graph", str(paths["graph"]), "--coloring", str(cpath),
                 "--palettes", str(paths["palettes"])]) == 2
    assert capsys.readouterr().err == f"verify: {paths[which]}: {problem}\n"


def test_cli_verify_rejects_a_node_without_list(tmp_path, capsys):
    gpath = tmp_path / "g.col"
    gpath.write_text(save_edge_list(generate("path", {"n": 3}, seed=0)))
    cpath = tmp_path / "c.txt"
    cpath.write_text("0 1\n2 1\n1 2\n")
    ppath = tmp_path / "p.txt"
    ppath.write_text("U 3\n0: 1 2\n1: 1 2\n")
    assert main(["verify", "--graph", str(gpath), "--coloring", str(cpath),
                 "--palettes", str(ppath)]) == 2
    err = capsys.readouterr().err
    assert err == f"verify: {cpath} line 2: node 2 has no list in {ppath}\n"


PATH3 = "p edge 3 2\ne 1 2\ne 2 3\n"          # the path 0 - 1 - 2


@pytest.mark.parametrize("argv, name, text, problem", [
    (["run", "--graph", "{f}"], "g.col", "p edge 3 2\ne 1 9\n",
     "node id out of range at line 2"),
    (["run", "--graph", "{f}"], "nope.col", None, "No such file or directory"),
    (["run", "--gen", "path", "--n", "3", "--config", "{f}"], "bad.cfg", "k4=-1\n",
     "k4 must be >= 0"),
    (["run", "--gen", "path", "--n", "3", "--config", "{f}"], "bad.cfg", "k9=1\n",
     "unknown config key k9"),
    (["run", "--graph", "{g}", "--palettes", "{f}"], "p.txt",
     "U 3\n0: 1 2\n0: 2 3\n", "node 0 is listed twice at line 3"),
    (["run", "--graph", "{g}", "--palettes", "{f}"], "p.txt",
     "U 3\n0: 1 2\n1: 1 2 3\n", "node 2 has no color list"),
    (["run", "--graph", "{g}", "--palettes", "{f}"], "p.txt",
     "U 3\n0: 1 2\n-1: 1 2 3\n", "negative node id at line 3: '-1: 1 2 3'"),
    (["sweep", "--spec", "{f}"], "spec.json", "{runs: []}",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["sweep", "--spec", "{f}"], "spec.json",
     '{"runs": [{"model": "torus", "params": {"n": 4}}]}',
     "unknown graph model: torus"),
    (["sweep", "--spec", "{f}"], "spec.json",
     '{"runs": [{"model": "cycle", "params": {"n": 5}, "config": {"k4": -1}}]}',
     "k4 must be >= 0"),
    (["sweep", "--spec", "{f}"], "nope.json", None, "No such file or directory"),
    (["stats", "--results", "{d}"], "results.csv", "model,n\n1,2\n",
     "unrecognized results header"),
    (["stats", "--results", "{d}"], "results.csv", None, "No such file or directory"),
    (["verify", "--graph", "{f}", "--coloring", "{c}"], "nope.col", None,
     "No such file or directory"),
    (["verify", "--graph", "{g}", "--coloring", "{f}"], "nope.txt", None,
     "No such file or directory"),
], ids=[
    "run-graph-bad-edge", "run-graph-missing", "run-config-bad-value",
    "run-config-bad-key", "run-palettes-twice", "run-palettes-short",
    "run-palettes-negative-node",
    "sweep-spec-not-json", "sweep-spec-bad-model", "sweep-spec-bad-config",
    "sweep-spec-missing", "stats-bad-header", "stats-missing",
    "verify-graph-missing", "verify-coloring-missing"
])
def test_cli_input_errors_exit_2_with_one_line(tmp_path, capsys, argv, name,
                                               text, problem):
    """Every command names the file and the problem on one line, exit 2."""
    (tmp_path / "g.col").write_text(PATH3)
    (tmp_path / "c.txt").write_text("0 1\n1 2\n2 1\n")
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    args = [a.format(f=path, g=tmp_path / "g.col", c=tmp_path / "c.txt",
                     d=tmp_path) for a in argv]
    assert main(args + ["--out", str(tmp_path / "out")]
                if argv[0] in ("run", "sweep") else args) == 2
    assert capsys.readouterr().err == f"{argv[0]}: {path}: {problem}\n"


def test_results_csv_header_check():
    with pytest.raises(ValueError, match="header"):
        load_results_csv("nope\n1,2\n")
    rows = [{
        "model": "cycle", "n": 4, "delta": 2, "seed": 0, "branch": "small_degree",
        "rounds": 10, "messages": 20, "max_edge_bits": 8, "bandwidth": 8,
        "colors_used": 3, "valid": True,
    }]
    assert load_results_csv(results_csv(rows)) == rows
