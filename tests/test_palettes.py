"""The color-list pool of `PaletteAssignment`: the same lists as the plain
frozenset dicts, looked up without ever building them on the pipeline path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congestcolor.config import SimConfig
from congestcolor.graphs import (
    PaletteAssignment,
    generate,
    load_palettes,
    make_palettes,
    verify_coloring,
)
from congestcolor.harness import run_pipeline
from graph_oracles import save_palettes
from palette_reference import reference_load_palettes, reference_make_palettes


def assert_pool_holds(pal, n, lists):
    """`pal`'s pool gives node v exactly lists[v], rows ascending, for v < n."""
    rows = pal.node_rows(n)
    ptr, colors = pal.pool_ptr, pal.pool_colors
    assert ((rows >= -1) & (rows < ptr.size - 1)).all()
    for v in range(n):
        got = colors[ptr[rows[v]]:ptr[rows[v] + 1]] if rows[v] >= 0 else None
        assert (got is None) == (v not in lists)
        if got is not None:
            assert (np.diff(got) > 0).all() and set(got.tolist()) == lists[v]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["gnp", "star", "cycle", "planted_almost_cliques"]),
       st.integers(3, 40), st.integers(0, 2 ** 16),
       st.sampled_from(["shared", "random"]),
       st.sampled_from(["delta_plus_one", "deg_plus_one"]),
       st.sampled_from([None, 0, 3]))
def test_make_palettes_matches_the_frozenset_reference(model, n, seed, mode, kind, spare):
    params = ({"k": 2, "delta": n // 4 + 1} if model == "planted_almost_cliques"
              else {"n": n, "p": 0.2})
    g = generate(model, params, seed)
    # a colorspace just wide enough makes random lists collide and share values
    u_size = None if spare is None else g.delta + 1 + spare
    pal = make_palettes(g, seed, colorspace_size=u_size, mode=mode, kind=kind)
    want_u, want = reference_make_palettes(g, seed, u_size, mode, kind)
    assert pal.colorspace_size == want_u
    assert_pool_holds(pal, g.n, want)
    assert dict(pal.lists) == want
    if mode == "shared":
        assert pal.pool_ptr.size - 1 == len(set(want.values()))


@st.composite
def palette_texts(draw):
    """A palette file: a few list shapes over a small colorspace, on a shuffled
    subset of node ids, colors repeated and unordered within a line."""
    u_size = draw(st.integers(1, 8))
    shapes = draw(st.lists(st.lists(st.integers(1, u_size), max_size=6),
                           min_size=1, max_size=4))
    nodes = draw(st.lists(st.integers(0, 30), unique=True, max_size=20))
    lines = [f"{v}: " + " ".join(map(str, draw(st.sampled_from(shapes))))
             for v in nodes]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), f"U {u_size}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(palette_texts())
def test_load_palettes_matches_the_frozenset_reference(text):
    pal = load_palettes(text)
    want_u, want = reference_load_palettes(text)
    assert pal.colorspace_size == want_u
    assert_pool_holds(pal, 32, want)
    # equal lines share one row, rows numbered by their first node
    assert pal.pool_ptr.size - 1 == len(set(want.values()))
    firsts = [pal.list_id[v] for v in sorted(want)]
    assert [r for i, r in enumerate(firsts) if r not in firsts[:i]] == \
        list(range(pal.pool_ptr.size - 1))
    assert load_palettes(save_palettes(pal)).lists == pal.lists


def test_negative_node_id_is_refused():
    with pytest.raises(ValueError, match=r"negative node id at line 2: '-1: 1 2'"):
        load_palettes("U 3\n-1: 1 2\n0: 1 2\n")
    with pytest.raises(ValueError, match="node -2 has a negative id"):
        PaletteAssignment(3, {0: {1}, -2: {1}})


def test_lists_view_is_read_only():
    pal = PaletteAssignment(3, {0: {1, 2}, 2: {2, 3}})
    assert dict(pal.lists) == {0: frozenset({1, 2}), 2: frozenset({2, 3})}
    with pytest.raises(TypeError):
        pal.lists[1] = frozenset({1})
    with pytest.raises(ValueError):
        pal.pool_colors[0] = 5


def test_colored_node_without_a_list_is_off_list():
    g = generate("path", {"n": 3}, seed=0)
    pal = PaletteAssignment(3, {0: {1, 2}, 1: {1, 2}})
    rep = verify_coloring(g, pal, {0: 1, 1: 2, 2: 1})
    assert rep.off_list_nodes == [2] and not rep.ok
    # no list at all: every colored node is off-list
    rep = verify_coloring(g, PaletteAssignment(3, {}), {1: 1, 0: 2})
    assert rep.off_list_nodes == [1, 0]


@pytest.mark.parametrize("model, params, cfg", [
    ("cycle", {"n": 64}, {}),
    ("planted_almost_cliques", {"k": 2, "delta": 64, "removal": 0.01, "inter_p": 0.0},
     {"c_small": 0.002, "c_layer": 0.25}),
])
@pytest.mark.parametrize("mode", ["shared", "random"])
def test_pipeline_never_builds_the_lists_view(monkeypatch, model, params, cfg, mode):
    g = generate(model, params, seed=1)
    pal = make_palettes(g, seed=2, mode=mode)

    def refuse(self):
        raise AssertionError("the lists view was built")
    monkeypatch.setattr(PaletteAssignment, "lists", property(refuse))
    rep = run_pipeline(g, pal, SimConfig(**cfg), 1)
    assert rep.valid and verify_coloring(g, pal, rep.coloring).ok
    assert rep.branch == ("small_degree" if model == "cycle" else "full")
