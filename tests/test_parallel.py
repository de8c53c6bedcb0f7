"""`Network.parallel()`: work on disjoint node sets is billed at the cost of
its slowest branch, phase by phase, and never as negative rounds."""

import pytest
from hypothesis import given, settings, strategies as st

from congestcolor.config import SimConfig
from congestcolor.graphs import Graph, generate, make_palettes
from congestcolor.sim import BandwidthError, SimError, new_network
from congestcolor.small_degree import decompose_clusters

BUDGET = 8           # bits per edge per round on the test network
PHASES = ("a", "b", "c")


def mk(graph=None):
    g = graph if graph is not None else generate("path", {"n": 4}, seed=0)
    pal = make_palettes(g, seed=1, mode="shared")
    return new_network(g, pal, SimConfig(bandwidth_bits=BUDGET), 0)


# a program is a list of steps: ("charge", phase, rounds, messages, bits) or
# ("block", [(key, program), ...]), a parallel block with one program per
# branch piece; a piece with a key resumes the block's earlier piece with that
# key, and a piece with key None is a branch of its own
charges = st.tuples(st.just("charge"), st.sampled_from(PHASES),
                    st.integers(0, 6), st.integers(0, 50),
                    st.integers(0, BUDGET))
programs = st.recursive(
    st.lists(charges, max_size=4),
    lambda inner: st.lists(
        st.one_of(charges, st.tuples(st.just("block"), st.lists(
            st.tuples(st.sampled_from([None, "x", "y"]), inner),
            max_size=3))),
        max_size=4),
    max_leaves=20,
)


def expected(program):
    """(per-phase rounds, messages, widest edge) the rule bills for a program
    run from an empty ledger: charges add up; a block adds, per phase, the
    largest amount any branch spent, all branches' messages and the widest
    edge of any branch, where a branch runs its pieces one after another."""
    per_phase, messages, bits = {}, 0, 0
    for step in program:
        if step[0] == "charge":
            _, phase, r, m, b = step
            spent = {phase: r}
        else:
            ledgers = {}
            for key, piece in step[1]:
                ledgers.setdefault(object() if key is None else key,
                                   []).extend(piece)
            branches = [expected(p) for p in ledgers.values()]
            spent = {}
            for pp, _, _ in branches:
                for phase, r in pp.items():
                    spent[phase] = max(spent.get(phase, 0), r)
            m = sum(m for _, m, _ in branches)
            b = max([0] + [b for _, _, b in branches])
        for phase, r in spent.items():
            per_phase[phase] = per_phase.get(phase, 0) + r
        messages += m
        bits = max(bits, b)
    return per_phase, messages, bits


def run(net, program):
    for step in program:
        if step[0] == "charge":
            _, phase, r, m, b = step
            net.charge_phase(phase, r, m, b)
            continue
        start = net.round_counter
        with net.parallel() as branch:
            spent = {}
            for key, sub in step[1]:
                with branch(key):
                    assert net.round_counter == start + spent.get(key, 0)
                    run(net, sub)
                    if key is not None:
                        spent[key] = net.round_counter - start
        assert net.round_counter >= start


@settings(max_examples=200, deadline=None)
@given(programs)
def test_block_books_each_phase_at_its_slowest_branch(program):
    net = mk()
    run(net, program)
    per_phase, messages, bits = expected(program)
    snap = net.stats.snapshot()
    assert snap["per_phase"] == per_phase
    assert snap["total_messages"] == messages
    assert snap["max_edge_bits_per_round"] == bits
    assert snap["rounds"] == sum(per_phase.values()) == net.round_counter
    assert all(r >= 0 for r in snap["per_phase"].values())


@settings(max_examples=100, deadline=None)
@given(programs, st.integers(1, 4))
def test_identical_branches_cost_one_branch(program, k):
    alone = mk()
    run(alone, program)
    side_by_side = mk()
    run(side_by_side, [("block", [(None, program)] * k)])
    a, b = alone.stats.snapshot(), side_by_side.stats.snapshot()
    assert b["rounds"] == a["rounds"]
    assert b["per_phase"] == a["per_phase"]
    assert b["total_messages"] == k * a["total_messages"]
    assert b["max_edge_bits_per_round"] == a["max_edge_bits_per_round"]


def test_resumed_branch_continues_its_ledger():
    net = mk()
    with net.parallel() as branch:
        with branch("a"):
            net.charge_phase("a", 2, 1, 1)
        with branch("b"):
            net.charge_phase("a", 3, 1, 1)
        with branch("a"):
            assert net.round_counter == 2
            net.charge_phase("a", 2, 1, 1)
    # "a" spent 4 rounds in its two pieces, "b" 3
    assert net.stats.per_phase == {"a": 4}
    assert net.stats.total_messages == 3


def test_two_disjoint_copies_cost_one_copy():
    # two 12-cycles; the ball carving is deterministic, so both copies cost
    # exactly what one costs on its own
    edges = [(i, (i + 1) % 12) for i in range(12)]
    g = Graph(24, edges + [(u + 12, v + 12) for u, v in edges])
    one = mk(g)
    decompose_clusters(one, range(12))
    both = mk(g)
    with both.parallel() as branch:
        for comp in (range(12), range(12, 24)):
            with branch():
                decompose_clusters(both, comp)
    assert both.stats.rounds == one.stats.rounds
    assert both.stats.per_phase == one.stats.per_phase
    assert both.stats.total_messages == 2 * one.stats.total_messages


def test_branches_of_one_block_do_not_nest():
    net = mk()
    with pytest.raises(SimError, match="directly in its block"):
        with net.parallel() as branch:
            with branch():
                with branch():
                    pass
    # the failed block books nothing and leaves the network's ledger current
    assert net.round_counter == 0
    net.charge_phase("a", 1)
    assert net.stats.per_phase == {"a": 1}


def test_charge_above_budget_raises():
    net = mk()
    net.charge_phase("fits", 1, 1, BUDGET)
    with pytest.raises(BandwidthError, match="exceeds budget"):
        net.charge_phase("wide", 1, 1, BUDGET + 1)


def test_negative_rounds_rejected():
    net = mk()
    with pytest.raises(SimError, match="negative"):
        net.charge_phase("refund", -1)
