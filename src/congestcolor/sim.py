"""Round-synchronous message-passing engine with per-edge bit budgets.

Two execution paths share the same accounting:

* `run_round` executes literal per-node handlers and enforces the bit budget
  message by message (this is the CONGEST-compliance check: a violation is a
  hard failure naming the node, round, and size).
* `charge_phase` books rounds/messages for bulk primitives (vectorized color
  trials, tree aggregation, overlay routing) whose per-edge load is computed
  arithmetically; it asserts the same per-edge bound before booking.

Per-node randomness is an independent stream derived from
(master_seed, node id), so node scheduling order cannot perturb draws.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, PaletteAssignment


class SimError(RuntimeError):
    pass


class BandwidthError(SimError):
    pass


@dataclass
class Message:
    src: int
    dst: int
    size: int            # bits
    data: object = None


@dataclass
class RoundStats:
    rounds: int = 0
    total_messages: int = 0
    max_edge_bits_per_round: int = 0
    per_phase: dict = field(default_factory=dict)

    def add(self, phase: str, rounds: int, messages: int, max_edge_bits: int):
        self.rounds += rounds
        self.total_messages += messages
        self.max_edge_bits_per_round = max(
            self.max_edge_bits_per_round, max_edge_bits
        )
        self.per_phase[phase] = self.per_phase.get(phase, 0) + rounds

    def snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "max_edge_bits_per_round": self.max_edge_bits_per_round,
            "per_phase": dict(self.per_phase),
        }


class NodeState:
    """Per-node coloring state.

    The palette is represented as the immutable initial list minus the set of
    colors permanently taken by neighbors; this keeps memory proportional to
    the number of removals rather than n * list size.
    """

    __slots__ = ("base", "base_set", "removed", "color", "uncolored_neighbors",
                 "role", "layer")

    def __init__(self, base_colors, neighbors):
        self.base = tuple(sorted(base_colors))
        self.base_set = frozenset(base_colors)
        self.removed = set()
        self.color = None
        self.uncolored_neighbors = set(neighbors)
        self.role = "undecided"   # "undecided" | "sparse" | int AC-ID
        self.layer = None

    def palette_size(self) -> int:
        return len(self.base) - len(self.removed)

    def palette_contains(self, c) -> bool:
        return c in self.base_set and c not in self.removed

    def palette(self) -> set:
        return set(self.base_set) - self.removed

    def sample_color(self, rng) -> int:
        """Uniform draw from the current palette (rejection over the base list)."""
        k = len(self.base)
        live = k - len(self.removed)
        if live <= 0:
            raise SimError("empty palette")
        while True:
            c = self.base[int(rng.integers(k))]
            if c not in self.removed:
                return c

    def sample_colors(self, rng, count: int) -> list:
        """Uniform subset of the palette, without replacement, in draw order."""
        live = self.palette_size()
        count = min(count, live)
        if count == live:
            pal = sorted(self.palette())
            # permute for draw-order semantics
            order = rng.permutation(len(pal))
            return [pal[int(i)] for i in order]
        picked = set()
        out = []
        k = len(self.base)
        while len(out) < count:
            c = self.base[int(rng.integers(k))]
            if c not in self.removed and c not in picked:
                picked.add(c)
                out.append(c)
        return out


def bandwidth_bits(n: int, config) -> int:
    """Per-edge bits per round on an n-node network: the config's explicit
    override, else b_factor * ceil(log2 n)."""
    if config.bandwidth_bits is not None:
        return int(config.bandwidth_bits)
    return config.b_factor * max(1, math.ceil(math.log2(max(2, n))))


def _bit_width(x: int) -> int:
    return max(1, int(x).bit_length())


class Network:
    """A deterministic simulation instance over one graph + palette set."""

    def __init__(self, graph: Graph, palettes: PaletteAssignment, config, seed: int):
        config.validate()
        n = graph.n
        self.graph = graph
        self.palettes = palettes
        self.config = config
        self.master_seed = int(seed)
        self.id_bits = _bit_width(n - 1) if n > 1 else 1
        self.color_bits = _bit_width(palettes.colorspace_size)
        self.bandwidth_bits = bandwidth_bits(n, config)
        if self.bandwidth_bits < self.id_bits:
            raise SimError(
                f"bandwidth {self.bandwidth_bits} bits below one-ID capacity "
                f"({self.id_bits} bits)"
            )
        self.round_counter = 0
        self.stats = RoundStats()
        self.states = [
            NodeState(palettes.lists[v], graph.neighbors[v]) for v in range(n)
        ]
        self._rngs: dict = {}
        self._inboxes: dict = defaultdict(list)
        self._tree_cache: dict = {}
        self.trace: list = [] if config.trace else None

    # -- randomness ---------------------------------------------------------

    def rng(self, v: int):
        g = self._rngs.get(v)
        if g is None:
            g = np.random.default_rng([self.master_seed, v])
            self._rngs[v] = g
        return g

    # -- accounting ---------------------------------------------------------

    def chunks(self, bits: int) -> int:
        """Rounds needed to push `bits` over one edge."""
        return max(1, math.ceil(bits / self.bandwidth_bits))

    def charge_phase(self, phase: str, rounds: int, messages: int = 0,
                     max_edge_bits: int = 0):
        if max_edge_bits > self.bandwidth_bits:
            raise BandwidthError(
                f"phase {phase}: {max_edge_bits} bits on an edge exceeds "
                f"budget {self.bandwidth_bits}"
            )
        self.round_counter += rounds
        self.stats.add(phase, rounds, messages, max_edge_bits)

    def log(self, node: int, event: str, detail: str = ""):
        if self.trace is not None:
            self.trace.append((self.round_counter, node, event, detail))

    def trace_lines(self):
        if self.trace is None:
            return []
        return [f"{r},{v},{e},{d}" for r, v, e, d in self.trace]

    # -- literal handler execution ------------------------------------------

    def run_round(self, handler, phase: str = "round"):
        """Execute one synchronous round.

        handler(v, network, inbox, rng) -> iterable of Message; messages must
        target neighbors and fit the per-edge bit budget. All outboxes are
        exchanged atomically; delivery happens in the next round's inbox.
        """
        n = self.graph.n
        inboxes = self._inboxes
        next_inboxes = defaultdict(list)
        edge_bits = defaultdict(int)
        messages = 0
        rnd = self.round_counter
        for v in range(n):
            out = handler(v, self, inboxes.get(v, []), self.rng(v))
            for msg in out or ():
                if msg.src != v:
                    raise SimError(f"node {v} forged src {msg.src} in round {rnd}")
                if msg.dst not in self.graph.neighbor_sets[v]:
                    raise SimError(
                        f"node {v} sent to non-neighbor {msg.dst} in round {rnd}"
                    )
                if msg.size > self.bandwidth_bits:
                    raise BandwidthError(
                        f"node {v} emitted {msg.size} bits in round {rnd} "
                        f"(budget {self.bandwidth_bits})"
                    )
                key = (v, msg.dst)
                edge_bits[key] += msg.size
                if edge_bits[key] > self.bandwidth_bits:
                    raise BandwidthError(
                        f"node {v} exceeded edge budget to {msg.dst} in round "
                        f"{rnd}: {edge_bits[key]} > {self.bandwidth_bits}"
                    )
                next_inboxes[msg.dst].append(msg)
                messages += 1
        self._inboxes = next_inboxes
        self.round_counter += 1
        max_bits = max(edge_bits.values(), default=0)
        self.stats.add(phase, 1, messages, max_bits)
        return {"rounds": 1, "messages": messages, "max_edge_bits": max_bits}

    # -- permanent coloring bookkeeping -------------------------------------

    def assign_color(self, v: int, c: int):
        st = self.states[v]
        if st.color is not None:
            raise SimError(f"node {v} recolored (had {st.color}, got {c})")
        if not st.palette_contains(c):
            raise SimError(f"node {v} colored off-palette with {c}")
        st.color = c
        if self.trace is not None:
            self.log(v, "color", str(c))
        for u in self.graph.neighbors[v]:
            su = self.states[u]
            su.uncolored_neighbors.discard(v)
            if c in su.base_set:
                su.removed.add(c)

    def coloring(self) -> dict:
        return {
            v: st.color for v, st in enumerate(self.states) if st.color is not None
        }

    def uncolored(self) -> list:
        return [v for v, st in enumerate(self.states) if st.color is None]

    # -- tree aggregation ----------------------------------------------------

    def _bfs_tree(self, cluster: frozenset, root: int):
        key = (root, cluster)
        cached = self._tree_cache.get(key)
        if cached is not None:
            return cached
        depth = self.graph.bfs(root, cluster)
        if len(depth) != len(cluster):
            raise SimError("tree_aggregate: cluster is not connected")
        tree = (depth, max(depth.values()))
        self._tree_cache[key] = tree
        return tree

    def tree_aggregate(self, cluster, root: int, op: str, values=None,
                       value_bits: int | None = None, phase: str = "aggregate"):
        """Aggregate over a connected cluster via its cached BFS tree.

        Returns (result, rounds_used). `broadcast` delivers values[root] to all
        members; convergecast gathers {v: value}; min/sum/bitwise_max/
        bitwise_and reduce per-node integers to the root. Wide values are split
        across rounds and charged accordingly.
        """
        cluster = frozenset(cluster)
        if root not in cluster:
            raise SimError("root not in cluster")
        if value_bits is None:
            value_bits = self.id_bits
        if value_bits > self.config.max_agg_bits:
            raise SimError(
                f"aggregate value of {value_bits} bits exceeds configured "
                f"maximum {self.config.max_agg_bits}"
            )
        depth, tree_depth = self._bfs_tree(cluster, root)
        chunk = self.chunks(value_bits)
        members = len(cluster)
        if op == "broadcast":
            result = {v: values[root] for v in cluster}
            rounds = tree_depth * chunk
            messages = (members - 1) * chunk
        elif op == "convergecast":
            result = {v: values[v] for v in cluster}
            # values pipelined upward: depth to drain plus one slot per value
            rounds = tree_depth + members * chunk
            messages = sum(depth[v] for v in cluster) * chunk
        elif op in ("min", "sum", "bitwise_max", "bitwise_and"):
            vals = [values[v] for v in cluster]
            if op == "min":
                result = min(vals)
            elif op == "sum":
                result = sum(vals)
            elif op == "bitwise_max":
                acc = 0
                for x in vals:
                    acc |= int(x)
                result = acc
            else:
                acc = -1
                for x in vals:
                    acc &= int(x)
                result = acc
            rounds = tree_depth * chunk
            messages = (members - 1) * chunk
        else:
            raise SimError(f"unknown aggregate op {op}")
        max_bits = min(value_bits, self.bandwidth_bits) if members > 1 else 0
        self.charge_phase(phase, rounds, messages, max_bits)
        return result, rounds


def new_network(graph: Graph, palettes: PaletteAssignment, config, seed: int) -> Network:
    return Network(graph, palettes, config, seed)
