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
from itertools import chain

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


def bandwidth_bits(n: int, config) -> int:
    """Per-edge bits per round on an n-node network: the config's explicit
    override, else b_factor * ceil(log2 n)."""
    if config.bandwidth_bits is not None:
        return int(config.bandwidth_bits)
    return config.b_factor * max(1, math.ceil(math.log2(max(2, n))))


def _bit_width(x: int) -> int:
    return max(1, int(x).bit_length())


class Network:
    """A deterministic simulation instance over one graph + palette set.

    Node state is held in arrays indexed by node id: `color` (-1 while
    uncolored), `udeg` (uncolored neighbors) and `layer` (-1 until a layer
    partition sets it). Node v's list is row v of a CSR of sorted colors,
    `pal_colors[pal_ptr[v]:pal_ptr[v + 1]]`; `removed` marks the entries that
    a colored neighbor took, and `live` counts the rest of each row.
    """

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
        self.color = np.full(n, -1, dtype=np.int64)
        self.udeg = graph.degrees.copy()
        self.layer = np.full(n, -1, dtype=np.int64)
        lists = palettes.lists
        sizes = np.fromiter((len(lists[v]) for v in range(n)), np.int64, n)
        self.pal_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.pal_ptr[1:])
        colors = np.fromiter(chain.from_iterable(lists[v] for v in range(n)),
                             np.int64, int(self.pal_ptr[-1]))
        if colors.size and colors.min() < 0:
            raise SimError("negative color in a list")
        # entry key node * stride + color: sorting the keys sorts every row,
        # and one searchsorted finds any (node, color) pair
        self._stride = int(colors.max()) + 1 if colors.size else 1
        if n * self._stride >= 1 << 63:
            raise SimError(f"colors up to {self._stride - 1} on {n} nodes "
                           f"overflow the 64-bit palette keys")
        owner = np.repeat(np.arange(n, dtype=np.int64), sizes)
        self._keys = owner * self._stride + colors
        self._keys.sort()
        self.pal_colors = self._keys - owner * self._stride
        self.removed = np.zeros(colors.size, dtype=bool)
        self.live = sizes
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

    def palette(self, v: int) -> list:
        """v's live colors, ascending."""
        lo, hi = self.pal_ptr[v], self.pal_ptr[v + 1]
        return self.pal_colors[lo:hi][~self.removed[lo:hi]].tolist()

    def palette_size(self, v: int) -> int:
        return self.live.item(v)

    def palette_contains(self, v: int, c: int) -> bool:
        return bool(self.in_palettes(np.array([v]), np.array([c]))[0])

    def _find(self, nodes, colors):
        """Entry index of each (node, color) pair in the palette CSR, and
        whether the color is on the node's list at all."""
        valid = (colors >= 0) & (colors < self._stride)
        keys = nodes * self._stride + np.where(valid, colors, 0)
        pos = np.searchsorted(self._keys, keys)
        found = valid & (pos < self._keys.size)
        found[found] = self._keys[pos[found]] == keys[found]
        return pos, found

    def in_palettes(self, nodes, colors):
        """Mask: whether colors[i] is live in the palette of nodes[i]."""
        pos, found = self._find(nodes, colors)
        found[found] = ~self.removed[pos[found]]
        return found

    def sample_color(self, v: int, rng) -> int:
        """Uniform draw from v's live palette: uniform entries of the full
        sorted list until one is not removed."""
        if self.live.item(v) <= 0:
            raise SimError("empty palette")
        lo = self.pal_ptr.item(v)
        k = self.pal_ptr.item(v + 1) - lo
        while True:
            i = lo + int(rng.integers(k))
            if not self.removed.item(i):
                return self.pal_colors.item(i)

    def sample_colors(self, v: int, rng, count: int) -> list:
        """Uniform subset of v's live palette, without replacement, in draw
        order: a permutation of the whole live palette when `count` covers
        it, else rejection over the full sorted list."""
        live = self.live.item(v)
        count = min(count, live)
        if count == live:
            pal = self.palette(v)
            return [pal[i] for i in rng.permutation(live).tolist()]
        out = []
        while len(out) < count:
            c = self.sample_color(v, rng)
            if c not in out:
                out.append(c)
        return out

    def assign_color(self, v: int, c: int):
        self.assign_colors([v], [c])

    def assign_colors(self, nodes, colors):
        """Permanently color nodes[i] with colors[i], all in one step. The
        nodes must be distinct and uncolored, each color live in its node's
        palette, and no two adjacent nodes may get the same color; then the
        end state equals that of assigning them one at a time."""
        nodes = np.asarray(nodes, dtype=np.int64)
        colors = np.asarray(colors, dtype=np.int64)
        if not nodes.size:
            return
        bad = self.color[nodes] >= 0
        if bad.any():
            i = int(np.argmax(bad))
            raise SimError(f"node {nodes[i]} recolored "
                           f"(had {self.color[nodes[i]]}, got {colors[i]})")
        bad = ~self.in_palettes(nodes, colors)
        if bad.any():
            i = int(np.argmax(bad))
            raise SimError(f"node {nodes[i]} colored off-palette with {colors[i]}")
        if (np.diff(np.sort(nodes)) == 0).any():
            raise SimError("a node is colored twice in one batch")
        src, nbrs = self.graph.rows(nodes)
        self.color[nodes] = colors
        # a live color is on no colored neighbor outside the batch, so any
        # neighbor with the same color now is a batch member
        bad = self.color[nbrs] == colors[src]
        if bad.any():
            self.color[nodes] = -1
            i = int(np.argmax(bad))
            raise SimError(f"adjacent nodes {nodes[src[i]]} and {nbrs[i]} "
                           f"both colored {colors[src[i]]}")
        if self.trace is not None:
            for v, c in zip(nodes.tolist(), colors.tolist()):
                self.log(v, "color", str(c))
        np.subtract.at(self.udeg, nbrs, 1)
        # strip each new color from the neighbors' lists that hold it
        pos, found = self._find(nbrs, colors[src])
        gone = np.sort(pos[found])
        gone = gone[~self.removed[gone] & (np.diff(gone, prepend=-1) != 0)]
        self.removed[gone] = True
        np.subtract.at(self.live, self._keys[gone] // self._stride, 1)

    def coloring(self) -> dict:
        done = np.flatnonzero(self.color >= 0)
        return dict(zip(done.tolist(), self.color[done].tolist()))

    def uncolored(self) -> list:
        return np.flatnonzero(self.color < 0).tolist()

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
