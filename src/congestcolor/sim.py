"""Round-synchronous network simulation with per-edge bit budgets.

Every primitive books its cost through `charge_phase`: rounds and messages
computed arithmetically (vectorized color trials, tree aggregation, overlay
routing), after asserting that the widest per-edge load fits the budget. A
value wider than the budget is charged over `chunks(bits)` rounds. The
literal message-by-message engine that these charges are checked against
lives in the tests.

Work on disjoint node sets runs in the same rounds: inside
`with network.parallel() as branch:`, each `with branch():` books into its
own ledger, and the block then books, per phase, the most rounds any one
branch spent in it, together with all branches' messages and the widest
edge load. No ledger entry is ever negative.

Per-node randomness is an independent stream derived from
(master_seed, node id), so node scheduling order cannot perturb draws. Node
v's stream is exactly `np.random.default_rng([master_seed, v])`, and the
layer draws of `dense_sparse.partition_layers` are exactly
`default_rng([master_seed, 0xD15E, seed, v])`. Neither is built through
`default_rng`: `seed_words` runs numpy's `SeedSequence` hash for a whole array
of node ids in one pass, and `stream` starts numpy's PCG64 from one node's
words. That hash is fixed and has not changed since numpy 1.17;
`tests/test_rng_streams.py` checks the streams against `default_rng`.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graphs import Graph, PaletteAssignment


class SimError(RuntimeError):
    pass


class BandwidthError(SimError):
    pass


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

    def join(self, branches):
        """Book ledgers of branches that ran side by side, starting at this
        ledger's current round: per phase the most rounds one branch spent
        in it, all their messages and the widest edge load."""
        longest = {}
        for b in branches:
            self.total_messages += b.total_messages
            self.max_edge_bits_per_round = max(self.max_edge_bits_per_round,
                                               b.max_edge_bits_per_round)
            for phase, rounds in b.per_phase.items():
                longest[phase] = max(longest.get(phase, 0), rounds)
        for phase, rounds in longest.items():
            self.add(phase, rounds, 0, 0)

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the constants
# of the entropy pool mix, of the word mix and of generate_state
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(x: int) -> list:
    """An entropy integer as SeedSequence reads it: 32-bit words, low first."""
    x = operator.index(x)
    if x < 0:
        raise ValueError(f"expected non-negative integer, got {x}")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def seed_words(prefix, nodes) -> np.ndarray:
    """Row i is `SeedSequence(list(prefix) + [nodes[i]]).generate_state(4,
    np.uint64)`, for every node at once: the (len(nodes), 4) uint64 PCG64
    seeds of the streams `np.random.default_rng(list(prefix) + [v])`. Node
    ids must lie in [0, 2**32), where each is one entropy word."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() > _MASK32):
        raise ValueError("node ids must lie in [0, 2**32)")
    consts = [w for x in prefix for w in _uint32_words(x)]
    entropy = np.empty((len(consts) + 1, nodes.size), dtype=np.uint32)
    entropy[:-1] = np.array(consts, dtype=np.uint32)[:, None]
    entropy[-1] = nodes
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> _XSHIFT)

    zero = np.zeros(nodes.size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))
    # generate_state: 8 words cycling over the pool, paired little-endian
    state = np.empty((nodes.size, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose one PCG64 seed is already computed."""

    __slots__ = ("_words",)

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset seed holds only 4 uint64 words")
        return self._words


def stream(words) -> np.random.Generator:
    """The generator seeded by one row of `seed_words`."""
    return np.random.Generator(np.random.PCG64(_PresetSeed(words)))


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
        self.stats = RoundStats()     # the current ledger; see `parallel`
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
        self._seed_words = None       # (n, 4) PCG64 seeds, on the first draw
        self._tree_cache: dict = {}
        self.trace: list = [] if config.trace else None

    # -- randomness ---------------------------------------------------------

    def rng(self, v: int):
        """Node v's stream, `np.random.default_rng([master_seed, v])`."""
        g = self._rngs.get(v)
        if g is None:
            if not 0 <= v < self.graph.n:
                raise ValueError(f"no node {v} in a {self.graph.n}-node network")
            if self._seed_words is None:
                self._seed_words = seed_words([self.master_seed],
                                              np.arange(self.graph.n))
            g = self._rngs[v] = stream(self._seed_words[v])
        return g

    # -- accounting ---------------------------------------------------------

    def chunks(self, bits: int) -> int:
        """Rounds needed to push `bits` over one edge."""
        return max(1, math.ceil(bits / self.bandwidth_bits))

    def charge_phase(self, phase: str, rounds: int, messages: int = 0,
                     max_edge_bits: int = 0):
        if rounds < 0:
            raise SimError(f"phase {phase}: negative rounds {rounds}")
        if max_edge_bits > self.bandwidth_bits:
            raise BandwidthError(
                f"phase {phase}: {max_edge_bits} bits on an edge exceeds "
                f"budget {self.bandwidth_bits}"
            )
        self.stats.add(phase, rounds, messages, max_edge_bits)

    @property
    def round_counter(self) -> int:
        """The current round: the rounds booked so far, inside a parallel
        branch counted from the start of its block."""
        return self.stats.rounds

    @contextmanager
    def parallel(self):
        """Run work on disjoint node sets in the same rounds.

        Yields `branch`; each `with branch():` books into a fresh ledger that
        starts at the block's start round. On exit the block books the
        branches' ledgers with `RoundStats.join`. Blocks nest.
        """
        parent = self.stats
        start = parent.rounds
        branches = []

        @contextmanager
        def branch():
            if self.stats is not parent:
                raise SimError("a parallel branch must run directly in its block")
            self.stats = RoundStats(rounds=start)
            try:
                yield
                branches.append(self.stats)
            finally:
                self.stats = parent

        yield branch
        parent.join(branches)

    def log(self, node: int, event: str, detail: str = ""):
        if self.trace is not None:
            self.trace.append((self.round_counter, node, event, detail))

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
