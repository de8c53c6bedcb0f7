"""Round-synchronous network simulation with per-edge bit budgets.

Every primitive books its cost through `charge_phase`: rounds and messages
computed arithmetically (vectorized color trials, tree aggregation, overlay
routing), after asserting that the widest per-edge load fits the budget. A
value wider than the budget is charged over `chunks(bits)` rounds. Tree
aggregation is a charge only: `tree_aggregate` books an ID-wide convergecast
and its broadcast over a cached BFS tree and computes no value, since the
simulator already holds every count its callers aggregate. The literal
message-by-message engine that these charges are checked against lives in
the tests.

Work on disjoint node sets runs in the same rounds: inside
`with network.parallel() as branch:`, each `with branch():` books into its
own ledger, and the block then books, per phase, the most rounds any one
branch spent in it, together with all branches' messages and the widest
edge load. No ledger entry is ever negative.

Color lists live in the input's pool (`PaletteAssignment`): each row is one
list's sorted colors, and a node holds only its `list_id` and its own
`removed` row, so nodes that share a row share its colors.

Per-node randomness is an independent stream derived from
(master_seed, node id), so node scheduling order cannot perturb draws. Node
v's stream is exactly `np.random.default_rng([master_seed, v])`, and the
layer draws of `dense_sparse.partition_layers` are exactly
`default_rng([master_seed, 0xD15E, seed, v])`. `seed_words` runs numpy's
`SeedSequence` hash for a whole array of node ids in one pass, and every
draw goes through `Streams`, which holds numpy's PCG64 state of every row in
arrays: `integers` and `random` replay `Generator.integers(high)` and
`Generator.random()` for many rows in one pass, and `integers` takes a row
several times, computing the row's next states by LCG jump-ahead; the
sequential draws run `Generator.permutation` and scalar `Generator.integers`
on each row's state in turn. That hash and that generator
are fixed and have not changed since numpy 1.17; `tests/test_rng_streams.py`
checks the streams against `default_rng`.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, PaletteAssignment, sorted_unique


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


# numpy's PCG64 (O'Neill 2014): a 128-bit LCG with this multiplier, stepped
# before each 64-bit output, which is the XSL-RR of the new state
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG_MULT = _PCG_MULT_HI << 64 | _PCG_MULT_LO


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """a * b mod 2**128 on uint64 halves, a_lo * b_lo's high half from 32-bit limbs."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    u = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> 32) + (u >> 32) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _lcg(hi, lo, inc_hi, inc_lo, m_hi=_PCG_MULT_HI, m_lo=_PCG_MULT_LO):
    """state * m + inc mod 2**128 on uint64 halves; one LCG step by default."""
    hi, lo = _mul128(hi, lo, m_hi, m_lo)
    lo += inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


# jump table column k: M**k and M**0 + ... + M**(k-1) mod 2**128, as uint64 halves
_JUMPS = np.array([[0], [1], [0], [0]], dtype=np.uint64)


def _advance(hi, lo, inc_hi, inc_lo, k):
    """The states k[i] LCG steps on, by the jump table (Brown 1994), grown if need be."""
    global _JUMPS
    if _JUMPS.shape[1] <= np.max(k, initial=0):
        a, c = (x << 64 | y for x, y in _JUMPS[:, -1].reshape(2, 2).tolist())
        more = []
        for _ in range(_JUMPS.shape[1], max(np.max(k) + 1, 2 * _JUMPS.shape[1])):
            a, c = a * _PCG_MULT % (1 << 128), (c * _PCG_MULT + 1) % (1 << 128)
            more.append(divmod(a, 1 << 64) + divmod(c, 1 << 64))
        _JUMPS = np.concatenate([_JUMPS, np.array(more, dtype=np.uint64).T], axis=1)
    a_hi, a_lo, c_hi, c_lo = _JUMPS[:, k]
    return _lcg(hi, lo, *_mul128(inc_hi, inc_lo, c_hi, c_lo), a_hi, a_lo)


def _output(hi, lo):
    """PCG64's 64-bit output of a state: the XSL-RR of its halves."""
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << ((64 - rot) & 63)


def _repeats(rows) -> bool:
    """Whether a row is listed twice; rows in ascending order skip the sort."""
    return rows.size > 1 and (rows[1:] <= rows[:-1]).any() \
        and (np.diff(np.sort(rows)) == 0).any()


# the one generator `Streams._on_row` loads row states into: building a
# generator costs more than a state round trip, so it is built once
_SHUFFLER = np.random.Generator(np.random.PCG64(0))
FIND_CHUNK = 1 << 14  # pairs per pass of `Network._find`
TAIL_ROWS = 64      # `Streams.redraws` goes row by row once this few rows are left


class Streams:
    """The streams `np.random.default_rng(list(prefix) + [v])` of the rows of
    `seed_words(prefix, nodes)`, held in arrays: per row the 128-bit PCG64
    state and increment as uint64 halves, and numpy's flag and buffer for the
    unused high half of a 32-bit draw. `integers` and `random` draw what
    `Generator.integers(high)` and `Generator.random()` draw, for many rows
    in one pass; `integers` takes a row several times, `random` once per
    call. `permutations`, `samples`, `distinct_picks` and the tail of
    `redraws` make a row's many sequential draws on its state in turn,
    through numpy's own generator."""

    def __init__(self, words):
        s_hi, s_lo, i_hi, i_lo = np.asarray(words, dtype=np.uint64).T
        # numpy's seeding: inc = 2 i + 1, state = (inc + s) * multiplier + inc
        self.inc_hi, self.inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
        lo = self.inc_lo + s_lo
        self.hi, self.lo = _lcg(self.inc_hi + s_hi + (lo < s_lo), lo,
                                self.inc_hi, self.inc_lo)
        self.has32 = np.zeros(len(self.hi), dtype=bool)
        self.buf32 = np.zeros(len(self.hi), dtype=np.uint64)

    def _rows(self, rows, once=True):
        rows = np.asarray(rows, dtype=np.int64)
        bad = (rows < 0) | (rows >= self.hi.size)
        if bad.any():
            raise ValueError(f"no row {rows[bad][0]} in {self.hi.size} streams")
        if once and _repeats(rows):
            raise ValueError("a row appears twice in one call")
        return rows

    def _next64(self, rows):
        hi, lo = _lcg(self.hi[rows], self.lo[rows],
                      self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        return _output(hi, lo)

    def _next32(self, rows):
        fresh = ~self.has32[rows]
        out = self.buf32[rows]
        x = self._next64(rows[fresh])
        out[fresh] = x & _MASK32
        self.buf32[rows[fresh]] = x >> 32
        self.has32[rows] = fresh
        return out

    def integers(self, rows, highs) -> np.ndarray:
        """Row rows[i] draws `integers(highs[i])`, 1 <= highs[i] <= 2**32, in
        list order: Lemire's multiply-and-reject on 32-bit draws (Lemire
        2019), in lockstep passes that only rejecting rows redraw, or by
        `_sequences` if a row is listed twice. A high of 1 draws nothing."""
        rows, highs = self._rows(rows, once=False), np.asarray(highs, dtype=np.int64)
        if highs.size and not 1 <= highs.min() <= highs.max() <= 1 << 32:
            raise ValueError("integers needs 1 <= high <= 2**32")
        highs = highs.astype(np.uint64)
        out = np.zeros(rows.size, dtype=np.int64)
        if _repeats(rows):
            return self._sequences(rows, highs, out)
        todo = np.flatnonzero(highs > 1)
        while todo.size:
            m = self._next32(rows[todo]) * highs[todo]
            ok = (m & _MASK32) >= (1 << 32) % highs[todo]
            out[todo[ok]] = m[ok] >> 32
            todo = todo[~ok]
        return out

    def _sequences(self, rows, highs, out) -> np.ndarray:
        """`integers` with a row listed twice: every row's next 32-bit words
        at once by jump-ahead, and Lemire's test on all of them. A row with a
        rejected word draws its whole sequence again on numpy's generator,
        whose `integers(highs)` draws what one call per high would."""
        e = np.flatnonzero(highs > 1)
        e = e[np.argsort(rows[e], kind="stable")]      # by row, in list order
        r = rows[e]
        first = np.flatnonzero(np.diff(r, prepend=-1))    # each row's first draw
        counts = np.diff(first, append=r.size)
        # draw i takes word w[i] of its row: -1 is the buffered word, then the
        # outputs' halves, low first. A low half computes its output w // 2 + 1
        # steps ahead; a leading buffered word computes the row's own state
        w = np.arange(e.size) - np.repeat(first, counts) - self.has32[r]
        low = w & 1 == 0
        fresh = low | (w < 0)
        at = r[fresh]
        hi, lo = _advance(self.hi[at], self.lo[at], self.inc_hi[at], self.inc_lo[at],
                          w[fresh] // 2 + 1)
        step = np.cumsum(fresh) - 1                    # the output draw i takes
        x = _output(hi, lo)[step]
        words = np.where(low, x & _MASK32, x >> 32)
        words[w < 0] = self.buf32[r[w < 0]]
        h = highs[e]
        m = words * h
        out[e] = m >> 32
        redo = np.logical_or.reduceat((m & _MASK32) < (1 << 32) % h, first)
        last = (first + counts - 1)[~redo]             # each kept row's last draw
        self.hi[r[last]], self.lo[r[last]] = hi[step[last]], lo[step[last]]
        self.buf32[r[last[w[last] >= 0]]] = x[last[w[last] >= 0]] >> 32
        self.has32[r[last]] = low[last]
        for i in np.flatnonzero(redo).tolist():
            sel = e[first[i]:first[i] + counts[i]]
            out[sel] = self._on_row(r.item(first[i]),
                                    lambda g: g.integers(highs[sel].astype(np.int64)))
        return out

    def random(self, rows) -> np.ndarray:
        """Row rows[i] draws `random()`: 53 bits of a 64-bit draw."""
        return (self._next64(self._rows(rows)) >> 11) * (1.0 / (1 << 53))

    def _on_row(self, r: int, draw):
        """draw(generator) on row r: the row's state is loaded into the
        shared generator, which draws, and is stored back."""
        bits = _SHUFFLER.bit_generator
        bits.state = {
            "bit_generator": "PCG64", "has_uint32": int(self.has32[r]),
            "uinteger": self.buf32.item(r),
            "state": {"state": self.hi.item(r) << 64 | self.lo.item(r),
                      "inc": self.inc_hi.item(r) << 64 | self.inc_lo.item(r)}}
        out = draw(_SHUFFLER)
        st = bits.state
        self.hi[r], self.lo[r] = divmod(st["state"]["state"], 1 << 64)
        self.has32[r], self.buf32[r] = st["has_uint32"], st["uinteger"]
        return out

    def permutations(self, rows, sizes) -> list:
        """Row rows[i] draws `permutation(sizes[i])`, in list order, so a row
        listed twice draws twice."""
        rows, sizes = self._rows(rows, once=False), np.asarray(sizes, dtype=np.int64)
        if sizes.min(initial=0) < 0:
            raise ValueError("permutations needs sizes >= 0")
        return [self._on_row(r, lambda g: g.permutation(size))
                for r, size in zip(rows.tolist(), sizes.tolist())]

    def samples(self, rows, masks, counts) -> list:
        """Row rows[i] draws counts[i] distinct entries e with masks[i][e]
        set, in draw order: all set entries in `permutation` order when the
        count covers them, else `integers(len(masks[i]))`, redrawn while the
        entry is unset or already drawn. Rows draw in list order."""
        masks = [np.asarray(m, dtype=bool) for m in masks]
        counts = np.asarray(counts, dtype=np.int64).tolist()
        if any(not 0 <= c <= np.count_nonzero(m) for m, c in zip(masks, counts)):
            raise ValueError("samples needs 0 <= count <= set entries")

        def draw(g, mask, count):
            if count == np.count_nonzero(mask):
                return np.flatnonzero(mask)[g.permutation(count)].tolist()
            mask, out = mask.tolist(), []
            while len(out) < count:
                out.append(_until(g, len(mask), lambda e: mask[e] and e not in out))
            return out
        return [self._on_row(r, lambda g: draw(g, m, c)) for r, m, c
                in zip(self._rows(rows, once=False).tolist(), masks, counts)]

    def redraws(self, rows, highs, starts, rejected) -> np.ndarray:
        """Row rows[i] draws `integers(highs[i])` until the draw e leaves
        rejected[starts[i] + e] unset, which some e in range must: array
        passes while many rows redraw, then the last TAIL_ROWS one at a time."""
        rows, out = self._rows(rows), np.zeros(len(rows), dtype=np.int64)
        todo = np.arange(rows.size)
        while todo.size > TAIL_ROWS:
            out[todo] = self.integers(rows[todo], highs[todo])
            todo = todo[rejected[starts[todo] + out[todo]]]
        out[todo] = [self._on_row(r, lambda g: _until(g, h, lambda e: not rejected[a + e]))
                     for r, h, a in zip(*(x[todo].tolist() for x in (rows, highs, starts)))]
        return out

    def distinct_picks(self, row: int, lists) -> list:
        """Row `row` picks from each list in turn one of its k entries that
        no earlier pick took, by `integers(k)`; None where none is left."""
        def draw(g):
            taken, out = set(), []
            for entries in lists:
                left = [c for c in entries if c not in taken]
                out.append(left[int(g.integers(len(left)))] if left else None)
                taken.add(out[-1])
            return out
        return self._on_row(self._rows([row]).item(), draw)


def _until(g, high: int, accept) -> int:
    """`g.integers(high)`, redrawn until accept(draw)."""
    while not accept(e := int(g.integers(high))):
        pass
    return e


def _bit_width(x: int) -> int:
    return max(1, int(x).bit_length())


class Network:
    """A deterministic simulation instance over one graph + palette set.

    Node state is held in arrays indexed by node id: `color` (-1 while
    uncolored), `udeg` (uncolored neighbors) and `layer` (-1 until a layer
    partition sets it). The color lists are the input's pool, taken as it
    is: row i holds sorted colors `pool_colors[pool_ptr[i]:pool_ptr[i + 1]]`,
    and `list_id[v]` is the row of v's list, which other nodes may share.
    Node v's own entries are `pal_ptr[v]:pal_ptr[v + 1]`, one per color
    of its pool row in the same order: `removed` marks the entries that a
    colored neighbor took, and `live` counts the rest of each node's row.
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
        # the input's list pool, as it is: nodes with equal lists may share a row
        self.list_id = palettes.node_rows(n)
        if (self.list_id < 0).any():
            raise SimError(f"node {int(np.argmax(self.list_id < 0))} has no color list")
        self.pool_ptr, self.pool_colors = palettes.pool_ptr, palettes.pool_colors
        if self.pool_colors.size and self.pool_colors.min() < 0:
            raise SimError("negative color in a list")
        self.live = np.diff(self.pool_ptr)[self.list_id]
        self.pal_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.live, out=self.pal_ptr[1:])
        self.removed = np.zeros(int(self.pal_ptr[-1]), dtype=bool)
        # node v's stream is row v, `np.random.default_rng([master_seed, v])`
        self.streams = Streams(seed_words([self.master_seed], np.arange(n)))
        self._tree_cache: dict = {}
        self.trace: list = [] if config.trace else None
        self.preconditions: dict = {}   # name -> held; see `require`

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
        starts at the block's start round, and `with branch(key):` resumes
        the ledger of the block's earlier `branch(key)`, so one branch can
        run in several pieces. On exit the block books the branches' ledgers
        with `RoundStats.join`. Blocks nest.
        """
        parent = self.stats
        start = parent.rounds
        branches = {}

        @contextmanager
        def branch(key=None):
            if self.stats is not parent:
                raise SimError("a parallel branch must run directly in its block")
            self.stats = branches.get(key) or RoundStats(rounds=start)
            try:
                yield
                branches[object() if key is None else key] = self.stats
            finally:
                self.stats = parent

        yield branch
        parent.join(branches.values())

    def require(self, name: str, ok: bool, detail: str) -> bool:
        """Record whether analysis precondition `name` held (every check of it
        must); in theory mode an unmet one raises SimError(detail). Returns ok."""
        self.preconditions[name] = self.preconditions.get(name, True) and bool(ok)
        if not ok and self.config.mode == "theory":
            raise SimError(detail)
        return ok

    def log(self, node: int, event: str, detail: str = ""):
        if self.trace is not None:
            self.trace.append((self.round_counter, node, event, detail))

    # -- permanent coloring bookkeeping -------------------------------------

    def palette(self, v: int) -> list:
        """v's live colors, ascending."""
        lo, i = self.pal_ptr.item(v), self.pool_ptr.item(self.list_id.item(v))
        k = self.pal_ptr.item(v + 1) - lo
        return self.pool_colors[i:i + k][~self.removed[lo:lo + k]].tolist()

    def _find(self, nodes, colors, pairs=None):
        """Entry index of each (node, color) pair, or of the pairs `pairs`
        indexes, in the nodes' `removed` rows, and whether the color is on
        the node's list at all. Long calls look FIND_CHUNK pairs up at a time,
        so that the pool rows and the temporaries of one pass stay in cache."""
        size = nodes.size if pairs is None else pairs.size
        pos, found = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool)
        for i in range(0, size, FIND_CHUNK):
            at = slice(i, i + FIND_CHUNK)
            sel = at if pairs is None else pairs[at]
            v = nodes[sel]
            pos[at], found[at] = self.palettes.find(self.list_id[v], colors[sel])
            pos[at] += self.pal_ptr[v]
        return pos, found

    def entries(self, nodes, colors):
        """Entry index of each (node, color) pair in the nodes' `removed`
        rows, and whether colors[i] is live in the palette of nodes[i]."""
        pos, found = self._find(nodes, colors)
        found[found] = ~self.removed[pos[found]]
        return pos, found

    def in_palettes(self, nodes, colors):
        """Mask: whether colors[i] is live in the palette of nodes[i]."""
        return self.entries(nodes, colors)[1]

    def sample_colors(self, nodes, counts) -> list:
        """Per node nodes[i], min(counts[i], live) of its live colors, uniform
        without replacement, in draw order (`Streams.samples` over the
        node's entries, masked to the live ones)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        lo, hi = self.pal_ptr[nodes].tolist(), self.pal_ptr[nodes + 1].tolist()
        picks = self.streams.samples(
            nodes, [~self.removed[a:b] for a, b in zip(lo, hi)],
            np.minimum(np.asarray(counts, dtype=np.int64), self.live[nodes]))
        row = self.pool_ptr[self.list_id[nodes]].tolist()
        return [self.pool_colors[r + np.array(p, dtype=np.int64)].tolist()
                for r, p in zip(row, picks)]

    def assign_colors(self, nodes, colors):
        """Permanently color nodes[i] with colors[i], all in one step. The
        nodes must be distinct and uncolored, each color live in its node's
        palette, and no two adjacent nodes may get the same color; then the
        end state equals that of assigning them one at a time. The batch's
        rows are checked block by block (`Graph.blocks`), all of them before
        any block is settled, so a refused batch changes nothing."""
        nodes = np.asarray(nodes, dtype=np.int64)
        colors = np.asarray(colors, dtype=np.int64)
        if not nodes.size:
            return
        bad = self.color[nodes] >= 0
        if bad.any():
            i = int(np.argmax(bad))
            raise SimError(f"node {nodes[i]} recolored "
                           f"(had {self.color[nodes[i]]}, got {colors[i]})")
        pos, found = self.entries(nodes, colors)
        if not found.all():
            i = int(np.argmin(found))
            raise SimError(f"node {nodes[i]} colored off-palette with {colors[i]}")
        if (np.diff(np.sort(nodes)) == 0).any():
            raise SimError("a node is colored twice in one batch")
        blocks = list(self.graph.blocks(nodes))
        self.color[nodes] = colors
        # a live color is on no colored neighbor outside the batch, so any
        # neighbor with the same color now is a batch member
        for s in blocks:
            at, nbrs = self.graph.rows(nodes[s])
            bad = self.color[nbrs] == colors[s][at]
            if bad.any():
                self.color[nodes] = -1
                j = int(np.argmax(bad))
                raise SimError(f"adjacent nodes {nodes[s][at[j]]} and {nbrs[j]} "
                               f"both colored {colors[s][at[j]]}")
        for s in blocks:
            if len(blocks) > 1:     # one block settles with the rows it checked
                at, nbrs = self.graph.rows(nodes[s])
            self.settle(nodes[s], colors[s], pos[s], nbrs)

    def settle(self, nodes, colors, pos, nbrs):
        """Color nodes[i] with colors[i], found at entry pos[i] of its
        `removed` row, and strip each color from the neighbors' lists, given
        `nbrs` = `graph.rows(nodes)[1]`. Checks nothing: the caller has made
        the batch valid (see `assign_colors`)."""
        lens = self.graph.degrees[nodes]    # np.repeat(x, lens): x per (node, neighbor) pair
        self.color[nodes] = colors
        if self.trace is not None:
            for v, c in zip(nodes.tolist(), colors.tolist()):
                self.log(v, "color", str(c))
        self.udeg -= np.bincount(nbrs, minlength=self.graph.n)
        # a neighbor on the winner's pool row holds the color at the winner's
        # offset; look the rest up
        pair_colors = np.repeat(colors, lens)
        gone = self.pal_ptr[nbrs] + np.repeat(pos - self.pal_ptr[nodes], lens)
        other = np.flatnonzero(self.list_id[nbrs] != np.repeat(self.list_id[nodes], lens))
        gone[other], held = self._find(nbrs, pair_colors, other)
        # drop the neighbors whose lists lack the color; an entry that
        # same-colored winners strip counts once
        gone = np.delete(gone, other[~held])
        gone = sorted_unique(gone[~self.removed[gone]])
        self.removed[gone] = True
        owner = np.searchsorted(self.pal_ptr, gone, side="right") - 1
        self.live -= np.bincount(owner, minlength=self.graph.n)

    def coloring(self) -> dict:
        done = np.flatnonzero(self.color >= 0)
        return dict(zip(done.tolist(), self.color[done].tolist()))

    # -- tree aggregation ----------------------------------------------------

    def tree_aggregate(self, cluster, root: int, phase: str = "aggregate") -> int:
        """Charge one ID-wide convergecast to `root` over the cluster's cached
        BFS tree and the broadcast of its result back down; returns the
        rounds, twice the tree depth. Each tree edge carries one message
        each way."""
        cluster = frozenset(cluster)
        if root not in cluster:
            raise SimError("root not in cluster")
        key = (root, cluster)
        depth = self._tree_cache.get(key)
        if depth is None:
            dist = self.graph.bfs(root, cluster)
            if len(dist) != len(cluster):
                raise SimError("tree_aggregate: cluster is not connected")
            depth = self._tree_cache[key] = max(dist.values())
        rounds = 2 * depth
        self.charge_phase(phase, rounds, 2 * (len(cluster) - 1),
                          self.id_bits if len(cluster) > 1 else 0)
        return rounds


def new_network(graph: Graph, palettes: PaletteAssignment, config, seed: int) -> Network:
    return Network(graph, palettes, config, seed)
