"""The literal message-by-message engine: per-node handlers exchange
`Message`s, and every message is checked against the per-edge bit budget.

It is the reference the pipeline's arithmetic charges are measured against;
no algorithm in `src/` runs on it. A round books through
`Network.charge_phase`, so it lands in the same ledger as every other charge.
`LiteralEngine.tree_aggregate` is the hop-by-hop run that
`Network.tree_aggregate`'s charge is checked against.
"""

from collections import defaultdict
from dataclasses import dataclass

from congestcolor.sim import BandwidthError, SimError
from stream_checkout import generators


@dataclass
class Message:
    src: int
    dst: int
    size: int            # bits
    data: object = None


class LiteralEngine:
    """Synchronous rounds of literal handlers on one network; holds the
    messages in flight between rounds."""

    def __init__(self, network):
        self.network = network
        self.inboxes = defaultdict(list)

    def run_round(self, handler, phase: str = "round"):
        """Execute one synchronous round.

        handler(v, network, inbox, rng) -> iterable of Message; messages must
        target neighbors and fit the per-edge bit budget. All outboxes are
        exchanged atomically; delivery happens in the next round's inbox.
        """
        net = self.network
        budget = net.bandwidth_bits
        next_inboxes = defaultdict(list)
        edge_bits = defaultdict(int)
        messages = 0
        rnd = net.round_counter
        with generators(net.streams, range(net.graph.n)) as rngs:
            outs = [handler(v, net, self.inboxes.get(v, []), rngs[v])
                    for v in range(net.graph.n)]
        for v, out in enumerate(outs):
            for msg in out or ():
                if msg.src != v:
                    raise SimError(f"node {v} forged src {msg.src} in round {rnd}")
                if not net.graph.has_edge(v, msg.dst):
                    raise SimError(
                        f"node {v} sent to non-neighbor {msg.dst} in round {rnd}"
                    )
                if msg.size > budget:
                    raise BandwidthError(
                        f"node {v} emitted {msg.size} bits in round {rnd} "
                        f"(budget {budget})"
                    )
                key = (v, msg.dst)
                edge_bits[key] += msg.size
                if edge_bits[key] > budget:
                    raise BandwidthError(
                        f"node {v} exceeded edge budget to {msg.dst} in round "
                        f"{rnd}: {edge_bits[key]} > {budget}"
                    )
                next_inboxes[msg.dst].append(msg)
                messages += 1
        self.inboxes = next_inboxes
        max_bits = max(edge_bits.values(), default=0)
        net.charge_phase(phase, 1, messages, max_bits)
        return {"rounds": 1, "messages": messages, "max_edge_bits": max_bits}

    def tree_aggregate(self, cluster, root: int, values, phase: str = "aggregate"):
        """Sum `values` over the connected node set `cluster` to `root` and
        broadcast the sum back, hop by hop on a BFS tree of the cluster; runs
        rounds until every member holds the sum and returns it.

        The tree comes from its own level-by-level scan, each node's parent
        the first member of the previous level that reaches it. Each message
        carries one ID-wide value. A node sends its partial sum up once every
        child has reported; a node that learns the sum passes it to its
        children in the same round.
        """
        net = self.network
        cluster = set(cluster)
        if root not in cluster:
            raise SimError("root not in cluster")
        parent, level = {root: None}, [root]
        while level:
            nxt = []
            for u in level:
                for w in net.graph.neighbors(u):
                    if w in cluster and w not in parent:
                        parent[w] = u
                        nxt.append(w)
            level = nxt
        if len(parent) != len(cluster):
            raise SimError("cluster is not connected")
        children = defaultdict(list)
        for v, up in parent.items():
            if up is not None:
                children[up].append(v)
        partial = {v: values[v] for v in cluster}
        waiting = {v: len(children[v]) for v in cluster}
        total = {}             # member -> the sum, once it holds it
        passed = set()         # members that have sent the sum on
        if not children[root]:
            total[root] = partial[root]

        def handler(v, network, inbox, rng):
            if v not in cluster:
                return []
            for msg in inbox:
                kind, x = msg.data
                if kind == "up":
                    partial[v] += x
                    waiting[v] -= 1
                else:
                    total[v] = x
            out = []
            if waiting[v] == 0:
                waiting[v] = -1
                if v == root:
                    total[v] = partial[v]
                else:
                    out.append(Message(v, parent[v], net.id_bits,
                                       ("up", partial[v])))
            if v in total and v not in passed:
                passed.add(v)
                out.extend(Message(v, c, net.id_bits, ("down", total[v]))
                           for c in children[v])
            return out

        def holds(v):
            # a message delivered at the end of a round counts as received
            return v in total or any(m.data[0] == "down"
                                     for m in self.inboxes.get(v, ()))

        while not all(holds(v) for v in cluster):
            self.run_round(handler, phase)
        self.inboxes.clear()       # the last hop's messages, all received
        return total[root]
