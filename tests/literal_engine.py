"""The literal message-by-message engine: per-node handlers exchange
`Message`s, and every message is checked against the per-edge bit budget.

It is the reference the pipeline's arithmetic charges are measured against;
no algorithm in `src/` runs on it. A round books through
`Network.charge_phase`, so it lands in the same ledger as every other charge.
"""

from collections import defaultdict
from dataclasses import dataclass

from congestcolor.sim import BandwidthError, SimError


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
        for v in range(net.graph.n):
            out = handler(v, net, self.inboxes.get(v, []), net.rng(v))
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
