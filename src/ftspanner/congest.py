"""Synchronous message-passing simulation of the spanner build.

The transport enforces the bandwidth model: per round, each directed edge
carries at most one message of at most B = c_b * ceil(log2 n) bits; a
vertex id costs ceil(log2 n) bits, a weight ceil(log2 Wmax) bits, an edge
id ceil(log2 m) bits. Longer payloads are pipelined as B-bit chunks.

The simulation is meta.run_phases with a Network as its transport. Each
of the driver's message steps is a Network method, and each answer it
gives a vertex is read from that vertex's own state and the messages its
remaining-edge neighbors sent it: (a) `paths`: each clustered vertex
pipelines its sampled cluster paths to its remaining-edge neighbors; (b)
the fan computation is local: each vertex builds its fan from the sample
lists its neighbors sent. The saturation bound run_phases hands every
fan (the heads offered anywhere in the phase) is not a message: it only
ends a vertex's own scan early and never changes the fan, so no message
depends on it; (c) `heads` announces the surviving centers down the
previous clustering's trees and then (d) sends each neighbor a bitmask
telling which of the transmitted samples head a surviving cluster; (e)
`edge_state` follows the local cluster/purchase decisions with one
exchange that settles the deferred-edge set: each vertex tells its
neighbors whether it clustered, its threshold key and which of its edges
it bought, and learns which of its own edges above its threshold are
held (bought by either endpoint, at or below the neighbor's threshold,
or to a neighbor that did not cluster) and defers the others; (f)
`register` lets owners register the new cluster trees edge by edge so
the next phase can broadcast on them. Every random draw comes from the
per-(vertex, phase) streams the sequential build uses, so the simulated
output matches it edge for edge.

Each message wave is one Network.transmit with one tag and one send per
sender: the sender, its receivers, the bit count of the message it sends
every one of them, and what the receivers get. A send hands its
receivers either one payload each (register, tree_broadcast) or one
payload that all of them hear (paths, heads, edge-state: the local
broadcasts of the CONGEST model, one message to every neighbor). A
broadcast wave is delivered as one src -> payload map, one store per
send, and each vertex reads the entries of its remaining-edge neighbors
through Network.heard, as the fan scan, is_head and peer walk its own
edge list. transmit is the only code that cuts a message into B-bit
chunks, one per round. The same chunks go down each of the sender's
edges, so messages, bits and rounds (the wave's longest message) are
counted by multiplying by the receiver count, also per tag, instead of
walking every directed edge every round. The per-message log is built
only when record_messages is set, in round order and then send order;
without it a broadcast send carries only its receiver count.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

from ftspanner.graphs import Graph
from ftspanner.meta import C_S, _above, check_params, random_steps, run_phases
from ftspanner.result import SpannerResult, meta_size_bound
# Unused here; the traced benchmark (perfbench/layers.py) patches these
# names on this module, so they stay importable from it.
from ftspanner.meta import build_fan, choose_cluster, le_edge_ids, sample_fan_paths  # noqa: F401
from ftspanner.rng import vertex_stream  # noqa: F401


class BandwidthExceeded(RuntimeError):
    pass


@dataclass
class RoundReport:
    total_rounds: int = 0
    rounds_per_phase: list[int] = field(default_factory=list)
    max_bits: int = 0
    messages: int = 0
    bits_total: int = 0
    bandwidth: int = 0
    id_bits: int = 0
    weight_bits: int = 0
    edge_id_bits: int = 0
    log: list | None = None  # (round, (src, dst), bits, tag) when recorded
    # tag -> {"rounds", "messages", "bits"}; kept out of to_dict(), which
    # the result JSON embeds
    tags: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "total_rounds": self.total_rounds,
            "rounds_per_phase": list(self.rounds_per_phase),
            "max_bits": self.max_bits,
            "messages": self.messages,
            "bits_total": self.bits_total,
            "bandwidth": self.bandwidth,
            "id_bits": self.id_bits,
            "weight_bits": self.weight_bits,
            "edge_id_bits": self.edge_id_bits,
        }


class Network:
    """Round-synchronous transport. Senders hand transmit a bit count per
    message; transmit alone cuts it into chunks of at most B bits.

    paths, heads, edge_state and register are the message steps that
    meta.run_phases calls once per phase (register only before the last).
    """

    def __init__(self, g: Graph, c_b: int = 4, record_messages: bool = False):
        if c_b < 1:
            raise ValueError(f"need c_b >= 1, got c_b={c_b}")
        n = g.n
        self.id_bits = max(1, math.ceil(math.log2(max(n, 2))))
        self.weight_bits = max(1, math.ceil(math.log2(g.max_weight() + 1)))
        self.edge_id_bits = max(1, math.ceil(math.log2(max(g.m, 2))))
        self.B = c_b * self.id_bits
        self.round = 0
        self.messages = 0
        self.bits_total = 0
        self.max_bits = 0
        self.tags: dict[str, dict[str, int]] = {}  # tag -> rounds/messages/bits
        self.log: list | None = [] if record_messages else None
        self.phase_starts: list[int] = []
        self.children: dict = {}  # (root, vertex) -> vertex's children in root's tree
        # vertex -> its remaining-edge neighbors this phase, for the message log
        self.receivers: dict = {}

    def transmit(self, tag: str, sends, broadcast: bool = False) -> tuple[dict, int]:
        """Deliver one wave of `tag` messages.

        sends: (src, receivers, bits, payload) per send. src sends the
        same bits-bit message to each of its receivers as B-bit chunks,
        one per round from the next round on, the remainder last. The
        payload rides the final chunk. Traffic is accounted per send, by
        multiplying by the receiver count; the message log, when
        recorded, lists each chunk in round order and then in send order.

        Without broadcast, payload yields one payload per receiver, in
        receiver order, and the inbox is dst -> {src: payload}. With
        broadcast, every receiver hears the one payload, the inbox is
        src -> payload, and receivers may be their count when no log is
        recorded. Returns (inbox, rounds used).
        """
        inbox: dict = {} if broadcast else defaultdict(dict)
        B = self.B
        depth = widest = messages = bits_total = 0
        log = [] if self.log is not None else None
        for src, receivers, bits, payload in sends:
            fan = receivers if type(receivers) is int else len(receivers)
            if not fan:
                continue
            bits = max(1, bits)
            rounds = (bits - 1) // B + 1
            depth = max(depth, rounds)
            widest = max(widest, bits)
            messages += rounds * fan
            bits_total += bits * fan
            if broadcast:
                inbox[src] = payload
            else:
                for dst, p in zip(receivers, payload):
                    inbox[dst][src] = p
            if log is not None:
                edges = list(zip(repeat(src), receivers))
                last = bits - (rounds - 1) * B
                for r, b in enumerate([B] * (rounds - 1) + [last], start=self.round + 1):
                    log.extend(zip(repeat(r), edges, repeat(b), repeat(tag)))
        if depth:
            self.messages += messages
            self.bits_total += bits_total
            self.max_bits = max(self.max_bits, min(widest, B))
            acc = self.tags.setdefault(tag, {"rounds": 0, "messages": 0, "bits": 0})
            acc["rounds"] += depth
            acc["messages"] += messages
            acc["bits"] += bits_total
        if log:
            log.sort(key=itemgetter(0))  # stable: send order within a round
            self.log.extend(log)
        self.round += depth
        return inbox, depth

    def heard(self, v, wave):
        """What v hears of a broadcast wave: the shared src -> payload map.
        v reads only the entries of its remaining-edge neighbors, through
        its own edge list; tests swap in a view that enforces this."""
        return wave

    def _to(self, v, inc):
        """v's receivers in a broadcast wave: its remaining-edge neighbors
        when the message log names them, else only their count."""
        return self.receivers[v] if self.log is not None else len(inc[v])

    def paths(self, samples, inc):
        """(a) Pipeline each vertex's sample list to its remaining-edge
        neighbors. Returns v -> what v heard: neighbor -> its sample list."""
        self.phase_starts.append(self.round)
        if self.log is not None:  # read again by heads and edge_state
            self.receivers = {v: list(map(itemgetter(2), inc[v])) for v in samples}
        inbox, _ = self.transmit("paths", (
            (v, self._to(v, inc), _path_stream_bits(self, s), s)
            for v, s in samples.items()), broadcast=True)
        return lambda v: self.heard(v, inbox)

    def heads(self, centers, samples, inc):
        """(c) Announce the surviving centers down the registered trees,
        then (d) send each neighbor one flag per transmitted sample: does
        its head survive. Returns v -> test of v's fan entries."""
        # roots enter in ascending order, so the message log does not
        # depend on how the caller built its center set
        received, _ = tree_broadcast(self, self.children, set(sorted(centers)))
        sends = []
        for u, s in samples.items():
            got = received.get(u, ())
            flags = tuple(p.head in got for p in s)
            sends.append((u, self._to(u, inc), len(flags) + 2, flags))
        inbox, _ = self.transmit("heads", sends, broadcast=True)

        def head_test(v):
            got = received.get(v, ())
            box = self.heard(v, inbox)

            def is_head(entry):
                if entry.src is None:
                    return entry.head in got
                return box[entry.src][entry.sample_idx]
            return is_head
        return head_test

    def edge_state(self, inc, thr, le, bought):
        """(e) Tell every remaining-edge neighbor whether v clustered, its
        threshold key if so, and which of v's edges v bought. Returns
        v -> the ids of v's edges that v must not defer, read from v's
        purchases and its neighbors' messages: bought by either endpoint,
        at or below the neighbor's threshold key, or to a neighbor that
        did not cluster. Only v's edges above thr[v] are read, as
        run_phases asks no more.

        v's message carries its purchase set, and a receiver u tests only
        the id of its own edge to v against it: that is the one bought
        bit per edge that the message's bit count charges."""
        key_bits = self.weight_bits + self.edge_id_bits
        le = {v: set(ids) for v, ids in le.items()}
        sends = []
        for v, le_v in le.items():
            ok = v in thr
            sends.append((v, self._to(v, inc), 2 + (key_bits if ok else 0) + 2,
                          (ok, thr.get(v), le_v)))
        inbox, _ = self.transmit("edge-state", sends, broadcast=True)

        def peer(v):
            held, box, inc_v = set(le[v]), self.heard(v, inbox), inc[v]
            for w, eid, u in inc_v[_above(inc_v, thr[v]):]:
                ok_u, thr_u, le_u = box[u]
                if not ok_u or eid in le_u or (w, eid) <= thr_u:
                    held.add(eid)
            return held
        return peer

    def register(self, q):
        """(f) Walk each new cluster path tail-to-head registering child
        edges, so parents know whom to forward to. The registration
        message carries the remaining prefix, which tells every relay its
        own parent without global knowledge."""
        self.children = {}
        pending: list[tuple[int, int, int, tuple]] = []
        forwarded: dict[int, set] = {}
        for v in sorted(q):
            for p in q[v]:
                if p.hops >= 1:
                    pending.append((v, p.vertices[-2], p.head, p.vertices[:-1]))
                    # the owner's own registration already covers its upward
                    # chain for this tree; relays must not repeat it
                    forwarded.setdefault(v, set()).add(p.head)
        while pending:
            sends = []
            edges: set = set()
            for sender, receiver, root, prefix in pending:
                edge = (sender, receiver)
                if edge in edges:
                    raise BandwidthExceeded(
                        f"edge {edge} would carry two tree registrations in one "
                        f"wave; vertex independence violated")
                edges.add(edge)
                bits = (len(prefix) + 1) * self.id_bits + 2
                sends.append((sender, (receiver,), bits, ((root, prefix),)))
            inbox, _ = self.transmit("register", sends)
            pending = []
            # handled as they complete: fewer chunks first, then in send
            # order (bits alone would reorder messages of one chunk count)
            B = self.B
            for sender, (receiver,), _, _ in sorted(sends, key=lambda s: (s[2] - 1) // B):
                root, prefix = inbox[receiver][sender]
                kids = self.children.setdefault((root, receiver), [])
                if sender not in kids:
                    kids.append(sender)
                done = forwarded.setdefault(receiver, set())
                if len(prefix) >= 2 and root not in done:
                    done.add(root)
                    pending.append((receiver, prefix[-2], root, prefix[:-1]))


def tree_broadcast(net: Network, children: dict, roots) -> tuple[dict, int]:
    """Announce each root to every vertex of its tree, wave by wave.

    children: (root, vertex) -> the vertex's children in root's tree.
    Wave t forwards along depth-t edges; vertex independence keeps each
    directed edge down-forwarding for at most one tree, so one message
    per edge per wave suffices and a collision is a hard failure.
    Returns (vertex -> roots announced to it, rounds used).
    """
    received: dict[int, set] = {}
    frontier = []
    for s in roots:
        received.setdefault(s, set()).add(s)
        frontier.append((s, s))
    rounds = 0
    bits = net.id_bits + 2
    while frontier:
        sends = []
        edges: set = set()
        for root, x in frontier:
            for child in children.get((root, x), ()):
                edge = (x, child)
                if edge in edges:
                    raise BandwidthExceeded(
                        f"edge {edge} would carry two center announcements in "
                        f"one wave; vertex independence violated")
                edges.add(edge)
                sends.append((x, (child,), bits, (root,)))
        if not sends:
            break
        inbox, used = net.transmit("center", sends)
        rounds += used
        frontier = [(inbox[child][x], child) for x, (child,), _, _ in sends]
        for root, child in frontier:
            received.setdefault(child, set()).add(root)
    return received, rounds


def _path_stream_bits(net: Network, paths) -> int:
    bits = net.id_bits  # path count prefix
    for p in paths:
        bits += len(p.vertices) * net.id_bits
        bits += len(p.keys) * (net.weight_bits + net.edge_id_bits)
    return bits


def simulate_distributed_spanner(g: Graph, f: int, k: int, seed=0,
                                 c_b: int = 4, c_k: int = 20,
                                 record_messages: bool = False
                                 ) -> tuple[SpannerResult, RoundReport]:
    """Run the build as a synchronous message-passing computation.

    Output equals build_ft_spanner(g, f, k, seed, variant="seq") edge for
    edge because both run the same driver and the same local steps, and
    draw from the same per-vertex streams.
    """
    check_params(g.n, f, k, c_k)
    net = Network(g, c_b=c_b, record_messages=record_messages)
    sample_fn, centers_fn = random_steps(g.n, f, k, seed)
    spanner, trace, _, _ = run_phases(g, f, k, sample_fn=sample_fn,
                                      centers_fn=centers_fn, c_k=c_k,
                                      transport=net)
    ends = net.phase_starts[1:] + [net.round]
    report = RoundReport(
        total_rounds=net.round,
        rounds_per_phase=[b - a for a, b in zip(net.phase_starts, ends)],
        max_bits=net.max_bits, messages=net.messages,
        bits_total=net.bits_total, bandwidth=net.B, id_bits=net.id_bits,
        weight_bits=net.weight_bits, edge_id_bits=net.edge_id_bits,
        log=net.log, tags=net.tags)

    result = SpannerResult(
        algo="congest-sim", n=g.n, m=g.m, graph_sha=g.sha(),
        params={"f": f, "k": k, "seed": seed, "c_b": c_b, "c_k": c_k,
                "c_s": C_S},
        edges=tuple(sorted(spanner)),
        trace=trace,
        extras={"size_bound": meta_size_bound(g.n, f, k),
                "rounds": report.to_dict()},
    )
    return result, report
