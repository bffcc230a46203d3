"""Synchronous message-passing simulation of the spanner build.

The transport enforces the bandwidth model: per round, each directed edge
carries at most one message of at most B = c_b * ceil(log2 n) bits; a
vertex id costs ceil(log2 n) bits, a weight ceil(log2 Wmax) bits, an edge
id ceil(log2 m) bits. Longer payloads are pipelined as B-bit chunks.

The simulation is meta.run_phases with a Network as its transport. Each
of the driver's message steps is a Network method, and each answer it
gives a vertex is read from that vertex's own state and inbox: (a)
`paths`: each clustered vertex pipelines its sampled cluster paths to its
remaining-edge neighbors; (b) the fan computation is local; (c) `heads`
announces the surviving centers down the previous clustering's trees
and then (d) sends each neighbor a bitmask telling which of the
transmitted samples head a surviving cluster; (e) `edge_state` follows
the local cluster/purchase decisions with one exchange that settles the
deferred-edge set; (f) `register` lets owners register the new cluster
trees edge by edge so the next phase can broadcast on them. Every random
draw comes from the per-(vertex, phase) streams the sequential build
uses, so the simulated output matches it edge for edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ftspanner.graphs import Graph
from ftspanner.meta import random_steps, run_phases
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
    """Round-synchronous transport with per-directed-edge bandwidth checks.

    paths, heads, edge_state and register are the message steps that
    meta.run_phases calls once per phase (register only before the last).
    """

    def __init__(self, g: Graph, c_b: int = 4, record_messages: bool = False):
        n = g.n
        self.id_bits = max(1, math.ceil(math.log2(max(n, 2))))
        self.weight_bits = max(1, math.ceil(math.log2(g.max_weight() + 1)))
        self.edge_id_bits = max(1, math.ceil(math.log2(max(g.m, 2))))
        self.B = c_b * self.id_bits
        self.round = 0
        self.messages = 0
        self.bits_total = 0
        self.max_bits = 0
        self.log: list | None = [] if record_messages else None
        self.phase_starts: list[int] = []
        self.children: dict = {}  # (root, vertex) -> vertex's children in root's tree

    def queue(self, bits: int, tag: str, payload) -> list:
        """Chunk a payload of `bits` bits into per-round messages; the
        payload object rides the final chunk."""
        bits = max(1, bits)
        out = []
        while bits > self.B:
            out.append((self.B, tag, None))
            bits -= self.B
        out.append((bits, tag, payload))
        return out

    def transmit(self, outboxes: dict) -> tuple[dict, int]:
        """Drain queues one message per directed edge per round.

        outboxes: (src, dst) -> list of (bits, tag, payload) or None slots.
        Returns (inboxes keyed by (src, dst) holding completed payloads,
        rounds used).
        """
        depth = max((len(q) for q in outboxes.values()), default=0)
        inboxes: dict = {}
        for r in range(depth):
            self.round += 1
            for edge, q in outboxes.items():
                if r >= len(q) or q[r] is None:
                    continue
                bits, tag, payload = q[r]
                if bits > self.B:
                    raise BandwidthExceeded(
                        f"round {self.round} edge {edge}: message of {bits} bits "
                        f"exceeds B={self.B}")
                self.messages += 1
                self.bits_total += bits
                self.max_bits = max(self.max_bits, bits)
                if self.log is not None:
                    self.log.append((self.round, edge, bits, tag))
                if payload is not None:
                    inboxes.setdefault(edge, []).append(payload)
        return inboxes, depth

    def paths(self, samples, inc):
        """(a) Pipeline each vertex's sample list to its remaining-edge
        neighbors. Returns v -> {neighbor: the sample list v received}."""
        self.phase_starts.append(self.round)
        outboxes: dict = {}
        for v, s in samples.items():
            msgs = self.queue(_path_stream_bits(self, s), "paths", tuple(s))
            for w, eid, u in inc[v]:
                outboxes[(v, u)] = msgs
        inbox, _ = self.transmit(outboxes)
        return lambda v: {u: inbox[(u, v)][0] for (w, eid, u) in inc[v]}

    def heads(self, centers, samples, inc):
        """(c) Announce the surviving centers down the registered trees,
        then (d) send each neighbor one flag per transmitted sample: does
        its head survive. Returns v -> test of v's fan entries."""
        # roots enter in ascending order, so the message log does not
        # depend on how the caller built its center set
        received, _ = tree_broadcast(self, self.children, set(sorted(centers)))
        outboxes: dict = {}
        for u, s in samples.items():
            got = received.get(u, ())
            flags = tuple(p.head in got for p in s)
            msgs = self.queue(len(flags) + 2, "heads", flags)
            for w, eid, v in inc[u]:
                outboxes[(u, v)] = msgs
        inbox, _ = self.transmit(outboxes)

        def head_test(v):
            got = received.get(v, ())

            def is_head(entry):
                if entry.src is None:
                    return entry.head in got
                return inbox[(entry.src, v)][0][entry.sample_idx]
            return is_head
        return head_test

    def edge_state(self, inc, thr, le, bought):
        """(e) Tell every remaining-edge neighbor whether v clustered, its
        threshold key if so, and whether v bought the edge. Returns
        v -> (clustered neighbor -> its threshold key, edge ids v knows
        were bought by either endpoint)."""
        key_bits = self.weight_bits + self.edge_id_bits
        le = {v: set(ids) for v, ids in le.items()}
        outboxes: dict = {}
        for v, le_v in le.items():
            ok = v in thr
            bits = 2 + (key_bits if ok else 0) + 2
            msgs = [self.queue(bits, "edge-state", (ok, thr.get(v), b))
                    for b in (False, True)]
            for w, eid, u in inc[v]:
                outboxes[(v, u)] = msgs[eid in le_v]
        inbox, _ = self.transmit(outboxes)

        def peer(v):
            thr_of, seen = {}, set(le[v])
            for w, eid, u in inc[v]:
                ok_u, thr_u, le_u = inbox[(u, v)][0]
                if ok_u:
                    thr_of[u] = thr_u
                if le_u:
                    seen.add(eid)
            return thr_of, seen
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
            outboxes: dict = {}
            for sender, receiver, root, prefix in pending:
                edge = (sender, receiver)
                if edge in outboxes:
                    raise BandwidthExceeded(
                        f"edge {edge} would carry two tree registrations in one "
                        f"wave; vertex independence violated")
                bits = (len(prefix) + 1) * self.id_bits + 2
                outboxes[edge] = self.queue(bits, "register", (root, prefix))
            inbox, _ = self.transmit(outboxes)
            pending = []
            for (sender, receiver), msgs in inbox.items():
                for root, prefix in msgs:
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
    while frontier:
        outboxes: dict = {}
        meta: dict = {}
        for root, x in frontier:
            for child in children.get((root, x), ()):
                edge = (x, child)
                if edge in outboxes:
                    raise BandwidthExceeded(
                        f"edge {edge} would carry two center announcements in "
                        f"one wave; vertex independence violated")
                outboxes[edge] = net.queue(net.id_bits + 2, "center", root)
                meta[edge] = (root, child)
        if not outboxes:
            break
        _, used = net.transmit(outboxes)
        rounds += used
        frontier = list(meta.values())
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
                                 c_b: int = 4, c_k: int = 20, c_s: int = 4,
                                 record_messages: bool = False
                                 ) -> tuple[SpannerResult, RoundReport]:
    """Run the build as a synchronous message-passing computation.

    Output equals build_ft_spanner(g, f, k, seed, variant="seq") edge for
    edge because both run the same driver and the same local steps, and
    draw from the same per-vertex streams.
    """
    net = Network(g, c_b=c_b, record_messages=record_messages)
    sample_fn, centers_fn = random_steps(g.n, f, k, seed, c_s)
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
        log=net.log)

    result = SpannerResult(
        algo="congest-sim", n=g.n, m=g.m, graph_sha=g.sha(),
        params={"f": f, "k": k, "seed": seed, "c_b": c_b, "c_k": c_k,
                "c_s": c_s},
        edges=tuple(sorted(spanner)),
        trace=trace,
        extras={"size_bound": meta_size_bound(g.n, f, k),
                "rounds": report.to_dict()},
    )
    return result, report
