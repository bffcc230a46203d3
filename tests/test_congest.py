import hashlib
from collections import Counter
from itertools import repeat

import pytest

from ftspanner.cli import _dump_message_log
from ftspanner.congest import (BandwidthExceeded, Network, RoundReport,
                               simulate_distributed_spanner, tree_broadcast)
from ftspanner.graphs import Graph, generate
from ftspanner.meta import Offer, build_ft_spanner


def test_network_bandwidth_enforced():
    # a message one bit over B goes out as two chunks: B bits, then 1
    g = generate("cycle", n=4)
    net = Network(g, c_b=4, record_messages=True)
    net.transmit("x", [(0, (1,), net.B + 1, (None,))])
    assert net.log == [(1, (0, 1), net.B, "x"), (2, (0, 1), 1, "x")]
    assert net.max_bits == net.B


def test_network_chunking_and_stats():
    g = generate("cycle", n=4)
    net = Network(g, c_b=4, record_messages=True)
    bits = 3 * net.B + 1
    inbox, rounds = net.transmit("x", [(0, (1,), bits, ("payload",))])
    assert rounds == 4 and net.round == 4
    assert inbox == {1: {0: "payload"}}
    assert net.max_bits == net.B and net.messages == 4
    assert net.bits_total == bits
    assert [b for _, _, b, _ in net.log] == [net.B, net.B, net.B, 1]
    assert net.tags == {"x": {"rounds": rounds, "messages": 4, "bits": bits}}


def test_broadcast_wave_accounted_as_per_receiver_payloads():
    # a wave in the broadcast form costs what the same wave costs with a
    # payload per receiver, multi-chunk messages included, and each
    # receiver hears the same payload
    g = generate("complete", n=5)
    wave = [(0, (1, 2, 3), 3 * 4 * 3 + 1, "a"), (2, (0, 4), 5, "b"),
            (4, (), 50, "c"), (3, (0, 1, 2, 4), 2 * 4 * 3, "d")]

    def run(broadcast, record_messages=True):
        net = Network(g, record_messages=record_messages)
        assert net.B == 4 * 3  # the bits above cut into 4, 1, 2 chunks
        net.transmit("y", [(0, (1,), 7, ("first",))])  # an earlier wave
        sends = [(src, len(to) if not record_messages else to, bits,
                  payload if broadcast else repeat(payload, len(to)))
                 for src, to, bits, payload in wave]
        inbox, rounds = net.transmit("x", sends, broadcast=broadcast)
        return net, inbox, rounds

    net, inbox, rounds = run(False)
    assert rounds == 4 and {b for _, _, b, tag in net.log if tag == "x"} == {12, 1, 5}
    stats = (net.round, net.messages, net.bits_total, net.max_bits, net.tags, net.log)
    for record_messages in (True, False):
        bnet, box, brounds = run(True, record_messages)
        assert brounds == rounds
        assert (bnet.round, bnet.messages, bnet.bits_total, bnet.max_bits,
                bnet.tags) == stats[:5]
        assert bnet.log == (stats[5] if record_messages else None)
        assert {dst: {src: box[src] for src in got} for dst, got in inbox.items()} == inbox
        assert box == {0: "a", 2: "b", 3: "d"}  # a send to nobody is not delivered


def test_network_rejects_bandwidth_below_one():
    g = generate("cycle", n=4)
    for c_b in (0, -1):
        with pytest.raises(ValueError, match="c_b >= 1"):
            Network(g, c_b=c_b)


def children_of(trees):
    """root -> {child: parent} as tree_broadcast's (root, parent) -> [child]."""
    out = {}
    for root, parent_of in trees.items():
        for child, parent in parent_of.items():
            out.setdefault((root, parent), []).append(child)
    return out


def test_tree_broadcast_single_path():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    net = Network(g)
    trees = {0: {1: 0, 2: 1, 3: 2}}  # depth-3 path rooted at 0
    received, rounds = tree_broadcast(net, children_of(trees), [0])
    assert received[3] == {0}
    assert rounds <= 2 * (3 + 1)


def test_tree_broadcast_two_trees_opposite_orientations():
    g = Graph(2, [(0, 1, 1)])
    net = Network(g)
    trees = {0: {1: 0}, 1: {0: 1}}  # edge shared, opposite parent directions
    received, rounds = tree_broadcast(net, children_of(trees), [0, 1])
    assert 0 in received[1] and 1 in received[0]
    assert rounds <= 2 * (1 + 1)


def test_tree_broadcast_rejects_shared_child_edge():
    g = Graph(4, [(2, 0, 1), (3, 0, 2), (0, 1, 3)])
    net = Network(g)
    # both trees route through 0 -> 1 at the same depth: vertex
    # independence is violated and the edge would carry two messages
    trees = {2: {0: 2, 1: 0}, 3: {0: 3, 1: 0}}
    with pytest.raises(BandwidthExceeded):
        tree_broadcast(net, children_of(trees), [2, 3])


def test_message_log_obeys_bandwidth_model():
    g = generate("complete", n=60, seed=1, weights=(1, 1000))
    res, rr = simulate_distributed_spanner(g, 1, 3, seed=0, c_k=1,
                                           record_messages=True)
    # phase 2 clusters around surviving centers, so the center
    # announcements and the second registration run too
    assert res.trace[1].clustered > 0 and res.trace[1].centers > 0
    assert res.edge_count < g.m
    assert set(rr.tags) == {"paths", "heads", "edge-state", "center", "register"}
    links = {(v, u) for v in range(g.n) for w, eid, u in g.adj[v]}
    slots = set()
    recount = {}
    last = 0
    for rnd, edge, bits, tag in rr.log:
        assert 1 <= bits <= rr.bandwidth
        assert edge in links
        assert (rnd, edge) not in slots  # one message per directed edge per round
        slots.add((rnd, edge))
        assert last <= rnd <= rr.total_rounds
        last = rnd
        acc = recount.setdefault(tag, [set(), 0, 0])
        acc[0].add(rnd)
        acc[1] += 1
        acc[2] += bits
    assert len(rr.log) == rr.messages
    assert sum(bits for _, _, bits, _ in rr.log) == rr.bits_total
    assert max(bits for _, _, bits, _ in rr.log) == rr.max_bits
    assert rr.tags == {tag: {"rounds": len(rounds), "messages": count, "bits": bits}
                       for tag, (rounds, count, bits) in recount.items()}
    assert sum(t["rounds"] for t in rr.tags.values()) == rr.total_rounds
    plain, pr = simulate_distributed_spanner(g, 1, 3, seed=0, c_k=1)
    assert pr.log is None
    assert pr.to_dict() == rr.to_dict() and pr.tags == rr.tags
    assert plain.edges == res.edges


class LocalView:
    """One vertex's view of a broadcast wave that fails on any sender that
    is not the vertex's remaining-edge neighbor in the phase, and counts
    the reads it lets through per wave."""

    def __init__(self, wave, v, neighbors, reads):
        self.wave, self.v, self.neighbors, self.reads = wave, v, neighbors, reads

    def __getitem__(self, u):
        if u not in self.neighbors:
            raise AssertionError(f"vertex {self.v} read the broadcast of non-neighbor {u}")
        payload = self.wave[u]
        if isinstance(payload, Offer):
            self.reads["paths"] += 1
        elif isinstance(payload[-1], set):  # (clustered, threshold, purchases)
            self.reads["edge-state"] += 1
        else:  # one head flag per transmitted sample
            self.reads["heads"] += 1
        return payload


def test_broadcast_reads_stay_local(monkeypatch):
    # every vertex reads a broadcast wave only through Network.heard; a
    # view that admits only the phase's remaining-edge neighbors changes
    # nothing on builds that cluster (at k=3 also in phase 2) and drop edges
    paths = Network.paths

    def phase_paths(self, samples, inc):
        self.phase_neighbors = {v: {u for _, _, u in inc_v} for v, inc_v in inc.items()}
        return paths(self, samples, inc)

    monkeypatch.setattr(Network, "paths", phase_paths)
    reads = Counter()
    monkeypatch.setattr(Network, "heard", lambda self, v, wave: LocalView(
        wave, v, self.phase_neighbors[v], reads))
    complete = generate("complete", n=60, seed=1, weights=(1, 1000))
    gnp = generate("gnp", n=60, p=0.5, seed=7, weights=(1, 40))
    for g, k in ((complete, 3), (gnp, 2), (gnp, 3)):
        reads.clear()
        res, _ = simulate_distributed_spanner(g, 1, k, seed=0, c_k=1)
        assert res.edges == build_ft_spanner(g, 1, k, seed=0, c_k=1).edges
        assert res.trace[0].clustered > 0 and res.edge_count < g.m
        if k == 3:
            assert res.trace[1].clustered > 0
        assert set(reads) == {"paths", "heads", "edge-state"} and min(reads.values()) > 0


def test_registrations_handled_shortest_first(tmp_path):
    # registrations of different lengths share a wave; they are handled
    # as they complete, shortest first, and that order sets the next
    # wave's send order, which the pinned message log shows
    g = generate("complete", n=17, seed=28, weights=(1, 1000))
    res, rr = simulate_distributed_spanner(g, 1, 4, seed=597529, c_k=1, c_b=2,
                                           record_messages=True)
    assert [t.clustered for t in res.trace] == [17, 17, 9, 0]
    assert len({bits for _, _, bits, tag in rr.log if tag == "register"}) > 1
    log = tmp_path / "sim.log"
    _dump_message_log(rr.log, str(log))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "887a39b4fb5ebf03fa90b10a118e6f741ea59e8341c5550660439ebd69cd0823")


def test_star_graph_simulation():
    star = Graph(9, [(0, i, 1) for i in range(1, 9)])
    res, rounds = simulate_distributed_spanner(star, 1, 2, seed=3)
    seq = build_ft_spanner(star, 1, 2, seed=3)
    assert res.edges == seq.edges
    assert rounds.max_bits <= rounds.bandwidth
    assert sum(rounds.rounds_per_phase) == rounds.total_rounds


def test_output_matches_sequential_across_seeds(dense34):
    for seed in range(4):
        res, rr = simulate_distributed_spanner(dense34, 1, 2, seed=seed, c_k=1)
        seq = build_ft_spanner(dense34, 1, 2, seed=seed, c_k=1)
        assert res.edges == seq.edges
        assert rr.max_bits <= rr.bandwidth


def test_output_matches_sequential_multiphase():
    g = generate("gnp", n=60, p=0.5, seed=7, weights=(1, 40))
    for seed in range(3):
        res, rr = simulate_distributed_spanner(g, 1, 3, seed=seed, c_k=1)
        seq = build_ft_spanner(g, 1, 3, seed=seed, c_k=1)
        assert res.edges == seq.edges


def test_broadcast_rounds_bounded_in_real_phases():
    # multi-phase run with actual trees: per-phase rounds stay small and
    # the whole run respects the bandwidth everywhere
    g = generate("gnp", n=60, p=0.6, seed=9)
    res, rr = simulate_distributed_spanner(g, 1, 3, seed=1, c_k=1)
    assert len(rr.rounds_per_phase) == 3
    assert rr.max_bits <= rr.bandwidth
    assert rr.total_rounds < 200


def test_simulation_deterministic_and_logged():
    g = generate("gnp", n=20, p=0.5, seed=5)
    a, ra = simulate_distributed_spanner(g, 1, 2, seed=2, record_messages=True)
    b, rb = simulate_distributed_spanner(g, 1, 2, seed=2, record_messages=True)
    assert a.edges == b.edges
    assert ra.to_dict() == rb.to_dict()
    assert ra.log == rb.log  # the message log replays bit-exactly


def test_tree_broadcast_on_real_phase_trees():
    # extract the cluster trees of a live phase and drive the broadcast
    # primitive over them directly
    g = generate("gnp", n=60, p=0.5, seed=7)
    res = build_ft_spanner(g, 1, 3, seed=1, c_k=1, record_states=True)
    exercised = 0
    for st in res.states:
        if st.i == 0 or not st.clustered:
            continue
        exercised += 1
        trees = {}
        members = {}
        for v in st.clustered:
            for p in st.q[v]:
                parent_of = trees.setdefault(p.head, {})
                for a, b in zip(p.vertices, p.vertices[1:]):
                    parent_of[b] = a
                members.setdefault(p.head, set()).add(v)
        if not any(trees.values()):
            continue
        net = Network(g)
        received, rounds = tree_broadcast(net, children_of(trees), trees)
        depth = max((len(p.vertices) - 1 for v in st.clustered
                     for p in st.q[v]), default=0)
        assert rounds <= 2 * (depth + 1)
        for s, mem in members.items():
            for v in mem:
                assert s in received[v]
    assert exercised >= 1


def test_regression_owner_registration_not_repeated():
    # deep-tree config that once double-registered an owner's child edge,
    # making the announcement wave enqueue two messages on one edge
    g = generate("gnp", n=54, p=0.7648256954076651, seed=37, weights=(1, 60))
    res, rr = simulate_distributed_spanner(g, 2, 4, seed=823419, c_k=1)
    seq = build_ft_spanner(g, 2, 4, seed=823419, c_k=1)
    assert res.edges == seq.edges
    assert rr.max_bits <= rr.bandwidth


def test_fuzz_equality_random_configs():
    from ftspanner.rng import substream

    rng = substream(7, "congest-fuzz")
    for trial in range(20):
        n = rng.randint(2, 50)
        g = generate("gnp", n=n, p=rng.uniform(0.1, 0.9), seed=trial,
                     weights=(1, 30) if rng.random() < 0.5 else None)
        f = rng.randint(1, min(3, n - 1))
        k = rng.randint(2, 4)
        ck = rng.choice([1, 2, 20])
        seed = rng.randint(0, 10**6)
        sim, rr = simulate_distributed_spanner(g, f, k, seed=seed, c_k=ck)
        seq = build_ft_spanner(g, f, k, seed=seed, c_k=ck)
        assert sim.edges == seq.edges, (trial, n, f, k, ck, seed)
        assert rr.max_bits <= rr.bandwidth


def test_rounds_do_not_grow_with_f():
    g = generate("gnp", n=120, p=0.1, seed=3)
    _, r1 = simulate_distributed_spanner(g, 1, 3, seed=0)
    _, r4 = simulate_distributed_spanner(g, 4, 3, seed=0)
    assert r4.total_rounds <= 1.2 * r1.total_rounds
