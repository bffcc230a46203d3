import gc
import itertools
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_id
from ftspanner import meta
from ftspanner.congest import simulate_distributed_spanner
from ftspanner.detkit import build_ft_spanner_det
from ftspanner.graphs import Graph, Path, generate
from ftspanner.meta import (FanEntry, Offer, PhaseRecord, build_fan, build_ft_spanner,
                            check_invariants, choose_cluster,
                            le_edge_ids, random_steps, run_phases,
                            sample_fan_paths, shortcut)
from ftspanner.parmis import PathConflictInstance, lex_first_mis, parallel_greedy_mis
from ftspanner.rng import substream, vertex_stream
from ftspanner.verify import verify_spanner


def path_of(*verts, w0=1):
    p = Path.trivial(verts[0])
    for idx, v in enumerate(verts[1:]):
        p = p.extend(v, 100 + idx, (w0 + idx, 100 + idx))
    return p


# --- step 1 -----------------------------------------------------------------

def test_fan_rejects_shared_interior():
    # two candidates through the same bridge vertex: only the first joins
    z1, z2, a, v = 0, 1, 2, 3
    inc_v = [(5, 7, a)]
    samples = {a: Offer([path_of(z1, a), path_of(z2, a)])}
    fan = build_fan(v, (Path.trivial(v),), inc_v, samples)
    grown = [e for e in fan if e.src is not None]
    assert len(grown) == 1
    assert grown[0].path.vertices == (z1, a, v)


def test_fan_accepts_disjoint_candidates():
    v = 9
    inc_v = [(3, 1, 2), (5, 2, 4)]
    samples = {2: Offer([path_of(0, 2)]), 4: Offer([path_of(1, 4)])}
    fan = build_fan(v, (Path.trivial(v),), inc_v, samples)
    assert sum(1 for e in fan if e.src is not None) == 2


def test_fan_maximality_post_hoc():
    g = generate("gnp", n=26, p=0.5, seed=6)
    rng = substream(4, "maximality")
    inc = {v: [(w, eid, u) for (w, eid, u) in g.adj[v]] for v in range(g.n)}
    samples = {u: Offer([Path.trivial(u)]) for u in range(g.n)}
    for v in range(0, g.n, 5):
        fan = build_fan(v, (Path.trivial(v),), inc[v], samples)
        covered = set()
        for e in fan:
            covered |= e.orig.vset
        for _, _, u in inc[v]:
            for p in samples[u]:
                assert p.vset & covered, "a disjoint sampled path was left out"


def test_fan_variants_differ_only_in_order():
    # singleton samples are pairwise disjoint, so the in-order fan and the
    # ranked fan both accept every neighbor
    g = generate("complete", n=8, seed=1)
    inc = [(w, eid, u) for (w, eid, u) in g.adj[0]]
    samples = {u: Offer([Path.trivial(u)]) for u in range(1, 8)}
    f_seq = build_fan(0, (Path.trivial(0),), inc, samples)
    f_mod = build_fan(0, (Path.trivial(0),), inc, samples, substream(1, "pi"))
    assert {e.path.vertices for e in f_seq} == {e.path.vertices for e in f_mod}
    assert {e.src for e in f_seq if e.src is not None} == set(range(1, 8))


# --- lazy fan entries against the eager fan step ----------------------------

def _eager_shortcut(path, edge_of):
    verts = path.vertices
    best = None
    best_idx = -1
    for idx in range(len(verts) - 1):
        hit = edge_of.get(verts[idx])
        if hit is not None and (best is None or hit < best):
            best = hit
            best_idx = idx
    if best_idx == len(verts) - 2:
        return path
    return path.prefix_to(best_idx).extend(verts[-1], best[1], best)


def _full_draw(pi_rng, n):
    """0..n-1 in the order of mod's forward draw, drawn to the pool's end:
    each step swap-pops a uniform position of what is left."""
    pool = list(range(n))
    order = []
    while pool:
        j = pi_rng.randrange(len(pool))
        pool[j], pool[-1] = pool[-1], pool[j]
        order.append(pool.pop())
    return order


def _alive_under_full_draw(pi_rng, offered, used):
    """(alive, inst): the positions of the offered paths disjoint from
    used, and their conflict instance ranked by the full draw."""
    drawn = [j for j in _full_draw(pi_rng, len(offered)) if offered[j].vset.isdisjoint(used)]
    rank = {j: r for r, j in enumerate(drawn)}
    alive = sorted(drawn)
    return alive, PathConflictInstance(tuple(offered[j].vset for j in alive),
                                       tuple(map(rank.__getitem__, alive)))


def _eager_build_fan(v, q_v, inc_v, samples, variant="seq", pi_rng=None):
    """The fan step that builds both paths of every accepted candidate up
    front, as (path, orig, src, sample_idx) in build_fan's order."""
    used = set()
    for p in q_v:
        used |= p.vset
    entries = [(p, p, None, -1) for p in q_v]
    edge_of = {u: (w, eid) for (w, eid, u) in inc_v}

    accepted = []
    if variant == "seq":
        for w, eid, u in inc_v:
            for si, p in enumerate(samples[u]):
                if p.vset.isdisjoint(used):
                    used |= p.vset
                    accepted.append((p, eid, (w, eid), u, si))
                    break
    else:
        cands = [(p, eid, (w, eid), u, si)
                 for (w, eid, u) in inc_v
                 for si, p in enumerate(samples[u])]
        if pi_rng is not None:
            alive, inst = _alive_under_full_draw(pi_rng, [c[0] for c in cands], used)
            # the scan the round algorithm reproduces
            taken = lex_first_mis(inst)
            for t in sorted(taken, key=inst.pi.__getitem__):
                accepted.append(cands[alive[t]])
        else:
            for c in cands:
                if c[0].vset.isdisjoint(used):
                    used |= c[0].vset
                    accepted.append(c)

    for p, eid, key, u, si in accepted:
        grown = p.extend(v, eid, key)
        entries.append((_eager_shortcut(grown, edge_of), grown, u, si))
    entries.sort(key=lambda e: e[0].last_key)
    return entries


def _random_path(g, rng, tail, hops):
    """A simple path of the given hop count ending at tail, keys from g."""
    verts = rng.sample([x for x in range(g.n) if x != tail], hops) + [tail]
    p = Path.trivial(verts[0])
    for a, b in zip(verts, verts[1:]):
        eid = edge_id(g, a, b)
        p = p.extend(b, eid, g.key(eid))
    return p


@st.composite
def fan_cases(draw):
    """One owner of a complete weighted graph, a subset of its edges as the
    remaining ones, inherited paths ending at it, and per neighbor a sample
    list of distinct paths of up to three hops, whose interior vertices are
    often lighter neighbors of the owner, so shortcuts cut."""
    n = draw(st.integers(5, 14))
    seed = draw(st.integers(0, 10**6))
    g = generate("complete", n=n, seed=seed, weights=(1, 30))
    rng = substream(seed, "fan-case")
    v = draw(st.integers(0, n - 1))
    inc_v = [t for t in g.adj[v] if rng.random() < 0.7] or list(g.adj[v][:1])
    if draw(st.booleans()):
        q_v = (Path.trivial(v),)
    else:
        q_v = tuple({p.vertices: p for p in (
            _random_path(g, rng, v, rng.randint(1, 2))
            for _ in range(rng.randint(1, 2)))}.values())
    samples = {}
    for _, _, u in inc_v:
        paths = [_random_path(g, rng, u, rng.randint(0, min(3, n - 2)))
                 for _ in range(rng.randint(0, 4))]
        samples[u] = Offer({p.vertices: p for p in paths}.values())
    ranked = draw(st.booleans())
    heads = frozenset(x for x in range(n) if rng.random() < 0.5)
    return v, q_v, inc_v, samples, ranked, seed, heads


def _full(p):
    return p.vertices, p.edges, p.keys


def test_lazy_fan_matches_eager_oracle():
    cut_entries = []
    multi_hop = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fan_cases())
    def check(case):
        v, q_v, inc_v, samples, ranked, seed, heads = case
        got = build_fan(v, q_v, inc_v, samples, substream(seed, "pi") if ranked else None)
        # unranked, the fan is the seq scan and the in-order scan of all
        # candidates alike: meta-mod repeats meta-seq fan by fan
        wants = ([_eager_build_fan(v, q_v, inc_v, samples, "mod", substream(seed, "pi"))]
                 if ranked else [_eager_build_fan(v, q_v, inc_v, samples, scan)
                                 for scan in ("seq", "mod")])
        for want in wants:
            assert len(got) == len(want)
            for e, (path, orig, src, si) in zip(got, want):
                assert (e.src, e.sample_idx) == (src, si)
                assert (e.head, e.last_key) == (path.head, path.last_key)
                assert _full(e.path) == _full(path) and _full(e.orig) == _full(orig)
        for path, orig, src, _ in wants[0]:
            cut_entries.append(path.vertices != orig.vertices)
            multi_hop.append(src is not None and orig.hops >= 2)

        for i_v in range(1, len(want) + 2):
            pre = set().union(*(orig.vset for _, orig, _, _ in want[: i_v - 1]))
            assert le_edge_ids(got, i_v, inc_v) == [eid for (_, eid, u) in inc_v if u in pre]
        for k_f in (1, 2, 3):
            ok, q, i_v = choose_cluster(got, lambda e: e.head in heads, k_f)
            hits = [j for j, (path, *_) in enumerate(want) if path.head in heads]
            if len(hits) >= k_f:
                assert ok and i_v == hits[k_f - 1] + 1
                assert [_full(p) for p in q] == [_full(want[j][0]) for j in hits[:k_f]]
            else:
                assert (ok, q, i_v) == (False, (), len(want) + 1)

    check()
    assert sum(multi_hop) >= 100, "fixture must accept multi-hop sample paths"
    assert sum(cut_entries) >= 25, "fixture must exercise shortcuts that cut"


def test_fan_entry_builds_paths_on_first_access():
    s, a, b, v = 0, 1, 2, 3
    base = Path.trivial(s).extend(a, 10, (1, 10)).extend(b, 11, (2, 11))
    e = FanEntry(base, b, 0, v, (7, 12), 1, (5, 13))
    assert (e.head, e.last_key) == (s, (5, 13))
    assert e._path is None and e._orig is None
    assert e.path.vertices == (s, a, v) and e.path.last_key == (5, 13)
    assert e.orig.vertices == (s, a, b, v) and e.orig.last_key == (7, 12)
    assert e.path is e.path and e.orig is e.orig
    inherited = FanEntry(base)
    assert inherited.path is base and inherited.orig is base
    assert (inherited.src, inherited.sample_idx, inherited.last_key) == (None, -1, (2, 11))


# --- the stopping fan against the eager fan, on real build inputs -----------

def _capture_fans(monkeypatch, build):
    """(phase, v, q_v, inc_v, samples, pi_state, kwargs) of every
    build_fan call of build(); pi_state is the permutation stream's state
    before the call, None when no stream was given and the fan is not
    ranked, and kwargs the saturation bound and phase-1 flag it got."""
    real = meta.build_fan
    calls, phase_of = [], {}

    def capture(v, q_v, inc_v, samples, pi_rng=None, **kwargs):
        # run_phases builds each clustered vertex's fan once per phase
        i = phase_of[v] = phase_of.get(v, 0) + 1
        state = pi_rng.getstate() if pi_rng is not None else None
        calls.append((i, v, q_v, inc_v, samples, state, kwargs))
        return real(v, q_v, inc_v, samples, pi_rng, **kwargs)

    monkeypatch.setattr(meta, "build_fan", capture)
    build()
    monkeypatch.undo()
    return calls


def _pi_of(call):
    state = call[5]
    if state is None:
        return None
    pi_rng = random.Random()
    pi_rng.setstate(state)
    return pi_rng


def _fan_of(call, samples=None, **override):
    """call's fan, replayed with the bound and phase-1 flag it was built
    with, unless override replaces them."""
    _, v, q_v, inc_v, offered, _, kwargs = call
    return build_fan(v, q_v, inc_v, offered if samples is None else samples,
                     _pi_of(call), **{**kwargs, **override})


def _watched_fan(call, read, **override):
    """Build call's fan (with override's arguments) over sample lists that
    log their scans, run read on it, and return the neighbors whose lists
    the scan read."""
    scanned = []

    class Watched(meta.Offer):
        def __iter__(self):
            scanned.append(self.owner)
            return super().__iter__()

        def __getitem__(self, idx):  # the phase-1 fan reads samples[u][0]
            scanned.append(self.owner)
            return super().__getitem__(idx)

    watched = {}
    for _, _, u in call[3]:
        w = watched[u] = Watched(call[4][u])
        w.owner = u
        w.heads  # computed before the watch starts, as its sender would
    scanned.clear()
    read(_fan_of(call, watched, **override))
    return set(scanned)


# K40 and K60 run the randomized builders; det first clusters at k=3,
# c_k=1 on K100 (det_cluster_threshold is 90 there, and 72 > 59 on K60)
STOPPING_FAN_BUILDS = {
    "meta-seq": (40, lambda g: build_ft_spanner(g, 1, 3, seed=1, c_k=1)),
    "meta-mod": (60, lambda g: build_ft_spanner(g, 1, 3, seed=2, variant="mod", c_k=1)),
    "meta-mod-parallel": (60, lambda g: build_ft_spanner(
        g, 1, 3, seed=1, variant="mod", mis="parallel", c_k=1)),
    "meta-det": (100, lambda g: build_ft_spanner_det(g, 1, 3, c_k=1)),
}


def _check_stopping_fan(call, heads):
    """call's fan, read in full, by prefix, by choose_cluster at K_f = 1-3
    and by le_edge_ids at every i_v, against the eager fan step."""
    _, v, q_v, inc_v, samples, state, _ = call
    want = _eager_build_fan(v, q_v, inc_v, samples, "seq" if state is None else "mod",
                            _pi_of(call))
    ident = lambda e: (e.src, e.sample_idx, e.head, e.last_key)
    want_ids = [(src, si, path.head, path.last_key) for path, _, src, si in want]

    full = _fan_of(call)
    assert len(full) == len(want)
    assert [ident(e) for e in full] == want_ids
    assert [(_full(e.path), _full(e.orig)) for e in full] \
        == [(_full(path), _full(orig)) for path, orig, _, _ in want]
    fan = _fan_of(call)
    for j in range(len(want) + 2):
        assert [ident(e) for e in fan[:j]] == want_ids[:j]

    hits = [j for j, (path, *_) in enumerate(want) if path.head in heads]
    for k_f in (1, 2, 3):
        ok, q, i_v = choose_cluster(_fan_of(call), lambda e: e.head in heads, k_f)
        if len(hits) >= k_f:
            assert ok and i_v == hits[k_f - 1] + 1
            assert [_full(p) for p in q] == [_full(want[j][0]) for j in hits[:k_f]]
        else:
            assert (ok, q, i_v) == (False, (), len(want) + 1)

    fan = _fan_of(call)
    pre: set[int] = set()
    for i_v in range(1, len(want) + 2):
        if i_v >= 2:
            pre |= want[i_v - 2][1].vset
        assert le_edge_ids(fan, i_v, inc_v) == [eid for (_, eid, u) in inc_v if u in pre]


def test_stopping_fan_matches_eager_fan_on_real_builds(monkeypatch):
    """Every fan of four real builds, replayed with the saturation bound
    and phase-1 flag the build gave it, equals the eager fan step's
    however it is read. Floors: the saturation rule ends at least half of
    the unranked phase-2 scans, and phase-1 fans stay unfinished after
    choose_cluster's and le_edge_ids's reads, both as built and when
    replayed as scans (without the phase-1 flag), where the prefix rule
    is what leaves them unfinished."""
    unfinished = unfinished_scans = 0
    unranked_p2 = []
    drew = []  # per mod-parallel fan: was it ranked
    ident = lambda e: (e.src, e.sample_idx, e.head, e.last_key, _full(e.path), _full(e.orig))
    for name, (n, build) in STOPPING_FAN_BUILDS.items():
        g = generate("complete", n=n, seed=1, weights=(1, 1000))
        calls = _capture_fans(monkeypatch, lambda: build(g))
        assert {c[0] for c in calls} >= {1, 2}, f"{name}: no phase-2 fans"
        heads = frozenset(x for x in range(n) if substream(n, "heads", x).random() < 0.3)
        for call in calls:
            _check_stopping_fan(call, heads)
            i, v, q_v, inc_v, samples, state, kwargs = call
            if state is not None:
                pi_rng = _pi_of(call)
                build_fan(v, q_v, inc_v, samples, pi_rng, **kwargs)
                drew.append(pi_rng.getstate() != state)
                continue
            offered = {u for _, _, u in inc_v if samples[u]}
            if i == 1:
                def read(fan):
                    _, _, i_v = choose_cluster(fan, lambda e: e.head in heads, 3)
                    le_edge_ids(fan, i_v, inc_v)
                unfinished += _watched_fan(call, read) < offered
                assert [ident(e) for e in _fan_of(call, first_phase=False)] \
                    == [ident(e) for e in _fan_of(call)]
                unfinished_scans += _watched_fan(call, read, first_phase=False) < offered
            elif i == 2:
                fan = _fan_of(call)
                covered = set().union(*(e.base.vset for e in fan))
                stopped = _watched_fan(call, len) < offered
                unranked_p2.append(stopped and all(
                    p.head in covered for u in offered for p in samples[u]))
    assert any(drew) and not all(drew), "need ranked and pairwise-disjoint fans"
    assert unfinished >= 1, "no phase-1 fan was left unfinished"
    assert unfinished_scans >= 1, "no phase-1 scan was left unfinished"
    assert sum(unranked_p2) * 2 >= len(unranked_p2) > 0, \
        f"saturation ended {sum(unranked_p2)} of {len(unranked_p2)} phase-2 scans"


def test_witness_probe_stops_fans_offered_fewer_heads_than_the_bound(monkeypatch):
    """On a gnp graph a fan is offered only its neighbors' heads, often
    fewer than the phase's bound, which then never falls inside the fan;
    the witness probe over later neighbors stops those scans. Each such
    fan equals the eager fan step's however it is read, and at least 20
    stop before the end of inc_v, neither by the bound nor because every
    neighbor is in the fan."""
    g = generate("gnp", n=100, p=0.4, seed=1, weights=(1, 1000))
    built = []
    calls = _capture_fans(monkeypatch, lambda: built.append(build_ft_spanner(g, 1, 3, seed=1, c_k=1)))
    res = built[0]
    assert res.trace[1].clustered > 0 and res.edge_count < g.m
    heads = frozenset(x for x in range(g.n) if substream(g.n, "heads", x).random() < 0.3)
    loose = stopped = 0
    for call in calls:
        _, v, q_v, inc_v, samples, _, kwargs = call
        bound = kwargs["bound"]
        if bound is None or len(_offered_heads_of(call)) >= len(bound):
            continue
        loose += 1
        _check_stopping_fan(call, heads)
        used = set().union(*(e.base.vset for e in _fan_of(call)))
        offered = {u for _, _, u in inc_v if samples[u]}
        stopped += (_watched_fan(call, len) < offered and not bound <= used
                    and not all(u in used for _, _, u in inc_v))
    assert loose >= 40 and stopped >= 20, (loose, stopped)


def _offered_heads_of(call):
    _, _, _, inc_v, samples, _, _ = call
    return set().union(*(samples[u].heads for _, _, u in inc_v))


def test_seq_and_scan_order_mod_build_the_same_spanner():
    """Every sample of a neighbor u ends at u, so once the scan accepts one
    of them, the rest meet the fan: the in-order scan takes at most one
    path per neighbor, as seq does, and meta-mod repeats meta-seq."""
    rng = substream(22, "seq-vs-mod")
    clustered = 0
    for case in range(30):
        n = rng.randint(20, 45)
        weights = (1, 1000) if case % 3 else "unit"
        if case % 2:
            g = generate("complete", n=n, seed=case, weights=weights)
        else:
            g = generate("gnp", n=n, p=rng.uniform(0.5, 0.9), seed=case, weights=weights)
        f, k = rng.choice(((1, 2), (1, 3), (2, 2)))
        seq = build_ft_spanner(g, f, k, seed=case, c_k=1)
        assert seq.edges == build_ft_spanner(g, f, k, seed=case, variant="mod", c_k=1).edges
        clustered += seq.trace[0].clustered > 0 and seq.edge_count < g.m
    assert clustered >= 28, f"only {clustered} of 30 builds cluster and drop edges"


# --- shortcut ---------------------------------------------------------------

def test_shortcut_picks_lightest_backward_edge():
    s, a, b, v = 0, 1, 2, 3
    p = (Path.trivial(s).extend(a, 10, (1, 10)).extend(b, 11, (2, 11))
         .extend(v, 12, (7, 12)))
    edge_of = {a: (5, 13), b: (7, 12)}
    cut = shortcut(p, edge_of)
    assert cut.vertices == (s, a, v)
    assert cut.last_key == (5, 13)


def test_shortcut_identity_when_last_edge_lightest():
    s, a, v = 0, 1, 2
    p = Path.trivial(s).extend(a, 3, (2, 3)).extend(v, 4, (4, 4))
    assert shortcut(p, {a: (4, 4)}) is p


def test_shortcut_obs_on_random_instances():
    # the produced last edge is no heavier than any remaining edge from
    # the original path into the owner
    g = generate("gnp", n=30, p=0.5, seed=3, weights=(1, 50))
    for v in range(0, 30, 3):
        inc = [(w, eid, u) for (w, eid, u) in g.adj[v]]
        edge_of = {u: (w, eid) for (w, eid, u) in inc}
        samples = {u: Offer([Path.trivial(u)]) for (_, _, u) in inc}
        fan = build_fan(v, (Path.trivial(v),), inc, samples)
        for e in fan:
            if e.src is None:
                continue
            lk = e.path.last_key
            for x in e.orig.vertices[:-1]:
                if x in edge_of:
                    assert lk <= edge_of[x]


# --- step 2 / step 3 --------------------------------------------------------

def _entries_with_heads(heads):
    out = []
    for j, h in enumerate(heads):
        p = Path.trivial(h).extend(99, 50 + j, (10 + j, 50 + j))
        out.append(FanEntry(p))
    return out


def test_choose_cluster_unrolled():
    entries = _entries_with_heads([0, 1, 2, 3, 4])
    sampled = {1, 3, 4}
    ok, q, i_v = choose_cluster(entries, lambda e: e.path.head in sampled, 2)
    assert ok
    assert [p.head for p in q] == [1, 3]
    assert i_v == 4  # 1-based index of the second sampled entry


def test_choose_cluster_empty_center_set():
    entries = _entries_with_heads([0, 1, 2])
    ok, q, i_v = choose_cluster(entries, lambda e: False, 2)
    assert not ok and q == () and i_v == 4


def test_le_edges_cases():
    heads = [0, 1, 2]
    entries = _entries_with_heads(heads)
    inc = [(5, 7, 0), (6, 8, 1), (9, 9, 5)]
    # i_v = 1: nothing before the first entry
    assert le_edge_ids(entries, 1, inc) == []
    # unclustered: every fan vertex is covered
    got = le_edge_ids(entries, len(entries) + 1, inc)
    assert got == [7, 8]

    # a phase-1 fan: the owner's trivial path, then one-vertex paths
    inc = [(2, 5, 3), (4, 6, 1), (7, 8, 2)]
    fan = build_fan(0, (Path.trivial(0),), inc,
                    {u: Offer([Path.trivial(u)]) for _, _, u in inc})
    assert [len(e.base.vertices) for e in fan] == [1, 1, 1, 1]
    for i_v in range(1, len(fan) + 2):
        assert le_edge_ids(fan, i_v, inc) == _le_by_scan(fan, i_v, inc)
    assert le_edge_ids(fan, len(fan) + 1, inc) == [5, 6, 8]

    # phase >= 2: a surviving center's trivial path (c) follows a path
    # through z, whose own edge into the owner is heavier and is bought
    z, b, c = 1, 2, 3
    inc = [(2, 11, b), (5, 12, c), (7, 13, z)]
    samples = {b: Offer([path_of(z, b)]), c: Offer([Path.trivial(c)]), z: Offer([])}
    fan = build_fan(0, (Path.trivial(0),), inc, samples)
    assert [len(e.base.vertices) for e in fan] == [1, 2, 1]
    for i_v in range(1, len(fan) + 2):
        assert le_edge_ids(fan, i_v, inc) == _le_by_scan(fan, i_v, inc)
    assert le_edge_ids(fan, len(fan) + 1, inc) == [11, 12, 13]


def _le_by_scan(entries, i_v, inc_v):
    """The purchases by their definition: the remaining edges into the
    pre-shortcut vertices of the entries before i_v, in inc_v order."""
    pre = set().union(*(e.base.vset for e in entries[: i_v - 1]))
    return [eid for (_, eid, u) in inc_v if u in pre]


def test_sample_paths_dedup_and_determinism():
    paths = tuple(path_of(i, 50) for i in range(6))
    a = sample_fan_paths(paths, substream(1, "s"), 20)
    b = sample_fan_paths(paths, substream(1, "s"), 20)
    assert a == b
    assert len({p.vertices for p in a}) == len(a)
    assert set(a) <= set(paths)
    assert sample_fan_paths((paths[0],), substream(2, "s"), 5) == [paths[0]]


def test_inline_draw_is_randrange():
    """sample_fan_paths and the ranked fan draw each uniform position
    inline, as getrandbits(n.bit_length()) redrawn while not below n:
    Random.randrange(n) value for value and word for word, for every n in
    1..4096, on several streams."""
    paths = tuple(Path.trivial(x) for x in range(4096))
    # owner 0 inherits (1, 0); neighbor 2 offers 4096 paths through 1 with
    # distinct heads, so none joins, the fan never saturates, and the
    # ranked draw runs the pool down from 4096 to 1
    q_v = (path_of(1, 0),)
    samples = {2: Offer(path_of(h, 1, 2) for h in range(3, 4099))}
    for seed in range(4):
        rng, replay = substream(seed, "draw"), substream(seed, "draw")
        for n in range(1, 4097):
            want = [paths[replay.randrange(n) if n > 1 else 0]]
            assert sample_fan_paths(paths[:n], rng, 1) == want
        assert rng.getstate() == replay.getstate()
        fan = build_fan(0, q_v, [(5, 7, 2)], samples, rng)
        assert [e.src for e in fan] == [None]
        for n in range(4096, 0, -1):
            replay.randrange(n)
        assert rng.getstate() == replay.getstate()


# --- whole builds -----------------------------------------------------------

def test_tree_spanner_is_whole_graph():
    t = generate("tree", n=30, seed=4)
    for variant in ("seq", "mod"):
        res = build_ft_spanner(t, 1, 3, seed=2, variant=variant)
        assert set(res.edges) == set(range(t.m))


def test_trace_shape_and_determinism(gnp30):
    res = build_ft_spanner(gnp30, 1, 3, seed=9)
    assert len(res.trace) == 3
    assert res.trace[-1].remaining == 0
    assert res.to_json() == build_ft_spanner(gnp30, 1, 3, seed=9).to_json()
    assert res.to_json() != build_ft_spanner(gnp30, 1, 3, seed=10).to_json()


def test_exhaustive_protection_with_clustering(dense34):
    for seed in range(3):
        res = build_ft_spanner(dense34, 1, 2, seed=seed, c_k=1, record_states=True)
        assert res.trace[0].clustered > 0, "fixture must exercise clustering"
        rep = verify_spanner(dense34, res.edges, 1, 2)
        assert rep.passed, rep.violations[:3]


def test_exhaustive_protection_f2_with_clustering():
    g = generate("gnp", n=26, p=0.7, seed=3, weights=(1, 40))
    for seed in range(3):
        res = build_ft_spanner(g, 2, 2, seed=seed, c_k=1, record_states=True)
        assert res.trace[0].clustered > 0
        assert not [d for st in res.states for d in check_invariants(st)]
        rep = verify_spanner(g, res.edges, 2, 2)
        assert rep.passed, rep.violations[:3]


def test_parallel_mis_variant_verified(dense34):
    res = build_ft_spanner(dense34, 1, 2, seed=2, variant="mod", mis="parallel",
                           c_k=1, record_states=True)
    assert not [d for st in res.states for d in check_invariants(st)]
    assert verify_spanner(dense34, res.edges, 1, 2).passed


def test_remaining_edges_shrink_and_stay_clustered():
    g = generate("gnp", n=60, p=0.5, seed=7)
    res = build_ft_spanner(g, 1, 3, seed=1, c_k=1, record_states=True)
    for prev, cur in zip(res.states, res.states[1:]):
        assert cur.remaining <= prev.remaining
        for eid in cur.remaining:
            u, v, _ = g.edges[eid]
            assert u in cur.clustered and v in cur.clustered


def test_invariants_hold_across_phases():
    g = generate("gnp", n=200, p=0.3, seed=2)
    for k in (2, 3):
        res = build_ft_spanner(g, 1, k, seed=0, c_k=1, record_states=True)
        for st in res.states:
            assert check_invariants(st) == [], (k, st.i)
        assert any(st.i > 0 and st.clustered for st in res.states)


def test_injected_violations_detected():
    g = generate("gnp", n=34, p=0.5, seed=11)
    res = build_ft_spanner(g, 1, 2, seed=0, c_k=1, record_states=True)
    st = res.states[1]
    v = next(iter(st.clustered))
    paths = st.q[v]
    assert len(paths) >= 2

    # shared interior vertex across two cluster paths
    p0 = paths[0]
    other = paths[1].vertices[0]
    bad = Path((other,) + p0.vertices, (77,) + p0.edges, ((1, 77),) + p0.keys)
    broken = PhaseRecord(st.i, st.k, st.f, st.k_f, st.centers, st.clustered,
                         {**st.q, v: (bad,) + paths[1:]}, st.spanner,
                         st.remaining, st.prev_centers, st.prev_clustered,
                         st.prev_q)
    diags = check_invariants(broken)
    assert any("share vertex" in d for d in diags)

    # non-monotone weights
    p0 = paths[0]
    if p0.hops >= 1:
        bad = Path(p0.vertices + (g.n - 1,), p0.edges + (88,), p0.keys + ((0, -2),))
    broken = PhaseRecord(st.i, st.k, st.f, st.k_f, st.centers, st.clustered,
                         {**st.q, v: (bad,) + paths[1:]}, st.spanner,
                         st.remaining, st.prev_centers, st.prev_clustered,
                         st.prev_q)
    assert any("monotone" in d for d in check_invariants(broken))

    # wrong membership count
    broken = PhaseRecord(st.i, st.k, st.f, st.k_f, st.centers, st.clustered,
                         {**st.q, v: paths[:-1]}, st.spanner, st.remaining,
                         st.prev_centers, st.prev_clustered, st.prev_q)
    assert any("cluster paths" in d for d in check_invariants(broken))


def test_phase_zero_state_is_clean():
    g = generate("gnp", n=20, p=0.4, seed=1)
    res = build_ft_spanner(g, 1, 2, seed=0, record_states=True)
    assert res.states[0].i == 0
    assert check_invariants(res.states[0]) == []


def test_precondition_errors():
    g = generate("gnp", n=10, p=0.5, seed=0)
    with pytest.raises(ValueError):
        build_ft_spanner(g, 0, 2)
    with pytest.raises(ValueError):
        build_ft_spanner(g, 10, 2)
    with pytest.raises(ValueError):
        build_ft_spanner(g, 1, 1)
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        build_ft_spanner(g, 1, 2, variant="bogus")
    with pytest.raises(ValueError, match="unknown mis 'bogus'"):
        build_ft_spanner(g, 1, 2, variant="mod", mis="bogus")


def test_cluster_size_factor_must_be_positive():
    g = generate("gnp", n=10, p=0.5, seed=0)
    with pytest.raises(ValueError, match="c_k"):
        build_ft_spanner(g, 1, 2, c_k=0)


def test_parallel_mis_needs_variant_mod():
    g = generate("gnp", n=10, p=0.5, seed=0)
    with pytest.raises(ValueError, match="need variant 'mod' for mis='parallel', got 'seq'"):
        build_ft_spanner(g, 1, 2, mis="parallel")


def test_zero_edge_graph():
    g = generate("gnp", n=4, p=0.0, seed=0)
    res = build_ft_spanner(g, 1, 2, seed=0)
    assert res.edge_count == 0


# --- deferral against the rule per edge -------------------------------------

DEFERRAL_GRAPHS = {
    "gnp": lambda: generate("gnp", n=60, p=0.3, seed=3, weights=(1, 1000)),
    "complete": lambda: generate("complete", n=40, seed=1, weights=(1, 1000)),
}


def _rule_inc(inc, thr, bought, why):
    """Each clustered vertex's next remaining edges by the rule written out
    per edge; why counts the edges past v's threshold that stay by each
    clause."""
    out = {}
    for v in thr:
        keep = []
        for w, eid, u in inc[v]:
            if (w, eid) <= thr[v]:
                continue
            if u not in thr:
                why["unclustered"] += 1
            elif eid in bought:
                why["bought"] += 1
            elif (w, eid) <= thr[u]:
                why["below u"] += 1
            else:
                keep.append((w, eid, u))
        out[v] = keep
    return out


def _check_deferral(g, calls, trace, why):
    """calls: each phase's (inc, thr, bought) as edge_state received them.
    Each phase's next inc is the one the following phase received; after
    the last phase nothing remains."""
    assert len(calls) == len(trace)
    nexts = [c[0] for c in calls[1:]] + [{}]
    adj_ids = {id(t) for ts in g.adj for t in ts}
    for (inc, thr, bought), got, t in zip(calls, nexts, trace):
        want = _rule_inc(inc, thr, bought, why)
        assert got == want, f"phase {t.phase}"
        assert t.remaining == sum(map(len, want.values())) // 2
        # the lists reuse the graph's adjacency tuples
        assert all(id(x) in adj_ids for ts in got.values() for x in ts)


class _RecordingExchange(meta.LocalExchange):
    def __init__(self):
        self.calls = []

    def edge_state(self, inc, thr, le, bought):
        # run_phases adds the new cluster paths' edges to bought afterwards
        self.calls.append((inc, dict(thr), set(bought)))
        return super().edge_state(inc, thr, le, bought)


@pytest.mark.parametrize("k", (2, 3))
def test_deferral_follows_the_rule_per_edge(k, monkeypatch):
    """Every phase's next remaining edges of run_phases (LocalExchange)
    and of the simulation (Network) are those the rule keeps: key above
    both thresholds, u clustered, bought by neither endpoint."""
    from ftspanner import congest

    why = Counter()
    kept = 0
    real = congest.Network.edge_state
    for make in DEFERRAL_GRAPHS.values():
        g = make()
        sample_fn, centers_fn = random_steps(g.n, 1, k, 1)
        rec = _RecordingExchange()
        _, trace, _, _ = run_phases(g, 1, k, sample_fn=sample_fn, centers_fn=centers_fn,
                                    c_k=1, transport=rec)
        _check_deferral(g, rec.calls, trace, why)
        kept += trace[0].remaining

        calls = []

        def spy(net, inc, thr, le, bought):
            calls.append((inc, dict(thr), set(bought)))
            return real(net, inc, thr, le, bought)

        monkeypatch.setattr(congest.Network, "edge_state", spy)
        res, _ = simulate_distributed_spanner(g, 1, k, seed=1, c_k=1)
        monkeypatch.setattr(congest.Network, "edge_state", real)
        _check_deferral(g, calls, res.trace, why)
    assert kept > 0
    assert min(why[c] for c in ("unclustered", "bought", "below u")) > 0, why


# --- the conflict-free fan skips the MIS ------------------------------------

def _fan_instance(sample_verts, inherited=((0,),)):
    """Owner 0 of a weighted K9 with the given inherited paths (ending at
    0), and per neighbor u one sample list of the given paths ending at u."""
    g = generate("complete", n=9, seed=3, weights=(1, 30))

    def path(verts):
        p = Path.trivial(verts[0])
        for a, b in zip(verts, verts[1:]):
            eid = edge_id(g, a, b)
            p = p.extend(b, eid, g.key(eid))
        return p

    inc_v = [t for t in g.adj[0] if t[2] in sample_verts]
    samples = {u: Offer(map(path, paths)) for u, paths in sample_verts.items()}
    return tuple(map(path, inherited)), inc_v, samples


def _check_against_eager(inst, pi_seed):
    q_v, inc_v, samples = inst
    pi_rng = substream(pi_seed, "pi")
    before = pi_rng.getstate()
    got = build_fan(0, q_v, inc_v, samples, pi_rng)
    drew = pi_rng.getstate() != before
    want = _eager_build_fan(0, q_v, inc_v, samples, "mod", substream(pi_seed, "pi"))
    assert [(e.src, e.sample_idx, _full(e.path), _full(e.orig)) for e in got] \
        == [(src, si, _full(path), _full(orig)) for path, orig, src, si in want]
    return got, drew


def test_conflict_free_fan_skips_the_mis():
    # multi-hop samples whose vertex sets are pairwise disjoint
    inst = _fan_instance({1: [(5, 1)], 2: [(6, 7, 2)], 3: [(3,)], 4: [(8, 4)]})
    got, drew = _check_against_eager(inst, 11)
    assert len(got) == 5
    assert not drew


def test_one_conflict_runs_the_mis():
    # the samples of 1 and 2 share vertex 5
    inst = _fan_instance({1: [(5, 1)], 2: [(5, 2)], 3: [(3,)], 4: [(8, 4)]})
    got, drew = _check_against_eager(inst, 11)
    assert len(got) == 4
    assert drew


def _accepted(fan):
    return frozenset((e.src, e.sample_idx) for e in fan if e.src is not None)


@pytest.mark.parametrize("sample_verts, inherited", [
    # a conflict chain 1 - 2 - 3, and two samples of neighbor 4
    ({1: [(5, 1)], 2: [(5, 6, 2)], 3: [(6, 3)], 4: [(7, 4), (8, 4)]}, ((0,),)),
    # 3 meets 1, 2 and 4; the inherited path kills 7's first sample
    ({1: [(5, 1)], 2: [(5, 2)], 3: [(5, 6, 3)], 4: [(6, 4)], 7: [(8, 7), (7,)]},
     ((8, 0),)),
])
def test_drawn_fan_has_the_random_order_mis_distribution(sample_verts, inherited):
    """The accepted set of the drawn fan over 20,000 fixed streams is
    within total-variation distance 0.02 of the exact law of the
    lex-first MIS under a uniform order of the alive candidates."""
    q_v, inc_v, samples = _fan_instance(sample_verts, inherited)
    used = set().union(*(p.vset for p in q_v))
    alive = [(u, si, p.vset) for _, _, u in inc_v
             for si, p in enumerate(samples[u]) if p.vset.isdisjoint(used)]
    assert 2 <= len(alive) <= 6
    perms = list(itertools.permutations(range(len(alive))))
    exact = Counter(
        frozenset(alive[t][:2] for t in lex_first_mis(PathConflictInstance(
            tuple(c[2] for c in alive), pi)))
        for pi in perms)
    runs = 20_000
    seen = Counter(_accepted(build_fan(0, q_v, inc_v, samples, substream(s, "pi")))
                   for s in range(runs))
    assert set(seen) == set(exact) and len(exact) >= 3
    tv = sum(abs(seen[a] / runs - exact[a] / len(perms)) for a in exact) / 2
    assert tv < 0.02, f"total-variation distance {tv:.4f}"


def test_drawn_fan_stops_when_the_pool_runs_out():
    """Head 7 is offered only through 5, which the inherited path holds, so
    the fan never saturates: the draw ends with the pool, after one draw
    per offered path, and the fan equals the eager oracle's."""
    inst = _fan_instance({1: [(7, 5, 1)], 2: [(6, 2)], 3: [(6, 3)]}, ((5, 0),))
    for seed in range(20):
        got, drew = _check_against_eager(inst, seed)
        assert drew and len(got) == 2
        pi_rng, replay = substream(seed, "pi"), substream(seed, "pi")
        build_fan(0, *inst, pi_rng)
        for n in (3, 2, 1):
            replay.randrange(n)
        assert pi_rng.getstate() == replay.getstate()


def test_fans_stop_once_the_bound_is_inside_them():
    """The scan counts the bound's heads outside the fan from its first
    blocked neighbor on and stops at the acceptance that covers the last
    one, before reading the next neighbor's list; the ranked draw stops at
    the acceptance that covers the bound, with the pool not yet empty."""
    # owner 0 inherits (6, 0): neighbor 1 offers only a path through 6, so
    # it is blocked with head 7 open; neighbor 2's path covers 7
    q_v = (path_of(6, 0),)
    inc_v = [(1, 11, 1), (2, 12, 2), (3, 13, 3)]
    samples = {1: Offer([path_of(6, 1)]), 2: Offer([path_of(7, 2)]),
               3: Offer([path_of(7, 3)])}
    call = (2, 0, q_v, inc_v, samples, None, {})
    _check_stopping_fan(call, frozenset({6, 7}))
    assert _watched_fan(call, len) == {1, 2}
    # every neighbor offers head 5: the first draw takes one and saturates
    q_v = (Path.trivial(0),)
    samples = {u: Offer([path_of(5, u)]) for _, _, u in inc_v}
    for seed in range(10):
        pi_rng, replay = substream(seed, "pi"), substream(seed, "pi")
        got = build_fan(0, q_v, inc_v, samples, pi_rng)
        want = _eager_build_fan(0, q_v, inc_v, samples, "mod", substream(seed, "pi"))
        assert [(e.src, e.sample_idx) for e in got] == [(src, si) for _, _, src, si in want]
        assert len(got) == 2
        replay.randrange(3)
        assert pi_rng.getstate() == replay.getstate()


def _k40_mod_parallel(pi_rng_fn):
    """The K40 mod-parallel build (weights 1..1000, f=1, k=3, c_k=1, seed 1)
    through run_phases, with the given permutation streams."""
    g = generate("complete", n=40, seed=1, weights=(1, 1000))
    sample_fn, centers_fn = random_steps(g.n, 1, 3, 1)
    _, trace, _, _ = run_phases(g, 1, 3, sample_fn=sample_fn, centers_fn=centers_fn,
                                c_k=1, pi_rng_fn=pi_rng_fn)
    assert trace[0].clustered == g.n and trace[1].clustered > 0


def test_mis_runs_only_where_candidates_conflict():
    streams = []

    def pi_rng_fn(i, v):
        rng = vertex_stream(1, "pi", i, v)
        streams.append((i, rng, rng.getstate()))
        return rng

    _k40_mod_parallel(pi_rng_fn)
    drew = [i for i, rng, before in streams if rng.getstate() != before]
    assert drew.count(1) == 0  # phase 1: every sample is one neighbor
    assert drew.count(2) > 0


def test_no_permutation_stream_is_asked_for_in_phase_1():
    # phase-1 candidates are distinct neighbors' one-vertex paths, so
    # run_phases asks for no stream to rank them
    asked = []

    def pi_rng_fn(i, v):
        asked.append(i)
        return vertex_stream(1, "pi", i, v)

    _k40_mod_parallel(pi_rng_fn)
    assert 1 not in asked and 2 in asked


def test_round_mis_takes_the_fans_of_a_real_build(monkeypatch):
    """Every conflicting fan of a real mod-parallel build accepts exactly
    what parmis's round MIS takes on its alive candidates, ranked by the
    same forward draw run to the pool's end."""
    real = meta.build_fan
    phase_of = {}
    rounds = []

    def checked(v, q_v, inc_v, samples, pi_rng, **kwargs):
        out = real(v, q_v, inc_v, samples, pi_rng, **kwargs)
        # run_phases builds each clustered vertex's fan once per phase
        i = phase_of[v] = phase_of.get(v, 0) + 1
        used = set().union(*(p.vset for p in q_v))
        offered = [(u, si, p) for _, _, u in inc_v for si, p in enumerate(samples[u])]
        alive, inst = _alive_under_full_draw(
            vertex_stream(1, "pi", i, v), [c[2] for c in offered], used)
        if sum(map(len, inst.paths)) == len(set().union(*inst.paths)):
            return out
        assert pi_rng is not None, f"phase {i}: a conflicting fan of {v} got no stream"
        taken, trace = parallel_greedy_mis(inst)
        assert {offered[alive[t]][:2] for t in taken} == \
            {(e.src, e.sample_idx) for e in out if e.src is not None}
        rounds.append(trace.rounds)
        return out

    monkeypatch.setattr(meta, "build_fan", checked)
    _k40_mod_parallel(lambda i, v: vertex_stream(1, "pi", i, v))
    assert len(rounds) >= 20 and max(rounds) >= 2


# --- the phase loop runs with the cyclic collector paused -------------------

CLUSTERING_BUILDS = {
    "meta-seq": lambda g: build_ft_spanner(g, 1, 3, seed=1, c_k=1),
    "meta-mod-parallel": lambda g: build_ft_spanner(
        g, 1, 3, seed=1, variant="mod", mis="parallel", c_k=1),
    "meta-det": lambda g: build_ft_spanner_det(g, 1, 3, c_k=1),
    "simulate": lambda g: simulate_distributed_spanner(g, 1, 3, seed=1, c_k=1)[0],
}


@pytest.fixture(scope="module")
def k100():
    return generate("complete", n=100, seed=1, weights=(1, 1000))


@pytest.mark.parametrize("name", sorted(CLUSTERING_BUILDS))
def test_builds_make_no_reference_cycles(k100, name):
    gc.collect()
    gc.disable()
    try:
        res = CLUSTERING_BUILDS[name](k100)
        assert res.trace[0].clustered > 0 and res.edge_count < k100.m
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CLUSTERING_BUILDS))
def test_collector_is_off_inside_and_restored_after(k100, name, monkeypatch):
    seen = []
    real = meta.choose_cluster

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(meta, "choose_cluster", spy)
    assert gc.isenabled()
    CLUSTERING_BUILDS[name](k100)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_collector_restored_after_an_error(k100):
    sample_fn, centers_fn = random_steps(k100.n, 1, 1, 1)
    with pytest.raises(ValueError, match="k >= 2"):
        run_phases(k100, 1, 1, sample_fn=sample_fn, centers_fn=centers_fn)
    assert gc.isenabled()


def test_collector_left_off_when_the_caller_had_it_off(k100):
    gc.disable()
    try:
        build_ft_spanner(k100, 1, 3, seed=1, c_k=1)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_no_collection_starts_in_the_phase_loop(k100):
    """Collections that start while the phase loop is on the stack; the
    one that usually follows the return, on the caller's next allocation,
    is not counted. The loop run without the pause is the control."""
    sample_fn, centers_fn = random_steps(k100.n, 1, 3, 1)
    loop_code = run_phases.__wrapped__.__code__
    started = []

    def on_gc(phase, info):
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not loop_code:
                frame = frame.f_back
            started.append(frame is not None)

    counts = {}
    gc.callbacks.append(on_gc)
    try:
        for name, fn in (("paused", run_phases), ("control", run_phases.__wrapped__)):
            gc.collect()
            started.clear()
            spanner, *_ = fn(k100, 1, 3, sample_fn=sample_fn,
                             centers_fn=centers_fn, c_k=1)
            assert len(spanner) < k100.m
            counts[name] = started.count(True)
    finally:
        gc.callbacks.remove(on_gc)
    assert counts["paused"] == 0
    assert counts["control"] > 0
