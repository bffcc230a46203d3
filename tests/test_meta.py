import gc
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftspanner import meta
from ftspanner.congest import simulate_distributed_spanner
from ftspanner.detkit import build_ft_spanner_det
from ftspanner.graphs import Graph, Path, generate
from ftspanner.meta import (FanEntry, PhaseRecord, build_fan, build_ft_spanner,
                            center_ratio, check_invariants, choose_cluster,
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
    samples = {a: [path_of(z1, a), path_of(z2, a)]}
    fan = build_fan(v, (Path.trivial(v),), inc_v, samples)
    grown = [e for e in fan if e.src is not None]
    assert len(grown) == 1
    assert grown[0].path.vertices == (z1, a, v)


def test_fan_accepts_disjoint_candidates():
    v = 9
    inc_v = [(3, 1, 2), (5, 2, 4)]
    samples = {2: [path_of(0, 2)], 4: [path_of(1, 4)]}
    fan = build_fan(v, (Path.trivial(v),), inc_v, samples)
    assert sum(1 for e in fan if e.src is not None) == 2


def test_fan_maximality_post_hoc():
    g = generate("gnp", n=26, p=0.5, seed=6)
    rng = substream(4, "maximality")
    inc = {v: [(w, eid, u) for (w, eid, u) in g.adj[v]] for v in range(g.n)}
    samples = {u: [Path.trivial(u)] for u in range(g.n)}
    for variant in ("seq", "mod"):
        for v in range(0, g.n, 5):
            fan = build_fan(v, (Path.trivial(v),), inc[v], samples, variant)
            covered = set()
            for e in fan:
                covered |= e.orig.vset
            for _, _, u in inc[v]:
                for p in samples[u]:
                    assert p.vset & covered, "a disjoint sampled path was left out"


def test_fan_variants_differ_only_in_order():
    # with singleton samples both variants accept every neighbor
    g = generate("complete", n=8, seed=1)
    inc = [(w, eid, u) for (w, eid, u) in g.adj[0]]
    samples = {u: [Path.trivial(u)] for u in range(1, 8)}
    f_seq = build_fan(0, (Path.trivial(0),), inc, samples, "seq")
    f_mod = build_fan(0, (Path.trivial(0),), inc, samples, "mod")
    assert {e.path.vertices for e in f_seq} == {e.path.vertices for e in f_mod}


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
            alive = [j for j, c in enumerate(cands) if c[0].vset.isdisjoint(used)]
            order = list(range(len(alive)))
            pi_rng.shuffle(order)
            inst = PathConflictInstance(
                tuple(cands[j][0].vset for j in alive), tuple(order))
            # the scan the round algorithm reproduces
            taken = lex_first_mis(inst)
            for t in sorted(taken, key=lambda j: order[j]):
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
        eid = g.edge_id(a, b)
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
        samples[u] = list({p.vertices: p for p in paths}.values())
    variant, ranked = draw(st.sampled_from(
        [("seq", False), ("mod", False), ("mod", True)]))
    heads = frozenset(x for x in range(n) if rng.random() < 0.5)
    return v, q_v, inc_v, samples, variant, ranked, seed, heads


def _full(p):
    return p.vertices, p.edges, p.keys


def test_lazy_fan_matches_eager_oracle():
    cut_entries = []
    multi_hop = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fan_cases())
    def check(case):
        v, q_v, inc_v, samples, variant, ranked, seed, heads = case
        pi = (lambda: substream(seed, "pi")) if ranked else (lambda: None)
        got = build_fan(v, q_v, inc_v, samples, variant, pi())
        want = _eager_build_fan(v, q_v, inc_v, samples, variant, pi())
        assert len(got) == len(want)
        for e, (path, orig, src, si) in zip(got, want):
            assert (e.src, e.sample_idx) == (src, si)
            assert (e.head, e.last_key) == (path.head, path.last_key)
            assert _full(e.path) == _full(path) and _full(e.orig) == _full(orig)
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
        samples = {u: [Path.trivial(u)] for (_, _, u) in inc}
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


def test_sample_paths_dedup_and_determinism():
    paths = tuple(path_of(i, 50) for i in range(6))
    a = sample_fan_paths(paths, substream(1, "s"), 20)
    b = sample_fan_paths(paths, substream(1, "s"), 20)
    assert a == b
    assert len({p.vertices for p in a}) == len(a)
    assert set(a) <= set(paths)
    assert sample_fan_paths((paths[0],), substream(2, "s"), 5) == [paths[0]]


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
            u, v = g.endpoints(eid)
            assert u in cur.clustered and v in cur.clustered


def test_invariants_hold_across_phases():
    g = generate("gnp", n=200, p=0.3, seed=2)
    for k in (2, 3):
        res = build_ft_spanner(g, 1, k, seed=0, c_k=1, record_states=True)
        for st in res.states:
            assert check_invariants(st) == [], (k, st.i)
        assert any(st.i > 0 and st.clustered for st in res.states)


def test_center_ratio_monitored_not_asserted():
    g = generate("gnp", n=200, p=0.3, seed=2)
    res = build_ft_spanner(g, 1, 2, seed=0, c_k=1, record_states=True)
    r = center_ratio(res.states[1], 200)
    assert r > 0


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


def test_cluster_size_factor_must_be_positive():
    g = generate("gnp", n=10, p=0.5, seed=0)
    with pytest.raises(ValueError, match="c_k"):
        build_ft_spanner(g, 1, 2, c_k=0)


def test_zero_edge_graph():
    g = generate("gnp", n=4, p=0.0, seed=0)
    res = build_ft_spanner(g, 1, 2, seed=0)
    assert res.edge_count == 0


# --- the conflict-free fan skips the MIS ------------------------------------

def _fan_instance(sample_verts):
    """Owner 0 of a weighted K9 with inherited path (0,), and per neighbor
    u one sample list of the given paths ending at u."""
    g = generate("complete", n=9, seed=3, weights=(1, 30))
    inc_v = [t for t in g.adj[0] if t[2] in sample_verts]
    samples = {}
    for u, paths in sample_verts.items():
        samples[u] = []
        for verts in paths:
            p = Path.trivial(verts[0])
            for a, b in zip(verts, verts[1:]):
                eid = g.edge_id(a, b)
                p = p.extend(b, eid, g.key(eid))
            samples[u].append(p)
    return (Path.trivial(0),), inc_v, samples


def _check_against_eager(inst, pi_seed):
    q_v, inc_v, samples = inst
    pi_rng = substream(pi_seed, "pi")
    before = pi_rng.getstate()
    got = build_fan(0, q_v, inc_v, samples, "mod", pi_rng)
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


def test_seq_fan_ignores_the_permutation_stream():
    # the conflicting instance above: mod ranks it, seq must not
    q_v, inc_v, samples = _fan_instance({1: [(5, 1)], 2: [(5, 2)], 3: [(3,)], 4: [(8, 4)]})
    pi_rng = substream(11, "pi")
    before = pi_rng.getstate()
    got = build_fan(0, q_v, inc_v, samples, "seq", pi_rng)
    assert pi_rng.getstate() == before
    want = build_fan(0, q_v, inc_v, samples, "seq")
    assert [(e.src, e.sample_idx, _full(e.path), _full(e.orig)) for e in got] \
        == [(e.src, e.sample_idx, _full(e.path), _full(e.orig)) for e in want]


def _k40_mod_parallel(pi_rng_fn):
    """The K40 mod-parallel build (weights 1..1000, f=1, k=3, c_k=1, seed 1)
    through run_phases, with the given permutation streams."""
    g = generate("complete", n=40, seed=1, weights=(1, 1000))
    sample_fn, centers_fn = random_steps(g.n, 1, 3, 1, 4)
    _, trace, _, _ = run_phases(g, 1, 3, sample_fn=sample_fn, centers_fn=centers_fn,
                                variant="mod", c_k=1, pi_rng_fn=pi_rng_fn)
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


def test_round_mis_takes_the_fans_of_a_real_build(monkeypatch):
    """Every conflicting fan of a real mod-parallel build accepts exactly
    what parmis's round MIS takes under the same permutation draw."""
    real = meta.build_fan
    phase_of = {}
    rounds = []

    def checked(v, q_v, inc_v, samples, variant, pi_rng):
        out = real(v, q_v, inc_v, samples, variant, pi_rng)
        # run_phases builds each clustered vertex's fan once per phase
        i = phase_of[v] = phase_of.get(v, 0) + 1
        used = set().union(*(p.vset for p in q_v))
        alive = [(u, si, p.vset) for _, _, u in inc_v
                 for si, p in enumerate(samples[u]) if p.vset.isdisjoint(used)]
        vsets = [c[2] for c in alive]
        if sum(map(len, vsets)) == len(set().union(*vsets)):
            return out
        order = list(range(len(alive)))
        vertex_stream(1, "pi", i, v).shuffle(order)
        taken, trace = parallel_greedy_mis(PathConflictInstance(tuple(vsets), tuple(order)))
        assert {alive[t][:2] for t in taken} == \
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
    sample_fn, centers_fn = random_steps(k100.n, 1, 1, 1, 4)
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
    sample_fn, centers_fn = random_steps(k100.n, 1, 3, 1, 4)
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
