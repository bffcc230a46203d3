import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftspanner.parmis import (MisRoundTrace, PathConflictInstance,
                              lex_first_mis, parallel_greedy_mis,
                              random_permutation)
from ftspanner.rng import substream


def inst_of(path_sets, pi=None):
    paths = tuple(frozenset(p) for p in path_sets)
    return PathConflictInstance(paths, tuple(pi or range(len(paths))))


def test_two_disjoint_paths_both_accepted():
    taken, trace = parallel_greedy_mis(inst_of([{1, 2}, {3, 4}]))
    assert taken == {0, 1}
    assert trace.rounds == 1


def test_two_conflicting_paths_earlier_wins():
    taken, _ = parallel_greedy_mis(inst_of([{1, 2}, {2, 3}]))
    assert taken == {0}
    taken, _ = parallel_greedy_mis(inst_of([{1, 2}, {2, 3}], pi=[1, 0]))
    assert taken == {1}


def test_pi_must_be_permutation():
    with pytest.raises(ValueError):
        PathConflictInstance((frozenset({1}),), (2,))


def test_chain_matches_hand_simulation():
    # Conflict chain P0~P1~...~P5 scanned in chain order. Hand-run of the
    # round algorithm: each round accepts the earliest survivor and drops
    # its one neighbor, so accepts = even indices, rounds = 3.
    chain = inst_of([{i, i + 1} for i in range(6)])
    taken, trace = parallel_greedy_mis(chain)
    assert taken == {0, 2, 4}
    assert trace.rounds == 3
    assert taken == lex_first_mis(chain)


def test_equivalence_random_instances():
    rng = substream(77, "mis-test")
    for _ in range(300):
        n_paths = rng.randint(1, 50)
        n_verts = rng.randint(3, 30)
        paths = [frozenset(rng.sample(range(n_verts), rng.randint(1, min(4, n_verts))))
                 for _ in range(n_paths)]
        inst = PathConflictInstance(tuple(paths), random_permutation(n_paths, rng.random()))
        taken, trace = parallel_greedy_mis(inst)
        assert taken == lex_first_mis(inst)
        assert trace.rounds >= 1
        assert sum(len(b) for b in trace.accepted_per_round) == len(taken)


def test_lex_first_is_lexicographically_first():
    # Against brute force on small instances: the output must be the
    # rank-sequence-minimal maximal independent set.
    from itertools import combinations

    rng = substream(5, "lexbrute")
    for _ in range(40):
        n_paths = rng.randint(2, 9)
        paths = [frozenset(rng.sample(range(8), rng.randint(1, 3)))
                 for _ in range(n_paths)]
        pi = random_permutation(n_paths, rng.random())
        inst = PathConflictInstance(tuple(paths), pi)
        got = lex_first_mis(inst)

        def independent(sel):
            sel = list(sel)
            return all(paths[a].isdisjoint(paths[b])
                       for i, a in enumerate(sel) for b in sel[i + 1:])

        def maximal(sel):
            ssel = set(sel)
            used = set().union(*(paths[j] for j in sel)) if sel else set()
            return all(j in ssel or not paths[j].isdisjoint(used)
                       for j in range(n_paths))

        best = None
        for r in range(n_paths + 1):
            for sel in combinations(range(n_paths), r):
                if independent(sel) and maximal(sel):
                    key = tuple(sorted(pi[j] for j in sel))
                    if best is None or key < best[0]:
                        best = (key, set(sel))
        assert got == best[1]


def test_prefix_stability():
    # Greedy acceptance is online: the accepted set restricted to a rank
    # prefix equals the prefix instance's own MIS.
    rng = substream(9, "prefix")
    paths = [frozenset(rng.sample(range(20), 3)) for _ in range(30)]
    pi = random_permutation(30, 1)
    inst = PathConflictInstance(tuple(paths), pi)
    full = lex_first_mis(inst)
    order = sorted(range(30), key=lambda j: pi[j])
    for t in (5, 12, 22):
        prefix_ids = order[:t]
        sub = PathConflictInstance(tuple(paths[j] for j in prefix_ids),
                                   tuple(range(t)))
        sub_taken = {prefix_ids[a] for a in lex_first_mis(sub)}
        assert sub_taken == full & set(prefix_ids)


def test_random_permutation_basics():
    assert random_permutation(0, 1) == ()
    assert random_permutation(1, 1) == (0,)
    assert random_permutation(10, 3) == random_permutation(10, 3)
    assert sorted(random_permutation(100, 4)) == list(range(100))


def test_random_permutation_uniformity():
    length, n_seeds = 200, 400
    sums = [0] * length
    for s in range(n_seeds):
        perm = random_permutation(length, s)
        for pos, rank in enumerate(perm):
            sums[pos] += rank
    mean = (length - 1) / 2
    sigma = math.sqrt((length * length - 1) / 12 / n_seeds)
    zs = [abs(total / n_seeds - mean) / sigma for total in sums]
    beyond = sum(1 for z in zs if z > 3)
    assert beyond <= 0.01 * length
    assert max(zs) < 5


def test_work_bounded_by_total_length_times_rounds():
    rng = substream(55, "work")
    for _ in range(100):
        n_paths = rng.randint(1, 80)
        paths = [frozenset(rng.sample(range(30), rng.randint(1, 4)))
                 for _ in range(n_paths)]
        inst = PathConflictInstance(tuple(paths),
                                    random_permutation(n_paths, rng.random()))
        _, trace = parallel_greedy_mis(inst)
        total_len = sum(len(p) for p in paths)
        assert trace.work <= 2 * total_len * trace.rounds


def test_round_bound_statistical():
    rng = substream(123, "rounds")
    ratios = []
    for _ in range(200):
        n_paths = rng.randint(2, 120)
        paths = [frozenset(rng.sample(range(40), rng.randint(1, 4)))
                 for _ in range(n_paths)]
        inst = PathConflictInstance(tuple(paths), random_permutation(n_paths, rng.random()))
        _, trace = parallel_greedy_mis(inst)
        denom = max(1.0, math.log2(n_paths) ** 2)
        ratios.append(trace.rounds / denom)
    assert statistics.median(ratios) <= 4


def _reference_rounds(inst):
    """The round loop that scans every surviving path vertex by vertex."""
    paths = inst.paths
    pi = inst.pi
    alive = list(range(len(paths)))
    accepted = set()
    trace = MisRoundTrace()
    while alive:
        trace.rounds += 1
        earliest = {}
        for j in alive:
            r = pi[j]
            for w in paths[j]:
                prev = earliest.get(w)
                if prev is None or r < prev:
                    earliest[w] = r
            trace.work += len(paths[j])
        batch = [j for j in alive if all(earliest[w] == pi[j] for w in paths[j])]
        accepted.update(batch)
        trace.accepted_per_round.append(sorted(batch))
        blocked = set()
        for j in batch:
            blocked |= paths[j]
        batch_set = set(batch)
        nxt = []
        for j in alive:
            if j in batch_set:
                continue
            trace.work += len(paths[j])
            if paths[j].isdisjoint(blocked):
                nxt.append(j)
        alive = nxt
    return accepted, trace


@st.composite
def mis_instances(draw):
    paths = draw(st.lists(st.frozensets(st.integers(0, 15), max_size=5), max_size=40))
    pi = draw(st.permutations(range(len(paths))))
    return PathConflictInstance(tuple(paths), tuple(pi))


def test_round_trace_matches_reference_loop():
    # rounds and work are reported metrics of the benchmark, so the whole
    # trace must match, not just the accepted set
    sizes = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mis_instances())
    def check(inst):
        taken, trace = parallel_greedy_mis(inst)
        want_taken, want = _reference_rounds(inst)
        assert taken == want_taken
        assert (trace.rounds, trace.work, trace.accepted_per_round) == \
            (want.rounds, want.work, want.accepted_per_round)
        sizes.extend(len(p) for p in inst.paths)

    check()
    for inst in (inst_of([]), inst_of([set()]), inst_of([set(), set(), {1}]),
                 inst_of([{1}, {1}, {2}], pi=[2, 0, 1])):
        taken, trace = parallel_greedy_mis(inst)
        want_taken, want = _reference_rounds(inst)
        assert (taken, trace) == (want_taken, want)
    assert sizes.count(0) >= 20 and sizes.count(1) >= 50
    assert sum(1 for s in sizes if s >= 3) >= 500
