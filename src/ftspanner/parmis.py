"""Greedy MIS over path-conflict instances, sequential and round-parallel.

Two paths conflict when their vertex sets intersect. The round algorithm
repeatedly accepts every path that holds the minimum priority on each of
its vertices, then discards the accepted paths' neighbors; its output is
exactly the lexicographic-first MIS under the same priority order. The
conflict graph is never materialized: each round builds a per-vertex
earliest-priority map, so work per round is linear in the surviving
paths' total length.

The builds take the same set by one sequential scan (meta.build_fan),
which draws its random order only until saturation. The round algorithm
on that draw completed to a full permutation takes the same set, and the
PRAM depth refers to it; the tests run it so.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

from ftspanner.rng import substream


@dataclass(frozen=True)
class PathConflictInstance:
    """Candidate paths (as vertex sets) plus a priority permutation.

    pi[j] is the rank of path j; ranks form a permutation of
    0..len(paths)-1 and lower rank wins.
    """

    paths: tuple[frozenset[int], ...]
    pi: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.pi) != list(range(len(self.paths))):
            raise ValueError("pi is not a permutation of the path indices")


@dataclass
class MisRoundTrace:
    rounds: int = 0
    work: int = 0
    accepted_per_round: list[list[int]] = field(default_factory=list)


def random_permutation(length: int, seed) -> tuple[int, ...]:
    """Uniform permutation of 0..length-1, deterministic per seed."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    order = list(range(length))
    substream(seed, "perm", length).shuffle(order)
    return tuple(order)


def lex_first_mis(inst: PathConflictInstance) -> set[int]:
    """Reference oracle: scan in rank order, accept whatever is disjoint."""
    taken: set[int] = set()
    used: set[int] = set()
    order = sorted(range(len(inst.paths)), key=lambda j: inst.pi[j])
    for j in order:
        p = inst.paths[j]
        if not (p & used):
            taken.add(j)
            used |= p
    return taken


def parallel_greedy_mis(inst: PathConflictInstance) -> tuple[set[int], MisRoundTrace]:
    """Round-structured MIS; output is identical to lex_first_mis.

    Round body: for every vertex touched by a surviving path, find the
    minimum rank among the paths containing it; accept the paths that
    are the minimum everywhere; remove them and their neighbors.

    The survivors are kept in descending rank order, so when the
    vertex -> path map is built by writing every path's vertices in that
    order, the last write on a vertex is its earliest path. A path holds
    the minimum everywhere when it owns all of its vertices in that map.
    work counts each surviving path's length once per round for the map
    and once more for every path left after the round's acceptances.
    """
    paths = inst.paths
    alive = sorted(range(len(paths)), key=inst.pi.__getitem__, reverse=True)
    accepted: set[int] = set()
    trace = MisRoundTrace()
    while alive:
        trace.rounds += 1
        alive_paths = [paths[j] for j in alive]
        lens = list(map(len, alive_paths))
        owner = dict(zip(chain.from_iterable(alive_paths),
                         chain.from_iterable(map(repeat, alive, lens))))
        owned = Counter(owner.values())
        batch = [j for j, n in zip(alive, lens) if owned.get(j, 0) == n]
        accepted.update(batch)
        trace.accepted_per_round.append(sorted(batch))
        batch_set = set(batch)
        blocked = set(chain.from_iterable(paths[j] for j in batch))
        trace.work += 2 * sum(lens) - sum(len(paths[j]) for j in batch)
        alive = [j for j in alive
                 if j not in batch_set and paths[j].isdisjoint(blocked)]
    return accepted, trace
