"""Build results and their canonical JSON form.

Result files are the machine interface between `build`, `verify` and
`report`. Canonical serialization sorts keys and excludes wall-clock
timings, so re-running a seeded (or deterministic) build reproduces the
file byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# The constant factor of both size bounds.
SIZE_BOUND_C = 8.0


@dataclass
class PhaseTrace:
    phase: int
    centers: int
    clustered: int
    new_edges: int
    remaining: int
    seconds: float = 0.0  # volatile; excluded from the JSON

    FIELDS = ("phase", "centers", "clustered", "new_edges", "remaining")

    def to_dict(self):
        return {key: getattr(self, key) for key in self.FIELDS}


@dataclass
class SpannerResult:
    algo: str
    n: int
    m: int
    graph_sha: str
    params: dict
    edges: tuple[int, ...]
    trace: list[PhaseTrace] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    states: list = field(default_factory=list, repr=False)  # PhaseRecord, kept on request

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_dict(self):
        return {
            "algo": self.algo,
            "n": self.n,
            "m": self.m,
            "graph_sha": self.graph_sha,
            "params": self.params,
            "edge_count": len(self.edges),
            "edges": list(self.edges),
            "trace": [t.to_dict() for t in self.trace],
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, d) -> "SpannerResult":
        if not isinstance(d, dict):
            raise ValueError(f"a result must be a JSON object, got {type(d).__name__}")
        for key in ("algo", "n", "m", "graph_sha", "edges"):
            if key not in d:
                raise ValueError(f"a result has no {key!r} field")
        edges, traces = d["edges"], d.get("trace", [])
        if not (isinstance(edges, list)
                and all(type(e) is int for e in edges)):
            raise ValueError("a result's 'edges' must be a list of integers")
        if not (isinstance(traces, list)
                and all(isinstance(t, dict) for t in traces)):
            raise ValueError("a result's 'trace' must be a list of objects")
        for t in traces:
            for key in PhaseTrace.FIELDS:
                if key not in t:
                    raise ValueError(f"a result's trace entry has no {key!r} field")
                if type(t[key]) is not int:
                    raise ValueError(f"a result's trace field {key!r} must be an integer")
        trace = [PhaseTrace(*(t[key] for key in PhaseTrace.FIELDS)) for t in traces]
        return cls(
            algo=d["algo"],
            n=d["n"],
            m=d["m"],
            graph_sha=d["graph_sha"],
            params=d.get("params", {}),
            edges=tuple(edges),
            trace=trace,
            extras=d.get("extras", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "SpannerResult":
        return cls.from_dict(json.loads(text))


def meta_size_bound(n: int, f: int, k: int) -> float:
    """Evaluate c * (k^3 log2(n) f^(1-1/k) n^(1+1/k) + k^2 f n), c = SIZE_BOUND_C."""
    if n < 2:
        return 0.0
    return SIZE_BOUND_C * (k**3 * math.log2(n) * f ** (1 - 1 / k) * n ** (1 + 1 / k) + k**2 * f * n)


def warmup_size_bound(n: int, f: int) -> float:
    """Evaluate c * (f n + sqrt(f) n^(3/2) log2(n)), c = SIZE_BOUND_C."""
    if n < 2:
        return 0.0
    return SIZE_BOUND_C * (f * n + math.sqrt(f) * n**1.5 * math.log2(n))
