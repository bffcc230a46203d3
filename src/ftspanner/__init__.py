"""Vertex fault-tolerant spanners and vertex-connectivity certificates.

Construction paths: a warm-up 3-spanner, the k-phase clustering spanner
(sequential and modified variants), a deterministic hitting-set variant,
and a simulated synchronous message-passing run. A brute-force verifier
checks the fault-tolerant stretch guarantee exhaustively on small inputs.
"""

from ftspanner.graphs import Graph, Path, dist, generate, load_graph
from ftspanner.meta import build_ft_spanner, check_invariants
from ftspanner.warmup import build_3spanner
from ftspanner.detkit import build_ft_spanner_det, beta_hitting_set
from ftspanner.verify import is_protected, verify_certificate, verify_spanner

__all__ = [
    "Graph",
    "Path",
    "dist",
    "generate",
    "load_graph",
    "build_ft_spanner",
    "build_ft_spanner_det",
    "build_3spanner",
    "check_invariants",
    "beta_hitting_set",
    "is_protected",
    "verify_spanner",
    "verify_certificate",
]
