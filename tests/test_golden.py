"""Golden outputs: every builder and the simulation on one clustering
fixture, pinned by the sha256 of their canonical result JSON.

A refactor that leaves these hashes alone left the output of every
construction path byte-identical. The fixture clusters in phases 1 and 2
(asserted below), so the pins cannot pass on a build that keeps G.
"""

import hashlib

import pytest

from ftspanner.cli import _dump_message_log
from ftspanner.congest import simulate_distributed_spanner
from ftspanner.detkit import build_ft_spanner_det
from ftspanner.graphs import generate
from ftspanner.meta import build_ft_spanner

SEED = 1

# label -> (sha256 of to_json(), (clustered, centers) per phase, |H|)
PINS_F1_K3 = {
    "meta-seq": ("8b51bcd4bcd7162eacb07b70f81c7fdda1918dca18ab4ce6e16cb652b0637dab",
                 [(120, 24), (120, 8), (0, 0)], 3382),
    "meta-mod": ("1166e9b5467d2a4eeb5764760b4241a7d4ce51e475fa59d05409f775101cf669",
                 [(120, 24), (120, 8), (0, 0)], 3382),
    "meta-mod-parallel": ("f8fa7e7ccf9598d678b3eb0dd2bf0a1d3434e51791fab94875c3327a06554e57",
                          [(120, 24), (120, 8), (0, 0)], 3408),
    "meta-det": ("7ded2cc001d431b7bd82e64666c5619bcdedaab764eced136435f7025a6351a7",
                 [(120, 8), (0, 0), (0, 0)], 3791),
    "simulate": ("823870ba61efb0ed58d26a4387f9aa86e0b24fe18e177769b6eef504fcfa9804",
                 [(120, 24), (120, 8), (0, 0)], 3382),
}
PINS_F2_K2 = {
    "meta-seq": ("d5f74183990c91e4be397bdb7194409696a6227ea766d464b9931f23b568fba6",
                 [(120, 18), (0, 0)], 4235),
    "simulate": ("a40d67ba5cfa9265617f39025dc5e0f6ba81c06c2fe0bb76d9b9fa23b1d4cf09",
                 [(120, 18), (0, 0)], 4235),
}
ROUNDS_F1_K3 = {"total_rounds": 23, "rounds_per_phase": [4, 9, 10], "max_bits": 28,
                "messages": 212254, "bits_total": 4158952, "bandwidth": 28,
                "id_bits": 7, "weight_bits": 10, "edge_id_bits": 13}
LOG_SHA_F1_K3 = "c00c09a6d3d78c7838bdbc0cc11f956cf7b4755fa352db47dcf13876880d3326"


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.fixture(scope="module")
def k120():
    return generate("complete", n=120, seed=3, weights=(1, 1000))


def check_pins(results, pins, m):
    for label, (digest, phases, size) in pins.items():
        res = results[label]
        assert [(t.clustered, t.centers) for t in res.trace] == phases, label
        assert res.edge_count == size < m, label
        assert sha256(res.to_json()) == digest, label


def test_golden_f1_k3(k120, tmp_path):
    sim, report = simulate_distributed_spanner(k120, 1, 3, seed=SEED, c_k=1,
                                               record_messages=True)
    results = {
        "meta-seq": build_ft_spanner(k120, 1, 3, seed=SEED, c_k=1),
        "meta-mod": build_ft_spanner(k120, 1, 3, seed=SEED, c_k=1, variant="mod"),
        "meta-mod-parallel": build_ft_spanner(k120, 1, 3, seed=SEED, c_k=1,
                                              variant="mod", mis="parallel"),
        "meta-det": build_ft_spanner_det(k120, 1, 3, c_k=1),
        "simulate": sim,
    }
    check_pins(results, PINS_F1_K3, k120.m)
    assert report.to_dict() == ROUNDS_F1_K3
    log = tmp_path / "sim.log"
    _dump_message_log(report.log, str(log))
    assert sha256(log.read_bytes()) == LOG_SHA_F1_K3


def test_golden_f2_k2(k120):
    results = {
        "meta-seq": build_ft_spanner(k120, 2, 2, seed=SEED, c_k=1),
        "simulate": simulate_distributed_spanner(k120, 2, 2, seed=SEED, c_k=1)[0],
    }
    check_pins(results, PINS_F2_K2, k120.m)
