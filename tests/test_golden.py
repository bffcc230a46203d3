"""Golden outputs: every builder, the warm-up and the simulation on one
clustering fixture, pinned by the sha256 of their canonical result JSON, and the
verifier's reports on builds that drop edges and on a failing star.

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
from ftspanner.verify import verify_spanner
from ftspanner.warmup import build_3spanner

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
PINS_WARMUP_F1 = {
    "warmup": ("d97601c890d2715e514c412cf6fe43a53c2fa633470cb1b8e0cd93839311b0c6",
               [(120, 16), (0, 0)], 3287),
    "warmup-detail": ("3f5d532aaccdfd36bb5564a474299d5b5051c9d1df034b8bff29402932b496af",
                      [(120, 16), (0, 0)], 3287),
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


def test_golden_warmup_f1(k120):
    results = {
        "warmup": build_3spanner(k120, 1, seed=SEED),
        "warmup-detail": build_3spanner(k120, 1, seed=SEED, record_detail=True),
    }
    check_pins(results, PINS_WARMUP_F1, k120.m)
    # step two sees leftover edges and keeps only some of them
    e_tilde = results["warmup"].extras["e_tilde"]
    assert 0 < e_tilde < k120.m - results["warmup"].extras["h_prime"]


# Verifier reports, pinned by the sha256 of their canonical JSON.
# label -> (sha256 of to_json(), passed, fault_sets, number of violations)
VERIFY_PINS = {
    "unit-k30-seq-f1-k2": ("ff986d5746d61747c810f2401d41e606db4331f53602d29c2fde811075169ae7",
                           True, 1771, 0),
    "w-k30-seq-f1-k3": ("c85aa007b62a49425737fcd8bcf1c1544d3056f747f243f76b64bfbc1d41ecfd",
                        True, 2492, 0),
    "w-k22-mod-f2-k2": ("7aca5ff87e104dc318368dd328181e93c556a6b2acdfcab0545166cdbdc93736",
                        True, 1900, 0),
    "unit-k30-star-f1-k2": ("47f96e12772620731afef63799a43f9371b99f74994ba6623df059f90095dfba",
                            False, 406, 406),
}


def test_golden_verify_reports():
    k30 = generate("complete", n=30, seed=3)
    k30w = generate("complete", n=30, seed=3, weights=(1, 1000))
    k22w = generate("complete", n=22, seed=3, weights=(1, 1000))
    unit = build_ft_spanner(k30, 1, 2, seed=SEED, c_k=1)
    weighted = build_ft_spanner(k30w, 1, 3, seed=SEED, c_k=1)
    mod = build_ft_spanner(k22w, 2, 2, seed=SEED, c_k=1, variant="mod")
    star = [eid for eid, (u, v, _) in enumerate(k30.edges) if 0 in (u, v)]
    for g, res in ((k30, unit), (k30w, weighted), (k22w, mod)):
        assert res.edge_count < g.m  # the verifier sees dropped edges
    cases = {
        "unit-k30-seq-f1-k2": (k30, unit.edges, 1, 2),
        "w-k30-seq-f1-k3": (k30w, weighted.edges, 1, 3),
        "w-k22-mod-f2-k2": (k22w, mod.edges, 2, 2),
        "unit-k30-star-f1-k2": (k30, star, 1, 2),
    }
    reports = {label: verify_spanner(g, h, f, k)
               for label, (g, h, f, k) in cases.items()}
    for label, rep in reports.items():
        digest, passed, fault_sets, n_viol = VERIFY_PINS[label]
        assert (rep.passed, rep.fault_sets, len(rep.violations)) == \
            (passed, fault_sets, n_viol), label
        assert sha256(rep.to_json()) == digest, label
    assert reports["unit-k30-seq-f1-k2"].worst_stretch == 2.0
