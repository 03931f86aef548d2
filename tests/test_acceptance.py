"""Acceptance gate: the ten desk-scale criteria, one pass/fail line each.

Each test prints `criterion <n>: PASS|FAIL` before asserting, so the full
verdict table is visible in the captured output even when a criterion fails.
Criteria 1 to 4 and 6 to 9 run their experiments through the runners
behind `torusgeo run`, so each claim has one definition: criteria 1, 2 and 4
read one `speed-cap` run on 128-vertex loops, the others run at their
default configs. Expensive runs are shared through module-scoped fixtures.
"""
import time

import numpy as np
import pytest

from torusgeo import DiscreteLoop, action, action_gradient
from torusgeo.cli import main
from torusgeo.experiments import (
    height_bump,
    random_loop,
    random_metric,
    run_consistency,
    run_cs_property,
    run_mane_polytope,
    run_semicontinuity,
    run_speed_cap,
    run_uniqueness,
    torus_gap,
)


def verdict(n, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def speed_cap_run():
    t0 = time.perf_counter()
    records, checks = run_speed_cap({"solver.n_vertices": 128, "solver.max_iters": 4000}, 0)
    return records, checks, time.perf_counter() - t0


@pytest.fixture(scope="module")
def uniqueness_run():
    t0 = time.perf_counter()
    records, checks = run_uniqueness({}, 0)
    return records, checks, time.perf_counter() - t0


def test_criterion_1_flat_ground_truth(speed_cap_run):
    records, checks, elapsed = speed_cap_run
    flat = [r for r in records if r["metric"] == "euclidean"]
    ok = checks["lengths_exact"] and all(r["converged"] for r in flat) and elapsed <= 5.0
    verdict(1, ok, f"lengths {[round(r['length'], 6) for r in flat]}, {elapsed:.1f} s")


def test_criterion_2_randers_non_reversibility(speed_cap_run):
    records, checks, _ = speed_cap_run
    lengths = {tuple(r["gamma"]): r["length"] for r in records if r["metric"] == "randers"}
    fwd, bwd = lengths[(1, 0)], lengths[(-1, 0)]
    ok = checks["lengths_exact"] and abs((fwd - bwd) - 0.6) <= 1e-2
    verdict(2, ok, f"lengths {fwd:.6f} / {bwd:.6f}")


def test_criterion_3_cauchy_schwarz_suite():
    t0 = time.perf_counter()
    (rec,), checks = run_cs_property({}, 0)
    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed <= 30.0
    verdict(3, ok, f"{rec['count']} loops, min gap {rec['min_gap']:.1e}, max relative "
                   f"residual {rec['max_relative_gap_after_reparam']:.1e}, {elapsed:.1f} s")


def test_criterion_4_speed_caps(speed_cap_run, uniqueness_run):
    cap_records, cap_checks, _ = speed_cap_run
    records, checks, _ = uniqueness_run
    ok = cap_checks["all_caps_respected"] and checks["minimizers_within_speed_cap"]
    checked = len(cap_records) + sum(r["n_clusters"] for r in records)
    verdict(4, ok, f"{checked} minimizers checked, zero violations" if ok
            else f"violation among {checked} minimizers")


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        metric = random_metric(rng)
        loop = random_loop(rng, n_min=8, n_max=16)
        g = action_gradient(metric, loop)
        fd = np.zeros_like(g)
        for i in range(loop.n_vertices):
            for j in range(2):
                vp = loop.vertices.copy()
                vp[i, j] += h
                vm = loop.vertices.copy()
                vm[i, j] -= h
                fd[i, j] = (action(metric, DiscreteLoop(vp, loop.winding))
                            - action(metric, DiscreteLoop(vm, loop.winding))) / (2 * h)
        scale = np.maximum(np.abs(fd), np.abs(g).max())
        worst = max(worst, float((np.abs(g - fd) / scale).max()))
    verdict(5, worst <= 1e-5, f"max componentwise relative error {worst:.2e}")


def test_criterion_6_mane_engine():
    t0 = time.perf_counter()
    records, checks = run_mane_polytope({}, 2)
    elapsed = time.perf_counter() - t0
    successes = sum(r["success"] for r in records)
    ok = all(checks.values()) and elapsed <= 10.0
    verdict(6, ok, f"{successes}/{len(records)} trials, oracle agreement "
                   f"{checks['argmin_matches_bruteforce']}, {elapsed:.1f} s")


def test_criterion_7_uniqueness_by_perturbation(uniqueness_run):
    records, checks, elapsed = uniqueness_run
    # oracle: 1-D brute force over 1000 horizontal translates of the t = 0.2 bump
    lam = height_bump(0.2)
    ys = np.arange(1000) / 1000.0
    translate_lengths = np.sqrt(lam(np.stack([np.zeros(1000), ys], axis=-1)))
    oracle_y = float(ys[np.argmin(translate_lengths)])
    oracle_ok = torus_gap(oracle_y, 0.25) <= 1e-3

    spreads = [r["spread"] for r in records]
    ok = oracle_ok and all(checks.values()) and elapsed <= 60.0
    verdict(7, ok, f"spreads {['%.3f' % s for s in spreads]}, "
                   f"mean height {records[-1]['mean_height']:.4f}, {elapsed:.1f} s")


def test_criterion_8_bridge_consistency():
    records, checks = run_consistency({}, 3)
    worst = max(r["gap"] / r["bound"] for r in records)
    verdict(8, all(checks.values()),
            f"gap bound {checks['gap_within_bound']} (max gap/bound {worst:.3f}), "
            f"mass identity {checks['mass_identity']}, "
            f"constant factors {checks['constant_factor_exact']}")


def test_criterion_9_semicontinuity_probe():
    records, checks = run_semicontinuity({}, 4)
    worst = max(r["tail_max_error"] for r in records)
    verdict(9, all(checks.values()),
            f"tail monotone {checks['value_errors_tail_monotone']}, "
            f"rate bound {checks['value_errors_lipschitz']}, diameter bound "
            f"{checks['diameter_upper_semicontinuous']}, max tail error {worst:.1e}")


def test_criterion_10_reproducibility(tmp_path):
    configs = {
        "uniqueness": "experiment = uniqueness\nsolver.num_starts = 4\nseed = 1\n"
                      "t_values = 0.0,0.2\n",
        "cs-property": "experiment = cs-property\ncount = 100\nseed = 2\n",
        "speed-cap": "experiment = speed-cap\nseed = 3\n",
        "mane-polytope": "experiment = mane-polytope\ntrials = 20\nseed = 4\n",
        "consistency": "experiment = consistency\ntrials = 10\nseed = 5\n",
        "semicontinuity": "experiment = semicontinuity\ntrials = 10\nseed = 6\n",
    }
    ok = True
    for name, text in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        outs = []
        for rerun in range(2):
            out = tmp_path / f"{name}.{rerun}.jsonl"
            main(["run", str(cfg), "--out", str(out)])
            outs.append(out.read_bytes().splitlines())
        # everything after the timestamp line must match byte for byte
        if outs[0][1:] != outs[1][1:]:
            ok = False
    verdict(10, ok, "byte-identical reports modulo timestamp"
            if ok else "reports differ beyond the timestamp")
