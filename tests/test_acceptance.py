"""Acceptance gate: the ten desk-scale criteria, one pass/fail line each.

Each test prints `criterion <n>: PASS|FAIL` before asserting, so the full
verdict table is visible in the captured output even when a criterion fails.
Criteria 3, 6, 8 and 9 run their experiments through the runners behind
`torusgeo run` at their default configs, so each claim has one definition.
Expensive solves are shared through module-scoped fixtures.
"""
import time

import numpy as np
import pytest

from torusgeo import (
    ConformalMetric,
    DiscreteLoop,
    RandersMetric,
    SolverConfig,
    action,
    action_gradient,
    euclidean,
    minimizer_set,
    shortest_loop,
    verify_speed_cap,
)
from torusgeo.cli import main
from torusgeo.experiments import (
    circular_mean,
    height_bump,
    random_loop,
    random_metric,
    run_consistency,
    run_cs_property,
    run_mane_polytope,
    run_semicontinuity,
    torus_gap,
)

FLAT_CLASSES = ((1, 0), (1, 1), (2, 1), (3, 4))


def verdict(n, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def flat_solves():
    cfg = SolverConfig(n_vertices=128, max_iters=4000, grad_tol=1e-7, seed=0)
    out = {}
    for gamma in FLAT_CLASSES:
        t0 = time.perf_counter()
        res = shortest_loop(euclidean(), gamma, cfg)
        out[gamma] = (res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def randers_solves():
    metric = RandersMetric(euclidean(), (0.3, 0.0))
    cfg = SolverConfig(n_vertices=128, max_iters=4000, grad_tol=1e-7, seed=0)
    return metric, {g: shortest_loop(metric, g, cfg) for g in ((1, 0), (-1, 0))}


@pytest.fixture(scope="module")
def uniqueness_sweep():
    cfg = SolverConfig(n_vertices=64, max_iters=3000, grad_tol=1e-7,
                       num_starts=50, seed=0)
    t0 = time.perf_counter()
    reports = {}
    for t in (0.0, 0.05, 0.1, 0.2):
        metric = euclidean() if t == 0.0 else ConformalMetric(euclidean(), height_bump(t))
        reports[t] = minimizer_set(metric, (1, 0), cfg)
    return reports, time.perf_counter() - t0


def test_criterion_1_flat_ground_truth(flat_solves):
    ok = True
    worst = 0.0
    for (p, q), (res, elapsed) in flat_solves.items():
        exact = float(np.hypot(p, q))
        rel = abs(res.length - exact) / exact
        worst = max(worst, rel)
        ok = ok and res.converged and rel <= 5e-3 and elapsed <= 5.0
    verdict(1, ok, f"max relative length error {worst:.2e}")


def test_criterion_2_randers_non_reversibility(randers_solves):
    _, solves = randers_solves
    fwd, bwd = solves[(1, 0)].length, solves[(-1, 0)].length
    ok = (abs(fwd - 1.3) <= 5e-3 * 1.3
          and abs(bwd - 0.7) <= 5e-3 * 0.7
          and abs((fwd - bwd) - 0.6) <= 1e-2)
    verdict(2, ok, f"lengths {fwd:.6f} / {bwd:.6f}")


def test_criterion_3_cauchy_schwarz_suite():
    t0 = time.perf_counter()
    (rec,), checks = run_cs_property({}, 0)
    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed <= 30.0
    verdict(3, ok, f"{rec['count']} loops, min gap {rec['min_gap']:.1e}, max relative "
                   f"residual {rec['max_relative_gap_after_reparam']:.1e}, {elapsed:.1f} s")


def test_criterion_4_speed_caps(flat_solves, randers_solves, uniqueness_sweep):
    checked = 0
    ok = True
    for gamma, (res, _) in flat_solves.items():
        ok = ok and verify_speed_cap(euclidean(), res.loop, gamma)
        checked += 1
    metric, solves = randers_solves
    for gamma, res in solves.items():
        ok = ok and verify_speed_cap(metric, res.loop, gamma)
        checked += 1
    reports, _ = uniqueness_sweep
    for t, rep in reports.items():
        m = euclidean() if t == 0.0 else ConformalMetric(euclidean(), height_bump(t))
        for cluster in rep.clusters:
            ok = ok and verify_speed_cap(m, cluster.representative, (1, 0))
            checked += 1
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


def test_criterion_7_uniqueness_by_perturbation(uniqueness_sweep):
    reports, elapsed = uniqueness_sweep
    # oracle: 1-D brute force over 1000 horizontal translates of the t = 0.2 bump
    lam = height_bump(0.2)
    ys = np.arange(1000) / 1000.0
    translate_lengths = np.sqrt(lam(np.stack([np.zeros(1000), ys], axis=-1)))
    oracle_y = float(ys[np.argmin(translate_lengths)])
    oracle_ok = torus_gap(oracle_y, 0.25) <= 1e-3

    spreads = [reports[t].spread for t in (0.0, 0.05, 0.1, 0.2)]
    last = reports[0.2]
    rep = last.clusters[0].representative
    mean_y = circular_mean(np.mod(rep.vertices[:, 1], 1.0))
    ok = (oracle_ok
          and spreads[0] >= 0.3
          and last.n_clusters == 1
          and last.spread <= 1e-2
          and torus_gap(mean_y, 0.25) <= 0.02
          and abs(last.best_length - 1.0) <= 5e-3
          and all(s2 <= s1 + 1e-9 for s1, s2 in zip(spreads, spreads[1:]))
          and elapsed <= 60.0)
    verdict(7, ok, f"spreads {['%.3f' % s for s in spreads]}, "
                   f"mean height {mean_y:.4f}, {elapsed:.1f} s")


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
            f"tail monotone {checks['value_errors_tail_monotone']}, diameter bound "
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
