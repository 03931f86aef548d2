"""The named desk-scale experiments and their machine-readable reports.

Each experiment is deterministic given (config, seed) and appends JSON-lines
records to its report: a timestamp line, a config echo, per-run records, and
a summary with one boolean verdict per acceptance check it exercises.
"""
from __future__ import annotations

import datetime
import json
import math
import operator
import os

import numpy as np

from .config import get_float, get_floats, get_int, get_pair
from .errors import ConfigError, PerturbationFailureError
from .fourier import Fourier2D
from .loops import DiscreteLoop, action, cs_gap, length, loop_measure, reparametrize_constant_speed
from .measures import action_consistency, pushforward
from .metrics import ConformalFactor, ConformalMetric, RandersMetric, euclidean
from .polytope import (
    ConvexBody,
    Functional,
    argmin_set,
    semicontinuity_probe,
    shrink_argmin,
)
from .solver import SolverConfig, minimizer_set, shortest_loop, verify_speed_cap


def height_bump(t: float, center: float = 0.25) -> ConformalFactor:
    """The conformal factor 1 + t * sin^2(pi * (y - center)).

    Its unique minimum on the torus is lambda = 1 at y = center, so horizontal
    loops through the trough are the only shortest ones for t > 0.
    """
    a = -(t / 2.0) * math.cos(2.0 * math.pi * center)
    b = -(t / 2.0) * math.sin(2.0 * math.pi * center)
    return ConformalFactor(Fourier2D(1.0 + t / 2.0, {(0, 1): (a, b)}))


def circular_mean(values: np.ndarray) -> float:
    """Mean of points on R/Z, safe across the wrap."""
    z = np.exp(2j * np.pi * np.asarray(values, float))
    return float(np.angle(z.mean()) / (2.0 * np.pi) % 1.0)


def torus_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _count(cfg: dict, key: str, default: int) -> int:
    """A trial or loop count; zero would make every check pass vacuously."""
    n = get_int(cfg, key, default)
    if n < 1:
        raise ConfigError(f"key {key!r}: expected a count >= 1, got {n}")
    return n


def _solver_config(cfg: dict, seed: int, **overrides) -> SolverConfig:
    kwargs = dict(
        n_vertices=get_int(cfg, "solver.n_vertices", 64),
        max_iters=get_int(cfg, "solver.max_iters", 3000),
        grad_tol=get_float(cfg, "solver.grad_tol", 1e-7),
        num_starts=get_int(cfg, "solver.num_starts", 1),
        cluster_tol=get_float(cfg, "solver.cluster_tol", 0.05),
        seed=seed,
    )
    kwargs.update(overrides)
    return SolverConfig(**kwargs)


def _loop_record(loop: DiscreteLoop) -> dict:
    return {"winding": list(loop.winding),
            "vertices": [[float(x), float(y)] for x, y in loop.vertices]}


# -- random inputs shared by the sampling experiments ------------------------

def random_metric(rng: np.random.Generator):
    kind = rng.integers(3)
    if kind == 0:
        return euclidean()
    if kind == 1:
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.1, 0.6)
        return RandersMetric(euclidean(), (r * np.cos(ang), r * np.sin(ang)))
    factor = random_factor(rng, amplitude=0.4)
    return ConformalMetric(euclidean(), factor)


def random_factor(rng: np.random.Generator, amplitude: float = 0.4) -> ConformalFactor:
    modes = {}
    for _ in range(int(rng.integers(1, 4))):
        k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        if k == (0, 0):
            continue
        modes[k] = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    osc = Fourier2D(0.0, modes)
    top = osc.max_abs(64)
    if top > amplitude:  # keep the oscillation well inside positivity
        osc = osc * (amplitude / top)
    return ConformalFactor(Fourier2D(1.0) + osc)


def random_loop(rng: np.random.Generator, n_min: int = 8, n_max: int = 48,
                jitter: float = 0.45) -> DiscreteLoop:
    n = int(rng.integers(n_min, n_max + 1))
    while True:
        p, q = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        if (p, q) != (0, 0):
            break
    base = DiscreteLoop.straight((p, q), n, offset=rng.random(2))
    # jitter scales with the segment length: the sampled curve stays
    # piecewise-C^1-like instead of doubling back between vertices
    amp = rng.uniform(0.0, jitter) * np.hypot(p, q) / n
    verts = base.vertices + rng.uniform(-amp, amp, size=(n, 2))
    return DiscreteLoop(verts, (p, q))


def random_body(rng: np.random.Generator, n_max: int = 8, v_max: int = 40) -> ConvexBody:
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(n + 1, v_max + 1))
    return ConvexBody(rng.standard_normal((k, n)))


def _argmin_bruteforce(f: Functional, body: ConvexBody, tol: float = 1e-9):
    """Independent oracle: plain-Python scan over the vertex list.

    The coefficients and vertices are read out with `.tolist()` as Python
    floats, so the scan does no numpy arithmetic: each product and the
    left-to-right sum are the same IEEE operations as on numpy scalars
    (Python 3.11's `sum` adds floats in order), without numpy's per-scalar
    overhead.
    """
    coefficients = f.coefficients.tolist()
    vals = [sum(map(operator.mul, coefficients, v)) for v in body.vertices.tolist()]
    m = min(vals)
    active = [i for i, v in enumerate(vals) if v <= m + tol * (1.0 + abs(m))]
    return m, tuple(active)


# -- experiments --------------------------------------------------------------

def run_uniqueness(cfg: dict, seed: int):
    gamma = get_pair(cfg, "gamma", (1, 0))
    ts = get_floats(cfg, "t_values", [0.0, 0.05, 0.1, 0.2])
    center = get_float(cfg, "bump_center", 0.25)
    scfg = _solver_config(cfg, seed,
                          num_starts=get_int(cfg, "solver.num_starts", 50))
    records = []
    spreads = []
    for t in ts:
        metric = euclidean() if t == 0.0 else ConformalMetric(euclidean(), height_bump(t, center))
        rep = minimizer_set(metric, gamma, scfg)
        best = rep.clusters[0].representative
        rec = {
            "kind": "uniqueness",
            "t": t,
            "spread": rep.spread,
            "n_clusters": rep.n_clusters,
            "n_converged": rep.n_converged,
            "n_failed": rep.n_failed,
            "best_length": rep.best_length,
            "mean_height": circular_mean(np.mod(best.vertices[:, 1], 1.0)),
            "loop": _loop_record(best),
        }
        records.append(rec)
        spreads.append(rep.spread)
    expected_length = float(np.hypot(gamma[0], gamma[1]))
    last = records[-1]
    checks = {
        "spread_monotone": all(s2 <= s1 + 1e-9 for s1, s2 in zip(spreads, spreads[1:])),
        "perturbed_unique_cluster": last["n_clusters"] == 1,
        "perturbed_spread_small": last["spread"] <= 1e-2,
        "perturbed_height": torus_gap(last["mean_height"], center) <= 0.02,
        "perturbed_length": abs(last["best_length"] - expected_length) <= 5e-3 * expected_length,
    }
    if ts and ts[0] == 0.0:
        checks["flat_spread_witnessed"] = spreads[0] >= 0.3
    return records, checks


def run_cs_property(cfg: dict, seed: int):
    count = _count(cfg, "count", 10000)
    rng = np.random.default_rng(seed)
    metrics = [euclidean(),
               RandersMetric(euclidean(), (0.3, 0.1)),
               ConformalMetric(euclidean(), ConformalFactor(
                   Fourier2D(1.0, {(1, 0): (0.2, 0.0), (0, 1): (0.0, 0.15)})))]
    gap_violations = 0
    reparam_violations = 0
    worst_gap = 0.0
    worst_rel = 0.0
    for i in range(count):
        metric = metrics[i % len(metrics)]
        loop = random_loop(rng)
        gap = cs_gap(metric, loop)
        worst_gap = min(worst_gap, gap)
        if gap < -1e-9:
            gap_violations += 1
        flat = reparametrize_constant_speed(metric, loop)
        a = action(metric, flat)
        rel = (a - length(metric, flat) ** 2) / a  # cs_gap / action, one action evaluation
        worst_rel = max(worst_rel, rel)
        if rel > 1e-6:
            reparam_violations += 1
    records = [{"kind": "cs-property", "count": count, "min_gap": worst_gap,
                "max_relative_gap_after_reparam": worst_rel}]
    checks = {
        "gap_nonnegative": gap_violations == 0,
        "reparam_constant_speed": reparam_violations == 0,
    }
    return records, checks


def run_speed_cap(cfg: dict, seed: int):
    scfg = _solver_config(cfg, seed)
    cases = [
        ("euclidean", euclidean(), (1, 0)),
        ("euclidean", euclidean(), (1, 1)),
        ("euclidean", euclidean(), (2, 1)),
        ("euclidean", euclidean(), (3, 4)),
        ("randers", RandersMetric(euclidean(), (0.3, 0.0)), (1, 0)),
        ("randers", RandersMetric(euclidean(), (0.3, 0.0)), (-1, 0)),
        ("conformal", ConformalMetric(euclidean(), height_bump(0.2)), (1, 0)),
    ]
    records = []
    ok = True
    for name, metric, gamma in cases:
        res = shortest_loop(metric, gamma, scfg)
        passed = res.converged and verify_speed_cap(metric, res.loop, gamma)
        ok = ok and passed
        records.append({"kind": "speed-cap", "metric": name, "gamma": list(gamma),
                        "length": res.length, "converged": res.converged,
                        "cap_respected": passed})
    return records, {"all_caps_respected": ok}


def run_mane_polytope(cfg: dict, seed: int):
    trials = _count(cfg, "trials", 100)
    delta = get_float(cfg, "delta", 0.1)
    eps_rel = get_float(cfg, "eps_rel", 1e-3)
    rng = np.random.default_rng(seed)
    records = []
    successes = 0
    oracle_ok = True
    for trial in range(trials):
        body = random_body(rng)
        f = Functional.zero(body.dimension)
        eps = eps_rel * body.diameter
        try:
            res = shrink_argmin(f, body, eps, delta, seed=int(rng.integers(2 ** 31)))
        except PerturbationFailureError as e:
            records.append({"kind": "mane-polytope", "trial": trial, "success": False,
                            "error": str(e)})
            continue
        after_set = argmin_set(res.functional, body)
        m_brute, active_brute = _argmin_bruteforce(res.functional, body)
        if after_set.active_indices != active_brute or abs(after_set.value - m_brute) > 1e-12 * (1 + abs(m_brute)):
            oracle_ok = False
        shift = float(np.linalg.norm(res.functional.coefficients - f.coefficients))
        success = res.diameter_after <= eps and shift <= delta
        successes += success
        records.append({"kind": "mane-polytope", "trial": trial, "success": bool(success),
                        "dimension": body.dimension, "n_vertices": len(body.vertices),
                        "diam_before": res.diameter_before, "diam_after": res.diameter_after,
                        "eps": eps, "t": res.t, "shift": shift})
    checks = {
        "all_trials_succeed": successes == trials,
        "argmin_matches_bruteforce": oracle_ok,
    }
    return records, checks


def run_consistency(cfg: dict, seed: int):
    trials = _count(cfg, "trials", 100)
    resolution = get_int(cfg, "resolution", 256)
    rng = np.random.default_rng(seed)
    records = []
    gap_ok = mass_ok = const_ok = True
    for trial in range(trials):
        metric = random_metric(rng)
        factor = random_factor(rng)
        loop = random_loop(rng, n_min=16, n_max=64, jitter=0.15)
        gap = action_consistency(metric, factor, loop, resolution)
        a = action(metric, loop)
        lip = factor.series.sup_gradient_norm(512)
        # the gap subtracts two sums of size up to sup|lambda| * a, so it carries
        # rounding even when lip = 0 (a constant factor); sup|lambda| is
        # certified from the coefficients
        lam_sup = abs(factor.series.const) + sum(math.hypot(c, s)
                                                 for c, s in factor.series.modes.values())
        bound = lip * (np.sqrt(2.0) / resolution) * a + 1e-12 * (1.0 + lam_sup * a)
        if gap > bound:
            gap_ok = False
        cap = float(np.linalg.norm(loop.velocities, axis=1).max()) * (1 + 1e-12)
        mass = pushforward(metric, loop_measure(metric, loop, cap), resolution).total_mass
        if abs(mass - a) > 1e-12 * (1.0 + a):
            mass_ok = False
        kappa = float(rng.uniform(0.5, 2.0))
        cgap = action_consistency(metric, ConformalFactor.constant(kappa), loop, resolution)
        if cgap > 1e-12 * (1.0 + kappa * a):
            const_ok = False
        records.append({"kind": "consistency", "trial": trial, "gap": gap,
                        "bound": bound, "mass_error": abs(mass - a),
                        "const_gap": cgap})
    checks = {"gap_within_bound": gap_ok, "mass_identity": mass_ok,
              "constant_factor_exact": const_ok}
    return records, checks


def run_semicontinuity(cfg: dict, seed: int):
    trials = _count(cfg, "trials", 100)
    k_lo, k_hi = 1, get_int(cfg, "k_max", 20)
    tail_k = get_int(cfg, "tail_k", 10)
    rng = np.random.default_rng(seed)
    scales = [2.0 ** (-k) for k in range(k_lo, k_hi + 1)]
    records = []
    monotone_ok = diam_ok = True
    for trial in range(trials):
        body = random_body(rng)
        f = Functional(_unit(rng, body.dimension))
        p = Functional(_unit(rng, body.dimension))
        rep = semicontinuity_probe(f, body, [p], scales, tail_start=tail_k - k_lo)
        errs = rep.value_errors
        scale = 1.0 + abs(rep.base_value)
        tail = errs[tail_k - k_lo:]
        if any(e2 > e1 + 1e-12 * scale for e1, e2 in zip(tail, tail[1:])):
            monotone_ok = False
        if any(d > rep.base_diameter + 1e-9 for d in rep.diameters[tail_k - k_lo:]):
            diam_ok = False
        records.append({"kind": "semicontinuity", "trial": trial,
                        "tail_max_error": rep.tail_max_error,
                        "base_diameter": rep.base_diameter,
                        "max_tail_diameter": max(rep.diameters[tail_k - k_lo:])})
    checks = {"value_errors_tail_monotone": monotone_ok,
              "diameter_upper_semicontinuous": diam_ok}
    return records, checks


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


_RUNNERS = {
    "uniqueness": run_uniqueness,
    "cs-property": run_cs_property,
    "speed-cap": run_speed_cap,
    "mane-polytope": run_mane_polytope,
    "consistency": run_consistency,
    "semicontinuity": run_semicontinuity,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(cfg: dict, out_path: str) -> int:
    """Run the configured experiment; write a JSON-lines report; 0 iff all checks pass."""
    experiment = cfg.get("experiment")
    if experiment not in _RUNNERS:
        raise ConfigError(f"unknown or missing experiment id: {experiment!r} "
                          f"(expected one of {', '.join(EXPERIMENTS)})")
    seed = get_int(cfg, "seed", 0)
    records, checks = _RUNNERS[experiment](cfg, seed)
    passed = all(checks.values())
    lines = [json.dumps({"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}),
             json.dumps({"config": dict(sorted(cfg.items()))}, sort_keys=True)]
    lines += [json.dumps(r, sort_keys=True) for r in records]
    lines.append(json.dumps({"summary": {"experiment": experiment, "checks": checks,
                                         "pass": passed}}, sort_keys=True))
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if passed else 1


def emit_plot_data(report_path: str, out_dir: str) -> int:
    """Extract CSV tables (spread curves, trial tables, loop dumps) from a report."""
    with open(report_path, encoding="utf-8") as fh:
        rows = [json.loads(ln) for ln in fh if ln.strip()]
    os.makedirs(out_dir, exist_ok=True)
    records = [r for r in rows if "kind" in r]

    spread_lines = ["t,spread"]
    for r in records:
        if r.get("kind") == "uniqueness":
            spread_lines.append(f"{r['t']!r},{r['spread']!r}")
    _write(os.path.join(out_dir, "uniqueness_spread.csv"), spread_lines)

    trial_lines = ["trial,diam_before,diam_after,t"]
    for r in records:
        if r.get("kind") == "mane-polytope" and r.get("success"):
            trial_lines.append(f"{r['trial']},{r['diam_before']!r},{r['diam_after']!r},{r['t']!r}")
    _write(os.path.join(out_dir, "mane_trials.csv"), trial_lines)

    loop_lines = ["record,vertex,x,y"]
    for i, r in enumerate(records):
        if "loop" in r:
            for j, (x, y) in enumerate(r["loop"]["vertices"]):
                loop_lines.append(f"{i},{j},{x!r},{y!r}")
    _write(os.path.join(out_dir, "loops.csv"), loop_lines)
    return 0


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
