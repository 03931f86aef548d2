"""The named desk-scale experiments and their machine-readable reports.

Each experiment is deterministic given (config, seed) and appends JSON-lines
records to its report: a timestamp line, a config echo, per-run records, and
a summary with one boolean verdict per acceptance check it exercises.
"""
from __future__ import annotations

import dataclasses
import datetime
import json
import math
import os

import numpy as np

from .config import get_float, get_floats, get_int
from .errors import ConfigError, InputDomainError, PerturbationFailureError
from .fourier import Fourier2D
from .loops import DiscreteLoop, action, loop_measure, reparametrize_rows
from .measures import action_consistency, pushforward
from .metrics import ConformalFactor, ConformalMetric, RandersMetric, euclidean
from .polytope import (
    DEFAULT_TOL,
    ConvexBody,
    Functional,
    semicontinuity_probe,
    shrink_argmin_batch,
)
from .solver import SolverConfig, minimizer_set, shortest_loop, verify_speed_cap


BUMP_TROUGH = 0.25  # the height y of `height_bump`'s trough line


def height_bump(t: float) -> ConformalFactor:
    """The conformal factor 1 + t * sin^2(pi * (y - BUMP_TROUGH)).

    Its unique minimum on the torus is lambda = 1 at y = BUMP_TROUGH, so
    horizontal loops through the trough are the only shortest ones for t > 0.
    """
    a = -(t / 2.0) * math.cos(2.0 * math.pi * BUMP_TROUGH)
    b = -(t / 2.0) * math.sin(2.0 * math.pi * BUMP_TROUGH)
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


def _positive(cfg: dict, key: str, default: float) -> float:
    v = get_float(cfg, key, default)
    if not v > 0:
        raise ConfigError(f"key {key!r}: expected a positive number, got {v}")
    return v


def _solver_config(cfg: dict, seed: int) -> SolverConfig:
    """The `solver.` keys of a single descent; `uniqueness` adds the multi-start keys."""
    return SolverConfig(
        n_vertices=get_int(cfg, "solver.n_vertices", 64),
        max_iters=get_int(cfg, "solver.max_iters", 3000),
        grad_tol=get_float(cfg, "solver.grad_tol", 1e-7),
        seed=seed,
    )


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
    factor = random_factor(rng)
    return ConformalMetric(euclidean(), factor)


# A random factor's oscillation is scaled so its max on the 64^2 grid is at
# most 0.4; the true sup can be higher (90 of 100 draws from default_rng(0)
# exceed 0.4 on the 1024^2 grid, at most 0.40212). Positivity rests on the
# certificate `_certify_positive` that ConformalFactor runs, not on this bound.
_FACTOR_AMPLITUDE = 0.4


def random_factor(rng: np.random.Generator) -> ConformalFactor:
    modes = {}
    for _ in range(int(rng.integers(1, 4))):
        k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        if k == (0, 0):
            continue
        modes[k] = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    osc = Fourier2D(0.0, modes)
    top = osc.max_abs(64)
    if top > _FACTOR_AMPLITUDE:
        osc = osc * (_FACTOR_AMPLITUDE / top)
    return ConformalFactor(Fourier2D(1.0) + osc)


def random_loop(rng: np.random.Generator, n_min: int = 8, n_max: int = 48,
                jitter: float = 0.45) -> DiscreteLoop:
    """One loop of `random_loops`."""
    x, winding, n = random_loops(rng, 1, n_min, n_max, jitter)
    return DiscreteLoop(x[0, :n[0]], winding[0])


def random_loops(rng: np.random.Generator, count: int, n_min: int, n_max: int,
                 jitter: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count jittered straight loops as lifts (count, n_max, 2), their windings (count, 2) and Ns.

    Row i's first n[i] entries are its vertices, and what lies past them is
    no vertex. Each loop draws N, then a nontrivial class (p, q), an offset,
    a jitter amplitude and its N jitter draws, one loop after another; the
    straight lifts of `DiscreteLoop.straight`, translated by the offsets, and
    the jitter's scaling run on the whole block, with the bits of one loop's
    arithmetic (`rng.uniform(-amp, amp)` is -amp + 2 amp `rng.random()`).
    """
    ns, windings, offsets, scales = [], [], np.empty((count, 2)), []
    x = np.zeros((count, n_max, 2))  # uniform draws on [0, 1), then the lifts
    for i in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        while True:
            p, q = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            if (p, q) != (0, 0):
                break
        ns.append(n)
        windings.append((p, q))
        rng.random(out=offsets[i])
        scales.append(rng.uniform(0.0, jitter))
        rng.random(out=x[i, :n])
    n, winding = np.array(ns), np.array(windings, dtype=float)
    # jitter scales with the segment length: the sampled curve stays
    # piecewise-C^1-like instead of doubling back between vertices
    amp = (np.array(scales) * np.hypot(winding[:, 0], winding[:, 1]) / n)[:, None, None]
    x *= amp + amp
    x -= amp
    x += offsets[:, None] + np.arange(n_max)[:, None] / n[:, None, None] * winding[:, None]
    return x, winding, n


_BODY_DIM_MAX = 8
_BODY_VERTICES_MAX = 40


def random_body(rng: np.random.Generator) -> ConvexBody:
    n = int(rng.integers(2, _BODY_DIM_MAX + 1))
    k = int(rng.integers(n + 1, _BODY_VERTICES_MAX + 1))
    return ConvexBody._of(rng.standard_normal((k, n)))


def _argmin_bruteforce(fs: list, bodies: list, tol: float = 1e-9) -> list:
    """Independent oracle: (m, active) of each functional fs[i] over bodies[i], one block.

    The block's vertices and coefficients are zero-padded to a common vertex
    count and dimension, multiplied elementwise, and each vertex's products
    are added column by column in coordinate order, (c_0 x_0 + c_1 x_1) +
    c_2 x_2 + ...: the IEEE operations of a left-to-right scalar scan, with no
    matrix product and no call into the polytope code. A padded coordinate
    adds 0.0, which can only turn a -0.0 sum into +0.0; the padded vertices are
    set to +inf after the sum, so none is the minimum.
    """
    if not fs:
        return []
    k = [len(b.vertices) for b in bodies]
    n = [len(f.coefficients) for f in fs]
    # coordinate-major, so each column the sum adds is contiguous
    products = np.zeros((max(n), len(bodies), max(k)))  # the vertices, then c_j * x_j
    coefficients = np.zeros((max(n), len(fs)))
    for i, (f, body) in enumerate(zip(fs, bodies)):
        products[:n[i], i, :k[i]] = body.vertices.T
        coefficients[:n[i], i] = f.coefficients
    products *= coefficients[:, :, None]
    vals = products[0]
    for column in products[1:]:
        vals += column
    vals[np.arange(max(k)) >= np.array(k)[:, None]] = np.inf
    m = vals.min(axis=1)
    mask = vals <= (m + tol * (1.0 + np.abs(m)))[:, None]
    cols = np.nonzero(mask)[1].tolist()
    out, end = [], 0
    for mi, count in zip(m.tolist(), mask.sum(axis=1).tolist()):
        out.append((mi, tuple(cols[end:end + count])))
        end += count
    return out


# -- experiments --------------------------------------------------------------

def run_uniqueness(cfg: dict, seed: int):
    # The bump depends on y only, so every x-translation is an isometry: in a
    # class (p, q) with q != 0 the translates of a shortest loop are shortest
    # loops with other images, and only (p, 0) can collapse to the trough.
    # The class is (1, 0), whose shortest loops have length 1.
    ts = get_floats(cfg, "t_values", [0.0, 0.05, 0.1, 0.2])
    # the checks read the list in order and its last t; a negative t makes the trough a crest
    if ts[0] < 0.0 or ts[-1] <= 0.0 or any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ConfigError(f"key 't_values': expected strictly increasing values >= 0 "
                          f"ending above 0, got {cfg['t_values']!r}")
    scfg = dataclasses.replace(_solver_config(cfg, seed),
                               num_starts=get_int(cfg, "solver.num_starts", 50),
                               cluster_tol=get_float(cfg, "solver.cluster_tol", 0.05))
    records = []
    capped = True
    for t in ts:
        metric = euclidean() if t == 0.0 else ConformalMetric(euclidean(), height_bump(t))
        rep = minimizer_set(metric, (1, 0), scfg)
        capped = capped and all(verify_speed_cap(metric, c.representative)
                                for c in rep.clusters)
        best = rep.clusters[0].representative
        records.append({
            "kind": "uniqueness",
            "t": t,
            "spread": rep.spread,
            "n_clusters": rep.n_clusters,
            "n_converged": rep.n_converged,
            "n_failed": rep.n_failed,
            "best_length": rep.best_length,
            "mean_height": circular_mean(np.mod(best.vertices[:, 1], 1.0)),
            "loop": _loop_record(best),
        })
    spreads = [r["spread"] for r in records]
    last = records[-1]
    checks = {
        "spread_monotone": all(s2 <= s1 + 1e-9 for s1, s2 in zip(spreads, spreads[1:])),
        "perturbed_unique_cluster": last["n_clusters"] == 1,
        "perturbed_spread_small": last["spread"] <= 1e-2,
        "perturbed_height": torus_gap(last["mean_height"], BUMP_TROUGH) <= 0.02,
        "perturbed_length": abs(last["best_length"] - 1.0) <= 5e-3,
        "minimizers_within_speed_cap": capped,
    }
    if ts[0] == 0.0:
        checks["flat_spread_witnessed"] = spreads[0] >= 0.3
    return records, checks


def cs_property_metrics() -> list:
    """The metrics `cs-property` cycles through, loop i taking metric i mod 3."""
    return [euclidean(),
            RandersMetric(euclidean(), (0.3, 0.1)),
            ConformalMetric(euclidean(), ConformalFactor(
                Fourier2D(1.0, {(1, 0): (0.2, 0.0), (0, 1): (0.0, 0.15)})))]


def run_cs_property(cfg: dict, seed: int):
    count = _count(cfg, "count", 10000)
    x, winding, n = random_loops(np.random.default_rng(seed), count, 8, 48, 0.45)
    metrics = cs_property_metrics()
    gap_violations = 0
    reparam_violations = 0
    worst_gap = math.inf
    worst_rel = -math.inf
    # loop i takes metric i mod 3: one reparametrization per metric's rows,
    # whose first trial gives the inputs' cs_gap and whose results their residuals
    for k, metric in enumerate(metrics[:count]):
        rows = slice(k, None, len(metrics))
        _, (total, a), (total_r, a_r) = reparametrize_rows(metric, x[rows], winding[rows], n[rows])
        gap = a - total ** 2
        worst_gap = min(worst_gap, float(gap.min()))
        gap_violations += int((gap < -1e-9).sum())
        rel = (a_r - total_r ** 2) / a_r  # cs_gap / action
        worst_rel = max(worst_rel, float(rel.max()))
        reparam_violations += int((rel > 1e-6).sum())
    records = [{"kind": "cs-property", "count": count, "min_gap": worst_gap,
                "max_relative_gap_after_reparam": worst_rel}]
    checks = {
        "gap_nonnegative": gap_violations == 0,
        "reparam_constant_speed": reparam_violations == 0,
    }
    return records, checks


def run_speed_cap(cfg: dict, seed: int):
    scfg = _solver_config(cfg, seed)
    # each case's exact minimum length: |gamma|, |gamma| + 0.3 p for the drift
    # (0.3, 0) on gamma = (p, q), and 1 for the bump, a factor >= 1 with equality on its trough
    cases = [
        ("euclidean", euclidean(), (1, 0), 1.0),
        ("euclidean", euclidean(), (1, 1), math.sqrt(2.0)),
        ("euclidean", euclidean(), (2, 1), math.sqrt(5.0)),
        ("euclidean", euclidean(), (3, 4), 5.0),
        ("randers", RandersMetric(euclidean(), (0.3, 0.0)), (1, 0), 1.3),
        ("randers", RandersMetric(euclidean(), (0.3, 0.0)), (-1, 0), 0.7),
        ("conformal", ConformalMetric(euclidean(), height_bump(0.2)), (1, 0), 1.0),
    ]
    records = []
    ok = exact = True
    for name, metric, gamma, minimum in cases:
        res = shortest_loop(metric, gamma, scfg)
        passed = res.converged and verify_speed_cap(metric, res.loop)
        ok = ok and passed
        exact = exact and abs(res.length - minimum) <= 5e-3 * minimum
        records.append({"kind": "speed-cap", "metric": name, "gamma": list(gamma),
                        "length": res.length, "converged": res.converged,
                        "cap_respected": passed})
    return records, {"all_caps_respected": ok, "lengths_exact": exact}


_MANE_BLOCK = 100  # trials drawn and solved as one batch


def run_mane_polytope(cfg: dict, seed: int):
    trials = _count(cfg, "trials", 100)
    delta = _positive(cfg, "delta", 0.1)
    eps_rel = _positive(cfg, "eps_rel", 1e-3)
    rng = np.random.default_rng(seed)
    records = []
    oracle_ok = True
    for start in range(0, trials, _MANE_BLOCK):
        block, ok = _mane_block(rng, range(start, min(trials, start + _MANE_BLOCK)),
                                delta, eps_rel)
        records += block
        oracle_ok = oracle_ok and ok
    checks = {
        "all_trials_succeed": all(r["success"] for r in records),
        "argmin_matches_bruteforce": oracle_ok,
    }
    return records, checks


def _mane_block(rng: np.random.Generator, trials: range, delta: float, eps_rel: float):
    """The records of one block of `mane-polytope` trials, and whether the oracle agreed on each.

    Each trial draws its body, then a seed; the block's seeds seed the one
    generator that its rows share for their exposing draws. The block is
    solved as one `shrink_argmin_batch` and checked by one
    `_argmin_bruteforce` call over its solved trials.
    """
    bodies, seeds = [], []
    for _ in trials:
        bodies.append(random_body(rng))
        seeds.append(int(rng.integers(2 ** 31)))
    eps = [eps_rel * body.diameter for body in bodies]
    fs = [Functional.zero(body.dimension) for body in bodies]
    shared = np.random.default_rng(seeds)
    results = shrink_argmin_batch(fs, bodies, eps, [delta] * len(bodies), [shared] * len(bodies))
    solved = [j for j, res in enumerate(results) if not isinstance(res, Exception)]
    brute = dict(zip(solved, _argmin_bruteforce([results[j].functional for j in solved],
                                                [bodies[j] for j in solved])))
    records = []
    oracle_ok = True
    for j, (trial, body, e) in enumerate(zip(trials, bodies, eps)):
        # a trial's body and result are dropped as its record is built, so the
        # records take their memory instead of growing the heap past the block
        res, results[j], bodies[j] = results[j], None, None
        if isinstance(res, PerturbationFailureError):
            records.append({"kind": "mane-polytope", "trial": trial, "success": False,
                            "error": str(res)})
            continue
        if isinstance(res, Exception):
            raise res
        m_brute, active_brute = brute[j]
        if res.after.active_indices != active_brute or abs(res.after.value - m_brute) > 1e-12 * (1 + abs(m_brute)):
            oracle_ok = False
        success = res.after.diameter <= e and res.shift <= delta
        records.append({"kind": "mane-polytope", "trial": trial, "success": bool(success),
                        "dimension": body.dimension, "n_vertices": len(body.vertices),
                        "diam_before": res.before.diameter, "diam_after": res.after.diameter,
                        "eps": e, "t": res.t, "shift": res.shift})
    return records, oracle_ok


def run_consistency(cfg: dict, seed: int):
    trials = _count(cfg, "trials", 100)
    resolution = get_int(cfg, "resolution", 256)
    if resolution < 8:  # the grid `pushforward` accepts
        raise ConfigError(f"key 'resolution': expected an integer >= 8, got {resolution}")
    rng = np.random.default_rng(seed)
    records = []
    gap_ok = mass_ok = const_ok = True
    for trial in range(trials):
        metric = random_metric(rng)
        factor = random_factor(rng)
        loop = random_loop(rng, n_min=16, n_max=64, jitter=0.15)
        a = action(metric, loop)
        # the gap subtracts two sums of size up to sup|lambda| * a, so it carries
        # rounding even when Lip = 0 (a constant factor); Lip and sup|lambda|
        # are both certified from the coefficients
        bound = (factor.lipschitz_bound() * (np.sqrt(2.0) / resolution) * a
                 + 1e-12 * (1.0 + factor.sup_bound() * a))
        cap = float(np.linalg.norm(loop.velocities, axis=1).max()) * (1 + 1e-12)
        grid = pushforward(metric, loop_measure(metric, loop, cap), resolution)
        gap = action_consistency(metric, factor, loop, grid)
        mass = grid.total_mass
        kappa = float(rng.uniform(0.5, 2.0))
        cgap = action_consistency(metric, ConformalFactor.constant(kappa), loop, grid)
        if gap > bound:
            gap_ok = False
        if abs(mass - a) > 1e-12 * (1.0 + a):
            mass_ok = False
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
    k_lo, k_hi = 1, _count(cfg, "k_max", 20)
    if k_hi > 1074:  # 2^-k underflows to 0 past the least subnormal double, 2^-1074
        raise ConfigError(f"key 'k_max': expected 1 <= k_max <= 1074, got {k_hi}")
    tail_k = get_int(cfg, "tail_k", 10)
    if not k_lo <= tail_k <= k_hi:
        raise ConfigError(f"key 'tail_k': expected 1 <= tail_k <= k_max = {k_hi}, got {tail_k}")
    rng = np.random.default_rng(seed)
    scales = [2.0 ** (-k) for k in range(k_lo, k_hi + 1)]
    records = []
    monotone_ok = lipschitz_ok = diam_ok = True
    for trial in range(trials):
        body = random_body(rng)
        f = Functional(_unit(rng, body.dimension))
        p = Functional(_unit(rng, body.dimension))
        rep = semicontinuity_probe(f, body, p, scales, tail_start=tail_k - k_lo)
        errs = rep.value_errors
        scale = 1.0 + abs(rep.base_value)
        p_vals = p(body.vertices)
        # m(f + s p) is concave and piecewise linear in s: its error need not
        # shrink past a breakpoint, but below s* it is linear on f's argmin face
        s_star = _certified_scale(rep.base.values, p_vals, rep.base_value)
        tail = [e for e, s in zip(errs[tail_k - k_lo:], scales[tail_k - k_lo:]) if s < s_star]
        if any(e2 > e1 + 1e-12 * scale for e1, e2 in zip(tail, tail[1:])):
            monotone_ok = False
        rate = float(np.abs(p_vals).max())
        if any(e > s * rate + 1e-12 * scale for e, s in zip(errs, scales)):
            lipschitz_ok = False
        if rep.diameter_violations:
            diam_ok = False
        records.append({"kind": "semicontinuity", "trial": trial,
                        "tail_max_error": rep.tail_max_error,
                        "base_diameter": rep.base_diameter,
                        "max_tail_diameter": max(rep.diameters[tail_k - k_lo:])})
    checks = {"value_errors_tail_monotone": monotone_ok,
              "value_errors_lipschitz": lipschitz_ok,
              "diameter_upper_semicontinuous": diam_ok}
    return records, checks


def _certified_scale(f_vals: np.ndarray, p_vals: np.ndarray, m: float) -> float:
    """The scale s* below which f + s p attains its minimum on f's argmin face.

    A vertex off the face lies above m by at least its gap, and s p moves two
    vertices apart by at most s (max p - min p); s* is the smallest gap over
    that spread, infinite when no vertex is off the face or p is constant.
    """
    gaps = f_vals[f_vals > m + DEFAULT_TOL * (1.0 + abs(m))] - m
    spread = float(p_vals.max() - p_vals.min())
    if not len(gaps) or spread == 0.0:
        return math.inf
    return float(gaps.min()) / spread


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


class _ReadKeys(dict):
    """A config that records each key tested with `in`, as every getter tests its key."""

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.read = {"experiment", "out"}  # read by the runner and the command line

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)


def run(cfg: dict, out_path: str) -> int:
    """Run the configured experiment; write a JSON-lines report; 0 iff all checks pass.

    A key the experiment does not read is a config error, raised before the report is written.
    """
    experiment = cfg.get("experiment")
    if experiment not in _RUNNERS:
        raise ConfigError(f"unknown or missing experiment id: {experiment!r} "
                          f"(expected one of {', '.join(EXPERIMENTS)})")
    cfg = _ReadKeys(cfg)
    seed = get_int(cfg, "seed", 0)
    records, checks = _RUNNERS[experiment](cfg, seed)
    unread = sorted(set(cfg) - cfg.read)
    if unread:
        raise ConfigError(f"keys not read by experiment {experiment!r}: {', '.join(unread)}")
    passed = all(checks.values())
    # the bits of json.dumps(..., sort_keys=True), from one encoder instead of one per line
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [json.dumps({"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}),
             encode({"config": dict(sorted(cfg.items()))})]
    lines += map(encode, records)
    lines.append(encode({"summary": {"experiment": experiment, "checks": checks,
                                     "pass": passed}}))
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if passed else 1


def emit_plot_data(report_path: str, out_dir: str) -> int:
    """Extract CSV tables (spread curves, trial tables, loop dumps) from a report.

    Every table is built before any is written, so a file that is not a
    report raises InputDomainError and writes nothing.
    """
    with open(report_path, encoding="utf-8") as fh:
        rows = [json.loads(ln) for ln in fh if ln.strip()]
    try:
        tables = _plot_tables([r for r in rows if "kind" in r])
    except (KeyError, TypeError, ValueError) as e:
        raise InputDomainError(f"{report_path} is not a report: "
                               f"{type(e).__name__}: {e}") from e
    os.makedirs(out_dir, exist_ok=True)
    for name, lines in tables.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _plot_tables(records: list) -> dict[str, list[str]]:
    """The CSV lines of each plot table, by file name, from a report's records."""
    spread_lines = ["t,spread"]
    for r in records:
        if r.get("kind") == "uniqueness":
            spread_lines.append(f"{r['t']!r},{r['spread']!r}")

    trial_lines = ["trial,diam_before,diam_after,t"]
    for r in records:
        if r.get("kind") == "mane-polytope" and r.get("success"):
            trial_lines.append(f"{r['trial']},{r['diam_before']!r},{r['diam_after']!r},{r['t']!r}")

    loop_lines = ["record,vertex,x,y"]
    for i, r in enumerate(records):
        if "loop" in r:
            for j, (x, y) in enumerate(r["loop"]["vertices"]):
                loop_lines.append(f"{i},{j},{x!r},{y!r}")
    return {"uniqueness_spread.csv": spread_lines, "mane_trials.csv": trial_lines,
            "loops.csv": loop_lines}
