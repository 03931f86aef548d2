"""Checks of torusgeo's outputs, made apart from the program.

Every check here uses the benchmark's own evaluation of metrics, conformal
factors, lengths and argmin sets, or a property the method must have; none
compares against a stored copy of earlier output. Where a report does not
carry the inputs of a trial, `replay_consistency` and `replay_bodies` redraw
them from the experiment's seed in the order the experiment draws them.

Each `check_*` function returns an `Outcome`: operations attempted, how many
of them the program itself reported as failed, and one message per check
that rejected an output of an operation that did not fail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
ARGMIN_TOL = 1e-9  # the relative tolerance that defines an argmin face


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


# -- the benchmark's own fields and metrics ----------------------------------

class Field:
    """c + sum of a*cos(2 pi k.x) + b*sin(2 pi k.x), with the terms kept as drawn."""

    def __init__(self, const: float, terms=()):
        self.const = float(const)
        self.terms = [(int(kx), int(ky), float(a), float(b)) for kx, ky, a, b in terms]

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, float)
        out = np.full(pts.shape[:-1], self.const)
        for kx, ky, a, b in self.terms:
            th = TWO_PI * (kx * pts[..., 0] + ky * pts[..., 1])
            out += a * np.cos(th) + b * np.sin(th)
        return out

    def scaled(self, s: float) -> "Field":
        return Field(self.const * s, [(kx, ky, a * s, b * s) for kx, ky, a, b in self.terms])

    def sup_bound(self) -> float:
        """Certified sup |field|: |c| + sum sqrt(a^2 + b^2)."""
        return abs(self.const) + sum(math.hypot(a, b) for _, _, a, b in self.terms)

    def lipschitz_bound(self) -> float:
        """Certified sup |grad field|: 2 pi sum |k| sqrt(a^2 + b^2)."""
        return TWO_PI * sum(math.hypot(kx, ky) * math.hypot(a, b) for kx, ky, a, b in self.terms)


@dataclass
class Metric:
    """F(x, v) = prod_j sqrt(lambda_j(x)) * (|v| + beta . v): Euclidean, Randers or conformal."""

    beta: tuple = (0.0, 0.0)
    factors: tuple = ()

    def speed(self, x, v) -> np.ndarray:
        x, v = np.asarray(x, float), np.asarray(v, float)
        s = np.hypot(v[..., 0], v[..., 1]) + self.beta[0] * v[..., 0] + self.beta[1] * v[..., 1]
        for lam in self.factors:
            s = s * np.sqrt(lam(x))
        return s


def closed(verts, winding) -> np.ndarray:
    v = np.asarray(verts, float)
    return np.vstack([v, v[0] + np.asarray(winding, float)])


def segment_lengths(metric: Metric, verts, winding) -> np.ndarray:
    c = closed(verts, winding)
    return metric.speed(0.5 * (c[:-1] + c[1:]), c[1:] - c[:-1])


def loop_action(metric: Metric, verts, winding) -> float:
    """(1/N) sum F^2(m_i, N dx_i), midpoint rule."""
    ell = segment_lengths(metric, verts, winding)
    return float(len(ell) * (ell ** 2).sum())


# -- uniqueness ---------------------------------------------------------------

def bump_length(verts, winding, t: float) -> float:
    """F-length under sqrt(1 + t sin^2(pi (y - 1/4))) |dx|, at segment midpoints."""
    c = closed(verts, winding)
    mid_y = 0.5 * (c[:-1, 1] + c[1:, 1])
    d = c[1:] - c[:-1]
    lam = 1.0 + t * np.sin(math.pi * (mid_y - 0.25)) ** 2
    return float((np.sqrt(lam) * np.hypot(d[:, 0], d[:, 1])).sum())


def circular_mean(values) -> float:
    z = np.exp(2j * math.pi * np.asarray(values, float)).mean()
    return float(math.atan2(z.imag, z.real) / TWO_PI % 1.0)


def torus_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def check_uniqueness(records, t_values, starts: int) -> Outcome:
    """One operation per t: a multi-start solve over the bump 1 + t sin^2(pi(y - 1/4)).

    A t whose starts did not all converge is a failed operation. For the others:
    the reported best length is the F-length of the reported loop, it is at
    least the flat minimum 1 (lambda >= 1, and a (1,0) loop is at least 1
    long), and for t > 0 the loop is near-shortest and lies on the trough
    y = 1/4 with every minimizer found within a vertex spacing of it; at
    t = 0 the starts witness the continuum of translates.
    """
    out = Outcome()
    by_t = {r["t"]: r for r in records if r.get("kind") == "uniqueness"}
    for t in t_values:
        out.attempted += 1
        rec = by_t.get(t)
        if rec is None:
            out.errors.append(f"uniqueness: no record for t = {t}")
            continue
        if rec["n_converged"] != starts:
            out.failed += 1
            continue
        verts = np.array(rec["loop"]["vertices"], float)
        winding = tuple(rec["loop"]["winding"])
        best = rec["best_length"]
        if winding != (1, 0):
            out.errors.append(f"uniqueness t={t}: loop winding {winding}, expected (1, 0)")
            continue
        own = bump_length(verts, winding, t)
        if abs(own - best) > 1e-12 * best:
            out.errors.append(f"uniqueness t={t}: best_length {best!r} but the loop's F-length is {own!r}")
        # each |dx_i| and the sum of N of them round by at most a few ulps
        if best < 1.0 - 4 * len(verts) * EPS:
            out.errors.append(f"uniqueness t={t}: best_length {best!r} below the flat minimum 1")
        if t > 0:
            if best > 1.0 + 5e-3:
                out.errors.append(f"uniqueness t={t}: best_length {best!r} above 1 + 5e-3")
            height = circular_mean(np.mod(verts[:, 1], 1.0))
            if torus_gap(height, 0.25) > 0.02:
                out.errors.append(f"uniqueness t={t}: loop height {height:.4f}, not on the trough y = 1/4")
            # the minimizers are one line, up to where their vertices sit on it
            if rec["spread"] > 1.0 / len(verts):
                out.errors.append(f"uniqueness t={t}: spread {rec['spread']!r} wider than a vertex spacing")
        elif rec["spread"] < 0.3:
            out.errors.append(f"uniqueness t=0: spread {rec['spread']!r} < 0.3 on the flat torus")
    return out


# -- Cauchy-Schwarz and constant-speed reparametrization ----------------------

def check_cs_report(records, count: int) -> Outcome:
    """The cs-property experiment's extremes over its loops, one operation per loop."""
    out = Outcome(attempted=count)
    rec = next((r for r in records if r.get("kind") == "cs-property"), None)
    if rec is None or rec["count"] != count:
        out.errors.append(f"cs-property: no record for {count} loops")
        return out
    if rec["min_gap"] < -1e-9:
        out.errors.append(f"cs-property: Cauchy-Schwarz gap {rec['min_gap']!r} < 0")
    if rec["max_relative_gap_after_reparam"] > 1e-6:
        out.errors.append("cs-property: relative gap after reparametrization "
                          f"{rec['max_relative_gap_after_reparam']!r} > 1e-6")
    return out


def distance_to_polygon(points, chain) -> np.ndarray:
    """Euclidean distance from each point to the polyline through `chain`."""
    a, b = chain[:-1], chain[1:]
    d = b - a
    p = np.asarray(points, float)[:, None, :]
    s = np.clip(((p - a) * d).sum(-1) / np.maximum((d * d).sum(-1), 1e-300), 0.0, 1.0)
    return np.sqrt(((a + s[..., None] * d - p) ** 2).sum(-1)).min(axis=1)


def check_reparam(metric: Metric, verts, winding, out_verts, out_winding) -> list:
    """A constant-speed resampling keeps the class, stays on the input polygon, and equalizes speeds."""
    errors = []
    if tuple(out_winding) != tuple(winding):
        return [f"reparam: winding {tuple(out_winding)} instead of {tuple(winding)}"]
    c = closed(verts, winding)
    w = np.asarray(winding, float)
    # the output may start on any lift of the polygon: allow one period either way
    chain = np.vstack([c[:-1] - w, c[:-1], c + w])
    off = distance_to_polygon(out_verts, chain)
    scale = 1.0 + float(np.abs(c).max()) + float(np.abs(w).max())
    if off.max() > 1e-12 * scale:
        errors.append(f"reparam: vertex {int(off.argmax())} is {off.max():.3g} off the input polygon")
    ell = segment_lengths(metric, out_verts, winding)
    a = float(len(ell) * (ell ** 2).sum())
    rel = (a - float(ell.sum()) ** 2) / a
    if rel > 1e-6:
        errors.append(f"reparam: relative Cauchy-Schwarz gap {rel:.3g} > 1e-6")
    return errors


def draw_loop(rng: np.random.Generator, n_min: int = 8, n_max: int = 48, jitter: float = 0.45):
    """A jittered straight loop of a random nontrivial class, drawn as `experiments.random_loop` draws it."""
    n = int(rng.integers(n_min, n_max + 1))
    p, q = 0, 0
    while (p, q) == (0, 0):
        p, q = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
    t = np.arange(n)[:, None] / n
    verts = rng.random(2) + t * np.array([p, q], float)
    amp = rng.uniform(0.0, jitter) * math.hypot(p, q) / n
    return verts + rng.uniform(-amp, amp, size=(n, 2)), (p, q)


# -- the measure bridge ---------------------------------------------------------

@dataclass
class BridgeTrial:
    metric: Metric
    factor: Field
    verts: np.ndarray
    winding: tuple
    kappa: float


def _draw_factor(rng: np.random.Generator, amplitude: float) -> Field:
    modes = {}
    for _ in range(int(rng.integers(1, 4))):
        k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        if k == (0, 0):
            continue
        modes[k] = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    osc = Field(0.0, [(kx, ky, a, b) for (kx, ky), (a, b) in modes.items()])
    t = np.arange(64) / 64
    gx, gy = np.meshgrid(t, t, indexing="ij")
    top = float(np.abs(osc(np.stack([gx, gy], axis=-1))).max())
    if top > amplitude:
        osc = osc.scaled(amplitude / top)
    return Field(1.0, osc.terms)


def replay_consistency(seed: int, trials: int) -> list:
    """The inputs of `torusgeo run` with experiment = consistency, drawn as the experiment draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        kind = int(rng.integers(3))
        if kind == 0:
            metric = Metric()
        elif kind == 1:
            ang = rng.uniform(0, TWO_PI)
            r = rng.uniform(0.1, 0.6)
            metric = Metric(beta=(r * math.cos(ang), r * math.sin(ang)))
        else:
            metric = Metric(factors=(_draw_factor(rng, 0.4),))
        factor = _draw_factor(rng, 0.4)
        verts, winding = draw_loop(rng, n_min=16, n_max=64, jitter=0.15)
        kappa = float(rng.uniform(0.5, 2.0))
        out.append(BridgeTrial(metric, factor, verts, winding, kappa))
    return out


def flagged(rec) -> bool:
    """The experiment's own test of a trial: its gap exceeds its Lipschitz bound."""
    return rec["gap"] > rec["bound"]


def own_gap(trial: BridgeTrial, resolution: int) -> float:
    """|rescaled action - pairing of the factor with the pushforward|, by the benchmark.

    Each atom (midpoint m_i, velocity N dx_i) weighs F^2/N; the action takes
    the factor at m_i, the pairing at the centre of the grid cell holding m_i.
    """
    c = closed(trial.verts, trial.winding)
    mids = 0.5 * (c[:-1] + c[1:])
    n = len(trial.verts)
    f2 = trial.metric.speed(mids, n * (c[1:] - c[:-1])) ** 2 / n
    cells = np.minimum((np.mod(mids, 1.0) * resolution).astype(int), resolution - 1)
    lam = trial.factor
    return abs(float((lam(mids) * f2).sum()) - float((lam((cells + 0.5) / resolution) * f2).sum()))


def check_bridge_trial(trial: BridgeTrial, rec, mass: float, kappa_pairing: float,
                       resolution: int) -> list:
    """Mass identity, exact constant factors, and a certified Lipschitz bound on the gap.

    `mass` is the total mass of the program's pushforward of the trial's loop
    and `kappa_pairing` the program's pairing of the constant factor kappa with
    it; `rec` is the trial's report record.
    """
    errors = []
    a = loop_action(trial.metric, trial.verts, trial.winding)
    if abs(mass - a) > 1e-12 * (1.0 + a):
        errors.append(f"bridge: pushed mass {mass!r} differs from the loop's action {a!r}")
    if rec["mass_error"] > 1e-12 * (1.0 + a):
        errors.append(f"bridge: reported mass error {rec['mass_error']!r}")
    ka = trial.kappa * a
    if abs(kappa_pairing - ka) > 1e-12 * (1.0 + ka) or rec["const_gap"] > 1e-12 * (1.0 + ka):
        errors.append(f"bridge: constant factor {trial.kappa!r} does not pair to kappa times the mass")
    lam = trial.factor
    own = own_gap(trial, resolution)
    rounding = 1e-12 * (1.0 + lam.sup_bound() * a)
    half_diagonal = math.sqrt(2.0) / (2.0 * resolution)
    bound = lam.lipschitz_bound() * half_diagonal * a + rounding
    if rec["gap"] > bound:
        errors.append(f"bridge: gap {rec['gap']!r} above the certified bound {bound!r}")
    if abs(rec["gap"] - own) > rounding:
        errors.append(f"bridge: gap {rec['gap']!r} but the benchmark computes {own!r}")
    return errors


def check_bridge(records, trials, program_values, resolution: int, count_flagged: bool) -> Outcome:
    """One operation per trial; `program_values[i]` is (mass, kappa_pairing) for trial i.

    With `count_flagged`, a trial the experiment's own test flags is a failed
    operation; without it, that trial is judged by the checks above alone.
    """
    out = Outcome()
    recs = [r for r in records if r.get("kind") == "consistency"]
    if len(recs) != len(trials):
        out.attempted = len(trials)
        out.errors.append(f"bridge: {len(recs)} records for {len(trials)} trials")
        return out
    for rec, trial, (mass, kp) in zip(recs, trials, program_values):
        out.attempted += 1
        if count_flagged and flagged(rec):
            out.failed += 1
            continue
        out.errors += [f"trial {rec['trial']}: {e}" for e in
                       check_bridge_trial(trial, rec, mass, kp, resolution)]
    return out


# -- the polytope model ---------------------------------------------------------

def draw_body(rng: np.random.Generator, n_max: int = 8, v_max: int = 40) -> np.ndarray:
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(n + 1, v_max + 1))
    return rng.standard_normal((k, n))


def replay_bodies(seed: int, trials: int) -> list:
    """The bodies of `torusgeo run` with experiment = mane-polytope, drawn as it draws them."""
    rng = np.random.default_rng(seed)
    bodies = []
    for _ in range(trials):
        bodies.append(draw_body(rng))
        rng.integers(2 ** 31)  # the seed the experiment hands to shrink_argmin
    return bodies


def diameter(points) -> float:
    p = np.asarray(points, float)
    d = p[:, None, :] - p[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


def brute_argmin(coefficients, vertices, tol: float = ARGMIN_TOL):
    """Minimum of a linear functional over a vertex list, by a plain-Python scan."""
    vals = [math.fsum(c * x for c, x in zip(coefficients, v)) for v in np.asarray(vertices).tolist()]
    m = min(vals)
    return m, tuple(i for i, v in enumerate(vals) if v <= m + tol * (1.0 + abs(m)))


def check_argmin(value: float, active, coefficients, vertices) -> list:
    m, idx = brute_argmin(coefficients, vertices)
    if tuple(active) != idx or abs(value - m) > 1e-12 * (1.0 + abs(m)):
        return [f"argmin: program gives {value!r} on {tuple(active)}, scan gives {m!r} on {idx}"]
    return []


def check_mane(records, bodies, delta: float, eps_rel: float) -> Outcome:
    """One operation per trial; a trial the program reports unsuccessful is a failed one."""
    out = Outcome()
    recs = [r for r in records if r.get("kind") == "mane-polytope"]
    if len(recs) != len(bodies):
        out.attempted = len(bodies)
        out.errors.append(f"mane: {len(recs)} records for {len(bodies)} trials")
        return out
    for rec, body in zip(recs, bodies):
        out.attempted += 1
        if not rec["success"]:
            out.failed += 1
            continue
        diam = diameter(body)
        eps = eps_rel * diam
        tag = f"mane trial {rec['trial']}"
        if (rec["dimension"], rec["n_vertices"]) != (body.shape[1], body.shape[0]):
            out.errors.append(f"{tag}: body is not the one the seed draws")
        elif abs(rec["diam_before"] - diam) > 1e-12 * diam or abs(rec["eps"] - eps) > 1e-12 * eps:
            out.errors.append(f"{tag}: diameter {rec['diam_before']!r}, eps {rec['eps']!r}; expected {diam!r}")
        if not rec["shift"] <= delta:
            out.errors.append(f"{tag}: shift {rec['shift']!r} > delta {delta!r}")
        if not rec["diam_after"] <= rec["eps"]:
            out.errors.append(f"{tag}: argmin diameter {rec['diam_after']!r} > eps {rec['eps']!r}")
    return out
