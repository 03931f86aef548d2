"""Shortest closed geodesics in a winding class by discrete action descent.

The objective is the action A_F, not the length: the length is degenerate
under reparametrization, while action minimizers are constant-speed length
minimizers (Cauchy-Schwarz equality). The descent direction is the gradient
preconditioned by the inverse loop Laplacian (a Sobolev gradient, solved per
coordinate with the FFT); this removes the N^2 stiffness of the fine vertex
modes while the stopping test stays on the raw gradient. Steps are chosen by
Armijo backtracking, so the action sequence is strictly non-increasing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, MalformedLoopError, SolverFailureError
from .loops import (
    DiscreteLoop,
    action,
    length,
    reparametrize_constant_speed,
    require_nontrivial,
)
from .metrics import FinslerMetric, comparison_constant


@dataclass(frozen=True)
class SolverConfig:
    n_vertices: int = 64
    max_iters: int = 2000
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo: float = 1e-4
    grad_tol: float = 1e-8
    num_starts: int = 1
    cluster_tol: float = 0.05
    length_tol_rel: float = 1e-3
    jitter: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_vertices < 32:
            raise InputDomainError("n_vertices must be >= 32")
        if self.grad_tol <= 0 or self.cluster_tol <= 0:
            raise InputDomainError("grad_tol and cluster_tol must be positive")
        if self.num_starts < 1:
            raise InputDomainError("num_starts must be >= 1")


def min_reference_length(winding: tuple[int, int]) -> float:
    """Exact g-minimum sqrt(p^2 + q^2): straight lines minimize on the flat torus."""
    require_nontrivial(winding)
    return float(np.hypot(winding[0], winding[1]))


def speed_bound(metric: FinslerMetric, winding: tuple[int, int],
                grid_resolution: int = 64) -> float:
    """A-priori reference-speed bound c_F^2 * min-class-length for F-minimizers."""
    c = comparison_constant(metric, grid_resolution)
    return c * c * min_reference_length(winding)


def verify_speed_cap(metric: FinslerMetric, loop: DiscreteLoop, winding: tuple[int, int],
                     grid_resolution: int = 64) -> bool:
    """True iff every segment speed respects the a-priori bound (tiny slack for roundoff)."""
    top = float(np.linalg.norm(loop.velocities, axis=1).max())
    return top <= speed_bound(metric, winding, grid_resolution) * (1.0 + 1e-6)


def _edges(x: np.ndarray, winding: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Segment midpoints and velocities N * (x_{i+1} - x_i) of lifts x, shape (S, N, 2)."""
    nxt = np.concatenate([x[:, 1:], x[:, :1] + np.asarray(winding, float)], axis=1)
    return 0.5 * (x + nxt), x.shape[1] * (nxt - x)


def _actions(metric: FinslerMetric, x: np.ndarray, winding) -> np.ndarray:
    """Discrete action of each lift in x, shape (S,); see `loops.action`."""
    mid, vel = _edges(x, winding)
    return (metric.speed(mid, vel) ** 2).sum(axis=-1) / x.shape[1]


def _gradients(metric: FinslerMetric, x: np.ndarray, winding) -> np.ndarray:
    """Analytic action gradient of each lift in x, shape (S, N, 2)."""
    n = x.shape[1]
    gx, gv = metric.speed_sq_grads(*_edges(x, winding))
    # segment i depends on x_i (midpoint half, velocity -N) and x_{i+1} (+N)
    return 0.5 * (gx + np.roll(gx, 1, axis=1)) / n + np.roll(gv, 1, axis=1) - gv


def _require_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise MalformedLoopError("vertices must be finite")


def action_gradient(metric: FinslerMetric, loop: DiscreteLoop) -> np.ndarray:
    """Analytic gradient of the discrete action with respect to the vertices."""
    return _gradients(metric, loop.vertices[None], loop.winding)[0]


def _precond_factors(n: int, kappa: float = 1.0, c: float = 0.5) -> np.ndarray:
    """FFT symbol of kappa * (c*I + 2n*L), L the loop Laplacian.

    This is the Hessian of the flat action up to the constant c, which keeps
    the translation modes (the Laplacian kernel) controllable; kappa absorbs
    how far the metric's curvature can exceed the flat one.
    """
    k = np.arange(n)
    lam = 2.0 * n * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n))
    return kappa * (lam + c)


@dataclass
class SolveResult:
    loop: DiscreteLoop
    converged: bool
    iterations: int
    action: float
    length: float
    action_history: list = field(default_factory=list, repr=False)


def _descend(metric: FinslerMetric, winding: tuple[int, int], config: SolverConfig,
             x0: np.ndarray) -> list[SolveResult]:
    """Descend from S starts x0, shape (S, N, 2), as one array program.

    Each start keeps its own step, Armijo test, stopping test and iteration
    count, exactly as if it ran alone. A start leaves the live set when it
    converges or its line search stalls; the backtracking runs on the starts
    whose trial step is still pending. Memory is O(S * N).
    """
    x = np.array(x0, dtype=float)
    _require_finite(x)
    n_starts, n = x.shape[:2]
    kappa = comparison_constant(metric, grid_resolution=16) ** 2
    symbol = _precond_factors(n, kappa)[:, None]
    a = _actions(metric, x, winding)
    histories = [[float(ai)] for ai in a]
    step = np.full(n_starts, config.step_init)
    iterations = np.zeros(n_starts, dtype=int)
    converged = np.zeros(n_starts, dtype=bool)
    live = np.arange(n_starts)
    for it in range(1, config.max_iters + 1):
        if not len(live):
            break
        iterations[live] = it
        g = _gradients(metric, x[live], winding)
        done = np.abs(g).reshape(len(live), -1).max(axis=1) <= config.grad_tol
        converged[live[done]] = True
        live, g = live[~done], g[~done]
        if not len(live):
            break
        d = np.real(np.fft.ifft(np.fft.fft(g, axis=1) / symbol, axis=1))
        slope = (g * d).reshape(len(live), -1).sum(axis=1)
        s = step[live]
        pending = np.arange(len(live))  # positions in `live` still backtracking
        for _ in range(60):
            if not len(pending):
                break
            idx = live[pending]
            xn = x[idx] - s[pending, None, None] * d[pending]
            _require_finite(xn)
            an = _actions(metric, xn, winding)
            ok = an <= a[idx] - config.armijo * s[pending] * slope[pending]
            x[idx[ok]], a[idx[ok]] = xn[ok], an[ok]
            pending = pending[~ok]
            s[pending] *= config.step_shrink
        # a start still pending has stalled at numerical precision
        moved = np.ones(len(live), dtype=bool)
        moved[pending] = False
        live, s = live[moved], s[moved]
        for i in live:
            histories[i].append(float(a[i]))
        step[live] = np.minimum(s * 2.0, config.step_init)

    results = []
    for i in range(n_starts):
        out = reparametrize_constant_speed(metric, DiscreteLoop(x[i], winding))
        results.append(SolveResult(loop=out, converged=bool(converged[i]),
                                   iterations=int(iterations[i]), action=action(metric, out),
                                   length=length(metric, out), action_history=histories[i]))
    return results


def shortest_loop(metric: FinslerMetric, winding: tuple[int, int], config: SolverConfig,
                  init: DiscreteLoop | str = "straight") -> SolveResult:
    """Minimize the discrete action over vertex positions at fixed winding.

    The returned loop is reparametrized to constant F-speed; its action never
    exceeds that of the initial loop. Non-convergence within max_iters returns
    the best iterate flagged `converged=False`.
    """
    require_nontrivial(winding)
    rng = np.random.default_rng(config.seed)
    if isinstance(init, str):
        if init != "straight":
            raise InputDomainError(f"unknown init {init!r}")
        base = DiscreteLoop.straight(winding, config.n_vertices, offset=rng.random(2))
        verts = base.vertices + rng.uniform(-config.jitter, config.jitter,
                                            size=base.vertices.shape)
    else:
        if init.winding != tuple(winding):
            raise InputDomainError("initial loop has the wrong winding class")
        verts = init.vertices
    return _descend(metric, winding, config, verts[None])[0]


def _torus_pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise torus distances between point sets (n,2) and (m,2)."""
    d = np.abs(a[:, None, :] - b[None, :, :]) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d ** 2).sum(axis=-1))


def loop_distance(a: DiscreteLoop, b: DiscreteLoop) -> float:
    """Symmetric Hausdorff distance between vertex sets projected to T^2."""
    if a.winding != b.winding:
        raise InputDomainError(f"winding mismatch: {a.winding} vs {b.winding}")
    d = _torus_pairwise(np.mod(a.vertices, 1.0), np.mod(b.vertices, 1.0))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


_DISTANCE_BLOCK = 4  # loops compared at once: (block, N, N) arrays keep memory small


def _distance_table(loops: list[DiscreteLoop]) -> np.ndarray:
    """All pairwise `loop_distance` values of same-class loops with equal N, as a table.

    Each loop meets a block of later loops at once as (k, N, N) arrays per
    coordinate. The vertices are reduced mod 1 once, so coordinate gaps lie in
    [0, 1] and need no further reduction; the root is taken after min/max,
    which it commutes with, so the table equals `loop_distance` exactly.
    """
    pts = np.mod(np.stack([lp.vertices for lp in loops]), 1.0)
    m = len(loops)
    dist = np.zeros((m, m))
    for i in range(m - 1):
        for j in range(i + 1, m, _DISTANCE_BLOCK):
            block = pts[j:j + _DISTANCE_BLOCK]
            dx = np.abs(pts[i, None, :, None, 0] - block[:, None, :, 0])
            dy = np.abs(pts[i, None, :, None, 1] - block[:, None, :, 1])
            dx = np.minimum(dx, 1.0 - dx)
            dy = np.minimum(dy, 1.0 - dy)
            sq = dx * dx + dy * dy
            far = np.maximum(sq.min(axis=2).max(axis=1), sq.min(axis=1).max(axis=1))
            dist[i, j:j + _DISTANCE_BLOCK] = dist[j:j + _DISTANCE_BLOCK, i] = np.sqrt(far)
    return dist


@dataclass(frozen=True)
class MinimizerCluster:
    representative: DiscreteLoop
    size: int
    length: float


@dataclass(frozen=True)
class MinimizerReport:
    clusters: tuple[MinimizerCluster, ...]
    spread: float
    best_length: float
    n_converged: int
    n_failed: int  # starts that stopped without converging; left out of the clusters

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def _single_linkage(dist: np.ndarray, tol: float) -> list[list[int]]:
    n = len(dist)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _starts(winding: tuple[int, int], config: SolverConfig) -> np.ndarray:
    """The seeded initial lifts of `minimizer_set`, shape (num_starts, n_vertices, 2).

    Starts are straight lifts translated by stratified offsets along the class
    normal, plus seeded jitter, so a continuum of minimizers (the flat case)
    is witnessed rather than collapsed onto one representative.
    """
    rng = np.random.default_rng(config.seed)
    gnorm = min_reference_length(winding)
    normal = np.array([-winding[1], winding[0]], float) / gnorm
    shape = (config.n_vertices, 2)
    x0 = np.empty((config.num_starts,) + shape)
    for k in range(config.num_starts):
        offset = ((k + rng.random()) / config.num_starts) * normal \
            + rng.uniform(-config.jitter, config.jitter, size=2)
        base = DiscreteLoop.straight(winding, config.n_vertices, offset=offset)
        x0[k] = base.vertices + rng.uniform(-config.jitter, config.jitter, size=shape)
    return x0


def minimizer_set(metric: FinslerMetric, winding: tuple[int, int],
                  config: SolverConfig) -> MinimizerReport:
    """Multi-start descent; cluster the near-optimal minima and report their spread.

    All starts (see `_starts`) descend together in one batch, each with its
    own step. Starts that do not converge are counted in `n_failed` and left
    out of the clusters.
    """
    require_nontrivial(winding)
    solved = _descend(metric, winding, config, _starts(winding, config))
    results = [r for r in solved if r.converged]
    if not results:
        raise SolverFailureError("no descent run converged")

    best = min(r.length for r in results)
    kept = [r for r in results if r.length <= best * (1.0 + config.length_tol_rel)]
    # canonical order: by length, then lexicographically by projected vertices
    kept.sort(key=lambda r: (r.length, tuple(np.round(np.mod(r.loop.vertices, 1.0), 12).ravel())))
    loops = [r.loop for r in kept]
    dist = _distance_table(loops)
    spread = float(dist.max())
    clusters = []
    for idx in _single_linkage(dist, config.cluster_tol):
        rep = min(idx, key=lambda i: (kept[i].length, i))
        clusters.append(MinimizerCluster(representative=loops[rep], size=len(idx),
                                         length=kept[rep].length))
    clusters.sort(key=lambda c: (c.length,
                                 tuple(np.round(np.mod(c.representative.vertices, 1.0), 12).ravel())))
    return MinimizerReport(clusters=tuple(clusters), spread=spread,
                           best_length=best, n_converged=len(results),
                           n_failed=len(solved) - len(results))


def refine(loop: DiscreteLoop) -> DiscreteLoop:
    """Double the vertex count by inserting segment midpoints (for restart)."""
    c = loop.closed_lift
    mids = 0.5 * (c[:-1] + c[1:])
    verts = np.empty((2 * loop.n_vertices, 2))
    verts[0::2] = loop.vertices
    verts[1::2] = mids
    return DiscreteLoop(verts, loop.winding)
