"""Shortest closed geodesics in a winding class by discrete action descent.

The objective is the action A_F, not the length: the length is degenerate
under reparametrization, while action minimizers are constant-speed length
minimizers (Cauchy-Schwarz equality). The descent is limited-memory BFGS
(Nocedal & Wright, *Numerical Optimization*, ch. 7) whose initial inverse
Hessian is a multiple of the inverse loop Laplacian: a Sobolev
preconditioner, solved per coordinate with the FFT, which removes the N^2
stiffness of the fine vertex modes, while the pairs learn the slow modes the
metric adds (on a bump, the transverse one). The stopping test stays on the
raw gradient.

A trial step starts at 1 and shrinks by `_STEP_SHRINK` until it passes
Armijo's test (the action drops by `_ARMIJO` times the step times the
directional slope) or, where that drop is below rounding, Hager and Zhang's
approximate Wolfe test (*SIAM J. Optim.* 16, 2005), which lets the action
rise by at most `_FLOOR_ULPS` eps |a|. So the action sequence is
non-increasing except for at most that rise per step at the rounding floor.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, MalformedLoopError, SolverFailureError
from .loops import (
    DiscreteLoop,
    _length_action,
    _stacked_lengths,
    edges,
    reparametrize_batch,
    require_nontrivial,
)
from .metrics import FinslerMetric, comparison_constant

_STEP_SHRINK = 0.5
_ARMIJO = 1e-4
_FLOOR_ULPS = 16.0  # the approximate Wolfe test's allowed rise, in units of eps |a|
_WOLFE_DELTA = 0.1
_WOLFE_SIGMA = 0.9
_MEMORY = 8  # (s, y) pairs kept per start
_POLISH_STEPS = 6
_LENGTH_TOL_REL = 1e-3
_JITTER = 0.05
_PRECOND_SHIFT = 0.5


@dataclass(frozen=True)
class SolverConfig:
    n_vertices: int = 64
    max_iters: int = 2000
    grad_tol: float = 1e-8
    num_starts: int = 1
    cluster_tol: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("n_vertices", "max_iters", "num_starts"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InputDomainError(f"{name} must be an integer")
        if self.n_vertices < 32:
            raise InputDomainError("n_vertices must be >= 32")
        if self.max_iters < 1:
            raise InputDomainError("max_iters must be >= 1")
        # a nan tolerance fails every test it sets, an infinite one passes every test
        if not (0.0 < self.grad_tol < math.inf and 0.0 < self.cluster_tol < math.inf):
            raise InputDomainError("grad_tol and cluster_tol must be positive and finite")
        if self.num_starts < 1:
            raise InputDomainError("num_starts must be >= 1")


def min_reference_length(winding: tuple[int, int]) -> float:
    """Exact g-minimum sqrt(p^2 + q^2): straight lines minimize on the flat torus."""
    require_nontrivial(winding)
    return float(np.hypot(winding[0], winding[1]))


def speed_bound(metric: FinslerMetric, winding: tuple[int, int]) -> float:
    """A-priori reference-speed bound c_F^2 * min-class-length for F-minimizers."""
    c = comparison_constant(metric)
    return c * c * min_reference_length(winding)


def verify_speed_cap(metric: FinslerMetric, loop: DiscreteLoop) -> bool:
    """True iff every segment speed is within the `speed_bound` of the loop's own class."""
    top = float(np.linalg.norm(loop.velocities, axis=1).max())
    return top <= speed_bound(metric, loop.winding) * (1.0 + 1e-6)


def _evaluate(metric: FinslerMetric, x: np.ndarray, winding) -> tuple[np.ndarray, np.ndarray]:
    """Discrete action, shape (S,), and its analytic gradient, shape (S, N, 2), of each lift in x.

    One metric kernel call at the segment deltas gives both; the action is the
    one `loops.action` computes, N sum F^2(m_i, dx_i).
    """
    f, gx, gv = metric.kernel(*edges(x, winding))
    # segment i depends on x_i (midpoint half, delta -1) and x_{i+1} (+1)
    grads = x.shape[1] * (0.5 * (gx + _previous(gx)) + _previous(gv) - gv)
    return _length_action(f, x.shape[1])[1], grads


def _previous(a: np.ndarray) -> np.ndarray:
    """Each segment's value moved to the next segment, cyclically along axis 1 (np.roll by 1)."""
    return np.concatenate([a[:, -1:], a[:, :-1]], axis=1)


def _require_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise MalformedLoopError("vertices must be finite")


def action_gradient(metric: FinslerMetric, loop: DiscreteLoop) -> np.ndarray:
    """Analytic gradient of the discrete action with respect to the vertices."""
    return _evaluate(metric, loop.vertices[None], loop.winding)[1][0]


def _precond_factors(n: int, kappa: float) -> np.ndarray:
    """FFT symbol of kappa * (c*I + 2n*L), L the loop Laplacian, c = `_PRECOND_SHIFT`.

    This is the Hessian of the flat action up to the constant c, which keeps
    the translation modes (the Laplacian kernel) controllable; kappa absorbs
    how far the metric's curvature can exceed the flat one.
    """
    k = np.arange(n)
    lam = 2.0 * n * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n))
    return kappa * (lam + _PRECOND_SHIFT)


def _precondition(g: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Divide g, shape (S, N, 2), by the preconditioner's FFT symbol along the vertex axis.

    The transforms run on contiguous rows of length N, which is about three
    times faster than striding along axis 1 and gives the same values.
    """
    rows = np.ascontiguousarray(g.transpose(0, 2, 1))
    return np.real(np.fft.ifft(np.fft.fft(rows) / symbol)).transpose(0, 2, 1)


@dataclass
class SolveResult:
    loop: DiscreteLoop
    converged: bool
    iterations: int
    action: float
    length: float
    stop: str  # "gradient" (converged), "stall" or "max_iters"
    action_history: list = field(repr=False)


def _rows(a: np.ndarray) -> np.ndarray:
    """An (S, N, 2) array as S rows of length 2N, also for S = 0."""
    return a.reshape(len(a), a.shape[1] * a.shape[2])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products of (S, N, 2) arrays, shape (S,)."""
    return _rows(a * b).sum(axis=1)


def _sup(g: np.ndarray) -> np.ndarray:
    """Row-wise sup-norms of an (S, N, 2) array, shape (S,)."""
    return _rows(np.abs(g)).max(axis=1)


def _lbfgs_direction(g, live, mem_s, mem_y, rho, gamma, symbol) -> np.ndarray:
    """H g for the starts `live`, H their L-BFGS inverse Hessian with H0 = gamma * P^-1.

    This is the two-loop recursion (Nocedal & Wright, Algorithm 7.4). mem_s
    and mem_y, shape (S, m, N, 2), hold each start's (s, y) pairs newest
    first; rho = 1 / s.y, shape (S, m), is 0 in a slot holding no pair, which
    then changes nothing.
    """
    rho, gamma = rho[live], gamma[live]
    used = int((rho > 0).sum(axis=1).max())
    q = g.copy()
    alpha = np.empty((len(g), used))
    for k in range(used):
        alpha[:, k] = rho[:, k] * _dot(mem_s[live, k], q)
        q -= alpha[:, k, None, None] * mem_y[live, k]
    r = gamma[:, None, None] * _precondition(q, symbol)
    for k in reversed(range(used)):
        beta = rho[:, k] * _dot(mem_y[live, k], r)
        r += (alpha[:, k] - beta)[:, None, None] * mem_s[live, k]
    return r


def _accepted(a, an, step, slope, slope_new) -> np.ndarray:
    """Armijo's test, or Hager and Zhang's approximate Wolfe test at the rounding floor.

    The trial x - step * d has action an and slope_new = g_new . d, against
    the action a and slope = g . d at x. The second test lets the action rise
    by at most `_FLOOR_ULPS` eps |a|, where Armijo's decrease is below rounding.
    """
    armijo = an <= a - _ARMIJO * step * slope
    floor = ((an <= a + _FLOOR_ULPS * np.finfo(float).eps * np.abs(a))
             & (slope_new >= -(1.0 - 2.0 * _WOLFE_DELTA) * slope)
             & (slope_new <= _WOLFE_SIGMA * slope))
    return armijo | floor


def _descend(metric: FinslerMetric, winding: tuple[int, int], config: SolverConfig,
             x0: np.ndarray) -> list[SolveResult]:
    """Descend from S starts x0, shape (S, N, 2), as one array program.

    Each start takes preconditioned L-BFGS steps: `_MEMORY` (s, y) pairs and
    the initial inverse Hessian gamma * P^-1, P the Sobolev preconditioner
    and gamma = s.y / y.P^-1 y of the newest pair (1 with no pair). A step
    whose direction is not a descent direction, or a start with no pairs,
    uses P^-1 g: a plain step. The trial step starts at 1 and shrinks by
    `_STEP_SHRINK` until `_accepted`: Armijo's test, or the approximate Wolfe
    test at the rounding floor. So the action never rises, except by at most
    `_FLOOR_ULPS` eps |a| per step at that floor. An accepted step stores its
    pair when s.y > 0.

    A line search stalls after 60 trials, or at once when a trial leaves x
    bitwise unchanged. A stalled quasi-Newton step clears the start's pairs,
    and the start goes on with a plain step; a stalled plain step ends the
    start unconverged. A start converges when the sup-norm of its raw
    gradient is at most grad_tol; it then takes up to `_POLISH_STEPS` unit
    plain steps, each kept only when accepted with the gradient still within
    grad_tol, which equalize its vertices (the sliding modes) that the
    stopping test leaves loose.

    Each start keeps its own step, tests, pairs and iteration count, exactly
    as if it ran alone. Each trial is evaluated with its gradient, and the
    accepted trial's gradient serves the next iteration, so an iteration
    costs about one metric kernel call. Memory is O(S * N * `_MEMORY`).
    """
    x = np.array(x0, dtype=float)
    _require_finite(x)
    n_starts, n = x.shape[:2]
    kappa = comparison_constant(metric) ** 2
    symbol = _precond_factors(n, kappa)
    a, grad = _evaluate(metric, x, winding)
    histories = [[float(ai)] for ai in a]
    mem_s = np.zeros((n_starts, _MEMORY, n, 2))
    mem_y = np.zeros_like(mem_s)
    rho = np.zeros((n_starts, _MEMORY))
    gamma = np.ones(n_starts)
    iterations = np.zeros(n_starts, dtype=int)
    converged = np.zeros(n_starts, dtype=bool)
    stalled = np.zeros(n_starts, dtype=bool)
    live = np.arange(n_starts)
    for it in range(1, config.max_iters + 1):
        if not len(live):
            break
        iterations[live] = it
        g = grad[live]
        done = _sup(g) <= config.grad_tol
        converged[live[done]] = True
        live, g = live[~done], g[~done]
        if not len(live):
            break
        d = _lbfgs_direction(g, live, mem_s, mem_y, rho, gamma, symbol)
        slope = _dot(g, d)
        plain = rho[live, 0] == 0.0
        bad = slope <= 0.0
        if bad.any():
            d[bad] = _precondition(g[bad], symbol)
            slope[bad] = _dot(g[bad], d[bad])
            plain |= bad
        s = np.ones(len(live))
        accepted = np.zeros(len(live), dtype=bool)
        pending = np.arange(len(live))  # positions in `live` still backtracking
        for _ in range(60):
            if not len(pending):
                break
            idx = live[pending]
            xn = x[idx] - s[pending, None, None] * d[pending]
            _require_finite(xn)
            # a trial that leaves x unchanged has stalled: shorter ones would too
            moved = _rows(xn != x[idx]).any(axis=1)
            pending, idx, xn = pending[moved], idx[moved], xn[moved]
            if not len(pending):
                break
            an, gn = _evaluate(metric, xn, winding)
            ok = _accepted(a[idx], an, s[pending], slope[pending], _dot(gn, d[pending]))
            _store_pairs(idx[ok], xn[ok] - x[idx[ok]], gn[ok] - grad[idx[ok]],
                         mem_s, mem_y, rho, gamma, symbol)
            x[idx[ok]], a[idx[ok]], grad[idx[ok]] = xn[ok], an[ok], gn[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            s[pending] *= _STEP_SHRINK
        for i in live[accepted]:
            histories[i].append(float(a[i]))
        # a stalled quasi-Newton step forgets its pairs and retries with a plain step
        retry = ~accepted & ~plain
        rho[live[retry]], gamma[live[retry]] = 0.0, 1.0
        stalled[live[~accepted & plain]] = True
        live = live[accepted | retry]

    _polish(metric, winding, config, np.flatnonzero(converged), x, a, grad, symbol, histories)
    outs = reparametrize_batch(metric, [DiscreteLoop(xi, winding) for xi in x])
    total, a_out = _length_action(*_stacked_lengths(metric, outs))
    results = []
    for i, out in enumerate(outs):
        stop = "gradient" if converged[i] else "stall" if stalled[i] else "max_iters"
        results.append(SolveResult(loop=out, converged=bool(converged[i]),
                                   iterations=int(iterations[i]), action=float(a_out[i]),
                                   length=float(total[i]), stop=stop, action_history=histories[i]))
    return results


def _store_pairs(idx, s, y, mem_s, mem_y, rho, gamma, symbol) -> None:
    """Push each (s, y) with s.y > 0 as start idx's newest pair, dropping its oldest."""
    sy = _dot(s, y)
    keep = sy > 0.0
    idx, s, y, sy = idx[keep], s[keep], y[keep], sy[keep]
    if not len(idx):
        return
    for mem, new in ((mem_s, s), (mem_y, y)):
        mem[idx, 1:] = mem[idx, :-1]
        mem[idx, 0] = new
    rho[idx, 1:] = rho[idx, :-1]
    rho[idx, 0] = 1.0 / sy
    gamma[idx] = sy / _dot(y, _precondition(y, symbol))


def _polish(metric, winding, config, idx, x, a, grad, symbol, histories) -> None:
    """Up to `_POLISH_STEPS` unit plain steps from the converged starts idx, in place.

    A step is kept when `_accepted` holds and the new gradient's sup-norm is
    still at most grad_tol; a start's first rejected step ends its polish.
    """
    for _ in range(_POLISH_STEPS):
        if not len(idx):
            break
        g = grad[idx]
        d = _precondition(g, symbol)
        xn = x[idx] - d
        an, gn = _evaluate(metric, xn, winding)
        ok = (_accepted(a[idx], an, 1.0, _dot(g, d), _dot(gn, d))
              & (_sup(gn) <= config.grad_tol))
        idx, xn, an, gn = idx[ok], xn[ok], an[ok], gn[ok]
        x[idx], a[idx], grad[idx] = xn, an, gn
        for i in idx:
            histories[i].append(float(a[i]))


def shortest_loop(metric: FinslerMetric, winding: tuple[int, int], config: SolverConfig,
                  init: DiscreteLoop | None = None) -> SolveResult:
    """Minimize the discrete action over vertex positions at fixed winding.

    The returned loop is reparametrized to constant F-speed; its action does
    not exceed that of the initial loop, which is `init` or, when None, a
    jittered straight loop drawn from config.seed, except by the rises of at
    most `_FLOOR_ULPS` eps |a| per step that `_descend` allows at the rounding
    floor. Non-convergence within max_iters, or a stalled line search,
    returns the last iterate flagged `converged=False`, its `stop` saying which.
    """
    require_nontrivial(winding)
    rng = np.random.default_rng(config.seed)
    if init is None:
        base = DiscreteLoop.straight(winding, config.n_vertices, offset=rng.random(2))
        verts = base.vertices + rng.uniform(-_JITTER, _JITTER, size=base.vertices.shape)
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


_DISTANCE_BLOCK = 4  # pairs compared at once: (block, N, N) arrays keep memory small
_PIVOTS = 4  # loops whose exact distance rows bound every other pair
_BOUND_SLACK = 1e-12  # widens the pivot bounds past rounding, see `_spread_links`


def _pair_distances(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """`loop_distance` of the loops i[k] and j[k], for reduced vertex sets pts (m, N, 2).

    The pairs meet in blocks of `_DISTANCE_BLOCK` as (k, N, N) arrays per
    coordinate. The vertices are reduced mod 1 once, so coordinate gaps lie in
    [0, 1] and need no further reduction; the root is taken after min/max,
    which it commutes with, so each value equals `loop_distance` exactly.
    """
    out = np.empty(len(i))
    for s in range(0, len(i), _DISTANCE_BLOCK):
        a, b = pts[i[s:s + _DISTANCE_BLOCK]], pts[j[s:s + _DISTANCE_BLOCK]]
        dx = np.abs(a[:, :, None, 0] - b[:, None, :, 0])
        dy = np.abs(a[:, :, None, 1] - b[:, None, :, 1])
        dx = np.minimum(dx, 1.0 - dx)
        dy = np.minimum(dy, 1.0 - dy)
        sq = dx * dx + dy * dy
        out[s:s + _DISTANCE_BLOCK] = np.sqrt(np.maximum(sq.min(axis=2).max(axis=1),
                                                        sq.min(axis=1).max(axis=1)))
    return out


def _spread_links(loops: list[DiscreteLoop], tol: float) -> tuple[float, np.ndarray]:
    """The largest pairwise `loop_distance` of same-class loops with equal N, and the
    (m, m) boolean graph of the pairs at distance <= tol, without computing every pair.

    The distance is a metric, so exact rows for a few pivots bound every other
    pair from both sides (Chavez, Navarro, Baeza-Yates and Marroquin,
    "Searching in metric spaces", ACM Computing Surveys 33, 2001):

    1. Rows for up to `_PIVOTS` pivots, chosen farthest-first: loop 0, then
       each time the loop farthest from the pivots already chosen.
    2. Each other pair (i, j) gets lb = max_p |d_pi - d_pj| - eps and
       ub = min_p (d_pi + d_pj) + eps, with eps = `_BOUND_SLACK`.
    3. A pair is computed exactly when its link is undecided (lb <= tol < ub)
       or when it could reach the largest pivot distance (ub >= top); all
       such pairs are computed in one batch. Every other pair is linked iff
       ub <= tol.

    eps covers rounding. Let u = 2^-53, the unit roundoff. Coordinates lie in
    [0, 1], so each coordinate gap of `_pair_distances` is within u of the
    exact torus gap, and distances are at most sqrt(0.5), so the square, sum
    and root add at most 2u more; min and max add nothing, as the root is
    monotone. Each computed distance is thus within 3u of the exact Hausdorff
    distance of the reduced vertex sets, which obeys the triangle inequality,
    and the bounds' own difference or sum and the shift by eps add at most
    3u. So lb < d_ij < ub holds for the computed d_ij, with eps - 12u to
    spare. Hence a pruned pair's link is that of its computed distance, a
    pair left out of the maximum computes below top, and the spread is the
    full table's maximum, bit for bit. In the worst case every pair is
    computed.
    """
    pts = np.mod(np.stack([lp.vertices for lp in loops]), 1.0)
    m = len(loops)
    near = np.eye(m, dtype=bool)
    pivots: list[int] = []
    rows = np.zeros((min(_PIVOTS, m), m))
    # boolean masks, not np.setdiff1d: np.unique's first call in a process
    # adds about 1 MiB to `uniqueness`'s peak memory
    rest = np.ones(m, dtype=bool)
    for k in range(len(rows)):
        nearest = rows[:k].min(axis=0, initial=np.inf)  # all inf for k = 0: loop 0 first
        nearest[~rest] = -1.0
        p = int(np.argmax(nearest))
        rows[k, pivots] = rows[:k, p]
        pivots.append(p)
        rest[p] = False
        others = np.flatnonzero(rest)
        rows[k, others] = _pair_distances(pts, np.full(len(others), p), others)
        near[p] = near[:, p] = rows[k] <= tol
    top = float(rows.max())

    idx = np.arange(m)
    i, j = np.nonzero(rest[:, None] & rest & (idx[:, None] < idx))
    lb = np.abs(rows[:, i] - rows[:, j]).max(axis=0) - _BOUND_SLACK
    ub = (rows[:, i] + rows[:, j]).min(axis=0) + _BOUND_SLACK
    undecided = (lb <= tol) & (tol < ub)
    near[i, j] = near[j, i] = ub <= tol
    k = np.flatnonzero(undecided | (ub >= top))
    d = _pair_distances(pts, i[k], j[k])
    near[i[k], j[k]] = near[j[k], i[k]] = d <= tol
    return max(top, float(d.max(initial=0.0))), near


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


def _single_linkage(near: np.ndarray) -> list[list[int]]:
    """Index groups chained by the links of the symmetric boolean graph near, whose
    diagonal is set, ordered by least member, each ascending.

    Every index takes the least label among its neighbours until no label
    changes, so each group ends labelled by its least member, the one index
    that keeps its own label. Finding the groups by those indices rather than
    by `np.unique` keeps `uniqueness`'s peak memory: np.unique's first call in
    a process adds about 1 MiB to it.
    """
    m = len(near)
    label = np.arange(m)
    while True:
        nxt = np.where(near, label, m).min(axis=1)
        if np.array_equal(nxt, label):
            break
        label = nxt
    return [np.flatnonzero(label == k).tolist() for k in np.flatnonzero(label == np.arange(m))]


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
            + rng.uniform(-_JITTER, _JITTER, size=2)
        base = DiscreteLoop.straight(winding, config.n_vertices, offset=offset)
        x0[k] = base.vertices + rng.uniform(-_JITTER, _JITTER, size=shape)
    return x0


def minimizer_set(metric: FinslerMetric, winding: tuple[int, int],
                  config: SolverConfig) -> MinimizerReport:
    """Multi-start descent; cluster the near-optimal minima and report their spread.

    All starts (see `_starts`) descend together in one batch, each with its
    own step. Starts that do not converge are counted in `n_failed` and left
    out of the clusters.

    The spread and the single-linkage links among the kept loops come from
    `_spread_links`. Exact distance rows of up to `_PIVOTS` farthest-first
    pivots bound every other pair by the triangle inequality, widened by
    `_BOUND_SLACK` (1e-12) past the rounding of a computed distance (at most
    3 * 2^-53 off the exact one); a pair is computed, in one batch with the
    others, only when its bounds leave its link undecided or let it reach the
    largest pivot distance. The spread and every link are those of the full
    `loop_distance` table, bit for bit.
    """
    require_nontrivial(winding)
    solved = _descend(metric, winding, config, _starts(winding, config))
    results = [r for r in solved if r.converged]
    if not results:
        raise SolverFailureError("no descent run converged")

    best = min(r.length for r in results)
    kept = [r for r in results if r.length <= best * (1.0 + _LENGTH_TOL_REL)]
    # canonical order: by length, then lexicographically by projected vertices
    kept.sort(key=lambda r: (r.length, tuple(np.round(np.mod(r.loop.vertices, 1.0), 12).ravel())))
    loops = [r.loop for r in kept]
    spread, near = _spread_links(loops, config.cluster_tol)
    # each group's first member is its shortest loop, and the groups come in
    # the order of those loops, so the clusters keep the canonical order
    clusters = tuple(MinimizerCluster(representative=loops[idx[0]], size=len(idx),
                                      length=kept[idx[0]].length)
                     for idx in _single_linkage(near))
    return MinimizerReport(clusters=clusters, spread=spread,
                           best_length=best, n_converged=len(results),
                           n_failed=len(solved) - len(results))
