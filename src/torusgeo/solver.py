"""Shortest closed geodesics in a winding class by discrete action descent.

The objective is the action A_F, not the length: the length is degenerate
under reparametrization, while action minimizers are constant-speed length
minimizers (Cauchy-Schwarz equality). The descent is limited-memory BFGS
(Nocedal & Wright, *Numerical Optimization*, ch. 7) whose initial inverse
Hessian is gamma P^-1, P = kappa (c I + 2N L) with L the loop Laplacian: a
Sobolev preconditioner, which removes the N^2 stiffness of the fine vertex
modes. Its shift c is not a constant but the certified curvature the metric
gives a rigid translation of the loop (`metrics.translation_curvature`),
so P matches the action's zeroth-order term (Neuberger, *Sobolev Gradients
and Differential Equations*, 1997) and the slow transverse mode of a bump is
scaled from the first step; the pairs learn the rest. The stopping test
stays on the raw gradient. One iteration's linear algebra is a few matrix
products: the two-loop recursion reads each start's inner products of its
pairs, and the preconditioner is a dense N x N matrix, O(N^2) in memory and
time, which at the N the experiments use (at most 256) is faster than the
FFT.

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
    edges,
    reparametrize_rows,
    require_nontrivial,
)
from .metrics import FinslerMetric, comparison_constant, translation_curvature

_STEP_SHRINK = 0.5
_ARMIJO = 1e-4
_FLOOR_ULPS = 16.0  # the approximate Wolfe test's allowed rise, in units of eps |a|
_WOLFE_DELTA = 0.1
_WOLFE_SIGMA = 0.9
_MEMORY = 8  # (s, y) pairs kept per start
_POLISH_STEPS = 6
_LENGTH_TOL_REL = 1e-3
_JITTER = 0.05
_PRECOND_FLOOR = 1e-3  # least Sobolev shift c, which keeps P invertible where h = 0


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


def _precond_inverse(n: int, kappa: float, shift: float) -> np.ndarray:
    """P^-1 as a dense symmetric n x n circulant, P = kappa * (c*I + 2n*L), L the
    loop Laplacian, c = shift > 0.

    P is the Hessian of the flat action plus kappa c along every mode; kappa
    absorbs how far the metric's curvature can exceed the flat one, and
    kappa c stands for the curvature the metric gives the translation modes
    (the Laplacian kernel), which `_descend` bounds from the coefficients.
    P's FFT symbol is kappa * (c + 2n(2 - 2 cos(2 pi k / n))); P^-1's first
    column is the inverse FFT of its reciprocal, and entry (i, j) reads that
    column at the cyclic distance of i and j, so the matrix is symmetric bit
    for bit. It holds n^2 floats, and one application costs O(n^2) per
    coordinate against the FFT's O(n log n). Measured on a 2-core machine at
    50 starts and one BLAS thread, the product takes 25 us against the FFT's
    75 us at n = 64 and 0.44 ms against 0.54 ms at n = 256, but 1.9 ms
    against 0.67 ms at n = 512.
    """
    k = np.arange(n)
    lam = 2.0 * n * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n))
    column = np.fft.ifft(1.0 / (kappa * (lam + shift))).real
    gap = np.abs(k[:, None] - k)
    return column[np.minimum(gap, n - gap)]


def _precondition(g: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """P^-1 g for g of shape (S, N, 2): one matmul of the dense (N, N) P^-1 with each
    start's (N, 2) block, so each start's bits do not depend on the others."""
    return np.matmul(pinv, g)


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


def _pair_rows(mem: np.ndarray) -> np.ndarray:
    """A pair memory (S, m, N, 2) as its (S, m, 2N) view: each stored vector one row."""
    return mem.reshape(mem.shape[:2] + (mem.shape[2] * mem.shape[3],))


def _scatter(a: np.ndarray, live: np.ndarray, n_starts: int) -> np.ndarray:
    """The rows a of the starts `live`, placed in zeros for all n_starts starts."""
    out = np.zeros((n_starts,) + a.shape[1:])
    out[live] = a
    return out


def _lbfgs_direction(g, live, mem_s, mem_y, rho, gamma, pinv) -> np.ndarray:
    """H g for the starts `live`, H their L-BFGS inverse Hessian with H0 = gamma * P^-1.

    This is the two-loop recursion (Nocedal & Wright, Algorithm 7.4), read
    from inner products as in vector-free L-BFGS (Chen, Wang and Zhou, NIPS
    2014). mem_s and mem_y, shape (S, m, N, 2), hold each start's (s, y)
    pairs newest first; rho = 1 / s.y, shape (S, m), is 0 in a slot holding
    no pair, which then changes nothing. With q = g - sum_j alpha_j y_j and
    r = gamma P^-1 q, the recursions need only s_k.y_j, s_k.g and y_k.r:

        alpha_k = rho_k (s_k.g - sum_{j<k} alpha_j s_k.y_j),
        beta_k = rho_k (y_k.r + sum_{j>k} (alpha_j - beta_j) y_k.s_j),
        H g = r + sum_k (alpha_k - beta_k) s_k.

    The products are batched matmuls on views of the whole memory, whose live
    rows are read afterwards: gathering mem_s[live] would copy it. They run
    over all m slots, not only the filled ones, because a BLAS sum groups its
    terms by their count: a start whose batch held more pairs than it does
    would not get the bits it gets alone.
    """
    n_starts, m = rho.shape
    s, y = _pair_rows(mem_s), _pair_rows(mem_y)
    rho = rho[live]
    sy = np.matmul(s, y.transpose(0, 2, 1))[live]  # sy[:, k, j] = s_k . y_j
    sg = np.matmul(s, _scatter(_rows(g), live, n_starts)[:, :, None])[live, :, 0]
    # the sums over j enter sg[:, k] and yr[:, k] one term per step, in the
    # order the recursion on vectors subtracts and adds its pairs
    alpha = np.empty((len(live), m))
    for k in range(m):
        alpha[:, k] = rho[:, k] * sg[:, k]
        sg -= alpha[:, k, None] * sy[:, :, k]
    q = g - np.matmul(_scatter(alpha, live, n_starts)[:, None], y)[live, 0].reshape(g.shape)
    r = gamma[live, None, None] * _precondition(q, pinv)
    yr = np.matmul(y, _scatter(_rows(r), live, n_starts)[:, :, None])[live, :, 0]
    coef = np.empty_like(alpha)  # alpha - beta
    for k in reversed(range(m)):
        coef[:, k] = alpha[:, k] - rho[:, k] * yr[:, k]
        yr += coef[:, k, None] * sy[:, k]
    return r + np.matmul(_scatter(coef, live, n_starts)[:, None], s)[live, 0].reshape(g.shape)


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
    the initial inverse Hessian gamma * P^-1, P = kappa (c I + 2N L) the
    Sobolev preconditioner and gamma = s.y / y.P^-1 y of the newest pair (1
    with no pair). kappa = c_F^2 (`comparison_constant`), and the shift
    c = max(|winding|^2 h / (N kappa), `_PRECOND_FLOOR`) with
    h = `translation_curvature(metric)`, a certified bound on |hess_x F^2| at
    unit speed. F^2 is 2-homogeneous in v, so along a rigid translation of a
    straight loop in the class (every vertex moved by one unit vector) the
    action N sum F^2(m_i, winding / N) curves by at most |winding|^2 h / N
    per unit squared displacement, which is kappa c: exact on a bump's
    trough, while the floor keeps P invertible where h = 0 (a flat metric, a
    constant drift). Both are computed once per call, and P^-1 is built as a
    dense N x N matrix (`_precond_inverse`), which takes O(N^2) memory and
    makes each application an O(N^2) product. A step
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
    costs about one metric kernel call. Memory is O(S * N * `_MEMORY` + N^2). The
    final iterates are reparametrized as one batch (`reparametrize_rows`),
    which also gives each start's reported length and action.
    """
    x = np.array(x0, dtype=float)
    _require_finite(x)
    n_starts, n = x.shape[:2]
    kappa = comparison_constant(metric) ** 2
    winding_sq = float(winding[0] ** 2 + winding[1] ** 2)
    shift = max(winding_sq * translation_curvature(metric) / (n * kappa), _PRECOND_FLOOR)
    pinv = _precond_inverse(n, kappa, shift)
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
        d = _lbfgs_direction(g, live, mem_s, mem_y, rho, gamma, pinv)
        slope = _dot(g, d)
        plain = rho[live, 0] == 0.0
        bad = slope <= 0.0
        if bad.any():
            d[bad] = _precondition(g[bad], pinv)
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
                         mem_s, mem_y, rho, gamma, pinv)
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

    _polish(metric, winding, config, np.flatnonzero(converged), x, a, grad, pinv, histories)
    pts, _, (total, a_out) = reparametrize_rows(metric, x, winding, n)
    results = []
    for i, out in enumerate(pts):
        stop = "gradient" if converged[i] else "stall" if stalled[i] else "max_iters"
        results.append(SolveResult(loop=DiscreteLoop(out, winding), converged=bool(converged[i]),
                                   iterations=int(iterations[i]), action=float(a_out[i]),
                                   length=float(total[i]), stop=stop, action_history=histories[i]))
    return results


def _store_pairs(idx, s, y, mem_s, mem_y, rho, gamma, pinv) -> None:
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
    gamma[idx] = sy / _dot(y, _precondition(y, pinv))


def _polish(metric, winding, config, idx, x, a, grad, pinv, histories) -> None:
    """Up to `_POLISH_STEPS` unit plain steps from the converged starts idx, in place.

    A step is kept when `_accepted` holds and the new gradient's sup-norm is
    still at most grad_tol; a start's first rejected step ends its polish.
    """
    for _ in range(_POLISH_STEPS):
        if not len(idx):
            break
        g = grad[idx]
        d = _precondition(g, pinv)
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


_DISTANCE_BLOCK = 4  # fallback pairs compared at once: (block, N, N) arrays keep memory small
_PAIR_CHUNK = 32  # pairs bounded at once, both directions as (2 chunk, N) rows
_TOP = 4  # vertices per direction whose exact rows must reach every other vertex's bound
_PIVOTS = 4  # loops whose exact distance rows bound every other pair
_BOUND_SLACK = 1e-12  # widens the pivot bounds past rounding, see `_spread_links`


def _gaps_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared torus gaps of points a (..., 2) and b (..., 2) in [0, 1]^2, broadcast;
    each coordinate gap then lies in [0, 1] and needs one fold, min(g, 1 - g)."""
    dx, dy = a[..., 0] - b[..., 0], a[..., 1] - b[..., 1]
    for d in (dx, dy):
        np.abs(d, out=d)
        np.minimum(d, 1.0 - d, out=d)
        d *= d
    dx += dy
    return dx


def _pair_distances(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """`loop_distance` of the loops i[k] and j[k], for reduced vertex sets pts (m, N, 2).

    Each directed term h2(A -> B) = max_u min_v gap2(a_u, b_v) comes from a few
    rows of the N x N table, as in exact Hausdorff algorithms (Taha and Hanbury,
    IEEE TPAMI 37, 2015). Vertex 0's row gives the shift s to B's nearest vertex;
    each vertex u gets the bound ub_u = gap2(a_u, b_(u+s) mod N) >= its row's
    minimum; the `_TOP` vertices with the largest bounds get exact rows. If the
    largest of their minima reaches every other bound, it is the term; if not,
    the pair falls back to the full table. Each entry read has the table's
    bits, min and max are exact, and the root is taken after the max of both
    directions, so each value equals `loop_distance` exactly. A pair that does
    not fall back costs 12N gap evaluations instead of N^2.
    """
    out = np.empty(len(i))
    fallback = np.zeros(len(i), dtype=bool)
    n = pts.shape[1]
    for c in range(0, len(i), _PAIR_CHUNK):
        ic, jc = i[c:c + _PAIR_CHUNK], j[c:c + _PAIR_CHUNK]
        k = len(ic)
        a, b = pts[np.concatenate([ic, jc])], pts[np.concatenate([jc, ic])]
        rows = np.arange(2 * k)[:, None]
        shift = np.argmin(_gaps_sq(a[:, :1], b), axis=1)
        ub = _gaps_sq(a, b[rows, (np.arange(n) + shift[:, None]) % n])
        top = np.empty((2 * k, _TOP), dtype=int)
        for t in range(_TOP):  # not np.argpartition, whose first call raises peak memory
            top[:, t] = np.argmax(ub, axis=1)
            ub[rows[:, 0], top[:, t]] = -1.0
        h2 = _gaps_sq(a[rows, top][:, :, None], b[:, None]).min(axis=2).max(axis=1)
        out[c:c + k] = np.sqrt(np.maximum(h2[:k], h2[k:]))
        fallback[c:c + k] = (h2 < ub.max(axis=1)).reshape(2, k).any(axis=0)
    f = np.flatnonzero(fallback)
    out[f] = _table_distances(pts, i[f], j[f])
    return out


def _table_distances(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """`_pair_distances` from the full N x N tables, in blocks of `_DISTANCE_BLOCK` pairs."""
    out = np.empty(len(i))
    for s in range(0, len(i), _DISTANCE_BLOCK):
        a, b = pts[i[s:s + _DISTANCE_BLOCK]], pts[j[s:s + _DISTANCE_BLOCK]]
        sq = _gaps_sq(a[:, :, None], b[:, None])
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

    eps covers rounding. Let u = 2^-53, the unit roundoff. `_pair_distances`
    returns the full table's value bit for bit, whichever rows it reads, so
    the table's rounding is all there is. Coordinates lie in [0, 1], so each
    coordinate gap of the table is within u of the exact torus gap, and
    distances are at most sqrt(0.5), so the square, sum and root add at most
    2u more; min and max add nothing, as the root is monotone. Each computed
    distance is thus within 3u of the exact Hausdorff distance of the reduced
    vertex sets, which obeys the triangle inequality, and the bounds' own
    difference or sum and the shift by eps add at most 3u. So lb < d_ij < ub holds for the computed d_ij, with eps - 12u to
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
    # the lift `DiscreteLoop.straight` builds, without a loop object per start
    line = np.arange(config.n_vertices)[:, None] / config.n_vertices * np.asarray(winding, float)
    x0 = np.empty((config.num_starts,) + shape)
    for k in range(config.num_starts):
        offset = ((k + rng.random()) / config.num_starts) * normal \
            + rng.uniform(-_JITTER, _JITTER, size=2)
        x0[k] = offset + line + rng.uniform(-_JITTER, _JITTER, size=shape)
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
