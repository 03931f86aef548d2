"""Discrete free loops on T^2 with winding class, length, action and measures.

Loops are stored as lifts to R^2: N vertices plus an integer winding (p, q),
with the implicit closing vertex x_N = x_0 + (p, q). Homotopy on the torus is
exactly lift-endpoint-preserving deformation, so the winding never changes
during a descent.

Quadrature is the midpoint rule with coefficients frozen per segment, which
keeps length and action consistent: the discrete action minus squared length
is exactly the variance of the per-segment speeds (discrete Cauchy-Schwarz).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLoopError,
    InputDomainError,
    MalformedLoopError,
    SpeedCapError,
    TrivialClassError,
)
from .metrics import FinslerMetric

MIN_VERTICES = 8
_CLOSURE_TOL = 1e-9
_REPARAM_REL_TOL = 1e-6  # target gap of a reparametrization, relative to its action
_REPARAM_MAX_ITERS = 300
_SEARCH_TRIALS = 40  # halvings of a reparametrization step before its search fails
_ROUND_TRIALS = 64  # trials of a reparametrization round shared by its searches, at least
# sampling phases of the reparametrization's passes, in order of trial
_PHASES = (0.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875)
_STEP, _SEARCH, _START, _DONE = range(4)  # a reparametrized row's state between rounds


def edges(x: np.ndarray, winding: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Segment midpoints and deltas x_{i+1} - x_i of lifts x, shape (..., N, 2).

    Each lift closes at x_N = x_0 + winding: one (p, q), or one per lift, shape (..., 2).
    """
    nxt = np.concatenate([x[..., 1:, :], x[..., :1, :] + np.asarray(winding, float)[..., None, :]],
                         axis=-2)
    mids = x + nxt
    mids *= 0.5
    nxt -= x
    return mids, nxt


class DiscreteLoop:
    """An N-vertex polygonal loop, lifted to R^2, of winding class (p, q)."""

    __slots__ = ("vertices", "winding")

    def __init__(self, vertices, winding: tuple[int, int]):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise MalformedLoopError("vertices must have shape (N, 2)")
        if len(v) < MIN_VERTICES:
            raise MalformedLoopError(f"need at least {MIN_VERTICES} vertices, got {len(v)}")
        if not np.all(np.isfinite(v)):
            raise MalformedLoopError("vertices must be finite")
        v.setflags(write=False)
        self.vertices = v
        self.winding = (int(winding[0]), int(winding[1]))

    @classmethod
    def from_open_lift(cls, points) -> "DiscreteLoop":
        """Build from N+1 lift points; the winding is the rounded endpoint gap."""
        p = np.asarray(points, dtype=float)
        gap = p[-1] - p[0]
        w = np.rint(gap)
        if np.abs(gap - w).max() > _CLOSURE_TOL:
            raise MalformedLoopError(f"lift does not close to an integer translation: {gap}")
        return cls(p[:-1], (int(w[0]), int(w[1])))

    @classmethod
    def straight(cls, winding: tuple[int, int], n: int, offset=(0.0, 0.0)) -> "DiscreteLoop":
        """The straight lift of class (p, q), translated by `offset`."""
        t = np.arange(n)[:, None] / n
        verts = np.asarray(offset, float) + t * np.asarray(winding, float)
        return cls(verts, winding)

    # -- geometry -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def closed_lift(self) -> np.ndarray:
        """Vertices including the closing point x_N = x_0 + (p, q), shape (N+1, 2)."""
        return np.vstack([self.vertices, self.vertices[0] + np.asarray(self.winding, float)])

    @property
    def deltas(self) -> np.ndarray:
        return edges(self.vertices, self.winding)[1]

    @property
    def midpoints(self) -> np.ndarray:
        return edges(self.vertices, self.winding)[0]

    @property
    def velocities(self) -> np.ndarray:
        """Piecewise-constant velocities N * (x_{i+1} - x_i)."""
        return self.n_vertices * self.deltas

    def reversed(self) -> "DiscreteLoop":
        """Same image traversed backwards; winding negates."""
        verts = self.closed_lift[::-1][:-1]
        return DiscreteLoop(verts, (-self.winding[0], -self.winding[1]))

    def cyclic_shift(self, k: int) -> "DiscreteLoop":
        """Re-index vertices starting at k; the same loop up to parameter shift."""
        k = k % self.n_vertices
        verts = np.vstack([self.vertices[k:], self.vertices[:k] + np.asarray(self.winding, float)])
        return DiscreteLoop(verts, self.winding)

    def __repr__(self):
        return f"DiscreteLoop(n={self.n_vertices}, winding={self.winding})"


def require_nontrivial(winding: tuple[int, int]) -> tuple[int, int]:
    if winding[0] == 0 and winding[1] == 0:
        raise TrivialClassError("the trivial class (0, 0) is excluded")
    return winding


def segment_lengths(metric: FinslerMetric, loop: DiscreteLoop) -> np.ndarray:
    """Per-segment F-lengths F(m_i, dx_i) with midpoint-frozen coefficients."""
    return metric.speed(*edges(loop.vertices, loop.winding))


def _row_sums(a: np.ndarray, n) -> np.ndarray:
    """In-order sums (a_0 + a_1) + a_2 + ... of the first n entries of the rows of a.

    One count n for every row of a, shape (..., M), or one per row, a of
    shape (B, M) padded past each n[i]. One cumulative sum read at each
    row's last entry: a row's bits depend on neither its padding nor its
    batch, and equal the last knot of `_inversion_direction`'s cumsum.
    """
    s = np.cumsum(a, axis=-1)
    n = np.asarray(n)
    if n.ndim == 0:
        return s[..., n - 1]
    return s[np.arange(len(a)), n - 1]


def _length_action(ell: np.ndarray, n) -> tuple:
    """Length sum(ell) and action N * sum(ell^2) of loops with N = n segment lengths ell.

    ell has shape (..., n), or holds padded rows, shape (B, M), row i the
    n[i] lengths of one loop, then padding. Both sums add in segment order
    (`_row_sums`).
    This is the one formula for both: the action of the period-1
    parametrization, (1/N) sum F^2(m_i, N dx_i), is N sum F^2(m_i, dx_i) by
    homogeneity, so one evaluation of the segment lengths gives both.
    """
    return _row_sums(ell, n), _row_sums(ell ** 2, n) * n


def length(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """Discrete F-length of the polygonal loop."""
    return float(_length_action(segment_lengths(metric, loop), loop.n_vertices)[0])


def action(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """Discrete action N sum F^2(m_i, dx_i) of the period-1 parametrization."""
    return float(_length_action(segment_lengths(metric, loop), loop.n_vertices)[1])


def cs_gap(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """action - length^2; nonnegative, zero iff per-segment F-speeds are equal.

    length^2 is the correctly rounded total * total, as an array's ** 2 is
    (a numpy scalar's ** 2 calls C pow, which can be an ulp off).
    """
    total, a = _length_action(segment_lengths(metric, loop), loop.n_vertices)
    return float(a - total * total)


def _pad_closing(x: np.ndarray, winding: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Set row i's vertices from n[i] on to x_0 + winding[i], in place, in lifts x (B, M, 2).

    So padded, a row's segments past its closing one have zero deltas, where F = 0.
    """
    pad = np.arange(x.shape[1]) >= n[:, None]
    np.copyto(x, x[:, :1] + winding[:, None], where=pad[..., None])
    return x


def _stack(loops) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loops' vertices as rows, zero past each N, their windings (B, 2) and their Ns."""
    n = np.array([loop.n_vertices for loop in loops])
    winding = np.array([loop.winding for loop in loops], dtype=float)
    x = np.zeros((len(loops), n.max(), 2))
    for row, loop in zip(x, loops):
        row[:loop.n_vertices] = loop.vertices
    return x, winding, n


def _padded_speeds(metric: FinslerMetric, chords, n: np.ndarray) -> np.ndarray:
    """F on the first n[i] of row i's padded chords, 0 past them: one `speed` call on those chords."""
    mids, deltas = chords
    valid = np.arange(mids.shape[1]) < n[:, None]
    ell = np.zeros(valid.shape)
    ell[valid] = metric.speed(mids[valid], deltas[valid])
    return ell


def _segment_index(u: np.ndarray, n) -> np.ndarray:
    """floor(u) clamped to the segments 0..n-1 (np.clip costs more than the pair)."""
    return np.minimum(np.maximum(np.floor(u).astype(int), 0), n - 1)


def _point_on_polygon(closed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate polygons closed, shape (..., K + 1, 2), at parameters u in [0, K), shape (..., N).

    Vertex i sits at u = i. A gather and a lerp on segment floor(u), bitwise
    `np.interp` on the knots 0..K, which returns a knot's own vertex.
    """
    knots = closed.shape[-2]
    flat = closed.reshape(-1, 2)
    j = _segment_index(u, knots - 1)
    frac = (u - j)[..., None]
    j += np.arange(0, len(flat), knots).reshape(closed.shape[:-2] + (1,))  # rows of flat
    lo = flat[j]
    j += 1
    out = flat[j]
    out -= lo
    out *= frac
    out += lo  # lo + frac * (hi - lo)
    np.copyto(out, lo, where=frac == 0.0)
    return out


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray, last: np.ndarray) -> np.ndarray:
    """np.interp(x[i], xp[i, :last[i] + 1], fp[i, :last[i] + 1]) for each row i, bit for bit.

    Each row's knots xp must be nondecreasing, with x >= xp[:, :1]. A value
    takes the bracket of the largest knot j with xp[j] <= x, found by
    bisection; on knot j, or past the last knot, it is fp[j], and otherwise
    numpy's slope formula. numpy's retry of a nan result cannot fire here:
    xp[j] < x < xp[j + 1] with finite values gives no nan.
    """
    rows, width = xp.shape
    offset = (np.arange(rows) * width)[:, None]
    flat_x, flat_y = xp.ravel(), fp.ravel()
    lo = np.zeros(x.shape, dtype=int)
    hi = lo + last[:, None] + 1
    for _ in range(width.bit_length()):
        mid = (lo + hi) >> 1
        below = flat_x[offset + mid] <= x
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
    k = offset + lo
    out = flat_y[k]
    inner = (lo < last[:, None]) & (flat_x[k] != x)
    k, x = k[inner], x[inner]
    out[inner] = (flat_y[k + 1] - flat_y[k]) / (flat_x[k + 1] - flat_x[k]) * (x - flat_x[k]) + flat_y[k]
    return out


def _inversion_direction(u, ell, total, n) -> np.ndarray:
    """Per row, the step that inverts the cumulative F-length at equal targets.

    The per-segment speed profile is held frozen. Padding steps by 0.
    """
    rows, width = u.shape
    s = np.concatenate([np.zeros((rows, 1)), np.cumsum(ell, axis=-1)], axis=1)
    fp = np.concatenate([u, u[:, :1]], axis=1)
    fp[np.arange(rows), n] = u[:, 0] + n  # the closing knot u_0 + N
    d = _interp_rows(np.arange(width) * total[:, None] / n[:, None], s, fp, n) - u
    return np.where(np.arange(width) < n[:, None], d, 0.0)


def _chords(closed, winding, n, u) -> tuple[np.ndarray, np.ndarray]:
    """Segment midpoints and deltas of the chains closed (B, M + 1, 2) sampled at u (B, M), padded."""
    return edges(_pad_closing(_point_on_polygon(closed, u), winding, n), winding)


def _tangent_at(closed: np.ndarray, u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The chain's delta on the segment of each parameter u, shape (B, M, 2)."""
    rows = np.arange(len(u))[:, None]
    j = _segment_index(u, n[:, None])
    return closed[rows, j + 1] - closed[rows, j]


def _newton_direction(metric, closed, winding, u, ell, n) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the Newton step on the speed differences r_j = ell_{j+1} - ell_j, and whether it is finite.

    The Jacobian in (u_1, ..., u_{n-1}) is tridiagonal; u_0 stays pinned at
    the pass's phase. The systems of rows of equal n are solved as one
    `np.linalg.solve` stack (`_solve_rows`); a singular one gives no step.
    """
    _, gx, gv = metric.kernel(*_chords(closed, winding, n, u))
    inv = 0.5 / np.maximum(ell, 1e-300)
    fx, fv = gx * inv[..., None], gv * inv[..., None]
    u_hi = np.concatenate([u[:, 1:], u[:, :1]], axis=1)
    u_hi[np.arange(len(u)), n - 1] = n
    d_own = ((0.5 * fx - fv) * _tangent_at(closed, u, n)).sum(axis=-1)   # d ell_j / d u_j
    d_next = ((0.5 * fx + fv) * _tangent_at(closed, u_hi, n)).sum(axis=-1)  # d ell_j / d u_{j+1}
    d = np.zeros_like(u)
    for size in set(n.tolist()):
        g = np.flatnonzero(n == size)
        m = size - 1
        idx = np.arange(m)
        jac = np.zeros((len(g), m, m))
        jac[:, idx, idx] = d_own[g, 1:size] - d_next[g, :m]
        jac[:, idx[1:], idx[1:] - 1] = -d_own[g, 1:m]
        jac[:, idx[:-1], idx[:-1] + 1] = d_next[g, 1:m]
        d[g, 1:size] = _solve_rows(jac, -(ell[g, 1:size] - ell[g, :m]))
    return d, np.isfinite(d).all(axis=-1)


def _solve_rows(jac: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each system jac[i] x = b[i] solved as `np.linalg.solve` solves it alone; nan where singular."""
    try:
        return np.linalg.solve(jac, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_solve_rows(j, r) for j, r in zip(jac[:, None], b[:, None])])


def _admissible(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Rows whose first n parameters increase strictly within [0, n)."""
    rising = (np.diff(u, axis=-1) > 0.0) | (np.arange(1, u.shape[1]) >= n[:, None])
    return (u[:, 0] >= 0.0) & (u[np.arange(len(u)), n - 1] < n) & rising.all(axis=-1)


def _converged(gap: np.ndarray, total: np.ndarray) -> np.ndarray:
    return gap <= _REPARAM_REL_TOL * (gap + total ** 2)


def reparametrize_constant_speed(metric: FinslerMetric, loop: DiscreteLoop) -> DiscreteLoop:
    """Resample the loop at equal increments of F-arc-length: `reparametrize_batch` of one loop."""
    return reparametrize_batch(metric, [loop])[0]


def reparametrize_batch(metric: FinslerMetric, loops) -> list[DiscreteLoop]:
    """Resample each loop at equal increments of F-arc-length: `reparametrize_rows` of the
    loops stacked as padded rows (`_stack`), each returned row built as a DiscreteLoop."""
    loops = list(loops)
    if not loops:
        return []
    pts = reparametrize_rows(metric, *_stack(loops))[0]
    return [DiscreteLoop(row[:loop.n_vertices], loop.winding) for row, loop in zip(pts, loops)]


def reparametrize_rows(metric: FinslerMetric, x: np.ndarray, winding, n):
    """Resample lifts at equal increments of F-arc-length; each row's (length, action) before and after.

    x holds B lifts as rows, shape (B, M, 2): row i's first n[i] entries are
    its vertices, and what lies past them is ignored. winding is one (p, q)
    or one per row, n one count or one per row. Returns the resampled
    points, shape (B, M, 2), row i's first n[i] its vertices; the inputs'
    (length, action), each of shape (B,), from the first trial; and the
    results' (length, action), recorded with the points they belong to, with
    the bits `_length_action` gives the resampled loops.

    Vertices stay on the original polygon (the parameters u_j live on the
    input chain). The steps drive the per-segment speeds, measured with the
    same midpoint quadrature that cs_gap uses, to a common value: until the
    gap is at most `_REPARAM_REL_TOL` of the action, in at most
    `_REPARAM_MAX_ITERS` steps from each sampling phase. Each step is a
    halved-until-better move. A pass steps along the cumulative-length
    inversion (`np.interp`) until an inversion step must be shortened or
    finds no better gap; from then on it takes Newton steps on the speed
    differences. A Newton step that finds no better gap, or a singular Newton
    system, ends the pass, and a restart at a shifted sampling phase takes
    over. A stall can pin a vertex on a kink of the chain; the shifted phase
    moves the solution off the kink. The eighth phases run only once the
    quarter phases have all stalled.

    The rows, of any N and winding, run as one array program, padded past
    each N by `_pad_closing`, each with its own phase, Newton flag, step
    count and line-search step; a round evaluates every row's pending trials
    (a failing search's next few at once) in one `speed` call on the
    stacked chords, and finished rows leave the live set. Each row takes
    exactly the steps it takes alone, to the same bits. The first trial,
    phase 0, is the input rows' own evaluation. A row of zero or non-finite
    length raises, naming its index, before any step.
    """
    count, width = x.shape[:2]
    winding = np.broadcast_to(np.asarray(winding, float), (count, 2))
    n = np.broadcast_to(n, (count,))
    valid = np.arange(width) < n[:, None]
    closed = np.empty((count, width + 1, 2))
    closed[:, :width] = x
    _pad_closing(closed, winding, n)
    ell = _padded_speeds(metric, edges(closed[:, :width], winding), n)
    total, a = _length_action(ell, n)
    bad = np.flatnonzero(~(np.isfinite(total) & (total > 0.0)))
    if len(bad):
        if not np.isfinite(total[bad[0]]):
            # nan or inf, as when chords' squares overflow: no trial's gap can beat it
            raise MalformedLoopError(f"loop {bad[0]}: length is not finite: vertices must be "
                                     "finite and their chords must not overflow")
        raise DegenerateLoopError(f"loop {bad[0]}: cannot reparametrize a zero-length loop")
    gap = a - total ** 2
    before = total.copy(), a.copy()
    u = np.where(valid, np.arange(width, dtype=float), 0.0)
    d = np.zeros_like(u)
    best_u, best_gap = u.copy(), np.full(count, np.inf)
    best_total, best_a = total.copy(), a.copy()
    step, tries = np.ones(count), np.zeros(count, dtype=int)
    newton = np.zeros(count, dtype=bool)
    iters, phase = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    mode = np.full(count, _STEP)

    def end_pass(idx):
        if not len(idx):
            return
        better = idx[gap[idx] < best_gap[idx]]
        best_u[better], best_gap[better] = u[better], gap[better]
        best_total[better], best_a[better] = total[better], a[better]
        done = _converged(gap[idx], total[idx]) | (phase[idx] == len(_PHASES) - 1)
        mode[idx[done]] = _DONE
        idx = idx[~done]
        phase[idx] += 1
        mode[idx] = _START

    def search_failed(idx):
        # a Newton search ends the pass; an inversion search hands it to Newton
        end_pass(idx[newton[idx]])
        idx = idx[~newton[idx]]
        newton[idx], mode[idx] = True, _STEP
        iters[idx] += 1

    def start_searches(idx):
        # a converged pass, or one out of steps, ends; the others take a direction
        over = _converged(gap[idx], total[idx]) | (iters[idx] == _REPARAM_MAX_ITERS)
        end_pass(idx[over])
        idx = idx[~over]
        inv, nwt = idx[~newton[idx]], idx[newton[idx]]
        if len(inv):
            d[inv] = _inversion_direction(u[inv], ell[inv], total[inv], n[inv])
        if len(nwt):
            d[nwt], solved = _newton_direction(metric, closed[nwt], winding[nwt], u[nwt],
                                               ell[nwt], n[nwt])
            end_pass(nwt[~solved])  # singular: a restart at another phase takes over
            nwt = nwt[solved]
        idx = np.concatenate([inv, nwt])
        step[idx], tries[idx], mode[idx] = 1.0, 0, _SEARCH

    def search(idx, starts):
        # each search's next trials, its step halved 0, 1, ... times: as many
        # as it has failed so far, so a failing search takes log2 rounds, and
        # at least a share of `_ROUND_TRIALS`, which a round costs anyway; an
        # inadmissible trial fails unevaluated
        share = max(_ROUND_TRIALS // max(len(idx), 1), 1)
        span = np.minimum(np.maximum(tries[idx], share), _SEARCH_TRIALS - tries[idx])
        rows = np.repeat(idx, span)
        t = np.ldexp(step[rows], np.repeat(np.cumsum(span) - span, span) - np.arange(len(rows)))
        u_try = u[rows] + t[:, None] * d[rows]
        ok = _admissible(u_try, n[rows])
        rows, t, u_try = rows[ok], t[ok], u_try[ok]
        # one evaluation of every trial and of every new pass's start
        ev = np.concatenate([starts, rows])
        if len(ev):
            shifted = np.arange(width) + np.take(_PHASES, phase[starts])[:, None]
            u_ev = np.concatenate([np.where(valid[starts], shifted, 0.0), u_try])
            ell_t = _padded_speeds(metric, _chords(closed[ev], winding[ev], n[ev], u_ev), n[ev])
            total_t, a_t = _length_action(ell_t, n[ev])
            gap_t = a_t - total_t ** 2
            # a search takes its first trial with a better gap
            better = np.flatnonzero(gap_t[len(starts):] < gap[rows])
            first = better[np.diff(rows[better], prepend=-1) != 0]
            newton[rows[first]] |= t[first] < 1.0  # a shortened inversion step hands over to Newton
            iters[rows[first]] += 1
            newton[starts], iters[starts] = False, 0
            src = np.concatenate([np.arange(len(starts)), len(starts) + first])
            kept = ev[src]
            u[kept], ell[kept] = u_ev[src], ell_t[src]
            total[kept], a[kept], gap[kept] = total_t[src], a_t[src], gap_t[src]
            mode[kept] = _STEP
        failed = mode[idx] == _SEARCH
        idx, span = idx[failed], span[failed]
        tries[idx] += span
        step[idx] = np.ldexp(step[idx], -span)
        search_failed(idx[tries[idx] == _SEARCH_TRIALS])

    while not np.all(mode == _DONE):
        start_searches(np.flatnonzero(mode == _STEP))
        search(np.flatnonzero(mode == _SEARCH), np.flatnonzero(mode == _START))
    return _point_on_polygon(closed, best_u), before, (best_total, best_a)


@dataclass(frozen=True)
class LoopMeasure:
    """Uniform atoms (x_i, v_i) with weight 1/N on the speed-capped tangent bundle."""

    points: np.ndarray     # (N, 2), reduced mod 1
    velocities: np.ndarray  # (N, 2)
    speed_cap: float

    def __post_init__(self):
        # a point outside [0, 1] would be binned into a wrong grid cell; nan fails both tests
        pts = np.asarray(self.points, float)
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise InputDomainError("points must be finite and lie in [0, 1]")

    @property
    def weight(self) -> float:
        return 1.0 / len(self.points)

    def integrate(self, fn) -> float:
        """Mean of fn(points, velocities); fn maps (N,2),(N,2) -> (N,)."""
        vals = np.asarray(fn(self.points, self.velocities), float)
        return float(vals.sum() * self.weight)


def loop_measure(metric: FinslerMetric, loop: DiscreteLoop, b: float) -> LoopMeasure:
    """The discrete occupation measure of the loop, capped at reference speed b."""
    if not np.isfinite(b) or b <= 0:
        raise InputDomainError("speed cap b must be positive and finite")
    v = loop.velocities
    top = float(np.linalg.norm(v, axis=1).max())
    if top > b:
        raise SpeedCapError(f"loop speed {top:g} exceeds the cap b = {b:g}")
    pts = np.mod(loop.midpoints, 1.0)
    return LoopMeasure(points=pts, velocities=v, speed_cap=float(b))
