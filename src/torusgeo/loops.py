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

import csv
import io
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


def _close(vertices: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The N+1 lift points: the vertices and the closing point x_0 + shift."""
    return np.vstack([vertices, vertices[0] + shift])


class DiscreteLoop:
    """An N-vertex polygonal loop, lifted to R^2, of winding class (p, q)."""

    __slots__ = ("vertices", "winding", "_closed")

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
        self._closed = None

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
        """Vertices including the closing point x_N = x_0 + (p, q), shape (N+1, 2).

        Built on first use and cached read-only, so midpoints, deltas and
        velocities share one array.
        """
        if self._closed is None:
            c = _close(self.vertices, np.asarray(self.winding, float))
            c.setflags(write=False)
            self._closed = c
        return self._closed

    @property
    def deltas(self) -> np.ndarray:
        c = self.closed_lift
        return c[1:] - c[:-1]

    @property
    def midpoints(self) -> np.ndarray:
        c = self.closed_lift
        return 0.5 * (c[:-1] + c[1:])

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

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow([self.n_vertices, self.winding[0], self.winding[1]])
        for x, y in self.vertices:
            w.writerow([repr(float(x)), repr(float(y))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DiscreteLoop":
        rows = list(csv.reader(io.StringIO(text)))
        n, p, q = (int(v) for v in rows[0])
        verts = np.array([[float(a), float(b)] for a, b in rows[1:1 + n]])
        return cls(verts, (p, q))

    def __repr__(self):
        return f"DiscreteLoop(n={self.n_vertices}, winding={self.winding})"


def require_nontrivial(winding: tuple[int, int]) -> tuple[int, int]:
    if winding[0] == 0 and winding[1] == 0:
        raise TrivialClassError("the trivial class (0, 0) is excluded")
    return winding


def segment_lengths(metric: FinslerMetric, loop: DiscreteLoop) -> np.ndarray:
    """Per-segment F-lengths F(m_i, dx_i) with midpoint-frozen coefficients."""
    return metric.speed(loop.midpoints, loop.deltas)


def length(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """Discrete F-length of the polygonal loop."""
    return float(segment_lengths(metric, loop).sum())


def action(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """Discrete action (1/N) sum F^2(m_i, N dx_i) of the period-1 parametrization."""
    n = loop.n_vertices
    s = metric.speed(loop.midpoints, loop.velocities)
    return float((s ** 2).sum() / n)


def cs_gap(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """action - length^2; nonnegative, zero iff per-segment F-speeds are equal."""
    return action(metric, loop) - length(metric, loop) ** 2


def _segment_index(u: np.ndarray, n: int) -> np.ndarray:
    """floor(u) clamped to the segments 0..n-1 (np.clip costs more than the pair)."""
    return np.minimum(np.maximum(np.floor(u).astype(int), 0), n - 1)


def _point_on_polygon(closed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate the polygon at parameters u in [0, N] (vertex i at u = i)."""
    n = len(closed) - 1
    j = _segment_index(u, n)
    frac = u - j
    return closed[j] + frac[:, None] * (closed[j + 1] - closed[j])


def reparametrize_constant_speed(metric: FinslerMetric, loop: DiscreteLoop,
                                 rel_tol: float = 1e-6, max_iters: int = 300) -> DiscreteLoop:
    """Resample the loop at equal increments of F-arc-length.

    Vertices stay on the original polygon (the parameters u_j live on the
    input chain); iterating the cumulative-length inversion drives the
    per-segment speeds, measured with the same midpoint quadrature that
    cs_gap uses, to a common value.

    Trials are evaluated on raw arrays with DiscreteLoop's own formulas for
    the closed lift, midpoints and deltas, so only the returned loop is built
    as a DiscreteLoop.
    """
    closed = loop.closed_lift
    n = loop.n_vertices
    loop_length = length(metric, loop)
    if not np.isfinite(loop_length):
        # nan or inf, as when chords' squares overflow: no trial's gap can beat it
        raise MalformedLoopError("loop length is not finite: vertices must be finite "
                                 "and their chords must not overflow")
    if loop_length <= 0.0:
        raise DegenerateLoopError("cannot reparametrize a zero-length loop")
    tangents = closed[1:] - closed[:-1]
    shift = np.asarray(loop.winding, float)

    def evaluate(u):
        verts = _point_on_polygon(closed, u)
        if not np.all(np.isfinite(verts)):
            raise MalformedLoopError("vertices must be finite")
        c = _close(verts, shift)
        mids, deltas = 0.5 * (c[:-1] + c[1:]), c[1:] - c[:-1]  # DiscreteLoop's formulas
        ell = metric.speed(mids, deltas)
        a = float((ell ** 2).sum()) * n
        total = float(ell.sum())
        return (mids, deltas), ell, total, a - total ** 2

    def inversion_direction(u, ell, total):
        # invert the cumulative F-length at equal targets, holding the
        # per-segment speed profile frozen
        s = np.concatenate([[0.0], np.cumsum(ell)])
        targets = np.arange(n) * total / n
        j = np.minimum(np.maximum(np.searchsorted(s, targets, side="right") - 1, 0), n - 1)
        seg = s[j + 1] - s[j]
        frac = np.where(seg > 0.0, (targets - s[j]) / np.where(seg > 0.0, seg, 1.0), 0.0)
        u_ext = np.concatenate([u, [u[0] + n]])
        return u_ext[j] + frac * (u_ext[j + 1] - u_ext[j]) - u

    def newton_direction(u, chords, ell):
        # speed differences r_j = ell_{j+1} - ell_j have a tridiagonal
        # Jacobian in (u_1, ..., u_{n-1}); u_0 stays pinned at 0
        gx, gv = metric.speed_sq_grads(*chords)
        inv = 0.5 / np.maximum(ell, 1e-300)
        fx, fv = gx * inv[:, None], gv * inv[:, None]
        t_lo = tangents[_segment_index(u, n)]
        u_hi = np.concatenate([u[1:], [float(n)]])
        t_hi = tangents[_segment_index(u_hi, n)]
        d_own = ((0.5 * fx - fv) * t_lo).sum(axis=1)   # d ell_j / d u_j
        d_next = ((0.5 * fx + fv) * t_hi).sum(axis=1)  # d ell_j / d u_{j+1}
        r = ell[1:] - ell[:-1]
        m = n - 1
        jac = np.zeros((m, m))
        idx = np.arange(m)
        jac[idx, idx] = d_own[1:] - d_next[:-1]
        jac[idx[1:], idx[1:] - 1] = -d_own[1:m]
        jac[idx[:-1], idx[:-1] + 1] = d_next[1:m]
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        return np.concatenate([[0.0], delta])

    def admissible(u):
        return u[0] >= 0.0 and u[-1] < n and np.all(np.diff(u) > 0.0)

    def chord_speed(a, b):
        return float(metric.speed((0.5 * (a + b))[None], (b - a)[None])[0])

    def repair_sweep(u):
        # equalize each vertex's two adjacent chord speeds by bisection on
        # its chain parameter; immune to the kinks at the chain knots where
        # the derivative-based steps can stall
        pts = _close(_point_on_polygon(closed, u), shift)
        u_out = u.copy()
        for j in range(1, n):
            lo, hi = u_out[j - 1], u[j + 1] if j + 1 < n else float(n)
            a, b = pts[j - 1], pts[j + 1]
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                x = _point_on_polygon(closed, np.array([mid]))[0]
                if chord_speed(x, b) - chord_speed(a, x) > 0.0:
                    lo = mid
                else:
                    hi = mid
            u_out[j] = 0.5 * (lo + hi)
            pts[j] = _point_on_polygon(closed, np.array([u_out[j]]))[0]
        return u_out

    def attempt(phase):
        u = np.arange(n, dtype=float) + phase
        chords, ell, total, gap = evaluate(u)
        stalled_inversions = 0
        sweeps_left = 4
        for _ in range(max_iters):
            if gap <= rel_tol * (gap + total ** 2):
                break
            if stalled_inversions < 2:
                d = inversion_direction(u, ell, total)
            else:
                d = newton_direction(u, chords, ell)
                if d is None:
                    d = inversion_direction(u, ell, total)
            t, improved = 1.0, False
            for _ in range(40):
                u_try = u + t * d
                if admissible(u_try):
                    chords_try, ell_try, total_try, gap_try = evaluate(u_try)
                    if gap_try < gap:
                        u, chords, ell, total, gap = u_try, chords_try, ell_try, total_try, gap_try
                        improved = True
                        break
                t *= 0.5
            if not improved:
                if stalled_inversions < 2:
                    stalled_inversions = 2
                    continue
                if sweeps_left == 0:
                    break
                sweeps_left -= 1
                u_try = repair_sweep(u)
                if not admissible(u_try):
                    break
                chords_try, ell_try, total_try, gap_try = evaluate(u_try)
                if gap_try >= gap:
                    break  # at numerical precision
                u, chords, ell, total, gap = u_try, chords_try, ell_try, total_try, gap_try
            elif stalled_inversions < 2:
                stalled_inversions = stalled_inversions + 1 if t < 1.0 else 0
        return u, gap, total

    # a stall can pin a vertex on a kink of the chain; restarting with a
    # shifted sampling phase moves the solution off the kink
    best_u, best_gap = None, np.inf
    for phase in (0.0, 0.5, 0.25, 0.75):
        u, gap, total = attempt(phase)
        if gap < best_gap:
            best_u, best_gap = u, gap
        if gap <= rel_tol * (gap + total ** 2):
            break
    return DiscreteLoop(_point_on_polygon(closed, best_u), loop.winding)


@dataclass(frozen=True)
class LoopMeasure:
    """Uniform atoms (x_i, v_i) with weight 1/N on the speed-capped tangent bundle."""

    points: np.ndarray     # (N, 2), reduced mod 1
    velocities: np.ndarray  # (N, 2)
    speed_cap: float

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
