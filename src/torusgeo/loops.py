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


def edges(x: np.ndarray, winding: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Segment midpoints and deltas x_{i+1} - x_i of lifts x, shape (..., N, 2).

    Each lift closes at x_N = x_0 + winding.
    """
    nxt = np.concatenate([x[..., 1:, :], x[..., :1, :] + np.asarray(winding, float)], axis=-2)
    return 0.5 * (x + nxt), nxt - x


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


def _length_action(ell: np.ndarray) -> tuple:
    """Length sum(ell) and action N * sum(ell^2) of loops with segment lengths ell, shape (..., N).

    This is the one formula for both: the action of the period-1
    parametrization, (1/N) sum F^2(m_i, N dx_i), is N sum F^2(m_i, dx_i) by
    homogeneity, so one evaluation of the segment lengths gives both.
    """
    return ell.sum(axis=-1), (ell ** 2).sum(axis=-1) * ell.shape[-1]


def length(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """Discrete F-length of the polygonal loop."""
    return float(_length_action(segment_lengths(metric, loop))[0])


def action(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """Discrete action N sum F^2(m_i, dx_i) of the period-1 parametrization."""
    return float(_length_action(segment_lengths(metric, loop))[1])


def cs_gap(metric: FinslerMetric, loop: DiscreteLoop) -> float:
    """action - length^2; nonnegative, zero iff per-segment F-speeds are equal."""
    total, a = _length_action(segment_lengths(metric, loop))
    return float(a - total ** 2)


def _segment_index(u: np.ndarray, n: int) -> np.ndarray:
    """floor(u) clamped to the segments 0..n-1 (np.clip costs more than the pair)."""
    return np.minimum(np.maximum(np.floor(u).astype(int), 0), n - 1)


def _point_on_polygon(closed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate the polygon at parameters u in [0, N] (vertex i at u = i)."""
    knots = np.arange(len(closed))
    return np.stack([np.interp(u, knots, closed[:, 0]), np.interp(u, knots, closed[:, 1])], axis=-1)


def reparametrize_constant_speed(metric: FinslerMetric, loop: DiscreteLoop) -> DiscreteLoop:
    """Resample the loop at equal increments of F-arc-length.

    Vertices stay on the original polygon (the parameters u_j live on the
    input chain). The steps drive the per-segment speeds, measured with the
    same midpoint quadrature that cs_gap uses, to a common value: until the
    gap is at most `_REPARAM_REL_TOL` of the action, in at most
    `_REPARAM_MAX_ITERS` steps from each sampling phase. Each step is a
    halved-until-better move. A pass steps along the cumulative-length
    inversion (one `np.interp`) until an inversion step must be shortened or
    finds no better gap; from then on it takes Newton steps on the speed
    differences. A Newton step that finds no better gap, or a singular Newton
    system, ends the pass, and a restart at a shifted sampling phase takes over.

    Trials are evaluated on plain vertex arrays through `edges`, so only the
    returned loop is built as a DiscreteLoop. The first trial, phase 0,
    samples the input vertices exactly (`np.interp` at the knots), so it is
    the input loop's own evaluation.
    """
    closed = loop.closed_lift
    n = loop.n_vertices
    tangents = loop.deltas

    def evaluate(u):
        mids, deltas = edges(_point_on_polygon(closed, u), loop.winding)
        ell = metric.speed(mids, deltas)
        total, a = _length_action(ell)
        return (mids, deltas), ell, float(total), float(a - total ** 2)

    knots = np.arange(n, dtype=float)
    first = evaluate(knots)
    loop_length = first[2]
    if not np.isfinite(loop_length):
        # nan or inf, as when chords' squares overflow: no trial's gap can beat it
        raise MalformedLoopError("loop length is not finite: vertices must be finite "
                                 "and their chords must not overflow")
    if loop_length <= 0.0:
        raise DegenerateLoopError("cannot reparametrize a zero-length loop")

    def inversion_direction(u, ell, total):
        # invert the cumulative F-length at equal targets, holding the
        # per-segment speed profile frozen
        s = np.concatenate([[0.0], np.cumsum(ell)])
        return np.interp(np.arange(n) * total / n, s, np.concatenate([u, [u[0] + n]])) - u

    def newton_direction(u, chords, ell):
        # speed differences r_j = ell_{j+1} - ell_j have a tridiagonal
        # Jacobian in (u_1, ..., u_{n-1}); u_0 stays pinned at the pass's phase
        _, gx, gv = metric.kernel(*chords)
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

    def attempt(u, trial):
        chords, ell, total, gap = trial
        newton = False
        for _ in range(_REPARAM_MAX_ITERS):
            if gap <= _REPARAM_REL_TOL * (gap + total ** 2):
                break
            d = newton_direction(u, chords, ell) if newton else inversion_direction(u, ell, total)
            if d is None:
                break  # singular Newton system: a restart at another phase takes over
            t = 1.0
            for _ in range(40):
                u_try = u + t * d
                if admissible(u_try):
                    chords_try, ell_try, total_try, gap_try = evaluate(u_try)
                    if gap_try < gap:
                        u, chords, ell, total, gap = u_try, chords_try, ell_try, total_try, gap_try
                        break
                t *= 0.5
            else:
                if newton:
                    break  # stalled: a restart at another phase takes over
            # an inversion step that was shortened or failed hands the pass to Newton
            newton = newton or t < 1.0
        return u, gap, total

    # a stall can pin a vertex on a kink of the chain; restarting with a
    # shifted sampling phase moves the solution off the kink. The eighth
    # phases run only once the quarter phases have all stalled.
    best_u, best_gap = None, np.inf
    for phase in (0.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875):
        u = knots + phase
        u, gap, total = attempt(u, first if phase == 0.0 else evaluate(u))
        if gap < best_gap:
            best_u, best_gap = u, gap
        if gap <= _REPARAM_REL_TOL * (gap + total ** 2):
            break
    return DiscreteLoop(_point_on_polygon(closed, best_u), loop.winding)


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
