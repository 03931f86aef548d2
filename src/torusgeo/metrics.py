"""Finsler metrics on the flat 2-torus.

Three variants are supported: Riemannian metrics with Fourier coefficient
fields, Randers metrics (Riemannian norm plus a drift one-form with pointwise
dual norm below one), and conformal rescalings sqrt(lambda) * F by a positive
factor. All are positively homogeneous and strictly convex away from v = 0;
Randers metrics are not differentiable across the zero section; where a loop
has coincident vertices (v = 0) their kernel gives F = 0 and the limit
gradient 0.
"""
from __future__ import annotations

import numpy as np

from .errors import InputDomainError, InvalidMetricError, NotAConformalFactorError
from .fourier import FieldPass, Fourier2D, on_grid

_VALIDATION_GRID = 64
_POSITIVITY_GRID = 128


def _as_series(c) -> Fourier2D:
    if isinstance(c, Fourier2D):
        return c
    return Fourier2D(float(c))


class ConformalFactor:
    """A real function on T^2 as a truncated Fourier series.

    With ``require_positive=True`` (membership in the cone of admissible
    conformal factors) positivity is verified on a dense grid, whose size is
    kept as ``verified_grid``; with the check disabled the same type
    represents a plain smooth function and ``verified_grid`` is 0.
    """

    def __init__(self, series, require_positive: bool = True, grid_n: int = _POSITIVITY_GRID):
        self.series = _as_series(series)
        self.positive = bool(require_positive)
        self.verified_grid = int(grid_n) if require_positive else 0
        if require_positive:
            m = self.series.min_on_grid(grid_n)
            if m <= 0.0:
                raise NotAConformalFactorError(
                    f"factor is not positive on the verification grid (min = {m:g})"
                )

    @classmethod
    def constant(cls, c: float, require_positive: bool = True) -> "ConformalFactor":
        return cls(Fourier2D(c), require_positive=require_positive)

    def __call__(self, pts):
        return self.series(pts)

    def __mul__(self, other):
        if isinstance(other, ConformalFactor):
            return ConformalFactor(self.series * other.series,
                                   require_positive=self.positive and other.positive)
        return NotImplemented

    def __repr__(self):
        return f"ConformalFactor({self.series!r}, require_positive={self.positive})"


class FinslerMetric:
    """Base class: a norm-like function F(x, v) on T^2 x R^2.

    A metric lists the coefficient series it reads (`_fields`) and computes
    F, or F with the gradients of F^2, from their values (`_speed`,
    `_kernel`). The public methods evaluate all fields on the points in one
    shared pass (`fourier.FieldPass`), so a composite metric such as a
    conformal rescaling evaluates its own fields and its base's together,
    each once. A field without modes is used as its Python float.
    """

    def _fields(self, grads: bool) -> tuple[Fourier2D, ...]:
        """The series read by `_speed` (grads=False) or `_kernel` (grads=True), in order."""
        raise NotImplementedError

    def _speed(self, vals: list, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _kernel(self, vals: list, v: np.ndarray):
        raise NotImplementedError

    def _build_passes(self) -> None:
        self._passes = (FieldPass(self._fields(False)), FieldPass(self._fields(True)))

    def speed(self, x, v) -> np.ndarray:
        """F(x, v) for broadcastable arrays of shape (..., 2)."""
        x, v = np.asarray(x, float), np.asarray(v, float)
        f = self._speed(self._passes[0](x[..., 0], x[..., 1]), v)
        return _broadcast(x, v, f)[0]

    def kernel(self, x, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F, and the gradients of F^2 with respect to x and v, from one pass over the fields.

        F has the shape of the broadcast points, the gradients one more axis
        of length 2; F is bitwise the value `speed` gives.
        """
        x, v = np.asarray(x, float), np.asarray(v, float)
        return _broadcast(x, v, *self._kernel(self._passes[1](x[..., 0], x[..., 1]), v))

    def speed_sq_grads(self, x, v) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of F^2 with respect to x and v, each of shape (..., 2)."""
        return self.kernel(x, v)[1:]


def _broadcast(x, v, f, *grads):
    """The results widened to the broadcast shape of the points x and vectors v.

    Fields given as floats do not carry the shape of x, so a result computed
    from them alone has the shape of v.
    """
    if x.shape == v.shape:
        return (f,) + grads
    shape = np.broadcast_shapes(x.shape[:-1], v.shape[:-1])
    return (_widen(f, shape),) + tuple(_widen(g, shape + (2,)) for g in grads)


def _widen(a, shape):
    return a if np.shape(a) == shape else np.broadcast_to(a, shape).copy()


class RiemannianMetric(FinslerMetric):
    """F(x, v) = sqrt(v^T g(x) v) with a symmetric coefficient field g."""

    def __init__(self, g11=1.0, g12=0.0, g22=1.0, validate: bool = True):
        self.g11, self.g12, self.g22 = (_as_series(g11), _as_series(g12), _as_series(g22))
        g = (self.g11, self.g12, self.g22)
        # d/dx of (g11, g12, g22), then d/dy
        self._dg = tuple(s.derivative(1, 0) for s in g) + tuple(s.derivative(0, 1) for s in g)
        self._dg_live = tuple(not all(s.vanishes() for s in self._dg[3 * i:3 * i + 3])
                              for i in (0, 1))
        self._build_passes()
        if validate:
            a, b, c = on_grid(g, _VALIDATION_GRID)
            if a.min() <= 0.0 or (a * c - b * b).min() <= 0.0:
                raise InvalidMetricError("Riemannian coefficient field is not positive definite")

    def _fields(self, grads):
        return (self.g11, self.g12, self.g22) + (self._dg if grads else ())

    def _speed(self, vals, v):
        a, b, c = vals[:3]
        q = a * v[..., 0] ** 2 + 2.0 * b * v[..., 0] * v[..., 1] + c * v[..., 1] ** 2
        return np.sqrt(np.maximum(q, 0.0))

    def _kernel(self, vals, v):
        a, b, c = vals[:3]
        vx, vy = v[..., 0], v[..., 1]
        gv = np.stack([2.0 * (a * vx + b * vy), 2.0 * (b * vx + c * vy)], axis=-1)
        gx = np.zeros_like(gv)
        for axis in (0, 1):
            if self._dg_live[axis]:
                da, db, dc = vals[3 + 3 * axis:6 + 3 * axis]
                gx[..., axis] = da * vx ** 2 + 2.0 * db * vx * vy + dc * vy ** 2
        return self._speed(vals, v), gx, gv

    # kept in each class's own dict, where perfbench/tracing.py wraps them
    speed = FinslerMetric.speed
    speed_sq_grads = FinslerMetric.speed_sq_grads


def euclidean() -> RiemannianMetric:
    """The fixed reference metric g on T^2, |v| = sqrt(vx^2 + vy^2)."""
    return RiemannianMetric(1.0, 0.0, 1.0)


class RandersMetric(FinslerMetric):
    """F(x, v) = |v|_g + beta_x(x) vx + beta_y(x) vy, with |beta|_{g*} < 1."""

    def __init__(self, riemannian: RiemannianMetric | None = None, beta=(0.0, 0.0),
                 validate: bool = True):
        self.riemannian = riemannian if riemannian is not None else euclidean()
        self.beta_x, self.beta_y = (_as_series(beta[0]), _as_series(beta[1]))
        # (d beta_x, d beta_y) along x, then along y
        self._db = (self.beta_x.derivative(1, 0), self.beta_y.derivative(1, 0),
                    self.beta_x.derivative(0, 1), self.beta_y.derivative(0, 1))
        self._db_live = tuple(not (self._db[2 * i].vanishes() and self._db[2 * i + 1].vanishes())
                              for i in (0, 1))
        self._build_passes()
        if validate:
            a, b, c, bx, by = on_grid(self.riemannian._fields(False) + (self.beta_x, self.beta_y),
                                      _VALIDATION_GRID)
            det = a * c - b * b
            # dual norm: beta g^{-1} beta
            dual = (c * bx ** 2 - 2.0 * b * bx * by + a * by ** 2) / det
            if dual.max() >= 1.0:
                raise InvalidMetricError(
                    f"Randers drift has dual norm >= 1 somewhere (max = {np.sqrt(dual.max()):g})"
                )

    def _fields(self, grads):
        return (self.riemannian._fields(grads) + (self.beta_x, self.beta_y)
                + (self._db if grads else ()))

    def _speed(self, vals, v):
        bx, by = vals[3:5]
        return self.riemannian._speed(vals, v) + bx * v[..., 0] + by * v[..., 1]

    def _kernel(self, vals, v):
        s, rx, rv = self.riemannian._kernel(vals, v)  # rx, rv: grads of s^2
        bx, by = vals[9:11]
        f = s + bx * v[..., 0] + by * v[..., 1]
        # at v = 0 (coincident vertices) F = 0 and the limit gradient is 0
        ratio = np.divide(f, s, out=np.zeros_like(f), where=s != 0.0)
        gv = np.empty(np.shape(f) + (2,))
        gv[..., 0] = ratio * rv[..., 0] + 2.0 * f * bx
        gv[..., 1] = ratio * rv[..., 1] + 2.0 * f * by
        gx = np.empty_like(gv)
        for axis in (0, 1):
            gx[..., axis] = ratio * rx[..., axis]
            if self._db_live[axis]:
                dbx, dby = vals[11 + 2 * axis:13 + 2 * axis]
                gx[..., axis] += 2.0 * f * (dbx * v[..., 0] + dby * v[..., 1])
        return f, gx, gv

    speed = FinslerMetric.speed
    speed_sq_grads = FinslerMetric.speed_sq_grads


class ConformalMetric(FinslerMetric):
    """sqrt(lambda(x)) * F_base(x, v) for a positive factor lambda.

    Positivity is checked on the `_POSITIVITY_GRID` grid unless the factor
    was already verified on a grid at least that fine.
    """

    def __init__(self, base: FinslerMetric, factor: ConformalFactor):
        if not isinstance(factor, ConformalFactor):
            factor = ConformalFactor(factor)
        if (factor.verified_grid < _POSITIVITY_GRID
                and factor.series.min_on_grid(_POSITIVITY_GRID) <= 0.0):
            raise NotAConformalFactorError("conformal factor must be positive")
        self.base = base
        self.factor = factor
        self._dlam = (factor.series.derivative(1, 0), factor.series.derivative(0, 1))
        self._dlam_live = tuple(not d.vanishes() for d in self._dlam)
        self._build_passes()

    def _fields(self, grads):
        own = (self.factor.series,) + (self._dlam if grads else ())
        return own + self.base._fields(grads)

    def _speed(self, vals, v):
        return np.sqrt(vals[0]) * self.base._speed(vals[1:], v)

    def _kernel(self, vals, v):
        lam = vals[0]
        fb, bx, bv = self.base._kernel(vals[3:], v)
        col = np.asarray(lam)[..., None]
        f = np.sqrt(lam) * fb
        gv = col * bv
        gx = col * bx
        fb2 = fb ** 2
        for axis in (0, 1):
            if self._dlam_live[axis]:
                gx[..., axis] += vals[1 + axis] * fb2
        return f, gx, gv

    speed = FinslerMetric.speed
    speed_sq_grads = FinslerMetric.speed_sq_grads


def evaluate(metric: FinslerMetric, x, v) -> float | np.ndarray:
    """F(x, v), with input-domain validation."""
    x, v = np.asarray(x, float), np.asarray(v, float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise InputDomainError("non-finite point or vector")
    out = metric.speed(x, v)
    return float(out) if out.ndim == 0 else out


class ConvexityReport:
    """Result of a sampled fiberwise-Hessian check."""

    def __init__(self, min_eigenvalue, worst_x, worst_v, tolerance):
        self.min_eigenvalue = float(min_eigenvalue)
        self.worst_x = np.asarray(worst_x, float)
        self.worst_v = np.asarray(worst_v, float)
        self.tolerance = float(tolerance)
        self.passed = self.min_eigenvalue > self.tolerance

    def __repr__(self):
        return (f"ConvexityReport(min_eigenvalue={self.min_eigenvalue:g}, "
                f"passed={self.passed})")


def fiber_hessian(metric: FinslerMetric, x, v, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference Hessian of v -> F^2(x, v), shape (..., 2, 2)."""
    x, v = np.asarray(x, float), np.asarray(v, float)
    h = h * np.linalg.norm(v, axis=-1, keepdims=True)

    def f2(dv):
        return metric.speed(x, v + dv) ** 2

    e0 = np.zeros_like(v)
    e0[..., 0] = h[..., 0]
    e1 = np.zeros_like(v)
    e1[..., 1] = h[..., 0]
    hh = h[..., 0] ** 2
    f00 = (f2(e0) - 2.0 * f2(0 * v) + f2(-e0)) / hh
    f11 = (f2(e1) - 2.0 * f2(0 * v) + f2(-e1)) / hh
    f01 = (f2(e0 + e1) - f2(e0 - e1) - f2(-e0 + e1) + f2(-e0 - e1)) / (4.0 * hh)
    out = np.empty(v.shape[:-1] + (2, 2))
    out[..., 0, 0] = f00
    out[..., 1, 1] = f11
    out[..., 0, 1] = out[..., 1, 0] = f01
    return out


def verify_convexity(metric: FinslerMetric, sample_count: int = 256, seed: int = 0,
                     tolerance: float = 1e-6) -> ConvexityReport:
    """Sample random (x, v) with |v| = 1 and report the minimum Hessian eigenvalue."""
    if sample_count < 1:
        raise InputDomainError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.random((sample_count, 2))
    th = rng.random(sample_count) * 2.0 * np.pi
    v = np.stack([np.cos(th), np.sin(th)], axis=-1)
    hess = fiber_hessian(metric, x, v)
    tr = hess[:, 0, 0] + hess[:, 1, 1]
    disc = np.sqrt((hess[:, 0, 0] - hess[:, 1, 1]) ** 2 + 4.0 * hess[:, 0, 1] ** 2)
    lam_min = 0.5 * (tr - disc)
    i = int(np.argmin(lam_min))
    return ConvexityReport(lam_min[i], x[i], v[i], tolerance)


def comparison_constant(metric: FinslerMetric, grid_resolution: int = 32,
                        safety: float = 1.01) -> float:
    """Smallest sampled c >= 1 with F/c <= |.| <= c*F, inflated by `safety`.

    The sampled sup underestimates the true sup; the inflated constant only
    needs to be valid, not tight.
    """
    if grid_resolution < 8:
        raise InputDomainError("grid_resolution must be >= 8")
    pts = Fourier2D.grid(grid_resolution).reshape(-1, 2)
    th = np.arange(grid_resolution) * 2.0 * np.pi / grid_resolution
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    f = metric.speed(pts[:, None, :], dirs[None, :, :])
    if f.min() < 1e-9:
        raise InvalidMetricError("metric is degenerate: F vanishes on a unit vector")
    c = max(float(f.max()), float(1.0 / f.min()), 1.0)
    return c * safety


def seminorm_distance(f: ConformalFactor, g: ConformalFactor, k_max: int = 8,
                      grid_n: int = 64) -> float:
    """The translation-invariant metric sum_k 2^-k |f-g|_k / (1 + |f-g|_k).

    |.|_k is the C^k norm: the max over a dense grid of all partial
    derivatives of total order <= k, each derivative exact from the Fourier
    coefficients. k_max = 8 leaves a truncation tail below 0.004.
    """
    if k_max < 0:
        raise InputDomainError("k_max must be >= 0")
    d = f.series - g.series
    total = 0.0
    norm_k = 0.0
    for k in range(k_max + 1):
        parts = on_grid([d.derivative(i, k - i) for i in range(k + 1)], grid_n)
        level = max(float(np.abs(p).max()) for p in parts)
        norm_k = max(norm_k, level)
        total += 2.0 ** (-k) * norm_k / (1.0 + norm_k)
    return total
