"""Finsler metrics on the flat 2-torus.

Three variants are supported: Riemannian metrics with Fourier coefficient
fields, Randers metrics (Riemannian norm plus a drift one-form with pointwise
dual norm below one), and conformal rescalings sqrt(lambda) * F by a positive
factor. Each validity check certifies one series positive (`_certify_positive`);
a conformal factor is a `Fourier2D` series that passed it in `ConformalFactor`;
sums, products and derivatives of factors are plain series. All metrics are
positively homogeneous and strictly convex away from v = 0;
Randers metrics are not differentiable across the zero section; where a loop
has coincident vertices (v = 0) their kernel gives F = 0 and the limit
gradient 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, InvalidMetricError, NotAConformalFactorError
from .fourier import FieldPass, Fourier2D, on_grid

_CERTIFY_GRIDS = tuple(16 * 2 ** i for i in range(7))  # n = 16, 32, ..., 1024
_SEMINORM_GRID = 64
_HESSIAN_STEP = 1e-4  # central-difference step of `fiber_hessian`, relative to |v|
_CONVEXITY_TOL = 1e-6
_COMPARISON_GRID = 32
_COMPARISON_INFLATION = 1.01


def _as_series(c) -> Fourier2D:
    if isinstance(c, Fourier2D):
        return c
    return Fourier2D(float(c))


def _certify_positive(series: Fourier2D, error: type, what: str) -> None:
    """Raise `error` unless `series` is certified positive on the whole torus.

    Every point of T^2 lies within h/sqrt(2) of the n x n grid (h = 1/n), and
    |grad f| <= Lip = `Fourier2D.lipschitz_bound()`, so a grid minimum above
    Lip h/sqrt(2) certifies f > 0. The grids of `_CERTIFY_GRIDS` are tried in turn.
    """
    lip = series.lipschitz_bound()
    for n in _CERTIFY_GRIDS:
        m = float(on_grid((series,), n)[0].min())
        if m <= 0.0:
            raise error(f"{what} is not positive (min = {m:g} on the {n}x{n} grid)")
        if m > lip / (n * np.sqrt(2.0)):
            return
    raise error(f"{what} is uncertified: its minimum {m:g} on the {n}x{n} grid is "
                f"within the Lipschitz bound {lip / (n * np.sqrt(2.0)):g} of 0")


class ConformalFactor(Fourier2D):
    """A series certified positive on the whole torus by `_certify_positive`.

    This is membership in the cone of admissible conformal factors. Sums,
    products and derivatives of factors are plain `Fourier2D` series;
    wrapping one in `ConformalFactor` checks it again.
    """

    __slots__ = ()

    def __init__(self, series):
        s = _as_series(series)
        super().__init__(s.const, s.modes)
        _certify_positive(self, NotAConformalFactorError, "factor")

    @classmethod
    def constant(cls, c: float) -> "ConformalFactor":
        return cls(c)


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
        """Gradients of F^2 in x and v, each (..., 2): `kernel`'s, under a name the tracer wraps."""
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

    def __init__(self, g11=1.0, g12=0.0, g22=1.0):
        self.g11, self.g12, self.g22 = (_as_series(g11), _as_series(g12), _as_series(g22))
        g = (self.g11, self.g12, self.g22)
        # d/dx of (g11, g12, g22), then d/dy
        self._dg = tuple(s.derivative(1, 0) for s in g) + tuple(s.derivative(0, 1) for s in g)
        self._dg_live = tuple(not all(s.vanishes() for s in self._dg[3 * i:3 * i + 3])
                              for i in (0, 1))
        self._build_passes()
        _certify_positive(self.g11, InvalidMetricError, "Riemannian g11")
        _certify_positive(self.g11 * self.g22 - self.g12 * self.g12, InvalidMetricError,
                          "Riemannian det g")

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

    def __init__(self, riemannian: RiemannianMetric, beta):
        self.riemannian = riemannian
        self.beta_x, self.beta_y = (_as_series(beta[0]), _as_series(beta[1]))
        # (d beta_x, d beta_y) along x, then along y
        self._db = (self.beta_x.derivative(1, 0), self.beta_y.derivative(1, 0),
                    self.beta_x.derivative(0, 1), self.beta_y.derivative(0, 1))
        self._db_live = tuple(not (self._db[2 * i].vanishes() and self._db[2 * i + 1].vanishes())
                              for i in (0, 1))
        self._build_passes()
        # given det g > 0: |beta|_{g*} < 1 iff det g > g22 bx^2 - 2 g12 bx by + g11 by^2
        (a, b, c), bx, by = self.riemannian._fields(False), self.beta_x, self.beta_y
        _certify_positive(a * c - b * b - (c * bx * bx - 2.0 * b * bx * by + a * by * by),
                          InvalidMetricError, "Randers margin det g (1 - |beta|_g*^2)")

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

    A factor given as a plain series or number is verified as a
    `ConformalFactor` first; a `ConformalFactor` is not checked again.
    """

    def __init__(self, base: FinslerMetric, factor: ConformalFactor):
        if not isinstance(factor, ConformalFactor):
            factor = ConformalFactor(factor)
        self.base = base
        self.factor = factor
        self._dlam = (factor.derivative(1, 0), factor.derivative(0, 1))
        self._dlam_live = tuple(not d.vanishes() for d in self._dlam)
        self._build_passes()

    def _fields(self, grads):
        own = (self.factor,) + (self._dlam if grads else ())
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


@dataclass(frozen=True)
class ConvexityReport:
    """Result of a sampled fiberwise-Hessian check."""

    min_eigenvalue: float
    worst_x: np.ndarray
    worst_v: np.ndarray
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.min_eigenvalue > self.tolerance


def fiber_hessian(metric: FinslerMetric, x, v) -> np.ndarray:
    """Hessian of v -> F^2(x, v), shape (..., 2, 2), symmetrized.

    The fields are evaluated at x once; row i is the central difference of
    the kernel's exact gradient of F^2 in v along axis i, with step
    `_HESSIAN_STEP` * |v|.
    """
    x, v = np.asarray(x, float), np.asarray(v, float)
    vals = metric._passes[1](x[..., 0], x[..., 1])
    h = _HESSIAN_STEP * np.linalg.norm(v, axis=-1, keepdims=True)
    rows = [(metric._kernel(vals, v + h * e)[2] - metric._kernel(vals, v - h * e)[2]) / (2.0 * h)
            for e in np.eye(2)]
    hess = np.stack(rows, axis=-2)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def verify_convexity(metric: FinslerMetric, sample_count: int, seed: int) -> ConvexityReport:
    """Sample random (x, v) with |v| = 1 and report the minimum Hessian eigenvalue.

    The check passes when that eigenvalue exceeds `_CONVEXITY_TOL`.
    """
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
    return ConvexityReport(float(lam_min[i]), x[i], v[i], _CONVEXITY_TOL)


def comparison_constant(metric: FinslerMetric) -> float:
    """Smallest sampled c >= 1 with F/c <= |.| <= c*F, inflated by `_COMPARISON_INFLATION`.

    F is sampled at `_COMPARISON_GRID`^2 points in as many unit directions; the
    sampled sup underestimates the true sup, and the inflated constant only
    needs to be valid, not tight. The preconditioner and the speed caps read it.
    """
    pts = Fourier2D.grid(_COMPARISON_GRID).reshape(-1, 2)
    th = np.arange(_COMPARISON_GRID) * 2.0 * np.pi / _COMPARISON_GRID
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    f = metric.speed(pts[:, None, :], dirs[None, :, :])
    if f.min() < 1e-9:
        raise InvalidMetricError("metric is degenerate: F vanishes on a unit vector")
    c = max(float(f.max()), float(1.0 / f.min()), 1.0)
    return c * _COMPARISON_INFLATION


def seminorm_distance(f: Fourier2D, g: Fourier2D, k_max: int = 8) -> float:
    """The translation-invariant metric sum_k 2^-k |f-g|_k / (1 + |f-g|_k).

    |.|_k is the C^k norm: the max over the `_SEMINORM_GRID` grid of all partial
    derivatives of total order <= k, each derivative exact from the Fourier
    coefficients. k_max = 8 leaves a truncation tail below 0.004.
    """
    if k_max < 0:
        raise InputDomainError("k_max must be >= 0")
    d = f - g
    total = 0.0
    norm_k = 0.0
    for k in range(k_max + 1):
        parts = on_grid([d.derivative(i, k - i) for i in range(k + 1)], _SEMINORM_GRID)
        level = max(float(np.abs(p).max()) for p in parts)
        norm_k = max(norm_k, level)
        total += 2.0 ** (-k) * norm_k / (1.0 + norm_k)
    return total
