"""Argmin sets of linear functionals over vertex-hull polytopes.

This is the finite-dimensional model of the argmin-shrinking construction:
linear minimization over a polytope is exact vertex enumeration, every vertex
is exposed by a generic direction, and a small multiple of an exposing
functional added to f collapses the argmin face to (almost) a point while
staying inside any prescribed neighborhood of f.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExposureFailureError, InputDomainError, PerturbationFailureError

DEFAULT_TOL = 1e-9
_EXPOSING_DRAWS = 64
_HALVINGS = 60


def _norm(c: np.ndarray) -> float:
    """Euclidean norm of a vector, sqrt(c . c): the bits of `np.linalg.norm` without its overhead."""
    return math.sqrt(float(c @ c))


def _diameter(pts: np.ndarray) -> float:
    """Largest pairwise distance of the rows of pts.

    The root is taken after the max, which it commutes with (it is
    correctly rounded and monotone), so the value is the max of the roots.
    """
    d = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((d ** 2).sum(axis=-1).max()))


class ConvexBody:
    """A polytope in R^n given as the convex hull of a finite point list."""

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or len(v) < 1:
            raise InputDomainError("vertices must be a non-empty (k, n) array")
        if not np.isfinite(v).all():
            raise InputDomainError("vertices must be finite")
        v.setflags(write=False)
        self.vertices = v

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @functools.cached_property
    def diameter(self) -> float:
        """Largest pairwise vertex distance, computed once (the vertices are read-only)."""
        return _diameter(self.vertices)

    def __repr__(self):
        return f"ConvexBody({len(self.vertices)} vertices in R^{self.dimension})"


class Functional:
    """A linear functional x -> <coefficients, x> on R^n."""

    def __init__(self, coefficients):
        c = np.array(coefficients, dtype=float)
        if c.ndim != 1 or not np.isfinite(c).all():
            raise InputDomainError("coefficients must be a finite vector")
        c.setflags(write=False)
        self.coefficients = c

    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, float) @ self.coefficients

    @property
    def norm(self) -> float:
        return _norm(self.coefficients)

    def __add__(self, other):
        if isinstance(other, Functional):
            return Functional(self.coefficients + other.coefficients)
        return NotImplemented

    def __mul__(self, t: float):
        return Functional(self.coefficients * float(t))

    __rmul__ = __mul__

    @classmethod
    def zero(cls, n: int) -> "Functional":
        return cls(np.zeros(n))

    def __repr__(self):
        return f"Functional({self.coefficients!r})"


@dataclass(frozen=True)
class ArgminSet:
    value: float
    active_indices: tuple[int, ...]
    diameter: float
    values: np.ndarray = field(repr=False, compare=False)  # f on the vertices, read-only


def argmin_set(f: Functional, body: ConvexBody, tol: float = DEFAULT_TOL) -> ArgminSet:
    """Minimum of f over the polytope and the vertices attaining it.

    The active set uses the relative tolerance tol * (1 + |m|), so it is
    invariant under positive scaling of f together with its minimum. When
    every vertex is active, the diameter is the body's cached one. The set
    keeps f's values on the vertices, so a caller reads them instead of
    evaluating f again.
    """
    if tol < 0:
        raise InputDomainError("tol must be >= 0")
    vals = f(body.vertices)
    m = float(vals.min())
    active = np.nonzero(vals <= m + tol * (1.0 + abs(m)))[0]
    if len(active) == 1:
        diam = 0.0
    elif len(active) == len(vals):
        diam = body.diameter
    else:
        diam = _diameter(body.vertices[active])
    vals.setflags(write=False)
    return ArgminSet(value=m, active_indices=tuple(active.tolist()), diameter=diam, values=vals)


@dataclass(frozen=True)
class ProbeReport:
    base: ArgminSet  # of f
    scales: tuple[float, ...]
    value_errors: tuple[float, ...]
    diameters: tuple[float, ...]
    tail_max_error: float
    diameter_violations: int

    @property
    def base_value(self) -> float:
        return self.base.value

    @property
    def base_diameter(self) -> float:
        return self.base.diameter

    @property
    def passed(self) -> bool:
        return self.diameter_violations == 0


def semicontinuity_probe(f: Functional, body: ConvexBody, perturbation: Functional, scales,
                         tail_start: int | None = None) -> ProbeReport:
    """Evaluate m and the argmin diameter along f + scale_n * perturbation.

    Checks the two stability facts that make the uniqueness sets open: the
    minimum value converges (|m(f_n) - m(f)| -> 0) and the argmin diameter is
    upper semicontinuous (diam M(f_n) <= diam M(f) + DEFAULT_TOL for small
    scales). The small scales are the tail scales[tail_start:], which must
    hold at least one scale; tail_start defaults to half the scales.
    """
    scales = [float(s) for s in scales]
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])) or (scales and scales[-1] <= 0):
        raise InputDomainError("scales must be strictly decreasing and positive")
    if tail_start is None:
        tail_start = len(scales) // 2
    if not 0 <= tail_start < len(scales):
        raise InputDomainError(f"tail_start {tail_start} indexes none of the {len(scales)} scales")
    base = argmin_set(f, body)
    errors, diams = [], []
    for s in scales:
        a = argmin_set(f + s * perturbation, body)
        errors.append(abs(a.value - base.value))
        diams.append(a.diameter)
    tail_max = max(errors[tail_start:])
    violations = sum(1 for d in diams[tail_start:] if d > base.diameter + DEFAULT_TOL)
    return ProbeReport(base=base, scales=tuple(scales), value_errors=tuple(errors),
                       diameters=tuple(diams), tail_max_error=tail_max,
                       diameter_violations=violations)


def exposing_functional(body: ConvexBody, eps: float,
                        seed: int = 0) -> tuple[Functional, ArgminSet]:
    """A unit functional g whose argmin face over the body has diameter <= eps, and that face.

    The face is the `argmin_set(g, body)` that accepted g. A vertex of a
    polytope is exposed by a generic direction, so a uniform draw on the
    sphere succeeds except on a measure-zero set; the draw is repeated up to
    `_EXPOSING_DRAWS` times.
    """
    if eps <= 0:
        raise InputDomainError("eps must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(_EXPOSING_DRAWS):
        v = rng.standard_normal(body.dimension)
        nv = _norm(v)
        if nv == 0.0:
            continue
        g = Functional(v / nv)
        face = argmin_set(g, body)
        if face.diameter <= eps:
            return g, face
    raise ExposureFailureError(f"no exposing direction found in {_EXPOSING_DRAWS} draws")


@dataclass(frozen=True)
class PerturbationResult:
    functional: Functional
    t: float
    before: ArgminSet  # of f
    after: ArgminSet  # of the returned functional f*
    tested_t: tuple[float, ...] = field(repr=False, default=())


def shrink_argmin(f: Functional, body: ConvexBody, eps: float, delta: float,
                  seed: int = 0) -> PerturbationResult:
    """Find f* = f + t*g with ||f* - f|| <= delta and diam of its argmin <= eps.

    g exposes a face of diameter <= eps/2 inside the argmin face of f; t runs
    down a geometric schedule delta / (||g|| 2^k), k < `_HALVINGS`. Each
    scheduled t is trimmed until the shift ||f* - f|| of the computed
    coefficients is <= delta in floating point; rounding in delta / ||g|| and
    in f + t*g can otherwise push it past delta, by many ulps when |f| is large
    against delta. tested_t holds the trimmed values.

    Two inequalities are asserted at every tested t: m(f + t g) <= m(f) +
    t * m0(g), and every active vertex x of f + t g satisfies g(x) <= m0(g) +
    DEFAULT_TOL, where m0(g) is the minimum of g over the argmin face of f. A
    violation or an exhausted schedule is surfaced as an error, never ignored;
    when t * g is too small to separate the face's vertices under the
    active-set tolerance, the error says that delta is below what DEFAULT_TOL
    resolves.
    """
    if eps <= 0 or delta <= 0:
        raise InputDomainError("eps and delta must be positive")
    base = argmin_set(f, body)
    whole = len(base.active_indices) == len(body.vertices)
    face = body if whole else ConvexBody(body.vertices[list(base.active_indices)])
    g, exposed = exposing_functional(face, eps / 2.0, seed=seed)
    m0 = exposed.value
    # g on every vertex, for the face test of each active set below
    g_vals = exposed.values if whole else g(body.vertices)
    cf, cg, g_norm = f.coefficients, g.coefficients, g.norm
    tested = []
    scale = 1.0 + abs(base.value)
    for k in range(_HALVINGS):
        t = delta / (g_norm * 2.0 ** k)
        while True:
            cs = cf + t * cg  # the coefficients of f + t*g
            shift = _norm(cs - cf)
            if shift <= delta:
                break
            # rescale to the realized shift, stepping at least one ulp down so t strictly decreases
            t = min(t * (delta / shift), float(np.nextafter(t, 0.0)))
        tested.append(t)
        fs = Functional(cs)
        a = argmin_set(fs, body)
        if a.value > base.value + t * m0 + DEFAULT_TOL * scale:
            raise PerturbationFailureError(
                f"minimum-value bound violated at t = {t:g}: "
                f"{a.value:g} > {base.value + t * m0:g}")
        gvals = g_vals[list(a.active_indices)]
        if gvals.max() > m0 + DEFAULT_TOL * (1.0 + abs(m0)):
            # a vertex of f's argmin face stays active under f + t*g when the
            # tolerances of both active sets cover its separation t*(g(x) - m0)
            apart = t * (gvals.max() - m0)
            window = DEFAULT_TOL * (scale + 1.0 + abs(a.value))
            if apart <= window:
                raise PerturbationFailureError(
                    f"delta = {delta:g} is below what tol = {DEFAULT_TOL:g} can resolve: "
                    f"at t = {t:g} the perturbation separates the face's vertices by "
                    f"{apart:g}, within the active-set tolerance {window:g}")
            raise PerturbationFailureError(
                f"active vertex of the perturbed functional escapes the exposed face "
                f"at t = {t:g}")
        if a.diameter <= eps:
            return PerturbationResult(functional=fs, t=t, before=base, after=a,
                                      tested_t=tuple(tested))
    raise PerturbationFailureError(
        f"schedule of {_HALVINGS} halvings exhausted without shrinking the argmin")


def uniqueness_fraction(body: ConvexBody, sample_count: int, eps: float,
                        seed: int = 0) -> float:
    """Fraction of uniform unit functionals whose argmin has diameter <= eps."""
    if sample_count < 1:
        raise InputDomainError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((sample_count, body.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = dirs @ body.vertices.T  # (samples, vertices)
    m = vals.min(axis=1)
    hits = 0
    for i in range(sample_count):
        active = body.vertices[vals[i] <= m[i] + DEFAULT_TOL * (1.0 + abs(m[i]))]
        if len(active) == 1 or _diameter(active) <= eps:
            hits += 1
    return hits / sample_count
