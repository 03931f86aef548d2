"""Argmin sets of linear functionals over vertex-hull polytopes.

This is the finite-dimensional model of the argmin-shrinking construction:
linear minimization over a polytope is exact vertex enumeration, every vertex
is exposed by a generic direction, and a small multiple of an exposing
functional added to f collapses the argmin face to (almost) a point while
staying inside any prescribed neighborhood of f.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ExposureFailureError, InputDomainError, PerturbationFailureError

DEFAULT_TOL = 1e-9


class ConvexBody:
    """A polytope in R^n given as the convex hull of a finite point list."""

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or len(v) < 1:
            raise InputDomainError("vertices must be a non-empty (k, n) array")
        if not np.all(np.isfinite(v)):
            raise InputDomainError("vertices must be finite")
        v.setflags(write=False)
        self.vertices = v

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d ** 2).sum(axis=-1)).max())

    @classmethod
    def from_csv(cls, text: str) -> "ConvexBody":
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        return cls([[float(x) for x in r] for r in rows])

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in self.vertices:
            w.writerow([repr(float(x)) for x in row])
        return buf.getvalue()

    def __repr__(self):
        return f"ConvexBody({len(self.vertices)} vertices in R^{self.dimension})"


class Functional:
    """A linear functional x -> <coefficients, x> on R^n."""

    def __init__(self, coefficients):
        c = np.array(coefficients, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise InputDomainError("coefficients must be a finite vector")
        c.setflags(write=False)
        self.coefficients = c

    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, float) @ self.coefficients

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

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

    @classmethod
    def from_csv(cls, text: str) -> "Functional":
        row = next(r for r in csv.reader(io.StringIO(text)) if r)
        return cls([float(x) for x in row])

    def __repr__(self):
        return f"Functional({self.coefficients!r})"


@dataclass(frozen=True)
class ArgminSet:
    value: float
    active_indices: tuple[int, ...]
    diameter: float


def argmin_set(f: Functional, body: ConvexBody, tol: float = DEFAULT_TOL) -> ArgminSet:
    """Minimum of f over the polytope and the vertices attaining it.

    The active set uses the relative tolerance tol * (1 + |m|), so it is
    invariant under positive scaling of f together with its minimum.
    """
    if tol < 0:
        raise InputDomainError("tol must be >= 0")
    vals = f(body.vertices)
    m = float(vals.min())
    active = np.nonzero(vals <= m + tol * (1.0 + abs(m)))[0]
    pts = body.vertices[active]
    if len(pts) == 1:
        diam = 0.0
    else:
        d = pts[:, None, :] - pts[None, :, :]
        diam = float(np.sqrt((d ** 2).sum(axis=-1)).max())
    return ArgminSet(value=m, active_indices=tuple(int(i) for i in active), diameter=diam)


@dataclass(frozen=True)
class ProbeReport:
    base_value: float
    base_diameter: float
    scales: tuple[float, ...]
    value_errors: tuple[float, ...]
    diameters: tuple[float, ...]
    tail_max_error: float
    diameter_violations: int

    @property
    def passed(self) -> bool:
        return self.diameter_violations == 0


def semicontinuity_probe(f: Functional, body: ConvexBody, perturbations, scales,
                         tol: float = DEFAULT_TOL, tail_start: int | None = None) -> ProbeReport:
    """Evaluate m and the argmin diameter along f + scale_n * perturbation_n.

    Checks the two stability facts that make the uniqueness sets open: the
    minimum value converges (|m(f_n) - m(f)| -> 0) and the argmin diameter is
    upper semicontinuous (diam M(f_n) <= diam M(f) + tol for small scales).
    """
    scales = [float(s) for s in scales]
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])) or (scales and scales[-1] <= 0):
        raise InputDomainError("scales must be strictly decreasing and positive")
    perts = list(perturbations)
    if len(perts) == 1:
        perts = perts * len(scales)
    if len(perts) != len(scales):
        raise InputDomainError("need one perturbation, or one per scale")
    base = argmin_set(f, body, tol)
    errors, diams = [], []
    for p, s in zip(perts, scales):
        a = argmin_set(f + s * p, body, tol)
        errors.append(abs(a.value - base.value))
        diams.append(a.diameter)
    if tail_start is None:
        tail_start = len(scales) // 2
    tail_max = max(errors[tail_start:], default=0.0)
    violations = sum(1 for d in diams[tail_start:] if d > base.diameter + tol)
    return ProbeReport(base_value=base.value, base_diameter=base.diameter,
                       scales=tuple(scales), value_errors=tuple(errors),
                       diameters=tuple(diams), tail_max_error=tail_max,
                       diameter_violations=violations)


def exposing_functional(body: ConvexBody, eps: float, seed: int = 0,
                        max_draws: int = 64, tol: float = DEFAULT_TOL) -> Functional:
    """A unit functional whose argmin face over the body has diameter <= eps.

    A vertex of a polytope is exposed by a generic direction, so a uniform
    draw on the sphere succeeds except on a measure-zero set; the draw is
    repeated up to max_draws times.
    """
    if eps <= 0:
        raise InputDomainError("eps must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(max_draws):
        v = rng.standard_normal(body.dimension)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        g = Functional(v / nv)
        if argmin_set(g, body, tol).diameter <= eps:
            return g
    raise ExposureFailureError(f"no exposing direction found in {max_draws} draws")


@dataclass(frozen=True)
class PerturbationResult:
    functional: Functional
    t: float
    diameter_before: float
    diameter_after: float
    tested_t: tuple[float, ...] = field(repr=False, default=())


def shrink_argmin(f: Functional, body: ConvexBody, eps: float, delta: float,
                  seed: int = 0, tol: float = DEFAULT_TOL,
                  max_halvings: int = 60) -> PerturbationResult:
    """Find f* = f + t*g with ||f* - f|| <= delta and diam of its argmin <= eps.

    g exposes a face of diameter <= eps/2 inside the argmin face of f; t runs
    down a geometric schedule delta / (||g|| 2^k). Each scheduled t is trimmed
    until the shift ||f* - f|| of the computed coefficients is <= delta in
    floating point; rounding in delta / ||g|| and in f + t*g can otherwise push
    it past delta, by many ulps when |f| is large against delta. tested_t
    holds the trimmed values.

    Two inequalities are asserted at every tested t: m(f + t g) <= m(f) +
    t * m0(g), and every active vertex x of f + t g satisfies g(x) <= m0(g) +
    tol, where m0(g) is the minimum of g over the argmin face of f. A
    violation or an exhausted schedule is surfaced as an error, never ignored;
    when t * g is too small to separate the face's vertices under the
    active-set tolerance, the error says that delta is below what tol resolves.
    """
    if eps <= 0 or delta <= 0:
        raise InputDomainError("eps and delta must be positive")
    base = argmin_set(f, body, tol)
    face = ConvexBody(body.vertices[list(base.active_indices)])
    g = exposing_functional(face, eps / 2.0, seed=seed, tol=tol)
    m0 = float(g(face.vertices).min())
    tested = []
    scale = 1.0 + abs(base.value)
    for k in range(max_halvings):
        t = delta / (g.norm * 2.0 ** k)
        while True:
            fs = f + t * g
            shift = float(np.linalg.norm(fs.coefficients - f.coefficients))
            if shift <= delta:
                break
            # rescale to the realized shift, stepping at least one ulp down so t strictly decreases
            t = min(t * (delta / shift), float(np.nextafter(t, 0.0)))
        tested.append(t)
        a = argmin_set(fs, body, tol)
        if a.value > base.value + t * m0 + tol * scale:
            raise PerturbationFailureError(
                f"minimum-value bound violated at t = {t:g}: "
                f"{a.value:g} > {base.value + t * m0:g}")
        gvals = g(body.vertices[list(a.active_indices)])
        if gvals.max() > m0 + tol * (1.0 + abs(m0)):
            # a vertex of f's argmin face stays active under f + t*g when the
            # tolerances of both active sets cover its separation t*(g(x) - m0)
            apart = t * (gvals.max() - m0)
            window = tol * (scale + 1.0 + abs(a.value))
            if apart <= window:
                raise PerturbationFailureError(
                    f"delta = {delta:g} is below what tol = {tol:g} can resolve: at t = {t:g} "
                    f"the perturbation separates the face's vertices by {apart:g}, within "
                    f"the active-set tolerance {window:g}")
            raise PerturbationFailureError(
                f"active vertex of the perturbed functional escapes the exposed face "
                f"at t = {t:g}")
        if a.diameter <= eps:
            return PerturbationResult(functional=fs, t=t,
                                      diameter_before=base.diameter,
                                      diameter_after=a.diameter,
                                      tested_t=tuple(tested))
    raise PerturbationFailureError(
        f"schedule of {max_halvings} halvings exhausted without shrinking the argmin")


def uniqueness_fraction(body: ConvexBody, sample_count: int, eps: float,
                        seed: int = 0, tol: float = DEFAULT_TOL) -> float:
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
        active = body.vertices[vals[i] <= m[i] + tol * (1.0 + abs(m[i]))]
        if len(active) == 1:
            hits += 1
            continue
        d = active[:, None, :] - active[None, :, :]
        if np.sqrt((d ** 2).sum(axis=-1)).max() <= eps:
            hits += 1
    return hits / sample_count
