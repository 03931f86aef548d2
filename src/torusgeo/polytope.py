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
    """Largest pairwise distance of the rows of a (k, n) point set.

    Bitwise the root of the largest in-order sum of a pair's squared
    coordinate differences, (dx_0^2 + dx_1^2) + dx_2^2 + ...: the differences
    go into a fresh C-ordered (n, k, k) array, whose n coordinate rows numpy
    adds one after another. The `out=` is needed: without it numpy lays the
    differences out along the transposed strides, and their sum takes another
    order (other last bits) and about twice the time. The root is taken after
    the max, which it commutes with (it is correctly rounded and monotone).
    """
    k, n = pts.shape
    cols = pts.T
    sq = np.subtract(cols[:, :, None], cols[:, None, :], out=np.empty((n, k, k)))
    sq *= sq
    return math.sqrt(float(sq.reshape(n, -1).sum(axis=0).max()))


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

    @classmethod
    def _of(cls, v: np.ndarray) -> "ConvexBody":
        """The body of vertices v, a finite (k, n) array handed over: not copied or checked."""
        body = cls.__new__(cls)
        v.setflags(write=False)
        body.vertices = v
        return body

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
        return cls._of(np.zeros(n))

    @classmethod
    def _of(cls, c: np.ndarray) -> "Functional":
        """The functional with coefficients c, a finite vector handed over: not copied or checked."""
        f = cls.__new__(cls)
        c.setflags(write=False)
        f.coefficients = c
        return f

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
    evaluating f again. This is the block of one of `_argmin_sets`.
    """
    if tol < 0:
        raise InputDomainError("tol must be >= 0")
    return _argmin_sets([f(body.vertices)], [body], tol)[0]


def _argmin_sets(vals: list, bodies: list, tol: float) -> list[ArgminSet]:
    """The argmin sets of the vertex values vals[i] over bodies[i], as one block.

    Min, active mask and active count run on the values padded with +inf past
    each row's vertex count. A row whose minimum is not finite (its values
    overflowed) is an InputDomainError. A set of one vertex has diameter 0, a
    set of every vertex its body's cached diameter, and any other set its own
    `_diameter`.
    """
    if not vals:
        return []
    k = [len(v) for v in vals]
    block = np.full((len(vals), max(k)), np.inf)
    block[np.arange(max(k)) < np.array(k)[:, None]] = np.concatenate(vals)
    m = block.min(axis=1)
    if not np.isfinite(m).all():
        i = int(np.argmin(np.isfinite(m)))  # the first row at fault
        raise InputDomainError(f"row {i}: the minimum over the vertices is {m[i]}: "
                               f"the functional's vertex values overflow")
    mask = block <= (m + tol * (1.0 + np.abs(m)))[:, None]
    count = mask.sum(axis=1).tolist()
    cols = np.nonzero(mask)[1].tolist()
    active, end = [], 0
    for c in count:
        active.append(tuple(cols[end:end + c]))
        end += c
    diam = [0.0 if c < 2 else bodies[i].diameter if c == k[i]
            else _diameter(bodies[i].vertices[list(active[i])]) for i, c in enumerate(count)]
    for v in vals:
        v.setflags(write=False)
    return [ArgminSet(value=mi, active_indices=a, diameter=d, values=v)
            for mi, a, d, v in zip(m.tolist(), active, diam, vals)]


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
    hold at least one scale; tail_start defaults to half the scales. The
    argmin sets of f and of every scale are solved as one block.
    """
    scales = [float(s) for s in scales]
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])) or (scales and scales[-1] <= 0):
        raise InputDomainError("scales must be strictly decreasing and positive")
    if tail_start is None:
        tail_start = len(scales) // 2
    if not 0 <= tail_start < len(scales):
        raise InputDomainError(f"tail_start {tail_start} indexes none of the {len(scales)} scales")
    fs = [f] + [f + s * perturbation for s in scales]
    base, *sets = _argmin_sets([g(body.vertices) for g in fs], [body] * len(fs), DEFAULT_TOL)
    errors = [abs(a.value - base.value) for a in sets]
    diams = [a.diameter for a in sets]
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
    `_EXPOSING_DRAWS` times. This is the block of one of `_expose`.
    """
    if not eps > 0:  # also nan
        raise InputDomainError("eps must be positive")
    return _raised(_expose([body], [eps], [seed])[0])


def _raised(entry):
    """A batch entry, raised if it is an error."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def _expose(bodies: list, eps: list, seeds: list) -> list:
    """`exposing_functional` of each row, one block per round of draws.

    Row i draws from `default_rng(seeds[i])` until a draw is accepted: its
    own generator for an int seed, or a Generator that several rows share
    (default_rng returns it unchanged), from which each round draws for its
    live rows in row order. Its entry is (g, face) or its ExposureFailureError.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    out = [None] * len(bodies)
    live = range(len(bodies))
    for _ in range(_EXPOSING_DRAWS):
        drawn = []
        for i in live:
            v = rngs[i].standard_normal(bodies[i].dimension)
            nv = _norm(v)
            if nv != 0.0:
                drawn.append((i, Functional._of(v / nv)))
        faces = _argmin_sets([bodies[i].vertices @ g.coefficients for i, g in drawn],
                             [bodies[i] for i, _ in drawn], DEFAULT_TOL)
        for (i, g), face in zip(drawn, faces):
            if face.diameter <= eps[i]:
                out[i] = (g, face)
        live = [i for i in live if out[i] is None]
        if not live:
            return out
    return [ExposureFailureError(f"no exposing direction found in {_EXPOSING_DRAWS} draws")
            if o is None else o for o in out]


@dataclass(frozen=True)
class PerturbationResult:
    functional: Functional
    t: float
    shift: float  # ||f* - f|| of the computed coefficients, at most delta
    before: ArgminSet  # of f
    after: ArgminSet  # of the returned functional f*
    tested_t: tuple[float, ...] = field(repr=False)


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
    resolves. This is the batch of one of `shrink_argmin_batch`.
    """
    return _raised(shrink_argmin_batch([f], [body], [eps], [delta], [seed])[0])


def shrink_argmin_batch(fs, bodies, eps, delta, seeds) -> list:
    """`shrink_argmin(fs[i], bodies[i], eps[i], delta[i], seeds[i])` of every row i.

    The rows run as one block per step: the argmin sets of f, each round of
    exposing draws, each halving of t. Every row keeps its own draw count and
    trimmed t, and leaves the block at the draw and the halving that settle
    it. A seed is an int, which gives the row its own generator, or a
    Generator, which several rows can share and draw from in row order
    (`_expose`). A row with its own generator gets the bits it gets alone,
    and a row of a shared one the bits it gets alone from the draws that
    fall to it: the PerturbationResult, or the PerturbationFailureError or
    ExposureFailureError that `shrink_argmin` raises for it.
    """
    if not len(fs) == len(bodies) == len(eps) == len(delta) == len(seeds):
        raise InputDomainError("fs, bodies, eps, delta and seeds need one entry per row")
    # the negated comparisons also reject nan; an infinite delta has no schedule
    if not all(e > 0 for e in eps) or not all(0 < d < math.inf for d in delta):
        raise InputDomainError("eps must be positive and delta positive and finite")
    bases = _argmin_sets([b.vertices @ f.coefficients for f, b in zip(fs, bodies)], bodies,
                         DEFAULT_TOL)
    faces = [b if len(a.active_indices) == len(b.vertices)
             else ConvexBody(b.vertices[list(a.active_indices)])
             for a, b in zip(bases, bodies)]
    exposed = _expose(faces, [e / 2.0 for e in eps], seeds)
    out = [e if isinstance(e, Exception) else None for e in exposed]
    live = [i for i, o in enumerate(out) if o is None]
    g_norms = {i: exposed[i][0].norm for i in live}
    # g on every vertex, for the face test of each active set
    g_vals = {i: exposed[i][1].values if faces[i] is bodies[i]
              else bodies[i].vertices @ exposed[i][0].coefficients for i in live}
    tested = {i: [] for i in live}
    for k in range(_HALVINGS):
        steps = [_trimmed_step(fs[i].coefficients, exposed[i][0].coefficients,
                               delta[i] / (g_norms[i] * 2.0 ** k), delta[i]) for i in live]
        sets = _argmin_sets([bodies[i].vertices @ cs for i, (_, cs, _) in zip(live, steps)],
                            [bodies[i] for i in live], DEFAULT_TOL)
        for i, (t, cs, shift), a in zip(live, steps, sets):
            tested[i].append(t)
            out[i] = _step_error(bases[i], exposed[i][1].value, g_vals[i], t, a, delta[i])
            if out[i] is None and a.diameter <= eps[i]:
                out[i] = PerturbationResult(functional=Functional._of(cs), t=t, shift=shift,
                                            before=bases[i], after=a, tested_t=tuple(tested[i]))
        live = [i for i in live if out[i] is None]
        if not live:
            return out
    for i in live:
        out[i] = PerturbationFailureError(
            f"schedule of {_HALVINGS} halvings exhausted without shrinking the argmin")
    return out


def _trimmed_step(cf: np.ndarray, cg: np.ndarray, t: float,
                  delta: float) -> tuple[float, np.ndarray, float]:
    """The scheduled t, trimmed until ||(f + t*g) - f|| <= delta, f + t*g's coefficients and that shift."""
    while True:
        cs = cf + t * cg  # the coefficients of f + t*g
        shift = _norm(cs - cf)
        if shift <= delta:
            return t, cs, shift
        # rescale to the realized shift, stepping at least one ulp down so t strictly decreases
        t = min(t * (delta / shift), float(np.nextafter(t, 0.0)))


def _step_error(base: ArgminSet, m0: float, g_vals: np.ndarray, t: float, a: ArgminSet,
                delta: float) -> PerturbationFailureError | None:
    """The violated inequality at the tested t, if any; a is the argmin set of f + t*g."""
    scale = 1.0 + abs(base.value)
    if a.value > base.value + t * m0 + DEFAULT_TOL * scale:
        return PerturbationFailureError(
            f"minimum-value bound violated at t = {t:g}: "
            f"{a.value:g} > {base.value + t * m0:g}")
    g_max = max(g_vals.item(j) for j in a.active_indices)
    if g_max <= m0 + DEFAULT_TOL * (1.0 + abs(m0)):
        return None
    # a vertex of f's argmin face stays active under f + t*g when the
    # tolerances of both active sets cover its separation t*(g(x) - m0)
    apart = t * (g_max - m0)
    window = DEFAULT_TOL * (scale + 1.0 + abs(a.value))
    if apart <= window:
        return PerturbationFailureError(
            f"delta = {delta:g} is below what tol = {DEFAULT_TOL:g} can resolve: "
            f"at t = {t:g} the perturbation separates the face's vertices by "
            f"{apart:g}, within the active-set tolerance {window:g}")
    return PerturbationFailureError(
        f"active vertex of the perturbed functional escapes the exposed face at t = {t:g}")


def uniqueness_fraction(body: ConvexBody, sample_count: int, eps: float,
                        seed: int = 0) -> float:
    """Fraction of uniform unit functionals whose argmin has diameter <= eps.

    The argmin sets of all the samples are one `_argmin_sets` block.
    """
    if sample_count < 1:
        raise InputDomainError("sample_count must be >= 1")
    if not eps >= 0:  # also nan
        raise InputDomainError("eps must be >= 0")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((sample_count, body.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sets = _argmin_sets(list(dirs @ body.vertices.T), [body] * sample_count, DEFAULT_TOL)
    return sum(a.diameter <= eps for a in sets) / sample_count
