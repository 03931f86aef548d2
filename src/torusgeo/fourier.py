"""Truncated real Fourier series on the unit torus T^2 = R^2/Z^2.

All smooth coefficient fields in this package (metric coefficients, conformal
factors) are finite Fourier series, so partial derivatives of any order are
exact: differentiation acts on the coefficients, never on grid samples.

A series is stored as a constant term plus a dict of modes
``{(kx, ky): (a, b)}`` meaning ``a*cos(2*pi*(kx*x + ky*y)) + b*sin(...)``.
Modes are kept in canonical form (kx > 0, or kx == 0 and ky > 0).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InputDomainError

TWO_PI = 2.0 * np.pi

Mode = tuple[int, int]


def _canonical(k: Mode) -> tuple[Mode, float]:
    """Return the canonical representative of a mode and the sin-sign flip."""
    kx, ky = int(k[0]), int(k[1])
    if kx < 0 or (kx == 0 and ky < 0):
        return (-kx, -ky), -1.0
    return (kx, ky), 1.0


class Fourier2D:
    """A finite trigonometric polynomial on the unit torus."""

    __slots__ = ("const", "modes")

    def __init__(self, const: float = 0.0, modes: dict[Mode, tuple[float, float]] | None = None):
        const = float(const)
        canonical: dict[Mode, tuple[float, float]] = {}
        for k, (a, b) in (modes or {}).items():
            # int() would truncate 1.5 to 1 and fail on nan with a bare ValueError
            if not all(float(c).is_integer() for c in k):
                raise InputDomainError(f"Fourier wavenumbers must be integers, got {k!r}")
            a, b = float(a), float(b)
            if k[0] == 0 and k[1] == 0:
                # sin(0) vanishes; the cosine part is a constant.
                const += a
                continue
            ck, sign = _canonical(k)
            a0, b0 = canonical.get(ck, (0.0, 0.0))
            canonical[ck] = (a0 + a, b0 + sign * b)
        # a nan coefficient would pass the grid checks built on the series (nan <= 0.0 is
        # False); a sum, product or derivative of finite coefficients can overflow to inf
        if not np.isfinite([const, *(c for ab in canonical.values() for c in ab)]).all():
            raise InputDomainError("Fourier coefficients must be finite")
        self.const = const
        self.modes = canonical

    # -- evaluation ---------------------------------------------------------

    def __call__(self, pts) -> np.ndarray:
        """Evaluate at points of shape (..., 2)."""
        pts = np.asarray(pts, dtype=float)
        (out,) = FieldPass((self,))(pts[..., 0], pts[..., 1])
        return np.full(pts.shape[:-1], out) if type(out) is float else out

    def vanishes(self) -> bool:
        """True iff the series is identically zero (every coefficient is 0)."""
        return self.const == 0.0 and all(ab == (0.0, 0.0) for ab in self.modes.values())

    # -- calculus -----------------------------------------------------------

    def _diff_once(self, axis: int) -> "Fourier2D":
        modes = {}
        for k, (a, b) in self.modes.items():
            f = TWO_PI * k[axis]
            # d/dx [a cos(th) + b sin(th)] = f * (b cos(th) - a sin(th))
            modes[k] = (f * b, -f * a)
        return Fourier2D(0.0, modes)

    def derivative(self, nx: int, ny: int) -> "Fourier2D":
        """Exact partial derivative of order (nx, ny)."""
        out = self
        for _ in range(nx):
            out = out._diff_once(0)
        for _ in range(ny):
            out = out._diff_once(1)
        return out

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Fourier2D):
            modes = dict(self.modes)
            for k, (a, b) in other.modes.items():
                a0, b0 = modes.get(k, (0.0, 0.0))
                modes[k] = (a0 + a, b0 + b)
            return Fourier2D(self.const + other.const, modes)
        return Fourier2D(self.const + float(other), dict(self.modes))

    __radd__ = __add__

    def __neg__(self):
        return Fourier2D(-self.const, {k: (-a, -b) for k, (a, b) in self.modes.items()})

    def __sub__(self, other):
        if isinstance(other, Fourier2D):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Fourier2D):
            return _product(self, other)
        c = float(other)
        return Fourier2D(self.const * c, {k: (a * c, b * c) for k, (a, b) in self.modes.items()})

    __rmul__ = __mul__

    # -- grids and norms ----------------------------------------------------

    @staticmethod
    def grid(n: int) -> np.ndarray:
        """An n x n sample grid of T^2, shape (n, n, 2)."""
        t = np.arange(n) / n
        gx, gy = np.meshgrid(t, t, indexing="ij")
        return np.stack([gx, gy], axis=-1)

    def grid_values(self, n: int) -> np.ndarray:
        return on_grid((self,), n)[0]

    def max_abs(self, n: int = 64) -> float:
        return float(np.abs(self.grid_values(n)).max())

    def sup_bound(self) -> float:
        """Certified sup |f| over the torus: |c| + sum_k sqrt(a^2 + b^2).

        Mode k is a cos + b sin of one phase, at most sqrt(a^2 + b^2) in size,
        so the sum bounds |f| everywhere.
        """
        return abs(self.const) + sum(math.hypot(a, b) for a, b in self.modes.values())

    def lipschitz_bound(self) -> float:
        """Certified sup |grad f| over the torus: 2 pi sum_k |k| sqrt(a^2 + b^2).

        Mode k contributes a gradient of norm 2 pi |k| |b cos - a sin|, at most
        2 pi |k| sqrt(a^2 + b^2), so the sum bounds |grad f| everywhere; for a
        single mode it is the sup itself. Positivity certificates and the
        consistency bound both read this one constant.
        """
        return float(TWO_PI * sum(np.hypot(*k) * np.hypot(a, b)
                                  for k, (a, b) in self.modes.items()))

    def coefficients_equal(self, other: "Fourier2D", tol: float = 0.0) -> bool:
        keys = set(self.modes) | set(other.modes)
        if abs(self.const - other.const) > tol:
            return False
        for k in keys:
            a0, b0 = self.modes.get(k, (0.0, 0.0))
            a1, b1 = other.modes.get(k, (0.0, 0.0))
            if abs(a0 - a1) > tol or abs(b0 - b1) > tol:
                return False
        return True

    def __repr__(self):
        return f"{type(self).__name__}(const={self.const!r}, modes={self.modes!r})"


def _product(f: Fourier2D, g: Fourier2D) -> Fourier2D:
    """Product of two series via convolution of complex coefficients."""
    cf = _to_complex(f)
    cg = _to_complex(g)
    out: dict[Mode, complex] = {}
    for k1, c1 in cf.items():
        for k2, c2 in cg.items():
            k = (k1[0] + k2[0], k1[1] + k2[1])
            out[k] = out.get(k, 0.0) + c1 * c2
    return _from_complex(out)


def _to_complex(f: Fourier2D) -> dict[Mode, complex]:
    c: dict[Mode, complex] = {(0, 0): complex(f.const)}
    for k, (a, b) in f.modes.items():
        mk = (-k[0], -k[1])
        c[k] = c.get(k, 0.0) + (a - 1j * b) / 2.0
        c[mk] = c.get(mk, 0.0) + (a + 1j * b) / 2.0
    return c


def _from_complex(c: dict[Mode, complex]) -> Fourier2D:
    # a non-canonical mode is the conjugate partner of a canonical one
    modes = {k: (2.0 * z.real, -2.0 * z.imag) for k, z in c.items()
             if k != (0, 0) and _canonical(k)[0] == k}
    return Fourier2D(c[(0, 0)].real, modes)


class FieldPass:
    """Several series evaluated together on the same points: one cos/sin per mode.

    Each distinct live mode's cos and sin are computed once per call, into a
    table shared by every series. Each series then adds its own modes in its
    own order with the operations of the single-series evaluation, so every
    value is bitwise the one a series evaluated alone gets. Modes with zero
    coefficients are left out.
    """

    def __init__(self, series):
        self.consts = [f.const for f in series]
        index: dict[Mode, int] = {}  # each distinct live mode's row in the table
        # per series with live modes: its index and its (row, a, b) terms in its order
        self.terms: list[tuple[int, list[tuple[int, float, float]]]] = []
        for i, f in enumerate(series):
            live = [(index.setdefault(k, len(index)), a, b)
                    for k, (a, b) in f.modes.items() if (a, b) != (0.0, 0.0)]
            if live:
                self.terms.append((i, live))
        self.modes = list(index)

    def __call__(self, x, y) -> list:
        """Values at the points (x, y), given as arrays of their coordinates.

        Only points: grids go through `on_axes`. A series without live modes
        gives its constant as a Python float.
        """
        table = []
        for kx, ky in self.modes:
            th = TWO_PI * (kx * x + ky * y)
            c = np.cos(th)
            table.append((c, np.sin(th, out=th) if isinstance(th, np.ndarray) else np.sin(th)))
        out = list(self.consts)
        for i, terms in self.terms:
            v = out[i]
            for j, a, b in terms:
                c, s = table[j]
                if type(v) is float:  # the series' first term: a new array
                    v = v + a * c
                else:
                    v += a * c
                v += b * s
            out[i] = v
        return out


def on_axes(series, tx, ty) -> list[np.ndarray]:
    """Values of each series on the grid tx x ty, shape (len(tx), len(ty)).

    With X = 2 pi kx tx and Y = 2 pi ky ty, each mode splits as
    a cos(X+Y) + b sin(X+Y) = cos X (a cos Y + b sin Y) + sin X (b cos Y - a sin Y),
    so a series with K live modes is one (len(tx), 2K) @ (2K, len(ty))
    product of 1-D cos/sin tables. A series without live modes is its
    constant, exactly.
    """
    tx, ty = np.asarray(tx, dtype=float), np.asarray(ty, dtype=float)
    out = []
    for f in series:
        live = [(k, ab) for k, ab in f.modes.items() if ab != (0.0, 0.0)]
        if not live:
            out.append(np.full((tx.size, ty.size), f.const))
            continue
        kx, ky = np.array([k for k, _ in live], dtype=float).T
        a, b = np.array([ab for _, ab in live]).T[..., None]  # columns, one row per mode
        x = TWO_PI * np.outer(tx, kx)
        y = TWO_PI * np.outer(ky, ty)
        cy, sy = np.cos(y), np.sin(y)
        left = np.hstack([np.cos(x), np.sin(x)])
        right = np.vstack([a * cy + b * sy, b * cy - a * sy])
        values = left @ right
        values += f.const
        out.append(values)
    return out


def on_grid(series, n: int) -> list[np.ndarray]:
    """Values of several series on the n x n grid of `Fourier2D.grid`; the grid is never built."""
    t = np.arange(n) / n
    return on_axes(series, t, t)
