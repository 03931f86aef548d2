"""Truncated real Fourier series on the unit torus T^2 = R^2/Z^2.

All smooth coefficient fields in this package (metric coefficients, conformal
factors) are finite Fourier series, so partial derivatives of any order are
exact: differentiation acts on the coefficients, never on grid samples.

A series is stored as a constant term plus a dict of modes
``{(kx, ky): (a, b)}`` meaning ``a*cos(2*pi*(kx*x + ky*y)) + b*sin(...)``.
Modes are kept in canonical form (kx > 0, or kx == 0 and ky > 0).
"""
from __future__ import annotations

import numpy as np

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
        self.const = float(const)
        self.modes: dict[Mode, tuple[float, float]] = {}
        if modes:
            for k, (a, b) in modes.items():
                self._accumulate(k, float(a), float(b))

    def _accumulate(self, k: Mode, a: float, b: float) -> None:
        if k[0] == 0 and k[1] == 0:
            # sin(0) vanishes; the cosine part is a constant.
            self.const += a
            return
        ck, sign = _canonical(k)
        a0, b0 = self.modes.get(ck, (0.0, 0.0))
        self.modes[ck] = (a0 + a, b0 + sign * b)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, pts) -> np.ndarray:
        """Evaluate at points of shape (..., 2)."""
        pts = np.asarray(pts, dtype=float)
        (out,) = FieldPass((self,))(pts[..., 0], pts[..., 1])
        return np.full(pts.shape[:-1], out) if type(out) is float else out

    def value(self, x: float, y: float) -> float:
        return float(self(np.array([x, y])))

    def vanishes(self) -> bool:
        """True iff the series is identically zero (every coefficient is 0)."""
        return self.const == 0.0 and all(ab == (0.0, 0.0) for ab in self.modes.values())

    # -- calculus -----------------------------------------------------------

    def _diff_once(self, axis: int) -> "Fourier2D":
        out = Fourier2D(0.0)
        for (kx, ky), (a, b) in self.modes.items():
            f = TWO_PI * (kx if axis == 0 else ky)
            # d/dx [a cos(th) + b sin(th)] = f * (b cos(th) - a sin(th))
            out._accumulate((kx, ky), f * b, -f * a)
        return out

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
            out = Fourier2D(self.const + other.const, dict(self.modes))
            for k, (a, b) in other.modes.items():
                out._accumulate(k, a, b)
            return out
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

    def min_on_grid(self, n: int = 128) -> float:
        return float(self.grid_values(n).min())

    def sup_gradient_norm(self, n: int = 256) -> float:
        """Max Euclidean norm of the gradient on an n x n grid (Lipschitz estimate)."""
        dx, dy = on_grid((self.derivative(1, 0), self.derivative(0, 1)), n)
        return float(np.hypot(dx, dy).max())

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
        return f"Fourier2D(const={self.const!r}, modes={self.modes!r})"


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
    out = Fourier2D(0.0)
    for k, z in c.items():
        if k == (0, 0):
            out.const += z.real
            continue
        ck, _ = _canonical(k)
        if ck != k:
            continue  # handled through the conjugate partner
        out._accumulate(k, 2.0 * z.real, -2.0 * z.imag)
    return out


def _fits(position: dict[Mode, int], modes: list[Mode]) -> bool:
    """True iff `modes`, in their order, can join a pass whose mode order is `position`.

    New modes join at the end of the pass, so they must follow every mode
    the series shares with it.
    """
    last, new = -1, len(position)
    for k in modes:
        p = position.get(k)
        if p is None:
            p, new = new, new + 1
        if p <= last:
            return False
        last = p
    return True


class FieldPass:
    """Several series evaluated together on the same points: one cos/sin per mode.

    Each series adds its modes in its own order with the operations of the
    single-series evaluation, so every value is bitwise the one a series
    evaluated alone gets. Modes with zero coefficients are left out. A series
    whose mode order conflicts with the shared one gets a pass of its own.
    """

    def __init__(self, series):
        self.consts = [f.const for f in series]
        # each pass: the position of each of its modes, and per mode the
        # (series index, a, b) terms that use it
        self.passes: list[tuple[dict[Mode, int], list[tuple[Mode, list]]]] = []
        for i, f in enumerate(series):
            live = [(k, ab) for k, ab in f.modes.items() if ab != (0.0, 0.0)]
            if not live:
                continue
            keys = [k for k, _ in live]
            for position, steps in self.passes:
                if _fits(position, keys):
                    break
            else:
                position, steps = {}, []
                self.passes.append((position, steps))
            for k, (a, b) in live:
                if k not in position:
                    position[k] = len(steps)
                    steps.append((k, []))
                steps[position[k]][1].append((i, a, b))

    def __call__(self, x, y) -> list:
        """Values at the points (x, y); x and y broadcast (point coordinates or grid axes).

        A series without live modes gives its constant as a Python float.
        """
        out = list(self.consts)
        for _, steps in self.passes:
            for (kx, ky), terms in steps:
                th = TWO_PI * (kx * x + ky * y)
                c = np.cos(th)
                s = np.sin(th, out=th) if isinstance(th, np.ndarray) else np.sin(th)
                for i, a, b in terms:
                    v = out[i]
                    if type(v) is float:  # the series' first term: a new array
                        v = v + a * c
                    else:
                        v += a * c
                    v += b * s
                    out[i] = v
        return out


def on_grid(series, n: int) -> list[np.ndarray]:
    """Values of several series on the n x n grid of `Fourier2D.grid`, from one pass.

    The grid is never built: each mode's phase comes from the broadcast axes.
    """
    t = np.arange(n) / n
    values = FieldPass(series)(t[:, None], t[None, :])
    return [np.full((n, n), v) if type(v) is float else v for v in values]
