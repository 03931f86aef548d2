"""Grid measures on T^2 and the speed-squared-weighted pushforward.

The pushforward drops each tangent-space atom (x, v) of a loop measure onto
the grid cell containing x with weight F^2(x, v)/N. Nearest-cell deposition
keeps the mass identity exact: the total mass is the discrete action of the
generating loop, term by term. Pairing a conformal factor against the
pushforward then recovers the rescaled action up to cell quantization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, ResolutionMismatchError
from .fourier import Fourier2D, on_axes
from .loops import DiscreteLoop, LoopMeasure, action
from .metrics import ConformalFactor, ConformalMetric, FinslerMetric


class GridMeasure:
    """Nonnegative cell weights on an m x m grid of T^2."""

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputDomainError("weights must be a square (m, m) array")
        if not np.all(np.isfinite(w)) or w.min() < 0.0:
            raise InputDomainError("weights must be finite and nonnegative")
        w.setflags(write=False)
        self.weights = w

    @property
    def resolution(self) -> int:
        return self.weights.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __repr__(self):
        return f"GridMeasure(resolution={self.resolution}, total_mass={self.total_mass:g})"


def pushforward(metric: FinslerMetric, mu: LoopMeasure, resolution: int) -> GridMeasure:
    """Project a loop measure to the base, weighting each atom by F^2."""
    if resolution < 8:
        raise InputDomainError("resolution must be >= 8")
    w = mu.weight * metric.speed(mu.points, mu.velocities) ** 2
    idx = np.minimum((mu.points * resolution).astype(int), resolution - 1)
    grid = np.zeros((resolution, resolution))
    np.add.at(grid, (idx[:, 0], idx[:, 1]), w)
    return GridMeasure(grid)


def pairing(factor: Fourier2D, mu: GridMeasure) -> float:
    """Integral of a series against the grid measure (cell-center quadrature).

    The series' values at the cell centres are one product of 1-D tables
    on the centres' axes (`fourier.on_axes`); the grid is never built.
    """
    t = (np.arange(mu.resolution) + 0.5) / mu.resolution
    (values,) = on_axes((factor,), t, t)
    return float((values * mu.weights).sum())


def action_consistency(metric: FinslerMetric, factor: ConformalFactor, loop: DiscreteLoop,
                       grid: GridMeasure) -> float:
    """|rescaled action of the loop - pairing(factor, grid)|, grid the loop's pushforward.

    Bounded by Lip(factor) * (cell diagonal / 2) * total mass: the pairing
    evaluates the factor at cell centers, the action at segment midpoints.
    """
    return abs(action(ConformalMetric(metric, factor), loop) - pairing(factor, grid))


@dataclass(frozen=True)
class SeparationVerdict:
    equal: bool
    witness: tuple[int, int] | None
    max_difference: float


def separation_test(mu1: GridMeasure, mu2: GridMeasure, tol: float) -> SeparationVerdict:
    """Decide whether two grid measures agree cellwise, else return a witness cell.

    A bump supported on the witness cell integrates differently against the
    two measures, so they are distinguished by a nonnegative test function.
    """
    if mu1.resolution != mu2.resolution:
        raise ResolutionMismatchError(
            f"resolutions differ: {mu1.resolution} vs {mu2.resolution}")
    diff = np.abs(mu1.weights - mu2.weights)
    top = float(diff.max())
    bound = tol * (1.0 + max(mu1.total_mass, mu2.total_mass))
    if top <= bound:
        return SeparationVerdict(equal=True, witness=None, max_difference=top)
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return SeparationVerdict(equal=False, witness=(int(i), int(j)), max_difference=top)
