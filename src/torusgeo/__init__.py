"""Shortest closed Finsler geodesics on the flat 2-torus, and how a small
conformal perturbation makes them unique.

The package has three legs: discrete loops and their length/action on T^2
(`loops`, `solver`), an argmin-shrinking engine over convex polytopes
(`polytope`), and the measure bridge tying the two together (`measures`).
"""
from .fourier import Fourier2D
from .metrics import (
    ConformalFactor,
    ConformalMetric,
    RandersMetric,
    RiemannianMetric,
    comparison_constant,
    euclidean,
    evaluate,
    seminorm_distance,
    verify_convexity,
)
from .loops import (
    DiscreteLoop,
    LoopMeasure,
    action,
    cs_gap,
    length,
    loop_measure,
    reparametrize_batch,
    reparametrize_constant_speed,
)
from .solver import (
    MinimizerReport,
    SolveResult,
    SolverConfig,
    action_gradient,
    loop_distance,
    min_reference_length,
    minimizer_set,
    shortest_loop,
    speed_bound,
    verify_speed_cap,
)
from .polytope import (
    ArgminSet,
    ConvexBody,
    Functional,
    argmin_set,
    exposing_functional,
    semicontinuity_probe,
    shrink_argmin,
    uniqueness_fraction,
)
from .measures import (
    GridMeasure,
    action_consistency,
    pairing,
    pushforward,
    separation_test,
)

__version__ = "0.1.0"
