"""The benchmark's checks reject wrong outputs.

Run from the root of the repository:
    python3 -m pytest perfbench/tests -q
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from checks import BridgeTrial, Field, Metric  # noqa: E402

T_VALUES = (0.0, 0.05, 0.1, 0.2)


def line_loop(y: float, n: int = 64, x0: float = 0.0):
    return [[x0 + i / n, y] for i in range(n)]


def uniqueness_record(t: float, y: float, best_length=None) -> dict:
    verts = line_loop(y)
    if best_length is None:
        best_length = checks.bump_length(np.array(verts), (1, 0), t)
    return {"kind": "uniqueness", "t": t, "spread": 0.5 if t == 0 else 0.008,
            "n_converged": 50, "best_length": best_length, "mean_height": y,
            "loop": {"winding": [1, 0], "vertices": verts}}


def test_uniqueness_accepts_the_trough_line():
    records = [uniqueness_record(t, 0.25) for t in T_VALUES]
    out = checks.check_uniqueness(records, T_VALUES, 50)
    assert (out.attempted, out.failed, out.errors) == (4, 0, [])


@pytest.mark.parametrize("claimed", ["one", "true"])
def test_uniqueness_rejects_a_loop_moved_to_the_crest(claimed):
    # at y = 3/4 the factor is 1 + t: the loop is longer and off the trough
    t = 0.1
    best = 1.0 if claimed == "one" else math.sqrt(1.0 + t)
    records = [uniqueness_record(0.0, 0.25)] + [uniqueness_record(t, 0.75, best)]
    out = checks.check_uniqueness(records, (0.0, t), 50)
    assert any("trough" in e for e in out.errors)
    if claimed == "one":
        assert any("F-length" in e for e in out.errors)
    else:
        assert any("above 1 + 5e-3" in e for e in out.errors)


def test_uniqueness_rejects_a_collapsed_flat_spread_and_counts_unconverged_starts():
    flat = uniqueness_record(0.0, 0.25)
    flat["spread"] = 0.01
    bump = uniqueness_record(0.2, 0.25)
    bump["n_converged"] = 49
    out = checks.check_uniqueness([flat, bump], (0.0, 0.2), 50)
    assert out.failed == 1
    assert any("spread" in e for e in out.errors)
    two_lines = uniqueness_record(0.2, 0.25)
    two_lines["spread"] = 0.5
    assert any("vertex spacing" in e for e in checks.check_uniqueness([two_lines], (0.2,), 50).errors)


def test_uniqueness_rejects_a_length_below_the_flat_minimum():
    rec = uniqueness_record(0.0, 0.25, best_length=1.0 - 1e-9)
    rec["loop"]["vertices"] = [[x, y] for x, y in np.array(line_loop(0.25)) * [1 - 1e-9, 1]]
    out = checks.check_uniqueness([rec], (0.0,), 50)
    assert any("flat minimum" in e for e in out.errors)


def test_reparam_accepts_an_equally_spaced_line_and_rejects_a_vertex_off_the_polygon():
    verts = np.array(line_loop(0.3, n=16))
    euclid = Metric()
    assert checks.check_reparam(euclid, verts, (1, 0), verts, (1, 0)) == []
    pushed = verts.copy()
    pushed[5, 1] += 1e-3
    errors = checks.check_reparam(euclid, verts, (1, 0), pushed, (1, 0))
    assert any("off the input polygon" in e for e in errors)


def test_reparam_rejects_a_changed_class_and_unequal_speeds():
    verts = np.array(line_loop(0.3, n=16))
    assert checks.check_reparam(Metric(), verts, (1, 0), verts, (1, 1))
    # along the line, but with one segment twice as long as the rest
    u = np.arange(16) / 16.0
    u[1:] += 0.5 / 16
    uneven = np.stack([u, np.full(16, 0.3)], axis=1)
    errors = checks.check_reparam(Metric(), verts, (1, 0), uneven, (1, 0))
    assert any("Cauchy-Schwarz" in e for e in errors)


def bridge_record(trial: BridgeTrial, resolution: int = 256) -> dict:
    """A record as a correct program writes it, from the benchmark's own computation."""
    a = checks.loop_action(trial.metric, trial.verts, trial.winding)
    bound = trial.factor.lipschitz_bound() * math.sqrt(2.0) / resolution * a
    return {"kind": "consistency", "trial": 0, "gap": checks.own_gap(trial, resolution),
            "bound": bound, "mass_error": 0.0, "const_gap": 0.0}


def a_trial(factor=None) -> BridgeTrial:
    verts = np.array(line_loop(0.3, n=32)) + 0.01 * np.sin(np.arange(32))[:, None]
    factor = factor or Field(1.0, [(1, 1, 0.2, -0.1)])
    return BridgeTrial(Metric(beta=(0.2, 0.1)), factor, verts, (1, 0), 1.5)


def test_bridge_accepts_a_correct_trial_and_rejects_a_mass_off_the_action():
    trial = a_trial()
    a = checks.loop_action(trial.metric, trial.verts, trial.winding)
    rec = bridge_record(trial)
    assert checks.check_bridge_trial(trial, rec, a, trial.kappa * a, 256) == []
    errors = checks.check_bridge_trial(trial, rec, a * (1 + 1e-9), trial.kappa * a, 256)
    assert any("pushed mass" in e for e in errors)


def test_bridge_rejects_a_wrong_constant_pairing_and_a_gap_past_the_bound():
    trial = a_trial()
    a = checks.loop_action(trial.metric, trial.verts, trial.winding)
    rec = bridge_record(trial)
    errors = checks.check_bridge_trial(trial, rec, a, (trial.kappa + 1e-6) * a, 256)
    assert any("kappa" in e for e in errors)
    rec["gap"] = 10 * trial.factor.lipschitz_bound() * a / 256
    errors = checks.check_bridge_trial(trial, rec, a, trial.kappa * a, 256)
    assert any("certified bound" in e for e in errors)


def test_a_constant_factor_trial_flagged_by_the_experiment_counts_as_failed():
    trial = a_trial(Field(1.0))
    a = checks.loop_action(trial.metric, trial.verts, trial.winding)
    rec = dict(bridge_record(trial), gap=2e-16, bound=0.0)
    assert checks.flagged(rec)
    probe = checks.check_bridge([rec], [trial], [(a, trial.kappa * a)], 256, count_flagged=True)
    assert (probe.attempted, probe.failed, probe.errors) == (1, 1, [])
    # judged by the certified bound alone, the rounding-level gap is correct
    seeded = checks.check_bridge([rec], [trial], [(a, trial.kappa * a)], 256, count_flagged=False)
    assert (seeded.attempted, seeded.failed, seeded.errors) == (1, 0, [])


def test_mane_rejects_a_shift_past_delta_and_a_wide_argmin():
    body = np.random.default_rng(0).standard_normal((10, 3))
    diam = checks.diameter(body)
    good = {"kind": "mane-polytope", "trial": 0, "success": True, "dimension": 3,
            "n_vertices": 10, "diam_before": diam, "diam_after": 0.0, "eps": 1e-3 * diam,
            "t": 0.1, "shift": 0.1}
    assert checks.check_mane([good], [body], 0.1, 1e-3).errors == []
    over = dict(good, shift=float(np.nextafter(0.1, 1.0)))
    assert checks.check_mane([over], [body], 0.1, 1e-3).errors
    wide = dict(good, diam_after=2e-3 * diam)
    assert checks.check_mane([wide], [body], 0.1, 1e-3).errors
    failed = checks.check_mane([dict(good, success=False)], [body], 0.1, 1e-3)
    assert (failed.failed, failed.errors) == (1, [])


def test_argmin_scan_rejects_a_wrong_face():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert checks.check_argmin(0.0, (0, 2), [1.0, 0.0], square) == []
    assert checks.check_argmin(0.0, (0,), [1.0, 0.0], square)
    assert checks.check_argmin(-1.0, (0, 2), [1.0, 0.0], square)


@pytest.mark.parametrize("seed", [0, 1])
def test_replays_draw_the_experiments_inputs(seed):
    experiments = pytest.importorskip("torusgeo.experiments")
    rng = np.random.default_rng(seed)
    for trial in checks.replay_consistency(seed, 20):
        experiments.random_metric(rng)
        factor = experiments.random_factor(rng)
        loop = experiments.random_loop(rng, n_min=16, n_max=64, jitter=0.15)
        kappa = float(rng.uniform(0.5, 2.0))
        assert np.array_equal(loop.vertices, trial.verts) and loop.winding == trial.winding
        assert kappa == trial.kappa
        pts = np.random.default_rng(7).random((50, 2))
        assert np.allclose(factor(pts), trial.factor(pts), rtol=0, atol=1e-14)
    rng = np.random.default_rng(seed)
    for body in checks.replay_bodies(seed, 20):
        assert np.array_equal(experiments.random_body(rng).vertices, body)
        rng.integers(2 ** 31)
