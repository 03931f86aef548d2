"""Config parsing and the CLI runner."""
import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from torusgeo import ConvexBody, DiscreteLoop, cs_gap
from torusgeo.cli import main
from torusgeo.config import get_float, get_floats, get_int, parse_config
from torusgeo.errors import ConfigError


# -- parsing ------------------------------------------------------------------

def test_parse_key_values_and_comments():
    cfg = parse_config("a = 1\n# comment\nb=  two  \n\n c.d = 3,4\n")
    assert cfg == {"a": "1", "b": "two", "c.d": "3,4"}


def test_parse_rejects_bare_line():
    with pytest.raises(ConfigError):
        parse_config("not a key value line")


def test_typed_getters():
    cfg = {"x": "2.5", "n": "3"}
    assert get_float(cfg, "x", 0.0) == 2.5
    assert get_int(cfg, "n", 0) == 3
    assert get_float(cfg, "missing", 7.0) == 7.0
    assert get_int(cfg, "missing", 4) == 4
    assert get_floats(cfg, "missing", (1.0, 2.0)) == [1.0, 2.0]
    with pytest.raises(ConfigError):
        get_int(cfg, "x", 0)


# -- runner -------------------------------------------------------------------

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


def readme_ini_blocks():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```ini\n(.*?)```", text, flags=re.DOTALL)


def test_readme_experiment_example_runs(tmp_path):
    (experiment,) = readme_ini_blocks()
    out = str(tmp_path / "readme.jsonl")
    assert main(["run", write(tmp_path, "readme.cfg", experiment), "--out", out]) == 0
    assert read_report(out)[-1]["summary"]["pass"] is True


def test_run_semicontinuity_small(tmp_path):
    cfg = write(tmp_path, "semi.cfg", "experiment = semicontinuity\ntrials = 3\nseed = 1\n")
    out = str(tmp_path / "semi.jsonl")
    assert main(["run", cfg, "--out", out]) == 0
    rows = read_report(out)
    assert "timestamp" in rows[0]
    assert rows[-1]["summary"]["pass"] is True


def test_run_mane_small(tmp_path):
    cfg = write(tmp_path, "mane.cfg", "experiment = mane-polytope\ntrials = 5\nseed = 2\n")
    out = str(tmp_path / "mane.jsonl")
    assert main(["run", cfg, "--out", out]) == 0
    recs = [r for r in read_report(out) if r.get("kind") == "mane-polytope"]
    assert len(recs) == 5
    assert all(r["success"] for r in recs)


def test_run_overrides_and_seed_flag(tmp_path):
    cfg = write(tmp_path, "semi.cfg", "experiment = semicontinuity\ntrials = 9\nseed = 1\n")
    out = str(tmp_path / "o.jsonl")
    assert main(["run", cfg, "--out", out, "--override", "trials=2", "--override", "seed=5"]) == 0
    rows = read_report(out)
    echoed = rows[1]["config"]
    assert echoed["trials"] == "2"
    assert echoed["seed"] == "5"


def test_run_unknown_experiment_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "experiment = nonsense\n")
    assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 2


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2


def test_run_solver_failure_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "fail.cfg",
                "experiment = uniqueness\n"
                "t_values = 0.2\n"
                "solver.max_iters = 1\n"
                "solver.num_starts = 2\n")
    assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("torusgeo: ") and err.count("\n") == 1
    assert "no descent run converged" in err


@pytest.mark.parametrize("experiment", ["uniqueness", "speed-cap"])
def test_run_zero_max_iters_exits_2(tmp_path, capsys, experiment):
    cfg = write(tmp_path, "zero.cfg", f"experiment = {experiment}\nsolver.max_iters = 0\n")
    assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "max_iters must be >= 1" in capsys.readouterr().err


def test_run_non_finite_integer_exits_2(tmp_path):
    cfg = write(tmp_path, "big.cfg", "experiment = uniqueness\nsolver.n_vertices = 1e400\n")
    assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 2


@pytest.mark.parametrize("text", [
    "experiment = mane-polytope\neps_rel = inf\n",
    "experiment = uniqueness\nsolver.grad_tol = inf\n",
    "experiment = uniqueness\nt_values = 0.0,nan\n",
])
def test_run_non_finite_number_exits_2(tmp_path, capsys, text):
    cfg = write(tmp_path, "nonfinite.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("torusgeo: error: ") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_getters_reject_non_finite(value):
    with pytest.raises(ConfigError):
        get_float({"x": value}, "x", 0.0)
    with pytest.raises(ConfigError):
        get_floats({"x": f"1.0,{value}"}, "x", [0.0])


def test_run_unallocatable_size_exits_2(tmp_path, capsys):
    # the starts would take 711 PiB: numpy refuses at once and allocates nothing
    cfg = write(tmp_path, "huge.cfg", "experiment = uniqueness\nsolver.n_vertices = 1e15\n")
    assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("torusgeo: error: ") and err.count("\n") == 1
    assert "Unable to allocate" in err


def test_run_zero_count_exits_2(tmp_path):
    cfg = write(tmp_path, "cs.cfg", "experiment = cs-property\ncount = 0\n")
    assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 2


@pytest.mark.parametrize("experiment", ["consistency", "mane-polytope", "semicontinuity"])
def test_run_zero_trials_exits_2(tmp_path, experiment):
    cfg = write(tmp_path, "zero.cfg", f"experiment = {experiment}\ntrials = 0\n")
    assert main(["run", cfg, "--out", str(tmp_path / "x.jsonl")]) == 2


@pytest.mark.parametrize("setting", ["tail_k = 0", "tail_k = -3", "tail_k = 25",
                                     "k_max = 5", "k_max = 0", "k_max = 1075", "k_max = 2000"])
def test_run_semicontinuity_tail_outside_scales_exits_2(tmp_path, capsys, setting):
    # the tail starts at scale 2^-tail_k of 2^-1 ... 2^-k_max (default 10 of 20)
    cfg = write(tmp_path, "tail.cfg", f"experiment = semicontinuity\ntrials = 2\n{setting}\n")
    out = tmp_path / "tail.jsonl"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("torusgeo: error: key ") and err.count("\n") == 1
    assert setting.split()[0] in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("experiment = consistency\nresolution = 0\n",
     "key 'resolution': expected an integer >= 8, got 0"),
    ("experiment = mane-polytope\ndelta = -1\n",
     "key 'delta': expected a positive number, got -1.0"),
    ("experiment = mane-polytope\neps_rel = 0\n",
     "key 'eps_rel': expected a positive number, got 0.0"),
], ids=["resolution", "delta", "eps_rel"])
def test_run_out_of_range_value_exits_2(tmp_path, capsys, text, message):
    # rejected as the config is read, before any trial is drawn
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "bad.jsonl"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"torusgeo: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("values", ["0.2,0.0", "0.1,0.1", "-0.1,0.2", "0.0"])
def test_run_uniqueness_t_values_out_of_order_exits_2(tmp_path, capsys, values):
    # the perturbed checks read the last t, spread_monotone the list in order
    cfg = write(tmp_path, "uni.cfg", f"experiment = uniqueness\nt_values = {values}\n")
    out = tmp_path / "uni.jsonl"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("torusgeo: error: key 't_values'") and err.count("\n") == 1
    assert not out.exists()


def test_integer_keys_exact_past_2_pow_53(tmp_path):
    # a float would read 2^53 + 1 as 2^53
    assert get_int({"seed": str(2 ** 53 + 1)}, "seed", 0) == 2 ** 53 + 1
    assert get_int({"n": "1e15"}, "n", 0) == 10 ** 15
    reports = []
    for seed in (2 ** 53, 2 ** 53 + 1):
        cfg = write(tmp_path, "mane.cfg", f"experiment = mane-polytope\ntrials = 3\nseed = {seed}\n")
        out = str(tmp_path / f"{seed}.jsonl")
        assert main(["run", cfg, "--out", out]) == 0
        reports.append(read_report(out)[1:])
    assert reports[0][0]["config"]["seed"] == str(2 ** 53)
    assert reports[0][1:] != reports[1][1:]


@pytest.mark.parametrize("text, flags, unread", [
    ("experiment = speed-cap\nmetric.variant = randers\nmetric.beta = 0.3,0.0\n"
     "solver.num_start = 3\n", [], "'speed-cap': metric.beta, metric.variant, solver.num_start"),
    ("experiment = speed-cap\n", ["--override", "solver.num_start=3"],
     "'speed-cap': solver.num_start"),
    ("experiment = uniqueness\nt_values = 0.2\nsolver.num_starts = 2\ncount = 5\n", [],
     "'uniqueness': count"),
    # speed-cap solves one start per case and clusters nothing
    ("experiment = speed-cap\nsolver.num_starts = 7\n", [], "'speed-cap': solver.num_starts"),
    ("experiment = speed-cap\nsolver.cluster_tol = 0.3\n", [], "'speed-cap': solver.cluster_tol"),
    # the bump's trough is fixed at y = 0.25
    ("experiment = uniqueness\nt_values = 0.2\nsolver.num_starts = 2\nbump_center = 0.5\n", [],
     "'uniqueness': bump_center"),
    # uniqueness runs the class (1,0) only: see `run_uniqueness`
    ("experiment = uniqueness\nt_values = 0.2\nsolver.num_starts = 2\ngamma = 1\n", [],
     "'uniqueness': gamma"),
], ids=["metric-keys-and-typo", "override-typo", "other-experiments-key",
        "speed-cap-num-starts", "speed-cap-cluster-tol", "bump-center", "gamma"])
def test_run_unread_key_exits_2(tmp_path, capsys, text, flags, unread):
    cfg = write(tmp_path, "unread.cfg", text)
    out = tmp_path / "unread.jsonl"
    assert main(["run", cfg, "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err == f"torusgeo: error: keys not read by experiment {unread}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, flags, message", [
    ("experiment = uniqueness\nt_values = 0.1,x\n", [], "key 't_values': not a number list"),
    ("experiment = uniqueness\nsolver.grad_tol = tiny\n", [],
     "key 'solver.grad_tol': not a number"),
    ("experiment = uniqueness\n", ["--override", "foo"], "--override expects KEY=VALUE"),
], ids=["float-list", "float", "override"])
def test_run_malformed_value_exits_2(tmp_path, capsys, text, flags, message):
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "bad.jsonl"
    assert main(["run", cfg, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"torusgeo: error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_run_consistency_constant_factor_trial_passes(tmp_path):
    # trial 28 at seed 36 draws a constant factor: its Lipschitz bound is 0 and
    # the gap is pure rounding (7.1e-15), which the bound must allow
    cfg = write(tmp_path, "bridge.cfg", "experiment = consistency\nseed = 36\ntrials = 29\n")
    out = str(tmp_path / "bridge.jsonl")
    assert main(["run", cfg, "--out", out]) == 0
    last = [r for r in read_report(out) if r.get("kind") == "consistency"][-1]
    assert 0.0 < last["gap"] <= last["bound"]


def test_run_semicontinuity_past_a_breakpoint_passes(tmp_path):
    # at seed 4, trial 100's value error grows again past a breakpoint of the
    # concave m(f + s p), at a scale above the certified one
    cfg = write(tmp_path, "semi.cfg", "experiment = semicontinuity\nseed = 4\ntrials = 101\n")
    assert main(["run", cfg, "--out", str(tmp_path / "semi.jsonl")]) == 0


def test_plot_data_uniqueness(tmp_path):
    cfg = write(tmp_path, "uni.cfg",
                "experiment = uniqueness\n"
                "t_values = 0.1,0.2\n"
                "solver.num_starts = 4\n"
                "solver.n_vertices = 32\n"
                "seed = 3\n")
    out = str(tmp_path / "uni.jsonl")
    main(["run", cfg, "--out", out])
    plots = tmp_path / "plots"
    assert main(["plot-data", out, "--out", str(plots)]) == 0
    spread = (plots / "uniqueness_spread.csv").read_text().strip().splitlines()
    assert spread[0] == "t,spread"
    assert len(spread) == 3
    loops = (plots / "loops.csv").read_text().strip().splitlines()
    assert loops[0] == "record,vertex,x,y"
    assert len(loops) > 1


def test_plot_data_empty_report_headers_only(tmp_path):
    rep = tmp_path / "empty.jsonl"
    rep.write_text(json.dumps({"timestamp": "x"}) + "\n", encoding="utf-8")
    plots = tmp_path / "plots"
    assert main(["plot-data", str(rep), "--out", str(plots)]) == 0
    for name in ("uniqueness_spread.csv", "mane_trials.csv", "loops.csv"):
        lines = (plots / name).read_text().strip().splitlines()
        assert len(lines) == 1


@pytest.mark.parametrize("line, error", [
    ("5", "TypeError: argument of type 'int' is not iterable"),
    ('{"kind": "uniqueness"}', "KeyError: 't'"),
], ids=["not-an-object", "record-without-its-fields"])
def test_plot_data_not_a_report_exits_2(tmp_path, capsys, line, error):
    rep = tmp_path / "bad.jsonl"
    rep.write_text(json.dumps({"timestamp": "x"}) + "\n" + line + "\n", encoding="utf-8")
    plots = tmp_path / "plots"
    assert main(["plot-data", str(rep), "--out", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err == f"torusgeo: error: {rep} is not a report: {error}\n"
    assert not plots.exists()


def test_cs_property_evaluates_each_loop_once(monkeypatch):
    from torusgeo import experiments, metrics
    calls, inside, batches = [], [], []
    real_reparam = experiments.reparametrize_rows

    def reparam(metric, x, winding, n):
        inside.append(True)
        batches.append(len(n))
        try:
            return real_reparam(metric, x, winding, n)
        finally:
            inside.pop()

    monkeypatch.setattr(experiments, "reparametrize_rows", reparam)
    for cls in (metrics.RiemannianMetric, metrics.RandersMetric, metrics.ConformalMetric):
        def speed(self, x, v, _real=cls.speed):
            if not inside:
                calls.append(1)
            return _real(self, x, v)
        monkeypatch.setattr(cls, "speed", speed)
    records, checks = experiments.run_cs_property({"count": 30}, 0)
    assert all(checks.values())
    # one batch per metric; the inputs' gaps come from the reparametrization's
    # first trial and the residuals from its results, so no evaluation is outside it
    assert batches == [10, 10, 10]
    assert len(calls) == 0


@pytest.mark.parametrize("count", [1, 2, 61])
def test_cs_property_min_gap_is_the_least_drawn_gap(count):
    # counts 1 and 2 leave two and then one metric batch empty
    from torusgeo import experiments
    metrics = experiments.cs_property_metrics()
    rng = np.random.default_rng(4)
    loops = [experiments.random_loop(rng) for _ in range(count)]
    [record], checks = experiments.run_cs_property({"count": count}, 4)
    assert all(checks.values())
    assert record["min_gap"] == min(cs_gap(metrics[i % 3], loop) for i, loop in enumerate(loops))
    assert record["min_gap"] > 0.0
    assert -1e-6 <= record["max_relative_gap_after_reparam"] <= 1e-6


def outer_speed_calls(monkeypatch) -> list:
    """Each metric's speed calls, a conformal metric's call of its base's speed not counted."""
    from torusgeo import metrics
    calls, depth = [], []
    for cls in (metrics.RiemannianMetric, metrics.RandersMetric, metrics.ConformalMetric):
        def speed(self, x, v, _real=cls.speed):
            if not depth:
                calls.append(1)
            depth.append(1)
            try:
                return _real(self, x, v)
            finally:
                depth.pop()
        monkeypatch.setattr(cls, "speed", speed)
    return calls


def test_consistency_pushes_each_loop_forward_once(monkeypatch):
    from torusgeo import experiments, measures
    pushed, drawn = [], []

    def push(*args, _real=experiments.pushforward):
        pushed.append(len(drawn))
        return _real(*args)

    def draw(*args, _real=experiments.random_loop, **kwargs):
        drawn.append(1)
        return _real(*args, **kwargs)

    for module in (experiments, measures):
        monkeypatch.setattr(module, "pushforward", push)
    monkeypatch.setattr(experiments, "random_loop", draw)
    speeds = outer_speed_calls(monkeypatch)
    records, checks = experiments.run_consistency({"trials": "10"}, 1)
    assert all(checks.values())
    # one grid per trial serves the gap, the mass identity and the constant factor's gap
    assert pushed == list(range(1, 11))
    # per trial: the loop's action, the factor's and the constant's rescaled
    # actions, and the pushforward's weights
    assert len(speeds) == 10 * 4


def test_mane_polytope_reads_the_argmin_sets_shrink_argmin_computed(monkeypatch):
    from torusgeo import experiments, polytope
    blocks, batches, shrinking = [], [], []

    def argmin_sets(vals, bodies, tol, _real=polytope._argmin_sets):
        blocks.append((bool(shrinking), len(vals)))
        return _real(vals, bodies, tol)

    def shrink(*args, _real=experiments.shrink_argmin_batch):
        shrinking.append(1)
        batches.append(len(args[0]))
        try:
            return _real(*args)
        finally:
            shrinking.pop()

    # argmin_set is the block of one of _argmin_sets, so this sees every argmin set
    monkeypatch.setattr(polytope, "_argmin_sets", argmin_sets)
    monkeypatch.setattr(experiments, "shrink_argmin_batch", shrink)
    block = experiments._MANE_BLOCK
    for cfg, sizes in [({}, [100]), ({"trials": str(block + 50)}, [block, 50])]:
        blocks.clear()
        batches.clear()
        records, checks = experiments.run_mane_polytope(cfg, 2)
        assert all(checks.values())
        assert batches == sizes
        assert all(inside for inside, _ in blocks)  # every argmin set is the batch's own
        # per batch: f's argmin sets, one round of exposing draws and one tested step
        assert [n for _, n in blocks] == [n for n in sizes for _ in range(3)]


@pytest.mark.parametrize("wrong", [False, True])
def test_mane_polytope_oracle_flags_a_wrong_active_set(monkeypatch, wrong):
    from torusgeo import experiments
    from torusgeo.errors import PerturbationFailureError

    def shrink(*args, _real=experiments.shrink_argmin_batch):
        out = _real(*args)
        out[3] = PerturbationFailureError("injected")  # has no functional: skipped, not compared
        if wrong:
            after = out[5].after
            extra = min(set(range(len(after.values))) - set(after.active_indices))
            out[5] = dataclasses.replace(out[5], after=dataclasses.replace(
                after, active_indices=after.active_indices + (extra,)))
        return out

    monkeypatch.setattr(experiments, "shrink_argmin_batch", shrink)
    records, checks = experiments.run_mane_polytope({"trials": "10"}, 2)
    assert checks == {"all_trials_succeed": False, "argmin_matches_bruteforce": not wrong}
    assert records[3] == {"kind": "mane-polytope", "trial": 3, "success": False,
                          "error": "injected"}
    assert all(r["success"] for i, r in enumerate(records) if i != 3)


def test_input_draws_keep_their_order_and_bits():
    from torusgeo import experiments

    def old_loop(rng, n_min, n_max, jitter):
        # a straight loop, then its jittered copy: two constructions per loop
        n = int(rng.integers(n_min, n_max + 1))
        while True:
            p, q = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            if (p, q) != (0, 0):
                break
        base = DiscreteLoop.straight((p, q), n, offset=rng.random(2))
        amp = rng.uniform(0.0, jitter) * np.hypot(p, q) / n
        return DiscreteLoop(base.vertices + rng.uniform(-amp, amp, size=(n, 2)), (p, q))

    def old_body(rng):
        n = int(rng.integers(2, 9))
        return ConvexBody(rng.standard_normal((int(rng.integers(n + 1, 41)), n)))

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable

    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for args in [(8, 48, 0.45), (16, 64, 0.15)]:
            loop, old = experiments.random_loop(rng, *args), old_loop(ref, *args)
            assert same(loop.vertices, old.vertices) and loop.winding == old.winding
        for _ in range(3):
            assert same(experiments.random_body(rng).vertices, old_body(ref).vertices)
        # the block drawer: row by row, each loop's vertices, then padding
        for args in [(8, 48, 0.45), (16, 64, 0.15)]:
            x, winding, n = experiments.random_loops(rng, 5, *args)
            assert x.shape == (5, args[1], 2)
            for row, w, k in zip(x, winding, n):
                old = old_loop(ref, *args)
                assert row[:k].tobytes() == old.vertices.tobytes()
                assert tuple(w) == old.winding
        assert rng.random() == ref.random()


def test_speed_cap_lengths_exact_catches_a_long_loop(monkeypatch):
    from torusgeo import experiments

    def solve(metric, gamma, config, _real=experiments.shortest_loop):
        # the bump's crest line is a closed geodesic of length sqrt(1.2), not its trough's 1
        crest = DiscreteLoop.straight(gamma, config.n_vertices, offset=(0.0, 0.75))
        return _real(metric, gamma, config,
                     crest if isinstance(metric, experiments.ConformalMetric) else None)

    monkeypatch.setattr(experiments, "shortest_loop", solve)
    records, checks = experiments.run_speed_cap({}, 0)
    assert records[-1]["length"] == pytest.approx(np.sqrt(1.2))
    assert checks == {"all_caps_respected": True, "lengths_exact": False}


def test_reports_reproducible_modulo_timestamp(tmp_path):
    cfg = write(tmp_path, "cs.cfg", "experiment = cs-property\ncount = 50\nseed = 7\n")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    la = a.read_bytes().splitlines()
    lb = b.read_bytes().splitlines()
    assert la[1:] == lb[1:]
    assert json.loads(la[0]).keys() == json.loads(lb[0]).keys() == {"timestamp"}
