"""Config parsing, metric construction from configs, and the CLI runner."""
import json
import warnings

import numpy as np
import pytest

from torusgeo import euclidean, evaluate
from torusgeo.cli import main
from torusgeo.config import (
    get_float,
    get_floats,
    get_int,
    get_pair,
    metric_from_config,
    parse_config,
    series_from_config,
)
from torusgeo.errors import ConfigError


# -- parsing ------------------------------------------------------------------

def test_parse_key_values_and_comments():
    cfg = parse_config("a = 1\n# comment\nb=  two  \n\n c.d = 3,4\n")
    assert cfg == {"a": "1", "b": "two", "c.d": "3,4"}


def test_parse_rejects_bare_line():
    with pytest.raises(ConfigError):
        parse_config("not a key value line")


def test_typed_getters():
    cfg = {"x": "2.5", "n": "3", "pair": "1,-2"}
    assert get_float(cfg, "x") == 2.5
    assert get_int(cfg, "n") == 3
    assert get_pair(cfg, "pair") == (1, -2)
    assert get_float(cfg, "missing", 7.0) == 7.0
    with pytest.raises(ConfigError):
        get_float(cfg, "missing")
    with pytest.raises(ConfigError):
        get_int(cfg, "x")


def test_series_from_config_modes():
    cfg = parse_config("f.const = 1.5\nf.mode_0,1 = 0.25,-0.5\nf.mode_2,-1 = 0.1,0.0\n")
    s = series_from_config(cfg, "f.")
    assert s.const == 1.5
    assert s.modes[(0, 1)] == (0.25, -0.5)
    pts = np.array([[0.2, 0.3]])
    expected = (1.5 + 0.25 * np.cos(2 * np.pi * 0.3) - 0.5 * np.sin(2 * np.pi * 0.3)
                + 0.1 * np.cos(2 * np.pi * (2 * 0.2 - 0.3)))
    assert s(pts)[0] == pytest.approx(float(expected))


def test_metric_from_config_variants():
    e = metric_from_config({"metric.variant": "euclidean"})
    assert evaluate(e, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    r = metric_from_config(parse_config(
        "metric.variant = randers\nmetric.beta = 0.5,0\n"))
    assert evaluate(r, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.5)

    c = metric_from_config(parse_config(
        "metric.variant = conformal\n"
        "metric.base.variant = euclidean\n"
        "metric.lambda.const = 4.0\n"))
    assert evaluate(c, (0.1, 0.9), (1.0, 0.0)) == pytest.approx(2.0)

    with pytest.raises(ConfigError):
        metric_from_config({"metric.variant": "hyperbolic"})


# -- runner -------------------------------------------------------------------

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


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
    assert main(["run", cfg, "--out", out, "--override", "trials=2", "--seed", "5"]) == 0
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
        get_float({"x": value}, "x")
    with pytest.raises(ConfigError):
        get_floats({"x": f"1.0,{value}"}, "x")
    with pytest.raises(ConfigError):
        series_from_config({"f.mode_0,1": f"0.5,{value}"}, "f.")


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


def test_run_consistency_constant_factor_trial_passes(tmp_path):
    # trial 16 at seed 1 draws a constant factor: its Lipschitz bound is 0 and
    # the gap is pure rounding (2.2e-16), which the bound must allow
    cfg = write(tmp_path, "bridge.cfg", "experiment = consistency\nseed = 1\ntrials = 17\n")
    out = str(tmp_path / "bridge.jsonl")
    assert main(["run", cfg, "--out", out]) == 0
    last = [r for r in read_report(out) if r.get("kind") == "consistency"][-1]
    assert 0.0 < last["gap"] <= last["bound"]


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


def test_cs_property_evaluates_each_loop_once(monkeypatch):
    from torusgeo import experiments, metrics
    calls, inside = [], []
    real_reparam = experiments.reparametrize_constant_speed

    def reparam(*args, **kwargs):
        inside.append(True)
        try:
            return real_reparam(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(experiments, "reparametrize_constant_speed", reparam)
    for cls in (metrics.RiemannianMetric, metrics.RandersMetric, metrics.ConformalMetric):
        def speed(self, x, v, _real=cls.speed):
            if not inside:
                calls.append(1)
            return _real(self, x, v)
        monkeypatch.setattr(cls, "speed", speed)
    records, checks = experiments.run_cs_property({"count": 3}, 0)
    assert all(checks.values())
    # per loop, outside the reparametrization: the input loop's action and
    # length (its cs_gap), then the reparametrized loop's action and length
    assert len(calls) == 3 * 4


def test_reports_reproducible_modulo_timestamp(tmp_path):
    cfg = write(tmp_path, "cs.cfg", "experiment = cs-property\ncount = 50\nseed = 7\n")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    la = a.read_bytes().splitlines()
    lb = b.read_bytes().splitlines()
    assert la[1:] == lb[1:]
    assert la[0] != lb[0] or la[0] == lb[0]  # timestamp line may differ
