"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import heavytail_lmc
from heavytail_lmc import (
    BoundReport,
    Gaussian,
    GenCauchy,
    InputValidationError,
    Sublinear,
    beta_for_spec,
    converse_pi_check,
    default_test_functions,
    weighted_pi_check,
    wpi_check,
)
from heavytail_lmc import cli, fi_verify, sampler, targets
from heavytail_lmc.cli import (
    ExperimentConfig,
    assemble_upper_bound,
    config_from_json,
    main,
    phase_threshold,
)

PHASE_HEADER = ("family,alpha,nu,d,h,sigma2,delta0_bound,"
                "iters_measured,iters_lower_bound,iters_upper_bound")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_experiment_config_validation():
    spec = Gaussian(d=1)
    ExperimentConfig(spec=spec)  # defaults are valid
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, sigma2_list=())
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, sigma2_list=(4.0, 4.0))
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, sigma2_list=(4.0, 2.0))
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, q=1.0)
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, q=3.0, q_prime=2.0)
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, eps=0.0)
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, h=0.0)
    with pytest.raises(InputValidationError):
        ExperimentConfig(spec=spec, n_chains=0)
    # direct construction checks types as a JSON config does
    for field, value, message in [
            ("record_every", 2.5, "record_every must be an integer"),
            ("n_iters", True, "n_iters must be an integer"),
            ("seed", -1, "seed must be >= 0"),
            ("q", "2", "q must be a number"),
            ("sigma2_list", 4.0, "sigma2_list must be a list of numbers")]:
        with pytest.raises(InputValidationError, match=message):
            ExperimentConfig(spec=spec, **{field: value})


@pytest.mark.parametrize("command", ["sample", "phase-transition"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = main([command, "--family", "gaussian", "--d", "1", "--sigma2", "4",
               *SAMPLE_FLAGS, "--seed", "-1", "--output-dir", str(out)])
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "phase-transition"])
def test_an_infinite_eps_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = main([command, "--family", "gaussian", "--d", "1", "--sigma2", "4",
               *SAMPLE_FLAGS, "--eps", "inf", "--output-dir", str(out)])
    assert rc == 2
    assert "eps must be a positive real, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_phase_transition_refuses_eps_above_one_before_any_leg(tmp_path, capsys):
    """The sweep's bounds need eps <= 1, so it refuses eps = 2 before its
    Gaussian leg runs; sample, which computes no bound, still runs."""
    out = tmp_path / "out"
    rc = main(["phase-transition", "--family", "sublinear", "--alpha", "0.5",
               "--d", "2", "--sigma2", "16", *SAMPLE_FLAGS, "--eps", "2",
               "--output-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "eps must lie in (0, 1], got 2.0" in err
    assert "leg 1/" not in err
    assert not out.exists()
    assert main(["sample", "--family", "gaussian", "--d", "1", "--sigma2", "4",
                 *SAMPLE_FLAGS, "--eps", "2", "--output-dir", str(out)]) == 0


@pytest.mark.parametrize("flags", [[], ["--family", "gaussian"]],
                         ids=["config-only", "with-family"])
def test_a_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, flags):
    path, out = tmp_path / "list.json", tmp_path / "out"
    path.write_text("[1, 2]")
    rc = main(["sample", "--config", str(path), *flags, "--output-dir", str(out)])
    assert rc == 2
    assert "config JSON must be an object" in capsys.readouterr().err
    assert not out.exists()


def test_config_json_roundtrip():
    cfg = ExperimentConfig(
        spec=GenCauchy(d=2, nu=3.0), q=2.5, q_prime=math.inf, eps=0.5,
        sigma2_list=(2.0, 8.0), h=5e-3, n_chains=64, n_iters=100,
        record_every=5, seed=11, output_dir="out",
    )
    again = config_from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg
    assert math.isinf(again.q_prime)


def test_config_json_strictness():
    base = ExperimentConfig(spec=Gaussian(d=1)).to_json()
    base["bogus_field"] = 1
    with pytest.raises(InputValidationError, match="bogus_field"):
        config_from_json(base)
    with pytest.raises(InputValidationError, match="spec"):
        config_from_json({"q": 2.0})
    cfg = config_from_json({"spec": {"family": "gaussian", "d": 1},
                            "q_prime": 7.0})
    assert cfg.q_prime == 7.0


@pytest.mark.parametrize("field, value, ok", [
    ("d", 2.7, False), ("d", True, False), ("d", 2.0, True),
    ("n_chains", 2.5, False), ("n_iters", 10.5, False),
    ("record_every", True, False), ("seed", 1.7, False), ("seed", 7.0, True),
])
def test_json_integer_fields_reject_non_integers(tmp_path, field, value, ok):
    spec = {"family": "gaussian", "d": 1}
    cfg = {"spec": spec, "sigma2_list": [0.5], "n_chains": 8, "n_iters": 20,
           "output_dir": str(tmp_path / "out")}
    if field == "d":
        spec["d"] = value
    else:
        cfg[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    if ok:
        loaded = config_from_json(cfg)
        assert getattr(loaded.spec if field == "d" else loaded, field) == int(value)
        return
    with pytest.raises(InputValidationError, match=field):
        config_from_json(cfg)
    assert main(["sample", "--config", str(path)]) == 2


@pytest.mark.parametrize("where, field, value", [
    ("config", "q", None),
    ("config", "eps", "0.5"),
    ("config", "h", True),
    ("config", "q_prime", "abc"),
    ("config", "q_prime", False),
    ("config", "sigma2_list", "abc"),
    ("config", "sigma2_list", 4.0),
    ("config", "sigma2_list", [1.0, None]),
    ("gen_cauchy", "nu", "x"),
    ("gen_cauchy", "lambda", "x"),
    ("sublinear", "alpha", True),
    ("sublinear", "lambda", "2"),
])
def test_json_float_fields_reject_non_numbers(tmp_path, where, field, value):
    spec = {"gen_cauchy": {"family": "gen_cauchy", "d": 1, "nu": 2.0},
            "sublinear": {"family": "sublinear", "d": 1, "alpha": 0.5}
            }.get(where, {"family": "gaussian", "d": 1})
    cfg = {"spec": spec, "sigma2_list": [0.5], "n_chains": 8, "n_iters": 20,
           "output_dir": str(tmp_path / "out")}
    (cfg if where == "config" else spec)[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(InputValidationError, match=field):
        config_from_json(cfg)
    assert main(["sample", "--config", str(path)]) == 2


@pytest.mark.parametrize("flag, value", [("--q-prime", "abc"),
                                         ("--sigma2", "4,abc")])
def test_sample_real_flags_reject_non_numbers(tmp_path, flag, value):
    assert main(["sample", "--family", "gaussian", flag, value,
                 "--output-dir", str(tmp_path)]) == 2


def test_json_float_fields_keep_inf_and_null():
    base = {"spec": {"family": "gaussian", "d": 1, "nu": None, "alpha": None}}
    for raw in ("inf", None):
        assert config_from_json({**base, "q_prime": raw}).q_prime == math.inf
    cfg = config_from_json({**base, "q": 3, "q_prime": 9, "sigma2_list": [1, 2.5]})
    assert (cfg.q, cfg.q_prime, cfg.sigma2_list) == (3.0, 9.0, (1.0, 2.5))
    assert cfg.spec == Gaussian(d=1)


@pytest.mark.parametrize("flags", [
    ["--family", "sublinear", "--alpha", "0.5", "--lam", "0"],
    ["--family", "gaussian", "--lam", "3"],
    ["--family", "gen_cauchy", "--nu", "2", "--lam", "3"],
])
def test_lam_the_family_cannot_take_is_a_usage_error(capsys, flags):
    rc = main(["bounds", "--thm", "h-max", "--d", "1", *flags])
    assert rc == 2
    assert "lam" in capsys.readouterr().err


def test_coupling_delta0_values():
    assert GenCauchy(d=1, nu=2).coupling_delta0(4.0) == pytest.approx(
        2.0 * math.log(4.0)
    )
    assert Sublinear(d=1, alpha=0.5).coupling_delta0(4.0) == pytest.approx(
        2.0 ** (1.0 / 3.0) / 0.5
    )
    assert Gaussian(d=2).coupling_delta0(4.0) == pytest.approx(4.0)
    with pytest.raises(InputValidationError):
        GenCauchy(d=1, nu=2).coupling_delta0(1.0)


def test_phase_threshold_fallback():
    level, kind = phase_threshold(Gaussian(d=1), 2.0, 1.0, 4.0)
    assert kind == "sigma2_eps"
    assert level == pytest.approx(math.exp(0.5) * math.sqrt(3.0))
    level, kind = phase_threshold(GenCauchy(d=1, nu=2), 2.0, 1.0, 4.0)
    assert kind == "half_initial_m2"
    assert level == pytest.approx(2.0)


def test_assemble_upper_bound_sublinear():
    rep = assemble_upper_bound(Sublinear(d=1, alpha=0.5), 2.0, math.inf, 0.5, 4.0)
    assert rep.value > 0 and math.isfinite(rep.value)
    assert rep.kind == "iters_N"


# ---------------------------------------------------------------------------
# bounds subcommand
# ---------------------------------------------------------------------------


def test_bounds_thm_flags(capsys):
    rc = main(["bounds", "--thm", "beta-cauchy", "--nu", "2", "--d", "1",
               "--r", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(4.0)


@pytest.mark.filterwarnings("error")
def test_bounds_delta0_threshold_warns_nothing(capsys):
    rc = main(["bounds", "--thm", "delta0-threshold", "--family", "sublinear",
               "--alpha", "0.3", "--d", "2"])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_bounds_json_query(capsys):
    query = {"thm": "lower", "alpha": 0.0, "d": 2, "delta0": 5.0,
             "h": 0.01, "nu": 1.0}
    rc = main(["bounds", "--json", json.dumps(query)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(7420.65795512883, rel=1e-12)


@pytest.mark.parametrize("query, message", [
    ({"thm": "diffusion-time", "family": "gen_cauchy", "nu": 2,
      "sigma2": "4"}, "sigma2 must be a number"),
    ({"thm": "diffusion-time", "family": "gen_cauchy", "nu": 2, "sigma2": 4,
      "q_prime": "x"}, "q_prime must be a number"),
    ({"thm": "beta-cauchy", "nu": 2, "r": True}, "r must be a number"),
    ({"thm": "beta-cauchy", "nu": 2, "r": 1, "d": 1.5},
     "d must be an integer"),
    ({"thm": ["lower"]}, "unknown theorem selector"),
], ids=["sigma2", "q_prime", "r", "d", "thm"])
def test_bounds_json_fields_are_typed(capsys, query, message):
    rc = main(["bounds", "--json", json.dumps(query)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("field", ["json", "command"])
def test_bounds_json_fields_are_the_bounds_flags(capsys, field):
    # only the flags of ``bounds`` are query fields, not other namespace names
    query = {"thm": "lower", "alpha": 0, "nu": 2, "delta0": 3, "d": 1,
             field: 1 if field == "json" else "x"}
    assert main(["bounds", "--json", json.dumps(query)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown query field {field!r}" in captured.err


@pytest.mark.parametrize("q_prime", ["inf", None])
def test_bounds_json_q_prime_inf_or_null(capsys, q_prime):
    query = {"thm": "diffusion-time", "family": "gen_cauchy", "nu": 2,
             "sigma2": 4, "q_prime": q_prime}
    assert main(["bounds", "--json", json.dumps(query)]) == 0
    by_json = json.loads(capsys.readouterr().out)
    assert main(["bounds", "--thm", "diffusion-time", "--family",
                 "gen_cauchy", "--nu", "2", "--sigma2", "4"]) == 0
    assert by_json == json.loads(capsys.readouterr().out)


def test_bounds_init_value(capsys):
    rc = main(["bounds", "--thm", "init", "--family", "gen_cauchy",
               "--d", "1", "--nu", "2", "--sigma2", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.4221270803574374, rel=1e-12)


def test_bounds_malformed_json(capsys):
    rc = main(["bounds", "--json", "{oops"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed" in captured.err


def test_bounds_unknown_json_field(capsys):
    rc = main(["bounds", "--json", '{"thm": "lower", "bogus": 1}'])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_bounds_missing_flags(capsys):
    rc = main(["bounds", "--thm", "beta-cauchy", "--nu", "2"])
    assert rc == 2
    assert "--r" in capsys.readouterr().err
    rc = main(["bounds"])
    assert rc == 2


def test_bounds_moment_undefined_exit(capsys):
    rc = main(["bounds", "--thm", "h-max", "--family", "gen_cauchy",
               "--d", "1", "--nu", "2"])
    assert rc == 2
    assert "moment" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("flags", [
    ["--family", "gen_cauchy", "--nu", "2", "--sigma2", "4"],
    ["--family", "sublinear", "--alpha", "0.5", "--lam", "2", "--sigma2", "0.5"],
])
def test_bounds_diffusion_time_reports(capsys, flags):
    assert main(["bounds", "--thm", "diffusion-time", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "time_T"
    assert report["feasible"] is True


def test_bound_report_feasible_is_a_python_bool():
    # feasible follows infeasibility; a float64 value cannot make it numpy's
    report = BoundReport(value=np.float64(1.0), kind="beta", citation="c")
    assert report.feasible is True
    infeasible = BoundReport(value=np.float64(np.inf), kind="beta",
                             citation="c", infeasibility="overflow")
    assert infeasible.feasible is False
    assert list(report.to_dict()) == ["value", "kind", "citation", "regime",
                                      "intermediates", "feasible",
                                      "infeasibility"]
    json.dumps(report.to_dict())
    json.dumps(infeasible.to_dict())


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def test_verify_wpi_clean(tmp_path, capsys):
    rc = main(["verify", "wpi", "--r-grid", "0.1,0.5",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    report_path = tmp_path / "verify_wpi.json"
    assert str(report_path) in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["main"]["passed"] is True
    assert payload["main"]["n_violations"] == 0
    assert payload["falsify"]["n_violations"] >= 1


def test_verify_wpi_infinite_r_is_a_usage_error(tmp_path):
    rc = main(["verify", "wpi", "--family", "gen_cauchy", "--nu", "2",
               "--d", "1", "--r-grid", "inf", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "verify_wpi.json").exists()


def test_verify_falsify_mode_exits_one(tmp_path):
    rc = main(["verify", "converse", "--falsify", "--output-dir",
               str(tmp_path)])
    assert rc == 1
    payload = json.loads((tmp_path / "verify_converse.json").read_text())
    assert payload["falsify_only"]["n_violations"] >= 1


def test_verify_weighted_and_fp(tmp_path):
    assert main(["verify", "weighted", "--output-dir", str(tmp_path)]) == 0
    assert main(["verify", "fp", "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify_fp.json").read_text())
    kinds = {e["kind"] for e in payload["main"]["entries"]}
    assert {"mass", "monotone", "decay-identity", "moment-ode"} <= kinds


def test_verify_unknown_suite():
    assert main(["verify", "bogus"]) == 2


def _counted(monkeypatch, module, name):
    """The calls to ``module.name`` from now on, each as its thread's id."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv, n_integrals", [
    (["wpi", "--r-grid", "0.1,0.5"], 22 * 3),
    (["converse"], 22 * 3 + 1),
    (["weighted"], 22 * 3),
])
def test_verify_one_pass_serves_both_reports(tmp_path, monkeypatch, argv,
                                             n_integrals):
    """main and falsify come from one call of the quadrature rule over all
    the battery's integrals, and each equals the report of a separate
    checker call in that mode."""
    passes = []
    rule = fi_verify._pi_integrals

    def counted(spec, integrands, window):
        values, error = rule(spec, integrands, window)
        passes.append(len(values))
        return values, error

    monkeypatch.setattr(fi_verify, "_pi_integrals", counted)
    assert main(["verify", *argv, "--output-dir", str(tmp_path)]) == 0
    assert passes == [n_integrals]
    payload = json.loads((tmp_path / f"verify_{argv[0]}.json").read_text())
    fset = default_test_functions()
    for key, falsify in (("main", False), ("falsify", True)):
        if argv[0] == "wpi":
            spec = GenCauchy(d=1, nu=2.0)
            report = wpi_check(spec, beta_for_spec(spec), fset, [0.1, 0.5],
                               falsify=falsify)
        elif argv[0] == "converse":
            report = converse_pi_check(GenCauchy(d=1, nu=2.0), fset,
                                       falsify=falsify)
        else:
            report = weighted_pi_check(Sublinear(d=1, alpha=0.5), fset,
                                       falsify=falsify)
        assert payload[key] == json.loads(json.dumps(report.to_dict()))


def test_verify_fp_evolves_each_flow_once(tmp_path, monkeypatch):
    evolutions = _counted(monkeypatch, cli, "fokker_planck_evolve_1d")
    assert main(["verify", "fp", "--output-dir", str(tmp_path / "both")]) == 0
    assert len(evolutions) == 2
    assert main(["verify", "fp", "--falsify", "--output-dir",
                 str(tmp_path / "only")]) == 1
    both = json.loads((tmp_path / "both" / "verify_fp.json").read_text())
    only = json.loads((tmp_path / "only" / "verify_fp.json").read_text())
    assert both["falsify"] == only["falsify_only"]
    assert both["falsify"]["n_violations"] >= 1


# ---------------------------------------------------------------------------
# sample subcommand
# ---------------------------------------------------------------------------

SAMPLE_FLAGS = ["--h", "0.01", "--n-chains", "200", "--n-iters", "50",
                "--record-every", "10", "--seed", "3"]


def test_sample_outputs(tmp_path, capsys):
    rc = main(["sample", "--family", "gaussian", "--d", "1",
               "--sigma2", "4", *SAMPLE_FLAGS, "--output-dir", str(tmp_path)])
    assert rc == 0
    trace = tmp_path / "trace_sigma2_4.csv"
    diag = tmp_path / "diagnostics_sigma2_4.json"
    out = capsys.readouterr().out
    assert str(trace) in out and str(diag) in out
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iter,m2,se,n_chains"
    assert len(lines) == 1 + 6  # iterations 0,10,...,50
    assert lines[1].split(",")[0] == "0"
    report = json.loads(diag.read_text())
    assert report["threshold_kind"] == "sigma2_eps"
    assert report["q"] == 2.0
    assert report["surrogate"] is not None
    assert report["n_chains"] == 200
    assert report["sigma2"] == 4.0


def test_sample_heavy_tail_degrades_gracefully(tmp_path):
    rc = main(["sample", "--family", "gen_cauchy", "--nu", "2", "--d", "1",
               "--sigma2", "4", *SAMPLE_FLAGS, "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "diagnostics_sigma2_4.json").read_text())
    assert report["threshold_kind"] == "half_initial_m2"
    assert report["surrogate"] is None
    assert report["clamped"] is None


def test_sample_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = main(["sample", "--family", "sublinear", "--alpha", "0.5",
                   "--d", "1", "--sigma2", "2,8", *SAMPLE_FLAGS,
                   "--output-dir", str(d)])
        assert rc == 0
    for name in ("trace_sigma2_2.csv", "trace_sigma2_8.csv",
                 "diagnostics_sigma2_2.json", "diagnostics_sigma2_8.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_sample_config_file_with_flag_override(tmp_path):
    cfg = {
        "spec": {"family": "gaussian", "d": 1},
        "sigma2_list": [4.0],
        "h": 0.01, "n_chains": 100, "n_iters": 40, "record_every": 20,
        "seed": 7, "output_dir": str(tmp_path / "ignored"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "actual"
    rc = main(["sample", "--config", str(cfg_path),
               "--output-dir", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "trace_sigma2_4.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3  # iterations 0, 20, 40
    assert not (tmp_path / "ignored").exists()


def test_sample_requires_spec(tmp_path, capsys):
    rc = main(["sample", "--sigma2", "4", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "spec" in capsys.readouterr().err


def test_sample_malformed_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["sample", "--config", str(bad)])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# phase-transition subcommand
# ---------------------------------------------------------------------------

PHASE_FLAGS = ["--family", "gaussian", "--d", "1", "--sigma2", "2.5,4",
               "--h", "0.01", "--n-chains", "100", "--n-iters", "200",
               "--record-every", "10", "--seed", "0"]


def _run_phase(tmp_path, sub, flags=PHASE_FLAGS):
    out = tmp_path / sub
    rc = main(["phase-transition", *flags, "--output-dir", str(out)])
    assert rc == 0
    return out


def test_phase_transition_outputs(tmp_path, capsys):
    out = _run_phase(tmp_path, "run")
    stdout = capsys.readouterr().out
    assert str(out / "phase.csv") in stdout
    assert str(out / "phase.svg") in stdout
    lines = (out / "phase.csv").read_text().strip().split("\n")
    assert lines[0] == PHASE_HEADER
    assert len(lines) == 1 + 6  # 3 families x 2 starts
    families = [row.split(",")[0] for row in lines[1:]]
    assert families == ["gaussian"] * 2 + ["sublinear"] * 2 + ["gen_cauchy"] * 2
    for row in lines[1:]:
        cells = row.split(",")
        family, upper = cells[0], float(cells[9])
        assert float(cells[6]) > 0  # coupling divergence
        if family == "sublinear":
            assert math.isnan(upper)  # eps = 1 > 1/q: infeasible report
        else:
            assert math.isinf(upper)
    svg = (out / "phase.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    meta = json.loads((out / "phase_meta.json").read_text())
    assert len(meta["legs"]) == 6
    assert meta["config"]["n_iters"] == 200
    for leg in meta["legs"]:
        assert leg["stop_reason"] == ("threshold" if leg["stopped_early"] else "n_iters")
        assert 0 <= leg["steps_run"] <= 200
        if leg["stop_reason"] == "n_iters":
            assert leg["steps_run"] == 200
        assert leg["wall_s"] > 0
        assert leg["chain_steps_per_s"] >= 0


# 5000 chains in d = 2: each noise block holds at least DRAW_AHEAD_MIN_NORMALS
# normals
DRAW_AHEAD_FLAGS = ["--family", "gaussian", "--d", "2", "--sigma2", "4,64",
                    "--h", "0.01", "--n-chains", "5000", "--n-iters", "40",
                    "--record-every", "10", "--seed", "2"]


def test_phase_transition_deterministic_across_threads(tmp_path, monkeypatch):
    """On the main thread the sweep's legs draw their noise ahead, on a
    helper thread and the main one; on a worker thread they draw it inline.
    Both write the same bytes."""
    assert threading.current_thread() is threading.main_thread()
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    legs = _counted(monkeypatch, cli, "run_chains")
    draws = _counted(monkeypatch, sampler, "_noise_block")
    ahead = _run_phase(tmp_path, "ahead", DRAW_AHEAD_FLAGS)
    main_thread = threading.get_ident()
    assert len(legs) == 6 and set(legs) == {main_thread}
    assert set(draws) - {main_thread}  # a helper drew step blocks
    legs.clear()
    draws.clear()
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker, inline = pool.submit(lambda: (
            threading.get_ident(),
            _run_phase(tmp_path, "inline", DRAW_AHEAD_FLAGS))).result()
    assert set(legs) == set(draws) == {worker}  # every block drawn inline
    for name in ("phase.csv", "phase.svg"):
        assert (inline / name).read_bytes() == (ahead / name).read_bytes()


def test_phase_transition_partial_flush_on_failure(tmp_path, monkeypatch,
                                                   capsys):
    runs = _counted(monkeypatch, cli, "run_chains")
    out = tmp_path / "partial"
    rc = main(["phase-transition", "--family", "gaussian", "--d", "1",
               "--sigma2", "0.5", "--h", "0.01", "--n-chains", "50",
               "--n-iters", "100", "--record-every", "10",
               "--output-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "partial results flushed" in err
    lines = (out / "phase.csv").read_text().strip().split("\n")
    assert lines[0] == PHASE_HEADER
    assert len(lines) == 2  # the square-case leg survived; the rest aborted
    assert lines[1].startswith("gaussian,")
    assert not (out / "phase.svg").exists()
    # the failing leg's bounds refuse its start before its chains run, and
    # no leg runs after it
    assert len(runs) == 1


def test_phase_transition_wide_start_has_no_upper_bound(tmp_path, capsys):
    # sigma2 = 8192 outgrows the modified-target comparison (sigma2 <= 3072
    # at the unit horizon): that row gets inf and the sweep goes on
    out = tmp_path / "wide"
    rc = main(["phase-transition", "--families", "sublinear", "--family",
               "sublinear", "--alpha", "0.5", "--d", "2", "--sigma2",
               "1024,8192", "--h", "0.1", "--n-chains", "50", "--n-iters",
               "200", "--record-every", "50", "--output-dir", str(out)])
    assert rc == 0, capsys.readouterr().err
    rows = list(csv.DictReader((out / "phase.csv").read_text().splitlines()))
    assert [float(r["sigma2"]) for r in rows] == [1024.0, 8192.0]
    assert rows[0]["iters_upper_bound"] == "nan"  # eps = 1 > 1/q: no bound
    assert rows[1]["iters_upper_bound"] == "inf"
    uppers = [leg["upper"] for leg in
              json.loads((out / "phase_meta.json").read_text())["legs"]]
    assert "3072" not in uppers[0]["infeasibility"]  # eps = 1 > 1/q only
    assert uppers[1] == {
        "feasible": False,
        "infeasibility": "modified-target comparison needs sigma2 <= 3072 T "
                         "= 3072.0, got 8192.0",
    }


def test_phase_transition_family_subset(tmp_path, capsys):
    out = tmp_path / "subset"
    rc = main(["phase-transition", *PHASE_FLAGS, "--families", "gaussian",
               "--output-dir", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = (out / "phase.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    rc = main(["phase-transition", *PHASE_FLAGS, "--families", "typo",
               "--output-dir", str(out)])
    assert rc == 2
    assert "typo" in capsys.readouterr().err


def test_phase_transition_progress_lines(tmp_path, capsys):
    """Each finished leg prints one stderr line with its telemetry."""
    out = tmp_path / "progress"
    assert main(["phase-transition", *PHASE_FLAGS, "--families", "gaussian",
                 "--output-dir", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    legs = json.loads((out / "phase_meta.json").read_text())["legs"]
    assert len(lines) == len(legs) == 2
    for i, (line, sigma2, leg) in enumerate(zip(lines, ("2.5", "4"), legs),
                                            start=1):
        assert line == (f"leg {i}/2 gaussian sigma2={sigma2} "
                        f"steps_run={leg['steps_run']} "
                        f"stop_reason={leg['stop_reason']} "
                        f"wall_s={leg['wall_s']:.2f}")


def test_phase_transition_gates_lower_bound_by_threshold(tmp_path, capsys):
    """A lower bound is published only where delta0 meets its validity
    threshold; the log-tail threshold is not computable at q = 2, nu = 2."""
    rc = main(["bounds", "--thm", "delta0-threshold", "--family", "sublinear",
               "--alpha", "0.5", "--d", "2", "--q", "2"])
    assert rc == 0
    sub_threshold = json.loads(capsys.readouterr().out)["value"]
    out = tmp_path / "gate"
    rc = main(["phase-transition", "--family", "gaussian", "--d", "2",
               "--sigma2", "64,1024", "--h", "0.01", "--n-chains", "200",
               "--n-iters", "400", "--record-every", "10", "--seed", "0",
               "--q", "2", "--eps", "1", "--output-dir", str(out)])
    assert rc == 0
    with open(out / "phase.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    legs = json.loads((out / "phase_meta.json").read_text())["legs"]
    assert len(rows) == len(legs) == 6
    for row, leg in zip(rows, legs):
        lower = float(row["iters_lower_bound"])
        if row["family"] == "sublinear":
            # delta0 = 6.35 and 16 sit below the threshold 32.9
            assert math.isnan(lower)
            assert leg["lower_feasible"] is False
            assert leg["delta0_threshold"] == sub_threshold
            assert leg["lower_value"] > 0
        elif row["family"] == "gaussian" and float(row["sigma2"]) == 1024.0:
            assert math.isfinite(lower) and lower > 0
            assert leg["lower_feasible"] is True
            assert float(row["delta0_bound"]) >= leg["delta0_threshold"]
        elif row["family"] == "gen_cauchy":
            assert leg["lower_threshold_checked"] is False
            assert "moment" in leg["lower_threshold_reason"]
            assert leg["delta0_threshold"] is None


def test_phase_sweep_quadratures_do_not_grow_with_legs(tmp_path, monkeypatch):
    """Each family instance computes its radial quadratures once, so three
    sigma2 legs cost the quadratures of one."""
    calls = _counted(monkeypatch, targets, "_radial_integral")
    counts = []
    for sigma2 in ("4", "4,16,64"):
        before = len(calls)
        rc = main(["phase-transition", "--families", "sublinear", "--family",
                   "sublinear", "--alpha", "0.5", "--d", "2", "--sigma2", sigma2,
                   "--h", "0.1", "--n-chains", "50", "--n-iters", "200",
                   "--record-every", "50", "--output-dir", str(tmp_path / sigma2)])
        assert rc == 0
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# fp-evolve subcommand
# ---------------------------------------------------------------------------


def test_fp_evolve_writes_csv(tmp_path, capsys):
    rc = main(["fp-evolve", "--family", "gaussian", "--d", "1",
               "--sigma2", "4", "--t-final", "0.01", "--dt", "1e-4",
               "--record-every", "50", "--n-core", "256", "--n-tail", "32",
               "--core-halfwidth", "6", "--output-dir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "fp.csv"
    assert str(path) in capsys.readouterr().out
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,R_q,F_q,G_q,mass,m2"
    assert len(lines) == 4  # t = 0, 0.005, 0.01


def test_fp_evolve_dt_violation(tmp_path, capsys):
    rc = main(["fp-evolve", "--family", "gen_cauchy", "--nu", "2", "--d", "1",
               "--sigma2", "4", "--t-final", "0.1", "--dt", "0.5",
               "--n-core", "256", "--n-tail", "32",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "dt <=" in capsys.readouterr().err


def test_fp_evolve_on_the_cauchy_target(tmp_path):
    """The default grid's core spans 1.5 times the Cauchy 1e-4 tail
    quantile (6366), so its cells are 12.4 wide: a start of sigma2 = 100
    is resolved on it."""
    rc = main(["fp-evolve", "--family", "gen_cauchy", "--nu", "1", "--d", "1",
               "--sigma2", "100", "--t-final", "0.01", "--dt", "1e-4",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "fp.csv").open()))
    assert [float(row["mass"]) for row in rows] == [1.0] * len(rows)


def test_fp_evolve_names_unresolving_cells(tmp_path, capsys):
    """On the same grid sigma2 = 4 falls inside the window but below the
    cell width: the error names the cells, not the window."""
    rc = main(["fp-evolve", "--family", "gen_cauchy", "--nu", "1", "--d", "1",
               "--sigma2", "4", "--t-final", "0.01", "--dt", "1e-4",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "grid cells 12.4 wide at 0 lose 0.0859 of N(0, 4.0) (sigma 2)" in err
    assert "--n-core" in err and "--core-halfwidth" in err
    assert "widen" not in err
    assert not (tmp_path / "fp.csv").exists()


def test_fp_evolve_refuses_a_start_that_gains_mass(tmp_path, capsys):
    """On the same grid sigma2 = 0.5 sits between Simpson nodes of 12.4-wide
    cells and its cell total reads 1.169: the start is refused with the
    cell width, not renormalized into an m2 of 38.65 (the true m2 is 0.5)."""
    rc = main(["fp-evolve", "--family", "gen_cauchy", "--nu", "1", "--d", "1",
               "--sigma2", "0.5", "--t-final", "0.01", "--dt", "1e-4",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "grid cells 12.4 wide at 0 add 0.169 to N(0, 0.5) (sigma 0.707)" in err
    assert "--n-core" in err and "--core-halfwidth" in err
    assert not (tmp_path / "fp.csv").exists()


@pytest.mark.parametrize("every", ["0", "-3"])
def test_fp_evolve_rejects_nonpositive_record_every(tmp_path, capsys, every):
    rc = main(["fp-evolve", "--family", "gaussian", "--d", "1",
               "--sigma2", "4", "--t-final", "0.01", "--dt", "1e-4",
               "--record-every", every, "--n-core", "256", "--n-tail", "32",
               "--core-halfwidth", "6", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "record_every must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "fp.csv").exists()


@pytest.mark.parametrize("flags", [["--t-final", "inf"], ["--q", "inf"]],
                         ids=" ".join)
def test_fp_evolve_rejects_an_infinite_time_or_order(tmp_path, capsys,
                                                     monkeypatch, flags):
    """argparse keeps the last --t-final, so the first case asks for t = inf.
    The order is refused before the evolution starts, the time by it."""
    evolutions = _counted(monkeypatch, cli, "fokker_planck_evolve_1d")
    rc = main(["fp-evolve", "--family", "gaussian", "--d", "1",
               "--sigma2", "1.5", "--t-final", "0.01", "--dt", "2e-5",
               "--n-core", "256", "--n-tail", "32", "--core-halfwidth", "6",
               "--output-dir", str(tmp_path)] + flags)
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "fp.csv").exists()
    assert len(evolutions) == (0 if flags[0] == "--q" else 1)


_BAD_GRIDS = [
    (["--n-core", "-5"], "n_core must be >= 1, got -5"),
    (["--n-tail", "-3"], "n_tail must be >= 0, got -3"),
    (["--n-core", "0"], "n_core must be >= 1, got 0"),
    (["--core-halfwidth", "-1"], "core_halfwidth must be finite positive"),
    (["--core-halfwidth", "nan"], "core_halfwidth must be finite positive"),
]


@pytest.mark.parametrize("flags, message", _BAD_GRIDS,
                         ids=[" ".join(flags) for flags, _ in _BAD_GRIDS])
def test_fp_evolve_rejects_a_bad_grid_before_building_it(tmp_path, capsys,
                                                         monkeypatch, flags,
                                                         message):
    """A grid argument is a usage error that names it, raised before the
    grid's first quadrature and without a numpy warning."""
    quadratures = _counted(monkeypatch, fi_verify, "_cell_average_density")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fp-evolve", "--family", "gaussian", "--d", "1",
                   "--sigma2", "2", "--t-final", "0.01", "--dt", "1e-4",
                   "--output-dir", str(tmp_path)] + flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert quadratures == []
    assert not (tmp_path / "fp.csv").exists()


def test_fp_evolve_rejects_an_unbounded_step_count(tmp_path, capsys,
                                                   monkeypatch):
    """t_final / dt overflows to inf: a usage error before the grid target
    is computed, not an OverflowError."""
    targets_built = _counted(monkeypatch, fi_verify, "pi_on_grid")
    rc = main(["fp-evolve", "--family", "gaussian", "--d", "1",
               "--sigma2", "2", "--t-final", "1e10", "--dt", "1e-300",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "not a finite step count" in capsys.readouterr().err
    assert targets_built == []
    assert not (tmp_path / "fp.csv").exists()


def test_run_fp_decay_writes_the_fp_evolve_table(tmp_path):
    """The script runs fp-evolve: its fp.csv is the one the CLI writes for
    the same flags."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    script_out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "run_fp_decay.py"),
         "--t-final", "0.5", "--output-dir", str(script_out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("records: 11, R_2 from 0.6232")
    assert lines[-1] == str(script_out / "fp.csv")
    assert main(["fp-evolve", "--family", "gen_cauchy", "--nu", "2", "--d", "1",
                 "--sigma2", "4", "--t-final", "0.5", "--dt", "2e-4",
                 "--record-every", "250", "--n-core", "2048", "--n-tail", "256",
                 "--core-halfwidth", "24", "--output-dir",
                 str(tmp_path / "cli")]) == 0
    assert ((script_out / "fp.csv").read_bytes()
            == (tmp_path / "cli" / "fp.csv").read_bytes())


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    shutil.which("heavytail-lmc") is None,
    reason="the heavytail-lmc console script is not installed; install it "
           "with `pip install --no-build-isolation -e .`",
)
def test_console_script_help():
    proc = subprocess.run(["heavytail-lmc", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    for sub in ("sample", "phase-transition", "bounds", "verify", "fp-evolve"):
        assert sub in proc.stdout


def test_module_entry_point_help_without_warning():
    src = os.path.dirname(os.path.dirname(heavytail_lmc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "heavytail_lmc", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: heavytail-lmc")
    assert "RuntimeWarning" not in proc.stderr


def test_no_subcommand_is_usage_error():
    assert main([]) == 2
