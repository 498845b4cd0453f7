import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wienergamma
from wienergamma import cli, comparison, engine, fbm, sk
from wienergamma.cli import close, list_experiments, lower, main, run, upper, write_report
from wienergamma.engine import Estimate, MehlerConfig
from wienergamma.parallel import BLOCK, block_bounds
from wienergamma.sk import IID_GAUSSIAN, gamma_f_bound_check, medium_sample
from test_acceptance import SMOKE_CONFIGS


SMALL_MEHLER = {"quad_nodes": 8, "mc_samples": 256}
# Two standard errors whose hypot math.hypot and np.hypot round apart.
SE_PAIR = (0.8735226311207321, 0.4723003367500115)

# Rule text -> the constructor call that writes it; every other rule in a
# report is exact or report-only.
CONSTRUCTORS = {
    "pass when lhs <= rhs + 3 SE": upper,
    "pass when lhs >= rhs - 3 SE": lower,
    "pass when lhs >= rhs - 3 SE - 1e-12": partial(lower, atol=1e-12),
    "pass when lhs >= rhs - 3 SE - 1e-09": partial(lower, atol=1e-9),
    "pass when |lhs - rhs| <= 3 SE": close,
    "pass when |lhs - rhs| <= max(0.01 |rhs|, 3 SE)": partial(close, rel=0.01),
    "pass when |lhs - rhs| <= max(0.02 |rhs|, 3 SE)": partial(close, rel=0.02),
}
OTHER_RULES = {
    "pass when lhs <= rhs (1 + 1e-12) + 1e-300", "report only",
    "pass when |value - closed form| <= 1e-12", "pass when bit-identical",
    "pass when |gap| decreases along the ladder",
}


class TestRowConstructors:
    """Each rule takes two sides; an exact side is a number or an array."""

    def test_upper_boundary(self):
        assert upper("r", Estimate(2.5, 0.5), 1.0).verdict
        assert not upper("r", Estimate(np.nextafter(2.5, 3.0), 0.5), 1.0).verdict
        assert upper("r", 2.5, Estimate(1.0, 0.5)).verdict
        assert not upper("r", np.nextafter(2.5, 3.0), Estimate(1.0, 0.5)).verdict

    def test_lower_boundary(self):
        assert lower("r", Estimate(0.25, 0.25), 1.0).verdict
        assert not lower("r", Estimate(np.nextafter(0.25, 0.0), 0.25), 1.0).verdict
        assert lower("r", 0.25, Estimate(1.0, 0.25)).verdict
        assert not lower("r", np.nextafter(0.25, 0.0), Estimate(1.0, 0.25)).verdict

    def test_close_boundary_on_both_sides(self):
        for edge, outward, rhs in ((2.5, 3.0, 1.0), (-1.5, -2.0, 0.0)):
            assert close("r", Estimate(edge, 0.5), rhs).verdict
            assert not close("r", Estimate(np.nextafter(edge, outward), 0.5), rhs).verdict

    def test_zero_standard_error(self):
        assert upper("r", Estimate(1.0, 0.0), 1.0).verdict
        assert not upper("r", Estimate(np.nextafter(1.0, 2.0), 0.0), 1.0).verdict
        assert lower("r", Estimate(-1e-12, 0.0), 0.0, atol=1e-12).verdict
        assert not lower("r", Estimate(-2e-12, 0.0), 0.0, atol=1e-12).verdict
        assert not lower("r", Estimate(-1e-300, 0.0), 0.0).verdict
        assert close("r", Estimate(1.0, 0.0), 1.0).verdict
        assert not close("r", Estimate(np.nextafter(1.0, 2.0), 0.0), 1.0).verdict

    def test_rel_dominates_three_se(self):
        assert close("r", Estimate(2.19, 0.01), 2.0, rel=0.1).verdict
        assert close("r", Estimate(-2.19, 0.01), -2.0, rel=0.1).verdict
        assert not close("r", Estimate(2.21, 0.01), 2.0, rel=0.1).verdict

    def test_rules_without_slack_options_are_unchanged(self):
        assert upper("r", Estimate(0.0, 1.0), 0.0).rule == "pass when lhs <= rhs + 3 SE"
        assert close("r", Estimate(0.0, 1.0), 0.0).rule == "pass when |lhs - rhs| <= 3 SE"

    def test_aggregate_row_is_the_entry_with_least_slack(self):
        row = close("r", Estimate(np.array([1.0, 1.4, 1.1]), np.array([0.1, 0.1, 0.1])), 1.0)
        assert (row.lhs, row.rhs, row.std_error, row.verdict) == (1.4, 1.0, 0.1, False)
        row = lower("r", Estimate(np.array([[2.0, 0.9], [1.5, 1.0]]), 0.05),
                    np.array([1.0, 1.0]))
        assert (row.lhs, row.verdict) == (0.9, True)
        assert row == lower("r", Estimate(0.9, 0.05), 1.0)

    def test_a_list_of_estimates_is_stacked_into_one_side(self):
        ests = [Estimate(np.array([1.0, 2.0]), np.array([0.1, 0.2])),
                Estimate(np.array([1.5, 0.5]), np.array([0.3, 0.04]))]
        stacked = Estimate(np.array([[1.0, 2.0], [1.5, 0.5]]),
                           np.array([[0.1, 0.2], [0.3, 0.04]]))
        exact = np.array([[1.0, 1.0], [1.0, 1.0]])
        row = lower("r", ests, exact, atol=1e-9)
        assert row == lower("r", stacked, exact, atol=1e-9)
        assert (row.lhs, row.std_error, row.verdict) == (0.5, 0.04, False)

    def test_two_estimates_carry_the_hypot_of_their_errors(self):
        a, b = Estimate(1.0, SE_PAIR[0]), Estimate(0.25, SE_PAIR[1])
        for rule in (upper, lower, close):
            row = rule("r", a, b)
            assert (row.lhs, row.rhs) == (1.0, 0.25)
            assert row.std_error == math.hypot(*SE_PAIR)
            assert row.std_error == engine.difference(a, b).std_error

    def test_one_exact_side_carries_the_other_error_unchanged(self):
        se = 0.123
        for rule in (upper, lower, close):
            assert rule("r", Estimate(0.5, se), 1.0).std_error == se
            assert rule("r", 1.0, Estimate(0.5, se)).std_error == se
        errors = np.array([se, 2.0 * se, 3.0 * se])
        values = np.array([1.0, 1.0, 1.0])
        for k in range(3):
            exact = np.array([1.0, 1.0, 1.0])
            exact[k] = -5.0  # the entry with the least slack
            assert lower("r", Estimate(exact, errors), values).std_error == errors[k]
            assert upper("r", values, Estimate(exact, errors)).std_error == errors[k]


def test_catalog_has_twelve_stable_entries():
    catalog = list_experiments()
    assert len(catalog) == 12
    assert catalog == list_experiments()
    for entry in catalog:
        assert entry["theory"]
        assert entry["description"]
    names = {e["name"] for e in catalog}
    assert names == {
        "gamma", "ibp-check", "poincare", "sudakov", "slepian", "concentration",
        "perturbation", "fbm-sde", "sk-free-energy", "sk-generic-bound",
        "sk-gamma-bound", "sk-convergence",
    }


def test_unknown_command_rejected():
    with pytest.raises(ValueError, match="unknown command"):
        run({"command": "nope"})


def test_ibp_check_identity_pair():
    report = run({
        "command": "ibp-check",
        "seed": 3,
        "mehler": SMALL_MEHLER,
        "params": {"f_expr": "w0", "phi": "id", "n_outer": 5_000},
    })
    row = report["rows"][0]
    assert row["verdict"]
    assert row["lhs"] == pytest.approx(1.0, abs=0.05)
    assert row["rhs"] == pytest.approx(1.0, abs=1e-10)


def test_sk_free_energy_two_spins():
    report = run({
        "command": "sk-free-energy",
        "seed": 4,
        "params": {"n": 2, "beta": 1.0, "check_reference": True},
    })
    rows = {r["name"]: r for r in report["rows"]}
    closed = rows["sk/free-energy/two-spin-closed-form"]
    assert closed["verdict"]
    assert closed["lhs"] == pytest.approx(closed["rhs"], abs=1e-12)
    assert rows["sk/free-energy/gray-vs-reference"]["verdict"]
    assert report["all_passed"]


@pytest.mark.parametrize("config", [
    {"command": "sk-free-energy", "seed": 9, "workers": 1,
     "params": {"n": 6, "beta": 0.8}},
    {"command": "ibp-check", "seed": 9, "workers": 1, "mehler": SMALL_MEHLER,
     "params": {"phi": ["tanh"], "n_outer": 2_000}},
    {"command": "fbm-sde", "seed": 9, "workers": 2, "mehler": SMALL_MEHLER,
     "params": {"m": 16, "n_paths": 2_000, "n_outer": 20,
                "delta_pairs": [[0.0, 1.0]]}},
    {"command": "sudakov", "seed": 117, "workers": 1, "mehler": SMALL_MEHLER,
     "params": {"d": 2, "betas": [2.0], "t_points": 3, "n_outer": 300, "n_sup": 2_000}},
    {"command": "perturbation", "seed": 117, "workers": 1, "mehler": SMALL_MEHLER,
     "params": {"n_points": 1, "n_value": 5_000}},
], ids=lambda config: config["command"])
def test_reports_are_byte_identical(tmp_path, config):
    first = run(config)
    second = run(config)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    paths_a = write_report(first, dir_a, "both")
    paths_b = write_report(second, dir_b, "both")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_main_exit_codes(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "command": "sk-free-energy",
        "seed": 2,
        "params": {"n": 4, "beta": 1.0},
    }))
    code = main(["--config", str(config_path), "--out", str(tmp_path / "out"),
                 "--format", "json"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "sk-free-energy.json").read_text())
    assert report["all_passed"]
    assert "wall" not in json.dumps(report)  # no timing inside the artifact


def test_main_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "sk-generic-bound" in out
    assert "gamma" in out
    assert "n_points=20" in out  # run_gamma's declared default
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    shown = readme.split("for one command it reads:")[1].split("```text\n")[1]
    assert shown.split("```")[0] in out  # the README's copy is current


def test_seed_override(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "command": "sk-free-energy",
        "params": {"n": 5, "beta": 1.0},
    }))
    main(["--config", str(config_path), "--seed", "11",
          "--out", str(tmp_path / "o1"), "--format", "json"])
    main(["--config", str(config_path), "--seed", "12",
          "--out", str(tmp_path / "o2"), "--format", "json"])
    a = json.loads((tmp_path / "o1" / "sk-free-energy.json").read_text())
    b = json.loads((tmp_path / "o2" / "sk-free-energy.json").read_text())
    assert a["config"]["seed"] == 11
    assert b["config"]["seed"] == 12
    assert a["rows"][0]["lhs"] != b["rows"][0]["lhs"]


def test_fbm_path_dump(tmp_path):
    report = run({"command": "fbm-sde", "seed": 5, "workers": 1,
                  "mehler": SMALL_MEHLER,
                  "params": {"m": 8, "n_paths": 500, "n_outer": 10,
                             "delta_pairs": [[0.0, 1.0]], "dump_paths": 3}})
    paths = write_report(report, tmp_path, "csv")
    dump = next(p for p in paths if p.name == "fbm-sde-paths.csv")
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 1 + 6  # header + 3 driving + 3 solution paths
    assert lines[0].startswith("kind,path,t=0")


def test_sk_medium_dump(tmp_path):
    report = run({"command": "sk-free-energy", "seed": 6,
                  "params": {"n": 5, "beta": 1.0, "dump_medium": True}})
    paths = write_report(report, tmp_path, "both")
    dump = next(p for p in paths if p.name == "sk-free-energy-medium.csv")
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 1 + 5


def test_bad_config_returns_error(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"command": "definitely-not-real"}))
    assert main(["--config", str(config_path), "--out", str(tmp_path)]) == 2


def _config(command, **params):
    return json.dumps({"command": command, "params": params})


# (config text, stderr prefix, text the message must name)
BAD_INPUTS = {
    "malformed-json": ('{"command": "sk-free-energy",', "error in config ", "line 1"),
    "top-level-array": ("[1, 2]", "error in config ", "JSON object"),
    "params-array": ('{"command": "gamma", "params": [1]}', "error in config ", "params"),
    "scalar-ns": (_config("sk-generic-bound", ns=8), "error in config ", "'ns'"),
    "gamma-no-points": (_config("gamma", n_points=0), "error in config ", "'n_points'"),
    "perturbation-no-points": (_config("perturbation", n_points=0), "error in config ",
                               "'n_points'"),
    "overflow": (json.dumps({"command": "poincare", "mehler": SMALL_MEHLER,
                             "params": {"expr": "exp(exp(exp(w0)))", "n_outer": 2_000}}),
                 "error: ", "not finite"),
    "misspelled-param": (_config("gamma", n_pionts=1), "error in config ", "'n_pionts'"),
    "misspelled-mehler-key": ('{"command": "gamma", "mehler": {"mc_sample": 256}}',
                              "error in config ", "'mc_sample'"),
    "unknown-top-level-key": ('{"command": "gamma", "sead": 5}', "error in config ",
                              "'sead'"),
    "unknown-family-key": (_config("sk-free-energy", n=4,
                                   family={"kind": "correlated-gaussian", "rr": 3.0}),
                           "error in config ", "'rr'"),
    "unknown-case": (_config("concentration", case="scalar"), "error in config ",
                     "'scalar'"),
    "empty-ns": (_config("sk-generic-bound", ns=[]), "error in config ", "'ns'"),
    "no-media": (_config("sk-gamma-bound", n=4, n_media=0), "error in config ",
                 "'n_media'"),
    "empty-p": (_config("poincare", p=[]), "error in config ", "'p': []"),
    "empty-phi": (_config("ibp-check", phi=[]), "error in config ", "'phi': []"),
    "empty-sk-convergence-ns": (_config("sk-convergence", ns=[]), "error in config ",
                                "'ns'"),
    "ibp-g-expr-without-f-expr": (_config("ibp-check", g_expr="w0"), "error in config ",
                                  "'g_expr'"),
    "ibp-dim-without-f-expr": (_config("ibp-check", dim=2), "error in config ", "'dim'"),
    "poincare-dim-without-expr": (_config("poincare", dim=2), "error in config ",
                                  "'dim'"),
    "workers-zero": ('{"command": "gamma", "workers": 0}', "error in config ", "'workers'"),
    "workers-negative": ('{"command": "gamma", "workers": -3}', "error in config ",
                         "'workers'"),
    # A sample count that would pass a row on no samples or give it a NaN SE.
    "fbm-no-paths": (_config("fbm-sde", n_paths=0), "error in config ", "'n_paths'"),
    "fbm-one-outer": (_config("fbm-sde", n_outer=1), "error in config ", "'n_outer'"),
    "concentration-no-psd": (_config("concentration", n_psd=0), "error in config ",
                             "'n_psd'"),
    "generic-one-medium": (_config("sk-generic-bound", n_media=1), "error in config ",
                           "'n_media'"),
    "generic-one-gap-medium": (_config("sk-generic-bound", gap_media=1),
                               "error in config ", "'gap_media'"),
    "convergence-one-medium": (_config("sk-convergence", n_media=1), "error in config ",
                               "'n_media'"),
    "perturbation-one-value": (_config("perturbation", n_value=1), "error in config ",
                               "'n_value'"),
    "slepian-one-value": (_config("slepian", n_value=1), "error in config ", "'n_value'"),
    "sudakov-one-sup": (_config("sudakov", n_sup=1), "error in config ", "'n_sup'"),
    "ibp-no-outer": (_config("ibp-check", n_outer=0), "error in config ", "'n_outer'"),
    "poincare-one-outer": (_config("poincare", n_outer=1), "error in config ",
                           "'n_outer'"),
    # SK sizes below the smallest medium the command can draw and compare.
    "generic-size-zero": (_config("sk-generic-bound", ns=[0]), "error in config ", "'ns'"),
    "generic-size-one": (_config("sk-generic-bound", ns=[1]), "error in config ", "'ns'"),
    "convergence-size-zero": (_config("sk-convergence", ns=[0]), "error in config ", "'ns'"),
    "fbm-negative-dump": (_config("fbm-sde", dump_paths=-1), "error in config ",
                          "'dump_paths'"),
    "fbm-short-pair": (_config("fbm-sde", delta_pairs=[[0.5]]), "error in config ",
                       "'delta_pairs'"),
    "fbm-text-pair": (_config("fbm-sde", delta_pairs=[["a", 1]]), "error in config ",
                      "'delta_pairs'"),
    "fbm-pair-past-horizon": (_config("fbm-sde", delta_pairs=[[0.5, 2.0]]),
                              "error in config ",
                              "'delta_pairs'"),
    "fbm-pairs-not-a-list": (_config("fbm-sde", delta_pairs=5), "error in config ",
                             "'delta_pairs'"),
    "fbm-no-delta-pairs": (_config("fbm-sde", delta_pairs=[]), "error in config ",
                           "'delta_pairs': []"),
    # A list of numbers must be a list, and each entry a number.
    "sk-gamma-text-beta": (_config("sk-gamma-bound", betas=["x"], n=4, n_media=2),
                           "error in config ", "'betas'"),
    "sk-gamma-scalar-betas": (_config("sk-gamma-bound", betas=1.0, n=4, n_media=2),
                              "error in config ", "'betas'"),
    "sudakov-scalar-betas": (_config("sudakov", betas=2.0), "error in config ",
                             "'betas'"),
    "poincare-scalar-p": (_config("poincare", p=2.0), "error in config ", "'p'"),
    "poincare-huge-p": ('{"command": "poincare", "params": {"p": [1%s]}}' % ("0" * 400),
                        "error in config ", "'p'"),
    "gamma-infinite-points": ('{"command": "gamma", "params": {"n_points": 1e400}}',
                              "error in config ", "'n_points'"),
    # Configs that would run no phi' row at all.
    "sudakov-no-t-points": (_config("sudakov", t_points=0), "error in config ",
                            "'t_points'"),
    "slepian-no-t-points": (_config("slepian", t_points=0), "error in config ",
                            "'t_points'"),
    "sudakov-no-betas": (_config("sudakov", betas=[]), "error in config ", "'betas'"),
    # One threshold would broadcast onto both chaos2 components.
    "concentration-short-x2": (_config("concentration", case="chaos2", x2=[1.0]),
                               "error in config ", "one entry per field component"),
    # One payoff weight for a field of two components.
    "perturbation-short-theta": (_config("perturbation", theta=[0.4]), "error in config ",
                                 "'theta'"),
    # Non-finite numbers, as text or as JSON NaN and Infinity, would run with
    # NaN rows or an infinite parameter.
    "sudakov-text-nan-beta": (_config("sudakov", betas=["nan"], t_points=1, n_outer=50,
                                      n_sup=100), "error in config ", "'betas'"),
    "sudakov-infinite-beta": ('{"command": "sudakov", "params": {"betas": [Infinity]}}',
                              "error in config ", "'betas'"),
    "sk-free-energy-nan-beta": ('{"command": "sk-free-energy", "params": '
                                '{"n": 4, "beta": NaN}}', "error in config ", "'beta'"),
    "fbm-text-inf-horizon": (_config("fbm-sde", horizon="-inf"), "error in config ",
                             "'horizon'"),
    # bool("false") is True, so only a JSON boolean is a bool.
    "sk-free-energy-text-bool": (_config("sk-free-energy", n=4, check_reference="false"),
                                 "error in config ", "'check_reference'"),
    "mehler-number-antithetic": ('{"command": "gamma", "mehler": {"antithetic": 0}}',
                                 "error in config ", "'antithetic'"),
    # A number key takes a JSON number, never a bool or text, and an integer
    # key an integral one; the "error in config" prefix shows that each is
    # rejected before the runner starts.
    "gamma-bool-points": (_config("gamma", n_points=True), "error in config ",
                          "'n_points'"),
    "gamma-fractional-points": (_config("gamma", n_points=2.7), "error in config ",
                                "'n_points'"),
    "gamma-text-points": (_config("gamma", n_points="3"), "error in config ",
                          "'n_points'"),
    "sk-free-energy-bool-beta": (_config("sk-free-energy", n=4, beta=False),
                                 "error in config ", "'beta'"),
    "bool-seed": ('{"command": "gamma", "seed": true}', "error in config ", "'seed'"),
    "bool-workers": ('{"command": "gamma", "workers": true}', "error in config ",
                     "'workers'"),
    "mehler-fractional-nodes": ('{"command": "gamma", "mehler": {"quad_nodes": 2.9}}',
                                "error in config ", "'quad_nodes'"),
    "sudakov-bool-beta": (_config("sudakov", betas=[True]), "error in config ", "'betas'"),
    "convergence-bool-size": (_config("sk-convergence", ns=[True], n_media=2),
                              "error in config ",
                              "'ns'"),
    "fbm-bool-pair": (_config("fbm-sde", delta_pairs=[[False, True]]), "error in config ",
                      "'delta_pairs'"),
    # Bad entries that come after valid ones, checked before the first draw.
    "concentration-both-short-x2": (_config("concentration", x2=[1.0]), "error in config ",
                                    "'x2'"),
    "sk-gamma-bad-third-family": (
        _config("sk-gamma-bound", n=10, families=[
            "iid-gaussian", {"kind": "clt-chaos2", "m": 1},
            {"kind": "correlated-gaussian", "rr": 3.0}]), "error in config ", "'rr'"),
    "sk-generic-bad-last-family": (
        _config("sk-generic-bound", ns=[6], families=[
            {"kind": "clt-chaos2", "m": 1}, {"kind": "correlated-gaussian", "rr": 3.0}]),
        "error in config ", "'rr'"),
    # A value of the wrong kind, size or shape for its key.
    "ibp-number-phi": (_config("ibp-check", phi=3), "error in config ", "'phi'"),
    "ibp-number-f-expr": (_config("ibp-check", f_expr=3), "error in config ", "'f_expr'"),
    "poincare-number-expr": (_config("poincare", expr=3), "error in config ", "'expr'"),
    "mehler-huge-nodes": ('{"command": "gamma", "mehler": {"quad_nodes": 1%s}}' % ("0" * 30),
                          "error in config ", "'quad_nodes'"),
    "mehler-huge-samples": ('{"command": "gamma", "mehler": {"mc_samples": 1%s}}'
                            % ("0" * 30), "error in config ", "'mc_samples'"),
    "gamma-huge-points": (_config("gamma", n_points=10**30), "error in config ",
                          "'n_points'"),
    "negative-seed": ('{"command": "gamma", "seed": -1}', "error in config ", "'seed'"),
    "sk-gamma-text-families": (_config("sk-gamma-bound", families="iid-gaussian"),
                               "error in config ", "'families'"),
    "sk-free-energy-number-family": (_config("sk-free-energy", family=3),
                                     "error in config ", "'family'"),
    "slepian-large-cov": (_config("slepian", cov_g=np.eye(3).tolist()), "error in config ",
                          "'cov_g'"),
    "slepian-long-bump": (_config("slepian", bump=[0.5, 0.5, 0.5]), "error in config ",
                          "'bump'"),
    "slepian-text-cov": (_config("slepian", cov_g="x"), "error in config ", "'cov_g'"),
    "slepian-bool-cov": (_config("slepian", cov_g=[[True, False], [False, True]]),
                         "error in config ", "'cov_g'"),
    "concentration-negative-x2": (_config("concentration", x2=[1.0, -1.0]),
                                  "error in config ", "'x2'"),
    # Counts that fit in int64 but not in memory: 2**50 points or paths ask for
    # 32 PiB or more, beyond any 64-bit address space, so the allocation fails
    # at once and the message shows the count.
    "gamma-unallocatable-points": (_config("gamma", n_points=2**50), "error: ",
                                   str(2**50)),
    "fbm-unallocatable-dump": (_config("fbm-sde", dump_paths=2**50), "error: ",
                               str(2**50)),
}


@pytest.mark.parametrize("text, prefix, names", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, text, prefix, names):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text)
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert names in captured.err
    assert captured.err.count("\n") == 1


def refuse(*args, **kwargs):
    raise AssertionError("drew outer points, media or ran a Mehler pass")


def assert_rejected(tmp_path, capsys, case):
    text, prefix, names = BAD_INPUTS[case]
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text)
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and names in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["empty-p", "empty-phi"])
def test_empty_check_list_rejected_before_any_draw(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(engine, "sample", refuse)
    monkeypatch.setattr(engine, "coupled_gamma_values", refuse)
    assert_rejected(tmp_path, capsys, case)


FIRST_DRAWS = ((cli, "sample"), (cli, "medium_batch"), (cli, "medium_sample"),
               (comparison, "sample"), (engine, "sample"), (sk, "medium_batch"),
               (fbm, "run_chunked"))


@pytest.mark.parametrize("case", [
    "concentration-both-short-x2", "sk-gamma-bad-third-family",
    "sk-generic-bad-last-family", "convergence-bool-size", "fbm-bool-pair",
    "ibp-number-phi", "ibp-number-f-expr", "poincare-number-expr", "mehler-huge-nodes",
    "mehler-huge-samples", "gamma-huge-points", "negative-seed", "sk-gamma-text-families",
    "sk-free-energy-number-family", "slepian-large-cov", "slepian-long-bump",
    "slepian-text-cov", "slepian-bool-cov", "concentration-negative-x2"])
def test_bad_later_entry_rejected_before_any_draw(tmp_path, capsys, monkeypatch, case):
    for module, name in FIRST_DRAWS:
        monkeypatch.setattr(module, name, refuse)
    assert_rejected(tmp_path, capsys, case)


def bad_values(spec, shape):
    """A strategy of values that a key declared by ``spec`` must reject: a
    bool, text, NaN, 2**63, a wrong length, an out-of-range entry or a
    non-list, as far as each applies to the key's kind."""
    kind = cli._kind(spec)
    strategies = [st.sampled_from([math.nan, math.inf, -math.inf, {"x": 1}])]
    if kind != "bool":
        strategies.append(st.booleans())
    if kind not in ("text", "str", "family") and not spec.choices:
        strategies.append(st.text(max_size=5))
    if kind in ("str", "family") or spec.choices:
        strategies.append(st.text(max_size=5).filter(
            lambda t: t not in spec.choices and t not in cli.FAMILIES))
    if kind == "int" and spec.high is None:
        strategies.append(st.integers(min_value=cli.COUNT_MAX + 1, max_value=2**80))
    if kind == "int" and spec.low is not None:
        strategies.append(st.integers(max_value=spec.low - 1, min_value=-2**70))
    if kind in ("list", "array"):
        strategies.append(st.integers() | st.floats(allow_nan=False))
    if kind == "list":
        strategies.append(st.just([]))
        entry = cli._kind(spec._replace(default=spec.default[0]))
        if entry == "int" and spec.low is not None:
            strategies.append(st.integers(max_value=spec.low - 1).map(lambda n: [n]))
        if entry == "pair":
            strategies.append(st.sampled_from([[[0.5]], [[0.6, 0.4]], [[-0.1, 0.5]],
                                               [[0.5, 1.5]], [["0", 1]]]))
    if kind == "array":
        size = st.integers(0, 4).filter(lambda n: n != shape[0])
        filler = [0.0] * (shape[1] if len(shape) > 1 else 0)
        strategies.append(size.map(lambda n: [list(filler) if filler else 0.5] * n))
    if kind == "array" and spec.low is not None:
        strategies.append(st.floats(max_value=spec.low, exclude_max=True,
                                    allow_infinity=False).map(lambda x: [x] * shape[0]))
    return st.one_of(strategies)


def broken_keys(command):
    """One declared key of a command broken with a bad value: a params key, a
    top-level key or a mehler key, as (section, key, value)."""
    declared = [("params", key, cli._param(spec))
                for key, spec in cli.EXPERIMENTS[command].params.items()]
    declared += [("config", key, cli.CONFIG[key]) for key in ("seed", "workers")]
    declared += [("mehler", key, cli._param(spec)) for key, spec in cli.MEHLER.items()]
    merged = cli.merge("params", SMOKE_CONFIGS[command], cli.EXPERIMENTS[command].params)

    def broken(section, key, spec):
        shape = tuple(merged.get(n, n) for n in spec.shape)
        return bad_values(spec, shape).map(lambda value: (section, key, value))

    return st.sampled_from(declared).flatmap(lambda entry: broken(*entry))


@pytest.mark.parametrize("command", sorted(SMOKE_CONFIGS))
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_declared_key_rejects_a_bad_value_before_any_draw(command, data):
    section, key, value = data.draw(broken_keys(command))
    config = {"command": command, "mehler": dict(SMALL_MEHLER),
              "params": dict(SMOKE_CONFIGS[command])}
    if section == "config":
        config[key] = value
    else:
        config[section][key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for module, name in FIRST_DRAWS:
            patch.setattr(module, name, refuse)
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(err):
            assert main(["--config", str(path), "--out", str(Path(tmp) / "out")]) == 2
    message = err.getvalue()
    assert message.startswith("error in config ") and message.count("\n") == 1
    assert repr(key) in message


LOADED_AFTER_EACH_RUN = """
import json, sys
from wienergamma.cli import run
for config in json.load(sys.stdin):
    run(config)
    print("scipy.special" in sys.modules)
"""


def test_scipy_special_loads_only_for_sk_chaos2():
    configs = [{"command": name, "seed": 3, "mehler": SMALL_MEHLER,
                "params": SMOKE_CONFIGS[name]}
               for name in ("gamma", "fbm-sde", "sk-generic-bound")]
    assert configs[-1]["params"]["families"][0]["kind"] == "clt-chaos2"
    src = str(Path(wienergamma.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", LOADED_AFTER_EACH_RUN],
                         input=json.dumps(configs), capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False", "True"]


def test_readme_config_example_is_accepted():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("A config is a single JSON document:")[1]
    example = example.split("```json")[1].split("```")[0]
    command, params, seed, workers, cfg = cli._settings(json.loads(example))
    assert (command, seed, workers) == ("sk-generic-bound", 7, 1)
    assert cfg == MehlerConfig(quad_nodes=32, mc_samples=4096, antithetic=True, seed=7)


def test_bug_in_a_runner_keeps_its_traceback(tmp_path, monkeypatch):
    def broken(params, seed, workers, cfg):
        raise TypeError("bug")

    monkeypatch.setitem(cli.EXPERIMENTS, "gamma", cli.Experiment(broken, "", "", {}))
    config_path = tmp_path / "cfg.json"
    config_path.write_text('{"command": "gamma"}')
    with pytest.raises(TypeError, match="bug"):
        main(["--config", str(config_path), "--out", str(tmp_path / "out")])


def test_sk_gamma_bound_row_shows_the_least_slack_medium():
    params = {"n": 6, "n_media": 5, "betas": [0.0, 1.0], "families": ["iid-gaussian"]}
    report = run({"command": "sk-gamma-bound", "seed": 1, "params": params})
    rng = np.random.default_rng(np.random.SeedSequence([1, 0x6B]))
    media = [medium_sample(IID_GAUSSIAN, 6, rng) for _ in range(5)]
    for beta, row in zip(params["betas"], report["rows"]):
        bounds = [gamma_f_bound_check(medium, beta) for medium in media]
        tightest = min(bounds, key=lambda b: b.rhs * (1.0 + 1e-12) + 1e-300 - b.lhs)
        assert (row["lhs"], row["rhs"], row["verdict"]) == (tightest.lhs, tightest.rhs, True)
        assert row["rule"] == "pass when lhs <= rhs (1 + 1e-12) + 1e-300"
        if beta > 0:
            assert 0.0 < row["lhs"] < row["rhs"]


def test_ibp_check_accepts_exactly_centered_chaos_forms():
    # The oracle suite is centered exactly; at 500 outer points the sample
    # mean of one pair used to fall outside 3 SE and abort the run.
    report = run({"command": "ibp-check", "seed": 9, "workers": 1,
                  "mehler": SMALL_MEHLER, "params": {"n_outer": 500}})
    assert len(report["rows"]) == 36


def test_perturbation_payoff_blocks_match_one_draw(monkeypatch):
    # Two full blocks and a tail drawn in turn from one stream, against one
    # block of all the points.
    params = {"n_points": 1, "n_value": 2 * BLOCK + 3000}
    assert len(block_bounds(params["n_value"])) == 3
    cfg = MehlerConfig(**SMALL_MEHLER)
    blocked = cli.run_perturbation(params, 5, 1, cfg)
    monkeypatch.setattr(cli, "block_bounds", lambda total: [(0, total)])
    assert cli.run_perturbation(params, 5, 1, cfg) == blocked


def test_scalar_concentration_honours_n_psd(monkeypatch):
    # Gamma of w0 is the constant 1, so the rows do not depend on n_psd, but
    # the PSD check still samples n_psd points.
    calls = []
    original = comparison.gamma_matrix_pointwise

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(comparison, "gamma_matrix_pointwise", counted)
    rows = {}
    for n_psd in (1, 5):
        calls.clear()
        rows[n_psd] = run({"command": "concentration", "seed": 3, "mehler": SMALL_MEHLER,
                           "params": {"case": "scalar-gaussian", "n_outer": 2_000,
                                      "n_psd": n_psd}})["rows"]
        assert len(calls) == n_psd
    assert rows[1] == rows[5]


class TestSmokeRunners:
    """Each experiment at miniature scale: wiring, row schema, verdicts."""

    def _run(self, command, params):
        report = run({"command": command, "seed": 1, "workers": 1,
                      "mehler": SMALL_MEHLER, "params": params})
        for row in report["rows"]:
            assert set(row) == {"name", "lhs", "rhs", "std_error", "verdict", "rule"}
            assert math.isfinite(row["lhs"]) and math.isfinite(row["rhs"])
            if row["rule"] in CONSTRUCTORS:
                rebuilt = CONSTRUCTORS[row["rule"]](
                    row["name"], Estimate(row["lhs"], row["std_error"]), row["rhs"])
                assert asdict(rebuilt) == row
            else:
                assert row["rule"] in OTHER_RULES
            if "/phi-prime/" in row["name"]:
                assert row["rhs"] == 0.0 and math.copysign(1.0, row["rhs"]) == 1.0
        return report

    def test_gamma(self):
        report = self._run("gamma", {"n_points": 2})
        assert len(report["rows"]) == 12

    def test_poincare(self):
        report = self._run("poincare", {"expr": "w0", "p": [2.0], "n_outer": 4_000})
        assert report["all_passed"]

    def test_sudakov(self):
        report = self._run("sudakov", {
            "d": 3, "betas": [2.0], "t_points": 3, "n_outer": 500, "n_sup": 4_000,
        })
        assert report["all_passed"]

    def test_slepian(self):
        report = self._run("slepian", {"n_outer": 500, "n_value": 4_000,
                                       "t_points": 3})
        assert report["all_passed"]

    def test_concentration_scalar(self):
        report = self._run("concentration", {"case": "scalar-gaussian",
                                             "n_outer": 20_000})
        assert report["all_passed"]

    def test_perturbation(self):
        report = self._run("perturbation", {"n_points": 2, "n_value": 10_000})
        assert report["all_passed"]

    def test_fbm(self):
        report = self._run("fbm-sde", {
            "m": 16, "n_paths": 4_000, "n_outer": 50,
            "delta_pairs": [[0.0, 1.0]],
        })
        assert report["all_passed"]

    def test_sk_generic_bound(self):
        report = self._run("sk-generic-bound", {
            "ns": [6, 8], "n_media": 50, "gap_media": 100,
            "families": [{"kind": "clt-chaos2", "m": 1}],
        })
        bound_rows = [r for r in report["rows"] if "generic-bound" in r["name"]]
        assert all(r["verdict"] for r in bound_rows)

    def test_sk_gamma_bound(self):
        report = self._run("sk-gamma-bound", {"n": 6, "n_media": 5,
                                              "betas": [1.0]})
        assert report["all_passed"]

    def test_sk_convergence(self):
        report = self._run("sk-convergence", {"ns": [6], "n_media": 20})
        assert len(report["rows"]) == 3  # star + two families
