import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import wienergamma
from wienergamma import cli, comparison, engine
from wienergamma.cli import close, list_experiments, lower, main, run, upper, write_report
from wienergamma.engine import MehlerConfig
from wienergamma.sk import IID_GAUSSIAN, gamma_f_bound_check, medium_sample
from test_acceptance import SMOKE_CONFIGS


SMALL_MEHLER = {"quad_nodes": 8, "mc_samples": 256}

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
    def test_upper_boundary(self):
        assert upper("r", 2.5, 1.0, 0.5).verdict
        assert not upper("r", np.nextafter(2.5, 3.0), 1.0, 0.5).verdict

    def test_lower_boundary(self):
        assert lower("r", 0.25, 1.0, 0.25).verdict
        assert not lower("r", np.nextafter(0.25, 0.0), 1.0, 0.25).verdict

    def test_close_boundary_on_both_sides(self):
        for edge, outward, rhs in ((2.5, 3.0, 1.0), (-1.5, -2.0, 0.0)):
            assert close("r", edge, rhs, 0.5).verdict
            assert not close("r", np.nextafter(edge, outward), rhs, 0.5).verdict

    def test_zero_standard_error(self):
        assert upper("r", 1.0, 1.0, 0.0).verdict
        assert not upper("r", np.nextafter(1.0, 2.0), 1.0, 0.0).verdict
        assert lower("r", -1e-12, 0.0, 0.0, atol=1e-12).verdict
        assert not lower("r", -2e-12, 0.0, 0.0, atol=1e-12).verdict
        assert not lower("r", -1e-300, 0.0, 0.0).verdict
        assert close("r", 1.0, 1.0, 0.0).verdict
        assert not close("r", np.nextafter(1.0, 2.0), 1.0, 0.0).verdict

    def test_rel_dominates_three_se(self):
        assert close("r", 2.19, 2.0, 0.01, rel=0.1).verdict
        assert close("r", -2.19, -2.0, 0.01, rel=0.1).verdict
        assert not close("r", 2.21, 2.0, 0.01, rel=0.1).verdict

    def test_rules_without_slack_options_are_unchanged(self):
        assert upper("r", 0.0, 0.0, 1.0).rule == "pass when lhs <= rhs + 3 SE"
        assert close("r", 0.0, 0.0, 1.0).rule == "pass when |lhs - rhs| <= 3 SE"

    def test_aggregate_row_is_the_entry_with_least_slack(self):
        row = close("r", np.array([1.0, 1.4, 1.1]), 1.0, np.array([0.1, 0.1, 0.1]))
        assert (row.lhs, row.rhs, row.std_error, row.verdict) == (1.4, 1.0, 0.1, False)
        row = lower("r", np.array([[2.0, 0.9], [1.5, 1.0]]), np.array([1.0, 1.0]), 0.05)
        assert (row.lhs, row.verdict) == (0.9, True)
        assert row == lower("r", 0.9, 1.0, 0.05)


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
                           "error: ", "'rr'"),
    "unknown-case": (_config("concentration", case="scalar"), "error in config ",
                     "'scalar'"),
    "empty-ns": (_config("sk-generic-bound", ns=[]), "error in config ", "'ns'"),
    "no-media": (_config("sk-gamma-bound", n=4, n_media=0), "error in config ",
                 "'n_media'"),
    "empty-p": (_config("poincare", p=[]), "error: ", "'p': []"),
    "empty-phi": (_config("ibp-check", phi=[]), "error: ", "'phi': []"),
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
    "generic-size-zero": (_config("sk-generic-bound", ns=[0]), "error: ", "'ns'"),
    "generic-size-one": (_config("sk-generic-bound", ns=[1]), "error: ", "'ns'"),
    "convergence-size-zero": (_config("sk-convergence", ns=[0]), "error: ", "'ns'"),
    "fbm-negative-dump": (_config("fbm-sde", dump_paths=-1), "error in config ",
                          "'dump_paths'"),
    "fbm-short-pair": (_config("fbm-sde", delta_pairs=[[0.5]]), "error: ",
                       "'delta_pairs'"),
    "fbm-text-pair": (_config("fbm-sde", delta_pairs=[["a", 1]]), "error: ",
                      "'delta_pairs'"),
    "fbm-pair-past-horizon": (_config("fbm-sde", delta_pairs=[[0.5, 2.0]]), "error: ",
                              "'delta_pairs'"),
    "fbm-pairs-not-a-list": (_config("fbm-sde", delta_pairs=5), "error: ",
                             "'delta_pairs'"),
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


@pytest.mark.parametrize("case", ["empty-p", "empty-phi"])
def test_empty_check_list_rejected_before_any_draw(tmp_path, capsys, monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("drew outer points or ran a Mehler pass")

    monkeypatch.setattr(engine, "sample", refuse)
    monkeypatch.setattr(engine, "coupled_gamma_values", refuse)
    text, prefix, names = BAD_INPUTS[case]
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text)
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and names in err and err.count("\n") == 1


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
                    row["name"], row["lhs"], row["rhs"], row["std_error"])
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
