import json
import math

import pytest

from wienergamma.cli import list_experiments, main, run, write_report


SMALL_MEHLER = {"quad_nodes": 8, "mc_samples": 256}


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


class TestSmokeRunners:
    """Each experiment at miniature scale: wiring, row schema, verdicts."""

    def _run(self, command, params):
        report = run({"command": command, "seed": 1, "workers": 1,
                      "mehler": SMALL_MEHLER, "params": params})
        for row in report["rows"]:
            assert set(row) == {"name", "lhs", "rhs", "std_error", "verdict", "rule"}
            assert math.isfinite(row["lhs"]) and math.isfinite(row["rhs"])
            assert row["rule"]
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
