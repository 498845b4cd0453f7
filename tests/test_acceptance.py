"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Statistical verdicts follow the house rule (inequalities and identities
accepted at 3 standard errors, both sides always reported); arithmetic checks
are exact to the stated tolerance.  Heavy criteria also assert their runtime
budgets, with wide margins on commodity hardware.
"""

import math
import time

import numpy as np
import pytest

from wienergamma.cli import (
    run as cli_run,
    run_concentration,
    run_fbm_sde,
    run_gamma,
    run_ibp_check,
    run_perturbation,
    run_poincare,
    run_sk_gamma_bound,
    run_sk_generic_bound,
    run_slepian,
    run_sudakov,
    upper,
    write_report,
)
from wienergamma.comparison import softmax_sup
from wienergamma.core import Functional, build_space, sample, w
from wienergamma.engine import MehlerConfig, capital_delta, gamma_pointwise, poincare_check
from wienergamma.sk import (
    IID_GAUSSIAN,
    free_energy_exact,
    free_energy_reference,
    medium_sample,
)

ACCEPTANCE_CFG = MehlerConfig(quad_nodes=64, mc_samples=20_000, seed=0)
DEFAULT_CFG = MehlerConfig(seed=0)


def announce(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


class TestCriterion01IntegrationByParts:
    def test_ibp_suite(self):
        started = time.monotonic()
        rows = run_ibp_check({"n_outer": 10_000}, seed=101, workers=1,
                             cfg=ACCEPTANCE_CFG)
        elapsed = time.monotonic() - started
        assert len(rows) == 36  # 12 pairs x {id, square, tanh}
        failures = [r.name for r in rows if not r.verdict]
        assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"
        announce(1, not failures,
                 f"36 integration-by-parts residuals within 3 SE "
                 f"({elapsed:.0f}s)" + (f"; failures: {failures}" if failures else ""))


class TestCriterion02MehlerVsOracle:
    def test_engine_matches_oracle(self):
        started = time.monotonic()
        rows = run_gamma({"n_points": 20}, seed=102, workers=1,
                         cfg=ACCEPTANCE_CFG)
        elapsed = time.monotonic() - started
        assert len(rows) == 12
        failures = [r.name for r in rows if not r.verdict]
        assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"
        announce(2, not failures,
                 f"engine agrees with the chaos oracle within max(1%, 3 SE) at "
                 f"20 points per pair ({elapsed:.0f}s)")


class TestCriterion03GaussianReduction:
    def test_first_chaos_gamma_and_delta_are_gram_values(self):
        gram = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.1], [0.2, -0.1, 2.0]])
        space = build_space(3, gram=gram)
        left = space.whitener
        fields = [
            Functional(space, sum((float(left[i, a]) * w(a) for a in range(3)),
                                  start=0.0 * w(0)))
            for i in range(3)
        ]
        omega = sample(space, np.random.default_rng(103))
        ok = True
        details = []
        for i in range(3):
            for j in range(3):
                est = gamma_pointwise(fields[i], fields[j], omega, DEFAULT_CFG)
                if est.std_error > 1e-10 or abs(est.value - gram[j, i]) > 1e-12:
                    ok = False
                    details.append(f"Gamma[{i},{j}]={est.value}")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            est = capital_delta(fields[i], fields[j], omega, DEFAULT_CFG)
            target = gram[i, i] + gram[j, j] - 2.0 * gram[i, j]
            if est.std_error > 1e-10 or abs(est.value - target) > 1e-12:
                ok = False
                details.append(f"Delta[{i},{j}]={est.value} vs {target}")
        announce(3, ok, "first-chaos Gamma and Delta deterministic (SE <= 1e-10) "
                 "and equal to the Gram values" + (f"; {details}" if details else ""))


class TestCriterion04SudakovFernique:
    def test_dominated_gaussian_fields(self):
        rows = run_sudakov({
            "d": 5, "sigma_f": 1.0, "sigma_g": 1.5,
            "betas": (1.0, 2.0, 4.0, 8.0, 16.0), "t_points": 21,
            "n_outer": 4_000, "n_sup": 100_000,
        }, seed=104, workers=1, cfg=DEFAULT_CFG)
        phi_rows = [r for r in rows if "phi-prime" in r.name]
        assert len(phi_rows) == 105  # 21 grid points x 5 betas
        failures = [r.name for r in rows if not r.verdict]
        announce(4, not failures,
                 "phi' <= 0 within 3 SE on the whole (t, beta) grid, "
                 "E max F <= E max G + 3 SE at 1e5 samples, and the "
                 "independent-additive-noise baseline holds")


class TestCriterion05SoftmaxSandwich:
    def test_exact_sandwich_on_random_vectors(self):
        rng = np.random.default_rng(105)
        violations = 0
        for beta in (0.5, 1.0, 4.0, 16.0):
            for d in (2, 5, 11):
                v = rng.standard_normal((2_500, d)) * 3.0
                s = softmax_sup(beta, v)
                m = np.max(v, axis=-1)
                violations += int(np.sum(s < m))
                violations += int(np.sum(s > m + math.log(d) / beta + 1e-12))
        announce(5, violations == 0,
                 "max <= softmax <= max + log(d)/beta on 30000 random vectors, "
                 f"{violations} violations")


class TestCriterion06Slepian:
    def test_gaussian_quadratic_case(self):
        rows = run_slepian({"n_outer": 4_000, "n_value": 100_000,
                            "t_points": 11}, seed=106, workers=1,
                           cfg=DEFAULT_CFG)
        failures = [r.name for r in rows if not r.verdict]
        announce(6, not failures,
                 "Gaussian quadratic-payoff comparison: phi' >= -3 SE on the "
                 "grid and E f(F) >= E f(G) - 3 SE")

    def test_perturbation_construction(self):
        rows = run_perturbation({"n_points": 5, "n_value": 150_000},
                                seed=107, workers=1,
                                cfg=MehlerConfig(mc_samples=8192, seed=0))
        failures = [r.name for r in rows if not r.verdict]
        announce(6, not failures,
                 "perturbed Gaussian vector: Gamma dominates the base "
                 "covariance entrywise (3 SE) and the monotone payoff "
                 "comparison holds")


class TestCriterion07Concentration:
    def test_scalar_and_chaos_tails(self):
        rows = run_concentration({"case": "both", "n_outer": 1_000_000},
                                 seed=108, workers=1, cfg=DEFAULT_CFG)
        by_name = {r.name: r for r in rows}
        scalar_tail = by_name["concentration/scalar/tail"]
        # Exact references: bound e^{-2}, true tail = erfc(sqrt(2))/2.
        assert scalar_tail.rhs == pytest.approx(math.exp(-2.0), abs=1e-12)
        true_tail = 0.5 * math.erfc(2.0 / math.sqrt(2.0))
        assert scalar_tail.lhs == pytest.approx(
            true_tail, abs=4.0 * scalar_tail.std_error)
        failures = [r.name for r in rows if not r.verdict]
        announce(7, not failures,
                 f"scalar tail {scalar_tail.lhs:.5f} <= bound "
                 f"{scalar_tail.rhs:.5f}; chaos-2 joint tail at 1e6 samples "
                 "under its bound with the sampled PSD check")


class TestCriterion08Poincare:
    def test_suite_of_six_functionals(self):
        rows = run_poincare({"p": [2.0, 3.0, 4.0], "n_outer": 20_000},
                            seed=109, workers=1, cfg=DEFAULT_CFG)
        assert len(rows) == 18
        failures = [r.name for r in rows if not r.verdict]
        announce(8, not failures,
                 "E|F|^p <= (p-1)^{p/2} E|Gamma|^{p/2} + 3 SE on 6 functionals "
                 "x p in {2,3,4}")

    def test_p2_gaussian_near_equality(self):
        space = build_space(2)
        f = Functional(space, w(0))
        [(lhs, rhs)] = poincare_check(f, [2.0], n_outer=400_000, cfg=DEFAULT_CFG,
                                      seed=110)
        gap = abs(lhs.value - rhs.value)
        row = upper("poincare/p=2", lhs.value, rhs.value,
                    math.hypot(lhs.std_error, rhs.std_error))
        announce(8, gap < 0.01 and row.verdict,
                 f"p=2 Gaussian case within 1% of equality (|{lhs.value:.5f} - "
                 f"{rhs.value:.5f}| = {gap:.5f})")


class TestCriterion09FbmSde:
    def test_full_fbm_experiment(self):
        started = time.monotonic()
        rows = run_fbm_sde({"hurst": 0.7, "m": 128, "horizon": 1.0,
                            "n_paths": 100_000, "n_outer": 400},
                           seed=111, workers=1, cfg=DEFAULT_CFG)
        elapsed = time.monotonic() - started
        failures = [r.name for r in rows if not r.verdict]
        assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 minutes"
        announce(9, not failures,
                 "driftless Delta reproduces |t-s|^{2H} (max(2%, 3 SE)) at 5 "
                 "pairs; increasing drift dominates it; supremum comparison "
                 f"holds and reverses with the drift sign ({elapsed:.0f}s)")


class TestCriterion10SkExactness:
    def test_two_spin_closed_form(self):
        rng = np.random.default_rng(112)
        ok = True
        for beta in (0.5, 1.0, 2.0):
            med = medium_sample(IID_GAUSSIAN, 2, rng)
            value = free_energy_exact(med.coupling, beta).value
            closed = 0.5 * math.log(math.cosh(beta * med.coupling[1, 0]))
            ok = ok and abs(value - closed) <= 1e-12
        announce(10, ok, "N=2 free energy equals (1/2) log cosh(beta J_21) "
                 "to 1e-12")

    def test_gray_walk_bit_exact(self):
        rng = np.random.default_rng(113)
        ok = True
        for n in (6, 8, 10):
            med = medium_sample(IID_GAUSSIAN, n, rng)
            walked = free_energy_exact(med.coupling, 1.1).value
            direct = free_energy_reference(med.coupling, 1.1).value
            ok = ok and (walked == direct)
        announce(10, ok, "Gray-code enumeration equals the from-scratch "
                 "reference bit-for-bit for N in {6, 8, 10}")

    def test_hamiltonian_variance(self):
        n = 10
        rng = np.random.default_rng(114)
        sigma = np.sign(rng.standard_normal(n))
        couplings = np.stack([
            medium_sample(IID_GAUSSIAN, n, rng).coupling for _ in range(20_000)
        ])
        values = np.einsum("i,bij,j->b", sigma, couplings, sigma) / math.sqrt(2.0 * n)
        sq = values**2
        se = float(np.std(sq, ddof=1)) / math.sqrt(len(sq))
        gap = abs(float(np.mean(sq)) - (n - 1))
        announce(10, gap <= 3.0 * se,
                 f"Var_J[H(sigma)] = N - 1 within 3 SE (gap {gap:.3f}, "
                 f"SE {se:.3f})")


class TestCriterion11SkGenericBound:
    def test_bound_cells_and_gap_ladder(self):
        started = time.monotonic()
        rows = run_sk_generic_bound({
            "ns": (8, 12, 16), "beta": 1.0, "n_media": 200, "f": "tanh",
            "gap_media": 4_000,
        }, seed=115, workers=1, cfg=DEFAULT_CFG)
        elapsed = time.monotonic() - started
        bound_rows = [r for r in rows if "generic-bound" in r.name]
        assert len(bound_rows) == 9  # 3 families x 3 sizes
        failures = [r.name for r in rows if not r.verdict]
        assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 minutes"
        announce(11, not failures,
                 "lhs <= rhs in all 9 family/size cells at 200 media, and the "
                 "paired chaos2(m=N) free-energy gap decreases along "
                 f"N in {{8, 12, 16}} ({elapsed:.0f}s)")


class TestCriterion12SkGammaBound:
    def test_bound_per_sampled_medium(self):
        all_rows = []
        for n in (8, 12):
            all_rows += run_sk_gamma_bound({"n": n, "betas": (0.5, 1.0),
                                            "n_media": 50}, seed=116,
                                           workers=1, cfg=DEFAULT_CFG)
        failures = [r.name for r in all_rows if not r.verdict]
        announce(12, not failures,
                 "Gamma_{F,F} bound holds exactly for every sampled medium "
                 "(4 families x 50 media x beta in {0.5, 1}, N in {8, 12})")


SMOKE_CONFIGS = {
    "gamma": {"n_points": 2},
    "ibp-check": {"f_expr": "w0", "phi": "id", "n_outer": 2_000},
    "poincare": {"expr": "w0", "p": [2.0], "n_outer": 2_000},
    "sudakov": {"d": 2, "betas": [2.0], "t_points": 3, "n_outer": 300,
                "n_sup": 2_000},
    "slepian": {"n_outer": 300, "n_value": 2_000, "t_points": 3},
    "concentration": {"case": "scalar-gaussian", "n_outer": 10_000},
    "perturbation": {"n_points": 1, "n_value": 5_000},
    "fbm-sde": {"m": 16, "n_paths": 2_000, "n_outer": 20,
                "delta_pairs": [[0.0, 1.0]]},
    "sk-free-energy": {"n": 6, "beta": 1.0, "check_reference": True},
    "sk-generic-bound": {"ns": [6], "n_media": 30, "gap_media": 60,
                         "families": [{"kind": "clt-chaos2", "m": 1}]},
    "sk-gamma-bound": {"n": 6, "n_media": 4, "betas": [1.0]},
    "sk-convergence": {"ns": [6], "n_media": 20},
}


class TestCriterion13Reproducibility:
    def test_every_experiment_byte_identical(self, tmp_path):
        mismatches = []
        for name, params in SMOKE_CONFIGS.items():
            config = {"command": name, "seed": 117, "workers": 2,
                      "mehler": {"quad_nodes": 8, "mc_samples": 256},
                      "params": params}
            report_a = cli_run(config)
            report_b = cli_run(config)
            dir_a = tmp_path / f"{name}-a"
            dir_b = tmp_path / f"{name}-b"
            for pa, pb in zip(write_report(report_a, dir_a, "both"),
                              write_report(report_b, dir_b, "both")):
                if pa.read_bytes() != pb.read_bytes():
                    mismatches.append(name)
        announce(13, not mismatches,
                 "all 12 experiments byte-identical under fixed "
                 "(config, seed, workers)" +
                 (f"; mismatches: {mismatches}" if mismatches else ""))
