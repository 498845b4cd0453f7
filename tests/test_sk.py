import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from wienergamma.chaos import form, gamma_oracle
from wienergamma.cli import upper
from wienergamma.core import build_space
from wienergamma.engine import Estimate, difference, mean_estimate
from wienergamma.sk import (
    ENERGY_CHUNK,
    IID_GAUSSIAN,
    MediumFamily,
    chaos2_abs_gamma_gap,
    chaos2_star_coupling,
    condition_audit,
    convergence_experiment,
    coupling_scale,
    free_energy_batch,
    free_energy_exact,
    free_energy_reference,
    gamma_f_bound_check,
    generic_bound_check,
    gibbs_weights,
    medium_batch,
    medium_sample,
    paired_chaos2_gap,
    spin_correlations,
    upper_pairs,
)
from util import cross_normalized, cross_row_normalized, diag_normalized, hamiltonian

CORRELATED = MediumFamily("correlated-gaussian", r=3.0)


def random_coupling(n, rng):
    return medium_sample(IID_GAUSSIAN, n, rng).coupling


def gibbs_expectation(coupling, beta, observable) -> float:
    """Exact Gibbs average of ``observable(signs) -> (2^N,)`` values."""
    signs, weights = gibbs_weights(coupling, beta)
    return float(weights @ np.asarray(observable(signs), dtype=float))


def gibbs_pair_expectation(coupling, beta, observable) -> float:
    """Average of ``observable(sigma, sigma_tilde)`` over two independent
    copies under the same Gibbs law (brute force, O(4^N))."""
    signs, weights = gibbs_weights(coupling, beta)
    total = 0.0
    for a in range(len(signs)):
        for b in range(len(signs)):
            total += weights[a] * weights[b] * observable(signs[a], signs[b])
    return total


def gamma_bound_holds(res) -> bool:
    """The exact Gamma bound, with its floors for rounding."""
    return res.lhs <= res.rhs * (1.0 + 1e-12) + 1e-300


class TestHamiltonian:
    def test_two_spins(self):
        j = np.array([[0.0, 0.7], [0.7, 0.0]])
        sigma = np.array([1.0, -1.0])
        # (2 / sqrt(4)) * sigma_1 sigma_0 J_10 = -0.7
        assert hamiltonian(sigma, j) == pytest.approx(-0.7)

    def test_all_plus_constant_coupling(self):
        n = 6
        j = np.ones((n, n)) - np.eye(n)
        sigma = np.ones(n)
        expected = n * (n - 1) / math.sqrt(2.0 * n)
        assert hamiltonian(sigma, j) == pytest.approx(expected)

    def test_global_flip_invariance(self):
        rng = np.random.default_rng(1)
        j = random_coupling(5, rng)
        sigma = np.sign(rng.standard_normal(5))
        assert hamiltonian(sigma, j) == pytest.approx(hamiltonian(-sigma, j))


class TestFreeEnergyExact:
    def test_two_spin_closed_form(self):
        rng = np.random.default_rng(2)
        for beta in (0.3, 1.0, 2.5):
            j = random_coupling(2, rng)
            res = free_energy_exact(j, beta)
            expected = 0.5 * math.log(math.cosh(beta * j[1, 0]))
            assert res.value == pytest.approx(expected, abs=1e-12)

    def test_beta_zero_vanishes(self):
        j = random_coupling(4, np.random.default_rng(3))
        assert free_energy_exact(j, 0.0).value == pytest.approx(0.0, abs=1e-14)

    def test_zero_coupling_vanishes(self):
        j = np.zeros((5, 5))
        assert free_energy_exact(j, 1.7).value == pytest.approx(0.0, abs=1e-14)

    def test_bit_exact_against_reference(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 5, 8, 10):
            j = random_coupling(n, rng)
            walked = free_energy_exact(j, 1.3).value
            direct = free_energy_reference(j, 1.3).value
            assert walked == direct  # bit-for-bit

    def test_batch_matches_exact(self):
        rng = np.random.default_rng(5)
        js = np.stack([random_coupling(8, rng) for _ in range(5)])
        batch = free_energy_batch(js, 0.9)
        for k in range(5):
            exact = free_energy_exact(js[k], 0.9).value
            assert batch[k] == pytest.approx(exact, abs=1e-11)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_block_split_matches_exact(self, n):
        # N = 1 and 2 leave half B empty or a single spin; beta = 25 needs
        # the max shift of the log-sum-exp.
        j = random_coupling(n, np.random.default_rng(50 + n))
        for beta in (0.0, 0.9, 25.0):
            batch = free_energy_batch(j[None], beta)
            exact = free_energy_exact(j, beta).value
            assert batch[0] == pytest.approx(exact, abs=1e-11)

    def test_media_chunk_boundary(self):
        n = 10
        per_chunk = ENERGY_CHUNK // 2 ** (n - 1)
        rng = np.random.default_rng(51)
        js = np.stack([random_coupling(n, rng) for _ in range(per_chunk + 1)])
        exact = [free_energy_exact(j, 0.9).value for j in js]
        for count in (1, per_chunk, per_chunk + 1):
            batch = free_energy_batch(js[:count], 0.9)
            assert batch == pytest.approx(exact[:count], abs=1e-11)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="N <= 24"):
            free_energy_exact(np.zeros((25, 25)), 1.0)
        with pytest.raises(ValueError, match="N <= 24"):
            free_energy_batch(np.zeros((1, 25, 25)), 1.0)


class TestGibbs:
    def test_uniform_measure_at_beta_zero(self):
        j = random_coupling(4, np.random.default_rng(6))
        corr = spin_correlations(j, 0.0)
        assert np.allclose(np.diag(corr), 1.0)
        off = corr - np.diag(np.diag(corr))
        assert np.allclose(off, 0.0, atol=1e-12)

    def test_two_spin_correlation_closed_form(self):
        rng = np.random.default_rng(7)
        j = random_coupling(2, rng)
        beta = 1.4
        corr = spin_correlations(j, beta)
        # Direct four-state sum gives <sigma_0 sigma_1> = -tanh(beta J_10).
        assert corr[0, 1] == pytest.approx(-math.tanh(beta * j[1, 0]), abs=1e-12)

    def test_pair_expectation_factorizes(self):
        rng = np.random.default_rng(8)
        j = random_coupling(4, rng)
        beta = 0.8
        corr = spin_correlations(j, beta)
        val = gibbs_pair_expectation(
            j, beta, lambda a, b: float(a[0] * a[1]) * float(b[0] * b[1]))
        assert val == pytest.approx(corr[0, 1] ** 2, abs=1e-12)

    def test_gibbs_expectation_observable(self):
        j = random_coupling(3, np.random.default_rng(9))
        val = gibbs_expectation(j, 0.0, lambda s: s[:, 0] * s[:, 0])
        assert val == pytest.approx(1.0)


class TestMediumFamilies:
    def test_iid_gamma_is_one(self):
        med = medium_sample(IID_GAUSSIAN, 6, np.random.default_rng(10))
        rows, cols = upper_pairs(6)
        assert np.all(med.gamma_diag[rows, cols] == 1.0)
        assert np.all(np.diag(med.coupling) == 0.0)
        assert np.array_equal(med.coupling, med.coupling.T)

    def test_chaos2_gamma_is_mean_square(self):
        med = medium_sample(MediumFamily("clt-chaos2", m=4), 5, np.random.default_rng(11))
        rows, cols = upper_pairs(5)
        gammas = med.gamma_diag[rows, cols]
        assert np.all(gammas > 0)
        # Gamma has mean one per entry.
        assert np.mean(gammas) == pytest.approx(1.0, abs=0.5)

    @pytest.mark.parametrize("family", [IID_GAUSSIAN, MediumFamily("clt-chaos2", m=3),
                                        MediumFamily("clt-chaos2", m="N"), CORRELATED])
    def test_batch_matches_single_draws(self, family):
        batch_rng, single_rng = np.random.default_rng(14), np.random.default_rng(14)
        couplings, gammas = medium_batch(family, 6, batch_rng, 5)
        for coupling, gamma_diag in zip(couplings, gammas):
            med = medium_sample(family, 6, single_rng)
            assert np.array_equal(coupling, med.coupling)
            assert np.array_equal(gamma_diag, med.gamma_diag)

    def test_chaos2_entry_variance_is_one(self):
        rng = np.random.default_rng(12)
        family = MediumFamily("clt-chaos2", m=3)
        media = [medium_sample(family, 4, rng) for _ in range(4000)]
        entries = np.array([m.coupling[1, 0] for m in media])
        se = np.std(entries**2, ddof=1) / math.sqrt(len(entries))
        assert np.mean(entries**2) == pytest.approx(1.0, abs=3.0 * se)

    def test_correlated_gaussian_covariance(self):
        rng = np.random.default_rng(13)
        n = 5
        media = [medium_sample(CORRELATED, n, rng) for _ in range(30_000)]
        a = np.array([m.coupling[1, 0] for m in media])
        b = np.array([m.coupling[2, 0] for m in media])
        prods = a * b
        se = np.std(prods, ddof=1) / math.sqrt(len(prods))
        target = (1.0 + 1 + 0) ** -3.0  # offsets |1-2| = 1, |0-0| = 0
        assert np.mean(prods) == pytest.approx(target, abs=3.0 * se)

    def test_variance_identity_for_fixed_configuration(self):
        # Var over media of H(sigma) equals N - 1 for the IID family.
        n = 10
        rng = np.random.default_rng(14)
        sigma = np.sign(rng.standard_normal(n))
        values = np.array([
            hamiltonian(sigma, medium_sample(IID_GAUSSIAN, n, rng).coupling)
            for _ in range(20_000)
        ])
        sq = values**2
        se = np.std(sq, ddof=1) / math.sqrt(len(sq))
        assert np.mean(sq) == pytest.approx(n - 1, abs=3.0 * se)

    def test_chaos2_entry_gamma_matches_engine_oracle(self):
        # One chaos-2 entry as an explicit form: Gamma = mean of xi_k^2.
        m = 4
        space = build_space(m)
        entry = form(space, *[(1.0 / math.sqrt(2 * m), ((k, 2),)) for k in range(m)])
        xi = np.random.default_rng(15).standard_normal(m)
        expected = float(np.mean(xi**2))
        assert gamma_oracle(entry, entry, xi) == pytest.approx(expected, abs=1e-12)


class TestConditionAudit:
    def test_iid_all_zero(self):
        audit = condition_audit(IID_GAUSSIAN, 8)
        assert audit.sum_cross_abs == 0.0
        assert audit.sum_diag_gap == 0.0
        assert audit.moment_bound == 1.0

    def test_chaos2_gap_matches_quadrature(self):
        # Independent oracle: integrate |x/m - 1| against the chi-square density.
        for m in (1, 2, 5, 16):
            quad_value, _ = integrate.quad(
                lambda x: abs(x / m - 1.0) * stats.chi2.pdf(x, df=m), 0, np.inf)
            assert chaos2_abs_gamma_gap(m) == pytest.approx(quad_value, abs=1e-9)

    def test_chaos2_gap_is_the_incomplete_gamma_formula(self):
        for m in range(1, 9):
            half = 0.5 * m
            direct = 2.0 * float(special.gammainc(half, half)
                                 - special.gammainc(half + 1.0, half))
            assert chaos2_abs_gamma_gap(m) == direct

    def test_star_coupling_is_the_quantile_formula(self):
        entries = np.random.default_rng(31).standard_normal((3, 15)) * 2.0
        for m in (1, 4, 6):
            x = np.clip(m + entries * math.sqrt(2.0 * m), 0.0, None)
            u = special.gammainc(0.5 * m, 0.5 * x)
            direct = special.ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
            assert np.array_equal(chaos2_star_coupling(entries, m), direct)

    def test_chaos2_scaled_family_decreases_on_ladder(self):
        family = MediumFamily("clt-chaos2", m="N")
        values = [diag_normalized(condition_audit(family, n)) for n in (8, 12, 16)]
        assert values[0] > values[1] > values[2]
        # Theta(N^{-1/2}) scaling: ratio between rungs roughly sqrt(N ratio).
        assert values[0] / values[2] == pytest.approx(math.sqrt(16 / 8), rel=0.2)

    def test_correlated_row_sum_normalized_decreases(self):
        # The per-entry cross sum is O(1) for r > 2, so over N^2 it decays;
        # the full pair sum converges to a lattice constant instead.
        row_vals = []
        full_vals = []
        for n in (8, 12, 16):
            audit = condition_audit(CORRELATED, n)
            row_vals.append(cross_row_normalized(audit))
            full_vals.append(cross_normalized(audit))
        assert row_vals[0] > row_vals[1] > row_vals[2]
        assert full_vals[2] < 1.0  # bounded by the lattice constant

    def test_chaos2_moment_bound(self):
        audit = condition_audit(MediumFamily("clt-chaos2", m=4), 6)
        assert audit.moment_bound == pytest.approx(1.5)


class TestGenericBound:
    def test_same_law_is_tight_zero(self):
        lhs, rhs = generic_bound_check(IID_GAUSSIAN, n=8, beta=1.0, n_media=300, seed=16)
        assert rhs == 0.0
        assert lhs.value <= 3.0 * lhs.std_error

    def test_chaos2_m1_bound_value(self):
        lhs, rhs = generic_bound_check(MediumFamily("clt-chaos2", m=1), n=8, beta=1.0,
                                       n_media=200, seed=17)
        n_bar = 8 * 7 / 2
        expected_rhs = (3.0 / (2.0 * 64.0)) * n_bar * chaos2_abs_gamma_gap(1)
        assert rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert upper("bound", lhs, rhs).verdict

    def test_correlated_family_ladder(self):
        for n in (8, 12):
            lhs, rhs = generic_bound_check(CORRELATED, n=n, beta=1.0,
                                           n_media=100, seed=18)
            assert upper("bound", lhs, rhs).verdict

    def test_lhs_is_the_difference_of_the_two_laws(self):
        # |E f(p*) - E f(p)| with the SE of two independent estimates, as
        # the bound formed it before engine.difference did.
        family, n, beta, n_media, seed = CORRELATED, 8, 1.0, 40, 19
        lhs, _ = generic_bound_check(family, n, beta, n_media=n_media, seed=seed)
        star, fam = (mean_estimate([np.tanh(free_energy_batch(
            medium_batch(law, n, np.random.default_rng(np.random.SeedSequence(
                [seed, salt, n])), n_media)[0], beta))])
            for law, salt in ((IID_GAUSSIAN, 0x5A), (family, 0xFA)))
        assert lhs == Estimate(abs(star.value - fam.value),
                               math.hypot(star.std_error, fam.std_error))
        assert lhs.std_error == difference(star, fam).std_error

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError, match="test map"):
            generic_bound_check(IID_GAUSSIAN, 8, 1.0, f_name="cubic")


class TestGammaFBound:
    def test_beta_zero(self):
        med = medium_sample(IID_GAUSSIAN, 6, np.random.default_rng(19))
        res = gamma_f_bound_check(med, 0.0)
        assert res.lhs == 0.0
        assert res.rhs == 0.0
        assert gamma_bound_holds(res)

    def test_iid_rhs_closed_form(self):
        n, beta = 8, 1.0
        med = medium_sample(IID_GAUSSIAN, n, np.random.default_rng(20))
        res = gamma_f_bound_check(med, beta)
        assert res.rhs == pytest.approx(beta**2 * (n - 1) / n**2)
        assert res.lhs <= res.rhs
        assert gamma_bound_holds(res)

    def test_holds_per_sampled_medium(self):
        rng = np.random.default_rng(21)
        for family in (IID_GAUSSIAN, MediumFamily("clt-chaos2", m=4), CORRELATED):
            for _ in range(10):
                med = medium_sample(family, 8, rng)
                for beta in (0.5, 1.0):
                    assert gamma_bound_holds(gamma_f_bound_check(med, beta))

    def test_poincare_for_centered_free_energy(self):
        # E|F_N|^2 <= E|Gamma_{F_N, F_N}| with F_N the centered free energy.
        n, beta = 8, 1.0
        rng = np.random.default_rng(22)
        media = [medium_sample(IID_GAUSSIAN, n, rng) for _ in range(400)]
        values = free_energy_batch(np.stack([m.coupling for m in media]), beta)
        var = float(np.var(values, ddof=1))
        # lhs is |Gamma_{F_N, F_N}|, and Gamma_{F_N, F_N} >= 0 here.
        gammas = np.array([gamma_f_bound_check(m, beta).lhs for m in media])
        se = np.std(gammas, ddof=1) / math.sqrt(len(gammas))
        var_se = var * math.sqrt(2.0 / (len(values) - 1))
        assert var <= np.mean(gammas) + 3.0 * math.hypot(se, var_se)


class TestConvergence:
    def test_beta_zero_all_zero(self):
        rows = convergence_experiment([MediumFamily("clt-chaos2", m=1)], 0.0, ns=(4, 6),
                                      n_media=5, seed=23)
        assert all(abs(r.mean) < 1e-12 for r in rows)

    def test_same_law_batches_agree(self):
        rows = convergence_experiment([IID_GAUSSIAN], 1.0, ns=(8,), n_media=200,
                                      seed=24)
        star = next(r for r in rows if r.family_label == "iid-gaussian*")
        fam = next(r for r in rows if r.family_label == "iid-gaussian")
        combined_sd = math.hypot(star.std_error, fam.std_error)
        assert abs(fam.gap_to_star) <= 2.0 * combined_sd

    def test_paired_gap_matches_independent_estimate(self):
        # The coupled estimator is unbiased for the plain cross-family gap.
        paired = paired_chaos2_gap(8, 1.0, n_media=3_000, seed=26)
        rows = convergence_experiment([MediumFamily("clt-chaos2", m="N")], 1.0, ns=(8,),
                                      n_media=4_000, seed=27)
        fam = next(r for r in rows if r.family_label.startswith("clt"))
        star = next(r for r in rows if r.family_label == "iid-gaussian*")
        combined = math.hypot(
            paired.std_error, math.hypot(fam.std_error, star.std_error))
        assert paired.value == pytest.approx(fam.gap_to_star, abs=3.0 * combined)

    def test_chaos2_scaled_gap_decreases(self):
        gaps = [
            abs(paired_chaos2_gap(n, 1.0, n_media=3_000, seed=28).value)
            for n in (8, 12, 16)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestCouplingScale:
    def test_matches_pair_count_normalization(self):
        n = 8
        sigma = np.ones(n)
        j = np.ones((n, n)) - np.eye(n)
        expected = coupling_scale(n) * (n * (n - 1) / 2)
        assert hamiltonian(sigma, j) == pytest.approx(expected)
