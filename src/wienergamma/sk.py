"""Sherrington-Kirkpatrick free energy and universality bound checks.

The Hamiltonian over spin configurations sigma in {-1, 1}^N under a symmetric
random coupling matrix J (zero diagonal) is

    H(sigma) = (2N)^{-1/2} sum_{i != j} sigma_i sigma_j J_ij,

and the free energy is (1/N) log Z with Z = 2^{-N} sum_sigma exp(-beta H).

The scalar oracle walks the configurations in Gray-code order (one spin flip
per step, O(N) work each) and keeps the pair sum in an exact floating-point
expansion, so every visited energy equals the from-scratch correctly rounded
value bit for bit.  The batch path trades that for plain float sums: it splits
the spins into halves A and B, so each energy is Q_A + Q_B plus the cross term
sigma_A J_AB sigma_B, and a chunk of media costs one batched matmul and one
log-sum-exp per medium.  Since H(sigma) = H(-sigma), B's top spin is fixed to
+1 and the half sum is doubled.

Media families carry their per-entry Gamma data analytically: for Gaussian
entries Gamma is the (deterministic) covariance, and for the normalized
chi-square family Gamma_{J_e, J_e} is the sampled mean of the squared
underlying Gaussians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import Estimate, difference, mean_estimate

MAX_EXACT_SPINS = 24
MAX_GIBBS_SPINS = 20
ENERGY_CHUNK = 2**16  # energy cells per media chunk of free_energy_batch


def coupling_scale(n: int) -> float:
    """Coefficient of each unordered pair term: 2 / sqrt(2N)."""
    return 2.0 / math.sqrt(2.0 * n)


def upper_pairs(n: int):
    """Row-major half-index order: (1,0), (2,0), (2,1), (3,0), ..."""
    rows, cols = np.tril_indices(n, k=-1)
    return rows, cols


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def all_configurations(n: int) -> np.ndarray:
    """Sign matrix (2^n, n) in Gray order; bit 0 of the code means spin +1."""
    idx = np.arange(2**n, dtype=np.int64)
    codes = idx ^ (idx >> 1)
    bits = (codes[:, None] >> np.arange(n)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


@functools.lru_cache(maxsize=8)
def _signs(n: int) -> np.ndarray:
    """Read-only float copy of ``all_configurations(n)``; its first half is
    the configurations whose top spin is +1."""
    signs = all_configurations(n).astype(float)
    signs.setflags(write=False)
    return signs


def _grow_expansion(partials: list, x: float):
    """Shewchuk-style exact accumulation: partials stay nonoverlapping."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@dataclass(frozen=True)
class FreeEnergyResult:
    value: float  # (1/N) log Z


def _log_mean_exp(exponents, n: int) -> float:
    """(1/N) log(2^{-N} sum exp(x)) over an iterator of the 2^N exponents
    x = -beta H(sigma), taken in visit order with a running max shift."""
    running_max, running_sum = next(exponents), 1.0
    for x in exponents:
        if x > running_max:
            running_sum = running_sum * math.exp(running_max - x) + 1.0
            running_max = x
        else:
            running_sum += math.exp(x - running_max)
    return (running_max + math.log(running_sum) - n * math.log(2.0)) / n


def free_energy_exact(coupling: np.ndarray, beta: float) -> FreeEnergyResult:
    """Exact (1/N) log Z by a Gray-code walk with exact pair-sum accumulation.

    Every visited energy is the correctly rounded value of the current
    configuration's pair sum, so the result is bit-identical to recomputing
    each energy from scratch with exact summation in the same visit order.
    """
    coupling = np.asarray(coupling, dtype=float)
    n = coupling.shape[0]
    if n > MAX_EXACT_SPINS:
        raise ValueError(
            f"exact enumeration is limited to N <= {MAX_EXACT_SPINS}; "
            "use the Monte Carlo estimator for larger systems")
    scale = coupling_scale(n)
    j_rows = coupling.tolist()
    sigma = [1] * n

    partials: list = []
    for i in range(1, n):
        row = j_rows[i]
        for j in range(i):
            _grow_expansion(partials, row[j])

    def walk():
        yield -beta * (scale * math.fsum(partials))
        for step in range(1, 2**n):
            k = ((step & -step).bit_length() - 1)
            sk = sigma[k]
            row = j_rows[k]
            for j in range(n):
                if j != k:
                    _grow_expansion(partials, -2.0 * sk * sigma[j] * row[j])
            sigma[k] = -sk
            yield -beta * (scale * math.fsum(partials))

    return FreeEnergyResult(_log_mean_exp(walk(), n))


def free_energy_reference(coupling: np.ndarray, beta: float) -> FreeEnergyResult:
    """From-scratch enumeration in the same Gray order (cross-check route).

    Each configuration's pair sum is recomputed independently with exact
    summation; the log-sum-exp accumulation is the walk's.
    """
    coupling = np.asarray(coupling, dtype=float)
    n = coupling.shape[0]
    scale = coupling_scale(n)
    rows, cols = upper_pairs(n)

    def configurations():
        for sigma in _signs(n):
            terms = sigma[rows] * sigma[cols] * coupling[rows, cols]
            yield -beta * (scale * math.fsum(terms.tolist()))

    return FreeEnergyResult(_log_mean_exp(configurations(), n))


def free_energy_batch(couplings: np.ndarray, beta: float) -> np.ndarray:
    """(1/N) log Z for a stack of media (B, N, N) by a block split.

    The first a = N - N//2 spins form half A and the rest half B, so every
    energy is Q_A(sigma_A) + Q_B(sigma_B) + sigma_A J_AB sigma_B^T: each half's
    quadratic form over its sign table, plus one batched matmul for the cross
    term.  By the flip symmetry only B's configurations with top spin +1 are
    enumerated and the sum is doubled (B is empty for N = 1).  Each medium
    then takes one max-shifted log-sum-exp.  Plain float sums, no exact
    expansion: agrees with ``free_energy_exact`` to near machine precision
    and is the workhorse for experiment grids.
    """
    couplings = np.asarray(couplings, dtype=float)
    n = couplings.shape[-1]
    if n > MAX_EXACT_SPINS:
        raise ValueError(f"enumeration is limited to N <= {MAX_EXACT_SPINS}")
    a, b = n - n // 2, n // 2
    s_a = _signs(a)
    s_b = _signs(b)[:(2**b + 1) // 2]  # top spin +1; B's one empty row if b = 0
    offset = math.log(2**b // len(s_b)) - n * math.log(2.0)
    step = max(1, ENERGY_CHUNK // (len(s_a) * len(s_b)))
    result = np.empty(len(couplings))
    for lo in range(0, len(result), step):
        j = (-beta / math.sqrt(2.0 * n)) * couplings[lo:lo + step]
        x = (s_a @ (2.0 * j[:, :a, a:])) @ s_b.T
        x += np.einsum("si,csi->cs", s_a, s_a @ j[:, :a, :a])[:, :, None]
        x += np.einsum("ti,cti->ct", s_b, s_b @ j[:, a:, a:])[:, None, :]
        peak = x.max(axis=(1, 2))
        x -= peak[:, None, None]
        np.exp(x, out=x)
        result[lo:lo + step] = (peak + np.log(x.sum(axis=(1, 2))) + offset) / n
    return result


# ---------------------------------------------------------------------------
# Exact Gibbs expectations
# ---------------------------------------------------------------------------

def gibbs_weights(coupling: np.ndarray, beta: float):
    """Normalized weights exp(-beta H(sigma)) over all configurations."""
    n = coupling.shape[0]
    if n > MAX_GIBBS_SPINS:
        raise ValueError(f"exact Gibbs averages are limited to N <= {MAX_GIBBS_SPINS}")
    signs = _signs(n)
    energies = ((signs @ coupling) * signs).sum(axis=1) / math.sqrt(2.0 * n)
    logits = -beta * energies
    logits -= np.max(logits)
    weights = np.exp(logits)
    weights /= weights.sum()
    return signs, weights


def spin_correlations(coupling: np.ndarray, beta: float) -> np.ndarray:
    """Matrix of two-point functions <sigma_i sigma_j> under the Gibbs law."""
    signs, weights = gibbs_weights(coupling, beta)
    return (signs * weights[:, None]).T @ signs


# ---------------------------------------------------------------------------
# Random media families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumFamily:
    """One of the built-in external-field laws.

    * ``iid-gaussian``: the classical case; per-entry Gamma is identically 1.
    * ``correlated-gaussian``: unit-variance Gaussian entries with covariance
      (1 + |i-k| + |j-l|)^{-r}, r > 2; cross-Gamma equals that covariance.
    * ``clt-chaos2``: J_e = sum_{k<=m} (xi_k^2 - 1) / sqrt(2m); per-entry
      Gamma is the sampled mean of the xi_k^2 (expectation 1).  ``m`` may be
      the string "N" to scale with the system size.
    """

    kind: str
    r: float = 3.0
    m: int | str = 1

    def __post_init__(self):
        if self.kind not in ("iid-gaussian", "correlated-gaussian", "clt-chaos2"):
            raise ValueError(f"unknown medium family {self.kind!r}")
        if self.kind == "correlated-gaussian" and self.r <= 2:
            raise ValueError("the correlated family needs decay r > 2")
        if self.kind == "clt-chaos2" and self.m != "N" and int(self.m) < 1:
            raise ValueError("chaos family needs m >= 1 summands")

    def resolve_m(self, n: int) -> int:
        return n if self.m == "N" else int(self.m)

    def label(self, n: int | None = None) -> str:
        if self.kind == "correlated-gaussian":
            return f"correlated-gaussian(r={self.r:g})"
        if self.kind == "clt-chaos2":
            m = self.m if n is None else self.resolve_m(n)
            return f"clt-chaos2(m={m})"
        return "iid-gaussian"


IID_GAUSSIAN = MediumFamily("iid-gaussian")


@dataclass(frozen=True)
class Medium:
    n: int
    coupling: np.ndarray   # (N, N) symmetric, zero diagonal
    gamma_diag: np.ndarray  # (N, N) symmetric; entry (i, j) is Gamma_{J_ij, J_ij}


def _correlated_cov(n: int, r: float) -> np.ndarray:
    """Covariance (1 + |i-k| + |j-l|)^{-r} of the entries in half-index order."""
    rows, cols = upper_pairs(n)
    di = np.abs(rows[:, None] - rows[None, :])
    dj = np.abs(cols[:, None] - cols[None, :])
    return (1.0 + di + dj) ** (-float(r))


@functools.lru_cache(maxsize=16)
def _correlated_factor(n: int, r: float) -> np.ndarray:
    """Read-only Cholesky factor of ``_correlated_cov(n, r)``."""
    factor = np.linalg.cholesky(_correlated_cov(n, r))
    factor.setflags(write=False)
    return factor


def _symmetrize(entries: np.ndarray, n: int) -> np.ndarray:
    """Symmetric (..., N, N) matrices with zero diagonal from half-index
    entries (..., N(N-1)/2)."""
    rows, cols = upper_pairs(n)
    out = np.zeros(entries.shape[:-1] + (n, n))
    out[..., rows, cols] = entries
    out[..., cols, rows] = entries
    return out


def medium_batch(family: MediumFamily, n: int, rng: np.random.Generator,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings and per-entry Gamma data of k media, each (k, N, N), drawn
    in one call and bit-identical to k ``medium_sample`` calls.

    The normals come in one block; the correlated family applies its factor
    medium by medium, because one matrix product over the block rounds
    differently from k matrix-vector products.
    """
    n_bar = n * (n - 1) // 2
    if family.kind == "clt-chaos2":
        m = family.resolve_m(n)
        z = rng.standard_normal((k, n_bar, m))
        entries = np.sum(z * z - 1.0, axis=-1) / math.sqrt(2.0 * m)
        gamma = np.mean(z * z, axis=-1)
    else:
        entries = rng.standard_normal((k, n_bar))
        if family.kind == "correlated-gaussian":
            factor = _correlated_factor(n, family.r)
            entries = np.stack([factor @ z for z in entries])
        gamma = np.ones((k, n_bar))
    return _symmetrize(entries, n), _symmetrize(gamma, n)


def medium_sample(family: MediumFamily, n: int, rng: np.random.Generator) -> Medium:
    """Draw one medium with its per-entry Gamma data attached."""
    couplings, gammas = medium_batch(family, n, rng, 1)
    return Medium(n=n, coupling=couplings[0], gamma_diag=gammas[0])


def _free_energies(family: MediumFamily, n: int, beta: float, k: int,
                   key: list) -> np.ndarray:
    """Free energies of k media of ``family`` drawn from the stream ``key``."""
    rng = np.random.default_rng(np.random.SeedSequence(key))
    return free_energy_batch(medium_batch(family, n, rng, k)[0], beta)


# ---------------------------------------------------------------------------
# Conditions of the universality statement
# ---------------------------------------------------------------------------

def chaos2_abs_gamma_gap(m: int) -> float:
    """E|chi^2_m / m - 1| in closed form via the regularized incomplete gamma."""
    from scipy.special import gammainc  # loaded only where SK chaos2 needs it

    half = 0.5 * m
    return 2.0 * float(gammainc(half, half) - gammainc(half + 1.0, half))


@dataclass(frozen=True)
class ConditionAudit:
    family_label: str
    n: int
    sum_cross_abs: float   # sum over ordered distinct entry pairs of E|Gamma|
    max_row_cross_abs: float  # worst single entry's sum of |Gamma| to the others
    sum_diag_gap: float    # sum over entries of E|Gamma_ee - 1|
    moment_bound: float    # sup over entries of E[|Gamma_ee|^{1+eps}], eps = 1


def condition_audit(family: MediumFamily, n: int) -> ConditionAudit:
    """Exact values of the correlation, proximity and moment sums."""
    n_bar = n * (n - 1) // 2
    if family.kind == "correlated-gaussian":
        cov = _correlated_cov(n, family.r)
        off = np.abs(cov) - np.diag(np.diag(cov))
        sum_cross = float(np.sum(off))
        max_row = float(np.max(np.sum(off, axis=1)))
        sum_gap = 0.0
        moment = 1.0
    elif family.kind == "clt-chaos2":
        m = family.resolve_m(n)
        sum_cross = 0.0
        max_row = 0.0
        sum_gap = n_bar * chaos2_abs_gamma_gap(m)
        moment = 1.0 + 2.0 / m  # E[(chi^2_m / m)^2]
    else:
        sum_cross = 0.0
        max_row = 0.0
        sum_gap = 0.0
        moment = 1.0
    return ConditionAudit(
        family_label=family.label(n),
        n=n,
        sum_cross_abs=sum_cross,
        max_row_cross_abs=max_row,
        sum_diag_gap=sum_gap,
        moment_bound=moment,
    )


# ---------------------------------------------------------------------------
# Step-1 generic comparison bound
# ---------------------------------------------------------------------------

TEST_MAPS = {
    # Bounded first and second derivatives (both sup-norms <= 1).
    "tanh": np.tanh,
    "sine": np.sin,
}


def generic_bound_check(family: MediumFamily, n: int, beta: float,
                        f_name: str = "tanh", n_media: int = 200,
                        seed: int = 0) -> tuple[Estimate, float]:
    """Free-energy comparison of a family against the IID-Gaussian star law:

        |E f(p_N^*) - E f(p_N)| <= (3 c g^2 / 2) [sum E|1 - Gamma_ee|
                                                  + sum E|Gamma_cross|]

    with c = 1/N and g = beta / sqrt(N), both sums taken from the exact
    condition audit.  Both expectations are estimated over n_media draws;
    returns the estimated left side and the exact right side.
    """
    if f_name not in TEST_MAPS:
        raise ValueError(
            f"unknown test map {f_name!r}; the bound needs |f'|, |f''| <= 1 "
            f"(built-ins: {sorted(TEST_MAPS)})")
    f = TEST_MAPS[f_name]

    star = mean_estimate([f(_free_energies(IID_GAUSSIAN, n, beta, n_media, [seed, 0x5A, n]))])
    fam = mean_estimate([f(_free_energies(family, n, beta, n_media, [seed, 0xFA, n]))])
    gap = difference(star, fam)
    lhs = Estimate(abs(gap.value), gap.std_error)
    audit = condition_audit(family, n)
    return lhs, (3.0 * beta**2 / (2.0 * n**2)) * (audit.sum_diag_gap + audit.sum_cross_abs)


# ---------------------------------------------------------------------------
# Step-2 Gamma bound for the centered free energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaFBound:
    lhs: float  # |Gamma_{F_N, F_N}| through the two-copy Gibbs identity
    rhs: float  # (2 beta^2 / N^3) sum |Gamma_{J_e, J_e}|


def gamma_f_bound_check(medium: Medium, beta: float) -> GammaFBound:
    """Both sides of the diagonal-coupling bound on Gamma of the free energy.

    Gamma_{F_N, F_N} = (beta^2/N^2) E x E-tilde [ Gamma_{H(sigma), H(sigma~)} ]
    over two independent Gibbs copies; with diagonal entry data this reduces
    to (2 beta^2 / N^3) sum_e Gamma_e <sigma_i sigma_j>^2, which the spin
    correlations give exactly.  Since each |<sigma_i sigma_j>| <= 1, the right
    side dominates term by term.  (The two-copy identity drops cross-entry
    Gamma contributions; it is exact for media with vanishing cross-Gamma.)
    """
    n = medium.n
    corr = spin_correlations(medium.coupling, beta)
    rows, cols = upper_pairs(n)
    gamma_entries = medium.gamma_diag[rows, cols]
    coeff = 2.0 * beta**2 / n**3
    lhs = abs(coeff * float(np.sum(gamma_entries * corr[rows, cols] ** 2)))
    rhs = coeff * float(np.sum(np.abs(gamma_entries)))
    return GammaFBound(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Paired gap estimator for the scaled chi-square family
# ---------------------------------------------------------------------------

def chaos2_star_coupling(entries: np.ndarray, m: int) -> np.ndarray:
    """Map chaos-family entries to standard normals through their exact CDF.

    An entry is (X - m)/sqrt(2m) with X chi-square(m), so the quantile map
    ndtri(F_X(m + e sqrt(2m))) is exact in law and keeps the coupled pair
    highly correlated, which is what makes paired gap estimates tight.
    """
    from scipy.special import gammainc, ndtri

    x = np.clip(m + entries * math.sqrt(2.0 * m), 0.0, None)
    u = gammainc(0.5 * m, 0.5 * x)
    return ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def paired_chaos2_gap(n: int, beta: float, n_media: int, seed: int = 0,
                      batch: int = 2_000) -> Estimate:
    """Free-energy gap E[p(chaos2(m=N))] - E[p(iid-gaussian)] to the IID star law.

    Variance reduction, both components unbiased: (1) the star medium is the
    quantile-coupled image of the chaos medium, so the two free energies are
    estimated on strongly correlated media; (2) the mean-zero quadratic
    statistic (beta^2/N^2) sum_e (J_e^2 - 1) is subtracted from each side.
    """
    m = n
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A9, n]))
    diffs = []
    for lo in range(0, n_media, batch):
        b = min(batch, n_media - lo)
        z = rng.standard_normal((b, n * (n - 1) // 2, m))
        chaos = np.sum(z * z - 1.0, axis=2) / math.sqrt(2.0 * m)
        star = chaos2_star_coupling(chaos, m)
        p_chaos = free_energy_batch(_symmetrize(chaos, n), beta)
        p_star = free_energy_batch(_symmetrize(star, n), beta)
        control = (beta**2 / n**2) * (
            np.sum(chaos**2 - 1.0, axis=1) - np.sum(star**2 - 1.0, axis=1))
        diffs.append(p_chaos - p_star - control)
    return mean_estimate(diffs)


# ---------------------------------------------------------------------------
# Finite-size convergence table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    family_label: str
    n: int
    mean: float
    std_error: float
    gap_to_star: float


def convergence_experiment(families, beta: float, ns, n_media: int,
                           seed: int = 0) -> list[ConvergenceRow]:
    """Mean and spread of the free energy per (family, N), with the gap to the
    IID-Gaussian star value at the same N."""
    rows: list[ConvergenceRow] = []
    for n in ns:
        star = mean_estimate([_free_energies(IID_GAUSSIAN, n, beta, n_media,
                                             [seed, 0x57A, n])])
        rows.append(ConvergenceRow("iid-gaussian*", n, star.value, star.std_error, 0.0))
        for fam_index, family in enumerate(families):
            est = mean_estimate([_free_energies(family, n, beta, n_media,
                                                [seed, 0xFA2, n, fam_index])])
            rows.append(ConvergenceRow(family.label(n), n, est.value, est.std_error,
                                       est.value - star.value))
    return rows
