"""The benchmark's workloads: which CLI configs run, and why each set exists.

Every config goes through ``wienergamma.cli.run`` exactly as a user's JSON
config would.  Seeds, Mehler settings and parameters mirror
``tests/test_acceptance.py``; where a config is smaller than its acceptance
criterion, the comment on it says so and why.  The tests build
``MehlerConfig(seed=0)`` while the CLI defaults ``mehler.seed`` to the run
seed, so every config sets ``mehler.seed`` explicitly.

Each workload is a closed loop: one process runs its configs back to back,
and the next config starts only when the previous report is written.
``workers`` is fixed per config and never exceeds the two cores the
benchmark was sized on.

``BENCHMARK.json`` gates two workloads, ``sk-enum`` and ``mehler``, the
union of ``mehler-lowdim`` and ``fbm-sde``: together they run every package
module.  ``mehler-lowdim``, ``fbm-sde`` and ``highdim-expr`` stay here to be
run by hand; see bench/README.md for why they are not gated.
"""

from __future__ import annotations

from dataclasses import dataclass

ACCEPTANCE_MEHLER = {"quad_nodes": 64, "mc_samples": 20_000, "seed": 0}
DEFAULT_MEHLER = {"seed": 0}
SMOKE_MEHLER = {"quad_nodes": 8, "mc_samples": 256}
SMOKE_SEED = 117


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[dict, ...]
    smoke: tuple[dict, ...]  # SMOKE_CONFIGS-sized; used for set-up and tests


def config(command: str, seed: int, params: dict, mehler: dict, workers: int) -> dict:
    return {"command": command, "seed": seed, "workers": workers,
            "mehler": dict(mehler), "params": params}


def with_seed_offset(cfg: dict, offset: int) -> dict:
    """Shift the run seed and the Mehler seed, to recheck a claim on seeds
    that were not used while the change was written."""
    out = dict(cfg, seed=cfg["seed"] + offset)
    if "seed" in cfg["mehler"]:
        out["mehler"] = dict(cfg["mehler"], seed=cfg["mehler"]["seed"] + offset)
    return out


def _linear_text(n: int, coef) -> str:
    text = ""
    for i in range(n):
        c = coef(i)
        if c:
            sign = " - " if c < 0 else (" + " if text else "")
            text += f"{sign}{abs(c):g}*w{i}"
    return text


def highdim_expression(n: int) -> str:
    """Linear part + tanh of another linear part + 0.25 H_3(w0), over n
    coordinates; centered, so both Poincare and IBP accept it."""
    linear = _linear_text(n, lambda i: ((i % 7) - 3) / 8)
    inner = _linear_text(n, lambda i: ((i % 5) - 2) / 16)
    return f"{linear} + tanh({inner}) + 0.25*hermite(3, w0)"


def _sk_smoke(workers: int) -> tuple[dict, ...]:
    return (
        config("sk-generic-bound", SMOKE_SEED,
               {"ns": [6], "n_media": 30, "gap_media": 60,
                "families": [{"kind": "clt-chaos2", "m": 1}]}, SMOKE_MEHLER, workers),
        config("sk-gamma-bound", SMOKE_SEED, {"n": 6, "n_media": 4, "betas": [1.0]},
               SMOKE_MEHLER, workers),
        config("sk-free-energy", SMOKE_SEED,
               {"n": 6, "beta": 1.0, "check_reference": True}, SMOKE_MEHLER, workers),
    )


def _sk_enum() -> Workload:
    w = 2
    return Workload(
        name="sk-enum",
        why=("SK Gray-walk enumeration (free_energy_batch) dominates; the Gibbs "
             "path runs too; engine, core and chaos stay idle"),
        configs=(
            # Criterion 11's ns, media, beta, f and seed for the size-scaled
            # chaos2(m=N) family only: all three families take 16 s, which
            # would leave a run three passes.  The gap ladder uses 200 media
            # instead of 4000 for the same reason.  Its monotone row has no SE allowance:
            # on this seed it fails at 100 media and passes at 200.
            config("sk-generic-bound", 115,
                   {"ns": [8, 12, 16], "beta": 1.0, "n_media": 200, "f": "tanh",
                    "families": [{"kind": "clt-chaos2", "m": "N"}],
                    "gap_media": 200}, DEFAULT_MEHLER, w),
            # Criterion 12 as is.
            config("sk-gamma-bound", 116, {"n": 8, "betas": [0.5, 1.0], "n_media": 50},
                   DEFAULT_MEHLER, w),
            config("sk-gamma-bound", 116, {"n": 12, "betas": [0.5, 1.0], "n_media": 50},
                   DEFAULT_MEHLER, w),
            # Criterion 10's bit-exact walk-versus-reference check at N=10.
            config("sk-free-energy", 113, {"n": 10, "beta": 1.0, "check_reference": True},
                   DEFAULT_MEHLER, w),
        ),
        smoke=_sk_smoke(w),
    )


def _mehler_lowdim() -> Workload:
    w = 1
    return Workload(
        name="mehler-lowdim",
        why=("Mehler engine in both regimes on 1-10 dimensional spaces; chaos "
             "gradients and the engine loops dominate; sk stays idle"),
        configs=(
            # Criteria 2, 1, 8, 4, 6 (both), 7: pinned seeds, Mehler settings
            # and parameters, except gamma at 4 points instead of 20 (0.45 s
            # per point), so that a run of ``mehler`` holds four passes.
            config("gamma", 102, {"n_points": 4}, ACCEPTANCE_MEHLER, w),
            config("ibp-check", 101, {"n_outer": 10_000}, ACCEPTANCE_MEHLER, w),
            config("poincare", 109, {"p": [2.0, 3.0, 4.0], "n_outer": 20_000},
                   DEFAULT_MEHLER, w),
            config("sudakov", 104,
                   {"d": 5, "sigma_f": 1.0, "sigma_g": 1.5,
                    "betas": [1.0, 2.0, 4.0, 8.0, 16.0], "t_points": 21,
                    "n_outer": 4_000, "n_sup": 100_000}, DEFAULT_MEHLER, w),
            config("slepian", 106, {"n_outer": 4_000, "n_value": 100_000, "t_points": 11},
                   DEFAULT_MEHLER, w),
            config("perturbation", 107, {"n_points": 5, "n_value": 150_000},
                   {"mc_samples": 8192, "seed": 0}, w),
            config("concentration", 108, {"case": "both", "n_outer": 1_000_000},
                   DEFAULT_MEHLER, w),
        ),
        smoke=(
            config("gamma", SMOKE_SEED, {"n_points": 2}, SMOKE_MEHLER, w),
            config("ibp-check", SMOKE_SEED, {"f_expr": "w0", "phi": "id", "n_outer": 2_000},
                   SMOKE_MEHLER, w),
            config("poincare", SMOKE_SEED, {"expr": "w0", "p": [2.0], "n_outer": 2_000},
                   SMOKE_MEHLER, w),
            config("sudakov", SMOKE_SEED,
                   {"d": 2, "betas": [2.0], "t_points": 3, "n_outer": 300, "n_sup": 2_000},
                   SMOKE_MEHLER, w),
            config("slepian", SMOKE_SEED, {"n_outer": 300, "n_value": 2_000, "t_points": 3},
                   SMOKE_MEHLER, w),
            config("concentration", SMOKE_SEED,
                   {"case": "scalar-gaussian", "n_outer": 10_000}, SMOKE_MEHLER, w),
            config("perturbation", SMOKE_SEED, {"n_points": 1, "n_value": 5_000},
                   SMOKE_MEHLER, w),
        ),
    )


def _fbm_sde() -> Workload:
    w = 2
    return Workload(
        name="fbm-sde",
        why=("fBm path synthesis, Euler steps and the pathwise derivative "
             "dominate; the only workload where run_chunked runs two threads"),
        configs=(
            # Criterion 9's parameters with workers=2 (the test uses 1) and
            # 2048 instead of 4096 inner Mehler samples, which halves the
            # pathwise-derivative work so that a run of ``mehler`` holds four
            # passes.
            config("fbm-sde", 111,
                   {"hurst": 0.7, "m": 128, "horizon": 1.0, "n_paths": 100_000,
                    "n_outer": 400}, {"mc_samples": 2048, "seed": 0}, w),
        ),
        smoke=(
            config("fbm-sde", SMOKE_SEED,
                   {"m": 16, "n_paths": 2_000, "n_outer": 20, "delta_pairs": [[0.0, 1.0]]},
                   SMOKE_MEHLER, w),
        ),
    )


def _highdim_expr() -> Workload:
    w = 1
    n = 256
    # The acceptance Mehler budget would take minutes at n=256, so it is
    # reduced to 8 nodes and 256 inner samples over 128 outer points, with
    # one p and one phi, to keep a pass near six seconds.
    mehler = {"quad_nodes": 8, "mc_samples": 256, "seed": 0}
    expr = highdim_expression(n)
    small = highdim_expression(8)
    return Workload(
        name="highdim-expr",
        why=("one grammar expression over 256 coordinates; tree "
             "value-and-gradient in core dominates, quadratic in n"),
        configs=(
            config("poincare", 109, {"expr": expr, "dim": n, "p": [2.0], "n_outer": 128},
                   mehler, w),
            config("ibp-check", 101,
                   {"f_expr": expr, "dim": n, "phi": ["tanh"], "n_outer": 128}, mehler, w),
        ),
        smoke=(
            config("poincare", SMOKE_SEED,
                   {"expr": small, "dim": 8, "p": [2.0], "n_outer": 2_000}, SMOKE_MEHLER, w),
            config("ibp-check", SMOKE_SEED,
                   {"f_expr": small, "dim": 8, "phi": ["tanh"], "n_outer": 2_000},
                   SMOKE_MEHLER, w),
        ),
    )


def _mehler() -> Workload:
    lowdim, sde = _mehler_lowdim(), _fbm_sde()
    return Workload(
        name="mehler",
        why=("every Mehler engine user: chaos gradients and both engine regimes "
             "on 1-10 dimensions, then the fBm SDE with two workers; sk stays idle"),
        configs=lowdim.configs + sde.configs,
        smoke=lowdim.smoke + sde.smoke,
    )


WORKLOADS = {wl.name: wl for wl in (_sk_enum(), _mehler(), _mehler_lowdim(), _fbm_sde(),
                                     _highdim_expr())}
