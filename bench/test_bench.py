"""Smoke-scale checks of the benchmark's tracer and output gate.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

import harness  # noqa: E402
from tracer import FUNCTIONS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import SMOKE_MEHLER, WORKLOADS  # noqa: E402

from wienergamma import cli, comparison, engine, fbm, parallel  # noqa: E402


def smoke(workload, command):
    return next(c for c in WORKLOADS[workload].smoke if c["command"] == command)


def traced_metrics(configs, tmp_path):
    tr = Tracer().install()
    try:
        result = harness.run_pass(configs, tmp_path, tr)
    finally:
        tr.uninstall()
    assert not result.errors
    return tr, layer_metrics(tr.spans)


def test_every_binding_is_wrapped_and_restored():
    originals = (engine.gamma_pointwise, parallel.run_chunked)
    tr = Tracer().install()
    try:
        assert tr.unwrapped_bindings() == []
        assert cli.gamma_pointwise is not originals[0]
        assert comparison.run_chunked is not originals[1]
        assert fbm.run_chunked is not originals[1]
        assert len(tr.originals) == len({(m, f) for m, f, _, _ in FUNCTIONS}) + 1 + 4
    finally:
        tr.uninstall()
    assert cli.gamma_pointwise is originals[0]
    assert fbm.run_chunked is originals[1]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "a", 0, 1, 0, 100, 1, 1),
        Span(2, "b", 1, 1, 10, 30, 1, 1),
        Span(3, "b", 1, 2, 20, 50, 1, 1),   # overlaps span 2 from another thread
        Span(4, "b", 1, 2, 90, 120, 1, 1),  # runs past its parent's end
        Span(5, "c", 3, 2, 25, 35, 1, 1),
    ]
    assert self_times(spans) == {1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}


def test_gamma_counts(tmp_path):
    config = smoke("mehler-lowdim", "gamma")
    n_points = config["params"]["n_points"]
    _, m = traced_metrics([config], tmp_path)
    assert m["engine.pointwise.calls"] == 12 * n_points
    # per call: DF at the base point plus DG at every node for every inner copy
    per_call = 1 + SMOKE_MEHLER["quad_nodes"] * SMOKE_MEHLER["mc_samples"]
    assert m["engine.grad_evals"] == 12 * n_points * per_call
    assert m["chaos.grad.point_coords"] >= 4 * m["engine.grad_evals"]


def test_sk_enumeration_counts(tmp_path):
    config = smoke("sk-enum", "sk-generic-bound")
    p = config["params"]
    n = p["ns"][0]
    _, m = traced_metrics([config], tmp_path)
    # cells: star and family media; ladder: chaos and star media
    assert m["sk.enum.config_media"] == (2 * p["n_media"] + 2 * p["gap_media"]) * 2**n
    assert m["sk.enum.busy_s"] > 0


def test_fbm_counts_and_chunk_parents(tmp_path):
    config = smoke("fbm-sde", "fbm-sde")
    p = config["params"]
    steps, nodes, budget = p["m"], SMOKE_MEHLER["quad_nodes"], SMOKE_MEHLER["mc_samples"]

    def delta_paths(n_outer):
        per = math.ceil(budget / n_outer)
        per += per % 2
        return n_outer * (1 + nodes * per)

    # one driftless pair at 8 outer points, two drifted pairs, two sup
    # comparisons of a pilot and a main run each
    paths = delta_paths(8) + 2 * delta_paths(p["n_outer"]) + 4 * p["n_paths"]
    tr, m = traced_metrics([config], tmp_path)
    assert m["fbm.euler.path_steps"] == paths * steps
    assert m["fbm.paths.path_steps"] == paths * steps
    assert m["parallel.chunks"] == 1 + 2 * 2 + 4 * 2
    by_id = {s.sid: s for s in tr.spans}
    chunks = [s for s in tr.spans if s.name == "parallel.chunk"]
    assert {by_id[s.parent].name for s in chunks} == {"parallel.run_chunked"}
    assert len({s.thread for s in chunks}) > 1
    # every Euler span, pool threads included, hangs under its fbm caller;
    # an orphan would walk to parent 0 and raise KeyError
    for s in tr.spans:
        if s.name == "fbm.euler":
            while s.name not in ("fbm.delta", "fbm.sup"):
                s = by_id[s.parent]
    assert 0 < m["parallel.utilization"] <= 1.0 + 1e-9
    assert m["fbm.delta.self_s"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_reports_match_untraced(workload, tmp_path):
    configs = list(WORKLOADS[workload].smoke)
    plain = harness.run_pass(configs, tmp_path / "plain")
    tr = Tracer().install()
    try:
        traced = harness.run_pass(configs, tmp_path / "traced", tr)
    finally:
        tr.uninstall()
    attempted, failed, names = harness.tally(configs, [plain, traced])
    assert (failed, names) == (0, [])
    assert attempted == 2 * sum(1 + len(rows) for rows in plain.rows.values())


def test_enumeration_gate():
    assert harness.enumeration_gate(seed=3) <= harness.GATE_TOLERANCE


def test_layer_metrics_are_declared():
    assert set(layer_metrics([])) <= set(harness.load_units("per_layer"))
