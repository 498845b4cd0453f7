"""Benchmark harness: timed passes over a workload's CLI configs.

One process runs one workload.  An untraced run (``--trace 0``) measures the
end-to-end metrics; a traced run (``--trace 1``) makes one untraced and one
traced pass and reports the per-layer breakdown.  Every pass is checked:
row verdicts, exceptions, and report bytes against the first pass.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from wienergamma import cli, sk

import tracer as tracing
from workloads import WORKLOADS, with_seed_offset

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 3
MIN_PASSES = 3
GATE_SIZES = (8, 10, 12)
GATE_MEDIA = 2
GATE_TOLERANCE = 1e-10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the media of the enumeration gate")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measure for about this long (at least three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-offset", type=int, default=0,
                        help="added to every config's run and Mehler seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and run the workload's smoke configs")
    return parser.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure_setup(workload: str) -> float:
    """Median wall time of fresh processes that import the package and run the
    workload's smoke configs once: interpreter start, imports, first calls."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                        "--setup-probe"], check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def enumeration_gate(seed: int) -> float:
    """Largest |free_energy_batch - free_energy_exact| on media drawn from the
    seed; untimed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A7E]))
    worst = 0.0
    for n in GATE_SIZES:
        media = np.stack([sk.medium_sample(sk.IID_GAUSSIAN, n, rng).coupling
                          for _ in range(GATE_MEDIA)])
        batch = sk.free_energy_batch(media, 1.0)
        for k in range(GATE_MEDIA):
            exact = sk.free_energy_exact(media[k], 1.0).value
            worst = max(worst, abs(float(batch[k]) - exact))
    return worst


@dataclass
class Pass:
    """Outcome of one pass over the configs; dicts are keyed by config index."""

    wall_s: float = 0.0
    config_wall: dict = field(default_factory=dict)
    config_cpu: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)  # sha256 of the report files
    rows: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    command_s: dict = field(default_factory=dict)  # keyed by command


def run_pass(configs, out_dir: Path, tr: tracing.Tracer | None = None) -> Pass:
    def call(name, fn, *args):
        return tr.call(name, fn, args) if tr else fn(*args)

    result = Pass()
    for index, config in enumerate(configs):
        command = config["command"]
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            report = call(f"cli.{command}", cli.run, config)
            paths = call("cli.write_report", cli.write_report, report,
                         out_dir / str(index), "both")
        except Exception:  # a raised config counts as a failed operation
            result.errors[index] = traceback.format_exc(limit=3)
            continue
        finally:
            elapsed = time.perf_counter() - started
            result.config_wall[index] = elapsed
            result.config_cpu[index] = time.process_time() - cpu_started
            result.command_s[command] = result.command_s.get(command, 0.0) + elapsed
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        result.digests[index] = digest.hexdigest()
        result.rows[index] = report["rows"]
    result.wall_s = sum(result.config_wall.values())
    return result


def tally(configs, passes: list[Pass]):
    """(attempted, failed, failure names) over all passes: each row and each
    config is one operation; a config fails when it raised or its report bytes
    differ from the first pass's."""
    attempted = failed = 0
    names = set()
    first = passes[0]
    for p in passes:
        for index, config in enumerate(configs):
            label = f"{config['command']}#{index}"
            attempted += 1 + len(p.rows.get(index, ()))
            if index in p.errors:
                failed += 1
                names.add(f"{label}: raised")
                continue
            if p.digests[index] != first.digests.get(index):
                failed += 1
                names.add(f"{label}: report bytes differ between passes")
            for row in p.rows[index]:
                if not row["verdict"]:
                    failed += 1
                    names.add(f"{label}: row {row['name']}")
    return attempted, failed, sorted(names)


def measure(configs, seconds: float, out_root: Path) -> list[Pass]:
    """Untraced passes while another one would end nearer to ``seconds`` than
    stopping now; at least three, so the median drops one outlier and every
    report is compared with later runs of itself."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(configs, out_root / f"pass{len(passes)}"))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall_s / 2 > seconds:
            return passes


def median_pass(passes: list[Pass], attr: str) -> float:
    """Sum over configs of each config's median across passes.  Load bursts on
    a shared machine last a few seconds and hit single configs, so the median
    per config drops them where a median of whole passes would not."""
    per_config = [getattr(p, attr) for p in passes]
    return sum(statistics.median(times[i] for times in per_config)
               for i in per_config[0])


def emit(metric_units: dict, metrics: dict, correct: bool, attempted: int, failed: int):
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {metric_units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]}
                    for name, value in metrics.items()},
    }))


def load_units(key: str) -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        for config in workload.smoke:
            cli.run(config)
        return 0

    configs = [with_seed_offset(c, args.seed_offset) for c in workload.configs]
    print(f"workload {workload.name}: {workload.why}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"run seed={args.seed} seed_offset={args.seed_offset}")

    setup_s = measure_setup(workload.name) if args.trace == 0 else None
    for config in workload.smoke:  # this process's own first-call set-up
        cli.run(config)
    gate_gap = enumeration_gate(args.seed)
    gate_ok = gate_gap <= GATE_TOLERANCE
    print(f"gate free_energy_batch vs free_energy_exact: max |diff| = {gate_gap:.3g} "
          f"({'ok' if gate_ok else 'FAIL'}, tolerance {GATE_TOLERANCE:g})")

    with tempfile.TemporaryDirectory(prefix=".reports-", dir=BENCH_DIR) as tmp:
        out_root = Path(tmp)
        if args.trace == 0:
            passes = measure(configs, args.seconds, out_root)
        else:
            untraced = run_pass(configs, out_root / "untraced")
            tr = tracing.Tracer().install()
            try:
                traced = run_pass(configs, out_root / "traced", tr)
            finally:
                tr.uninstall()
            passes = [untraced, traced]

    attempted, failed, failures = tally(configs, passes)
    for p in passes:
        for index, message in sorted(p.errors.items()):
            print(f"error in {configs[index]['command']}#{index}:\n{message}",
                  file=sys.stderr)
    for index, config in enumerate(configs):
        print(f"config {config['command']}#{index} seed={config['seed']} "
              f"mehler_seed={config['mehler'].get('seed', config['seed'])} "
              f"workers={config['workers']} rows={len(passes[0].rows.get(index, ()))} "
              f"sha256={passes[0].digests.get(index, 'none')}")
    print(f"passes {len(passes)}: wall_s {[round(p.wall_s, 3) for p in passes]}")
    for index, config in enumerate(configs):
        print(f"config {config['command']}#{index} wall_s per pass "
              f"{[round(p.config_wall.get(index, 0.0), 4) for p in passes]}")
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} "
          f"rows and configs)")
    for name in failures:
        print(f"failed {name}")
    correct = gate_ok and failed == 0

    if args.trace == 0:
        metrics = {
            "wall_s": median_pass(passes, "config_wall"),
            "cpu_s": median_pass(passes, "config_cpu"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        emit(load_units("end_to_end"), metrics, correct, attempted, failed)
        return 0

    units = load_units("per_layer")
    metrics = dict.fromkeys(units, 0.0)
    metrics.update(tracing.layer_metrics(tr.spans))
    for command, seconds in traced.command_s.items():
        metrics[f"cli.{command}.wall_s"] = seconds
    metrics["cli.rows"] = sum(len(rows) for rows in traced.rows.values())
    metrics["cli.write_report.busy_s"] = sum(
        s.end - s.start for s in tr.spans if s.name == "cli.write_report") * 1e-9
    metrics["sk.enum.max_abs_vs_exact"] = gate_gap
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    emit(units, metrics, correct, attempted, failed)
    return 0
