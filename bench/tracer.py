"""Span tracer installed around the package's public functions.

The program itself has no tracing hooks, so the benchmark swaps wrappers into
every module namespace that binds a traced function (``cli``, ``comparison``
and ``fbm`` hold their own from-import copies) and onto the traced methods of
``Functional`` and ``ChaosForm``.  Each call records one span: id, name,
parent, thread, start and end in nanoseconds, and a work count derived from
the argument shapes (``count`` items of ``size`` each).  Spans stay in memory
until the run ends.

``run_chunked`` is special: each chunk it hands to a pool thread gets a
``parallel.chunk`` span whose parent is the ``run_chunked`` span, so the work
inside pool threads stays attached to the call that started it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

MODULES = ("core", "grammar", "chaos", "engine", "comparison", "fbm", "sk",
           "cli", "parallel")


class Span(NamedTuple):
    sid: int
    name: str
    parent: int  # 0 for a root span
    thread: int
    start: int
    end: int
    count: int
    size: int


def _points(x) -> int:
    return math.prod(np.shape(x)[:-1])


def _grad_work(self, x, *_, **__):
    return _points(x), np.shape(x)[-1]


def _eval_work(self, x, *_, **__):
    return _points(x), 1


def _enum_work(couplings, *_, **__):
    shape = np.shape(couplings)
    return shape[0], 2 ** shape[-1]


def _gibbs_work(coupling, *_, **__):
    return 1, 2 ** np.shape(coupling)[-1]


def _paths_work(space, xi, *_, **__):
    return _points(xi), np.shape(xi)[-1]


def _euler_work(x0, drift, fbm_paths, *_, **__):
    return _points(fbm_paths), np.shape(fbm_paths)[-1] - 1


def _samples_work(fld, n_samples, *_, **__):
    return n_samples, 1


# (module, function, span name, work) -- work maps the call's arguments to
# (count, size); None means one unit per call.
FUNCTIONS = (
    ("grammar", "parse_expression", "grammar.parse", None),
    ("chaos", "gamma_oracle", "chaos.oracle", None),
    ("engine", "gamma_pointwise", "engine.pointwise", None),
    ("engine", "coupled_gamma_values", "engine.expectation", None),
    ("engine", "minus_dl_gradient_estimates", "engine.expectation", None),
    ("comparison", "sf_phi_prime", "comparison.phi_prime", None),
    ("comparison", "slepian_phi_prime", "comparison.phi_prime", None),
    ("comparison", "gamma_matrix_pointwise", "comparison.gamma_matrix", None),
    ("comparison", "perturbation_gamma", "comparison.gamma_matrix", None),
    ("comparison", "expected_max", "comparison.mc_max", _samples_work),
    ("comparison", "concentration_check", "comparison.concentration", None),
    ("fbm", "paths_from_whitened", "fbm.paths", _paths_work),
    ("fbm", "euler_solve", "fbm.euler", _euler_work),
    ("fbm", "delta_fbm", "fbm.delta", None),
    ("fbm", "sup_comparison", "fbm.sup", None),
    ("sk", "free_energy_batch", "sk.enum", _enum_work),
    ("sk", "free_energy_exact", "sk.exact", None),
    ("sk", "free_energy_reference", "sk.exact", None),
    ("sk", "gibbs_weights", "sk.gibbs", _gibbs_work),
    ("sk", "medium_sample", "sk.media", None),
    ("sk", "paired_chaos2_gap", "sk.gap", None),
)

# (module, class, method, span name, work)
METHODS = (
    ("core", "Functional", "gradient", "core.grad", _grad_work),
    ("core", "Functional", "value_and_gradient", "core.grad", _grad_work),
    ("core", "Functional", "eval", "core.eval", _eval_work),
    ("chaos", "ChaosForm", "gradient", "chaos.grad", _grad_work),
)

RUN_CHUNKED = ("parallel", "run_chunked", "parallel.run_chunked")


def package_modules() -> list:
    return [importlib.import_module("wienergamma")] + [
        importlib.import_module(f"wienergamma.{m}") for m in MODULES]


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[int, object] = {}

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, work=(1, 1), parent=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``parent`` overrides the
        calling thread's current span."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, parent, threading.get_ident(),
                                   start, end, work[0], work[1]))

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            units = work(*args, **kwargs) if work else (1, 1)
            return tracer.call(name, fn, args, kwargs, units)

        return traced

    def _wrap_run_chunked(self, fn, name):
        tracer = self
        from wienergamma.parallel import chunk_sizes

        @functools.wraps(fn)
        def traced(total, workers, seed, label, job):
            n_chunks = len(chunk_sizes(total, workers))
            owner = []

            def chunk_job(chunk, rng):
                return tracer.call("parallel.chunk", job, (chunk, rng),
                                   work=(chunk, 1), parent=owner[0])

            def body():
                owner.append(tracer._stack()[-1])
                return fn(total, workers, seed, label, chunk_job)

            return tracer.call(name, body, work=(n_chunks, 1))

        return traced

    # -- installation -----------------------------------------------------

    def _rebind(self, modules, original, wrapper):
        self.originals[id(original)] = original
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        modules = package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod, func, name, work in FUNCTIONS:
            original = getattr(by_name[mod], func)
            self._rebind(modules, original, self._wrap(original, name, work))
        mod, func, name = RUN_CHUNKED
        original = getattr(by_name[mod], func)
        self._rebind(modules, original, self._wrap_run_chunked(original, name))
        for mod, cls_name, method, name, work in METHODS:
            cls = getattr(by_name[mod], cls_name)
            original = vars(cls)[method]
            self.originals[id(original)] = original
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, work))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module or class attributes still bound to an unwrapped original."""
        found = []
        for module in package_modules():
            for attr, value in vars(module).items():
                if id(value) in self.originals and value is self.originals[id(value)]:
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    for method, member in vars(value).items():
                        if id(member) in self.originals and member is self.originals[id(member)]:
                            found.append(f"{module.__name__}.{attr}.{method}")
        return found


# -- analysis -------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it that its children cover (ns).

    Children in pool threads can overlap each other, so coverage is the
    union of the children's intervals clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced pass: busy and self time in seconds,
    calls, work counts and the rates built from them."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    busy = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        work[s.name] += s.count * s.size
        # A chunk runs a closure of the function that called run_chunked, so
        # its self time belongs to that caller (e.g. the pathwise derivative
        # inside fbm.delta), not to the parallel layer.
        owner = s
        if s.name == "parallel.chunk":
            owner = by_id.get(by_id[s.parent].parent, s)
        own[owner.name] += selfs[s.sid]
    sec = 1e-9

    def rate(num, den):
        return num / den if den else 0.0

    engine_names = ("engine.pointwise", "engine.expectation")
    grad_evals = sum(s.count for s in spans
                     if s.name in ("core.grad", "chaos.grad")
                     and by_id.get(s.parent, s).name in engine_names)
    engine_busy = sum(busy[n] for n in engine_names) * sec

    chunked = [s for s in spans if s.name == "parallel.run_chunked"]
    capacity = sum(s.count * (s.end - s.start) for s in chunked)

    m = {
        "sk.enum.config_media": work["sk.enum"],
        "sk.enum.busy_s": busy["sk.enum"] * sec,
        "sk.enum.config_media_per_s": rate(work["sk.enum"], busy["sk.enum"] * sec),
        "sk.exact.busy_s": busy["sk.exact"] * sec,
        "sk.gibbs.configs": work["sk.gibbs"],
        "sk.gibbs.busy_s": busy["sk.gibbs"] * sec,
        "sk.media.count": calls["sk.media"],
        "sk.media.busy_s": busy["sk.media"] * sec,
        "sk.gap.busy_s": busy["sk.gap"] * sec,
        "engine.pointwise.calls": calls["engine.pointwise"],
        "engine.pointwise.self_s": own["engine.pointwise"] * sec,
        "engine.expectation.calls": calls["engine.expectation"],
        "engine.expectation.self_s": own["engine.expectation"] * sec,
        "engine.grad_evals": grad_evals,
        "engine.grad_evals_per_s": rate(grad_evals, engine_busy),
        "chaos.grad.busy_s": busy["chaos.grad"] * sec,
        "chaos.grad.point_coords": work["chaos.grad"],
        "chaos.grad.ns_per_point_coord": rate(busy["chaos.grad"], work["chaos.grad"]),
        "chaos.oracle.busy_s": busy["chaos.oracle"] * sec,
        "core.grad.calls": calls["core.grad"],
        "core.grad.busy_s": busy["core.grad"] * sec,
        "core.grad.point_coords": work["core.grad"],
        "core.grad.ns_per_point_coord": rate(busy["core.grad"], work["core.grad"]),
        "core.eval.points": work["core.eval"],
        "core.eval.busy_s": busy["core.eval"] * sec,
        "fbm.paths.path_steps": work["fbm.paths"],
        "fbm.paths.busy_s": busy["fbm.paths"] * sec,
        "fbm.euler.path_steps": work["fbm.euler"],
        "fbm.euler.busy_s": busy["fbm.euler"] * sec,
        "fbm.euler.ns_per_path_step": rate(busy["fbm.euler"], work["fbm.euler"]),
        "fbm.delta.busy_s": busy["fbm.delta"] * sec,
        "fbm.delta.self_s": own["fbm.delta"] * sec,
        "fbm.sup.busy_s": busy["fbm.sup"] * sec,
        "parallel.chunks": calls["parallel.chunk"],
        "parallel.chunk_busy_s": busy["parallel.chunk"] * sec,
        "parallel.utilization": rate(busy["parallel.chunk"], capacity),
        "comparison.phi_prime.cells": calls["comparison.phi_prime"],
        "comparison.phi_prime.busy_s": busy["comparison.phi_prime"] * sec,
        "comparison.gamma_matrix.busy_s": busy["comparison.gamma_matrix"] * sec,
        "comparison.mc_max.samples": work["comparison.mc_max"],
        "comparison.mc_max.busy_s": busy["comparison.mc_max"] * sec,
        "comparison.concentration.busy_s": busy["comparison.concentration"] * sec,
        "grammar.parse.calls": calls["grammar.parse"],
        "grammar.parse.busy_s": busy["grammar.parse"] * sec,
    }
    # Self time per module partitions each thread's traced time, so these
    # shares say where a pass went without double counting nested layers.
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            t for name, t in own.items() if name.split(".", 1)[0] == module) * sec
    return m
