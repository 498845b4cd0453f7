"""Deterministic worker-chunked Monte Carlo execution.

A job of ``total`` outer samples is split into ``workers`` contiguous chunks;
chunk c draws from an independent stream seeded by (seed, label, c).  Results
are merged in chunk order, so the output is a function of (seed, workers)
only, regardless of how many threads actually ran.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def chunk_sizes(total: int, workers: int) -> list[int]:
    workers = max(1, min(workers, total)) if total > 0 else 1
    base, extra = divmod(total, workers)
    return [base + (1 if c < extra else 0) for c in range(workers)]


def run_chunked(total: int, workers: int, seed: int, label: int, job):
    """Run ``job(chunk_size, rng)`` per chunk; return results in chunk order."""
    sizes = chunk_sizes(total, workers)
    rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, label, c]))
        for c in range(len(sizes))
    ]
    if len(sizes) == 1:
        return [job(sizes[0], rngs[0])]
    with ThreadPoolExecutor(max_workers=len(sizes)) as pool:
        return list(pool.map(job, sizes, rngs))
