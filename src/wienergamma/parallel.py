"""Deterministic worker-chunked Monte Carlo execution.

A job of ``total`` outer samples is split into ``workers`` contiguous chunks;
chunk c draws from an independent stream seeded by (seed, label, c).  Results
are merged in chunk order, so the output is a function of (seed, workers)
only, regardless of how many threads actually ran.

A plain Monte Carlo job walks its chunk in blocks laid out by
``block_bounds``, so that it holds one block of draws and values at a time:
blocks start at multiples of ``BLOCK`` samples, and a tail shorter than half
a block joins the block before it.  Draws split into consecutive blocks
continue one stream, so a job whose work is per sample gives the numbers of
the one-block job.  The fBm path synthesis is a matrix product whose bits can
depend on the block layout; it gives the one-block product's bits under this
layout (checked with OpenBLAS 0.3.31 for m = 16 and 128 at 372 path counts
from 100 to 12 289, 50 000 and 100 000), while equal halves, or a short tail
solved on its own (4096 + 3 paths as 4096 and 3), can round differently.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK = 4096  # samples per block of a worker chunk


def chunk_sizes(total: int, workers: int) -> list[int]:
    workers = max(1, min(workers, total)) if total > 0 else 1
    base, extra = divmod(total, workers)
    return [base + (1 if c < extra else 0) for c in range(workers)]


def block_bounds(total: int) -> list[tuple[int, int]]:
    """(start, stop) of the blocks of a chunk of ``total`` samples."""
    starts = list(range(0, total, BLOCK))
    if len(starts) > 1 and total - starts[-1] < BLOCK // 2:
        starts.pop()
    return list(zip(starts, starts[1:] + [total]))


def widest_block(bounds: list[tuple[int, int]]) -> int:
    return max((stop - start for start, stop in bounds), default=0)


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
