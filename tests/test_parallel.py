import threading

import numpy as np
import pytest

from wienergamma import parallel
from wienergamma.parallel import chunk_sizes, run_chunked


def drawing_job(chunk, rng):
    return chunk, rng.standard_normal(chunk)


def assert_solo_results(results, total, workers, seed, label):
    """Each chunk's result is what its job returns when it runs alone."""
    sizes = chunk_sizes(total, workers)
    assert len(results) == len(sizes)
    for c, (size, draws) in enumerate(results):
        rng = np.random.default_rng(np.random.SeedSequence([seed, label, c]))
        assert size == sizes[c]
        assert draws.tobytes() == rng.standard_normal(size).tobytes()


@pytest.mark.parametrize("total, workers", [(1, 1), (10, 1), (10, 2), (10, 3), (5, 8)])
def test_chunk_zero_runs_on_the_calling_thread(total, workers):
    def job(chunk, rng):
        return threading.get_ident(), drawing_job(chunk, rng)

    results = run_chunked(total, workers, 7, 0xAB, job)
    assert_solo_results([r for _, r in results], total, workers, 7, 0xAB)
    caller = threading.get_ident()
    assert [ident == caller for ident, _ in results] == [True] + [False] * (len(results) - 1)


def test_an_error_in_a_pool_chunk_propagates():
    def job(chunk, rng):
        if chunk == 1:  # chunk_sizes(3, 2) == [2, 1]
            raise RuntimeError("chunk 1 failed")
        return chunk

    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        run_chunked(3, 2, 0, 0, job)


class InlinePool:
    """Stands in for ``ThreadPoolExecutor``: records ``max_workers`` and runs
    each job on the calling thread when its result is read."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, cores, threads", [
    (1000, None, 1), (1000, 1, 1), (1000, 2, 1), (1000, 4, 3), (1000, 64, 49),
    (1, 8, 1)])
def test_pool_is_bounded_by_the_cores(monkeypatch, workers, cores, threads):
    # workers = 1000 on 50 samples makes 50 chunks; the pool gets the cores
    # less the calling thread, at least one thread, and at most one per chunk
    # after chunk 0.  The bits depend only on the chunks.
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cores)
    results = run_chunked(50, workers, 3, 0xC0, drawing_job)
    assert InlinePool.sizes == [threads]
    assert_solo_results(results, 50, workers, 3, 0xC0)
