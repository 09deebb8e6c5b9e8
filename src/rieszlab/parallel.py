"""Thread-pool helpers with a deterministic reduction contract.

Work is always split into chunks whose boundaries do not depend on the
thread count; per-chunk results are combined in chunk order.  Serial and
parallel runs are therefore bit-identical.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import InputError, as_count

THREADS_ENV = "RIESZ_THREADS"
# Largest explicit RIESZ_THREADS: a pass never starts more threads than this.
MAX_THREADS = 256


def resolve_threads() -> int:
    """Number of worker threads: RIESZ_THREADS (0 = auto, else at most
    MAX_THREADS), or 1 when it is unset."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    try:
        threads = int(raw) if raw else 1
    except ValueError as exc:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    threads = as_count(THREADS_ENV, threads, 0)
    if threads > MAX_THREADS:
        raise InputError(f"{THREADS_ENV} must be <= {MAX_THREADS}, got {threads}")
    return threads or os.cpu_count() or 1


def map_ordered(fn, items, fold=None):
    """Apply fn to each item on RIESZ_THREADS threads; results are
    returned in item order no matter how many threads execute the work.

    With fold, each result is passed to fold in item order as soon as it
    and every earlier one are done, and what fold returns takes its place,
    so large per-item results can be folded away instead of all held.
    """
    threads = resolve_threads()
    items = list(items)
    fold = fold or (lambda result: result)
    if threads <= 1 or len(items) <= 1:
        return [fold(fn(item)) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [fold(result) for result in pool.map(fn, items)]


def chunk_ranges(n: int, chunk: int):
    """Fixed [start, stop) row ranges; independent of thread count."""
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
