"""Worker-thread sizing for the scoring pool, set by the ISOGUARD_THREADS environment variable.

Only batch scoring (``iforest.mean_path_lengths``) runs on threads, one
contiguous block of rows per task and never more blocks than rows: a
block walks its rows through as many trees at a time as there are
blocks, level by level, in a fixed handful of numpy gathers and
compares, which run with the GIL released, so workers overlap. Fits are
per-node Python that holds the GIL, so they run serially: the isolation
trees one by one, and the extra-trees of one fit in lockstep on the
calling thread, one set of numpy calls per step for the next drawing
node of every tree; a node's draw id is the step that splits it. The
pool never has more workers than the CPUs this process may use.
"""
from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

from .errors import IsoguardError

ENV_VAR = "ISOGUARD_THREADS"


def worker_count() -> int:
    """Worker cap: ISOGUARD_THREADS if set above 0, else one per usable CPU,
    never more than the usable CPUs (the affinity set where the OS reports one)."""
    raw = os.environ.get(ENV_VAR, "0")
    try:
        n = int(raw)
    except ValueError:
        raise IsoguardError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if n < 0:
        raise IsoguardError(f"{ENV_VAR} must be >= 0, got {n}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return min(n, cpus) if n > 0 else cpus


def run_indexed(fn: Callable[[int], object], n_items: int) -> list:
    """Evaluate fn(0..n_items-1), results in index order.

    Each fn(i) must be self-contained (seeded by i), so the thread schedule
    cannot change the outcome.
    """
    workers = min(worker_count(), n_items)
    if workers <= 1:
        return [fn(i) for i in range(n_items)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_items)))
