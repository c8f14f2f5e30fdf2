"""Deterministic work distribution: results always come back in input order."""

from __future__ import annotations


def pmap(fn, items, threads: int = 1) -> list:
    """Order-preserving map, fanned out over processes when threads > 1."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from multiprocessing import Pool
    with Pool(min(threads, len(items))) as pool:
        return pool.map(fn, items)
