"""Per-record map that runs in the calling thread.

Per-record work (alignment, parsing, tuple matching) is pure Python and
holds the GIL, so threads cannot speed it up (they measured slower); it
runs as a plain loop.  The module stays only because the benchmark under
`perfbench/` imports it, calls `worker_count()`, and wraps `parallel_map`
where `cli`, `spice` and `retrieval` look it up.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    return 1


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    return [fn(x) for x in items]
