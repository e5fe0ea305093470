"""Reusable execution workspace for the evaluation and pair-join kernels.

:func:`~repro.core.algorithm.slice_line` calls the ``(X S^T) == L``
kernel once per level (and once more per priority chunk); constructing a
fresh :class:`~concurrent.futures.ThreadPoolExecutor` inside every call
wastes thread start-up latency precisely on the small, frequent calls where
it is most visible.  :class:`KernelWorkspace` owns one lazily created pool for the
lifetime of a run — every kernel invocation of that run maps its blocks over
the same threads.

The workspace is deliberately dumb about work semantics: :meth:`map` is
order-preserving and falls back to a serial loop when the pool would not
help (one thread configured, or a single block), so results are identical
to transient-pool execution in every configuration.  The evaluation spans
and the pair join's chunks (:func:`repro.core.pairs.choose_pair_plan`)
both map at the workspace's ``num_threads``; the join's cost model runs
small levels serially instead.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class KernelWorkspace:
    """Owns the persistent thread pool shared by one run's kernel calls.

    Parameters
    ----------
    num_threads:
        Pool width; ``<= 1`` means strictly serial execution (no pool is
        ever created).  The pool itself is created on the first parallel
        :meth:`map` and reused until :meth:`close`.
    """

    def __init__(self, num_threads: int = 1) -> None:
        self.num_threads = int(num_threads)
        self._pool: ThreadPoolExecutor | None = None
        #: pools created over this workspace's lifetime (tests assert == 1)
        self.pools_created = 0

    # -- execution -----------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Order-preserving map over *items*, pooled when it pays off."""
        if self.num_threads > 1 and len(items) > 1:
            return list(self._ensure_pool().map(fn, items))
        return [fn(item) for item in items]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.num_threads)
            self.pools_created += 1
        return self._pool

    @property
    def pool_active(self) -> bool:
        """True while a created pool has not been shut down."""
        return self._pool is not None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down (idempotent); the workspace can be reused."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "KernelWorkspace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def resolve_workspace(
    workspace: KernelWorkspace | None, num_threads: int
) -> tuple[KernelWorkspace, bool]:
    """The workspace to run on plus whether the caller must close it.

    Kernel entry points accept an optional caller-owned workspace; when none
    is given they fall back to a transient one (the pre-workspace behaviour)
    that the caller of this helper is responsible for closing.
    """
    if workspace is not None:
        return workspace, False
    return KernelWorkspace(num_threads), True


__all__ = ["KernelWorkspace", "resolve_workspace"]
