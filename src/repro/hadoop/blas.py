"""BLAS thread budget: each kernel caller gets its share of the cores.

Cumulon's cost model charges for slot contention: more concurrent tasks
on a node than it has cores make every task slower.  The local executor
runs ``max_workers`` kernel callers at once — executor threads, or kernel
worker processes — and OpenBLAS, left alone, starts one thread per core in
*each* caller.  Two callers on two cores then run four BLAS threads that
preempt each other on every matmul.  The budget here gives each caller
``max(1, usable_cores // callers)`` threads.

The module talks through ``ctypes`` to the OpenBLAS that numpy has already
loaded, and does nothing when numpy links another BLAS or the thread
symbols cannot be resolved.  Nothing is looked up at import time: the
library is resolved on first use, once per process.  A budget never
raises the thread count above the one in force, so a user's
``OPENBLAS_NUM_THREADS`` still wins.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager

#: ``(setter, getter)`` symbol pairs, in the order OpenBLAS builds are
#: tried: numpy's bundled 64-bit-integer build, then plain builds.
SYMBOLS: tuple[tuple[str, str], ...] = (
    ("scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class OpenBlas:
    """Thread-count control of one loaded OpenBLAS.

    The thread count is process-wide state of the library, so the
    reference count that :meth:`limit` keeps lives here, on the one object
    per process that stands for the library.
    """

    def __init__(self, get_threads, set_threads):
        self._get_threads = get_threads
        self._set_threads = set_threads
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 0

    def threads(self) -> int:
        """The thread count in force."""
        return int(self._get_threads())

    def set_threads(self, threads: int) -> None:
        """Set the thread count."""
        self._set_threads(int(threads))

    def apply_budget(self, threads: int) -> int:
        """Lower the thread count to ``threads`` if it is higher; returns
        the count now in force."""
        current = self.threads()
        if threads >= current:
            return current
        self.set_threads(threads)
        return threads

    @contextmanager
    def limit(self, threads: int):
        """Hold the thread count at most ``threads`` for the with-block.

        Concurrent holders share the one process-wide setting: each entry
        can only lower it, and the count found when the first holder
        entered comes back when the last one leaves, also when the block
        raises.  Yields the count in force after entering.
        """
        with self._lock:
            if self._holders == 0:
                self._saved = self.threads()
            applied = self.apply_budget(threads)
            self._holders += 1
        try:
            yield applied
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0 and self.threads() != self._saved:
                    self.set_threads(self._saved)


_resolve_lock = threading.Lock()
_resolved = False
_openblas: OpenBlas | None = None


def openblas() -> OpenBlas | None:
    """The OpenBLAS numpy computes with, or ``None`` if it uses another
    BLAS or the platform hides the symbols (resolved once per process)."""
    global _resolved, _openblas
    if _resolved:
        # Lock-free once resolved: a worker forked while another thread
        # held the lock must not wait on it.
        return _openblas
    with _resolve_lock:
        if not _resolved:
            _openblas = _find_openblas()
            _resolved = True
        return _openblas


def _find_openblas() -> OpenBlas | None:
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as extension
    try:
        # A symbol lookup through the extension's handle also searches the
        # libraries it was linked against, which is where numpy's BLAS is.
        library = ctypes.CDLL(extension.__file__)
    except OSError:
        return None
    for set_name, get_name in SYMBOLS:
        try:
            setter = getattr(library, set_name)
            getter = getattr(library, get_name)
        except AttributeError:
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return OpenBlas(getter, setter)
    return None


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def thread_budget(callers: int) -> int:
    """BLAS threads per caller when ``callers`` kernel callers run at once."""
    return max(1, usable_cores() // callers)


@contextmanager
def limit_threads(threads: int):
    """:meth:`OpenBlas.limit` on numpy's OpenBLAS; yields the count in
    force, or ``None`` (and changes nothing) without an OpenBLAS."""
    library = openblas()
    if library is None:
        yield None
        return
    with library.limit(threads) as applied:
        yield applied


def apply_budget(threads: int) -> int | None:
    """Lower this process's BLAS threads to ``threads`` for good — for
    kernel worker processes, which own their BLAS.  Returns the count in
    force, or ``None`` without an OpenBLAS."""
    library = openblas()
    return None if library is None else library.apply_budget(threads)


def current_threads() -> int | None:
    """This process's BLAS thread count, or ``None`` without an OpenBLAS."""
    library = openblas()
    return None if library is None else library.threads()
