"""A writer-preferring readers–writer latch.

The storage spine admits any number of concurrent readers (scans,
point lookups, aggregate staging) while writers — DDL, bulk loads,
``analyze`` — require exclusive access.  :class:`ReadWriteLatch` is the
gate that enforces this: the catalogue owns one, the query service
acquires the read side around engine execution, and every
catalogue-mutating operation takes the write side.

Writer preference keeps bulk operations from starving under a steady
stream of readers: once a writer is waiting, new readers queue behind
it.  A writer's release lets the readers queued behind it in before
the next writer, so a writer that writes in a tight loop cannot starve
them either.  The latch is *not* reentrant — neither read-inside-read nor
write-inside-write — so holders must not call back into gated entry
points.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


class _Scope:
    """A reusable ``with`` scope over one acquire/release pair.

    It holds no per-use state, so one instance serves every thread:
    entering a latch side allocates nothing.
    """

    __slots__ = ("_acquire", "_release")

    def __init__(
        self, acquire: Callable[[], None], release: Callable[[], None]
    ) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self._release()


class ReadWriteLatch:
    """Many concurrent readers or one exclusive writer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._readers_waiting = 0
        #: Readers a writer's release admitted ahead of the next writer.
        self._admitted = 0
        self._read_scope = _Scope(self.acquire_read, self.release_read)
        self._write_scope = _Scope(self.acquire_write, self.release_write)

    # -- read side -------------------------------------------------------------
    def acquire_read(self) -> None:
        with self._lock:
            if self._writer_active or (
                self._writers_waiting and not self._admitted
            ):
                self._readers_waiting += 1
                try:
                    while self._writer_active or (
                        self._writers_waiting and not self._admitted
                    ):
                        self._cond.wait()
                except BaseException:
                    # Admissions this reader will not take go unused.
                    self._readers_waiting -= 1
                    self._admitted = min(
                        self._admitted, self._readers_waiting
                    )
                    self._cond.notify_all()
                    raise
                self._readers_waiting -= 1
            if self._admitted:
                self._admitted -= 1
            self._readers += 1

    def release_read(self) -> None:
        with self._lock:
            self._readers -= 1
            # Only a writer waits for the readers to drain; a waiting
            # reader waits for writers, whose release wakes it.
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    def read(self) -> _Scope:
        """Shared-read scope: ``with latch.read(): ...``."""
        return self._read_scope

    # -- write side ------------------------------------------------------------
    def acquire_write(self) -> None:
        with self._lock:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers or self._admitted:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._lock:
            self._writer_active = False
            self._admitted = self._readers_waiting
            self._cond.notify_all()

    def write(self) -> _Scope:
        """Exclusive scope: ``with latch.write(): ...``."""
        return self._write_scope

    # -- introspection -----------------------------------------------------------
    @property
    def active_readers(self) -> int:
        with self._lock:
            return self._readers

    @property
    def writer_active(self) -> bool:
        with self._lock:
            return self._writer_active
