"""Compilation and dynamic loading of generated query code.

The paper writes the generated C file, invokes gcc to produce a shared
library, and ``dlopen``s it.  The Python analogue compiles the generated
source in memory with :func:`compile`, under a per-compilation path
that names no real file, and executes it into a fresh module namespace
whose composing function, ``run_query``, the executor calls.  Nothing
is written to disk: the namespace's ``__loader__`` serves the source,
so ``linecache`` (and with it tracebacks and ``inspect``) shows
generated lines.  ``marshal`` of the code object stands in for the
shared library when reporting compiled sizes, computed only when asked
for.
"""

from __future__ import annotations

import marshal
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from types import CodeType
from typing import Any

from repro.core.generator import GeneratedQuery
from repro.errors import CodegenError


class _SourceLoader:
    """The ``__loader__`` of a generated namespace: ``linecache`` asks it
    for the module text when a traceback or ``inspect`` needs a line
    and no file exists.  Holds only the text, so a ``linecache`` entry
    made on an error path does not keep the namespace alive."""

    __slots__ = ("_source",)

    def __init__(self, source: str):
        self._source = source

    def get_source(self, name: str) -> str:
        return self._source


@dataclass
class CompiledQuery:
    """A generated query after compilation and dynamic loading."""

    name: str
    source: str
    #: The filename the module's code objects carry (no file exists).
    source_path: str
    #: The module's globals; ``run_query`` is the composing function.
    namespace: dict[str, Any]
    opt_level: str
    traced: bool
    compile_seconds: float
    source_bytes: int
    #: The module's code object (kept for :attr:`compiled_bytes`).
    code: CodeType

    @cached_property
    def compiled_bytes(self) -> int:
        """Size of the marshalled code object."""
        return len(marshal.dumps(self.code))


class QueryCompiler:
    """Compiles generated sources, caching nothing itself (the query
    service's plan cache keeps preparations, as the paper suggests
    systems do for "frequently or recently issued queries")."""

    #: Directory part of every generated module's ``source_path``.
    #: No such directory exists: the ``__loader__`` serves the text.
    SOURCE_DIR = "<hique-generated>"

    def __init__(self):
        self._counter = 0
        # Concurrent sessions may compile at once (e.g. the engine's
        # stale-statistics fallback path); the counter hands each
        # compilation a distinct module name and path.
        self._counter_lock = threading.Lock()

    def compile(self, generated: GeneratedQuery) -> CompiledQuery:
        """Compile and load one generated module, in memory."""
        with self._counter_lock:
            self._counter += 1
            serial = self._counter
        source_path = (
            f"{self.SOURCE_DIR}/{_sanitize(generated.name)}_{serial}.py"
        )

        started = time.perf_counter()
        try:
            code = compile(generated.source, source_path, "exec")
        except SyntaxError as exc:  # a generator bug, not a user error
            raise CodegenError(
                f"generated code does not compile: {exc}\n"
                f"--- generated source ---\n{generated.source}"
            ) from exc
        namespace: dict[str, Any] = {
            "__name__": f"hique_generated_{serial}",
            "__file__": source_path,
            "__loader__": _SourceLoader(generated.source),
        }
        exec(code, namespace)  # noqa: S102 - this *is* the dynamic linker
        elapsed = time.perf_counter() - started
        return CompiledQuery(
            name=generated.name,
            source=generated.source,
            source_path=source_path,
            namespace=namespace,
            opt_level=generated.opt_level,
            traced=generated.traced,
            compile_seconds=elapsed,
            source_bytes=generated.source_size,
            code=code,
        )


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
