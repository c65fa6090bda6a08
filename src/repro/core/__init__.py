"""The paper's contribution: holistic per-query code generation."""

from repro.core.compiler import CompiledQuery, QueryCompiler
from repro.core.emitter import Emitter, GenContext, OPT_O0, OPT_O2
from repro.core.engine import (
    HiqueEngine,
    PreparationTimings,
    PreparedQuery,
)
from repro.core.executor import QueryContext, build_context
from repro.core.generator import CodeGenerator, GeneratedQuery

__all__ = [
    "CodeGenerator",
    "CompiledQuery",
    "Emitter",
    "GenContext",
    "GeneratedQuery",
    "HiqueEngine",
    "OPT_O0",
    "OPT_O2",
    "PreparationTimings",
    "PreparedQuery",
    "QueryCompiler",
    "QueryContext",
    "build_context",
]
