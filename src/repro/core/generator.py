"""The code generator — the paper's Figure 3 algorithm.

Traverses the optimizer's topologically sorted operator-descriptor list,
retrieves the code template for each operator's algorithm, instantiates
it with the descriptor's parameters, and emits one Python function per
staging step and per operator.  A composing function (``run_query``)
calls them in order and returns the result — "the last bit of code
generation is to traverse O and generate a main (composing) function
that calls all evaluation functions in the correct order".

The output is a single self-contained source module, mirroring the
paper's "insert all generated functions into a new C source file":
everything the serial walk and ``run_query`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.emitter import Emitter, GenContext, OPT_O2
from repro.core.templates.aggregate import emit_aggregate
from repro.core.templates.final import emit_limit, emit_project, emit_sort
from repro.core.templates.join import emit_join, emit_multiway_join
from repro.core.templates.staging import (
    emit_restage,
    emit_scan_stage,
    has_index_path,
)
from repro.errors import CodegenError
from repro.plan.descriptors import (
    AGG_MAP,
    Aggregate,
    Join,
    Limit,
    MultiwayJoin,
    PhysicalPlan,
    Project,
    Restage,
    ScanStage,
    Sort,
)


@dataclass
class GeneratedQuery:
    """A generated source module, ready for compilation."""

    name: str
    #: The serial module: what ``serial_walk`` and ``run_query`` call.
    source: str
    entry_name: str
    opt_level: str
    traced: bool
    function_names: dict[int, str] = field(default_factory=dict)

    @property
    def source_size(self) -> int:
        return len(self.source.encode("utf-8"))


class CodeGenerator:
    """Instantiates templates for a physical plan (Figure 3)."""

    def generate(
        self,
        plan: PhysicalPlan,
        name: str = "query",
        opt_level: str = OPT_O2,
        traced: bool = False,
    ) -> GeneratedQuery:
        plan.validate()
        gen = GenContext(opt_level=opt_level, traced=traced)
        body = Emitter()
        function_names: dict[int, str] = {}
        uses_map_aggregate = False

        fused = _fusions(plan, gen)
        for operator in plan.operators:
            func_name = _function_name(operator)
            function_names[operator.op_id] = func_name
            if isinstance(operator, ScanStage):
                emit_scan_stage(body, gen, operator, func_name)
            elif isinstance(operator, Restage):
                emit_restage(body, gen, operator, func_name)
            elif isinstance(operator, Join):
                emit_join(
                    body, gen, operator, func_name,
                    scan=_fused_scan(plan, operator, fused),
                )
            elif isinstance(operator, MultiwayJoin):
                emit_multiway_join(body, gen, operator, func_name)
            elif isinstance(operator, Aggregate):
                emit_aggregate(
                    body, gen, operator, func_name,
                    plan.op(operator.input_op).output_layout,
                    scan=_fused_scan(plan, operator, fused),
                )
                if operator.algorithm == AGG_MAP:
                    uses_map_aggregate = True
            elif isinstance(operator, Project):
                input_layout = plan.op(operator.input_op).output_layout
                emit_project(body, gen, operator, func_name, input_layout)
            elif isinstance(operator, Sort):
                emit_sort(body, gen, operator, func_name)
            elif isinstance(operator, Limit):
                emit_limit(body, gen, operator, func_name)
            else:
                raise CodegenError(
                    f"no template for operator {type(operator).__name__}"
                )

        self._emit_composer(body, gen, plan, function_names, fused)
        header = self._header(plan, name, gen, uses_map_aggregate)
        # Module metadata trailer: the module names its own query,
        # generation level and tracing mode, so ``.source`` output and
        # a namespace can be told apart without the engine.
        trailer = (
            "\n"
            f"HIQUE_QUERY = {name!r}\n"
            f"HIQUE_OPT_LEVEL = {opt_level!r}\n"
            f"HIQUE_TRACED = {traced!r}\n"
        )
        source = header + body.source() + trailer
        return GeneratedQuery(
            name=name,
            source=source,
            entry_name="run_query",
            opt_level=opt_level,
            traced=traced,
            function_names=function_names,
        )

    # -- composition --------------------------------------------------------------
    @staticmethod
    def _emit_composer(
        em: Emitter,
        gen: GenContext,
        plan: PhysicalPlan,
        function_names: dict[int, str],
        fused: dict[int, Aggregate | Join],
    ) -> None:
        """``run_query``: every operator in plan order.  It has no
        intermediate cache, so a fusable scan→consumer pair always
        runs fused, unless the index fetch answers the scan."""
        folded = {consumer.op_id for consumer in fused.values()}
        with em.block("def run_query(ctx):"):
            for operator in plan.operators:
                if operator.op_id in folded:
                    continue
                func = function_names[operator.op_id]
                args = ", ".join(
                    f"r{input_id}" for input_id in operator.inputs
                )
                consumer = fused.get(operator.op_id)
                if consumer is not None:
                    fold = function_names[consumer.op_id]
                    # The consumer's other input (a join's build side).
                    other = "".join(
                        f", r{input_id}"
                        for input_id in consumer.inputs
                        if input_id != operator.op_id
                    )
                if isinstance(operator, ScanStage) and has_index_path(
                    gen, operator
                ):
                    # Probe first; the scan runs only when the index
                    # declines (too many matches for fetching to win).
                    em.emit(f"_hit = {func}_probe(ctx)")
                    fetch = f"{func}_fetch(ctx, _hit.rids)"
                    if consumer is None:
                        em.emit(
                            f"r{operator.op_id} = {func}(ctx) "
                            f"if _hit.rids is None else {fetch}"
                        )
                    else:
                        em.emit(
                            f"r{consumer.op_id} = {fold}_scan(ctx{other}) "
                            f"if _hit.rids is None else "
                            f"{fold}(ctx{other}, {fetch})"
                        )
                elif consumer is not None:
                    em.emit(f"r{consumer.op_id} = {fold}_scan(ctx{other})")
                elif args:
                    em.emit(f"r{operator.op_id} = {func}(ctx, {args})")
                else:
                    em.emit(f"r{operator.op_id} = {func}(ctx)")
            em.emit(f"return r{plan.root.op_id}")

    # -- module header -----------------------------------------------------------------
    @staticmethod
    def _header(
        plan: PhysicalPlan,
        name: str,
        gen: GenContext,
        uses_map_aggregate: bool,
    ) -> str:
        lines = [
            '"""Query-specific code generated by HIQUE (repro).',
            "",
            f"Query: {name}",
            f"Optimization level: {gen.opt_level}"
            + (" (traced)" if gen.traced else ""),
            "",
            "Plan:",
        ]
        lines.extend("    " + line for line in plan.explain().split("\n"))
        lines.append('"""')
        lines.append("")
        lines.append("import struct as _struct")
        lines.append("from operator import itemgetter as _itemgetter")
        lines.append("")
        lines.append("from repro.core import runtime as _rt")
        if gen.traced:
            lines.append("from math import log2 as _log2")
            lines.append(
                "from repro.memsim.probe import AddressSpace as _AS"
            )
        if uses_map_aggregate:
            lines.append(
                "from repro.errors import MapDirectoryOverflow as "
                "_MapOverflow"
            )
        lines.append("")
        lines.append('_SP = b" "')
        if gen.traced:
            lines.append("_page_addr = _AS.page_addr")
        lines.extend(gen.preamble_lines())
        lines.append("")
        lines.append("")
        return "\n".join(lines)


def _fusions(
    plan: PhysicalPlan, gen: GenContext
) -> dict[int, Aggregate | Join]:
    """Scan op id → the consumer it fuses into (untraced O2 only:
    traced and O0 modules keep the paper's staged pair)."""
    if not gen.optimized or gen.traced:
        return {}
    fused = {}
    for operator in plan.operators:
        consumer = plan.fusable_consumer(operator)
        if consumer is not None:
            fused[operator.op_id] = consumer
    return fused


def _fused_scan(
    plan: PhysicalPlan, consumer, fused: dict[int, Aggregate | Join]
) -> ScanStage | None:
    """The scan whose rows ``consumer`` takes unstaged, if any."""
    for scan_id, fused_consumer in fused.items():
        if fused_consumer is consumer:
            return plan.op(scan_id)
    return None


def _function_name(operator) -> str:
    prefixes = {
        ScanStage: "stage",
        Restage: "restage",
        Join: "join",
        MultiwayJoin: "team_join",
        Aggregate: "aggregate",
        Project: "project",
        Sort: "order",
        Limit: "limit",
    }
    prefix = prefixes.get(type(operator))
    if prefix is None:  # pragma: no cover - exhaustive above
        raise CodegenError(f"unnamed operator {type(operator).__name__}")
    return f"{prefix}_o{operator.op_id}"
