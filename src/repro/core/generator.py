"""The code generator — the paper's Figure 3 algorithm.

Traverses the optimizer's topologically sorted operator-descriptor list,
retrieves the code template for each operator's algorithm, instantiates
it with the descriptor's parameters, and emits one Python function per
staging step and per operator.  A composing function,
``run_query(ctx, acc)``, calls them in order and returns the result —
"the last bit of code generation is to traverse O and generate a main
(composing) function that calls all evaluation functions in the correct
order".  It is the only thing that runs a plan.  Every scan goes
through the run's access object ``acc``
(:class:`~repro.parallel.stage.StageAccess`), which serves it from an
index fetch or a cached staging when it can; a scan fused into its
consumer runs the consumer's page loop only when no staging is kept.
Every other operator is a direct call.

The output is a single self-contained source module, mirroring the
paper's "insert all generated functions into a new C source file".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.emitter import Emitter, GenContext, OPT_O2
from repro.core.templates.aggregate import emit_aggregate
from repro.core.templates.final import emit_limit, emit_project, emit_sort
from repro.core.templates.join import emit_join, emit_multiway_join
from repro.core.templates.staging import emit_restage, emit_scan_stage
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

#: The phase each operator's time is reported under.
PHASE_OF = {
    ScanStage: "stage",
    Restage: "stage",
    Join: "join",
    MultiwayJoin: "join",
    Aggregate: "aggregate",
    Project: "final",
    Sort: "final",
    Limit: "final",
}


@dataclass
class GeneratedQuery:
    """A generated source module, ready for compilation."""

    name: str
    source: str
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

        self._emit_composer(body, plan, function_names, fused)
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
            opt_level=opt_level,
            traced=traced,
            function_names=function_names,
        )

    # -- composition --------------------------------------------------------------
    @staticmethod
    def _emit_composer(
        em: Emitter,
        plan: PhysicalPlan,
        function_names: dict[int, str],
        fused: dict[int, Aggregate | Join],
    ) -> None:
        """``run_query(ctx, acc)``: every operator in plan order.

        A scan is ``acc.scan``; a fused scan→consumer pair is
        ``acc.fold``, handed the consumer's staged entry and its page
        loop (``<consumer>_scan``) to choose between.  Every other
        operator is a direct call, and ``acc.lap`` books its time to
        its phase."""
        folded = {consumer.op_id for consumer in fused.values()}
        with em.block("def run_query(ctx, acc):"):
            for operator in plan.operators:
                op_id = operator.op_id
                if op_id in folded:
                    continue
                func = function_names[op_id]
                consumer = fused.get(op_id)
                if consumer is not None:
                    fold = function_names[consumer.op_id]
                    # The consumer's other input (a join's build side).
                    other = "".join(
                        f", r{input_id}"
                        for input_id in consumer.inputs
                        if input_id != op_id
                    )
                    em.emit(
                        f"r{consumer.op_id} = acc.fold({op_id}, {func}, "
                        f"{fold}, {fold}_scan{other})"
                    )
                elif isinstance(operator, ScanStage):
                    em.emit(f"r{op_id} = acc.scan({op_id}, {func})")
                else:
                    args = "".join(f", r{i}" for i in operator.inputs)
                    em.emit(f"r{op_id} = {func}(ctx{args})")
                    em.emit(f'acc.lap("{PHASE_OF[type(operator)]}")')
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
