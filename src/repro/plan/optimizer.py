"""The query optimizer: bound query → physical descriptor list.

Follows the paper's Section IV: a greedy approach whose objective is to
minimise the size of intermediate results, choosing the evaluation
algorithm for each operator and the parameters used to instantiate the
code generator's templates.  It keeps track of *interesting orders*
(merge joins leave their output sorted, which downstream sort-based
aggregation and ORDER BY can reuse) and *join teams* (sets of tables
joined on a common key, evaluated in one deeply-nested loop block).

Join algorithms are chosen, as the paper does (Section V-B), for the
hardware the generated program runs on — here one interpreter thread:

* a **build/probe hash join** for every binary equi-join: the input
  with the smaller estimate is staged as fine partitions on its key,
  the other is neither sorted nor partitioned and is looked up row by
  row — inside its own scan loop when nothing else consumes the scan.
  Sorting or partitioning the larger input buys nothing without
  threads or a cache hierarchy the interpreter can exploit;
* the paper's staged algorithms — **merge**, **hybrid hash-sort-merge**
  (coarse partitions sorted lazily before merging), and the symmetric
  **fine partition** join — under ``force_join``, where the Figure 5–7
  experiments pin them; join teams stay merge when all inputs fit half
  of L2, hybrid otherwise.

Aggregation follows the paper's cache-consciousness rules:

* **map aggregation** when the value directories plus aggregate arrays
  fit comfortably in L2; **sort aggregation** when the input already
  arrives sorted on the grouping key; **hybrid hash-sort aggregation**
  otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import PlanError, UnsupportedSqlError
from repro.plan.descriptors import (
    AGG_HYBRID,
    AGG_MAP,
    AGG_SORT,
    JOIN_HASH,
    JOIN_HYBRID,
    JOIN_MERGE,
    JOIN_NESTED,
    PREP_NONE,
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    Aggregate,
    IndexAccess,
    Join,
    Limit,
    MultiwayJoin,
    Operator,
    PhysicalPlan,
    Prep,
    Project,
    Restage,
    ScanStage,
    Sort,
)
from repro.plan.layout import ColumnLayout, ColumnSlot
from repro.sql.bound import (
    BoundColumn,
    BoundComparison,
    BoundQuery,
    JoinPredicate,
    columns_in,
)
from repro.storage.catalog import Catalog
from repro.storage.table import Table


@dataclass
class PlannerConfig:
    """Tuning knobs; defaults model the paper's Core 2 Duo 6300."""

    l2_bytes: int = 2 * 1024 * 1024
    d1_bytes: int = 32 * 1024
    #: A staged input "fits" when it occupies at most this fraction of L2.
    l2_fit_fraction: float = 0.5
    #: Fine (value-directory) partitioning bound on key distinct count.
    fine_partition_max_distinct: int = 512
    #: Map aggregation: directories + aggregate arrays must fit in this
    #: fraction of L2.
    map_agg_l2_fraction: float = 0.5
    #: Detect join teams (Figure 7(b) toggles this).
    enable_join_teams: bool = True
    #: Experiment overrides — force algorithm choices.
    force_join: str | None = None
    force_agg: str | None = None
    force_partitions: int | None = None
    #: Assumed bytes per staged field (values are Python objects at run
    #: time; 8 models the on-page width driving the paper's decisions).
    bytes_per_field: int = 8

    def staged_bytes(self, rows: float, num_fields: int) -> float:
        return rows * max(num_fields, 1) * self.bytes_per_field

    def fits_l2(self, nbytes: float) -> bool:
        return nbytes <= self.l2_bytes * self.l2_fit_fraction


@dataclass
class _Rel:
    """A planned relation: either a staged base table or a join result."""

    op_id: int
    bindings: set[str]
    layout: ColumnLayout
    est_rows: float
    order: tuple[int, ...] = ()


@dataclass
class Optimizer:
    """Plans one bound query into a :class:`PhysicalPlan`."""

    catalog: Catalog
    config: PlannerConfig = field(default_factory=PlannerConfig)

    # -- entry point -----------------------------------------------------------
    def plan(self, query: BoundQuery) -> PhysicalPlan:
        self._next_id = 0
        self._query = query
        plan = PhysicalPlan()

        needed = self._needed_columns(query)
        rels = self._plan_joins(query, plan, needed)
        rel = rels

        if query.is_grouped:
            rel = self._plan_aggregation(query, plan, rel)
        else:
            rel = self._plan_projection(query, plan, rel)

        rel = self._plan_order_limit(query, plan, rel)
        plan.output_names = query.output_names()
        plan.validate()
        return plan

    # -- id allocation ------------------------------------------------------------
    def _new_id(self) -> int:
        op_id = self._next_id
        self._next_id += 1
        return op_id

    # -- column requirements --------------------------------------------------------
    def _needed_columns(self, query: BoundQuery) -> dict[str, list[BoundColumn]]:
        """Columns each binding must stage (projection pushdown)."""
        needed: dict[str, dict[str, BoundColumn]] = {
            t.binding: {} for t in query.tables
        }

        def note(column: BoundColumn) -> None:
            needed[column.binding].setdefault(column.column, column)

        for output in query.select:
            for column in columns_in(output.expr):
                note(column)
        for column in query.group_by:
            note(column)
        for predicate in query.joins:
            note(predicate.left)
            note(predicate.right)
        result: dict[str, list[BoundColumn]] = {}
        for bound_table in query.tables:
            columns = list(needed[bound_table.binding].values())
            if not columns:
                # COUNT(*)-style queries still need one staged field.
                first = bound_table.table.schema[0]
                columns = [
                    BoundColumn(
                        bound_table.binding, first.name, first.dtype
                    )
                ]
            result[bound_table.binding] = columns
        return result

    # -- statistics ---------------------------------------------------------------------
    def _table_stats(self, binding: str):
        table = self._query.binding(binding).table
        return self.catalog.stats(table.name)

    def _distinct(self, column: BoundColumn) -> int:
        stats = self._table_stats(column.binding)
        return stats.distinct_of(column.column)

    def _scan_estimate(self, binding: str) -> float:
        table = self._query.binding(binding).table
        rows = float(max(table.num_rows, 1))
        for comparison in self._query.filters.get(binding, ()):
            rows *= _selectivity(comparison, self._table_stats(binding))
        return max(rows, 1.0)

    def _join_estimate(
        self, left: _Rel, right: _Rel, predicate: JoinPredicate
    ) -> float:
        d_left = self._distinct(predicate.left)
        d_right = self._distinct(predicate.right)
        denom = max(d_left, d_right, 1)
        return max(left.est_rows * right.est_rows / denom, 1.0)

    # -- scans ---------------------------------------------------------------------------
    def _emit_scan(
        self,
        plan: PhysicalPlan,
        binding: str,
        columns: list[BoundColumn],
        prep: Prep,
    ) -> _Rel:
        table = self._query.binding(binding).table
        layout = ColumnLayout(
            ColumnSlot(c.binding, c.column, c.dtype) for c in columns
        )
        order: tuple[int, ...] = ()
        if prep.kind == PREP_SORT:
            order = prep.keys
        filters = tuple(self._query.filters.get(binding, ()))
        scan = ScanStage(
            op_id=self._new_id(),
            output_layout=layout,
            binding=binding,
            table=table,
            filters=filters,
            prep=prep,
            index=index_access_for(table, filters),
            output_order=order,
        )
        plan.operators.append(scan)
        return _Rel(
            op_id=scan.op_id,
            bindings={binding},
            layout=layout,
            est_rows=self._scan_estimate(binding),
            order=order,
        )

    # -- join planning -------------------------------------------------------------------
    def _plan_joins(
        self,
        query: BoundQuery,
        plan: PhysicalPlan,
        needed: dict[str, list[BoundColumn]],
    ) -> _Rel:
        if len(query.tables) == 1:
            binding = query.tables[0].binding
            return self._emit_scan(plan, binding, needed[binding], Prep())

        if not query.joins:
            return self._plan_cartesian(query, plan, needed)

        team = self._detect_join_team(query) if self.config.enable_join_teams else None
        if team is not None:
            return self._plan_join_team(query, plan, needed, team)
        return self._plan_binary_joins(query, plan, needed)

    def _detect_join_team(self, query: BoundQuery) -> list[str] | None:
        """A join team exists when ≥3 tables join on one key class."""
        if len(query.tables) < 3:
            return None
        classes = _key_equivalence_classes(query.joins)
        if len(classes) != 1:
            return None
        bindings = {b for predicate in query.joins for b in predicate.bindings()}
        if bindings != {t.binding for t in query.tables}:
            return None
        return [t.binding for t in query.tables]

    def _plan_join_team(
        self,
        query: BoundQuery,
        plan: PhysicalPlan,
        needed: dict[str, list[BoundColumn]],
        team: list[str],
    ) -> _Rel:
        # One key column per binding, from the equivalence class.
        key_of = _team_keys(query.joins)
        total_bytes = 0.0
        for binding in team:
            total_bytes += self.config.staged_bytes(
                self._scan_estimate(binding), len(needed[binding])
            )
        if self.config.force_join is not None:
            # Teams only come in merge and hybrid flavours.
            algorithm = (
                JOIN_MERGE
                if self.config.force_join == JOIN_MERGE
                else JOIN_HYBRID
            )
        else:
            algorithm = (
                JOIN_MERGE if self.config.fits_l2(total_bytes) else JOIN_HYBRID
            )
        partitions = self._choose_partitions(total_bytes)

        rels: list[_Rel] = []
        key_positions: list[int] = []
        for binding in team:
            key = key_of[binding]
            columns = needed[binding]
            layout = ColumnLayout(
                ColumnSlot(c.binding, c.column, c.dtype) for c in columns
            )
            key_pos = layout.position(key)
            if algorithm == JOIN_MERGE:
                prep = Prep(PREP_SORT, (key_pos,))
            else:
                # The hybrid team partitions while staging; partitions are
                # sorted lazily right before merging (paper, Section V-B).
                prep = Prep(PREP_PARTITION, (key_pos,), partitions)
            rels.append(self._emit_scan(plan, binding, columns, prep))
            key_positions.append(key_pos)

        layout = rels[0].layout
        for rel in rels[1:]:
            layout = layout.concat(rel.layout)
        if algorithm == JOIN_MERGE:
            # The first input's key column keeps its position in the
            # concatenated layout, and merge output is ordered on it.
            order: tuple[int, ...] = (key_positions[0],)
        else:
            order = ()
        join = MultiwayJoin(
            op_id=self._new_id(),
            output_layout=layout,
            algorithm=algorithm,
            input_ops=tuple(r.op_id for r in rels),
            key_positions=tuple(key_positions),
            output_order=order,
        )
        plan.operators.append(join)
        est = rels[0].est_rows
        for rel, binding in zip(rels[1:], team[1:]):
            est = est * rel.est_rows / max(self._distinct(key_of[binding]), 1)
        return _Rel(
            op_id=join.op_id,
            bindings=set(team),
            layout=layout,
            est_rows=max(est, 1.0),
            order=join.output_order,
        )

    def _plan_binary_joins(
        self,
        query: BoundQuery,
        plan: PhysicalPlan,
        needed: dict[str, list[BoundColumn]],
    ) -> _Rel:
        remaining_predicates = list(query.joins)
        pending: dict[str, list[BoundColumn]] = dict(needed)
        staged: dict[str, _Rel] = {}

        # Greedy: pick the cheapest joinable pair first, then extend.
        first = self._pick_first_pair(query, remaining_predicates)
        current = self._join_pair(
            plan, pending, staged, first, remaining_predicates, None
        )
        joined = set(current.bindings)
        while joined != {t.binding for t in query.tables}:
            predicate = self._pick_next_predicate(
                remaining_predicates, joined
            )
            if predicate is None:
                raise UnsupportedSqlError(
                    "join graph is disconnected (cartesian products across "
                    "join components are not supported)"
                )
            current = self._join_pair(
                plan, pending, staged, predicate, remaining_predicates, current
            )
            joined = set(current.bindings)
        return current

    def _pick_first_pair(
        self, query: BoundQuery, predicates: list[JoinPredicate]
    ) -> JoinPredicate:
        best = None
        best_cost = None
        for predicate in predicates:
            left_b, right_b = predicate.bindings()
            cost = (
                self._scan_estimate(left_b)
                * self._scan_estimate(right_b)
                / max(
                    self._distinct(predicate.left),
                    self._distinct(predicate.right),
                    1,
                )
            )
            if best_cost is None or cost < best_cost:
                best, best_cost = predicate, cost
        assert best is not None
        return best

    @staticmethod
    def _pick_next_predicate(
        predicates: list[JoinPredicate], joined: set[str]
    ) -> JoinPredicate | None:
        for predicate in predicates:
            left_b, right_b = predicate.bindings()
            if (left_b in joined) != (right_b in joined):
                return predicate
        return None

    def _join_pair(
        self,
        plan: PhysicalPlan,
        pending: dict[str, list[BoundColumn]],
        staged: dict[str, _Rel],
        predicate: JoinPredicate,
        remaining: list[JoinPredicate],
        current: _Rel | None,
    ) -> _Rel:
        remaining.remove(predicate)
        left_b, right_b = predicate.bindings()
        if current is not None and {left_b, right_b} <= current.bindings:
            raise PlanError("join predicate within a single relation")

        def rel_for(binding: str, key: BoundColumn, prep_factory) -> _Rel:
            if current is not None and binding in current.bindings:
                return current
            columns = pending[binding]
            layout = ColumnLayout(
                ColumnSlot(c.binding, c.column, c.dtype) for c in columns
            )
            key_pos = layout.position(key)
            return self._emit_scan(
                plan, binding, columns, prep_factory(key_pos)
            )

        def rows_of(binding: str) -> float:
            if current is not None and binding in current.bindings:
                return current.est_rows
            return self._scan_estimate(binding)

        build: _Rel | None = None
        if self.config.force_join is None:
            # A build/probe hash join: the smaller input is staged as
            # fine partitions on its key (an intermediate gets a
            # Restage), the larger is neither sorted nor partitioned.
            # Its scan is emitted last, right before the join, which
            # makes the join the scan's next and sole consumer: the
            # probe can run inside the scan's page loop.
            algorithm = JOIN_HASH
            build_key, probe_key = predicate.left, predicate.right
            if rows_of(right_b) < rows_of(left_b):
                build_key, probe_key = probe_key, build_key
            build = self._restage_if_needed(
                plan,
                rel_for(
                    build_key.binding,
                    build_key,
                    lambda key_pos: Prep(
                        PREP_PARTITION, (key_pos,), fine=True
                    ),
                ),
                build_key,
                algorithm,
                1,
            )
            probe = rel_for(probe_key.binding, probe_key, lambda _: Prep())
            left_rel, right_rel = (
                (build, probe) if build_key is predicate.left
                else (probe, build)
            )
        else:
            # Decide algorithm from estimated staged sizes of both sides.
            left_fields = (
                len(current.layout)
                if current is not None and left_b in current.bindings
                else len(pending[left_b])
            )
            right_fields = (
                len(current.layout)
                if current is not None and right_b in current.bindings
                else len(pending[right_b])
            )
            total_bytes = self.config.staged_bytes(
                rows_of(left_b), left_fields
            ) + self.config.staged_bytes(rows_of(right_b), right_fields)
            algorithm = self.config.force_join
            partitions = self._choose_partitions(total_bytes)
            fine = self._is_fine(predicate.left) and self._is_fine(
                predicate.right
            )
            if algorithm == JOIN_HASH and not fine:
                algorithm = JOIN_HYBRID  # coarse partitions need the sort-merge

            def prep_factory(key_pos: int) -> Prep:
                if algorithm == JOIN_MERGE:
                    return Prep(PREP_SORT, (key_pos,))
                if algorithm == JOIN_HASH:
                    return Prep(
                        PREP_PARTITION, (key_pos,), partitions, fine=True
                    )
                if algorithm == JOIN_NESTED:
                    return Prep()
                # Hybrid: coarse-partition while staging; the join
                # template sorts each pair of corresponding partitions
                # just before merging them so they are L2 resident
                # (Section V-B).
                return Prep(
                    PREP_PARTITION, (key_pos,), partitions, fine=False
                )

            left_rel = rel_for(left_b, predicate.left, prep_factory)
            right_rel = rel_for(right_b, predicate.right, prep_factory)

            # An intermediate feeding a merge/hybrid join must be
            # re-staged unless its order already matches the join key.
            left_rel = self._restage_if_needed(
                plan, left_rel, predicate.left, algorithm, partitions
            )
            right_rel = self._restage_if_needed(
                plan, right_rel, predicate.right, algorithm, partitions
            )

        left_key = left_rel.layout.position(predicate.left)
        right_key = right_rel.layout.position(predicate.right)
        layout = left_rel.layout.concat(right_rel.layout)
        order = (left_key,) if algorithm == JOIN_MERGE else ()

        # Any further predicate now internal to the joined pair becomes
        # a residual conjunct checked over the join output.
        joined_bindings = left_rel.bindings | right_rel.bindings
        residuals: list[BoundComparison] = []
        if algorithm == JOIN_NESTED:
            # The bare nested-loops template enumerates every pair and
            # stages nothing, so the driving equi predicate itself must
            # be enforced as a residual — unlike merge/hash/hybrid,
            # whose staging + loop bounds embed it.  (The cartesian
            # path never has a predicate to begin with.)
            residuals.append(
                BoundComparison("=", predicate.left, predicate.right)
            )
        for other in list(remaining):
            if set(other.bindings()) <= joined_bindings:
                remaining.remove(other)
                residuals.append(
                    BoundComparison("=", other.left, other.right)
                )
        join = Join(
            op_id=self._new_id(),
            output_layout=layout,
            algorithm=algorithm,
            left_op=left_rel.op_id,
            right_op=right_rel.op_id,
            left_key=left_key,
            right_key=right_key,
            residuals=tuple(residuals),
            build_op=None if build is None else build.op_id,
            output_order=order,
        )
        plan.operators.append(join)
        return _Rel(
            op_id=join.op_id,
            bindings=left_rel.bindings | right_rel.bindings,
            layout=layout,
            est_rows=self._join_estimate(left_rel, right_rel, predicate),
            order=order,
        )

    def _restage_if_needed(
        self,
        plan: PhysicalPlan,
        rel: _Rel,
        key: BoundColumn,
        algorithm: str,
        partitions: int,
    ) -> _Rel:
        """Base-table scans stage during the scan; intermediates that are
        not already ordered on the join key get an explicit Restage."""
        operator = plan.op(rel.op_id)
        if isinstance(operator, ScanStage):
            return rel
        key_pos = rel.layout.position(key)
        if algorithm == JOIN_MERGE and rel.order[:1] == (key_pos,):
            return rel
        if algorithm == JOIN_NESTED:
            return rel
        if algorithm == JOIN_MERGE:
            prep = Prep(PREP_SORT, (key_pos,))
            order: tuple[int, ...] = (key_pos,)
        elif algorithm == JOIN_HASH:
            prep = Prep(PREP_PARTITION, (key_pos,), partitions, fine=True)
            order = ()
        else:
            prep = Prep(PREP_PARTITION, (key_pos,), partitions)
            order = ()
        restage = Restage(
            op_id=self._new_id(),
            output_layout=rel.layout,
            input_op=rel.op_id,
            prep=prep,
            output_order=order,
        )
        plan.operators.append(restage)
        return _Rel(
            op_id=restage.op_id,
            bindings=rel.bindings,
            layout=rel.layout,
            est_rows=rel.est_rows,
            order=order,
        )

    def _plan_cartesian(
        self,
        query: BoundQuery,
        plan: PhysicalPlan,
        needed: dict[str, list[BoundColumn]],
    ) -> _Rel:
        """Pure cross products use the blocked nested-loops template."""
        rels = [
            self._emit_scan(plan, t.binding, needed[t.binding], Prep())
            for t in query.tables
        ]
        current = rels[0]
        for rel in rels[1:]:
            layout = current.layout.concat(rel.layout)
            join = Join(
                op_id=self._new_id(),
                output_layout=layout,
                algorithm=JOIN_NESTED,
                left_op=current.op_id,
                right_op=rel.op_id,
                left_key=0,
                right_key=0,
            )
            plan.operators.append(join)
            current = _Rel(
                op_id=join.op_id,
                bindings=current.bindings | rel.bindings,
                layout=layout,
                est_rows=current.est_rows * rel.est_rows,
            )
        return current

    def _choose_partitions(self, total_bytes: float) -> int:
        if self.config.force_partitions is not None:
            return self.config.force_partitions
        target = self.config.l2_bytes * self.config.l2_fit_fraction
        required = max(int(total_bytes / max(target, 1)) + 1, 2)
        return _next_pow2(required)

    def _is_fine(self, key: BoundColumn) -> bool:
        return (
            self._distinct(key) <= self.config.fine_partition_max_distinct
        )

    # -- aggregation -------------------------------------------------------------------
    def _plan_aggregation(
        self, query: BoundQuery, plan: PhysicalPlan, rel: _Rel
    ) -> _Rel:
        group_positions = tuple(
            rel.layout.position(c) for c in query.group_by
        )
        directory_sizes = tuple(
            self._distinct(c) for c in query.group_by
        )
        algorithm = self.config.force_agg or self._choose_agg_algorithm(
            query, rel, group_positions, directory_sizes
        )

        rel = self._stage_for_aggregation(plan, rel, group_positions, algorithm)

        output_layout = _output_layout(query)
        order: tuple[int, ...] = ()
        if algorithm == AGG_SORT and group_positions:
            order = tuple(range(len(group_positions)))
        aggregate = Aggregate(
            op_id=self._new_id(),
            output_layout=output_layout,
            input_op=rel.op_id,
            algorithm=algorithm,
            group_positions=group_positions,
            outputs=tuple(query.select),
            directory_sizes=directory_sizes,
            output_order=order,
        )
        plan.operators.append(aggregate)
        est_groups = 1.0
        for size in directory_sizes:
            est_groups *= max(size, 1)
        est_groups = min(est_groups, rel.est_rows) if directory_sizes else 1.0
        return _Rel(
            op_id=aggregate.op_id,
            bindings=rel.bindings,
            layout=output_layout,
            est_rows=est_groups,
            order=order,
        )

    def _choose_agg_algorithm(
        self,
        query: BoundQuery,
        rel: _Rel,
        group_positions: tuple[int, ...],
        directory_sizes: tuple[int, ...],
    ) -> str:
        if not group_positions:
            return AGG_MAP  # single global group: one pass, no staging
        product = 1
        for size in directory_sizes:
            product *= max(size, 1)
        num_aggregates = sum(
            1 for o in query.select if o.kind == "aggregate"
        )
        footprint = product * (num_aggregates + 1) * self.config.bytes_per_field
        directories = sum(directory_sizes) * self.config.bytes_per_field * 2
        if (
            footprint + directories
            <= self.config.l2_bytes * self.config.map_agg_l2_fraction
        ):
            return AGG_MAP
        if rel.order and rel.order[: len(group_positions)] == group_positions:
            return AGG_SORT
        return AGG_HYBRID

    def _stage_for_aggregation(
        self,
        plan: PhysicalPlan,
        rel: _Rel,
        group_positions: tuple[int, ...],
        algorithm: str,
    ) -> _Rel:
        if algorithm == AGG_MAP or not group_positions:
            return rel
        if algorithm == AGG_SORT:
            if rel.order[: len(group_positions)] == group_positions:
                return rel
            prep = Prep(PREP_SORT, group_positions)
            order = group_positions
        else:  # hybrid: partition on first key, sort partitions on all keys
            partitions = self._choose_partitions(
                self.config.staged_bytes(rel.est_rows, len(rel.layout))
            )
            prep = Prep(
                PREP_PARTITION_SORT, group_positions, partitions
            )
            order = ()

        operator = plan.op(rel.op_id)
        if isinstance(operator, ScanStage) and operator.prep.kind == PREP_NONE:
            # Interleave staging with the scan, as the paper does.
            operator.prep = prep
            operator.output_order = order
            rel.order = order
            return rel
        restage = Restage(
            op_id=self._new_id(),
            output_layout=rel.layout,
            input_op=rel.op_id,
            prep=prep,
            output_order=order,
        )
        plan.operators.append(restage)
        return _Rel(
            op_id=restage.op_id,
            bindings=rel.bindings,
            layout=rel.layout,
            est_rows=rel.est_rows,
            order=order,
        )

    # -- projection / order / limit ----------------------------------------------------
    def _plan_projection(
        self, query: BoundQuery, plan: PhysicalPlan, rel: _Rel
    ) -> _Rel:
        identity = len(query.select) == len(rel.layout) and all(
            isinstance(o.expr, BoundColumn)
            and rel.layout.position(o.expr) == i
            for i, o in enumerate(query.select)
        )
        if identity:
            return rel
        output_layout = _output_layout(query)
        project = Project(
            op_id=self._new_id(),
            output_layout=output_layout,
            input_op=rel.op_id,
            outputs=tuple(query.select),
            output_order=_projected_order(query, rel),
        )
        plan.operators.append(project)
        return _Rel(
            op_id=project.op_id,
            bindings=rel.bindings,
            layout=output_layout,
            est_rows=rel.est_rows,
            order=project.output_order,
        )

    def _plan_order_limit(
        self, query: BoundQuery, plan: PhysicalPlan, rel: _Rel
    ) -> _Rel:
        if query.order_by:
            wanted = tuple(query.order_by)
            already = all(asc for _, asc in wanted) and rel.order[
                : len(wanted)
            ] == tuple(pos for pos, _ in wanted)
            if not already:
                sort = Sort(
                    op_id=self._new_id(),
                    output_layout=rel.layout,
                    input_op=rel.op_id,
                    keys=wanted,
                    output_order=tuple(pos for pos, _ in wanted),
                )
                plan.operators.append(sort)
                rel = _Rel(
                    op_id=sort.op_id,
                    bindings=rel.bindings,
                    layout=rel.layout,
                    est_rows=rel.est_rows,
                    order=sort.output_order,
                )
        if query.limit is not None:
            limit = Limit(
                op_id=self._new_id(),
                output_layout=rel.layout,
                input_op=rel.op_id,
                count=query.limit,
                output_order=rel.order,
            )
            plan.operators.append(limit)
            rel = _Rel(
                op_id=limit.op_id,
                bindings=rel.bindings,
                layout=rel.layout,
                est_rows=min(rel.est_rows, query.limit),
                order=rel.order,
            )
        return rel


# -- helpers ------------------------------------------------------------------------------

#: ``bound OP column`` read as ``column OP' bound``.
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def index_access_for(
    table: Table, comparisons: Sequence[BoundComparison]
) -> IndexAccess | None:
    """The index probe a conjunction over one table allows, if any.

    A conjunct is sargable when it compares an indexed column with an
    expression free of columns (literals, parameters, arithmetic over
    them) using ``=``, ``<``, ``<=``, ``>`` or ``>=``.  An equality
    beats a range closed on both ends beats a half-open one; among
    equals the first indexed column wins.  With several lower (or
    upper) bounds on one column the first is probed — which is tighter
    is only known from the parameters — and the rest filter.
    """
    best: IndexAccess | None = None
    best_rank = 3
    for column in table.indexed_columns:
        low = high = None
        low_inclusive = high_inclusive = True
        for comparison in comparisons:
            if comparison.op not in _MIRRORED:
                continue
            op, bound = comparison.op, comparison.right
            if not _is_column(comparison.left, column):
                op, bound = _MIRRORED[op], comparison.left
                if not _is_column(comparison.right, column):
                    continue
            if columns_in(bound):
                continue
            if op == "=":
                low = high = bound
                low_inclusive = high_inclusive = True
                break
            if op in (">", ">="):
                if low is None:
                    low, low_inclusive = bound, op == ">="
            elif high is None:
                high, high_inclusive = bound, op == "<="
        if low is None and high is None:
            continue
        closed = low is not None and high is not None
        rank = 0 if low is high else 1 if closed else 2
        if rank < best_rank:
            best_rank = rank
            best = IndexAccess(column, low, high, low_inclusive, high_inclusive)
    return best


def _is_column(expr, column: str) -> bool:
    return isinstance(expr, BoundColumn) and expr.column == column


def _selectivity(comparison: BoundComparison, stats) -> float:
    """Classic textbook selectivities, with exact distincts when known."""
    column = None
    if isinstance(comparison.left, BoundColumn):
        column = comparison.left
    elif isinstance(comparison.right, BoundColumn):
        column = comparison.right
    if comparison.op == "=":
        if column is not None:
            return 1.0 / max(stats.distinct_of(column.column), 1)
        return 0.1
    if comparison.op == "<>":
        return 0.9
    return 1.0 / 3.0


def _key_equivalence_classes(
    joins: list[JoinPredicate],
) -> list[set[tuple[str, str]]]:
    """Union-find over join columns: each class is one join key."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x: tuple[str, str]) -> tuple[str, str]:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for predicate in joins:
        a = (predicate.left.binding, predicate.left.column)
        b = (predicate.right.binding, predicate.right.column)
        parent[find(a)] = find(b)

    classes: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for key in parent:
        classes.setdefault(find(key), set()).add(key)
    return list(classes.values())


def _team_keys(joins: list[JoinPredicate]) -> dict[str, BoundColumn]:
    """Binding → its key column, for a single-class join team."""
    keys: dict[str, BoundColumn] = {}
    for predicate in joins:
        keys.setdefault(predicate.left.binding, predicate.left)
        keys.setdefault(predicate.right.binding, predicate.right)
    return keys


def _output_layout(query: BoundQuery) -> ColumnLayout:
    """Layout of the final output columns.

    SQL allows duplicate output names (``SELECT r.v, s.v``); slots are
    keyed by position to stay unique — downstream operators (Sort,
    Limit) address output columns by position only.
    """
    return ColumnLayout(
        ColumnSlot(f"#{i}", output.name, output.dtype)
        for i, output in enumerate(query.select)
    )


def _projected_order(query: BoundQuery, rel: _Rel) -> tuple[int, ...]:
    """Propagate input order through an identity-ish projection."""
    if not rel.order:
        return ()
    order: list[int] = []
    for input_pos in rel.order:
        for i, output in enumerate(query.select):
            if (
                isinstance(output.expr, BoundColumn)
                and rel.layout.position(output.expr) == input_pos
            ):
                order.append(i)
                break
        else:
            break
    return tuple(order)


def _next_pow2(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power
