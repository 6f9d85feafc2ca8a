"""Vectorized, node-parallel query execution.

Executes the three plan shapes from :mod:`repro.vertica.planner`:

* **Scan** — each node filters and projects its segment on a thread pool;
  the initiator concatenates, orders, and limits.
* **Aggregate** — classic two-phase MPP aggregation: nodes compute partial
  states per group, the initiator merges and evaluates the final
  expressions (AVG becomes sum/count, etc.).
* **UDTF** — the fan-out engine behind ``ExportToDistributedR`` and the
  prediction functions: ``PARTITION NODES`` runs one instance per node on
  its local segment, ``PARTITION BEST`` splits each node's local data into
  planner-chosen chunks, and ``PARTITION BY`` hash-shuffles rows so equal
  keys land in one instance (charging cross-node traffic to telemetry).
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from repro.errors import ExecutionError, SqlAnalysisError
from repro.obs.trace import Span
from repro.vertica import expressions
from repro.vertica.models import R_MODELS_TABLE_NAME
from repro.vertica.pipeline import (
    BatchQueue,
    PipelineCancelled,
    batch_nbytes,
)
from repro.vertica.planner import (
    AggregatePlan,
    ScanPlan,
    UdtfPlan,
    instance_boundaries,
    plan_select,
)
from repro.vertica.segmentation import hash64
from repro.vertica.sql import ast
from repro.vertica.sql.analyzer import ClusterProvider, ResolvedQuery, check
from repro.vertica.txn.mutations import execute_delete, execute_update
from repro.vertica.udtf import UdtfContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.txn.epochs import Snapshot

__all__ = ["ResultSet", "QueryExecutor"]


class ResultSet:
    """Columnar query result with row-oriented accessors."""

    def __init__(self, column_names: list[str], columns: dict[str, np.ndarray]) -> None:
        self.column_names = list(column_names)
        self._columns = {
            name: np.atleast_1d(np.asarray(columns[name])) for name in column_names
        }
        lengths = {len(arr) for arr in self._columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged result columns: {lengths}")
        self._length = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ExecutionError(
                f"result has no column {name!r}; columns: {self.column_names}"
            ) from None

    def as_arrays(self) -> dict[str, np.ndarray]:
        return dict(self._columns)

    def rows(self) -> list[tuple]:
        """Materialize as a list of row tuples (column order preserved).

        Each column converts in one ``tolist()`` pass (numpy scalars become
        Python scalars wholesale) instead of a per-element Python loop, so
        materializing large results doesn't dominate benchmark harness time.
        """
        if not self.column_names:
            return []
        lists = [self._columns[name].tolist() for name in self.column_names]
        return list(zip(*lists))

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if self._length != 1 or len(self.column_names) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {self._length}x{len(self.column_names)}"
            )
        return self._columns[self.column_names[0]][0]


class QueryExecutor:
    """Executes parsed statements against a cluster."""

    def __init__(self, cluster: "VerticaCluster") -> None:
        self.cluster = cluster

    # -- statement dispatch ---------------------------------------------------

    def execute(self, stmt: ast.Statement, user: str = "dbadmin",
                resolved: ResolvedQuery | None = None) -> ResultSet:
        """Dispatch one parsed statement.

        ``resolved`` lets a prepared-statement cache (the serving layer's
        plan cache) supply a prior semantic analysis of the *same* statement
        text and skip the re-analysis; plain callers leave it ``None``.
        """
        if resolved is None:
            resolved = self._analyze(stmt)
        if isinstance(stmt, ast.Select):
            return self._execute_select(stmt, user, resolved)
        if isinstance(stmt, ast.CreateTable):
            return self._execute_create(stmt, resolved)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Delete):
            deleted = execute_delete(self.cluster, stmt)
            return ResultSet(["count"],
                             {"count": np.asarray([deleted], dtype=np.int64)})
        if isinstance(stmt, ast.Update):
            updated = execute_update(self.cluster, stmt)
            return ResultSet(["count"],
                             {"count": np.asarray([updated], dtype=np.int64)})
        if isinstance(stmt, ast.DropTable):
            self.cluster.catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
            return ResultSet(["status"], {"status": np.asarray(["DROP TABLE"], dtype=object)})
        if isinstance(stmt, ast.RefreshModel):
            from repro.deploy.refresh import refresh_model

            result = refresh_model(self.cluster, stmt.name, user=user)
            status = f"REFRESH MODEL ({result.strategy})"
            return ResultSet(["status"], {"status": np.asarray([status], dtype=object)})
        if isinstance(stmt, ast.CreateSample):
            from repro.aqp import build_sample

            record = build_sample(
                self.cluster, stmt.name, stmt.table, stmt.rate,
                strata_column=stmt.strata_column, seed=stmt.seed, user=user)
            status = f"CREATE SAMPLE ({record.sample_rows} rows)"
            return ResultSet(["status"], {"status": np.asarray([status], dtype=object)})
        if isinstance(stmt, ast.DropSample):
            from repro.aqp import drop_sample

            if not (stmt.if_exists and not self.cluster.aqp.exists(stmt.name)):
                drop_sample(self.cluster, stmt.name, user=user)
            return ResultSet(["status"], {"status": np.asarray(["DROP SAMPLE"], dtype=object)})
        if isinstance(stmt, ast.ShowSamples):
            return self._execute_show_samples()
        if isinstance(stmt, ast.Explain):
            return self._execute_explain(stmt.query)
        if isinstance(stmt, ast.Profile):
            return self._execute_profile(stmt.query, user, resolved)
        raise ExecutionError(f"unsupported statement type {type(stmt).__name__}")

    def analyze(self, stmt: ast.Statement) -> ResolvedQuery:
        """Public semantic-analysis entry point (prepared statements)."""
        return self._analyze(stmt)

    def _analyze(self, stmt: ast.Statement) -> ResolvedQuery:
        """Static semantic analysis: reject malformed statements before any
        snapshot resolves or scan starts (raises a typed ``SemanticError``
        carrying ``SAxxx`` diagnostics with source offsets)."""
        query = stmt.query if isinstance(stmt, (ast.Explain, ast.Profile)) else stmt
        if isinstance(query, ast.Select) and query.udtf is not None \
                and not self.cluster.catalog.has_udtf(query.udtf.name):
            # Built-in transfer/prediction functions install on first use,
            # so the analyzer binds against the same registry the UDTF
            # executor would see.
            self.cluster.install_standard_functions()
        return check(stmt, ClusterProvider(self.cluster))

    def _execute_profile(self, stmt: ast.Select, user: str,
                         resolved: ResolvedQuery | None = None) -> ResultSet:
        """Execute the query, return its operator span tree instead of rows.

        Vertica's PROFILE analogue: per-operator wall time, rows, bytes,
        and any peak-inflight watermarks, rendered as one indented text row
        per span.  The ``rows``/``bytes`` columns are subtree totals, so
        the root row reconciles with the ``rows_scanned``/``bytes_scanned``
        counter deltas for the same query.
        """
        with self.cluster.tracer.span("query") as span:
            result = self._execute_select(stmt, user, resolved)
            span.set(result_rows=len(result))
        return _render_profile(span)

    def _execute_explain(self, stmt: ast.Select) -> ResultSet:
        """Describe the physical plan as one text row per plan step."""
        stmt = self._resolve_aliases(stmt)
        lines: list[str] = []

        def scan_line(table_name: str) -> str:
            if table_name.lower() == "r_models":
                return "SCAN catalog table R_Models"
            table = self.cluster.catalog.get_table(table_name)
            counts = table.segment_row_counts()
            return (f"SCAN {table.name} [{table.row_count} rows, "
                    f"{table.node_count} segments {counts}, "
                    f"{table.segmentation.describe()}]")

        if stmt.join is not None:
            left_alias = stmt.table_alias or stmt.table
            right_alias = stmt.join.alias or stmt.join.table
            lines.append(scan_line(stmt.table) + f" AS {left_alias}")
            lines.append(scan_line(stmt.join.table) + f" AS {right_alias}")
            lines.append(
                f"HASH {stmt.join.kind.upper()} JOIN ON {stmt.join.condition}"
            )
        elif stmt.table is not None:
            lines.append(scan_line(stmt.table))
        if stmt.where is not None:
            lines.append(f"FILTER {stmt.where}")
        if stmt.udtf is not None:
            fanout = {
                ast.PartitionKind.BEST: "planner-chosen instances per node",
                ast.PartitionKind.NODES: "one instance per node",
                ast.PartitionKind.BY_COLUMN: "hash-partitioned by key",
            }[stmt.udtf.partition.kind]
            lines.append(f"UDTF {stmt.udtf.name} [{fanout}]")
        elif stmt.group_by or _has_aggregates(stmt):
            keys = ", ".join(map(str, stmt.group_by)) or "<global>"
            lines.append(f"AGGREGATE partial per node, merge on initiator "
                         f"[group by {keys}]")
        if not stmt.udtf:
            projections = ("*" if stmt.select_star
                           else ", ".join(i.output_name for i in stmt.items))
            lines.append(f"PROJECT {projections}")
        if stmt.order_by:
            keys = ", ".join(
                f"{o.expr} {'ASC' if o.ascending else 'DESC'}"
                for o in stmt.order_by)
            lines.append(f"SORT {keys}")
        if stmt.limit is not None:
            lines.append(f"LIMIT {stmt.limit}")
        return ResultSet(["plan"], {"plan": np.asarray(lines, dtype=object)})

    def _execute_create(self, stmt: ast.CreateTable,
                        resolved: ResolvedQuery | None = None) -> ResultSet:
        from repro.storage.encoding import ColumnSchema, SqlType
        from repro.vertica.segmentation import HashSegmentation, RoundRobinSegmentation, Unsegmented

        # The analyzer already resolved the column types (SA210 rejected
        # unknown names); reuse them instead of re-parsing the type strings.
        if resolved is not None and resolved.create_types is not None:
            types = resolved.create_types
        else:
            types = [SqlType.from_sql_name(col.type_name) for col in stmt.columns]
        schema = [
            ColumnSchema(col.name, sql_type)
            for col, sql_type in zip(stmt.columns, types)
        ]
        if stmt.segmentation is None:
            segmentation = RoundRobinSegmentation()
        elif stmt.segmentation.kind == "hash":
            segmentation = HashSegmentation(stmt.segmentation.column)
        else:
            segmentation = Unsegmented()
        self.cluster.create_table(stmt.name, schema, segmentation=segmentation)
        return ResultSet(["status"], {"status": np.asarray(["CREATE TABLE"], dtype=object)})

    def _execute_insert(self, stmt: ast.Insert) -> ResultSet:
        table = self.cluster.catalog.get_table(stmt.table)
        inserted = table.insert_rows(stmt.rows)
        # Trickle inserts land in the WOS; hint the Tuple Mover so moveout
        # flushes them once the size/age thresholds trip.
        self.cluster.tuple_mover.notify()
        return ResultSet(["count"], {"count": np.asarray([inserted], dtype=np.int64)})

    def _execute_show_samples(self) -> ResultSet:
        """``SHOW SAMPLES``: one provenance row per registered sample."""
        records = self.cluster.aqp.records()
        columns = {
            "sample": np.asarray([r.name for r in records], dtype=object),
            "base_table": np.asarray(
                [r.base_table for r in records], dtype=object),
            "kind": np.asarray([r.kind for r in records], dtype=object),
            "rate": np.asarray([r.rate for r in records], dtype=np.float64),
            "strata_column": np.asarray(
                [r.strata_column or "" for r in records], dtype=object),
            "commit_epoch": np.asarray(
                [r.commit_epoch for r in records], dtype=np.int64),
            "base_rows": np.asarray(
                [r.base_rows for r in records], dtype=np.int64),
            "sample_rows": np.asarray(
                [r.sample_rows for r in records], dtype=np.int64),
            "owner": np.asarray([r.owner for r in records], dtype=object),
        }
        return ResultSet(list(columns), columns)

    # -- SELECT ---------------------------------------------------------------

    def _execute_select(self, stmt: ast.Select, user: str,
                        resolved: ResolvedQuery | None = None) -> ResultSet:
        stmt = self._resolve_aliases(stmt)
        # One snapshot per statement, resolved before any scan starts:
        # every node scan (eager or streaming) reads the same epoch.
        snapshot = self._statement_snapshot(stmt)
        if stmt.within_error is not None:
            return self._execute_within(stmt, user, snapshot, resolved)
        tracer = self.cluster.tracer
        if stmt.join is not None:
            with tracer.span("join", table=stmt.table or ""):
                return self._execute_join_select(stmt, snapshot)
        plan = plan_select(stmt, resolved=resolved)
        if isinstance(plan, UdtfPlan):
            with tracer.span("udtf", function=plan.udtf.name,
                             table=plan.table or "") as span:
                result = self._execute_udtf(plan, user, snapshot)
                span.set(result_rows=len(result))
                return result
        if isinstance(plan, AggregatePlan):
            with tracer.span("aggregate", table=plan.table or ""):
                return self._execute_aggregate(plan, snapshot=snapshot)
        with tracer.span("scan", table=plan.table or ""):
            return self._execute_scan(plan, snapshot=snapshot)

    def _execute_within(self, stmt: ast.Select, user: str,
                        snapshot: "Snapshot | None",
                        resolved: ResolvedQuery | None = None) -> ResultSet:
        """``WITHIN n% ERROR``: answer from a sample or fall back to exact.

        Both paths return the same four-column shape so callers (and the
        serving result cache) see one stable schema; the exact fallback is
        a degenerate CI of zero width with ``sample_fraction`` 1.0.
        """
        from repro.aqp import answer_within
        from repro.aqp.rewrite import RESULT_COLUMNS

        answer = answer_within(self.cluster, stmt, user, snapshot=snapshot)
        if answer is not None:
            return ResultSet(list(RESULT_COLUMNS), {
                "estimate": np.asarray([answer.estimate], dtype=np.float64),
                "ci_low": np.asarray([answer.ci_low], dtype=np.float64),
                "ci_high": np.asarray([answer.ci_high], dtype=np.float64),
                "sample_fraction": np.asarray(
                    [answer.sample_fraction], dtype=np.float64),
            })
        exact = dataclasses.replace(stmt, within_error=None, confidence=None)
        value = self._execute_select(exact, user, resolved).scalar()
        point = float(value) if value is not None else float("nan")
        arr = np.asarray([point], dtype=np.float64)
        return ResultSet(list(RESULT_COLUMNS), {
            "estimate": arr,
            "ci_low": arr.copy(),
            "ci_high": arr.copy(),
            "sample_fraction": np.asarray([1.0], dtype=np.float64),
        })

    def _statement_snapshot(self, stmt: ast.Select) -> "Snapshot | None":
        """Resolve the statement's read snapshot (``AT EPOCH`` or latest)."""
        if stmt.table is None or stmt.table.lower() == R_MODELS_TABLE_NAME:
            if stmt.at_epoch is not None:
                raise SqlAnalysisError(
                    "AT EPOCH requires a FROM over a regular table")
            return None
        table = self.cluster.catalog.get_table(stmt.table)
        return table.resolve_snapshot(stmt.at_epoch)

    def _execute_join_select(self, stmt: ast.Select,
                             snapshot: "Snapshot | None" = None) -> ResultSet:
        """Joined SELECT: materialize the hash join, then run the normal
        scan/aggregate pipeline over the single joined batch."""
        from repro.vertica.joins import materialize_join

        if stmt.udtf is not None:
            raise SqlAnalysisError("UDTF calls over joins are not supported")
        batch, star_columns = materialize_join(self.cluster, stmt,
                                               snapshot=snapshot)
        if stmt.where is not None:
            mask = np.atleast_1d(
                np.asarray(expressions.evaluate(stmt.where, batch), dtype=bool))
            batch = {key: arr[mask] for key, arr in batch.items()}
            stmt.where = None
        plan = plan_select(stmt)
        if isinstance(plan, AggregatePlan):
            return self._execute_aggregate(plan, batches=[batch])
        return self._execute_scan(plan, batches=[batch], star_columns=star_columns)

    def _resolve_aliases(self, stmt: ast.Select) -> ast.Select:
        """Let GROUP BY / HAVING / ORDER BY reference select-list aliases.

        A real table column of the same name wins over an alias, matching
        standard SQL resolution.
        """
        alias_map = {
            item.alias: item.expr for item in stmt.items if item.alias is not None
        }
        if not alias_map or stmt.table is None:
            return stmt
        table_columns = set(self.cluster.table_columns(stmt.table))
        if stmt.join is not None:
            table_columns |= set(self.cluster.table_columns(stmt.join.table))

        def substitute(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.ColumnRef):
                if (expr.qualifier is None and expr.name in alias_map
                        and expr.name not in table_columns):
                    return alias_map[expr.name]
                return expr
            if isinstance(expr, ast.BinaryOp):
                return ast.BinaryOp(expr.op, substitute(expr.left), substitute(expr.right))
            if isinstance(expr, ast.UnaryOp):
                return ast.UnaryOp(expr.op, substitute(expr.operand))
            if isinstance(expr, ast.FunctionCall):
                return ast.FunctionCall(expr.name, tuple(substitute(a) for a in expr.args))
            if isinstance(expr, ast.AggregateCall):
                arg = None if expr.arg is None else substitute(expr.arg)
                return ast.AggregateCall(expr.name, arg, expr.distinct)
            return expr

        stmt.group_by = [substitute(e) for e in stmt.group_by]
        if stmt.having is not None:
            stmt.having = substitute(stmt.having)
        stmt.order_by = [
            ast.OrderItem(substitute(o.expr), o.ascending) for o in stmt.order_by
        ]
        return stmt

    def _streaming(self, table_name: str | None) -> bool:
        """Whether the streaming pipeline handles this table's scan."""
        return (self.cluster.pipeline.streaming and table_name is not None)

    def _scan_ranges(self, where: ast.Expr | None):
        from repro.vertica.pruning import extract_column_ranges

        return extract_column_ranges(where) or None

    def _table_batches(
        self, table_name: str, columns_needed: set[str], where: ast.Expr | None,
        snapshot: "Snapshot | None" = None,
    ) -> list[dict[str, np.ndarray]]:
        """Scan per-node batches in parallel, applying the WHERE filter.

        Range constraints extracted from the WHERE clause push down to the
        scan as zone-map envelopes, so row groups the predicate excludes are
        never decompressed; the exact filter still runs afterwards.  This is
        the eager (materialize-per-node) source; the streaming pipeline
        pulls from :meth:`VerticaCluster.stream_table_per_node` instead.
        """
        batches = self.cluster.scan_table_per_node(
            table_name, columns_needed, ranges=self._scan_ranges(where),
            snapshot=snapshot)
        if where is None:
            return batches
        return [_apply_where(where, batch) for batch in batches]

    def _node_sources(self, plan, columns_needed: set[str],
                      snapshot: "Snapshot | None" = None) -> list:
        """Per-node streaming batch sources honoring zone-map pushdown."""
        return self.cluster.stream_table_per_node(
            plan.table, columns_needed, ranges=self._scan_ranges(plan.where),
            snapshot=snapshot)

    def _execute_scan(self, plan: ScanPlan,
                      batches: list[dict[str, np.ndarray]] | None = None,
                      star_columns: list[str] | None = None,
                      snapshot: "Snapshot | None" = None) -> ResultSet:
        if plan.select_star:
            table_columns = star_columns or self.cluster.table_columns(plan.table)
            items = [ast.SelectItem(ast.ColumnRef(name)) for name in table_columns]
            needed = set(table_columns) | plan.columns_needed
        else:
            items = plan.items
            needed = set(plan.columns_needed)
        names = [item.output_name for item in items]
        if batches is None and self._streaming(plan.table):
            return self._execute_scan_streaming(plan, items, names, needed,
                                                snapshot)
        if batches is None:
            batches = self._table_batches(plan.table, needed, plan.where,
                                          snapshot)
        outputs: dict[str, list[np.ndarray]] = {name: [] for name in names}
        order_values: list[list[np.ndarray]] = [[] for _ in plan.order_by]
        for batch in batches:
            projected, order_vals = _project_batch(items, names, plan.order_by, batch)
            for name in names:
                outputs[name].append(projected[name])
            for i, value in enumerate(order_vals):
                order_values[i].append(value)
        return self._finish_scan(plan, items, names, needed, outputs, order_values)

    def _execute_scan_streaming(self, plan: ScanPlan, items, names: list[str],
                                needed: set[str],
                                snapshot: "Snapshot | None" = None) -> ResultSet:
        """Pull rowgroup-granular batches per node, filter and project each
        batch as it streams past, and keep only the projection (plus a
        bounded top-k window under ``ORDER BY ... LIMIT``) in memory."""
        sources = self._node_sources(plan, needed, snapshot)
        ascending = [o.ascending for o in plan.order_by]
        use_topk = bool(plan.order_by) and plan.limit is not None \
            and not plan.distinct
        early_limit = (plan.limit if plan.limit is not None
                       and not plan.order_by and not plan.distinct else None)
        tracer = self.cluster.tracer
        # Pool threads don't inherit the ambient span; capture it here and
        # attach each node's span explicitly.
        parent = tracer.current()

        def scan_node(node: int) -> tuple[dict[str, list], list[list]]:
            out_chunks: dict[str, list[np.ndarray]] = {name: [] for name in names}
            order_chunks: list[list[np.ndarray]] = [[] for _ in plan.order_by]
            topk = _TopK(names, plan.limit, ascending) if use_topk else None
            produced = 0
            with tracer.span("scan.node", parent=parent, node=node):
                stream = sources[node]()
                try:
                    for batch in stream:
                        batch = _apply_where(plan.where, batch)
                        projected, order_vals = _project_batch(
                            items, names, plan.order_by, batch)
                        if topk is not None:
                            topk.add(projected, order_vals)
                            continue
                        for name in names:
                            out_chunks[name].append(projected[name])
                        for i, value in enumerate(order_vals):
                            order_chunks[i].append(value)
                        produced += _batch_rows(projected)
                        if early_limit is not None and produced >= early_limit:
                            break  # LIMIT without ORDER BY: stop pulling early
                finally:
                    close = getattr(stream, "close", None)
                    if close is not None:
                        close()
            if topk is not None:
                return topk.finish()
            return out_chunks, order_chunks

        max_workers = max(1, min(len(sources), self.cluster.executor_threads))
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            per_node = list(pool.map(scan_node, range(len(sources))))

        outputs: dict[str, list[np.ndarray]] = {name: [] for name in names}
        order_values: list[list[np.ndarray]] = [[] for _ in plan.order_by]
        for out_chunks, order_chunks in per_node:  # merge in node order
            for name in names:
                outputs[name].extend(out_chunks[name])
            for i, chunks in enumerate(order_chunks):
                order_values[i].extend(chunks)
        return self._finish_scan(plan, items, names, needed, outputs, order_values)

    def _finish_scan(self, plan: ScanPlan, items, names: list[str],
                     needed: set[str],
                     outputs: dict[str, list[np.ndarray]],
                     order_values: list[list[np.ndarray]]) -> ResultSet:
        """Initiator tail shared by both modes: distinct, sort, limit."""
        if not any(outputs.values()):
            # No batches survived pruning/filtering: derive empty columns
            # from the table schema / expression types instead of collapsing
            # every output to float64.
            return ResultSet(names, self._typed_empty_outputs(plan, items, needed))
        columns = {name: np.concatenate(chunks) for name, chunks in outputs.items()}
        if plan.distinct:
            keep = _distinct_indices([columns[name] for name in names])
            columns = {name: arr[keep] for name, arr in columns.items()}
            for i in range(len(order_values)):
                order_values[i] = [np.concatenate(order_values[i])[keep]] \
                    if order_values[i] else order_values[i]
        if plan.order_by:
            keys = [np.concatenate(vals) for vals in order_values]
            index = _sort_index(keys, [o.ascending for o in plan.order_by])
            columns = {name: arr[index] for name, arr in columns.items()}
        if plan.limit is not None:
            columns = {name: arr[: plan.limit] for name, arr in columns.items()}
        return ResultSet(names, columns)

    def _typed_empty_outputs(self, plan: ScanPlan, items,
                             needed: set[str]) -> dict[str, np.ndarray]:
        """Zero-row projections with dtypes inferred from the table schema
        by evaluating each select expression over a schema-typed empty
        batch (mirroring what :meth:`_execute_udtf` does via the declared
        UDTF output schema)."""
        base = self.cluster.typed_empty_batch(plan.table, needed)
        out: dict[str, np.ndarray] = {}
        for item in items:
            value = np.atleast_1d(
                np.asarray(expressions.evaluate(item.expr, base)))
            out[item.output_name] = value[:0]
        return out

    # -- aggregation ------------------------------------------------------------

    def _execute_aggregate(self, plan: AggregatePlan,
                           batches: list[dict[str, np.ndarray]] | None = None,
                           snapshot: "Snapshot | None" = None,
                           ) -> ResultSet:
        if batches is None and self._streaming(plan.table):
            state = self._aggregate_streaming(plan, snapshot)
        else:
            if batches is None:
                batches = self._table_batches(plan.table, plan.columns_needed,
                                              plan.where, snapshot)
            state = _AggregateState(plan)
            for batch in batches:
                state.add(batch)
        return self._finalize_aggregate(plan, state)

    def _aggregate_streaming(self, plan: AggregatePlan,
                             snapshot: "Snapshot | None" = None
                             ) -> "_AggregateState":
        """Fold each node's batches into columnar partial state as they
        stream past; only O(groups) state is held per node, never the
        node's segment."""
        sources = self._node_sources(plan, plan.columns_needed, snapshot)
        tracer = self.cluster.tracer
        parent = tracer.current()

        def fold_node(node: int) -> _AggregateState:
            local = _AggregateState(plan)
            with tracer.span("aggregate.node", parent=parent, node=node):
                stream = sources[node]()
                try:
                    for batch in stream:
                        local.add(_apply_where(plan.where, batch))
                finally:
                    close = getattr(stream, "close", None)
                    if close is not None:
                        close()
            return local

        max_workers = max(1, min(len(sources), self.cluster.executor_threads))
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            per_node = list(pool.map(fold_node, range(len(sources))))
        merged = _AggregateState(plan)
        for local in per_node:  # merge in node index order
            merged.absorb(local)
        return merged

    def _finalize_aggregate(self, plan: AggregatePlan,
                            state: "_AggregateState") -> ResultSet:
        """Initiator tail shared by both modes: finalize states, project,
        HAVING, order, limit."""
        env, rows = state.finalize()
        rewritten_items = [
            ast.SelectItem(_rewrite(item.expr, plan), item.output_name)
            for item in plan.items
        ]
        names = [item.output_name for item in plan.items]
        columns = {}
        for item, name in zip(rewritten_items, names):
            value = np.asarray(expressions.evaluate(item.expr, env))
            columns[name] = _broadcast_rows(value, rows)

        if plan.having is not None:
            mask = np.atleast_1d(np.asarray(
                expressions.evaluate(_rewrite(plan.having, plan), env), dtype=bool
            ))
            mask = _broadcast_rows(mask, rows).astype(bool)
            columns = {name: arr[mask] for name, arr in columns.items()}
            env = {name: arr[mask] for name, arr in env.items()}
            rows = int(mask.sum())

        if plan.order_by:
            keys = []
            for order in plan.order_by:
                value = np.asarray(
                    expressions.evaluate(_rewrite(order.expr, plan), env)
                )
                keys.append(_broadcast_rows(value, rows))
            index = _sort_index(keys, [o.ascending for o in plan.order_by])
            columns = {name: arr[index] for name, arr in columns.items()}
        if plan.limit is not None:
            columns = {name: arr[: plan.limit] for name, arr in columns.items()}
        return ResultSet(names, columns)

    # -- UDTF fan-out -----------------------------------------------------------

    def _execute_udtf(self, plan: UdtfPlan, user: str,
                      snapshot: "Snapshot | None" = None) -> ResultSet:
        # Built-in transfer/prediction functions install on first use.
        if not self.cluster.catalog.has_udtf(plan.udtf.name):
            self.cluster.install_standard_functions()
        udtf = self.cluster.catalog.get_udtf(plan.udtf.name)
        node_count = self.cluster.node_count
        if (self._streaming(plan.table)
                and plan.table.lower() != R_MODELS_TABLE_NAME):
            # R_Models is a tiny virtual catalog table with no per-node
            # segments to fan out over; it stays on the materialized path.
            return self._execute_udtf_streaming(plan, udtf, user, snapshot)
        batches = self._table_batches(plan.table, plan.columns_needed,
                                      plan.where, snapshot)
        arg_batches = [
            self._bind_args(plan.udtf.args, batch) for batch in batches
        ]

        kind = plan.udtf.partition.kind
        if kind is ast.PartitionKind.NODES:
            assignments = [(node, args) for node, args in enumerate(arg_batches)]
        elif kind is ast.PartitionKind.BEST:
            assignments = []
            for node, args in enumerate(arg_batches):
                rowgroups = self.cluster.node_rowgroup_count(plan.table, node)
                instances = self.cluster.nodes[node].best_udtf_parallelism(rowgroups)
                assignments.extend(
                    (node, chunk) for chunk in _split_args(args, instances)
                )
        else:  # PARTITION BY expr: hash-shuffle keys across the cluster
            assignments = self._shuffle_by_key(plan, batches, arg_batches, node_count)

        self.cluster.telemetry.add("udtf_instances", len(assignments))
        results: list[dict[str, np.ndarray] | None] = [None] * len(assignments)
        tracer = self.cluster.tracer
        parent = tracer.current()

        def run_instance(index: int) -> None:
            node, args = assignments[index]
            ctx = UdtfContext(
                cluster=self.cluster,
                node_index=node,
                instance_index=index,
                instance_count=len(assignments),
                session_user=user,
            )
            with tracer.span("udtf.instance", parent=parent, node=node,
                             instance=index) as span:
                if self.cluster.faults is not None:
                    self.cluster.faults.perturb("udtf.instance", node=node,
                                                instance=index)
                output = udtf.process(ctx, args, dict(plan.udtf.parameters))
                udtf.validate_output(output)
                span.set(rows_in=_batch_rows(args),
                         rows_out=_batch_rows(output))
            results[index] = output

        max_workers = max(1, min(len(assignments), self.cluster.executor_threads))
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(run_instance, range(len(assignments))))

        return self._collect_udtf_outputs(udtf, plan, results)

    def _execute_udtf_streaming(self, plan: UdtfPlan, udtf, user: str,
                                snapshot: "Snapshot | None" = None) -> ResultSet:
        """Backpressured UDTF fan-out for ``PARTITION NODES`` / ``BEST``.

        One producer thread per node streams rowgroup-granular batches into
        bounded per-instance :class:`BatchQueue`\\ s; each instance consumes
        its queue through :meth:`TransformFunction.process_stream`.  The
        queue depth bounds batches in flight, so a slow instance throttles
        the scan instead of the scan buffering the whole segment.

        Deadlock-freedom with fewer pool workers than instances: producers
        write (and close) queues in instance order, and the FIFO pool always
        has the earliest unfinished instance scheduled, so the queue a
        producer blocks on is always being drained.
        """
        kind = plan.udtf.partition.kind
        if kind is ast.PartitionKind.BY_COLUMN:
            return self._udtf_streaming_by_key(plan, udtf, user, snapshot)

        cluster = self.cluster
        config = cluster.pipeline
        sources = self._node_sources(plan, plan.columns_needed, snapshot)
        # Boundary math must count the rows the streams will actually
        # yield, so the counts resolve at the same snapshot as the scan.
        segment_rows = cluster.catalog.get_table(
            plan.table).segment_row_counts(snapshot)
        abort = threading.Event()

        # Node-major instance layout.  Boundaries cut each node's pre-filter
        # row positions (see planner.instance_boundaries): identical to the
        # eager splitter whenever no WHERE clause drops rows upstream.
        node_plans: list[tuple[int, list[int], list[BatchQueue]]] = []
        slots: list[tuple[int, BatchQueue]] = []
        for node in range(len(sources)):
            if kind is ast.PartitionKind.NODES:
                boundaries = [0, segment_rows[node]]
            else:  # PARTITION BEST
                rowgroups = cluster.node_rowgroup_count(plan.table, node)
                nominal = cluster.nodes[node].best_udtf_parallelism(rowgroups)
                boundaries = instance_boundaries(segment_rows[node], nominal)
            queues = [BatchQueue(config.queue_depth, cluster.telemetry, abort,
                                 stall_timeout=config.stall_timeout_seconds)
                      for _ in range(len(boundaries) - 1)]
            node_plans.append((node, boundaries, queues))
            slots.extend((node, queue) for queue in queues)

        cluster.telemetry.add("udtf_instances", len(slots))
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        tracer = cluster.tracer
        parent = tracer.current()

        def record_error(exc: BaseException) -> None:
            with errors_lock:
                errors.append(exc)
            abort.set()

        def produce(node: int, boundaries: list[int],
                    queues: list[BatchQueue]) -> None:
            with tracer.span("udtf.producer", parent=parent, node=node):
                _produce(node, boundaries, queues)

        def _produce(node: int, boundaries: list[int],
                     queues: list[BatchQueue]) -> None:
            cursor = 0    # first queue not yet closed
            position = 0  # row offset within this node's (pruned) stream
            stream = sources[node]()
            try:
                for batch in stream:
                    rows = _batch_rows(batch)
                    start, end = position, position + rows
                    while cursor < len(queues) and boundaries[cursor + 1] <= start:
                        queues[cursor].close()
                        cursor += 1
                    for i in range(cursor, len(queues)):
                        if boundaries[i] >= end:
                            break
                        lo = max(boundaries[i], start)
                        hi = min(boundaries[i + 1], end)
                        if lo >= hi:
                            continue
                        piece = {name: arr[lo - start:hi - start]
                                 for name, arr in batch.items()}
                        piece = _apply_where(plan.where, piece)
                        if _batch_rows(piece):
                            queues[i].put(self._bind_args(plan.udtf.args, piece))
                    position = end
            except PipelineCancelled:
                pass
            except BaseException as exc:  # reprolint: ignore[exception-hygiene] -- recorded, re-raised after teardown
                record_error(exc)
                for queue in queues[cursor:]:
                    queue.fail(exc)
                return
            finally:
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
            for queue in queues[cursor:]:
                queue.close()

        results: list[dict[str, np.ndarray] | None] = [None] * len(slots)

        def run_instance(index: int) -> None:
            node, queue = slots[index]
            ctx = UdtfContext(
                cluster=cluster,
                node_index=node,
                instance_index=index,
                instance_count=len(slots),
                session_user=user,
            )
            params = dict(plan.udtf.parameters)
            try:
                with tracer.span("udtf.instance", parent=parent, node=node,
                                 instance=index) as span:
                    if cluster.faults is not None:
                        cluster.faults.perturb("udtf.instance", node=node,
                                               instance=index)
                    stream = iter(queue)
                    try:
                        first = next(stream)
                    except StopIteration:
                        # Zero surviving batches: run the instance over typed
                        # empty args, exactly like the eager splitter hands an
                        # empty chunk to process().
                        empty = self._bind_args(
                            plan.udtf.args,
                            cluster.typed_empty_batch(plan.table,
                                                      plan.columns_needed))
                        output = udtf.process(ctx, empty, params)
                    else:
                        output = udtf.process_stream(
                            ctx, _chain_one(first, stream), params)
                        for _ in stream:  # drain anything the UDTF didn't pull
                            pass
                    udtf.validate_output(output)
                    span.set(rows_in=queue.total_rows,
                             bytes_in=queue.total_bytes,
                             rows_out=_batch_rows(output),
                             backpressure_s=queue.blocked_seconds)
                    results[index] = output
            except PipelineCancelled:
                pass
            except BaseException as exc:  # reprolint: ignore[exception-hygiene] -- recorded, re-raised after teardown
                record_error(exc)

        producers = [
            threading.Thread(target=produce, args=entry)
            for entry in node_plans
        ]
        for thread in producers:
            thread.start()
        max_workers = max(1, min(len(slots), cluster.executor_threads))
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(run_instance, range(len(slots))))
        for thread in producers:
            thread.join()
        if errors:
            raise errors[0]
        return self._collect_udtf_outputs(udtf, plan, results)

    def _udtf_streaming_by_key(self, plan: UdtfPlan, udtf, user: str,
                               snapshot: "Snapshot | None" = None) -> ResultSet:
        """``PARTITION BY`` streaming: hash-route rows batch by batch.

        Producers route each filtered batch's rows to per-``(instance,
        node)`` queues; each instance consumes its node queues in node index
        order, reproducing the eager bucket concatenation order.  Every
        consumer must be schedulable at once (producers interleave writes
        across all instances' queues), hence ``max_workers = instances``.
        """
        cluster = self.cluster
        config = cluster.pipeline
        telemetry = cluster.telemetry
        node_count = cluster.node_count
        sources = self._node_sources(plan, plan.columns_needed, snapshot)
        abort = threading.Event()
        queues = {
            (instance, node): BatchQueue(config.queue_depth, telemetry, abort,
                                         stall_timeout=config.stall_timeout_seconds)
            for instance in range(node_count)
            for node in range(len(sources))
        }
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        tracer = cluster.tracer
        parent = tracer.current()

        def record_error(exc: BaseException) -> None:
            with errors_lock:
                errors.append(exc)
            abort.set()

        def produce(node: int) -> None:
            with tracer.span("udtf.producer", parent=parent, node=node):
                _produce(node)

        def _produce(node: int) -> None:
            own = [queues[(instance, node)] for instance in range(node_count)]
            stream = sources[node]()
            try:
                for batch in stream:
                    batch = _apply_where(plan.where, batch)
                    rows = _batch_rows(batch)
                    if not rows:
                        continue
                    args = self._bind_args(plan.udtf.args, batch)
                    keys = _broadcast_rows(
                        np.asarray(expressions.evaluate(
                            plan.udtf.partition.expr, batch)), rows)
                    destination = (hash64(keys)
                                   % np.uint64(node_count)).astype(np.int64)
                    for instance in range(node_count):
                        mask = destination == instance
                        if not mask.any():
                            continue
                        chunk = {name: arr[mask] for name, arr in args.items()}
                        if instance != node:
                            telemetry.add("shuffle_bytes", batch_nbytes(chunk))
                        own[instance].put(chunk)
            except PipelineCancelled:
                pass
            except BaseException as exc:  # reprolint: ignore[exception-hygiene] -- recorded, re-raised after teardown
                record_error(exc)
                for queue in own:
                    queue.fail(exc)
                return
            finally:
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
            for queue in own:
                queue.close()

        results: list[dict[str, np.ndarray] | None] = [None] * node_count
        live = [False] * node_count

        def run_instance(instance: int) -> None:
            ctx = UdtfContext(
                cluster=cluster,
                node_index=instance % node_count,
                instance_index=instance,
                instance_count=node_count,
                session_user=user,
            )
            params = dict(plan.udtf.parameters)
            node_queues = [queues[(instance, node)]
                           for node in range(len(sources))]

            def batches() -> Iterator[dict[str, np.ndarray]]:
                for queue in node_queues:
                    yield from queue

            try:
                with tracer.span("udtf.instance", parent=parent,
                                 instance=instance) as span:
                    stream = batches()
                    try:
                        first = next(stream)
                    except StopIteration:
                        return  # empty bucket: the eager path skips it too
                    live[instance] = True
                    output = udtf.process_stream(
                        ctx, _chain_one(first, stream), params)
                    for _ in stream:  # drain anything the UDTF didn't pull
                        pass
                    udtf.validate_output(output)
                    span.set(
                        rows_in=sum(q.total_rows for q in node_queues),
                        bytes_in=sum(q.total_bytes for q in node_queues),
                        rows_out=_batch_rows(output))
                    results[instance] = output
            except PipelineCancelled:
                pass
            except BaseException as exc:  # reprolint: ignore[exception-hygiene] -- recorded, re-raised after teardown
                record_error(exc)

        producers = [
            threading.Thread(target=produce, args=(node,))
            for node in range(len(sources))
        ]
        for thread in producers:
            thread.start()
        with ThreadPoolExecutor(max_workers=node_count) as pool:
            list(pool.map(run_instance, range(node_count)))
        for thread in producers:
            thread.join()
        telemetry.add("udtf_instances", sum(live))
        if errors:
            raise errors[0]
        return self._collect_udtf_outputs(udtf, plan, results)

    def _collect_udtf_outputs(
        self, udtf, plan: UdtfPlan,
        results: list[dict[str, np.ndarray] | None],
    ) -> ResultSet:
        """Concatenate instance outputs in instance-index order."""
        outputs = [r for r in results if r]
        if not outputs:
            declared = udtf.output_schema(dict(plan.udtf.parameters))
            if declared:
                return ResultSet(
                    [c.name for c in declared],
                    {c.name: np.empty(0, dtype=c.numpy_dtype) for c in declared},
                )
            return ResultSet([], {})
        names = list(outputs[0].keys())
        columns = {
            name: np.concatenate([np.atleast_1d(np.asarray(o[name])) for o in outputs])
            for name in names
        }
        return ResultSet(names, columns)

    def _bind_args(
        self, args: tuple[ast.Expr, ...], batch: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        rows = _batch_rows(batch)
        bound: dict[str, np.ndarray] = {}
        for position, arg in enumerate(args):
            if isinstance(arg, ast.ColumnRef):
                name = arg.name
            else:
                name = f"arg{position}"
            if name in bound:
                name = f"arg{position}"
            value = np.asarray(expressions.evaluate(arg, batch))
            bound[name] = _broadcast_rows(value, rows)
        return bound

    def _shuffle_by_key(self, plan, batches, arg_batches, node_count):
        """PARTITION BY: route each key's rows to one owning instance."""
        total_instances = node_count
        buckets: list[list[dict[str, np.ndarray]]] = [[] for _ in range(total_instances)]
        for node, (batch, args) in enumerate(zip(batches, arg_batches)):
            rows = _batch_rows(batch)
            keys = _broadcast_rows(
                np.asarray(expressions.evaluate(plan.udtf.partition.expr, batch)), rows
            )
            destination = (hash64(keys) % np.uint64(total_instances)).astype(np.int64)
            for instance in range(total_instances):
                mask = destination == instance
                if not mask.any():
                    continue
                chunk = {name: arr[mask] for name, arr in args.items()}
                if instance != node:
                    moved = sum(arr.nbytes if hasattr(arr, "nbytes") else 0
                                for arr in chunk.values())
                    self.cluster.telemetry.add("shuffle_bytes", moved)
                buckets[instance].append(chunk)
        assignments = []
        for instance, chunks in enumerate(buckets):
            if not chunks:
                continue
            merged = {
                name: np.concatenate([c[name] for c in chunks])
                for name in chunks[0]
            }
            assignments.append((instance % node_count, merged))
        return assignments


# -- aggregation state --------------------------------------------------------

#: Partial state fields per aggregate and the ufunc that merges each field
#: across partials.  MIN/MAX merge with ``np.minimum``/``np.maximum``, which
#: propagate NaN (``fmin``/``fmax`` would skip it).  DISTINCT keeps one set
#: per group, merged by ``|`` (what ``np.bitwise_or`` calls on objects).
_MERGE_UFUNCS: dict[str, tuple[np.ufunc, ...]] = {
    "COUNT": (np.add,),
    "SUM": (np.add,),
    "AVG": (np.add, np.add),  # sum, count
    "MIN": (np.minimum,),
    "MAX": (np.maximum,),
}
_DISTINCT_UFUNCS: tuple[np.ufunc, ...] = (np.bitwise_or,)

#: Pending groups a state holds before it first compacts its partials.
_COMPACT_GROUPS = 4_096

#: ``starts`` of a partial with a single group (every global aggregate).
_ONE_GROUP = np.zeros(1, dtype=np.intp)

#: A partial: (one key array per GROUP BY expression, per aggregate its
#: state field arrays); row g of every array belongs to group g.
_Partial = tuple[list[np.ndarray], list[list[np.ndarray]]]


class _AggregateState:
    """Columnar two-phase aggregation state: init, transition, merge, final.

    A partial holds one array per GROUP BY expression with each group's
    key (none for a global aggregate) and, per aggregate call, its state
    arrays: COUNT a count, SUM a sum, AVG a sum and a count, MIN/MAX the
    extremum, DISTINCT one set of values per group.  Integer inputs sum
    in int64, so integer ``SUM`` is exact; everything else sums in
    float64.

    :meth:`add` turns a batch into a partial with one stable sort of its
    keys (:func:`_factorize`) and one ``ufunc.reduceat`` per field (a
    plain ``ufunc.reduce`` for a single group).  Partials merge, across
    batches and across nodes, by concatenating their arrays,
    re-factorizing the keys and reducing each field with its merge ufunc.
    Pending partials compact once they hold more than ``_COMPACT_GROUPS``
    groups and twice the groups of the last compaction.  So a node holds
    O(groups) state, and a stream of tiny batches (trickle INSERTs in the
    WOS) costs one merge at the end instead of one per batch.
    """

    def __init__(self, plan: AggregatePlan) -> None:
        self.plan = plan
        self.parts: list[_Partial] = []
        self._pending = 0    # groups across self.parts
        self._compacted = 0  # groups after the last compaction

    def add(self, batch: dict[str, np.ndarray]) -> None:
        """Fold one filtered batch in (an empty batch adds nothing)."""
        rows = _batch_rows(batch)
        if not rows:
            return
        plan = self.plan
        if plan.group_by:
            keys, order, starts = _factorize([
                _broadcast_rows(np.asarray(expressions.evaluate(e, batch)), rows)
                for e in plan.group_by
            ])
        else:
            keys, order, starts = [], None, _ONE_GROUP
        # np.diff(..., append=) alone costs more than a one-row WOS batch's
        # whole fold, so a single group takes the shortcut.
        sizes = (np.diff(starts, append=rows) if len(starts) > 1
                 else np.array([rows], dtype=np.int64))
        fields = []
        for agg in plan.aggregates:
            values = None
            if agg.arg is not None:
                values = _broadcast_rows(
                    np.asarray(expressions.evaluate(agg.arg, batch)), rows)
            fields.append(_transition(agg, values, order, starts, sizes))
        self._push((keys, fields))

    def absorb(self, other: "_AggregateState") -> None:
        """Merge another state's partials into this one."""
        for part in other.parts:
            self._push(part)

    def _push(self, part: _Partial) -> None:
        self.parts.append(part)
        self._pending += _groups(part)
        if self._pending > max(2 * self._compacted, _COMPACT_GROUPS):
            self._compact()

    def _compact(self) -> None:
        if len(self.parts) > 1:
            self.parts = [_merge_parts(self.plan, self.parts)]
        self._pending = self._compacted = sum(_groups(p) for p in self.parts)

    def finalize(self) -> tuple[dict[str, np.ndarray], int]:
        """The final step: one column per group key and per aggregate
        (groups in key order), and the number of groups."""
        plan = self.plan
        self._compact()
        if not self.parts:
            if plan.group_by:
                aliases = ([_group_alias(i) for i in range(len(plan.group_by))]
                           + [_agg_alias(j) for j in range(len(plan.aggregates))])
                return {alias: np.empty(0) for alias in aliases}, 0
            # A global aggregate over zero rows still yields one row.
            return ({_agg_alias(j): np.asarray([0 if agg.name == "COUNT" else None])
                     for j, agg in enumerate(plan.aggregates)}, 1)
        keys, fields = self.parts[0]
        env = {
            _group_alias(i): key.astype(object) if key.dtype.kind in "US" else key
            for i, key in enumerate(keys)
        }
        for j, (agg, state) in enumerate(zip(plan.aggregates, fields)):
            env[_agg_alias(j)] = _final(agg, state)
        return env, _groups(self.parts[0])


def _groups(part: _Partial) -> int:
    keys, _ = part
    return len(keys[0]) if keys else 1


def _reduce(ufunc: np.ufunc, values: np.ndarray, order: np.ndarray | None,
            starts: np.ndarray) -> np.ndarray:
    """Reduce ``values`` per group; groups start at ``starts`` in the row
    order ``order`` (unused for a single group)."""
    if len(starts) == 1:
        return ufunc.reduce(values, keepdims=True)
    return ufunc.reduceat(values[order], starts)


def _transition(agg: ast.AggregateCall, values: np.ndarray | None,
                order: np.ndarray | None, starts: np.ndarray,
                sizes: np.ndarray) -> list[np.ndarray]:
    """One batch's state fields for ``agg``, one row per group."""
    name = agg.name
    if values is None:
        if name != "COUNT":
            raise SqlAnalysisError(f"{name} requires an argument")
        return [sizes]
    if agg.distinct:
        if name not in ("COUNT", "SUM", "AVG"):
            raise SqlAnalysisError(f"DISTINCT not supported for {name}")
        if len(starts) > 1:
            values = values[order]
        sets = np.empty(len(starts), dtype=object)
        for g, chunk in enumerate(np.split(values, starts[1:])):
            sets[g] = set(chunk.tolist())
        return [sets]
    if name == "COUNT":
        return [sizes]
    if name in ("SUM", "AVG"):
        exact = values.dtype.kind in "biu"
        sums = _reduce(np.add, values.astype(np.int64 if exact else np.float64,
                                             copy=False), order, starts)
        return [sums] if name == "SUM" else [sums, sizes]
    if name in ("MIN", "MAX"):
        if values.dtype.kind in "US":
            values = values.astype(object)
        return [_reduce(_MERGE_UFUNCS[name][0], values, order, starts)]
    raise SqlAnalysisError(f"unknown aggregate {name}")


def _merge_parts(plan: AggregatePlan, parts: list[_Partial]) -> _Partial:
    """Merge partials: concatenate, re-factorize the keys, reduce fields."""
    keys = [np.concatenate(column) for column in zip(*(k for k, _ in parts))]
    if keys:
        keys, order, starts = _factorize(keys)
    else:
        order, starts = None, _ONE_GROUP
    fields = []
    for j, agg in enumerate(plan.aggregates):
        ufuncs = _DISTINCT_UFUNCS if agg.distinct else _MERGE_UFUNCS[agg.name]
        fields.append([
            _reduce(ufunc, np.concatenate([f[j][i] for _, f in parts]),
                    order, starts)
            for i, ufunc in enumerate(ufuncs)
        ])
    return keys, fields


def _final(agg: ast.AggregateCall, state: list[np.ndarray]) -> np.ndarray:
    """Each group's aggregate value from its merged state fields."""
    if agg.distinct:
        sets = state[0]
        counts = np.fromiter((len(s) for s in sets), np.int64, len(sets))
        if agg.name == "COUNT":
            return counts
        sums = np.asarray([sum(s) for s in sets])
        return sums if agg.name == "SUM" else sums / counts
    if agg.name == "AVG":
        return state[0] / state[1]
    return state[0]


# -- streaming helpers --------------------------------------------------------


def _apply_where(where: ast.Expr | None,
                 batch: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Filter one batch by the WHERE predicate (pass-through when absent)."""
    if where is None:
        return batch
    mask = np.atleast_1d(
        np.asarray(expressions.evaluate(where, batch), dtype=bool)
    )
    if mask.shape == (1,) and _batch_rows(batch) != 1:
        mask = np.broadcast_to(mask, (_batch_rows(batch),))
    return {name: arr[mask] for name, arr in batch.items()}


def _project_batch(
    items: list[ast.SelectItem], names: list[str],
    order_by: list[ast.OrderItem], batch: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
    """Evaluate the select list (and ORDER BY keys) over one batch."""
    rows = _batch_rows(batch)
    projected: dict[str, np.ndarray] = {}
    for item, name in zip(items, names):
        value = np.asarray(expressions.evaluate(item.expr, batch))
        projected[name] = _broadcast_rows(value, rows)
    order_vals = []
    for order in order_by:
        value = np.asarray(expressions.evaluate(order.expr, batch))
        order_vals.append(_broadcast_rows(value, rows))
    return projected, order_vals


def _chain_one(first: dict[str, np.ndarray],
               rest: Iterator[dict[str, np.ndarray]]
               ) -> Iterator[dict[str, np.ndarray]]:
    """Re-attach a probed first batch to the remainder of its stream."""
    yield first
    yield from rest


class _TopK:
    """Bounded accumulator for ``ORDER BY ... LIMIT`` under streaming.

    Buffers projected chunks and, when the buffer outgrows its threshold,
    trims to the ``limit`` best rows with the same stable multi-key sort the
    initiator applies.  A stable local trim is lossless: a row's stable rank
    among one node's rows never exceeds its global stable rank, so any row
    the global sort+limit keeps survives every local trim.  Tied rows stay
    in scan order throughout (stable sorts, chunks appended in scan order),
    so the initiator's final stable sort reproduces the eager ordering
    bit for bit.
    """

    def __init__(self, names: list[str], limit: int,
                 ascending: list[bool]) -> None:
        self.names = names
        self.limit = limit
        self.ascending = ascending
        self.out_chunks: dict[str, list[np.ndarray]] = {n: [] for n in names}
        self.order_chunks: list[list[np.ndarray]] = [[] for _ in ascending]
        self.buffered = 0
        self.threshold = max(4 * limit, 8_192)

    def add(self, projected: dict[str, np.ndarray],
            order_vals: list[np.ndarray]) -> None:
        for name in self.names:
            self.out_chunks[name].append(projected[name])
        for i, value in enumerate(order_vals):
            self.order_chunks[i].append(value)
        self.buffered += _batch_rows(projected)
        if self.buffered > self.threshold:
            self._trim()

    def _trim(self) -> None:
        keys = [np.concatenate(chunks) for chunks in self.order_chunks]
        index = _sort_index(keys, self.ascending)[: self.limit]
        for name in self.names:
            merged = np.concatenate(self.out_chunks[name])
            self.out_chunks[name] = [merged[index]]
        self.order_chunks = [[key[index]] for key in keys]
        self.buffered = len(index)

    def finish(self) -> tuple[dict[str, list[np.ndarray]],
                              list[list[np.ndarray]]]:
        return self.out_chunks, self.order_chunks


# -- PROFILE rendering --------------------------------------------------------


def _render_profile(root: Span) -> ResultSet:
    """Render a finished span tree as the PROFILE result set.

    One row per span, depth-first, with the tree shown by indentation in
    the ``operator`` column.  ``rows``/``bytes`` are subtree totals (a
    parent aggregates its children), ``wall_ms`` is the span's own wall
    time, and ``detail`` carries the remaining attributes (node/instance
    indices, peak-inflight watermarks, backpressure time, errors).
    """
    operators: list[str] = []
    wall_ms: list[float] = []
    rows_col: list[float] = []
    bytes_col: list[float] = []
    detail: list[str] = []

    def visit(span: Span, depth: int) -> None:
        operators.append("  " * depth + span.name)
        wall_ms.append(span.duration * 1e3)
        rows_col.append(span.total("rows"))
        bytes_col.append(span.total("bytes"))
        extras = {
            key: value for key, value in span.attributes.items()
            if key not in ("rows", "bytes")
        }
        if span.error is not None:
            extras["error"] = span.error
        detail.append(", ".join(
            f"{key}={value:.6g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in sorted(extras.items())
        ))
        for child in list(span.children):
            visit(child, depth + 1)

    visit(root, 0)
    return ResultSet(
        ["operator", "wall_ms", "rows", "bytes", "detail"],
        {
            "operator": np.asarray(operators, dtype=object),
            "wall_ms": np.asarray(wall_ms, dtype=np.float64),
            "rows": np.asarray(rows_col, dtype=np.float64),
            "bytes": np.asarray(bytes_col, dtype=np.float64),
            "detail": np.asarray(detail, dtype=object),
        },
    )


# -- small helpers ------------------------------------------------------------


def _split_args(args: dict[str, np.ndarray], instances: int
                ) -> list[dict[str, np.ndarray]]:
    """Split bound argument arrays into contiguous per-instance chunks."""
    boundaries = instance_boundaries(_batch_rows(args), instances)
    return [
        {name: arr[start:stop] for name, arr in args.items()}
        for start, stop in zip(boundaries, boundaries[1:])
    ]


def _distinct_indices(columns: list[np.ndarray]) -> np.ndarray:
    """Indices of the first occurrence of each distinct row (stable)."""
    if not columns:
        return np.arange(0)
    rows = len(columns[0])
    seen: dict[tuple, None] = {}
    keep: list[int] = []
    for i in range(rows):
        key = tuple(
            arr[i].item() if isinstance(arr[i], np.generic) else arr[i]
            for arr in columns
        )
        if key not in seen:
            seen[key] = None
            keep.append(i)
    return np.asarray(keep, dtype=np.int64)


def _has_aggregates(stmt: ast.Select) -> bool:
    sources = [item.expr for item in stmt.items]
    if stmt.having is not None:
        sources.append(stmt.having)
    return any(
        isinstance(node, ast.AggregateCall)
        for expr in sources for node in expr.walk()
    )


def _batch_rows(batch: Mapping[str, np.ndarray]) -> int:
    for arr in batch.values():
        return len(np.atleast_1d(arr))
    return 0


def _broadcast_rows(value: np.ndarray, rows: int) -> np.ndarray:
    value = np.atleast_1d(value)
    if len(value) == rows:
        return value
    if len(value) == 1:
        return np.broadcast_to(value, (rows,)).copy()
    raise ExecutionError(f"cannot broadcast length {len(value)} to {rows} rows")


def _sort_index(keys: list[np.ndarray], ascending: list[bool]) -> np.ndarray:
    """Stable multi-key sort honoring per-key direction."""
    if not keys:
        return np.arange(0)
    index = np.arange(len(keys[0]))
    # Apply keys from least to most significant for a stable composite sort.
    for key, asc in reversed(list(zip(keys, ascending))):
        current = key[index]
        if asc:
            order = np.argsort(current, kind="stable")
        else:
            # Stable descending: naively reversing an ascending argsort
            # would also reverse ties, so sort the reversed array and map
            # the positions back.
            reverse_order = np.argsort(current[::-1], kind="stable")
            order = (len(current) - 1 - reverse_order)[::-1]
        index = index[order]
    return index


def _factorize(key_arrays: list[np.ndarray]
               ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Group rows by composite key with one stable sort.

    Returns ``(keys, order, starts)``: the distinct keys, one array per
    key column with groups in key order; the permutation that sorts the
    rows by key (rows of one group stay in scan order); and the position
    in that order where each group starts.  NaN keys form one group,
    sorted last.
    """
    if len(key_arrays) == 1:
        order = np.argsort(key_arrays[0], kind="stable")
    else:
        order = np.lexsort(key_arrays[::-1])  # lexsort's primary key is last
    boundary = np.ones(len(order), dtype=bool)
    differs = np.zeros(max(len(order) - 1, 0), dtype=bool)
    sorted_keys = []
    for arr in key_arrays:
        arr = arr[order]
        sorted_keys.append(arr)
        step = arr[1:] != arr[:-1]
        if arr.dtype.kind == "f":
            step &= ~(np.isnan(arr[1:]) & np.isnan(arr[:-1]))
        differs |= step
    boundary[1:] = differs
    starts = np.flatnonzero(boundary)
    return [arr[starts] for arr in sorted_keys], order, starts


def _group_alias(index: int) -> str:
    return f"__group_{index}"


def _agg_alias(index: int) -> str:
    return f"__agg_{index}"


def _rewrite(expr: ast.Expr, plan: AggregatePlan) -> ast.Expr:
    """Replace aggregate calls / group expressions with their result aliases."""
    for j, agg in enumerate(plan.aggregates):
        if expr == agg:
            return ast.ColumnRef(_agg_alias(j))
    for i, group_expr in enumerate(plan.group_by):
        if expr == group_expr:
            return ast.ColumnRef(_group_alias(i))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _rewrite(expr.left, plan), _rewrite(expr.right, plan))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite(expr.operand, plan))
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name, tuple(_rewrite(a, plan) for a in expr.args))
    if isinstance(expr, ast.ColumnRef):
        raise SqlAnalysisError(
            f"column {expr.name!r} must appear in GROUP BY or inside an aggregate"
        )
    return expr
