"""The physical-operator runtime: one execution path for everything.

Every consumer of the algebra — ad-hoc MPF queries, batched workloads,
VE-cache construction, BP passes, junction-tree materialization,
Bayesian inference — evaluates plans through this module, so all of
them pay simulated IO through the shared buffer pool, show up in
:class:`~repro.storage.iostats.IOStats`, and benefit from memoized
shared subplans.

The pieces:

* :class:`ExecutionContext` — everything one evaluation environment
  owns: the name→relation environment (optionally catalog-backed), the
  semiring, the buffer pool, the stats clock, the work-mem budget, the
  memo table keyed by structural plan keys, and an optional tracer.
  Contexts are long-lived: a batch of queries (or a whole workload
  cache build) shares one context, which is what makes cross-query
  sharing real.

* per-node-type :class:`PhysicalOperator` classes — ``execute(ctx,
  inputs)`` runs one operator over already-evaluated inputs, charging
  the clock the way a disk-based engine would (sequential page reads
  through the pool for scans, hash/sort CPU for joins and aggregation,
  spill writes past ``workmem_pages``).  The sharded executors run
  each shard through the same operator, so every operator has one
  implementation.

* :func:`evaluate` / :func:`evaluate_dag` — drive a lowered
  :class:`~repro.plans.lower.PlanDAG` in topological order.  A node
  whose structural key is already in the context memo is never
  re-executed; its cached result is reused and a memo hit is charged
  instead of IO.
"""

from __future__ import annotations

import math
from typing import Mapping, Protocol, Sequence

from repro.algebra.aggregate import marginalize
from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.algebra.join import product_join
from repro.algebra.select import restrict
from repro.algebra.semijoin import product_semijoin, update_semijoin
from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.errors import MemoryLimitExceeded, PlanError
from repro.plans.guard import QueryGuard
from repro.plans.lower import PlanDAG, lower
from repro.plans.nodes import (
    GroupBy,
    IndexScan,
    PlanNode,
    ProductJoin,
    Scan,
    Select,
    SemiJoin,
)
from repro.plans.scheduler import CriticalPathClock, ScheduleReport
from repro.semiring.base import Semiring
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile, TempFileAllocator
from repro.storage.iostats import IOStats
from repro.storage.page import PageGeometry
from repro.storage.partition import (
    PartitionSpec,
    concat_relations,
    partition_relation,
)

__all__ = [
    "DEFAULT_WORKMEM_PAGES",
    "ExecutionContext",
    "QueryGuard",
    "Tracer",
    "PhysicalOperator",
    "ScanOperator",
    "IndexScanOperator",
    "SelectOperator",
    "ProductJoinOperator",
    "GroupByOperator",
    "SemiJoinOperator",
    "operator_for",
    "evaluate",
    "evaluate_dag",
]

# Work-memory budget for a single operator, in pages (cf. work_mem).
DEFAULT_WORKMEM_PAGES = 2048


class Tracer(Protocol):
    """Observation hook invoked by the runtime per evaluated node."""

    def on_execute(
        self, node: PlanNode, result: FunctionalRelation, delta: IOStats
    ) -> None:
        """An operator ran; ``delta`` holds its own incremental work."""

    def on_memo_hit(
        self, node: PlanNode, result: FunctionalRelation
    ) -> None:
        """A node's result was served from the context memo."""

    def on_degrade(self, node: PlanNode, description: str) -> None:
        """The guard downgraded a hash operator to its spill path.

        Optional — the runtime tolerates tracers without this hook.
        """


class ExecutionContext:
    """Shared state for one evaluation environment.

    ``catalog`` may be a :class:`Catalog` (base tables get their
    catalog heap files and indexes) or a plain name→relation mapping
    (everything is ad-hoc).  Intermediates produced by workload code
    are added with :meth:`bind`, which also invalidates memo entries
    that read the rebound name.

    ``guard`` optionally attaches a :class:`QueryGuard`: operators
    check it per node and per row batch (deadline, cost budget,
    cancellation), materialized intermediates are admitted against its
    memory ceiling, and transient storage faults draw on its retry
    budget.  Results only reach the memo after an operator completes,
    so a guard violation (or storage fault) mid-query never leaves a
    partial result to be served to a later query.

    ``metrics`` optionally attaches a
    :class:`~repro.obs.metrics.MetricsRegistry`: the runtime publishes
    every operator's incremental work into it (the ``query.*``
    counters of the metric catalog), so one registry shared across
    contexts accumulates engine-wide totals that agree with the
    summed :class:`IOStats` clocks.
    """

    def __init__(
        self,
        catalog: Catalog | Mapping[str, FunctionalRelation],
        semiring: Semiring,
        pool: BufferPool | None = None,
        workmem_pages: int = DEFAULT_WORKMEM_PAGES,
        stats: IOStats | None = None,
        tracer: Tracer | None = None,
        guard: QueryGuard | None = None,
        metrics=None,
        workers: int = 1,
    ):
        if workers < 1:
            raise PlanError(f"workers must be >= 1, got {workers}")
        self.catalog = catalog if isinstance(catalog, Catalog) else None
        self.env: dict[str, FunctionalRelation] = dict(
            catalog.environment() if isinstance(catalog, Catalog) else catalog
        )
        self.semiring = semiring
        self.pool = pool or BufferPool()
        self.workmem_pages = workmem_pages
        self.stats = stats if stats is not None else IOStats()
        self.tracer = tracer
        self.guard = guard
        self.metrics = metrics
        self.workers = workers
        self.schedule = CriticalPathClock(workers)
        """Modeled task schedule accumulated over the context lifetime
        (a batch, a workload program); see :meth:`publish_schedule`."""
        self.scheduled_run = False
        """True once any :func:`evaluate_dag` call took the scheduled
        path — the gate for the worker-dependent ``scheduler.*`` gauges
        (a pure-serial context must not emit a zero-makespan schedule
        into snapshot diffs)."""
        self.shard_results: dict[
            tuple, tuple[PartitionSpec, list[FunctionalRelation]]
        ] = {}
        """Sharded form of memoized results — ``key -> (spec, shards)``.
        The memo itself always holds the merged relation, so
        checkpointing, recovery seeding, and unsharded consumers are
        oblivious to partitioning."""
        self._node_tasks: dict[tuple, tuple[int, ...]] = {}
        self._table_writers: dict[str, tuple[int, ...]] = {}
        self.last_root_tasks: tuple[int, ...] = ()
        """Schedule tasks that produced the roots of the most recent
        :func:`evaluate_dag` call — the dependency handle
        :meth:`bind` records so a rebound table (a BP message target)
        serializes against its producer on the modeled clock."""
        self.memo: dict[tuple, FunctionalRelation] = {}
        self.actuals: dict[tuple, tuple[int, float | None]] = {}
        """Per-executed-node actual ``(out_rows, elapsed)`` keyed by
        structural plan key — the execution side of the calibration
        layer's estimate→actual join (``elapsed`` is ``None`` when no
        tracer/registry asked for per-operator deltas)."""
        self._memo_reads: dict[tuple, frozenset[str]] = {}
        self._memo_nodes: dict[tuple, PlanNode] = {}
        self._temp = TempFileAllocator()
        self._adhoc_files: dict[str, HeapFile] = {}

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def relation(self, table: str) -> FunctionalRelation:
        try:
            return self.env[table]
        except KeyError:
            raise PlanError(f"unknown table {table!r}") from None

    def bind(self, name: str, relation: FunctionalRelation) -> None:
        """(Re)bind a name; memo entries reading it become invalid.

        On the modeled schedule the rebound name now depends on the
        tasks that produced the most recent evaluation's roots —
        workload code computes a message and immediately binds it, so
        a later scan of the name serializes after its producer, while
        messages to *different* targets stay independent and overlap.
        """
        self.env[name] = relation
        self.invalidate(name)
        self._table_writers[name] = self.last_root_tasks

    def invalidate(self, *tables: str) -> None:
        """Drop memoized results that scanned any of ``tables``."""
        names = set(tables)
        stale = [
            key
            for key, reads in self._memo_reads.items()
            if reads & names
        ]
        for key in stale:
            del self.memo[key]
            del self._memo_reads[key]
            self._memo_nodes.pop(key, None)
            self.shard_results.pop(key, None)
            self._node_tasks.pop(key, None)
        for name in names:
            file = self._adhoc_files.pop(name, None)
            if file is not None:
                file.drop(self.pool)

    def reset_memo(self) -> None:
        self.memo.clear()
        self._memo_reads.clear()
        self._memo_nodes.clear()
        self.shard_results.clear()
        self._node_tasks.clear()

    def memo_entries(self):
        """Yield ``(node, relation)`` for every memoized subplan.

        Only entries whose producing :class:`PlanNode` is known are
        yielded (results seeded or executed through this context) —
        this is what a checkpoint persists as completed shared work.
        """
        for key, relation in self.memo.items():
            node = self._memo_nodes.get(key)
            if node is not None:
                yield node, relation

    def seed_memo(self, node: PlanNode, relation: FunctionalRelation) -> None:
        """Install a completed subplan result (checkpoint restore).

        The entry behaves exactly like one produced by execution: it is
        keyed by the node's structural key, invalidated when any base
        table it reads is rebound, and re-persisted by later
        checkpoints.
        """
        key = node.structural_key()
        self.memo[key] = relation
        self._memo_reads[key] = frozenset(node.base_tables())
        self._memo_nodes[key] = node

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def heapfile_for(
        self, table: str, relation: FunctionalRelation
    ) -> HeapFile:
        if self.catalog is not None and table in self.catalog:
            return self.catalog.heapfile(table)
        if table not in self._adhoc_files:
            self._adhoc_files[table] = self._temp.allocate(
                relation.ntuples, relation.arity
            )
        return self._adhoc_files[table]

    def maybe_spill(self, relation: FunctionalRelation) -> None:
        """Charge a materialization write when a result exceeds work-mem.

        With a guard attached, the materialized pages are also admitted
        against its hard memory ceiling — this is where a runaway
        (e.g. exponential CS) intermediate raises
        :class:`~repro.errors.MemoryLimitExceeded`.
        """
        geometry = PageGeometry(relation.arity)
        pages = geometry.pages_for(relation.ntuples)
        if self.guard is not None:
            self.guard.admit_pages(pages)
        if pages > self.workmem_pages:
            temp = self._temp.allocate(relation.ntuples, relation.arity)
            temp.write_out(self.pool, self.stats, guard=self.guard)

    def record_degradation(self, node: PlanNode, description: str) -> None:
        """Note a guard-driven hash→sort downgrade (guard + tracer)."""
        if self.guard is not None:
            self.guard.note_degradation(description)
        if self.tracer is not None:
            hook = getattr(self.tracer, "on_degrade", None)
            if hook is not None:
                hook(node, description)
        self.count("query.degradations")

    # ------------------------------------------------------------------
    # Metrics publication
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1, **labels) -> None:
        """Increment a registry counter; no-op without a registry."""
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    def publish_schedule(self) -> ScheduleReport:
        """Compute and publish the accumulated modeled schedule.

        The ``scheduler.*`` gauges describe the *latest* schedule of
        this context (a batch, a workload program).  They are modeled
        quantities — worker-count dependent by design — and therefore
        deliberately outside the structural counters the differential
        suite pins; :meth:`IOStats.elapsed` stays the serial sum.

        Gauges are emitted only when this context actually took the
        scheduled path: a pure-serial run (workers=1, no partitioned
        tables) has no schedule, and publishing a zero makespan for it
        would pollute snapshot diffs with meaningless gauges.
        """
        report = self.schedule.report()
        if self.metrics is not None and self.scheduled_run and report.tasks:
            self.metrics.gauge("scheduler.workers").set(report.workers)
            self.metrics.gauge("scheduler.tasks").set(report.tasks)
            self.metrics.gauge("scheduler.serial_elapsed").set(
                report.serial_elapsed
            )
            self.metrics.gauge("scheduler.makespan").set(report.makespan)
            self.metrics.gauge("scheduler.speedup").set(report.speedup)
        return report

    def publish_operator(self, node: PlanNode, delta: IOStats) -> None:
        """Publish one executed operator's incremental work.

        The per-counter deltas sum to exactly the context's
        :class:`IOStats` totals for work done inside operators, which
        is everything the reads/writes/hits/retries clocks record —
        the agreement the integration tests assert.
        """
        m = self.metrics
        if m is None:
            return
        m.counter(
            "query.operator_runs", operator=type(node).__name__
        ).inc()
        m.counter("query.page_reads").inc(delta.page_reads)
        m.counter("query.page_writes").inc(delta.page_writes)
        m.counter("query.buffer_hits").inc(delta.buffer_hits)
        m.counter("query.tuples").inc(delta.tuples_processed)
        if delta.retries:
            m.counter("query.retries").inc(delta.retries)
            m.counter("query.retry_wait").inc(delta.retry_wait)
        m.histogram("query.operator_elapsed").observe(delta.elapsed())


# ----------------------------------------------------------------------
# Physical operators
# ----------------------------------------------------------------------
class PhysicalOperator:
    """One plan node's physical implementation."""

    def __init__(self, node: PlanNode):
        self.node = node

    def execute(
        self, ctx: ExecutionContext, inputs: Sequence[FunctionalRelation]
    ) -> FunctionalRelation:
        raise NotImplementedError


class ScanOperator(PhysicalOperator):
    """Sequential page reads of the base heap file through the pool."""

    node: Scan

    def execute(self, ctx, inputs):
        relation = ctx.relation(self.node.table)
        self.run(ctx, ctx.heapfile_for(self.node.table, relation))
        return relation

    def run(self, ctx, heapfile: HeapFile) -> None:
        """Read every page of ``heapfile`` (the table or one shard)."""
        heapfile.scan(ctx.pool, ctx.stats, guard=ctx.guard)


class IndexScanOperator(PhysicalOperator):
    """Equality probe through a catalog hash index."""

    node: IndexScan

    def execute(self, ctx, inputs):
        relation = ctx.relation(self.node.table)
        if ctx.catalog is None:
            raise PlanError("IndexScan requires a catalog-backed context")
        index = ctx.catalog.index_on(self.node.table, self.node.variable)
        if index is None:
            raise PlanError(
                f"no index on {self.node.table}({self.node.variable})"
            )
        value = self.node.predicate[self.node.variable]
        code = relation.variables[self.node.variable].domain.code_of(value)
        rows = index.lookup(code, ctx.pool, ctx.stats, guard=ctx.guard)
        return relation.take(rows)


class SelectOperator(PhysicalOperator):
    """One pass over the input applying equality predicates."""

    node: Select

    def execute(self, ctx, inputs):
        (child,) = inputs
        ctx.stats.charge_cpu(child.ntuples)
        return restrict(child, self.node.predicate)


class ProductJoinOperator(PhysicalOperator):
    """Hash (or sort-merge) product join with spill accounting.

    A hash join needs its build side (the left input) resident in
    memory.  Under a guard, a build side that does not fit in work-mem
    (or the guard's remaining memory allowance) *degrades* to the
    sort-merge spill path rather than aborting — unless the guard
    forbids degradation, in which case it raises
    :class:`~repro.errors.MemoryLimitExceeded`.
    """

    node: ProductJoin

    def execute(self, ctx, inputs):
        left, right = inputs
        return self.run(ctx, left, right, self.method(ctx, left))

    def method(self, ctx, left: FunctionalRelation) -> str:
        """The join method to run, after the guard's degrade decision.

        The sharded executor calls this once on the merged build side,
        never per shard.
        """
        method = self.node.method
        if method == "hash" and ctx.guard is not None:
            build_pages = PageGeometry(left.arity).pages_for(left.ntuples)
            if not ctx.guard.build_side_fits(build_pages, ctx.workmem_pages):
                if not ctx.guard.allow_degrade:
                    raise MemoryLimitExceeded(
                        f"hash-join build side needs {build_pages} pages, "
                        "over the memory allowance, and degradation is "
                        "disabled"
                    )
                method = "sort_merge"
                ctx.record_degradation(
                    self.node,
                    f"hash join degraded to sort-merge: build side "
                    f"({build_pages} pages) exceeds the memory allowance",
                )
        return method

    def run(
        self,
        ctx,
        left: FunctionalRelation,
        right: FunctionalRelation,
        method: str,
    ) -> FunctionalRelation:
        """Join with ``method``'s CPU charges and spill accounting."""
        result = product_join(left, right, ctx.semiring)
        if method == "sort_merge":
            nl, nr = max(left.ntuples, 2), max(right.ntuples, 2)
            ctx.stats.charge_cpu(
                int(nl * math.log2(nl) + nr * math.log2(nr))
            )
        ctx.stats.charge_cpu(left.ntuples + right.ntuples + result.ntuples)
        ctx.maybe_spill(result)
        return result


class GroupByOperator(PhysicalOperator):
    """Sort- or hash-based semiring aggregation with spill accounting."""

    node: GroupBy

    def execute(self, ctx, inputs):
        (child,) = inputs
        return self.run(ctx, child, self.method(ctx, child))

    def method(self, ctx, child: FunctionalRelation) -> str:
        """The aggregation method to run, after the degrade decision.

        The sharded executor calls this once on the merged input, never
        per shard.
        """
        method = self.node.method
        if method == "hash" and ctx.guard is not None:
            # Pessimistic: the hash table may hold every input group.
            table_pages = PageGeometry(child.arity).pages_for(child.ntuples)
            if not ctx.guard.build_side_fits(table_pages, ctx.workmem_pages):
                if not ctx.guard.allow_degrade:
                    raise MemoryLimitExceeded(
                        f"hash aggregation table needs {table_pages} pages, "
                        "over the memory allowance, and degradation is "
                        "disabled"
                    )
                method = "sort"
                ctx.record_degradation(
                    self.node,
                    f"hash aggregation degraded to sort: table "
                    f"({table_pages} pages) exceeds the memory allowance",
                )
        return method

    def run(
        self, ctx, child: FunctionalRelation, method: str
    ) -> FunctionalRelation:
        """Aggregate with ``method``'s CPU charges and spill accounting."""
        n = max(child.ntuples, 2)
        if method == "sort":
            ctx.stats.charge_cpu(int(n * math.log2(n)))
        else:  # hash aggregation: one pass + group emission
            ctx.stats.charge_cpu(n)
        result = marginalize(child, self.node.group_names, ctx.semiring)
        ctx.stats.charge_cpu(result.ntuples)
        ctx.maybe_spill(result)
        return result


class SemiJoinOperator(PhysicalOperator):
    """Product / update semijoin — the workload message primitive."""

    node: SemiJoin

    def execute(self, ctx, inputs):
        target, source = inputs
        if self.node.kind == "product":
            result = product_semijoin(target, source, ctx.semiring)
        else:
            result = update_semijoin(target, source, ctx.semiring)
        ctx.stats.charge_cpu(
            target.ntuples + source.ntuples + result.ntuples
        )
        ctx.maybe_spill(result)
        return result


OPERATORS: dict[type[PlanNode], type[PhysicalOperator]] = {
    Scan: ScanOperator,
    IndexScan: IndexScanOperator,
    Select: SelectOperator,
    ProductJoin: ProductJoinOperator,
    GroupBy: GroupByOperator,
    SemiJoin: SemiJoinOperator,
}


def operator_for(node: PlanNode) -> PhysicalOperator:
    try:
        return OPERATORS[type(node)](node)
    except KeyError:
        raise PlanError(
            f"unknown plan node {type(node).__name__}"
        ) from None


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------
def _run_tasks(ctx, deps_list, thunks, label):
    """Run independent thunks in order, one schedule task each.

    Each thunk becomes one task on the modeled clock: its elapsed is
    the cost-clock delta it charged while running.  Thunks run in list
    order in the calling thread, so shared-state mutation order (and
    every counter) is the serial order for any worker count; workers
    only size the modeled :class:`CriticalPathClock`.

    **Publish-on-commit:** everything downstream of the tasks — memo
    writes, ``shard.*`` / ``query.*`` counters, schedule registration,
    and ``ctx.shard_results`` updates — happens in the callers after
    this returns.  A raising thunk stops the loop (later shards never
    run) and propagates, so a failed operator contributes no schedule
    entries, mirroring how it contributes no memo entry.
    """
    results = []
    elapsed = []
    for thunk in thunks:
        snapshot = ctx.stats.snapshot()
        results.append(thunk())
        elapsed.append(ctx.stats.since(snapshot).elapsed())
    task_ids = tuple(
        ctx.schedule.add_task(deps, task_elapsed, label)
        for deps, task_elapsed in zip(deps_list, elapsed)
    )
    return results, task_ids


def _dedup(ids) -> tuple[int, ...]:
    """Stable-order dependency dedup."""
    return tuple(dict.fromkeys(ids))


def _align_deps(child_tasks, shards, extra):
    """Per-shard dependency lists against a producer's tasks.

    A producer sharded the same way contributes shard-aligned edges
    (shard *i* waits only on the producer's shard *i*); anything else
    is a barrier — every shard waits on all producer tasks.
    """
    if len(child_tasks) == shards:
        return [_dedup((child_tasks[i], *extra)) for i in range(shards)]
    return [_dedup((*child_tasks, *extra))] * shards


def _catalog_spec(ctx, table):
    """The table's partition spec, when its shard cache is usable.

    A name rebound over the catalog relation (workload code shadowing
    a base table) invalidates the cached shard decomposition, so such
    scans fall back to the unsharded path.
    """
    if ctx.catalog is None or table not in ctx.catalog:
        return None
    spec = ctx.catalog.partition_spec(table)
    if spec is None:
        return None
    if ctx.env.get(table) is not ctx.catalog.relation(table):
        return None
    return spec


def _single_task(ctx, operator, inputs, deps):
    """Execute one node unsharded as a single schedule task."""
    (result,), task_ids = _run_tasks(
        ctx, [deps], [lambda: operator.execute(ctx, inputs)],
        operator.node.label(),
    )
    return result, None, task_ids


def _repartition(ctx, relation, key, shards, producer_tasks, side):
    """Explicit shuffle: split ``relation`` on ``key`` and charge it.

    Every shard is written out and read back through the pool (spill
    writes + re-reads on the cost clock, WAL page records when a log
    is attached), one schedule task per shard, each depending on all
    of the side's producer tasks — a repartition is a barrier.
    """
    parts = partition_relation(relation, key, shards)
    thunks = []
    for part in parts:
        def shuffle(part=part):
            temp = ctx._temp.allocate(part.ntuples, part.arity)
            temp.write_out(ctx.pool, ctx.stats, guard=ctx.guard)
            temp.scan(ctx.pool, ctx.stats, guard=ctx.guard)
            return temp.n_pages

        thunks.append(shuffle)
    pages, task_ids = _run_tasks(
        ctx, [producer_tasks] * shards, thunks, f"shuffle[{side}]({key})"
    )
    ctx.count("shard.repartitions")
    ctx.count("shard.shuffle_pages", sum(pages))
    return parts, [(t,) for t in task_ids]


def _aligned_side(ctx, relation, sharded, node_tasks, key, shards, side):
    """A join side as ``shards`` parts partitioned on ``key``.

    Co-partitioned sides reuse their existing shard relations (and
    shard-aligned dependencies); everything else repartitions.
    """
    if (
        sharded is not None
        and sharded[0].key == key
        and sharded[0].shards == shards
    ):
        parts = sharded[1]
        if len(node_tasks) == shards:
            deps = [(node_tasks[i],) for i in range(shards)]
        else:
            deps = [_dedup(node_tasks)] * shards
        return parts, deps
    return _repartition(ctx, relation, key, shards, _dedup(node_tasks), side)


def _execute_scan_sharded(ctx, operator, deps):
    table = operator.node.table
    spec = _catalog_spec(ctx, table)
    deps = _dedup((*deps, *ctx._table_writers.get(table, ())))
    if spec is None:
        return _single_task(ctx, operator, (), deps)
    thunks = [
        lambda heapfile=heapfile: operator.run(ctx, heapfile)
        for heapfile in ctx.catalog.shard_heapfiles(table)
    ]
    _, task_ids = _run_tasks(
        ctx, [deps] * spec.shards, thunks, operator.node.label()
    )
    ctx.count("shard.tasks", spec.shards)
    sharded = (spec, ctx.catalog.shard_relations(table))
    return ctx.relation(table), sharded, task_ids


def _execute_select_sharded(ctx, operator, inputs, child_keys, deps):
    (child_key,) = child_keys
    sharded = ctx.shard_results.get(child_key)
    if sharded is None:
        return _single_task(ctx, operator, inputs, deps)
    spec, parts = sharded
    per_deps = _align_deps(
        ctx._node_tasks.get(child_key, ()), spec.shards, deps
    )
    thunks = [
        lambda part=part: operator.execute(ctx, (part,)) for part in parts
    ]
    results, task_ids = _run_tasks(
        ctx, per_deps, thunks, operator.node.label()
    )
    ctx.count("shard.tasks", spec.shards)
    # Selection preserves key codes, hence the partitioning.
    return concat_relations(results), (spec, results), task_ids


def _execute_join_sharded(ctx, operator, inputs, child_keys, deps):
    left_key, right_key = child_keys
    left, right = inputs
    left_sharded = ctx.shard_results.get(left_key)
    right_sharded = ctx.shard_results.get(right_key)
    if left_sharded is None and right_sharded is None:
        return _single_task(ctx, operator, inputs, deps)
    shared = sorted(set(left.var_names) & set(right.var_names))
    if not shared:
        # Cross product: no key to align on; de-shard and run whole.
        return _single_task(ctx, operator, inputs, deps)

    # Alignment key: an existing partition key among the join
    # variables wins (left preferred, deterministically); otherwise
    # both sides shuffle onto the lexicographically first shared
    # variable with the sharded side's shard count.
    if left_sharded is not None and left_sharded[0].key in shared:
        align_key, shards = left_sharded[0].key, left_sharded[0].shards
    elif right_sharded is not None and right_sharded[0].key in shared:
        align_key, shards = right_sharded[0].key, right_sharded[0].shards
    else:
        align_key = shared[0]
        shards = (left_sharded or right_sharded)[0].shards

    # The degrade decision sees the merged build side, before any
    # shuffle: every shard may fit where the whole input does not.
    method = operator.method(ctx, left)
    left_parts, left_deps = _aligned_side(
        ctx, left, left_sharded, ctx._node_tasks.get(left_key, ()),
        align_key, shards, "left",
    )
    right_parts, right_deps = _aligned_side(
        ctx, right, right_sharded, ctx._node_tasks.get(right_key, ()),
        align_key, shards, "right",
    )
    thunks = [
        lambda lp=lp, rp=rp: operator.run(ctx, lp, rp, method)
        for lp, rp in zip(left_parts, right_parts)
    ]
    per_deps = [
        _dedup((*ld, *rd, *deps)) for ld, rd in zip(left_deps, right_deps)
    ]
    results, task_ids = _run_tasks(
        ctx, per_deps, thunks, operator.node.label()
    )
    ctx.count("shard.tasks", shards)
    # Matching rows share the key value, so output shard i only holds
    # rows hashing to bucket i: the join result stays partitioned.
    return (
        concat_relations(results),
        (PartitionSpec(align_key, shards), results),
        task_ids,
    )


def _execute_groupby_sharded(ctx, operator, inputs, child_keys, deps):
    (child_key,) = child_keys
    sharded = ctx.shard_results.get(child_key)
    if sharded is None:
        return _single_task(ctx, operator, inputs, deps)
    spec, parts = sharded
    node = operator.node
    # Like the join, degrade on the merged input, never per shard.
    method = operator.method(ctx, inputs[0])
    per_deps = _align_deps(
        ctx._node_tasks.get(child_key, ()), spec.shards, deps
    )
    thunks = [
        lambda part=part: operator.run(ctx, part, method) for part in parts
    ]
    results, task_ids = _run_tasks(ctx, per_deps, thunks, node.label())
    ctx.count("shard.tasks", spec.shards)

    if spec.key in node.group_names:
        # The partitioning key survives aggregation: groups never span
        # shards, so per-shard aggregation is already complete.
        return concat_relations(results), (spec, results), task_ids

    # Partial aggregates: groups span shards; a final semiring-plus
    # merge combines them.  The combine is a barrier over all shards.
    def combine():
        stacked = concat_relations(results)
        ctx.stats.charge_cpu(stacked.ntuples)
        final = marginalize(stacked, node.group_names, ctx.semiring)
        ctx.stats.charge_cpu(final.ntuples)
        ctx.maybe_spill(final)
        return final

    (final,), combine_ids = _run_tasks(
        ctx, [task_ids], [combine], node.label() + "+combine"
    )
    ctx.count("shard.partial_aggregates")
    return final, None, combine_ids


def _execute_node_scheduled(ctx, dag, node, key, inputs):
    """Execute one DAG node on the scheduled path.

    Returns ``(merged_result, sharded_or_None, task_ids)``.  Work is
    decomposed over catalog shards where the operator composes with
    hash partitioning (Scan/Select/ProductJoin/GroupBy), each shard
    running through the node's own operator; everything else
    de-shards its inputs (the memo always has the merged form) and
    runs as a single task.
    """
    child_keys = dag.children[key]
    deps = _dedup(
        t for k in child_keys for t in ctx._node_tasks.get(k, ())
    )
    operator = operator_for(node)
    if isinstance(node, Scan):
        return _execute_scan_sharded(ctx, operator, deps)
    if isinstance(node, IndexScan):
        writer = ctx._table_writers.get(node.table, ())
        return _single_task(ctx, operator, inputs, _dedup((*deps, *writer)))
    if isinstance(node, Select):
        return _execute_select_sharded(
            ctx, operator, inputs, child_keys, deps
        )
    if isinstance(node, ProductJoin):
        return _execute_join_sharded(ctx, operator, inputs, child_keys, deps)
    if isinstance(node, GroupBy):
        return _execute_groupby_sharded(
            ctx, operator, inputs, child_keys, deps
        )
    return _single_task(ctx, operator, inputs, deps)


# ----------------------------------------------------------------------
# Evaluation drivers
# ----------------------------------------------------------------------
def evaluate_dag(
    dag: PlanDAG,
    ctx: ExecutionContext,
    roots: Sequence[tuple] | None = None,
) -> list[FunctionalRelation]:
    """Evaluate (a subset of) a DAG's roots; returns results in order.

    Each unique node executes at most once; nodes already in the
    context memo (from this call or an earlier one against the same
    context) are served from it, charging a memo hit instead of work.
    Subtrees below a memoized node are skipped entirely.

    With ``workers > 1`` or a partitioned catalog the run goes through
    the *scheduled* path: operators over partitioned tables decompose
    into per-shard tasks, and every task lands on the context's
    :class:`CriticalPathClock` with its dependency edges.  Execution
    order — and therefore results, counters, and WAL records — is
    identical to the serial path by construction (shard tasks run as an
    in-order loop); parallelism shows up only as the schedule's modeled
    makespan.  At ``workers=1`` with no partitioned tables this is
    exactly the historical serial loop.
    """
    if roots is None:
        roots = dag.roots
    if ctx.guard is not None:
        ctx.guard.ensure_started(ctx.stats)

    # Which nodes actually need executing: walk down from the requested
    # roots, stopping at memo boundaries.
    needed: set[tuple] = set()
    pending = [key for key in roots if key not in ctx.memo]
    while pending:
        key = pending.pop()
        if key in needed:
            continue
        needed.add(key)
        pending.extend(
            k for k in dag.children[key]
            if k not in needed and k not in ctx.memo
        )

    hits_counted: set[tuple] = set()

    def fetch(key: tuple) -> FunctionalRelation:
        result = ctx.memo[key]
        if key not in hits_counted and key not in executed:
            hits_counted.add(key)
            ctx.stats.charge_memo_hit()
            ctx.count("query.memo_hits")
            if ctx.tracer is not None:
                ctx.tracer.on_memo_hit(dag.nodes[key], result)
        return result

    scheduled = ctx.workers > 1 or (
        ctx.catalog is not None and ctx.catalog.has_partitions
    )
    if scheduled:
        ctx.scheduled_run = True

    executed: set[tuple] = set()
    for key in dag.topological():
        if key not in needed:
            continue
        # Guard check per operator: a deadline / cancellation fires
        # within one operator batch of the limit, and — because memo
        # insertion below only happens after success — a violated
        # query never publishes a partial result to later queries.
        if ctx.guard is not None:
            ctx.guard.check(ctx.stats)
        node = dag.nodes[key]
        inputs = tuple(fetch(k) for k in dag.children[key])
        snapshot = ctx.stats.snapshot()
        kernel_before = DEFAULT_GROUP_INDEX_CACHE.counters()
        if scheduled:
            result, sharded, task_ids = _execute_node_scheduled(
                ctx, dag, node, key, inputs
            )
            if sharded is not None:
                ctx.shard_results[key] = sharded
            else:
                ctx.shard_results.pop(key, None)
            ctx._node_tasks[key] = task_ids
        else:
            result = operator_for(node).execute(ctx, inputs)
        _publish_kernel_counters(ctx, kernel_before)
        ctx.stats.record_operator(node.label(), result.ntuples)
        ctx.memo[key] = result
        ctx._memo_reads[key] = dag.base_tables(key)
        ctx._memo_nodes[key] = node
        executed.add(key)
        delta = None
        if ctx.tracer is not None or ctx.metrics is not None:
            delta = ctx.stats.since(snapshot)
            ctx.publish_operator(node, delta)
            if ctx.tracer is not None:
                ctx.tracer.on_execute(node, result, delta)
        ctx.actuals[key] = (
            result.ntuples, None if delta is None else delta.elapsed()
        )
    if scheduled:
        ctx.last_root_tasks = _dedup(
            t for key in roots for t in ctx._node_tasks.get(key, ())
        )
    return [fetch(key) for key in roots]


def _publish_kernel_counters(ctx, before: tuple[int, int, int]) -> None:
    """Publish the group-index cache's counter deltas for one operator.

    Deltas only — the cache is process-wide, so absolute values would
    mix in other contexts' work — and only nonzero ones, so operators
    that never touch the kernel cache contribute no ``kernel.*`` rows
    to snapshot diffs.
    """
    hits, misses, evictions = DEFAULT_GROUP_INDEX_CACHE.counters()
    if hits > before[0]:
        ctx.count("kernel.groupindex_hits", hits - before[0])
    if misses > before[1]:
        ctx.count("kernel.groupindex_misses", misses - before[1])
    if evictions > before[2]:
        ctx.count("kernel.groupindex_evictions", evictions - before[2])


def evaluate(plan: PlanNode, ctx: ExecutionContext) -> FunctionalRelation:
    """Lower one plan tree and evaluate it through the context."""
    (result,) = evaluate_dag(lower(plan), ctx)
    return result
