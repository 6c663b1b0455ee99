"""Structured exporters and their schemas.

Three JSON document shapes, each carrying an explicit ``schema`` tag
and validated strictly (unknown or missing keys fail — the CI
benchmark-smoke job depends on that):

* **metrics document** (:data:`METRICS_SCHEMA`) — a flat map of
  canonical metric keys (``name`` or ``name{label=value,...}``) to
  instrument dumps.  Metric names must appear in
  :data:`METRIC_CATALOG` (the documented catalog, mirrored in
  ``docs/observability.md``); the ``bench.`` prefix is reserved for
  benchmark-local metrics.

* **explain document** (:data:`EXPLAIN_SCHEMA`) — ``EXPLAIN (FORMAT
  JSON)`` for this engine: the chosen plan as a nested node tree with
  per-node estimated cardinality/cost, the optimizer verdict, and
  (for ``EXPLAIN ANALYZE``) executed totals plus the per-operator
  breakdown.

* **bench document** (:data:`BENCH_SCHEMA`) — one reproduced paper
  table/figure with its rows *and* an embedded metrics document, so
  ``benchmarks/out/*.json`` trajectories are self-describing.

* **calibration document** (:data:`CALIBRATION_SCHEMA`) — the
  estimate→actual join for one executed plan: per-node estimated vs
  actual rows, Q-error, misestimate attribution, and (optionally) the
  plan-choice audit.  Built by
  :meth:`repro.obs.calib.PlanCalibration.document`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, base_name
from repro.obs.trace import SPAN_KINDS, TRACE_SCHEMA, OperatorProfile
from repro.storage.iostats import IOStats

# NOTE: this module must not import repro.plans — repro.plans.profile
# imports repro.obs.trace, so a module-level dependency here would be
# a circular import.  Plan nodes are dispatched by class name.
# (TRACE_SCHEMA and SPAN_KINDS live in repro.obs.trace for the same
# reason, in the other direction: trace cannot import this module.)

__all__ = [
    "METRICS_SCHEMA",
    "EXPLAIN_SCHEMA",
    "BENCH_SCHEMA",
    "CALIBRATION_SCHEMA",
    "TRACE_SCHEMA",
    "METRIC_CATALOG",
    "SPAN_KINDS",
    "SHED_REASONS",
    "iostats_dict",
    "plan_explain_dict",
    "explain_document",
    "metrics_document",
    "bench_document",
    "trace_document",
    "validate_metrics_document",
    "validate_explain_document",
    "validate_bench_document",
    "validate_calibration_document",
    "validate_trace_document",
]

METRICS_SCHEMA = "repro.metrics.v1"
EXPLAIN_SCHEMA = "repro.explain.v1"
BENCH_SCHEMA = "repro.bench.v1"
CALIBRATION_SCHEMA = "repro.calibration.v1"

# The typed load-shedding vocabulary: every shed outcome — the
# ``serve.shed`` counter's ``reason`` label, an OverloadError's
# ``reason``, and a trace entry's ``reason`` field — draws from this
# set.  Defined here (not in repro.serve) so trace validation needs no
# serve import; repro.serve.admission imports it back.
SHED_REASONS = frozenset(
    {"rate", "queue_full", "evicted", "deadline", "draining"}
)

# The documented metric catalog: base instrument name -> kind.  Every
# name a registry may contain must be listed here (or carry the
# ``bench.`` prefix); validation fails on anything else so the catalog
# in docs/observability.md cannot silently drift from the code.
METRIC_CATALOG: dict[str, str] = {
    # storage substrate
    "bufferpool.reads": "counter",
    "bufferpool.writes": "counter",
    "bufferpool.hits": "counter",
    "faults.transient": "counter",
    "faults.permanent": "counter",
    # runtime, per evaluated operator (labels: operator=<node type>)
    "query.operator_runs": "counter",
    "query.page_reads": "counter",
    "query.page_writes": "counter",
    "query.buffer_hits": "counter",
    "query.tuples": "counter",
    "query.memo_hits": "counter",
    "query.retries": "counter",
    "query.retry_wait": "counter",
    "query.degradations": "counter",
    "query.operator_elapsed": "histogram",
    # guard accounting for the most recent guarded window
    "guard.pages_admitted": "gauge",
    "guard.retries_used": "gauge",
    "guard.budget_consumed": "gauge",
    # engine facade (labels on queries.total: status=ok|error)
    "plan_cache.hits": "counter",
    "plan_cache.misses": "counter",
    "plan_cache.invalidations": "counter",
    "optimizer.plans_considered": "counter",
    "optimizer.elapsed": "histogram",
    "queries.total": "counter",
    "batches.total": "counter",
    "batch.shared_subplans": "counter",
    # workload layer (labels on bp.messages: kind=product|update)
    "bp.messages": "counter",
    "bp.failures": "counter",
    "vecache.steps": "counter",
    "vecache.evidence_absorptions": "counter",
    "vecache.tables": "gauge",
    "junction.cliques": "counter",
    # durability: write-ahead log, checkpoints, and crash recovery
    # (labels on checkpoint.steps_skipped: unit=query|step)
    "wal.appends": "counter",
    "wal.bytes": "counter",
    "checkpoint.taken": "counter",
    "checkpoint.pages": "counter",
    "checkpoint.memo_entries": "counter",
    "checkpoint.steps_recorded": "counter",
    "checkpoint.steps_skipped": "counter",
    "recovery.runs": "counter",
    "recovery.replayed_pages": "counter",
    "recovery.replayed_records": "counter",
    "recovery.torn_tails": "counter",
    "recovery.checkpoints_discarded": "counter",
    # partition-parallel execution: per-shard work (worker-count
    # independent structural counters) and the modeled schedule
    # (worker-count dependent gauges; see docs/parallelism.md)
    "shard.tasks": "counter",
    "shard.repartitions": "counter",
    "shard.shuffle_pages": "counter",
    "shard.partial_aggregates": "counter",
    "scheduler.workers": "gauge",
    "scheduler.tasks": "gauge",
    "scheduler.serial_elapsed": "gauge",
    "scheduler.makespan": "gauge",
    "scheduler.speedup": "gauge",
    # kernel acceleration: group-index cache traffic of the executed
    # operators (deltas of the process-wide cache, published per node;
    # see docs/internals.md)
    "kernel.groupindex_hits": "counter",
    "kernel.groupindex_misses": "counter",
    "kernel.groupindex_evictions": "counter",
    # cost-model calibration (labels: calib.q_error operator=<op>,
    # calib.misestimates source=<estimator step>)
    "calib.runs": "counter",
    "calib.q_error": "histogram",
    "calib.misestimates": "counter",
    "calib.plan_regret": "histogram",
    "calib.plans_replayed": "counter",
    # multi-tenant serving runtime (labels: tenant=<name> on all;
    # serve.shed additionally reason=rate|queue_full|evicted|deadline|
    # draining; serve.completed additionally status=ok|error).
    # serve.queue_wait records the runtime's clock units: simulated
    # cost units under the deterministic driver, seconds under the
    # asyncio server (see docs/serving.md).
    "serve.requests": "counter",
    "serve.admitted": "counter",
    "serve.shed": "counter",
    "serve.completed": "counter",
    "serve.deadline_misses": "counter",
    "serve.queue_depth": "gauge",
    "serve.queue_wait": "histogram",
    "serve.plan_cache.hits": "counter",
    "serve.plan_cache.misses": "counter",
    "serve.reloads": "counter",
    "serve.snapshots_active": "gauge",
    "serve.snapshots_retired": "counter",
    "serve.drains": "counter",
    # per-tenant SLO telemetry (all labelled tenant=; sliding-window
    # nearest-rank quantiles and the SRE burn-rate ratio — see
    # repro.obs.slo).  Latency/queue-wait gauges are in the serving
    # clock's units: simulated cost under the deterministic driver.
    "serve.slo_latency_p50": "gauge",
    "serve.slo_latency_p95": "gauge",
    "serve.slo_latency_p99": "gauge",
    "serve.slo_queue_wait_p50": "gauge",
    "serve.slo_queue_wait_p95": "gauge",
    "serve.slo_queue_wait_p99": "gauge",
    "serve.slo_attainment": "gauge",
    "serve.slo_burn_rate": "gauge",
}

_IOSTATS_KEYS = (
    "page_reads",
    "page_writes",
    "buffer_hits",
    "tuples",
    "operators_run",
    "memo_hits",
    "retries",
    "retry_wait",
    "elapsed",
)

_OPERATOR_KEYS = frozenset(
    OperatorProfile(
        label="", out_rows=0, tuples=0, page_reads=0, page_writes=0,
        elapsed=0.0,
    ).to_dict()
)

_ENTRY_KEYS = {
    "counter": frozenset({"kind", "value"}),
    "gauge": frozenset({"kind", "value"}),
    "histogram": frozenset({"kind", "count", "sum", "bounds", "counts"}),
}


def iostats_dict(stats: IOStats) -> dict:
    """Flat JSON view of one :class:`IOStats` clock."""
    return {
        "page_reads": stats.page_reads,
        "page_writes": stats.page_writes,
        "buffer_hits": stats.buffer_hits,
        "tuples": stats.tuples_processed,
        "operators_run": stats.operators_run,
        "memo_hits": stats.memo_hits,
        "retries": stats.retries,
        "retry_wait": stats.retry_wait,
        "elapsed": stats.elapsed(),
    }


# ----------------------------------------------------------------------
# EXPLAIN (FORMAT JSON)
# ----------------------------------------------------------------------
def plan_explain_dict(plan, calibration=None) -> dict:
    """Nested plan-node document with per-node estimates when annotated.

    With ``calibration`` (a :class:`~repro.obs.calib.PlanCalibration`
    from the same plan's execution), every matched node additionally
    carries an ``actual`` block and its ``q_error``.

    Iterative post-order build: deep plans (long Select/GroupBy
    chains) must not hit the recursion limit.
    """
    done: dict[int, dict] = {}
    stack: list = [plan]
    while stack:
        node = stack[-1]
        pending = [c for c in node.children() if id(c) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if id(node) in done:
            continue
        done[id(node)] = _node_dict(
            node, [done[id(c)] for c in node.children()], calibration
        )
    return done[id(plan)]


def _node_dict(node, inputs: list[dict], calibration=None) -> dict:
    op = _OP_NAMES.get(type(node).__name__)
    if op is None:
        raise ValueError(f"unknown plan node {type(node).__name__}")
    out: dict = {"op": op, "label": node.label()}
    if op in ("scan", "index_scan"):
        out["table"] = node.table
    if op in ("index_scan", "select"):
        out["predicate"] = dict(node.predicate)
    if op in ("product_join", "group_by"):
        out["method"] = node.method
    if op == "group_by":
        out["group_names"] = list(node.group_names)
    if op == "semijoin":
        out["semijoin_kind"] = node.kind
    if node.stats is not None:
        estimated: dict = {"cardinality": node.stats.cardinality}
        if node.op_cost is not None:
            estimated["op_cost"] = node.op_cost
        if node.total_cost is not None:
            estimated["cost"] = node.total_cost
        out["estimated"] = estimated
    if calibration is not None:
        row = calibration.lookup(node.structural_key())
        if row is not None and row.actual_rows is not None:
            out["actual"] = {
                "rows": row.actual_rows,
                "elapsed": row.actual_elapsed,
            }
            if row.q_error is not None:
                out["q_error"] = row.q_error
    if inputs:
        out["inputs"] = inputs
    return out


_OP_NAMES: dict[str, str] = {
    "Scan": "scan",
    "IndexScan": "index_scan",
    "Select": "select",
    "ProductJoin": "product_join",
    "GroupBy": "group_by",
    "SemiJoin": "semijoin",
}

_NODE_REQUIRED: dict[str, frozenset] = {
    "scan": frozenset({"table"}),
    "index_scan": frozenset({"table", "predicate"}),
    "select": frozenset({"predicate", "inputs"}),
    "product_join": frozenset({"method", "inputs"}),
    "group_by": frozenset({"method", "group_names", "inputs"}),
    "semijoin": frozenset({"semijoin_kind", "inputs"}),
}
_NODE_CHILDREN: dict[str, int] = {
    "scan": 0,
    "index_scan": 0,
    "select": 1,
    "product_join": 2,
    "group_by": 1,
    "semijoin": 2,
}


def explain_document(
    optimization,
    query=None,
    execution: IOStats | None = None,
    operators: Sequence[OperatorProfile] | None = None,
    calibration=None,
) -> dict:
    """The full EXPLAIN (FORMAT JSON) document for one planned query.

    ``optimization`` is an
    :class:`~repro.optimizer.base.OptimizationResult`; pass
    ``execution`` (and optionally the per-operator ``operators``
    breakdown from a :class:`~repro.obs.trace.QueryTracer`) to produce
    the ANALYZE form.  ``calibration`` adds per-node ``actual`` blocks
    and Q-errors to the plan tree (see :func:`plan_explain_dict`).
    """
    doc: dict = {
        "schema": EXPLAIN_SCHEMA,
        "query": None if query is None else str(query),
        "algorithm": optimization.algorithm,
        "estimated_cost": optimization.cost,
        "plans_considered": optimization.plans_considered,
        "planning_seconds": optimization.planning_seconds,
        "plan": plan_explain_dict(optimization.plan, calibration),
        "execution": None,
    }
    if execution is not None or operators is not None:
        doc["execution"] = {
            "totals": None if execution is None else iostats_dict(execution),
            "operators": [
                op.to_dict() for op in (operators or [])
            ],
        }
    return doc


# ----------------------------------------------------------------------
# Metrics / bench documents
# ----------------------------------------------------------------------
def metrics_document(
    metrics: MetricsRegistry | MetricsSnapshot,
    name: str | None = None,
) -> dict:
    """Flat metrics document from a registry or snapshot."""
    snapshot = (
        metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    )
    return {
        "schema": METRICS_SCHEMA,
        "name": name,
        "metrics": snapshot.to_dict(),
    }


def bench_document(
    name: str,
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    metrics: MetricsRegistry | MetricsSnapshot | None = None,
    git_sha: str | None = None,
    suite: str | None = None,
) -> dict:
    """Self-describing benchmark table with embedded metrics.

    ``git_sha`` and ``suite`` stamp provenance into the document so
    the benchmark-history store (:mod:`repro.obs.history`) can record
    which commit produced each run without out-of-band bookkeeping.
    """
    doc = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "title": title,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
        "metrics": metrics_document(
            metrics if metrics is not None else MetricsSnapshot({}),
            name=name,
        ),
    }
    if git_sha is not None:
        doc["git_sha"] = git_sha
    if suite is not None:
        doc["suite"] = suite
    return doc


def trace_document(
    requests: Sequence,
    events: Sequence[Mapping] = (),
    name: str | None = None,
    clock: str = "virtual",
) -> dict:
    """Build a ``repro.trace.v1`` document from request trace entries.

    ``requests`` may hold ready entry dicts or objects exposing
    ``entry()`` (:class:`~repro.obs.trace.RequestTrace`).  ``clock``
    names the timestamp domain: ``virtual`` (simulated cost units —
    deterministic) or ``wall`` (seconds — best effort).
    """
    entries = [
        r if isinstance(r, Mapping) else r.entry() for r in requests
    ]
    return {
        "schema": TRACE_SCHEMA,
        "name": name,
        "clock": clock,
        "requests": [dict(e) for e in entries],
        "events": [dict(e) for e in events],
    }


# ----------------------------------------------------------------------
# Strict validation
# ----------------------------------------------------------------------
def _fail(problems: list[str]) -> None:
    if problems:
        raise ValueError("; ".join(problems))


def _check_keys(
    what: str, data, required: frozenset, problems: list[str],
    optional: frozenset = frozenset(),
) -> bool:
    if not isinstance(data, Mapping):
        problems.append(f"{what}: expected an object, got {type(data).__name__}")
        return False
    keys = set(data)
    missing = sorted(required - keys)
    unknown = sorted(keys - required - optional)
    if missing:
        problems.append(f"{what}: missing keys {missing}")
    if unknown:
        problems.append(f"{what}: unknown keys {unknown}")
    return not missing and not unknown


def validate_metrics_document(doc) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches the schema."""
    problems: list[str] = []
    if _check_keys(
        "metrics document", doc, frozenset({"schema", "name", "metrics"}),
        problems,
    ):
        if doc["schema"] != METRICS_SCHEMA:
            problems.append(
                f"metrics document: schema {doc['schema']!r} != "
                f"{METRICS_SCHEMA!r}"
            )
        _validate_metrics_map(doc["metrics"], problems)
    _fail(problems)


def _validate_metrics_map(metrics, problems: list[str]) -> None:
    if not isinstance(metrics, Mapping):
        problems.append("metrics: expected an object")
        return
    for key in sorted(metrics):
        entry = metrics[key]
        name = base_name(key)
        expected_kind = METRIC_CATALOG.get(name)
        if expected_kind is None and not name.startswith("bench."):
            problems.append(f"metric {key!r}: name not in the catalog")
            continue
        if not isinstance(entry, Mapping) or "kind" not in entry:
            problems.append(f"metric {key!r}: malformed entry")
            continue
        kind = entry["kind"]
        if expected_kind is not None and kind != expected_kind:
            problems.append(
                f"metric {key!r}: kind {kind!r}, catalog says "
                f"{expected_kind!r}"
            )
            continue
        allowed = _ENTRY_KEYS.get(kind)
        if allowed is None:
            problems.append(f"metric {key!r}: unknown kind {kind!r}")
            continue
        _check_keys(f"metric {key!r}", entry, allowed, problems)
        if kind == "histogram" and set(entry) == set(allowed):
            if len(entry["counts"]) != len(entry["bounds"]) + 1:
                problems.append(
                    f"metric {key!r}: counts/bounds length mismatch"
                )


def validate_explain_document(doc) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches the schema."""
    problems: list[str] = []
    top = frozenset({
        "schema", "query", "algorithm", "estimated_cost",
        "plans_considered", "planning_seconds", "plan", "execution",
    })
    if _check_keys("explain document", doc, top, problems):
        if doc["schema"] != EXPLAIN_SCHEMA:
            problems.append(
                f"explain document: schema {doc['schema']!r} != "
                f"{EXPLAIN_SCHEMA!r}"
            )
        _validate_plan_node(doc["plan"], problems, path="plan")
        execution = doc["execution"]
        if execution is not None and _check_keys(
            "execution", execution, frozenset({"totals", "operators"}),
            problems,
        ):
            if execution["totals"] is not None:
                _check_keys(
                    "execution.totals", execution["totals"],
                    frozenset(_IOSTATS_KEYS), problems,
                )
            if isinstance(execution["operators"], list):
                for i, op in enumerate(execution["operators"]):
                    _check_keys(
                        f"execution.operators[{i}]", op, _OPERATOR_KEYS,
                        problems,
                    )
            else:
                problems.append("execution.operators: expected a list")
    _fail(problems)


def _validate_plan_node(node, problems: list[str], path: str) -> None:
    pending = [(node, path)]
    while pending:
        node, path = pending.pop()
        if not isinstance(node, Mapping):
            problems.append(f"{path}: expected an object")
            continue
        op = node.get("op")
        if op not in _NODE_REQUIRED:
            problems.append(f"{path}: unknown op {op!r}")
            continue
        required = _NODE_REQUIRED[op] | {"op", "label"}
        _check_keys(
            path, node, required, problems,
            optional=frozenset({"estimated", "actual", "q_error"}),
        )
        estimated = node.get("estimated")
        if estimated is not None:
            _check_keys(
                f"{path}.estimated", estimated,
                frozenset({"cardinality"}), problems,
                optional=frozenset({"cost", "op_cost"}),
            )
        actual = node.get("actual")
        if actual is not None:
            _check_keys(
                f"{path}.actual", actual, frozenset({"rows"}), problems,
                optional=frozenset({"elapsed"}),
            )
        inputs = node.get("inputs", [])
        if len(inputs) != _NODE_CHILDREN[op]:
            problems.append(
                f"{path}: op {op!r} expects {_NODE_CHILDREN[op]} inputs, "
                f"got {len(inputs)}"
            )
        for i, child in enumerate(inputs):
            pending.append((child, f"{path}.inputs[{i}]"))


def validate_bench_document(doc) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches the schema."""
    problems: list[str] = []
    top = frozenset({"schema", "name", "title", "columns", "rows", "metrics"})
    if _check_keys(
        "bench document", doc, top, problems,
        optional=frozenset({"git_sha", "suite"}),
    ):
        if doc["schema"] != BENCH_SCHEMA:
            problems.append(
                f"bench document: schema {doc['schema']!r} != "
                f"{BENCH_SCHEMA!r}"
            )
        if not isinstance(doc["columns"], list):
            problems.append("bench document: columns must be a list")
        elif not isinstance(doc["rows"], list) or any(
            not isinstance(r, list) or len(r) != len(doc["columns"])
            for r in doc["rows"]
        ):
            problems.append(
                "bench document: rows must be lists matching columns"
            )
        try:
            validate_metrics_document(doc["metrics"])
        except ValueError as exc:
            problems.append(f"bench document metrics: {exc}")
    _fail(problems)


_CALIB_SOURCES = frozenset({
    "exact", "inherited", "base_table_stats", "selection",
    "join_selectivity", "group_by_collapse", "semijoin", "unknown",
})
_CALIB_NODE_KEYS = frozenset({
    "op", "label", "estimated_rows", "estimated_cost",
    "actual_rows", "actual_elapsed", "q_error", "source",
})


def validate_calibration_document(doc) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches the schema."""
    problems: list[str] = []
    top = frozenset({
        "schema", "query", "algorithm", "stats_epoch", "nodes",
        "plan_q_error", "mean_q_error", "dominant", "audit",
    })
    if _check_keys("calibration document", doc, top, problems):
        if doc["schema"] != CALIBRATION_SCHEMA:
            problems.append(
                f"calibration document: schema {doc['schema']!r} != "
                f"{CALIBRATION_SCHEMA!r}"
            )
        nodes = doc["nodes"]
        if not isinstance(nodes, list) or not nodes:
            problems.append(
                "calibration document: nodes must be a non-empty list"
            )
        else:
            for i, node in enumerate(nodes):
                if not _check_keys(
                    f"nodes[{i}]", node, _CALIB_NODE_KEYS, problems
                ):
                    continue
                if node["op"] not in frozenset(_OP_NAMES.values()):
                    problems.append(
                        f"nodes[{i}]: unknown op {node['op']!r}"
                    )
                q = node["q_error"]
                if q is not None and (
                    not isinstance(q, (int, float)) or q < 1.0
                ):
                    problems.append(
                        f"nodes[{i}]: q_error must be >= 1.0, got {q!r}"
                    )
                source = node["source"]
                if source is not None and source not in _CALIB_SOURCES:
                    problems.append(
                        f"nodes[{i}]: unknown source {source!r}"
                    )
                if (q is None) != (node["actual_rows"] is None):
                    problems.append(
                        f"nodes[{i}]: q_error and actual_rows must be "
                        "both present or both absent"
                    )
        for field in ("plan_q_error", "mean_q_error"):
            value = doc[field]
            if not isinstance(value, (int, float)) or value < 1.0:
                problems.append(
                    f"calibration document: {field} must be >= 1.0, "
                    f"got {value!r}"
                )
        dominant = doc["dominant"]
        if dominant is not None:
            _check_keys(
                "dominant", dominant,
                frozenset({"label", "q_error", "source"}), problems,
            )
        audit = doc["audit"]
        if audit is not None and _check_keys(
            "audit", audit, frozenset({"candidates", "plan_regret"}),
            problems,
        ):
            if not isinstance(audit["candidates"], list):
                problems.append("audit.candidates: expected a list")
            else:
                for i, cand in enumerate(audit["candidates"]):
                    _check_keys(
                        f"audit.candidates[{i}]", cand,
                        frozenset({
                            "algorithm", "estimated_cost", "actual_cost",
                            "chosen",
                        }),
                        problems,
                    )
            regret = audit["plan_regret"]
            if not isinstance(regret, (int, float)) or regret < 1.0:
                problems.append(
                    f"audit: plan_regret must be >= 1.0, got {regret!r}"
                )
    _fail(problems)


_TRACE_REQUEST_KEYS = frozenset({
    "request_id", "tenant", "stats_epoch", "status", "reason", "root",
})
_SPAN_KEYS = frozenset({
    "name", "kind", "start", "end", "cost", "attributes", "events",
    "children",
})
_TRACE_STATUSES = frozenset({"ok", "shed", "error"})

# An admitted-and-completed request's span tree must link the serving
# lifecycle end to end; operator spans then hang off the dispatch span.
_REQUIRED_OK_KINDS = frozenset({"admission", "queue", "dispatch"})


def _validate_span_tree(what: str, root, problems: list[str]) -> None:
    stack = [(what, root)]
    while stack:
        label, span = stack.pop()
        if not _check_keys(label, span, _SPAN_KEYS, problems):
            continue
        if span["kind"] not in SPAN_KINDS:
            problems.append(f"{label}: unknown span kind {span['kind']!r}")
        if span["end"] is None:
            problems.append(f"{label}: span left open (end is None)")
        elif span["end"] < span["start"]:
            problems.append(
                f"{label}: end {span['end']!r} < start {span['start']!r}"
            )
        events = span["events"]
        if not isinstance(events, list):
            problems.append(f"{label}: events must be a list")
        else:
            for i, event in enumerate(events):
                if (
                    not isinstance(event, Mapping)
                    or "name" not in event
                    or "at" not in event
                ):
                    problems.append(
                        f"{label}.events[{i}]: needs 'name' and 'at'"
                    )
        children = span["children"]
        if not isinstance(children, list):
            problems.append(f"{label}: children must be a list")
            continue
        for i, child in enumerate(children):
            stack.append((f"{label}.children[{i}]", child))


def validate_trace_document(doc) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches the schema."""
    problems: list[str] = []
    top = frozenset({"schema", "name", "clock", "requests", "events"})
    if _check_keys("trace document", doc, top, problems):
        if doc["schema"] != TRACE_SCHEMA:
            problems.append(
                f"trace document: schema {doc['schema']!r} != "
                f"{TRACE_SCHEMA!r}"
            )
        if doc["clock"] not in {"virtual", "wall"}:
            problems.append(
                f"trace document: unknown clock {doc['clock']!r}"
            )
        events = doc["events"]
        if not isinstance(events, list):
            problems.append("trace document: events must be a list")
        else:
            for i, event in enumerate(events):
                if (
                    not isinstance(event, Mapping)
                    or "name" not in event
                    or "at" not in event
                ):
                    problems.append(
                        f"events[{i}]: needs 'name' and 'at'"
                    )
        requests = doc["requests"]
        if not isinstance(requests, list):
            problems.append("trace document: requests must be a list")
            requests = []
        for i, entry in enumerate(requests):
            what = f"requests[{i}]"
            if not _check_keys(what, entry, _TRACE_REQUEST_KEYS, problems):
                continue
            status = entry["status"]
            if status not in _TRACE_STATUSES:
                problems.append(f"{what}: unknown status {status!r}")
            reason = entry["reason"]
            if status == "shed":
                if reason not in SHED_REASONS:
                    problems.append(
                        f"{what}: shed without a typed reason "
                        f"(got {reason!r})"
                    )
            elif reason is not None:
                problems.append(
                    f"{what}: reason {reason!r} on non-shed status "
                    f"{status!r}"
                )
            root = entry["root"]
            _validate_span_tree(f"{what}.root", root, problems)
            if not isinstance(root, Mapping):
                continue
            if root.get("kind") == "request" and status == "ok":
                kinds = {
                    c.get("kind")
                    for c in root.get("children", ())
                    if isinstance(c, Mapping)
                }
                missing = sorted(_REQUIRED_OK_KINDS - kinds)
                if missing:
                    problems.append(
                        f"{what}: completed request missing lifecycle "
                        f"spans {missing}"
                    )
    _fail(problems)
