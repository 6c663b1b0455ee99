"""In-memory span tracer that wraps ``repro`` functions from outside.

The tracer replaces a public function or method *where its caller looks
it up* (for example ``repro.plans.runtime.product_join``, the name the
runtime's operators call) with a wrapper that records one span: name,
start, end, parent span and the operation (request) it belongs to.
Spans stay in memory as tuples; :meth:`Tracer.dump` writes them out once
the run is over.  Nothing inside ``src/`` changes.

Parents come from a per-thread stack.  A span opened on a worker thread
of the partition-parallel scheduler has an empty stack; its parent is
the innermost open span of the thread that runs the operation (the
``plans.execute`` span waiting on the workers).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

_ns = time.perf_counter_ns


class Tracer:
    """Collects spans and counts for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        """``(span_id, name, start_ns, end_ns, parent_id, op_id)``."""
        self.counts: Counter = Counter()
        self.ops: list[tuple[int, str, float, float]] = []
        """``(op_id, kind, wall_s, modeled_cost)`` per finished operation."""
        self._modeled: dict[int, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._op: tuple[int, int] | None = None
        self._op_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_modeled(self, cost: float) -> None:
        """Charge modeled cost (``IOStats.elapsed``) to the current op."""
        if self._op is not None:
            with self._lock:
                self._modeled[self._op[0]] += cost

    @contextmanager
    def operation(self, kind: str):
        """Root span of one operation; nested spans share its op id."""
        op_id, span_id = next(self._op_ids), next(self._span_ids)
        previous = self._op
        self._op = (op_id, span_id)
        stack = self._op_stack = self._stack()
        stack.append(span_id)
        start = _ns()
        try:
            yield
        finally:
            end = _ns()
            stack.pop()
            self._op = previous
            self.spans.append((span_id, "op." + kind, start, end, 0, op_id))
            self.ops.append(
                (op_id, kind, (end - start) / 1e9, self._modeled.pop(op_id, 0.0))
            )

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span around every call of ``owner.attr``.

        ``before(tracer, args)`` and ``after(tracer, result)`` add counts
        at the same boundary.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            span_id = next(tracer._span_ids)
            stack = tracer._stack()
            op = tracer._op
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else 0
            stack.append(span_id)
            start = _ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _ns()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, op[0] if op else 0)
                )
            if after is not None:
                after(tracer, result)
            return result

        self._patch(owner, attr, original, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args, **kwargs):
            tracer.add(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        replacement.__wrapped__ = original
        replacement.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def busy_s(self, *names: str) -> float:
        """Wall time during which at least one span of ``names`` ran."""
        wanted = set(names)
        return _union_ns(
            [(s[2], s[3]) for s in self.spans if s[1] in wanted]
        ) / 1e9

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def self_s(self, name: str) -> float:
        """Summed self time of ``name`` spans: each span's duration
        minus the part of it that its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            children[s[4]].append((s[2], s[3]))
        total = 0
        for s in self.spans:
            if s[1] != name:
                continue
            inner = [
                (max(a, s[2]), min(b, s[3]))
                for a, b in children.get(s[0], ())
            ]
            total += (s[3] - s[2]) - _union_ns(inner)
        return total / 1e9

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["id", "name", "start_ns", "end_ns",
                               "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                out,
            )


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points at their lookup sites."""
    import repro.algebra.aggregate as aggregate
    import repro.algebra.join as join
    import repro.bayes.examples as bayes_examples
    import repro.bayes.inference as bayes_inference
    import repro.catalog.catalog as catalog
    import repro.datagen as datagen
    import repro.engine as engine
    import repro.obs.metrics as metrics
    import repro.obs.slo as slo
    import repro.optimizer.base as optimizer
    import repro.plans.executor as executor
    import repro.plans.runtime as runtime
    import repro.serve.runtime as serve
    import repro.workload.vecache as vecache

    def rows_in_binary(t, args):
        t.add("algebra.rows_in", args[0].ntuples + args[1].ntuples)

    def rows_in_unary(t, args):
        t.add("algebra.rows_in", args[0].ntuples)

    def plans_considered(t, result):
        t.add("optimizer.plans_considered", result.plans_considered)

    def modeled_cost(t, result):
        t.add_modeled(result[1].elapsed())

    w = tracer.wrap
    w(datagen, "supply_chain", "datagen.generate")
    w(bayes_examples, "chain_network", "datagen.generate")
    w(catalog.Catalog, "register", "catalog.register")
    w(catalog.Catalog, "partition_table", "catalog.partition")
    w(engine, "parse_statement", "query.parse")
    w(optimizer.Optimizer, "optimize", "optimizer.optimize",
      after=plans_considered)
    w(runtime, "lower", "plans.lower")
    w(engine, "lower", "plans.lower")
    w(executor.Executor, "run", "plans.execute", after=modeled_cost)
    w(aggregate, "group_index", "algebra.group_index")
    w(join, "group_index", "algebra.group_index")
    w(join, "join_match_indices", "algebra.join_match")
    w(runtime, "product_join", "algebra.join", before=rows_in_binary)
    w(runtime, "marginalize", "algebra.marginalize", before=rows_in_unary)
    w(runtime, "restrict", "algebra.restrict", before=rows_in_unary)
    w(bayes_inference, "build_ve_cache", "workload.cache_build")
    w(vecache.VECache, "answer", "workload.answer")
    w(vecache.VECache, "absorb_evidence", "workload.absorb")
    w(serve.ServingRuntime, "admit", "serve.admit")
    w(serve.ServingRuntime, "dispatch", "serve.dispatch")
    w(serve.ServingRuntime, "reload_table", "serve.reload")
    w(runtime.ExecutionContext, "publish_operator", "obs.publish")
    w(slo.SLOMonitor, "record", "obs.slo_record")
    for attr in ("counter", "gauge", "histogram"):
        tracer.count_calls(metrics.MetricsRegistry, attr, "obs.metric_lookups")
