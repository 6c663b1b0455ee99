"""Differential acceptance for the kernel acceleration layer.

The contract: the group-index cache and the idempotent-semiring
reduceat fast paths are **invisible in results** — byte-identical
outputs and identical structural counters across workers 1, 2, and 4
(partitioned or not) — while the ``kernel.*`` counters record the
cache traffic.
"""

import numpy as np
import pytest

from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.data import complete_relation, var
from repro.engine import Database
from repro.obs.metrics import MetricsRegistry
from repro.plans.runtime import ExecutionContext
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.workload.bp import belief_propagation

WORKER_SWEEP = (1, 2, 4)
TABLES = ("r_ab", "r_bc", "r_cd")


def _result_bytes(relation) -> bytes:
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


def _report_fingerprint(report):
    if report.error is not None:
        return ("error", type(report.error).__name__)
    return ("ok", _result_bytes(report.result))


def _counters(registry, exclude_prefixes=("scheduler.",)) -> dict:
    return {
        key: entry
        for key, entry in registry.snapshot().to_dict().items()
        if not key.startswith(exclude_prefixes)
    }


def _relations():
    rng = np.random.default_rng(20260809)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    return [
        complete_relation([a, b], rng=rng, name="r_ab"),
        complete_relation([b, c], rng=rng, name="r_bc"),
        complete_relation([c, d], rng=rng, name="r_cd"),
    ]


def _db(metrics=None, workers=1, partitioned=False):
    db = Database(metrics=metrics, workers=workers)
    for r in _relations():
        db.register(r)
    if partitioned:
        db.catalog.partition_table("r_ab", "b", 3)
        db.catalog.partition_table("r_bc", "b", 3)
        db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", TABLES)
    return db


def _sixteen_queries():
    view = MPFView("v", TABLES, SUM_PRODUCT)
    queries = [MPFQuery(view, (g,)) for g in ("a", "b", "c", "d")]
    for g, sel in (("a", {"b": 1}), ("b", {"c": 0}), ("c", {"d": 2}),
                   ("d", {"a": 3})):
        queries.append(MPFQuery(view, (g,), selections=sel))
    for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
        queries.append(MPFQuery(view, pair))
    queries.append(MPFQuery(view, ("a",), selections={"a": 0}))
    queries.append(MPFQuery(view, ("b", "d")))
    queries.append(MPFQuery(view, ("a", "c"), selections={"b": 2}))
    queries.append(MPFQuery(view, ("d",), selections={"c": 1}))
    assert len(queries) == 16
    return queries


def _run(workers=1, partitioned=False):
    DEFAULT_GROUP_INDEX_CACHE.clear()
    registry = MetricsRegistry()
    db = _db(metrics=registry, workers=workers, partitioned=partitioned)
    batch = db.run_batch(_sixteen_queries())
    prints = [_report_fingerprint(r) for r in batch.reports]
    return prints, _counters(registry)


class TestKernelWorkerSweep:
    @pytest.mark.parametrize("partitioned", (False, True),
                             ids=("whole", "sharded"))
    def test_sweep_byte_identical_with_kernel_counters(self, partitioned):
        runs = {
            workers: _run(workers=workers, partitioned=partitioned)
            for workers in WORKER_SWEEP
        }
        ref_prints, ref_counters = runs[1]
        # The kernel cache really fired, and its counters are pinned
        # structural counters: identical at every worker count.
        assert ref_counters.get(
            "kernel.groupindex_hits", {"value": 0}
        )["value"] > 0
        assert "kernel.groupindex_misses" in ref_counters
        for workers in WORKER_SWEEP[1:]:
            prints, counters = runs[workers]
            assert prints == ref_prints
            assert counters == ref_counters


class TestBPKernelEquivalence:
    def _chain(self):
        rng = np.random.default_rng(13)
        a, b, c, d = var("a", 3), var("b", 3), var("c", 3), var("d", 3)
        return [
            complete_relation([a, b], rng=rng, name="t_ab"),
            complete_relation([b, c], rng=rng, name="t_bc"),
            complete_relation([c, d], rng=rng, name="t_cd"),
        ]

    def test_bp_messages_worker_invariant(self):
        outputs = {}
        for workers in WORKER_SWEEP:
            DEFAULT_GROUP_INDEX_CACHE.clear()
            ctx = ExecutionContext({}, SUM_PRODUCT, workers=workers)
            result = belief_propagation(
                self._chain(), SUM_PRODUCT, context=ctx
            )
            outputs[workers] = {
                name: _result_bytes(rel)
                for name, rel in result.tables.items()
            }
        ref = outputs[1]
        for workers, got in outputs.items():
            assert got == ref, f"BP diverged at workers={workers}"
