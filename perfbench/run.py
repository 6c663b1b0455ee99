#!/usr/bin/env python3
"""Wall-clock benchmark of the MPF engine.

Run from the repository root::

    python3 perfbench/run.py --workload olap_table1 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
its times are scaled to a reference host speed (``hostspeed.py``) and
also printed as measured.  ``--trace 1`` runs a fixed prefix of each
closed-loop phase untraced and then, on fresh state, traced with each
layer's entry points wrapped (``tracing.py``), and reports per-layer
metrics and the tracing overhead.  ``--workload all`` runs every
workload, each in its own process.

Every run checks its answers after the timed region and self-checks
that structural counts repeat exactly between two fresh replays of its
seed.  Each metric is
printed by name with its unit and sample count; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every answer is correct.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("olap_table1", "olap_sharded", "bn_inference", "serve_mixed")

# Set-up runs on fresh state several times and its median is reported:
# twice for the count self-check, once for the measured state, and again
# after the timed region until there are SETUP_MIN_REPS samples and
# SETUP_TARGET_S seconds of them.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 41
SETUP_TARGET_S = 2.0

# Structural counts that must repeat exactly for a seed.
COUNTED_KEYS = ("optimizer.plans_considered", "algebra.rows_in",
                "storage.page_reads", "plans.shard_tasks",
                "serve.plan_cache_hits", "gi.hits", "gi.misses",
                "gi.evictions")

# The metrics of the JSON line: every workload reports each of them
# (BENCHMARK.json lists the same names).  Workload-specific figures,
# such as the open-loop serving tails, are printed above that line.
END_TO_END = ("setup_s", "query_p50_ms", "query_p90_ms", "throughput_qps",
              "peak_rss_mb")
PER_LAYER = (
    "datagen.generate_s", "catalog.register_s",
    "query.parse_calls",
    "optimizer.optimize_s", "optimizer.calls", "optimizer.plans_considered",
    "optimizer.share",
    "cost.rank_corr",
    "plans.lower_s", "plans.lower_calls", "plans.execute_s",
    "plans.operator_self_s", "plans.shard_tasks",
    "algebra.group_index_s", "algebra.group_index_calls", "algebra.join_s",
    "algebra.join_match_s", "algebra.marginalize_s", "algebra.restrict_s",
    "algebra.rows_in", "algebra.gi_cache_hit_ratio",
    "algebra.gi_cache_evictions",
    "storage.page_reads", "storage.buffer_hit_ratio",
    "workload.cache_tuples",
    "serve.plan_cache_hit_ratio", "serve.shed",
    "obs.publish_s", "obs.publish_calls", "obs.metric_lookups", "obs.share",
    "trace.overhead_ratio", "error_rate",
)


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {src}"
        )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolating between ranks."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spearman(xs, ys) -> float:
    """Spearman's rank correlation (average ranks for ties)."""
    if len(xs) < 3:
        return 0.0

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2
            i = j + 1
        return out

    try:
        return statistics.correlation(ranks(xs), ranks(ys))
    except statistics.StatisticsError:
        return 0.0


def counter_total(snapshot: dict, name: str) -> float:
    """A counter summed over all its label sets in a snapshot dict."""
    return sum(
        entry.get("value", 0) for key, entry in snapshot.items()
        if key == name or key.startswith(name + "{")
    )


# ----------------------------------------------------------------------
# Loops
# ----------------------------------------------------------------------
def is_failure(result) -> bool:
    """A typed engine error, or a request that was shed or failed."""
    from repro.errors import MPFError

    return (isinstance(result, MPFError)
            or getattr(result, "status", "ok") != "ok")


def is_read(item) -> bool:
    return not (isinstance(item, tuple) and item[0] == "reload")


def closed_loop(op, items, budget_s, limit=None, speed=None, key=""):
    """One client: each operation starts when the previous one ended.

    Stops after ``budget_s`` seconds or ``limit`` operations.  Returns
    ``[(item, result, latency_s)]`` and the loop's wall time.  A typed
    engine error is recorded as the result.  Given a ``HostSpeed``, the
    reference kernel runs between operations, sampled under ``key``; its
    time is left out of the loop's wall time and budget.
    """
    from repro.errors import MPFError

    clock = time.perf_counter

    def paused():
        return speed.paused_s if speed else 0.0

    records = []
    start = clock() - paused()
    for item in items:
        if speed:
            speed.due(key)
        t0 = clock()
        try:
            result = op(item)
        except MPFError as exc:
            result = exc
        end = clock()
        records.append((item, result, end - t0))
        if (end - start - paused() >= budget_s
                or (limit and len(records) >= limit)):
            break
    return records, clock() - start - paused()


def run_phases(workload, state, seconds, loops=("closed", "open"),
               prefixes=None, wrap=None, speed=None):
    """Run the workload's phases of the given loop kinds in order.

    A closed phase measures for its share of ``seconds``, or, given
    ``prefixes``, runs exactly that list of operations.  ``wrap(kind,
    op)`` decorates each closed-loop operation; ``speed`` samples the
    host between them.  Returns records and wall time per phase, and the
    open-loop generator lags.
    """
    records, walls, lags = {}, {}, []
    for phase in workload.phases:
        if phase.loop not in loops:
            continue
        if phase.loop == "open":
            records[phase.name], lags = workload.open_loop(
                state, seconds * phase.share
            )
            continue
        op = workload.start(state, phase.name)
        if wrap is not None:
            op = wrap(phase.name, op)
        if prefixes is None:
            records[phase.name], walls[phase.name] = closed_loop(
                op, workload.items(phase.name), seconds * phase.share,
                speed=speed, key=phase.name,
            )
        else:
            items = prefixes[phase.name]
            records[phase.name], walls[phase.name] = closed_loop(
                op, items, seconds, limit=len(items), speed=speed,
                key=phase.name,
            )
    return records, walls, lags


def reset_process_caches() -> None:
    """Empty the process-wide group-index cache, so every measured state
    starts cold as in a fresh process."""
    from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE

    DEFAULT_GROUP_INDEX_CACHE.clear()
    gc.collect()


def gi_counters() -> tuple[int, int, int]:
    from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE

    return DEFAULT_GROUP_INDEX_CACHE.counters()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, speed=None):
    """Fresh state and its set-up time; ``speed`` samples the host just
    before."""
    if speed:
        speed.sample("setup")
    t0 = time.perf_counter()
    state = workload.setup()
    return state, time.perf_counter() - t0


# ----------------------------------------------------------------------
# Count self-check
# ----------------------------------------------------------------------
def probe_counts(workload, speed=None) -> tuple[dict, float]:
    """On fresh state, run each closed phase's probe prefix with the
    tracer installed; return the structural counts and set-up time."""
    from tracing import Tracer, install_layers

    state, setup_s = timed_setup(workload, speed)
    reset_process_caches()
    prefixes = {
        phase.name: list(take(workload.items(phase.name), phase.probe_ops))
        for phase in workload.phases if phase.loop == "closed"
    }
    tracer = Tracer()
    install_layers(tracer)
    try:
        run_phases(workload, state, 60.0, ("closed",), prefixes)
    finally:
        tracer.uninstall()
    snap = state.registry.snapshot().to_dict()
    hits, misses, evictions = gi_counters()
    counts = {
        "optimizer.plans_considered":
            tracer.counts["optimizer.plans_considered"],
        "algebra.rows_in": tracer.counts["algebra.rows_in"],
        "storage.page_reads": counter_total(snap, "query.page_reads"),
        "plans.shard_tasks": counter_total(snap, "shard.tasks"),
        "serve.plan_cache_hits": counter_total(snap, "serve.plan_cache.hits"),
        "gi.hits": hits, "gi.misses": misses, "gi.evictions": evictions,
    }
    del state
    reset_process_caches()
    return counts, setup_s


def self_check_counts(first, second) -> list[str]:
    """Counts must agree between two replays, each on fresh state."""
    return [
        f"count {k} drifted between two fresh replays: "
        f"{first[k]} vs {second[k]}"
        for k in COUNTED_KEYS if first[k] != second[k]
    ]


def take(iterator, n):
    return (item for _, item in zip(range(n), iterator))


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def attempted_failed(records) -> tuple[int, int]:
    results = [result for r in records.values() for _, result, _ in r]
    return len(results), sum(1 for result in results if is_failure(result))


def primary_figures(workload, records, walls) -> dict:
    """Query latency and throughput of the first (closed-loop) phase."""
    phase = workload.phases[0].name
    reads = [
        lat for item, result, lat in records[phase]
        if is_read(item) and not is_failure(result)
    ]
    done = sum(1 for _, result, _ in records[phase] if not is_failure(result))
    return {
        "query_p50_ms": (percentile(reads, 50) * 1e3, "ms", len(reads)),
        "query_p90_ms": (percentile(reads, 90) * 1e3, "ms", len(reads)),
        "throughput_qps": (done / walls[phase], "1/s", done),
    }


def secondary_figures(workload, records, lags) -> dict:
    """Workload-specific figures: VE-cache latency (``bn_inference``),
    open-loop serving latency, SLO attainment, queue wait, generator lag
    and reload latency (``serve_mixed``)."""
    out = {}
    if "cached" in records:
        cached = [lat for _, r, lat in records["cached"] if not is_failure(r)]
        out["cached_p50_ms"] = (percentile(cached, 50) * 1e3, "ms",
                                len(cached))
        out["cached_p90_ms"] = (percentile(cached, 90) * 1e3, "ms",
                                len(cached))
    if "open" in records:
        opened = [(o, lat) for item, o, lat in records["open"]
                  if is_read(item)]
        ok = [lat for o, lat in opened if not is_failure(o)]
        waits = [o.queue_wait for o, _ in opened if not is_failure(o)]
        met = sum(1 for lat in ok if lat <= workload.limit_s)
        reloads = [lat for r in records.values()
                   for item, _, lat in r if not is_read(item)]
        n = len(opened)
        out.update({
            "serve_p50_ms": (percentile(ok, 50) * 1e3, "ms", len(ok)),
            "serve_p99_ms": (percentile(ok, 99) * 1e3, "ms", len(ok)),
            "slo_attainment": (met / n if n else 0.0, "ratio", n),
            "serve.shed": (sum(1 for o, _ in opened if is_failure(o)),
                           "count", n),
            "serve.queue_wait_p50_ms": (percentile(waits, 50) * 1e3, "ms",
                                        len(waits)),
            "serve.queue_wait_p99_ms": (percentile(waits, 99) * 1e3, "ms",
                                        len(waits)),
            "serve.gen_lag_p99_ms": (percentile(lags, 99) * 1e3, "ms",
                                     len(lags)),
            "reload_p50_ms": (percentile(reloads, 50) * 1e3, "ms",
                              len(reloads)),
        })
    return out


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def measure(workload, seconds):
    """Untraced run: end-to-end metrics."""
    from hostspeed import HostSpeed

    speed = HostSpeed()
    setups, probes = [], []
    for _ in range(2):
        counts, setup_s = probe_counts(workload, speed)
        probes.append(counts)
        setups.append(setup_s)
    errors = self_check_counts(*probes)
    state, setup_s = timed_setup(workload, speed)
    setups.append(setup_s)
    reset_process_caches()

    # Peak memory is read after a fixed number of operations of the
    # first phase, so a faster program that gets further in the time
    # budget does not read as using more memory.
    first = workload.phases[0]
    marks = []

    def mark_rss(kind, op):
        if kind != first.name:
            return op
        done = itertools.count(1)

        def counted(item):
            result = op(item)
            if next(done) == first.trace_ops:
                marks.append(peak_rss_mb())
            return result
        return counted

    records, walls, lags = run_phases(workload, state, seconds,
                                      wrap=mark_rss, speed=speed)
    rss_end = peak_rss_mb()
    errors += workload.check(state, records)
    del state
    reset_process_caches()
    # More set-ups after the timed region, so the samples span the run
    # instead of one moment of a shared machine.
    while len(setups) < SETUP_MAX_REPS and (
        len(setups) < SETUP_MIN_REPS or sum(setups) < SETUP_TARGET_S
    ):
        state, setup_s = timed_setup(workload, speed)
        setups.append(setup_s)
        del state
        reset_process_caches()

    # The JSON metrics are wall times scaled to the reference host by
    # the kernel samples taken while each was measured (hostspeed.py):
    # the first phase's for its figures and, as set-ups are spread over
    # the run, the whole run's for set-up.  The wall times themselves
    # are printed as wall.*.
    walled = {"setup_s": (statistics.median(setups), "s", len(setups))}
    walled.update(primary_figures(workload, records, walls))
    figures = {}
    for name, (value, unit, samples) in walled.items():
        scale = speed.scale(None if name == "setup_s" else first.name)
        scaled = value / scale if unit == "1/s" else value * scale
        figures[name] = (scaled, unit, samples)
    figures["peak_rss_mb"] = (
        (marks[0], "MB", first.trace_ops) if marks
        else (rss_end, "MB", len(records[first.name]))
    )
    for key, samples in speed.samples.items():
        figures[f"host.{key}.kernel_ms"] = (
            speed.median_s(key) * 1e3, "ms", len(samples))
    for name, figure in walled.items():
        figures["wall." + name] = figure
    figures["peak_rss_end_mb"] = (rss_end, "MB", 1)
    attempted, failed = attempted_failed(records)
    figures.update(secondary_figures(workload, records, lags))
    figures["error_rate"] = (failed / attempted, "ratio", attempted)
    return figures, END_TO_END, attempted, failed, errors, probes[0]


def measure_traced(workload, seconds):
    """Traced run: per-layer metrics.

    Each closed phase runs a fixed prefix of its stream three times,
    each time on a freshly set-up state with empty process caches:
    untraced to warm the process up, untraced again, then traced.  The
    ratio of the last two passes' times, each scaled by the host speed
    during it, is the tracing overhead.
    The open loop of ``serve_mixed`` does not run here.
    """
    from hostspeed import HostSpeed
    from tracing import Tracer, install_layers

    probes = [probe_counts(workload)[0] for _ in range(2)]
    errors = self_check_counts(*probes)
    prefixes = {
        phase.name: list(take(workload.items(phase.name), phase.trace_ops))
        for phase in workload.phases if phase.loop == "closed"
    }

    # The first pass leaves the process as warm (allocator arenas,
    # touched pages, lazily built code paths) for the second as the
    # second leaves it for the traced pass.
    passes = []
    for _ in range(2):
        state = workload.setup()
        reset_process_caches()
        untraced_speed = HostSpeed()
        records, _, _ = run_phases(workload, state, seconds, ("closed",),
                                   prefixes, speed=untraced_speed)
        errors += workload.check(state, records)
        passes.append(records)
        del state
        reset_process_caches()
    untraced = passes[-1]

    tracer = Tracer()
    install_layers(tracer)
    try:
        with tracer.operation("setup"):
            state = workload.setup()
        reset_process_caches()
        before = state.registry.snapshot().to_dict()
        gi_before = gi_counters()

        def wrap(kind, op):
            def traced_op(item):
                with tracer.operation(kind):
                    return op(item)
            return traced_op

        traced_speed = HostSpeed()
        traced, _, _ = run_phases(workload, state, seconds, ("closed",),
                                  prefixes, wrap, traced_speed)
    finally:
        tracer.uninstall()
    after = state.registry.snapshot().to_dict()
    gi_after = gi_counters()

    def delta(name):
        return counter_total(after, name) - counter_total(before, name)

    figures = layer_figures(tracer, delta, gi_before, gi_after, state)
    errors += workload.check(state, traced)
    # Each pass's time is scaled by the host speed during it, as the
    # end-to-end figures are, so that drift between the passes cancels.
    traced_s = traced_speed.scale() * sum(
        lat for r in traced.values() for _, _, lat in r)
    untraced_s = untraced_speed.scale() * sum(
        lat for r in untraced.values() for _, _, lat in r)
    figures["trace.overhead_ratio"] = (
        traced_s / untraced_s, "ratio", sum(len(r) for r in traced.values())
    )
    records = {
        name: traced[name] + [r for p in passes for r in p[name]]
        for name in traced
    }
    attempted, failed = attempted_failed(records)
    figures["error_rate"] = (failed / attempted, "ratio", attempted)
    tracer.dump(OUT / f"trace-{workload.name}-{workload.seed}.json",
                {"workload": workload.name, "seed": workload.seed,
                 "figures": {k: v[0] for k, v in figures.items()}})
    return figures, PER_LAYER, attempted, failed, errors, probes[0]


def layer_figures(t, delta, gi_before, gi_after, state) -> dict:
    """Per-layer busy time, self time, calls and counts from the spans
    and counters of the traced prefix."""
    ops = [op for op in t.ops if op[1] != "setup"]
    op_s = sum(op[2] for op in ops) or 1.0
    modeled = [(op[3], op[2]) for op in ops if op[3] > 0]
    gi_hits = gi_after[0] - gi_before[0]
    gi_lookups = gi_hits + gi_after[1] - gi_before[1]
    reads = delta("query.page_reads")
    buffer_hits = delta("query.buffer_hits")
    plan_hits = delta("serve.plan_cache.hits")
    plan_lookups = plan_hits + delta("serve.plan_cache.misses")
    optimize_s = t.busy_s("optimizer.optimize")
    # Telemetry is measured against dispatch time where requests are
    # dispatched (serve_mixed), against operation time elsewhere.
    dispatch_s = t.busy_s("serve.dispatch")
    engines = state.objects.get("engines", ())
    figures = {
        "datagen.generate_s": (t.busy_s("datagen.generate"), "s"),
        "catalog.register_s": (
            t.busy_s("catalog.register", "catalog.partition"), "s"),
        "query.parse_s": (t.busy_s("query.parse"), "s"),
        "query.parse_calls": (t.calls("query.parse"), "count"),
        "optimizer.optimize_s": (optimize_s, "s"),
        "optimizer.calls": (t.calls("optimizer.optimize"), "count"),
        "optimizer.plans_considered": (
            t.counts["optimizer.plans_considered"], "count"),
        "optimizer.share": (optimize_s / op_s, "ratio"),
        "cost.rank_corr": (spearman([m for m, _ in modeled],
                                    [w for _, w in modeled]), "ratio"),
        "plans.lower_s": (t.busy_s("plans.lower"), "s"),
        "plans.lower_calls": (t.calls("plans.lower"), "count"),
        "plans.execute_s": (t.busy_s("plans.execute"), "s"),
        "plans.operator_self_s": (t.self_s("plans.execute"), "s"),
        "plans.shard_tasks": (delta("shard.tasks"), "count"),
        "algebra.group_index_s": (t.busy_s("algebra.group_index"), "s"),
        "algebra.group_index_calls": (t.calls("algebra.group_index"),
                                      "count"),
        "algebra.join_s": (t.busy_s("algebra.join"), "s"),
        "algebra.join_match_s": (t.busy_s("algebra.join_match"), "s"),
        "algebra.marginalize_s": (t.busy_s("algebra.marginalize"), "s"),
        "algebra.restrict_s": (t.busy_s("algebra.restrict"), "s"),
        "algebra.rows_in": (t.counts["algebra.rows_in"], "count"),
        "algebra.gi_cache_hit_ratio": (
            gi_hits / gi_lookups if gi_lookups else 0.0, "ratio"),
        "algebra.gi_cache_evictions": (gi_after[2] - gi_before[2], "count"),
        "storage.page_reads": (reads, "count"),
        "storage.buffer_hit_ratio": (
            buffer_hits / (buffer_hits + reads)
            if buffer_hits + reads else 0.0, "ratio"),
        "workload.cache_build_s": (t.busy_s("workload.cache_build"), "s"),
        "workload.answer_s": (t.busy_s("workload.answer"), "s"),
        "workload.absorb_s": (t.busy_s("workload.absorb"), "s"),
        "workload.cache_tuples": (
            sum(r.ntuples for _, cache in engines
                for r in cache.tables.values()), "count"),
        "serve.admit_s": (t.busy_s("serve.admit"), "s"),
        "serve.dispatch_s": (dispatch_s, "s"),
        "serve.plan_cache_hit_ratio": (
            plan_hits / plan_lookups if plan_lookups else 0.0, "ratio"),
        "serve.shed": (delta("serve.shed"), "count"),
        "serve.reload_s": (t.busy_s("serve.reload"), "s"),
        "obs.publish_s": (t.busy_s("obs.publish"), "s"),
        "obs.publish_calls": (t.calls("obs.publish"), "count"),
        "obs.slo_record_s": (t.busy_s("obs.slo_record"), "s"),
        "obs.metric_lookups": (t.counts["obs.metric_lookups"], "count"),
        "obs.share": (t.busy_s("obs.publish", "obs.slo_record")
                      / (dispatch_s or op_s), "ratio"),
    }
    return {k: (v, unit, len(ops)) for k, (v, unit) in figures.items()}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Every workload, each in its own process."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        ).returncode
        worst = worst or code
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    run = measure_traced if args.trace else measure
    figures, reported, attempted, failed, errors, counts = run(
        workload, args.seconds
    )
    for name, (value, unit, samples) in figures.items():
        print(f"{workload.name:13s} {name:28s} {value:14.6g} {unit:6s} "
              f"n={samples}")
    print(f"{workload.name:13s} counts {json.dumps(counts, sort_keys=True)}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": figures[name][0], "unit": figures[name][1]}
            for name in reported
        },
    }), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
