"""The traced run: per-layer metrics of one workload, measured from outside.

One traced run makes, in order:

1. ``repro.experiments.bench.run_micro_bench()`` with no wrapper installed,
   for the ns/op cost model;
2. one untraced pass (the base of ``trace.overhead_ratio``, and of the
   pool figures, which need no wrapper);
3. one traced pass with every layer wrapped (:mod:`tracing`), whose
   results must be digest-identical to the untraced pass;
4. for workloads whose points carry the cycle-accounting ledger, every
   point once more with the ledger and once without, back to back, for
   ``telemetry.accounting.*``.

Both passes are timed including their output check, so the store reads
of ``campaign_pool``'s check fall inside the traced wall they explain.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from tracing import (
    CALLS, HITS, INCLUSIVE, SELF, UNITS, Recorder, install_layers,
    merge_children, render_span,
)

#: Cache levels reported, by ``Cache.name`` prefix.
CACHE_LEVELS = ("l1d", "l2", "l3")


def child_cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def _pass(workload, index: int):
    """Run and check one pass; ``(wall, child cpu, outcomes, facts)``."""
    started, child_cpu = time.perf_counter(), child_cpu_seconds()
    report = workload.run_pass(index)
    outcomes = report.outcomes()
    wall = time.perf_counter() - started
    child_cpu = child_cpu_seconds() - child_cpu
    workload.finish_pass(index)
    return wall, child_cpu, outcomes, report.facts


def accounting_overhead(signatures, digests: dict, checker) -> tuple:
    """Seconds the cycle-accounting ledger adds over the same points run
    bare, and that as a share of the bare time.

    Each point goes through ``runner.run_point`` once more, with the
    runner's ``run_simulation`` replaced by a twin that runs the point
    twice back to back: as ``run_point`` asks, with
    ``Telemetry(accounting=CycleAccountant())``, and with
    ``telemetry=None``.  Which goes first alternates from point to point
    so host drift cancels.  Zipf table builds (paid by whichever run comes
    first) are timed by a wrapper and taken out of both.  Each ledgered
    result must match the pass's digest for the point, and each bare
    result must equal its ledgered twin once the CPI stack is set aside.
    """
    from points import fresh_process_state, point_label, result_digest
    from repro.experiments import runner
    from repro.experiments.store import strip_host_fields
    from repro.workloads import programs

    run_simulation = runner.run_simulation
    seconds = {True: 0.0, False: 0.0}
    results = {}
    order = []

    def ledgered_and_bare(config, workloads, **kwargs):
        for ledger in order:
            tables = zipf.stat("zipf")[INCLUSIVE]
            started = time.perf_counter()
            results[ledger] = run_simulation(
                config, workloads,
                **(kwargs if ledger else dict(kwargs, telemetry=None)),
            )
            seconds[ledger] += (
                time.perf_counter() - started
                - (zipf.stat("zipf")[INCLUSIVE] - tables)
            )
        return results[True]

    zipf = Recorder()
    zipf.install(programs, "zipf_page_sampler", "zipf")
    runner.run_simulation = ledgered_and_bare
    fresh_process_state()
    try:
        for index, signature in enumerate(signatures):
            label = point_label(signature)
            order[:] = (True, False) if index % 2 == 0 else (False, True)
            results.clear()
            ledgered = runner.run_point(**runner.point_from_signature(signature))
            checker.require(
                result_digest(ledgered) == digests.get(label),
                f"{label}: the ledgered re-run differs from the pass",
            )
            ledgered, bare = (
                dict(strip_host_fields(results[ledger].to_dict()),
                     cpi_stack=None)
                for ledger in (True, False)
            )
            checker.require(ledgered == bare,
                            f"{label}: the ledger changed the simulated result")
    finally:
        runner.run_simulation = run_simulation
        zipf.uninstall()
    overhead = seconds[True] - seconds[False]
    return overhead, overhead / seconds[False]


def micro_costs() -> dict:
    """``component -> seconds per operation`` from the micro benchmark."""
    from repro.experiments.bench import run_micro_bench

    document = run_micro_bench()
    return {
        point["point"]: point["ns_per_op"] * 1e-9
        for point in document["points"]
    }


def layer_metrics(stats: dict, micro: dict) -> dict:
    """The per-layer metrics named in ``BENCHMARK.json``."""
    def slot(key):
        return stats.get(key, [0, 0.0, 0.0, 0, 0])

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls_self(prefix, key, calls_name="calls"):
        values = slot(key)
        put(f"{prefix}.{calls_name}", values[CALLS], "count")
        put(f"{prefix}.self_s", values[SELF], "s")

    calls_self("workloads.take", "workloads.take")
    calls_self("workloads.zipf", "workloads.zipf")
    run = slot("sim.run")
    put("sim.run.calls", run[CALLS], "count")
    put("sim.run.s", run[INCLUSIVE], "s")
    put("sim.system.self_s", run[SELF], "s")
    scheduler = slot("sim.scheduler")
    put("sim.scheduler.switches", scheduler[HITS], "count")
    put("sim.scheduler.self_s", scheduler[SELF], "s")
    for level, call_name in (("l1", "lookup.calls"), ("l2", "lookup.calls"),
                             ("pom", "probe.calls")):
        values = slot(f"tlb.{level}")
        put(f"tlb.{level}.{call_name}", values[CALLS], "count")
        put(f"tlb.{level}.hit_ratio", ratio(values[HITS], values[CALLS]),
            "ratio")
        put(f"tlb.{level}.self_s", values[SELF], "s")
    native, virtual = slot("vm.walk.native"), slot("vm.walk.virtualized")
    walks = native[CALLS] + virtual[CALLS]
    put("vm.walk.calls", walks, "count")
    put("vm.walk.self_s", native[SELF] + virtual[SELF], "s")
    put("vm.walk.refs_per_walk",
        ratio(native[UNITS] + virtual[UNITS], walks), "refs/walk")
    calls_self("vm.ensure_mapped", "vm.ensure_mapped")
    for level in CACHE_LEVELS:
        lookup = slot(f"mem.cache.{level}.lookup")
        fill = slot(f"mem.cache.{level}.fill")
        prefix = f"mem.cache.{level}"
        put(f"{prefix}.lookup.calls", lookup[CALLS], "count")
        put(f"{prefix}.hit_ratio", ratio(lookup[HITS], lookup[CALLS]), "ratio")
        put(f"{prefix}.lookup.self_s", lookup[SELF], "s")
        put(f"{prefix}.fill.calls", fill[CALLS], "count")
        put(f"{prefix}.fill.self_s", fill[SELF], "s")
    dram = slot("mem.dram.access")
    put("mem.dram.access.calls", dram[CALLS], "count")
    put("mem.dram.self_s", dram[SELF], "s")
    put("mem.dram.row_hit_ratio", ratio(dram[HITS], dram[CALLS]), "ratio")
    for part in ("observe", "repartition"):
        values = slot(f"core.partitioning.{part}")
        put(f"core.partitioning.{part}.calls", values[CALLS], "count")
        put(f"core.partitioning.{part}.self_s", values[SELF], "s")
    point = slot("experiments.runner.run_point")
    put("experiments.runner.run_point.calls", point[CALLS], "count")
    put("experiments.runner.run_point.s", point[INCLUSIVE], "s")
    save = slot("experiments.store.save")
    calls_self("experiments.store.save", "experiments.store.save")
    put("experiments.store.save.bytes", save[UNITS], "bytes")
    calls_self("experiments.store.load", "experiments.store.load")
    put("experiments.report.render_s",
        slot("experiments.report.render")[INCLUSIVE], "s")

    # Micro cost model: calls x isolated ns/op beside the measured self
    # time.  The fill micro times a missing lookup plus the fill.
    lookups = sum(slot(f"mem.cache.{level}.lookup")[CALLS] for level in CACHE_LEVELS)
    fills = sum(slot(f"mem.cache.{level}.fill")[CALLS] for level in CACHE_LEVELS)
    predicted = {
        "mem.cache": lookups * micro["cache.lookup"]
        + fills * max(0.0, micro["cache.fill"] - micro["cache.lookup"]),
        "tlb": (slot("tlb.l1")[CALLS] + slot("tlb.l2")[CALLS])
        * micro["tlb.lookup"],
        "vm.walk": native[CALLS] * micro["walk.native"]
        + virtual[CALLS] * micro["walk.virtualized"],
    }
    measured = (
        sum(slot(f"mem.cache.{level}.{op}")[SELF]
            for level in CACHE_LEVELS for op in ("lookup", "fill"))
        + slot("tlb.l1")[SELF] + slot("tlb.l2")[SELF]
        + native[SELF] + virtual[SELF]
    )
    for layer, seconds in predicted.items():
        put(f"{layer}.micro_s", seconds, "s")
    put("trace.micro_explained_fraction",
        ratio(sum(predicted.values()), measured), "ratio")
    return out


def traced_run(args, workload, checker, out_root: str) -> dict:
    micro = micro_costs()
    wall_untraced, child_cpu, outcomes, facts = _pass(workload, 0)
    untraced = checker.check(outcomes)

    recorder = Recorder()
    child_dir = None
    if workload.jobs > 1:
        child_dir = os.path.join(workload.work_dir, "trace-children")
        os.makedirs(child_dir, exist_ok=True)
    install_layers(recorder, child_dir)
    # Exhibit renders are timed by wrapping the workload's own exhibits.
    experiments = getattr(workload, "experiments", None)
    if experiments is not None:
        workload.experiments = [
            (name, render_span(recorder, name, experiment))
            for name, experiment in experiments
        ]
    try:
        wall_traced, _, outcomes, _ = _pass(workload, 1)
    finally:
        recorder.uninstall()
        if experiments is not None:
            workload.experiments = experiments
    children = merge_children(recorder, child_dir) if child_dir else 0
    traced = checker.check(outcomes)
    checker.require(traced == untraced,
                    "tracing changed a result digest")

    overhead_s = overhead_ratio = 0.0
    if workload.signatures:
        overhead_s, overhead_ratio = accounting_overhead(
            workload.signatures, untraced, checker
        )

    metrics = layer_metrics(recorder.stats, micro)

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("telemetry.accounting.overhead_s", overhead_s, "s")
    put("telemetry.accounting.overhead_ratio", overhead_ratio, "ratio")
    put("experiments.pool.points", facts.get("points", 0), "count")
    put("experiments.pool.retries", facts.get("retries", 0), "count")
    put("experiments.pool.failures", facts.get("failures", 0), "count")
    pooled = workload.jobs > 1
    put("experiments.pool.child_cpu_s", child_cpu if pooled else 0.0, "s")
    put("experiments.pool.parallel_efficiency",
        child_cpu / (workload.jobs * wall_untraced) if pooled else 0.0,
        "ratio")
    explained = sum(values[SELF] for values in recorder.stats.values())
    put("trace.overhead_ratio", wall_traced / wall_untraced, "ratio")
    put("trace.explained_fraction",
        explained / (wall_traced * workload.jobs), "ratio")

    os.makedirs(out_root, exist_ok=True)
    path = os.path.join(
        out_root, f"{workload.name}-seed{args.seed}-trace.json"
    )
    with open(path, "w") as handle:
        json.dump({
            "workload": workload.name,
            "seed": args.seed,
            "simulation_seed": workload.sim_seed,
            "micro_seconds_per_op": micro,
            "pool_children_reported": children,
            "wall_untraced_s": wall_untraced,
            "wall_traced_s": wall_traced,
            "metrics": metrics,
            **recorder.snapshot(),
        }, handle)
    print(f"{workload.name}: trace written to {path}", file=sys.stderr)
    return metrics
