"""Outside-in layer tracing: class-level wrappers around public entry points.

The benchmark's traced run installs :class:`Recorder` wrappers on the
public methods each simulator layer exposes (``Cache.lookup``,
``PageWalker.walk_virtualized``, ``runner.run_point`` ...).  Nothing in
``src/`` changes: the wrappers replace class or module attributes for the
duration of one pass and are removed afterwards.

Every wrapped call keeps three aggregates per metric key: calls,
inclusive seconds and self seconds.  Self time is a call's duration minus
the time of the wrapped calls nested inside it, so a layer is charged
only for its own code.  Wrappers return whatever the wrapped function
returns and never touch simulator state, so a traced run must produce
results bit-identical to an untraced one (the benchmark checks this).

Points, store saves, store loads and exhibit renders are also recorded as
spans (name, id, parent id, start, end) that share the point's id.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Aggregate slots of one metric key.
CALLS, INCLUSIVE, SELF, HITS, UNITS = range(5)


class Recorder:
    """In-memory per-key aggregates plus a span list for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[dict] = []
        # One frame per wrapped call in flight: [time of nested wrapped
        # calls, span id or None].
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def stat(self, key: str) -> List[float]:
        """The mutable ``[calls, inclusive, self, hits, units]`` of a key."""
        slot = self.stats.get(key)
        if slot is None:
            slot = self.stats[key] = [0, 0.0, 0.0, 0, 0]
        return slot

    def reset(self) -> None:
        """Forget everything recorded (a forked child starts clean)."""
        self.stats.clear()
        self.spans.clear()
        self._stack.clear()

    def current_span(self) -> Optional[str]:
        """The id of the innermost open span, if any."""
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def timed(
        self,
        function: Callable,
        key_of: Callable[[tuple], str],
        observe: Optional[Callable[[List[float], tuple, object], None]] = None,
        span_of: Optional[Callable[[tuple, dict], str]] = None,
        span_name: Optional[str] = None,
    ) -> Callable:
        """Return ``function`` wrapped to charge ``key_of(args)``.

        ``observe(slot, args, result)`` may add hits or units to the
        slot; ``span_of(args, kwargs)`` makes the call a recorded span
        with that id.
        """
        stack = self._stack
        clock = self.clock
        stat = self.stat

        def wrapper(*args, **kwargs):
            span_id = span_of(args, kwargs) if span_of is not None else None
            parent = self.current_span() if span_id is not None else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                slot = stat(key_of(args))
                slot[CALLS] += 1
                slot[INCLUSIVE] += elapsed
                slot[SELF] += elapsed - frame[0]
                if span_id is not None:
                    self.spans.append({
                        "name": span_name, "id": span_id, "parent": parent,
                        "start": start, "end": start + elapsed,
                        "pid": os.getpid(),
                    })
            if observe is not None:
                observe(slot, args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def install(
        self, owner: object, attr: str, key,
        replace: Optional[Callable[[Callable], Callable]] = None, **options
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper (undone by
        :meth:`uninstall`).  ``key`` is a metric key or ``args -> key``;
        ``replace(original)``, if given, makes the function that is timed
        in place of the original."""
        original = owner.__dict__[attr]
        function = original if replace is None else replace(original)
        key_of = key if callable(key) else (lambda args, _key=key: _key)
        setattr(owner, attr, self.timed(function, key_of, **options))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {"stats": self.stats, "spans": self.spans}

    def merge(self, document: dict) -> None:
        """Add another process's :meth:`snapshot` into this recorder."""
        for key, values in document["stats"].items():
            slot = self.stat(key)
            for index, value in enumerate(values):
                slot[index] += value
        self.spans.extend(document["spans"])

    def flush(self, path: str) -> None:
        """Write :meth:`snapshot` atomically to ``path``."""
        temporary = f"{path}.tmp"
        with open(temporary, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(temporary, path)


# ----------------------------------------------------------------------
# The repro layers and how each entry point is charged
# ----------------------------------------------------------------------
def _cache_level(name: str) -> str:
    """``"l2-core0"`` -> ``"l2"``; ``"l3"`` -> ``"l3"``."""
    return name.partition("-")[0]


def _count_truthy(index: Optional[int] = None):
    """Observer adding a hit when the result (or ``result[index]``) is
    not ``None``/``False``."""
    if index is None:
        def observe(slot, args, result):
            if result is not None and result is not False:
                slot[HITS] += 1
    else:
        def observe(slot, args, result):
            if result[index] is not None:
                slot[HITS] += 1
    return observe


def _walk_refs(slot, args, result) -> None:
    slot[UNITS] += result.memory_refs


def _saved_bytes(slot, args, result) -> None:
    slot[UNITS] += os.path.getsize(result)


def install_layers(recorder: Recorder, child_dir: Optional[str] = None) -> None:
    """Wrap every layer's public entry points at class/module level.

    ``child_dir`` (campaign pool): a forked worker's ``run_point`` call
    resets the inherited recorder on entry and flushes the child's
    aggregates to ``<child_dir>/<pid>.json`` on return, so pool children
    are attributed too.
    """
    from repro.core.partitioning import PartitionController
    from repro.experiments import runner
    from repro.experiments.store import ResultStore, signature_key
    from repro.mem.cache import Cache
    from repro.mem.dram import DramChannel
    from repro.sim import engine
    from repro.sim.scheduler import ContextScheduler
    from repro.tlb.pom_tlb import PomTlb
    from repro.tlb.tlb import L1TlbPair, Tlb
    from repro.vm.walker import PageWalker, VirtualMachine
    from repro.workloads import base, programs

    levels: Dict[str, str] = {}

    def cache_key(operation: str):
        def key_of(args) -> str:
            name = args[0].name
            key = levels.get((name, operation))
            if key is None:
                key = levels[(name, operation)] = (
                    f"mem.cache.{_cache_level(name)}.{operation}"
                )
            return key
        return key_of

    def counting_row_hits(access):
        """``DramChannel.access`` adding a hit whenever the channel's own
        ``stats.row_hits`` counter moves during the call."""
        def access_counting_row_hits(channel, address):
            before = channel.stats.row_hits
            latency = access(channel, address)
            if channel.stats.row_hits != before:
                recorder.stat("mem.dram.access")[HITS] += 1
            return latency
        return access_counting_row_hits

    def switched(slot, args, result) -> None:
        if result:
            slot[HITS] += 1

    def point_id(args, kwargs) -> str:
        signature = runner.point_signature(*args, **{
            key: value for key, value in kwargs.items()
            if key not in ("checkpoint_every", "checkpoint_dir", "restore")
        })
        return signature_key(signature)[:16]

    def store_point_id(args, kwargs) -> str:
        signature = args[1] if len(args) > 1 else kwargs["signature"]
        return signature_key(signature)[:16]

    def run_span_id(args, kwargs) -> str:
        parent = recorder.current_span()
        return f"{parent}/run" if parent is not None else "run"

    install = recorder.install
    install(base.BatchedStream, "take", "workloads.take")
    # Programs call the sampler through their own module's name binding.
    install(programs, "zipf_page_sampler", "workloads.zipf")
    install(engine, "run_simulation", "sim.run",
            span_of=run_span_id, span_name="sim.run")
    install(runner, "run_simulation", "sim.run",
            span_of=run_span_id, span_name="sim.run")
    install(ContextScheduler, "maybe_switch", "sim.scheduler",
            observe=switched)
    install(L1TlbPair, "lookup", "tlb.l1", observe=_count_truthy())
    install(Tlb, "lookup", "tlb.l2", observe=_count_truthy())
    install(PomTlb, "probe", "tlb.pom", observe=_count_truthy())
    install(PomTlb, "probe_with_address", "tlb.pom",
            observe=_count_truthy(0))
    install(PageWalker, "walk_native", "vm.walk.native", observe=_walk_refs)
    install(PageWalker, "walk_virtualized", "vm.walk.virtualized",
            observe=_walk_refs)
    install(VirtualMachine, "ensure_mapped", "vm.ensure_mapped")
    install(Cache, "lookup", cache_key("lookup"), observe=_count_truthy())
    install(Cache, "fill", cache_key("fill"))
    install(DramChannel, "access", "mem.dram.access",
            replace=counting_row_hits)
    install(PartitionController, "observe", "core.partitioning.observe")
    install(PartitionController, "repartition",
            "core.partitioning.repartition")
    install(ResultStore, "save", "experiments.store.save",
            observe=_saved_bytes, span_of=store_point_id,
            span_name="experiments.store.save")
    install(ResultStore, "load", "experiments.store.load",
            span_of=store_point_id, span_name="experiments.store.load")

    install(runner, "run_point", "experiments.runner.run_point",
            span_of=point_id, span_name="experiments.runner.run_point")
    if child_dir is not None:
        # Uninstalling restores the original recorded by the line above.
        traced_run_point = runner.run_point
        parent_pid = os.getpid()

        def run_point_in_child(*args, **kwargs):
            if os.getpid() == parent_pid:
                return traced_run_point(*args, **kwargs)
            recorder.reset()
            try:
                return traced_run_point(*args, **kwargs)
            finally:
                recorder.flush(os.path.join(child_dir, f"{os.getpid()}.json"))

        runner.run_point = run_point_in_child


def render_span(recorder: Recorder, name: str, experiment: Callable) -> Callable:
    """An exhibit callable timed as one ``experiments.report.render``
    span whose id is the exhibit name."""
    return recorder.timed(
        experiment, lambda args: "experiments.report.render",
        span_of=lambda args, kwargs: name,
        span_name="experiments.report.render",
    )


def merge_children(recorder: Recorder, child_dir: str) -> int:
    """Fold every flushed child snapshot into ``recorder``; returns how
    many children reported."""
    count = 0
    for entry in sorted(os.listdir(child_dir)):
        if entry.endswith(".json"):
            with open(os.path.join(child_dir, entry)) as handle:
                recorder.merge(json.load(handle))
            count += 1
    return count
