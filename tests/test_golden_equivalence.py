"""Golden-equivalence suite for the optimized datapath.

The optimized datapath — flat-array caches, monomorphic replacement fast
paths, batched stream stepping — must be *bit-identical* to the generic
reference paths through the public results, and the single System
datapath must give the same results whichever telemetry sinks are
attached.  Each test runs the same simulation twice, once per path or
sink bundle, and compares ``SimulationResult.to_dict()`` byte for byte
(host-dependent fields stripped, exactly as the result store does).
"""

from __future__ import annotations

import json

import pytest

from repro.core.schemes import Scheme
from repro.experiments.store import strip_host_fields
from repro.mem.cache import Cache, LineKind, set_fast_paths
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.sim.system import System
from repro.telemetry import (
    CycleAccountant,
    EventTracer,
    HostProfiler,
    MetricsRegistry,
    Telemetry,
)
from repro.workloads.mixes import make_mix
from repro.workloads.programs import ConnectedComponent, Gups

ACCESSES = 1600
SEED = 3


def _run(scheme: str, replacement: str, telemetry=None, workload="gups"):
    config = small_config(scheme=Scheme(scheme), replacement=replacement)
    workloads = make_mix(workload, scale=0.25)
    result = run_simulation(
        config,
        workloads,
        total_accesses=ACCESSES,
        seed=SEED,
        workload_name=workload,
        telemetry=telemetry,
    )
    return strip_host_fields(result.to_dict())


def _canon(result_dict) -> str:
    return json.dumps(result_dict, sort_keys=True, default=repr)


@pytest.mark.parametrize("replacement", ["lru", "nru", "plru", "rrip"])
@pytest.mark.parametrize(
    "scheme", ["conventional", "pom-tlb", "csalt-cd", "csalt-d"]
)
def test_fast_paths_match_generic_reference(scheme, replacement):
    """Scheme x replacement matrix: fast paths == generic oracle."""
    fast = _run(scheme, replacement)
    previous = set_fast_paths(False)
    try:
        generic = _run(scheme, replacement)
    finally:
        set_fast_paths(previous)
    assert _canon(fast) == _canon(generic)


#: Telemetry bundles the one datapath must run unperturbed: each sink
#: alone, and all of them together (profiler wrappers over the ledger).
TELEMETRY_BUNDLES = {
    "accounting": lambda: Telemetry(accounting=CycleAccountant()),
    "profiler": lambda: Telemetry(profiler=HostProfiler()),
    "tracer+metrics": lambda: Telemetry(
        tracer=EventTracer(), metrics=MetricsRegistry()
    ),
    "all": lambda: Telemetry.enabled(profile=True, accounting=True),
}


@pytest.mark.parametrize(
    "scheme,bundle",
    [
        # The accounting-only case keeps its original plain-scheme id.
        pytest.param(
            scheme,
            bundle,
            id=scheme if bundle == "accounting" else f"{scheme}-{bundle}",
        )
        for scheme in ("conventional", "pom-tlb", "csalt-cd", "tsb")
        for bundle in TELEMETRY_BUNDLES
    ],
)
def test_instrumented_matches_bare(scheme, bundle):
    """Attached telemetry sinks must not perturb results.

    The CPI stack only exists when a ledger is attached; everything else
    — cycles, hit/miss counts, walk stats — must match the
    ``telemetry=None`` run exactly.
    """
    bare = _run(scheme, "lru", telemetry=None)
    telemetry = TELEMETRY_BUNDLES[bundle]()
    instrumented = _run(scheme, "lru", telemetry=telemetry)
    cpi_stack = instrumented.pop("cpi_stack", None)
    assert (cpi_stack is not None) == (telemetry.accounting is not None)
    assert bare.pop("cpi_stack", None) is None
    assert _canon(bare) == _canon(instrumented)


def test_walker_memory_references_take_the_profiled_seam():
    """Each walker binds ``_mem_from_l2`` after the profiler wrappers are
    installed, so walk references are timed under the ``cache`` scope."""
    profiler = HostProfiler()
    system = System(small_config(), telemetry=Telemetry(profiler=profiler))
    for core in system.cores:
        core.walker._access(0x1000 * (core.core_id + 1), LineKind.TLB, False)
    assert profiler.report()["cache"]["calls"] == len(system.cores)


@pytest.mark.parametrize("workload_cls", [Gups, ConnectedComponent])
def test_batched_take_matches_item_iteration(workload_cls):
    """``BatchedStream.take`` flattens to exactly the ``next()`` sequence."""
    reference = workload_cls.scaled(0.25).thread_stream(1, 8, SEED)
    batched = workload_cls.scaled(0.25).thread_stream(1, 8, SEED)
    taken = []
    # Uneven chunk sizes cross block boundaries in every alignment.
    for chunk in (1, 7, 64, 2048, 5000, 3):
        taken.extend(batched.take(chunk))
    expected = [next(reference) for _ in range(len(taken))]
    assert taken == expected


@pytest.mark.parametrize("workload_cls", [Gups, ConnectedComponent])
def test_batched_skip_matches_draining(workload_cls):
    """``skip(n)`` lands on the same stream position as ``n`` draws."""
    reference = workload_cls.scaled(0.25).thread_stream(2, 8, SEED)
    skipped = workload_cls.scaled(0.25).thread_stream(2, 8, SEED)
    for _ in range(4999):
        next(reference)
    skipped.skip(4999)
    assert [next(skipped) for _ in range(100)] == [
        next(reference) for _ in range(100)
    ]


def test_checkpoint_restore_uses_batched_skip(tmp_path):
    """Engine restore fast-forward (now ``skip``-based) is bit-identical."""
    config = small_config(scheme=Scheme.CSALT_CD, replacement="lru")

    def run(**kwargs):
        return run_simulation(
            config,
            make_mix("gups", scale=0.25),
            total_accesses=ACCESSES,
            seed=SEED,
            workload_name="gups",
            **kwargs,
        )

    straight = strip_host_fields(run().to_dict())
    checkpoint_dir = tmp_path / "ckpt"
    run(checkpoint_every=ACCESSES // 2, checkpoint_dir=checkpoint_dir)
    resumed = strip_host_fields(
        run(restore="auto", checkpoint_dir=checkpoint_dir).to_dict()
    )
    assert _canon(straight) == _canon(resumed)


def test_cache_state_roundtrip_mid_stream():
    """Flat-array cache layout: ``state_dict`` -> ``load_state`` resumes
    to identical victims, hits and stats."""
    def drive(cache, start, count):
        log = []
        for i in range(start, start + count):
            address = (i * 2654435761) % (1 << 20) & ~0x3F
            hit = cache.lookup(address, i & 1, is_write=bool(i & 2))
            evicted = None
            if not hit:
                evicted = cache.fill(address, i & 1, dirty=bool(i & 2))
            log.append((hit, evicted))
        return log

    for policy in ("lru", "nru", "plru", "rrip"):
        original = Cache("l2", 1 << 14, ways=4, latency=10, policy=policy)
        drive(original, 0, 500)
        snapshot = original.state_dict()
        clone = Cache("l2", 1 << 14, ways=4, latency=10, policy=policy)
        clone.load_state(snapshot)
        assert drive(original, 500, 300) == drive(clone, 500, 300), policy
        assert vars(original.stats) == vars(clone.stats)
