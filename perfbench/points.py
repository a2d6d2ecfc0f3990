"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload prepares its inputs once (``setup``) and then runs *passes*:
one pass is the workload's fixed set of simulated points, issued closed
loop (the next point starts only after the previous one returned).  A
pass returns a :class:`PassReport` whose results are digested only after
the pass's timing stopped.
Every pass starts from the state a fresh ``repro`` process would have:
the runner's memo and failure sets are cleared, the Zipf table cache is
emptied and a fresh result store is attached.

The simulation seed is taken from the benchmark's ``--seed`` (see
:func:`simulation_seed`); the program receives only the generated points.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Simulation seeds whose result digests the benchmark records: the
#: runner's default seed and one held-out seed.  ``--seed n`` selects
#: ``SIMULATION_SEEDS[n % 2]``.
SIMULATION_SEEDS = (0, 1)

#: ``report_sweep`` points, as ``runner.point_signature`` arguments.  All
#: ten mixes appear twice; schemes follow the report's 242 unique points
#: (csalt-cd 118, pom-tlb 64, conventional 26, csalt-d/dip/tsb 10 each,
#: csalt-static 4) apportioned to 20 by largest remainder, which leaves
#: csalt-static at zero.  14 of 20 are virtualized, 2-context, LRU
#: (report: 158 of 242).  Each must be a real report point.
REPORT_SWEEP_POINTS: List[dict] = [
    dict(mix_name="ccomp", scheme="csalt-cd"),
    dict(mix_name="ccomp", scheme="csalt-cd", page_table_levels=5),
    dict(mix_name="graph500", scheme="csalt-cd"),
    dict(mix_name="graph500", scheme="conventional", contexts=1,
         virtualized=False),
    dict(mix_name="pagerank", scheme="csalt-cd"),
    dict(mix_name="pagerank", scheme="dip"),
    dict(mix_name="can_stream", scheme="csalt-cd"),
    dict(mix_name="can_stream", scheme="tsb"),
    dict(mix_name="streamcluster", scheme="csalt-cd", virtualized=False),
    dict(mix_name="streamcluster", scheme="pom-tlb", contexts=1),
    dict(mix_name="gups", scheme="csalt-cd", contexts=4),
    dict(mix_name="gups", scheme="pom-tlb"),
    dict(mix_name="canneal", scheme="csalt-cd", epoch_accesses=8000),
    dict(mix_name="canneal", scheme="pom-tlb", switch_interval_ms=5.0),
    dict(mix_name="page_stream", scheme="csalt-cd", switch_interval_ms=30.0),
    dict(mix_name="page_stream", scheme="conventional"),
    dict(mix_name="can_ccomp", scheme="csalt-cd", replacement="plru",
         estimate_positions=True),
    dict(mix_name="can_ccomp", scheme="pom-tlb", virtualized=False),
    dict(mix_name="graph500_gups", scheme="pom-tlb"),
    dict(mix_name="graph500_gups", scheme="csalt-d"),
]

#: Accesses per ``report_sweep`` point.  The engine warms up on the
#: first 25% of any run length; 8000 keeps a pass near 8 s on the 2-vCPU
#: host, so several fresh-state passes fit in one run.
REPORT_SWEEP_ACCESSES = 8_000

#: ``native_bare``: (mix, replacement) points of the plain ``repro run``
#: path, and the accesses each runs.
NATIVE_BARE_POINTS = [
    (mix, replacement)
    for mix in ("streamcluster", "gups", "canneal")
    for replacement in ("lru", "plru")
]
NATIVE_BARE_ACCESSES = 24_000

#: ``campaign_pool``: exhibits built by the worker pool, its worker count
#: (the host's two cores) and the reduced ``REPRO_TOTAL_ACCESSES``.
CAMPAIGN_EXHIBITS = ("table1", "figure3")
CAMPAIGN_JOBS = 2
CAMPAIGN_ACCESSES = 12_000


def simulation_seed(seed: int) -> int:
    return SIMULATION_SEEDS[seed % len(SIMULATION_SEEDS)]


def result_digest(result) -> str:
    """SHA-256 of a result with its host-dependent fields stripped."""
    from repro.experiments.store import strip_host_fields

    canonical = json.dumps(strip_host_fields(result.to_dict()), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def point_label(signature: dict) -> str:
    """Readable id of a point: its non-default fields."""
    from repro.experiments.runner import point_signature

    defaults = point_signature(signature["mix_name"], signature["scheme"])
    extras = [
        f"{key}={value}" for key, value in signature.items()
        if key not in ("mix_name", "scheme", "total_accesses", "seed")
        and defaults.get(key) != value
    ]
    return "/".join([signature["mix_name"], str(signature["scheme"])] + extras)


@dataclass
class Outcome:
    """One simulated point (or checked artifact): its digest or error."""

    label: str
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class PassReport:
    """What one pass produced, digested only after its timing stopped.

    ``items`` pairs a label with a result, a text, an exception or a
    zero-argument callable returning a result (read back lazily).
    """

    items: List[tuple]
    accesses: int
    #: Workload-specific facts of the pass (pool summary).
    facts: Dict[str, float] = field(default_factory=dict)

    def outcomes(self) -> List[Outcome]:
        outcomes = []
        for label, value in self.items:
            try:
                if callable(value):
                    value = value()
                if isinstance(value, BaseException):
                    raise value
                if value is None:
                    raise LookupError("no result")
                digest = (
                    text_digest(value) if isinstance(value, str)
                    else result_digest(value)
                )
            except Exception as exc:  # a failed point is counted
                outcomes.append(Outcome(label, error=f"{type(exc).__name__}: {exc}"))
            else:
                outcomes.append(Outcome(label, digest))
        return outcomes


def fresh_process_state() -> None:
    """Put the runner and the workload tables back to a new process's
    state; collect garbage so one pass's debris is not swept in the next."""
    from repro.experiments import runner
    from repro.workloads import base

    runner.set_store(None)
    runner.clear_cache()
    base._zipf_tables.cache_clear()
    gc.collect()


def _attempt(label: str, call: Callable[[], object]) -> tuple:
    try:
        return label, call()
    except Exception as exc:  # a failed point is counted, not fatal
        return label, exc


class Workload:
    """Base: a named, seeded set of points run in passes."""

    name = ""
    #: Processes that may simulate at once (explained-fraction base).
    jobs = 1
    #: ``runner.run_point`` signatures of the points, which carry the
    #: cycle-accounting ledger; empty when the points run bare.
    signatures: List[dict] = []

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.sim_seed = simulation_seed(seed)
        self.work_dir = work_dir

    def setup(self) -> None:
        """Prepare the inputs (timed as part of ``setup_s``)."""

    def run_pass(self, index: int) -> PassReport:
        raise NotImplementedError

    def finish_pass(self, index: int) -> None:
        """Untimed clean-up after a pass."""


# ----------------------------------------------------------------------
class ReportSweep(Workload):
    """``runner.run_point`` serially over a weighted report subset."""

    name = "report_sweep"

    def setup(self) -> None:
        from repro.experiments import report
        from repro.experiments.pool import dedupe_signatures
        from repro.experiments.runner import point_signature

        os.environ["REPRO_SEED"] = str(self.sim_seed)
        os.environ["REPRO_TOTAL_ACCESSES"] = str(REPORT_SWEEP_ACCESSES)
        order = {
            json.dumps(signature, sort_keys=True): index
            for index, signature in enumerate(
                dedupe_signatures(report.enumerate_points(report.EXPERIMENTS))
            )
        }
        selected = []
        for fields in REPORT_SWEEP_POINTS:
            signature = point_signature(**fields)
            position = order.get(json.dumps(signature, sort_keys=True))
            if position is None:
                raise ValueError(f"not a report point: {fields}")
            selected.append((position, signature))
        self.signatures = [signature for _, signature in sorted(
            selected, key=lambda item: item[0]
        )]

    def _store_dir(self, index: int) -> str:
        return os.path.join(self.work_dir, f"store-{index}")

    def run_pass(self, index: int) -> PassReport:
        from repro.experiments import runner
        from repro.experiments.store import ResultStore

        fresh_process_state()
        runner.set_store(ResultStore(self._store_dir(index)), consult=False)
        items = [
            _attempt(
                point_label(signature),
                lambda signature=signature: runner.run_point(
                    **runner.point_from_signature(signature)
                ),
            )
            for signature in self.signatures
        ]
        runner.set_store(None)
        return PassReport(
            items,
            sum(signature["total_accesses"] for signature in self.signatures),
        )

    def finish_pass(self, index: int) -> None:
        shutil.rmtree(self._store_dir(index), ignore_errors=True)


# ----------------------------------------------------------------------
class NativeBare(Workload):
    """``run_simulation(telemetry=None)`` on native conventional configs."""

    name = "native_bare"

    def setup(self) -> None:
        from repro.core.schemes import Scheme
        from repro.sim.config import small_config

        self.configs = [
            (f"{mix}/{replacement}", mix, small_config(
                scheme=Scheme.CONVENTIONAL, virtualized=False,
                replacement=replacement,
            ))
            for mix, replacement in NATIVE_BARE_POINTS
        ]

    def run_pass(self, index: int) -> PassReport:
        from repro.sim import engine
        from repro.sim.config import SMALL_WORKLOAD_SCALE
        from repro.workloads.mixes import make_mix

        fresh_process_state()
        items = [
            _attempt(label, lambda mix=mix, config=config: (
                engine.run_simulation(
                    config,
                    make_mix(mix, contexts=config.contexts_per_core,
                             scale=SMALL_WORKLOAD_SCALE),
                    total_accesses=NATIVE_BARE_ACCESSES,
                    seed=self.sim_seed, workload_name=mix, telemetry=None,
                )
            ))
            for label, mix, config in self.configs
        ]
        return PassReport(items, NATIVE_BARE_ACCESSES * len(self.configs))


# ----------------------------------------------------------------------
class CampaignPool(Workload):
    """``report.build_report`` through the worker pool into a fresh store."""

    name = "campaign_pool"
    jobs = CAMPAIGN_JOBS

    def setup(self) -> None:
        from repro.experiments import report
        from repro.experiments.pool import dedupe_signatures

        os.environ["REPRO_SEED"] = str(self.sim_seed)
        os.environ["REPRO_TOTAL_ACCESSES"] = str(CAMPAIGN_ACCESSES)
        self.experiments = [
            (name, experiment) for name, experiment in report.EXPERIMENTS
            if name in CAMPAIGN_EXHIBITS
        ]
        self.signatures = dedupe_signatures(
            report.enumerate_points(self.experiments)
        )

    def _store_dir(self, index: int) -> str:
        return os.path.join(self.work_dir, f"campaign-{index}")

    def run_pass(self, index: int) -> PassReport:
        from repro.experiments import report
        from repro.experiments.store import ResultStore

        fresh_process_state()
        retries = []
        store = ResultStore(self._store_dir(index))
        try:
            document = report.build_report(
                lambda message: retries.append(message)
                if message.startswith("retrying") else None,
                experiments=self.experiments, jobs=self.jobs, store=store,
            )
        except Exception as exc:  # the whole campaign failed
            return PassReport([("campaign", exc)], 0)
        items = [
            ("report text", document.text),
            ("exhibit statuses", json.dumps(document.statuses, sort_keys=True)),
        ]
        # The pool's workers persisted every point: read each one back.
        items.extend(
            (point_label(signature),
             lambda signature=signature: store.load(signature))
            for signature in self.signatures
        )
        campaign = document.campaign
        return PassReport(
            items,
            sum(signature["total_accesses"] for signature in self.signatures),
            facts={
                "points": campaign.simulated if campaign else 0,
                "failures": len(campaign.failures) if campaign else 0,
                "retries": len(retries),
            },
        )

    def finish_pass(self, index: int) -> None:
        shutil.rmtree(self._store_dir(index), ignore_errors=True)


WORKLOADS = {
    workload.name: workload for workload in (ReportSweep, NativeBare, CampaignPool)
}
