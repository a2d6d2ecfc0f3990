"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from points import Outcome, PassReport, result_digest  # noqa: E402
from run import Checker, middle_mean  # noqa: E402
from tracing import (  # noqa: E402
    CALLS, HITS, INCLUSIVE, SELF, Recorder, install_layers,
)


class FakeClock:
    """A clock that only moves when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    traced_leaf = recorder.timed(leaf, lambda args: "leaf")

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)
        traced_leaf()

    traced_middle = recorder.timed(middle, lambda args: "middle")

    def outer():
        clock.advance(3.0)
        traced_middle()

    recorder.timed(outer, lambda args: "outer")()

    assert recorder.stats["leaf"][CALLS] == 2
    assert recorder.stats["leaf"][INCLUSIVE] == 4.0
    assert recorder.stats["leaf"][SELF] == 4.0
    assert recorder.stats["middle"][INCLUSIVE] == 5.5
    assert recorder.stats["middle"][SELF] == 1.5
    assert recorder.stats["outer"][INCLUSIVE] == 8.5
    assert recorder.stats["outer"][SELF] == 3.0
    # Self times partition the outermost span exactly.
    assert sum(slot[SELF] for slot in recorder.stats.values()) == 8.5


def test_recursive_calls_of_one_key_are_not_double_counted():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def countdown(n):
        clock.advance(1.0)
        if n:
            traced(n - 1)

    traced = recorder.timed(countdown, lambda args: "countdown")
    traced(2)
    slot = recorder.stats["countdown"]
    assert slot[CALLS] == 3
    assert slot[SELF] == 3.0          # one second of own work per call
    assert slot[INCLUSIVE] == 6.0     # 3 + 2 + 1: nested spans overlap


def test_a_raising_call_is_charged_and_unwinds_the_stack():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    traced_failing = recorder.timed(failing, lambda args: "failing")

    def parent():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            traced_failing()

    recorder.timed(parent, lambda args: "parent")()
    assert recorder.stats["failing"][SELF] == 1.0
    assert recorder.stats["parent"][SELF] == 1.0
    assert recorder._stack == []


def test_spans_share_the_point_id_and_nest():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    inner = recorder.timed(
        lambda: clock.advance(1.0), lambda args: "save",
        span_of=lambda args, kwargs: "p1", span_name="save",
    )

    def point():
        inner()

    recorder.timed(point, lambda args: "point",
                   span_of=lambda args, kwargs: "p1", span_name="point")()
    save, run = recorder.spans
    assert (save["name"], save["id"], save["parent"]) == ("save", "p1", "p1")
    assert (run["name"], run["parent"]) == ("point", None)


def test_merge_adds_a_child_snapshot():
    parent, child = Recorder(), Recorder()
    parent.stat("k")[CALLS] += 1
    child.stat("k")[CALLS] += 2
    child.stat("k")[SELF] += 0.5
    parent.merge(child.snapshot())
    assert parent.stats["k"][CALLS] == 3
    assert parent.stats["k"][SELF] == 0.5


def test_uninstall_restores_every_layer():
    from repro.experiments import runner
    from repro.mem.cache import Cache

    lookup, run_point = Cache.__dict__["lookup"], runner.run_point
    recorder = Recorder()
    install_layers(recorder)
    assert Cache.__dict__["lookup"] is not lookup
    recorder.uninstall()
    assert Cache.__dict__["lookup"] is lookup
    assert runner.run_point is run_point


def test_dram_row_hits_come_from_the_channel_counter():
    from repro.mem.dram import DIE_STACKED, DramChannel

    channel = DramChannel(DIE_STACKED)
    recorder = Recorder()
    install_layers(recorder)
    try:
        # Same row twice, another row of the same bank, then back.
        row = DIE_STACKED.row_bytes
        for address in (0, 64, row * DIE_STACKED.banks, 0, 128):
            channel.access(address)
    finally:
        recorder.uninstall()
    slot = recorder.stats["mem.dram.access"]
    assert slot[CALLS] == 5
    assert slot[HITS] == channel.stats.row_hits == 2


def test_middle_mean_drops_the_outer_quarters():
    assert middle_mean([3.0, 1.0, 2.0]) == 2.0
    assert middle_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0]) == 4.5
    assert middle_mean(iter([7.0])) == 7.0


def _tiny_run():
    from repro.core.schemes import Scheme
    from repro.sim import engine
    from repro.sim.config import SMALL_WORKLOAD_SCALE, small_config
    from repro.telemetry import CycleAccountant, Telemetry
    from repro.workloads.mixes import make_mix

    return engine.run_simulation(
        small_config(scheme=Scheme.CSALT_CD),
        make_mix("ccomp", contexts=2, scale=SMALL_WORKLOAD_SCALE),
        total_accesses=2_000, seed=0, workload_name="ccomp",
        telemetry=Telemetry(accounting=CycleAccountant()),
    )


@pytest.fixture(scope="module")
def tiny_result():
    return _tiny_run()


def test_tracing_leaves_results_bit_identical(tiny_result):
    recorder = Recorder()
    install_layers(recorder)
    try:
        traced = _tiny_run()
    finally:
        recorder.uninstall()
    assert result_digest(traced) == result_digest(tiny_result)
    assert recorder.stats["mem.cache.l1d.lookup"][CALLS] > 0
    assert recorder.stats["tlb.pom"][CALLS] > 0


def test_digest_ignores_host_fields_only(tiny_result):
    from repro.sim.stats import SimulationResult

    digest = result_digest(tiny_result)
    copy = SimulationResult.from_dict(tiny_result.to_dict())
    copy.extra["host_seconds"] = 123.0
    assert result_digest(copy) == digest
    copy.extra["page_walks_total"] = -1
    assert result_digest(copy) != digest


def test_checker_rejects_a_perturbed_result(tiny_result):
    from repro.sim.stats import SimulationResult

    checker = Checker({"point": result_digest(tiny_result)})
    checker.check(PassReport([("point", tiny_result)], 1).outcomes())
    assert (checker.attempted, checker.failed) == (1, 0)

    perturbed = SimulationResult.from_dict(tiny_result.to_dict())
    perturbed.per_core[0].cycles += 1.0
    checker.check(PassReport([("point", perturbed)], 1).outcomes())
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.document({})["correct"] is False


def test_checker_counts_errors_and_unrecorded_points():
    checker = Checker({"known": "0" * 64})
    checker.check([
        Outcome("known", error="RuntimeError: boom"),
        Outcome("unknown", digest="0" * 64),
    ])
    assert (checker.attempted, checker.failed) == (2, 2)
    assert PassReport(
        [("raised", ValueError("x")), ("lost", lambda: None)], 0
    ).outcomes()[1].error == "LookupError: no result"
