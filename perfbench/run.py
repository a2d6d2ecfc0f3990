#!/usr/bin/env python3
"""Benchmark of the CSALT simulator: end to end, and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload report_sweep --seed 0 --seconds 40 --trace 0

Workloads (see ``RATIONALE.md`` beside this file): ``report_sweep``,
``native_bare`` and ``campaign_pool``.  With ``--trace 0`` the timed phase
repeats the workload's fixed pass of points for about ``--seconds``
seconds, with fresh-interpreter set-up probes between passes, and
reports the end-to-end metrics as means of the middle half of the passes
(and of the probes); with
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics.  Every simulated point's result digest is compared
with the digests recorded in ``expected_digests.json``; a mismatch or an
exception is a failed operation.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` re-records the expected digests (after a deliberate model
change) for every workload at both simulation seeds.

The benchmark reads and writes only inside the checkout: scratch stores
under ``.perfbench_work/`` (removed at exit) and traces under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "expected_digests.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: A run starts no pass that would end, with the set-up probes still
#: due, past ``--seconds`` (judged by the median pass and probe so far)
#: once it has one, nor past this many seconds whatever ``--seconds`` asks
#: (each run must end well within 180 s).
MAX_TIMED_SECONDS = 100.0
#: Fresh-interpreter set-ups behind ``setup_s``, spread over the run.
SETUP_PROBES = 9


class Unavailable(RuntimeError):
    """The checkout does not hold the program this benchmark drives."""


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        raise Unavailable(f"no repro package under {SOURCE}")
    sys.path.insert(0, SOURCE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise Unavailable(f"repro imported from {repro.__file__}, not {SOURCE}")


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def load_expected(workload: str, sim_seed: int) -> dict:
    with open(DIGESTS) as handle:
        return json.load(handle).get(workload, {}).get(str(sim_seed), {})


class Checker:
    """Counts operations and failures against the recorded digests."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes) -> dict:
        """Count ``outcomes``; return their ``label -> digest`` map."""
        digests = {}
        for outcome in outcomes:
            self.attempted += 1
            want = self.expected.get(outcome.label)
            if outcome.error is not None:
                problem = outcome.error
            elif want is None:
                problem = "no recorded digest"
            elif outcome.digest != want:
                problem = f"digest {outcome.digest[:12]} != recorded {want[:12]}"
            else:
                problem = None
            if problem is not None:
                self.failed += 1
                print(f"FAILED {outcome.label}: {problem}", file=sys.stderr)
            digests[outcome.label] = outcome.digest
        return digests

    def require(self, condition: bool, what: str) -> None:
        """Count one extra check."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)

    def document(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Set-up time: fresh interpreters, each up to the first simulated point
# ----------------------------------------------------------------------
def setup_probe(args) -> int:
    """Child mode: do exactly the set-up a benchmark run does, then say so."""
    from points import WORKLOADS

    WORKLOADS[args.workload](args.seed, os.path.join(WORK_ROOT, "probe")).setup()
    print("ready", flush=True)
    return 0


def middle_mean(values) -> float:
    """Mean of the middle half of ``values`` (of all of them when there
    are fewer than four): a host's slow and fast spells at either end are
    dropped, and what is left is averaged rather than picked."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def setup_probe_seconds(args) -> float:
    """Time one fresh-interpreter set-up, from spawn to the moment its
    first point could start."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    started = time.perf_counter()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.stdout.read()
        if probe.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def timed_passes(args, workload, checker: Checker) -> tuple:
    """Run passes until ``--seconds`` are used, checking every pass's
    outcomes outside its timing, with the set-up probes spread between
    passes so that no single spell of the host holds them all.

    Returns ``(wall, cpu, accesses)`` per pass, the set-up probe times
    and the peak RSS after the first pass, read before any probe: later
    passes can only raise the high-water mark, so it would depend on the
    pass count.
    """
    budget = min(args.seconds, MAX_TIMED_SECONDS)
    passes, setups = [], []
    started = time.perf_counter()
    while True:
        index = len(passes)
        wall, cpu = time.perf_counter(), cpu_seconds()
        report = workload.run_pass(index)
        wall = time.perf_counter() - wall
        cpu = cpu_seconds() - cpu
        if index == 0:
            rss = peak_rss_mb()
        checker.check(report.outcomes())
        workload.finish_pass(index)
        passes.append((wall, cpu, report.accesses))
        due = SETUP_PROBES * min(1.0, (time.perf_counter() - started) / budget)
        while len(setups) < due:
            setups.append(setup_probe_seconds(args))
        remaining = (SETUP_PROBES - len(setups)) * statistics.median(setups)
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - started + typical + remaining > budget:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe_seconds(args))
    return passes, setups, rss


def end_to_end(args, workload, checker: Checker) -> dict:
    passes, setups, rss = timed_passes(args, workload, checker)
    print(f"{workload.name}: {len(passes)} passes, wall "
          + " ".join(f"{p[0]:.3f}" for p in passes) + ", cpu "
          + " ".join(f"{p[1]:.3f}" for p in passes) + ", set-up "
          + " ".join(f"{x:.3f}" for x in setups), file=sys.stderr)
    return {
        "wall_s": metric(middle_mean(p[0] for p in passes), "s"),
        "cpu_s": metric(middle_mean(p[1] for p in passes), "s"),
        "throughput_acc_s": metric(
            middle_mean(p[2] / p[1] for p in passes), "acc/s"
        ),
        "setup_s": metric(middle_mean(setups), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    from points import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected_digests.json and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    return args


def record(work_dir: str) -> int:
    """Run one pass of every workload at every simulation seed and write
    the digests they produce as the expected ones."""
    from points import SIMULATION_SEEDS, WORKLOADS

    recorded = {}
    for name, factory in WORKLOADS.items():
        for seed in range(len(SIMULATION_SEEDS)):
            workload = factory(seed, work_dir)
            workload.setup()
            try:
                outcomes = workload.run_pass(0).outcomes()
            finally:
                workload.finish_pass(0)
            errors = [o for o in outcomes if o.error is not None]
            if errors:
                print(f"{name}: {errors[0].label}: {errors[0].error}",
                      file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(workload.sim_seed)] = {
                outcome.label: outcome.digest for outcome in outcomes
            }
            print(f"recorded {name} seed {workload.sim_seed}: "
                  f"{len(outcomes)} digests", file=sys.stderr)
    with open(DIGESTS, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    try:
        bootstrap()
    except (Unavailable, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload or 'record'}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    # Anything the program puts in a temporary directory stays inside
    # the checkout too (forked pool workers inherit the setting).
    os.environ["TMPDIR"] = work_dir
    try:
        if args.record:
            return record(work_dir)
        from points import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, work_dir)
        workload.setup()
        checker = Checker(load_expected(workload.name, workload.sim_seed))
        if args.trace:
            from layers import traced_run

            metrics = traced_run(args, workload, checker, OUT_ROOT)
        else:
            metrics = end_to_end(args, workload, checker)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(checker.document(metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
