"""One pass of one workload, in a fresh single-threaded interpreter.

    python3 smtbench/worker.py --workload W --seed N --mode {setup,plain,span,count}

The worker imports smtkit from the checkout's ``src``, generates the
workload's inputs and prints ``READY`` with the speed factor of set-up and
the time its probes took (the parent times set-up up to that line).  In
``setup`` mode it stops there.  Otherwise it installs the tracing the mode
asks for, runs the self-check, runs every operation once through the
correctness gate under a speed clock, and prints one JSON line:
per-operation latencies in wall and reference seconds, peak RSS, failures,
the result digest and, when traced, the per-layer self times in reference
seconds and the counters.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path set above; imports smtkit)
from tracing import Tracer  # noqa: E402

PROBE_PERIOD_S = 0.05
# Reference seconds are seconds at the speed at which one probe takes this
# long; on the 2-vCPU host in README.md it takes 0.87 ms at its fastest.
REFERENCE_PROBE_S = 0.001


def speed_probe() -> int:
    """A fixed piece of pure-Python work (dict updates and integer
    arithmetic, about 1 ms) whose duration gauges the CPU's current speed."""
    table, total = {}, 0
    for i in range(5000):
        table[i % 1000] = table.get(i % 1000, 0) + i
        total += i * i % 7
    return total


class SpeedClock:
    """Converts the wall time of a pass into reference seconds.

    On a shared host the speed of a vCPU swings by tens of percent, within
    a second and over minutes, as other tenants load the physical core, and
    the two vCPUs swing independently.  So a timer interrupts the pass every
    PROBE_PERIOD_S and runs the probe in the same process, on the CPU the
    pass runs on.  Wall time between two probes is scaled by
    REFERENCE_PROBE_S over their mean duration; the probes' own time is left
    out.  Interleaved this way, a probe's speed tracks that of smtkit code
    closely: on the host in README.md, the spread of one operation's time
    over repeated runs fell from 0.18-0.29 in wall time to 0.08 in
    reference time.
    """

    def __init__(self, probe_fn):
        self._probe = probe_fn
        self._busy = False
        self.marks: list[tuple[float, float]] = []  # (start, duration) of each probe
        self._starts: list[float] = []

    def __enter__(self) -> "SpeedClock":
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def _tick(self, *_signal) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self._probe()
        self.marks.append((start, time.perf_counter() - start))
        self._busy = False

    def seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, reference) seconds of [t0, t1], the probes left out."""
        if len(self._starts) != len(self.marks):
            self._starts = [start for start, _ in self.marks]
        first = max(bisect.bisect_right(self._starts, t0) - 1, 0)
        last = bisect.bisect_left(self._starts, t1)
        wall = ref = 0.0
        for (s0, d0), (s1, d1) in zip(self.marks[first:last], self.marks[first + 1:last + 1]):
            overlap = min(t1, s1) - max(t0, s0 + d0)
            if overlap > 0:
                wall += overlap
                ref += overlap * 2 * REFERENCE_PROBE_S / (d0 + d1)
        return wall, ref


def run_one(op: dict, tamper: bool = False):
    """Run one operation through the gate; returns (passed, record)."""
    gate = workloads.Gate(tamper)
    try:
        record = workloads.run_op(op, gate)
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return False, f"raised {type(exc).__name__}"
    return gate.ok, record


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "span", "count"))
    args = ap.parse_args()

    # probes on either side of input generation gauge the speed of set-up
    probes = [_timed(speed_probe)]
    ops = workloads.make_inputs(args.workload, args.seed)
    probes.append(_timed(speed_probe))
    print(f"READY {2 * REFERENCE_PROBE_S / sum(probes)!r} {sum(probes)!r}", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer()
    if args.mode in ("span", "count"):
        tracer.install_spans()
    if args.mode == "count":
        tracer.install_counters()
    probe = workloads.SELF_CHECK_OP[args.workload]
    self_check = run_one(probe)[0] and not run_one(probe, tamper=True)[0]
    tracer.reset()

    intervals, records, failed = [], [], 0
    with SpeedClock(speed_probe) as clock:
        for op in ops:
            t0 = time.perf_counter()
            ok, record = run_one(op)
            intervals.append((t0, time.perf_counter()))
            failed += not ok
            records.append(record)
    wall, ref = zip(*(clock.seconds(t0, t1) for t0, t1 in intervals))

    result = {
        "input_hash": workloads.input_hash(ops),
        "digest": hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest(),
        "self_check": self_check,
        "attempted": len(ops),
        "failed": failed,
        "wall_s": wall,
        "latencies_s": ref,  # reference seconds
        "probes": len(clock.marks),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.mode != "plain":
        # reference seconds leave the probes out of every span
        result["self_s"] = tracer.self_times(lambda t0, t1: clock.seconds(t0, t1)[1])
        result["counts"] = dict(tracer.counts)
        result["plucker_unique"] = len(tracer.plucker_keys)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
