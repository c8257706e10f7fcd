"""smtkit benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 smtbench/run.py --workload quotients --seed 1 --seconds 30 --trace 0
    python3 smtbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; smtkit is imported from its ``src``
(pure Python, nothing to build).  Every pass of a workload runs in a fresh
single-threaded interpreter (``worker.py``), one after another, as a closed
loop with one client: an operation starts when the previous one has ended.
Passes repeat while another one fits in ``--seconds`` (at least three, or
one pair when traced).

Times of the passes are in reference seconds: the worker interrupts itself
every 50 ms to time a fixed probe loop, and scales the wall time between
two probes by how much slower than its reference time the probe ran (see
``SpeedClock`` in worker.py).  This takes out the swings of a shared
host's CPU speed, which reach tens of percent and last from a fraction of a
second to minutes; a program change still moves the metrics in full, since
the probe does not run smtkit code.

With ``--trace 0`` the end-to-end metrics are reported:

  setup_s       interpreter start until smtkit is imported and the inputs
                are generated, in reference seconds from probes on either
                side of input generation; median over every pass and two
                extra set-up-only starts per pass
  run_s         one pass over the workload's operations, in reference
                seconds; median over passes
  peak_rss_mib  ru_maxrss of a pass's process, median over passes
  req_p95_ms    95th percentile over operations (for cli_mix, requests) of
                their median time over passes, in reference milliseconds
                (the report gives the count)

The report also prints ``wall_s``, the median wall time of a pass with the
probes left out, ``req_p50_ms``, the median operation time, and
``req_per_s``, operations per second at run_s.  They are not metrics:
wall_s carries the host's swings, the median depends on which seeded
operation lands there, and req_per_s is run_s inverted.

With ``--trace 1`` untraced passes alternate with span-traced passes and one
counting pass follows.  Each layer's self time is its median over the span
passes, in reference seconds, the counters come from the counting pass, and
``trace.overhead_frac`` compares run_s of the span passes with the untraced
ones.

Every operation is checked against an independent oracle; ``failed`` counts
operations whose check failed, and ``correct`` also needs the self-check to
catch a deliberately wrong expected value, and the result digest and input
hash to agree across passes.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quotients", "monomials", "hodge", "cli_mix")  # as in workloads.py, which imports smtkit

MIN_PASSES = 3
TIME_LIMIT_S = 170  # a whole run ends well inside three minutes

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB",
    "req_p95_ms": "ms",
}
COUNT_METRICS = (
    "weyl.leq_calls", "weyl.group_order", "weyl.quotient_size", "rootdata.calls",
    "schubert.divisor_calls", "admissible.pairs", "smt.certify_calls", "smt.certified",
    "smt.lift_calls", "oracle.calls", "pluecker.samples", "pluecker.plucker_calls",
    "pluecker.rank_calls", "cli.requests",
)


class BenchError(Exception):
    pass


class Run:
    """The passes of one workload and seed, against one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.setup_s: list[float] = []

    def spawn(self, mode: str) -> dict | None:
        """Run one worker; record its set-up time and return its result."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        env = dict(os.environ, PYTHONHASHSEED="0")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        out, ready_at = b"", None
        try:
            fd = proc.stdout.fileno()
            while True:
                if not select.select([fd], [], [], self._left())[0]:
                    raise BenchError(f"{self.workload} did not finish within {TIME_LIMIT_S} s")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                out += chunk
                if ready_at is None and b"\n" in out:
                    ready_at = time.perf_counter()
            proc.wait(timeout=self._left())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload} did not finish within {TIME_LIMIT_S} s") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        lines = out.decode().splitlines()
        ready = lines[0].split() if lines else []
        if proc.returncode != 0 or len(ready) != 3 or ready[0] != "READY":
            raise BenchError(f"{mode} pass of {self.workload} failed (exit {proc.returncode})")
        speed, probe_s = float(ready[1]), float(ready[2])
        self.setup_s.append((ready_at - start - probe_s) * speed)
        return json.loads(lines[-1]) if mode != "setup" else None

    def _left(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"{self.workload} did not finish within {TIME_LIMIT_S} s")
        return left


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    start = time.perf_counter()
    passes = {"plain": [], "span": [], "count": []}
    steps: list[float] = []  # wall time of each step of the loop below

    def step(*modes):
        t0 = time.perf_counter()
        for mode in modes:
            result = run.spawn(mode)
            if result is not None:
                passes[mode].append(result)
        steps.append(time.perf_counter() - t0)

    def fits(cost: float) -> bool:
        return time.perf_counter() - start + cost <= seconds

    # A pass starts only if it should end inside --seconds, so a run lasts
    # about --seconds whatever a pass costs.  Set-up-only starts are spread
    # over the run like the passes.
    if not trace:
        while len(passes["plain"]) < MIN_PASSES or fits(statistics.median(steps)):
            step("setup", "setup", "plain")
    else:
        # the counting pass after the last pair costs about one more pair
        while not passes["span"] or fits(2 * statistics.median(steps)):
            step("plain", "span")
        step("count")

    every = [p for ps in passes.values() for p in ps]
    agree = all(
        p["digest"] == every[0]["digest"] and p["input_hash"] == every[0]["input_hash"]
        for p in every
    )
    report = {
        "workload": workload,
        "seed": seed,
        "passes": {mode: len(ps) for mode, ps in passes.items() if ps},
        "input_hash": every[0]["input_hash"],
        "digest": every[0]["digest"],
        "correct": agree and all(p["self_check"] and p["failed"] == 0 for p in every),
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
    }
    run_s = _median_pass(passes["plain"], "latencies_s")
    if not trace:
        ms = [statistics.median(times) * 1e3
              for times in zip(*(p["latencies_s"] for p in passes["plain"]))]
        values = {
            "setup_s": statistics.median(run.setup_s),
            "run_s": run_s,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes["plain"]),
            "req_p95_ms": statistics.quantiles(ms, n=20, method="inclusive")[18],
        }
        report["samples"] = {"setup_s": len(run.setup_s), "requests": len(ms),
                             "probes": sum(p["probes"] for p in passes["plain"])}
        report["wall_s"] = _median_pass(passes["plain"], "wall_s")
        report["req_p50_ms"] = statistics.median(ms)
        report["req_per_s"] = len(ms) / run_s
        report["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        return report

    spans = passes["span"]
    counted = passes["count"][0]
    counts = counted["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(p["self_s"][layer] for p in spans), "s")
    metrics["pluecker.rank_self_s"] = (statistics.median(p["self_s"]["pluecker.rank"] for p in spans), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["smt.certify_yield"] = (_ratio(counts.get("smt.certified", 0), counts.get("smt.certify_calls", 0)), "ratio")
    metrics["pluecker.plucker_unique_frac"] = (
        _ratio(counted["plucker_unique"], counts.get("pluecker.plucker_calls", 0)), "ratio")
    metrics["trace.overhead_frac"] = (_median_pass(spans, "latencies_s") / run_s - 1, "ratio")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def _median_pass(passes: list[dict], key: str) -> float:
    """Median over passes of the total time of a pass."""
    return statistics.median(sum(p[key]) for p in passes)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}"
          f"  samples {report.get('samples', {})}")
    print(f"  input_hash {report['input_hash']}")
    print(f"  digest     {report['digest']}")
    print(f"  correct {report['correct']}  attempted {report['attempted']}  failed {report['failed']}"
          f"  failed_frac {report['failed'] / report['attempted']:.4f}")
    if "req_p50_ms" in report:
        print(f"  wall_s {report['wall_s']:.6f} s, req_p50_ms {report['req_p50_ms']:.6f} ms,"
              f" req_per_s {report['req_per_s']:.6f} 1/s (not metrics)")
    for name, m in report["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6f} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "smtkit" / "__init__.py").is_file():
        print(f"error: no smtkit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
