"""Benchmark of the nicom CLI: seeded request lists, checked replies, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload compute-rec --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up
time, throughput, p50/p90 latency, peak RSS and success ratio, with each
request's time in reference units of the calibration kernel
(calibrate.py).  ``--trace 1`` reports the per-layer metrics from a
traced run plus the tracing overhead.  The last line of stdout is one
JSON object; the line before it is the run record (machine, Python, git
revision, seed, counts).  See NOTES.md for the workloads and what each
metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from math import ceil
from pathlib import Path
from time import monotonic

import calibrate
import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_REQUESTS = 100
SETUP_PROBES = 16
TIME_LIMIT_S = 170.0

SETUP_PROBE = """\
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[2])})
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nicom.cli
nicom.cli.build_parser()
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.max_output_bits": "bits",
    "verify_suite.self_s": "s",
    "verify_suite.indices_checked": "count",
    "recurrence_prover.char_poly_s": "s",
    "recurrence_prover.certify_self_s": "s",
    "recurrence_prover.terms_checked": "count",
    "qratio.calls": "count",
    "qratio.self_s": "s",
    "closed_forms.calls": "count",
    "closed_forms.self_s": "s",
    "fib_lucas.calls": "count",
    "fib_lucas.self_s": "s",
    "fib_lucas.max_index": "count",
    "moment_sums.table_calls": "count",
    "moment_sums.table_hit_ratio": "ratio",
    "moment_sums.cells_filled": "count",
    "moment_sums.fill_s": "s",
    "moment_sums.brute_calls": "count",
    "moment_sums.brute_terms": "count",
    "moment_sums.brute_s": "s",
    "beatty_floor.calls": "count",
    "beatty_floor.self_s": "s",
    "trace.request_s": "s",
    "trace.overhead_ratio": "ratio",
}
MAXIMA = ("cli.max_output_bits", "fib_lucas.max_index")


class BenchError(Exception):
    pass


def deadline_left(started: float) -> float:
    left = TIME_LIMIT_S - (monotonic() - started)
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def measure_setup(started: float, probes: int) -> list[float]:
    """Seconds from a fresh interpreter to an imported nicom with its CLI parser built.

    Each sample is the faster of one probe on each CPU the benchmark may
    use: a shared host's slow spells only ever slow a probe down.
    """
    src = str(ROOT / "src")
    samples = []
    for _ in range(probes):
        pair = []
        for cpu in sorted(os.sched_getaffinity(0)):
            proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, src, str(cpu)],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=deadline_left(started))
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            pair.append(float(proc.stdout))
        samples.append(min(pair))
    return samples


def serve(requests: list[dict], started: float, *, seconds: float, trace: bool = False,
          passes: int | None = None, spans_path: Path | None = None) -> dict:
    """Run the request list in a fresh worker process and return its reply."""
    job = {"src": str(ROOT / "src"), "requests": requests, "trace": trace,
           "seconds": seconds, "min_requests": MIN_REQUESTS, "passes": passes,
           "spans_path": str(spans_path) if spans_path else None}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=deadline_left(started))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def grade(requests: list[dict], reply: dict, check: checker.Checker) -> list[tuple]:
    """(request index, status, reason, count) per distinct reply."""
    return [(idx, *check.check(requests[idx]["expect"], rc, out, err), count)
            for idx, rc, out, err, count in reply["results"]]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def request_times(reply: dict, normalize: bool = True) -> list[float]:
    """Each request's latency: the median over its attempts, in reference seconds.

    Each attempt is divided by the mean time of the kernel calls made just
    before and just after it, which ran at the same speed of the machine
    (see calibrate.py).  With ``normalize`` off, the median of the plain
    wall times instead.
    """
    if not normalize:
        return [statistics.median(ts) for ts in reply["latencies"]]
    return [statistics.median(calibrate.normalized(t, (before + after) / 2)
                              for t, (before, after) in zip(ts, ks))
            for ts, ks in zip(reply["latencies"], reply["kernels"])]


def end_to_end(times: list[float], graded: list, maxrss_kb: float, setup: list[float]) -> dict:
    """End-to-end metrics over the request list, from each request's latency.

    A request that failed on any attempt is charged the time of a whole
    pass of the list instead, in the percentiles and in the throughput, so
    it ranks above every success and making it succeed can only help.
    """
    failed = {idx for idx, status, _, _ in graded if status != checker.OK}
    whole_pass = sum(times)
    charged = [whole_pass if i in failed else t for i, t in enumerate(times)]
    latencies = sorted(charged)
    attempts = sum(count for *_, count in graded)
    ok_attempts = sum(count for _, status, _, count in graded if status == checker.OK)
    return {
        "setup_s": statistics.median(setup),
        "requests_per_s": (len(times) - len(failed)) / sum(charged),
        "latency_p50_ms": 1000 * nearest_rank(latencies, 0.50),
        "latency_p90_ms": 1000 * nearest_rank(latencies, 0.90),
        "peak_rss_mb": maxrss_kb / 1024,
        "success_ratio": ok_attempts / attempts,
    }


def per_layer(base: dict, traced: dict) -> dict:
    """Per-layer totals of the traced worker, per pass of the request list."""
    totals = traced["trace"]
    values = {name: totals.get(name, 0) / traced["passes"] for name in PER_LAYER_UNITS}
    values.update((name, totals.get(name, 0)) for name in MAXIMA)
    calls = totals.get("moment_sums.table_calls", 0)
    values["moment_sums.table_hit_ratio"] = (
        totals.get("moment_sums.table_hits", 0) / calls if calls else 0.0)
    values["trace.overhead_ratio"] = sum(request_times(traced)) / sum(request_times(base))
    return values


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, requests, graded_runs, check, extra) -> dict:
    graded = [g for run in graded_runs for g in run]
    attempted = sum(count for *_, count in graded)
    failed = Counter()
    for _, status, reason, count in graded:
        if status != checker.OK:
            failed[reason] += count
    over_limit = [i for i, req in enumerate(requests)
                  if req["expect"]["kind"] in ("value", "digest")
                  and check.reference_digits(req["expect"]) > 4300]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_revision": git_revision(),
        "requests_in_list": len(requests), "requests_over_4300_digits": len(over_limit),
        "attempted": attempted, "failed": sum(failed.values()),
        "failure_ratio": sum(failed.values()) / attempted,
        "failures_by_reason": dict(failed),
        "wrong": sum(count for _, status, _, count in graded if status == checker.WRONG),
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()

    if not (ROOT / "src" / "nicom" / "cli.py").is_file():
        print(f"error: no nicom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        check = checker.Checker(ROOT)
        requests = workloads.generate(args.workload, args.seed)
        OUT_DIR.mkdir(exist_ok=True)
        if args.trace == 0:
            # Half the set-up probes run before the serving worker and half
            # after, so they sample more of the machine's slow swings in
            # speed; an unmeasured first probe may compile bytecode.
            measure_setup(started, 1)
            setup = measure_setup(started, SETUP_PROBES // 2)
            reply = serve(requests, started, seconds=args.seconds)
            setup += measure_setup(started, SETUP_PROBES - SETUP_PROBES // 2)
            graded = grade(requests, reply, check)
            metrics = end_to_end(request_times(reply), graded, reply["maxrss_kb"], setup)
            units = END_TO_END_UNITS
            runs = [graded]
            # The same figures in plain wall-clock seconds, for reference.
            wall_clock = end_to_end(request_times(reply, normalize=False), graded,
                                    reply["maxrss_kb"], setup)
            kernels = [k for ks in reply["kernels"] for pair in ks for k in pair]
            extra = {"passes": reply["passes"], "latency_samples": len(requests),
                     "kernel_median_s": statistics.median(kernels),
                     "wall_clock_metrics": wall_clock, "setup_samples_s": setup}
        else:
            # The untraced run fixes the number of whole passes; the traced
            # run repeats exactly that work, so their request times give the
            # overhead.
            base = serve(requests, started, seconds=args.seconds / 4)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            traced = serve(requests, started, seconds=0, trace=True,
                           passes=base["passes"], spans_path=spans)
            runs = [grade(requests, base, check), grade(requests, traced, check)]
            metrics = per_layer(base, traced)
            units = PER_LAYER_UNITS
            extra = {"passes": traced["passes"], "spans_file": str(spans.relative_to(ROOT))}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = run_record(args, requests, runs, check, extra)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"run_record": record}))
    result = {
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
