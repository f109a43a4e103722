"""The process that serves benchmark requests: one client, one thread, closed loop.

Reads a job (JSON) on stdin, imports nicom from the checkout's ``src``,
and calls ``nicom.cli.main(argv)`` in-process for each request with stdout
and stderr captured, the next request starting only when the previous one
has returned.  The request list is served in whole passes: exactly
``passes`` of them, or else as many as end nearest to ``seconds`` with at
least ``min_requests`` attempted, so that every run samples each request
equally often.  The calibration kernel (see calibrate.py) runs at the
start of each pass and right after each request, outside the request's
time, so every attempt lies between two kernel calls.  It writes one JSON
reply to stdout: for each request, each distinct reply (exit code,
stdout, stderr) with its count, and the latency of every attempt with
the times of the kernel calls just before and just after it; the peak
RSS and, when tracing, the per-layer totals.

The worker moves itself to the next CPU of its affinity set at the start
of each pass, so every request is timed on each CPU, and a request and
the kernel call paired with it run on the same one.

The worker is started fresh for every run, so ``qratio``'s module-level
table starts empty as it does for a CLI invocation and warms over the run
as it would in a long library session.  It leaves the interpreter's
integer-to-string digit limit and NICOM_BRUTE_GUARD as it finds them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from calibrate import timed_kernel


def load_nicom(src: Path):
    sys.path.insert(0, str(src))
    import nicom

    if Path(nicom.__file__).resolve().parent != (src / "nicom").resolve():
        raise ImportError(f"nicom imported from {nicom.__file__}, not from {src}")
    return nicom


def main() -> int:
    job = json.load(sys.stdin)
    nicom = load_nicom(Path(job["src"]))
    cli = importlib.import_module("nicom.cli")
    tracer = None
    timed_kernel()  # warm: first-call costs are not the machine's speed
    if job["trace"]:
        import tracing

        modules = {layer: importlib.import_module(f"nicom.{layer}") for layer in tracing.LAYERS}
        tracer = tracing.install({"nicom": nicom, **modules})

    argvs = [req["argv"] for req in job["requests"]]
    n = len(argvs)
    # per request: distinct reply (exit code, stdout, stderr) -> count
    replies: list[dict] = [{} for _ in argvs]
    latencies: list[list[float]] = [[] for _ in argvs]
    kernels: list[list[list[float]]] = [[] for _ in argvs]
    attempt = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    while True:
        if attempt % n == 0:
            done = attempt // n
            if done and done == job["passes"]:
                break
            if done and job["passes"] is None and attempt >= job["min_requests"]:
                # Stop at the pass boundary nearest to the target duration.
                elapsed = perf_counter() - start
                if elapsed + elapsed / done / 2 >= job["seconds"]:
                    break
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[done % len(cpus)]})
            kernel_before = timed_kernel()
        idx = attempt % n
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request_id = attempt
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = cli.main(list(argvs[idx]))
            latency = perf_counter() - t0
        kernel_after = timed_kernel()
        kernels[idx].append([kernel_before, kernel_after])
        kernel_before = kernel_after
        key = (rc, out.getvalue(), err.getvalue())
        replies[idx][key] = replies[idx].get(key, 0) + 1
        latencies[idx].append(latency)
        attempt += 1
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = [[idx, rc, out, err, count]
               for idx, distinct in enumerate(replies)
               for (rc, out, err), count in distinct.items()]
    reply = {"maxrss_kb": maxrss_kb, "attempted": attempt,
             "passes": attempt // n, "results": results, "latencies": latencies,
             "kernels": kernels}
    if tracer is not None:
        reply["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
