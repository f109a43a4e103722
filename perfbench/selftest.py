"""Self-test of the benchmark's own machinery; exits 0 when every check holds.

* The checker counts a wrong value, a wrong verdict, a non-zero exit and
  the 4300-digit integer-to-string error as failed requests, and accepts
  the true reply.
* A failed request ranks above every success in the latency percentiles.
* A request's latency is the median of its attempts, each divided by the
  mean of the calibration kernel calls just before and after it.
* One seed always yields the identical request list, also across fresh
  interpreters with different hash seeds; another seed yields another.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from math import isclose
from pathlib import Path

import calibrate
import checker
import run
import workloads

HERE = Path(__file__).resolve().parent


def digit_limit_message() -> str:
    """The error text this interpreter gives for an over-long int-to-str conversion."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        str(10**5000)
    except ValueError as exc:
        return f"error: {exc}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    raise AssertionError("int-to-str digit limit did not trigger")


def check_checker(check: checker.Checker) -> None:
    rec = workloads._compute("A", 700, 3, "rec", "closed_forms")["expect"]
    closed = workloads._compute("Aprime", workloads.CLOSED_SMALL_GRID[5], 3, "closed", "table")["expect"]
    large = workloads._compute("A", workloads.CLOSED_LARGE_GRID[3], 3, "closed", "table")["expect"]
    bench = workloads._bench(workloads.CLOSED_SMALL_GRID[7], 1, "closed", "table")["expect"]
    verify = workloads._verify("theorem1", 40, "recursive")["expect"]
    prove = workloads._prove("lemma3", 30)["expect"]

    from nicom import closed_forms as cf

    true_rec = str(cf.lemma3_a3(700))
    true_closed = str(cf.lemma4_a_prime3(closed["k"]))
    big = cf.lemma2_a(bench["k"])
    true_bench = json.dumps({"digits": len(str(big)), "engine": "closed", "head": str(big)[:8],
                             "k": bench["k"], "negative": False, "s": 1, "seconds": 0.001,
                             "tail": str(big)[-8:]})
    true_verify = json.dumps({"certificate": None, "claim": "theorem1", "engines": ["recursive"],
                              "failures": [], "range": [3, 40], "skipped": [], "verdict": "pass"})
    certs = [{"claim": name, "shape": shape, "bound": bound, "degree": d, "agreed_terms": d,
              "window": 30, "verdict": "certified", "root_containment": "structural"}
             for name, shape, bound, d in checker.CERTIFICATES["lemma3"]]
    true_prove = json.dumps(certs)

    def flip(text: str) -> str:
        i = len(text) // 2
        return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]

    ok = [(rec, 0, true_rec + "\n", ""), (closed, 0, true_closed + "\n", ""),
          (bench, 0, true_bench, ""), (verify, 0, true_verify, ""), (prove, 0, true_prove, "")]
    for expect, rc, out, err in ok:
        assert check.check(expect, rc, out, err) == (checker.OK, ""), expect

    bad_verify = json.loads(true_verify)
    bad_verify.update(verdict="fail", failures=[{"index": 7, "lhs": "1", "rhs": "2"}])
    certs[1]["verdict"] = "refuted at index 3"
    wrong = [
        (rec, 0, flip(true_rec) + "\n", ""),
        (closed, 0, flip(true_closed) + "\n", ""),
        (bench, 0, true_bench.replace('"s": 1', '"s": 3'), ""),
        (verify, 1, json.dumps(bad_verify), ""),
        (prove, 1, json.dumps(certs), ""),
        (rec, 0, "", ""),
    ]
    for expect, rc, out, err in wrong:
        assert check.check(expect, rc, out, err)[0] == checker.WRONG, (expect, out[:60])

    message = digit_limit_message()
    assert check.check(large, 2, "", message) == (checker.ERROR, "digit-limit")
    assert check.check(rec, 3, "", "error: A(40,3,0) has 102334154 terms\n") == (checker.ERROR, "exit 3")
    assert check.check(verify, 2, "", "usage\n") == (checker.ERROR, "exit 2")


def check_ranking() -> None:
    times = [0.001 * (i + 1) for i in range(100)]
    ok, failure = (checker.OK, ""), (checker.ERROR, "digit-limit")
    graded = [(i, *(ok if i < 89 else failure), 2) for i in range(100)]
    graded.append((5, checker.WRONG, "value differs from reference", 1))
    metrics = run.end_to_end(times, graded, 1024, [0.05])
    whole_pass = sum(times)
    assert isclose(metrics["latency_p90_ms"], 1000 * whole_pass), metrics  # 90th is a failure
    assert isclose(metrics["latency_p50_ms"], 51.0), metrics  # request 5 failed once: ranks last
    assert isclose(metrics["success_ratio"], 178 / 201), metrics
    # the 12 failed requests are charged a whole pass each
    ok_seconds = 0.001 * (sum(range(1, 101)) - 6 - sum(range(90, 101)))
    assert isclose(metrics["requests_per_s"], 88 / (ok_seconds + 12 * whole_pass)), metrics


def check_normalization() -> None:
    reply = {"latencies": [[0.010, 0.030, 0.012]],
             "kernels": [[[0.0012, 0.0008], [0.002, 0.002], [0.002, 0.001]]]}
    # ratios 10, 15 and 8 to the mean kernel call: the median is 10 reference milliseconds
    assert isclose(run.request_times(reply)[0], 10 * calibrate.REFERENCE_S)
    assert isclose(run.request_times(reply, normalize=False)[0], 0.012)


def check_determinism() -> None:
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(json.dumps({w: workloads.generate(w, 7) for w in workloads.WORKLOADS}))")
    lists = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                              text=True, env=env, timeout=60, check=True)
        lists.append(json.loads(proc.stdout))
    assert lists[0] == lists[1]
    for name in workloads.WORKLOADS:
        assert lists[0][name] == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8), name


def main() -> int:
    check_checker(checker.Checker(HERE.parent))
    check_ranking()
    check_normalization()
    check_determinism()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
