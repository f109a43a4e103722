"""Generate closed_refs.json: independent references for the compute-closed workload.

The closed-form engine is what compute-closed times, so its outputs are
checked against values this script derives without it:

* the residue of A(k, s, 0) and A'(k, s) modulo MODULUS, from the two-step
  recurrence of the moment table run over all (s, j) with s + j <= 3 and
  reduced modulo MODULUS at every step (MODULUS = 10^8 * (2^61 - 1), so the
  residue also gives the last eight decimal digits);
* the decimal digit count and the leading eight digits, from the leading
  term phi^s * N^(s+1) / (s+1) of the sum (N = F_k - 1), whose relative
  error is O(1/N) and so far below 10^-200 at the indices used here.

Before writing, the script checks its recurrence against literal sums for
k <= 18 and its residues, digit counts and leading digits against an
exact (unreduced) run of the same recurrence up to k = EXACT_CHECK_K.

Run from the repository root (takes about ten seconds):

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from math import comb, isqrt
from pathlib import Path

import workloads

MODULUS = 10**8 * (2**61 - 1)
TOTAL_MAX = 3  # s + j <= 3 covers A(k, s, 0) and A'(k, s) for s <= 3
EXACT_CHECK_K = 1300
PHI_DIGITS = 120
OUT = Path(__file__).with_name("closed_refs.json")


def fib(n: int) -> int:
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def sweep(k_max: int, keep, modulus: int | None):
    """{k: {(s, j): A(k, s, j)}} for k in keep, by the two-step recurrence.

    For F_{k-1} <= n < F_k: n = F_{k-1} contributes
    F_{k-1}^j (F_k - e)^s with e = 1 if k-1 is even, else 0; and
    n = F_{k-1} + m, 1 <= m < F_{k-2}, has floor(phi*n) = F_k + floor(phi*m),
    which expands over A(k-2, s-i, j-l) by the binomial theorem.
    """
    pairs = [(s, t - s) for t in range(TOTAL_MAX + 1) for s in range(t + 1)]
    zero = {p: 0 for p in pairs}
    older, prev = dict(zero), dict(zero)  # A(k-2, .), A(k-1, .)
    f_prev, f_cur = 1, 2  # F_{k-1}, F_k at k = 3
    out = {}
    for k in range(3, k_max + 1):
        e = 1 if (k - 1) % 2 == 0 else 0
        fp = [1] * (TOTAL_MAX + 1)
        fc = [1] * (TOTAL_MAX + 1)
        for i in range(1, TOTAL_MAX + 1):
            fp[i] = fp[i - 1] * f_prev
            fc[i] = fc[i - 1] * f_cur
        cur = {}
        for s, j in pairs:
            boundary = fp[j] * sum(
                comb(s, i) * fc[i] * (-e) ** (s - i) for i in range(s + 1)
            )
            shifted = sum(
                comb(j, l) * fp[l] * comb(s, i) * fc[i] * older[(s - i, j - l)]
                for l in range(j + 1)
                for i in range(s + 1)
            )
            value = prev[(s, j)] + boundary + shifted
            cur[(s, j)] = value % modulus if modulus else value
        older, prev = prev, cur
        f_prev, f_cur = f_cur, f_prev + f_cur
        if modulus:
            f_prev, f_cur = f_prev % modulus, f_cur % modulus
        if k in keep:
            out[k] = cur
    return out


def prime_sum(row, s: int) -> int:
    """A'(k, s) = sum_i C(s, i) A(k, s - i, i), since floor(phi^2 n) = n + floor(phi n)."""
    return sum(comb(s, i) * row[(s - i, i)] for i in range(s + 1))


def leading_term(sum_kind: str, k: int, s: int) -> int:
    """floor(alpha^s N^(s+1) / (s+1)), alpha = phi or phi^2, N = F_k - 1."""
    scale = 10**PHI_DIGITS
    phi_num = scale + isqrt(5 * scale * scale)  # phi ~ phi_num / (2 * scale)
    den = 2 * scale
    if sum_kind == "Aprime":
        phi_num += den  # phi^2 = phi + 1
    n = fib(k) - 1
    return phi_num**s * n ** (s + 1) // (den**s * (s + 1))


def digits_and_head(approx: int) -> tuple[int, str]:
    text = str(approx)
    guard = text[8:48]
    if set(guard) <= {"0"} or set(guard) <= {"9"}:
        raise ArithmeticError("leading-term estimate too close to a digit boundary")
    return len(text), text[:8]


def brute(sum_kind: str, k: int, s: int) -> int:
    total = 0
    for n in range(1, fib(k)):
        fl = (n + isqrt(5 * n * n)) // 2
        total += (fl + n if sum_kind == "Aprime" else fl) ** s
    return total


def self_check() -> None:
    small = sweep(18, set(range(3, 19)), None)
    for k, row in small.items():
        for sum_kind, s in workloads.CLOSED_COMBOS:
            value = row[(s, 0)] if sum_kind == "A" else prime_sum(row, s)
            if value != brute(sum_kind, k, s):
                raise AssertionError(f"recurrence disagrees with literal sum at {sum_kind} k={k} s={s}")
    keep = {k for k in workloads.CLOSED_SMALL_GRID if k <= EXACT_CHECK_K}
    exact = sweep(EXACT_CHECK_K, keep, None)
    reduced = sweep(EXACT_CHECK_K, keep, MODULUS)
    for k in sorted(keep):
        for sum_kind, s in workloads.CLOSED_COMBOS:
            if sum_kind == "A":
                value, residue = exact[k][(s, 0)], reduced[k][(s, 0)]
            else:
                value, residue = prime_sum(exact[k], s), prime_sum(reduced[k], s) % MODULUS
            if value % MODULUS != residue:
                raise AssertionError(f"reduced sweep disagrees at {sum_kind} k={k} s={s}")
            text = str(value)
            if digits_and_head(leading_term(sum_kind, k, s)) != (len(text), text[:8]):
                raise AssertionError(f"leading-term estimate disagrees at {sum_kind} k={k} s={s}")


def main() -> int:
    sys.set_int_max_str_digits(0)
    self_check()
    grid = sorted(set(workloads.CLOSED_SMALL_GRID) | set(workloads.CLOSED_LARGE_GRID))
    rows = sweep(grid[-1], set(grid), MODULUS)
    entries = {}
    for k in grid:
        for sum_kind, s in workloads.CLOSED_COMBOS:
            row = rows[k]
            residue = row[(s, 0)] if sum_kind == "A" else prime_sum(row, s) % MODULUS
            digits, head = digits_and_head(leading_term(sum_kind, k, s))
            entries[workloads.ref_key(sum_kind, k, s)] = [digits, head, str(residue)]
    OUT.write_text(json.dumps({"modulus": str(MODULUS), "entries": entries}, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} references to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
