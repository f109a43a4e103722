import contextlib
import csv
import decimal
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nicom import closed_forms as cf
from nicom import cli, decimal_text, moment_sums, qratio, verify_suite
from nicom.cli import EXIT_FAIL, EXIT_GUARD, EXIT_OK, EXIT_USAGE, canonical_json, main
from nicom.closed_forms import ClosedEngine
from nicom.decimal_text import decimal_digest, decimal_str
from nicom.fib_lucas import fib
from nicom.moment_sums import DEFAULT_BRUTE_GUARD, BruteEngine, Moment, make_engine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_brute(capsys):
    code, out, _ = run(capsys, "compute", "--sum", "A", "--k", "5", "--s", "1",
                       "--engine", "brute")
    assert code == EXIT_OK
    assert out.strip() == "14"
    code, out, _ = run(capsys, "compute", "--sum", "Aprime", "--k", "4", "--s", "3",
                       "--engine", "brute")
    assert (code, out.strip()) == (EXIT_OK, "133")
    # A(6, 1, 2) = sum n^2 floor(phi*n) over n = 1..7
    code, out, _ = run(capsys, "compute", "--sum", "A", "--k", "6", "--s", "1", "--j", "2",
                       "--engine", "brute")
    assert (code, out.strip()) == (EXIT_OK, "1208")


def test_compute_closed_aprime(capsys):
    code, out, _ = run(capsys, "compute", "--sum", "Aprime", "--k", "4", "--s", "3",
                       "--engine", "closed")
    assert code == EXIT_OK
    assert out.strip() == "133"


def test_compute_rec_empty_sum(capsys):
    code, out, _ = run(capsys, "compute", "--sum", "A", "--k", "2", "--s", "3",
                       "--engine", "rec")
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_compute_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "compute", "--sum", "A", "--k", "100", "--s", "3",
                       "--engine", "rec", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert isinstance(payload["value"], str)
    assert payload["value"].isdigit()


def test_compute_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "--sum", "A", "--k", "5", "--s", "2",
                       "--engine", "closed")
    assert code == EXIT_USAGE
    assert "closed engine" in err
    code, _, _ = run(capsys, "compute", "--sum", "A", "--k", "5")
    assert code == EXIT_USAGE  # missing --s


def test_compute_guard_exit(capsys):
    code, _, err = run(capsys, "compute", "--sum", "A", "--k", "40", "--s", "1",
                       "--engine", "brute")
    assert code == EXIT_GUARD
    assert "guard" in err


def test_verify_pass_and_fail_exit_codes(capsys):
    code, _, _ = run(capsys, "verify", "--claim", "nicomachus", "--kmax", "100")
    assert code == EXIT_OK


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "theorem1", "--kmax", "30",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["claim"] == "theorem1"
    assert payload["range"] == [3, 30]
    assert canonical_json(payload) == out.strip()


def test_verify_csv_rows(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "lemma3", "--kmax", "12",
                       "--engines", "brute,recursive", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "k", "lhs", "rhs", "equal"]
    assert all(r[4] == "true" for r in rows[1:])


def test_verify_csv_rows_compare_integers(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "nicomachus", "--kmax", "3",
                       "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [
        "nicomachus,1,1,1,true", "nicomachus,2,9,9,true", "nicomachus,3,36,36,true"]
    # theorem1 compares its identity cross-multiplied: 27/28 at K = 4
    code, out, _ = run(capsys, "verify", "--claim", "theorem1", "--kmax", "4",
                       "--engines", "closed", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == ["theorem1,3,8,8,true", "theorem1,4,21168,21168,true"]


def test_nicomachus_failures_show_both_integer_sides(capsys, monkeypatch):
    entry = verify_suite.CLAIMS["nicomachus"]

    def cubes_off_by_one(m, engine, closed):
        return [(cubes + 1, square) for cubes, square in entry.rows(m, engine, closed)]

    monkeypatch.setitem(verify_suite.CLAIMS, "nicomachus", entry._replace(rows=cubes_off_by_one))
    code, out, _ = run(capsys, "verify", "--claim", "nicomachus", "--kmax", "5",
                       "--format", "json")
    assert code == EXIT_FAIL
    squares = {m: (m * (m + 1) // 2) ** 2 for m in range(1, 6)}
    assert json.loads(out)["failures"] == [
        {"index": m, "lhs": str(sq + 1), "rhs": str(sq)} for m, sq in squares.items()]


def test_verify_deep(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "case4l", "--deep",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["range"] == [1, 100]


def test_prove_text(capsys):
    code, out, _ = run(capsys, "prove", "--claim", "lemma2")
    assert code == EXIT_OK
    assert out.count("certified") == 2


def test_prove_theorem1_emits_four_certificates(capsys):
    code, out, _ = run(capsys, "prove", "--claim", "theorem1", "--format", "json")
    assert code == EXIT_OK
    certs = json.loads(out)
    assert len(certs) == 4
    assert all(c["verdict"] == "certified" for c in certs)


def test_prove_custom_window(capsys):
    code, out, _ = run(capsys, "prove", "--claim", "lemma4", "--window", "30",
                       "--format", "json")
    assert code == EXIT_OK
    assert all(c["window"] == 30 for c in json.loads(out))


@pytest.mark.parametrize("window", ["0", "-3"])
def test_prove_window_below_one_names_the_flag(capsys, window):
    code, out, err = run(capsys, "prove", "--claim", "lemma2", "--window", window)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --window must be >= 1, got {window}\n"


# (shape, bound, degree) of each certificate of each provable claim, by branch
_SIGNED2, _EVEN4 = ("signed-phi-powers", 2, 10), ("even-phi-powers", 4, 9)
_QUARTIC10, _TWICE_ODD21 = ("quartic-phi-powers", 10, 21), ("twice-odd-phi-powers", 21, 22)
CERTIFICATES = {
    "lemma2": {"A": _SIGNED2, "Aprime": _SIGNED2},
    "lemma3": {"even": _EVEN4, "odd": _EVEN4},
    "lemma4": {"even": _EVEN4, "odd": _EVEN4},
    "theorem1": {"mod4=0": _QUARTIC10, "mod4=1": _TWICE_ODD21,
                 "mod4=2": _QUARTIC10, "mod4=3": _TWICE_ODD21},
}


@pytest.mark.parametrize("window", [None, 1])
@pytest.mark.parametrize("claim", list(CERTIFICATES))
def test_prove_json_pins_every_certificate(capsys, claim, window):
    argv = ["prove", "--claim", claim, "--format", "json"]
    code, out, _ = run(capsys, *argv, *([] if window is None else ["--window", str(window)]))
    assert code == EXIT_OK
    assert json.loads(out) == [
        {"claim": f"{claim}/{branch}", "shape": shape, "bound": bound, "degree": d,
         "agreed_terms": d, "window": 2 * d if window is None else window,
         "verdict": "certified", "root_containment": "structural (trusted input)"}
        for branch, (shape, bound, d) in CERTIFICATES[claim].items()]


@pytest.mark.parametrize("claim", list(CERTIFICATES))
def test_prove_json_is_byte_identical_to_its_golden_file(capsys, claim):
    code, out, err = run(capsys, "prove", "--claim", claim, "--format", "json")
    golden = Path(__file__).parent / "golden" / f"prove-{claim}.json"
    assert (code, out, err) == (EXIT_OK, golden.read_text(), "")


@pytest.mark.parametrize("window", [1, 100])
@pytest.mark.parametrize("claim", list(CERTIFICATES))
def test_prove_json_with_a_window_is_byte_identical_to_its_golden_file(capsys, claim, window):
    code, out, err = run(capsys, "prove", "--claim", claim, "--window", str(window),
                         "--format", "json")
    golden = Path(__file__).parent / "golden" / f"prove-{claim}-window{window}.json"
    assert (code, out, err) == (EXIT_OK, golden.read_text(), "")


@pytest.mark.parametrize("claim", list(CERTIFICATES))
def test_prove_csv_is_byte_identical_to_its_golden_file(capsys, claim):
    code, out, err = run(capsys, "prove", "--claim", claim, "--format", "csv")
    golden = Path(__file__).parent / "golden" / f"prove-{claim}.csv"
    assert (code, out, err) == (EXIT_OK, golden.read_text(), "")


def prove_with_rhs_raised(capsys, monkeypatch, claim, index):
    """Each certificate's (claim, verdict, agreed terms), the first rhs at ``index`` + 1."""
    entry = verify_suite.CLAIMS[claim]

    def broken(k, engine, closed):
        (lhs, rhs), *rest = entry.rows(k, engine, closed)
        return [(lhs, rhs + (k == index)), *rest]

    monkeypatch.setitem(verify_suite.CLAIMS, claim, entry._replace(rows=broken))
    code, out, _ = run(capsys, "prove", "--claim", claim, "--format", "json")
    assert code == EXIT_FAIL
    return [(c["claim"], c["verdict"], c["agreed_terms"]) for c in json.loads(out)]


def test_prove_refutes_a_right_side_one_too_large(capsys, monkeypatch):
    assert prove_with_rhs_raised(capsys, monkeypatch, "lemma2", 4) == [
        ("lemma2/A", "refuted at index 4", 3), ("lemma2/Aprime", "certified", 10)]


@pytest.mark.parametrize("claim, index, expected", [
    # k = 7 is term 4 of the odd class k -> 2k - 1
    ("lemma3", 7, [("lemma3/even", "certified", 9), ("lemma3/odd", "refuted at index 4", 3)]),
    # K = 9 is term 2 of the residue class K -> 4l + 1
    ("theorem1", 9, [("theorem1/mod4=0", "certified", 21),
                     ("theorem1/mod4=1", "refuted at index 2", 1),
                     ("theorem1/mod4=2", "certified", 21), ("theorem1/mod4=3", "certified", 22)]),
])
def test_prove_reads_the_claims_rows(capsys, monkeypatch, claim, index, expected):
    assert prove_with_rhs_raised(capsys, monkeypatch, claim, index) == expected


def test_bench_closed_far_beyond_brute(capsys):
    code, out, _ = run(capsys, "bench", "--k", "1000", "--s", "3",
                       "--engine", "closed")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["digits"] > 800
    assert payload["seconds"] < 1.0


def test_bench_rec_and_closed_agree_with_brute_in_range(capsys):
    _, out_rec, _ = run(capsys, "compute", "--sum", "A", "--k", "25", "--s", "3",
                        "--engine", "rec")
    _, out_closed, _ = run(capsys, "compute", "--sum", "A", "--k", "25", "--s", "3",
                           "--engine", "closed")
    _, out_brute, _ = run(capsys, "compute", "--sum", "A", "--k", "25", "--s", "3",
                          "--engine", "brute")
    assert out_rec == out_closed == out_brute


def test_bench_brute_beyond_guard(capsys):
    code, _, _ = run(capsys, "bench", "--k", "100", "--s", "1", "--engine", "brute")
    assert code == EXIT_GUARD


BENCH = ("bench", "--k", "3", "--s", "1")


@pytest.mark.parametrize("argv, token", [
    ((), "command"),  # no command
    (("frobnicate",), "'frobnicate'"),
    ((*BENCH, "--bogus"), "--bogus"),
    (("bench", "--k", "3", "--s"), "--s"),  # no value
    (("bench", "--k", "x", "--s", "1"), "'x'"),
    ((*BENCH, "--engine", "fast"), "'fast'"),
    (("bench", "--k", "3"), "--s"),  # a required option left out
])
def test_each_usage_error_names_its_token(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: nicom")
    assert error.startswith("nicom") and ": error: " in error and token in error, error


@pytest.mark.parametrize("argv, usage", [
    (("--help",), "usage: nicom [-h] {compute,verify,prove,bench} ...\n"),
    (("compute", "-h"), "usage: nicom compute [-h] --sum {A,Aprime} --k K --s S [--j J] "),
])
def test_help_prints_usage_to_stdout(capsys, argv, usage):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(usage)


@pytest.mark.parametrize("argv, parsed", [
    # an option cut to a unique prefix, with its value after "="
    ((*BENCH, "--eng=closed"), {"engine": "closed"}),
    # a negative number is a value, so --k -1 reaches compute's own check
    (("compute", "--sum", "A", "--k", "-1", "--s", "0"), {"k": -1}),
    # the last of a repeated option wins
    ((*BENCH, "--s", "3", "--s", "2"), {"s": 2}),
])
def test_options_parse_as_argparse_parsed_them(argv, parsed):
    args = vars(cli.parse_args(list(argv)))
    assert {name: args[name] for name in parsed} == parsed


@pytest.mark.parametrize("argv", [
    ("--", *BENCH),
    (*BENCH, "--"),
    ("bench", "--k", "3", "--", "--s", "1"),
    ("bench", "--k", "--", "--s", "1"),
])
def test_a_double_dash_is_a_usage_error(capsys, argv):
    # no command takes a positional argument, so nothing may follow "--"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert ": error: " in err


def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback():
    # 3000 indices make about 140 KB of CSV, more than a pipe holds, so the CLI is
    # still writing when the reader closes after the header
    argv = ["verify", "--claim", "nicomachus", "--kmax", "3000", "--format", "csv"]
    src = str(Path(cli.__file__).parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "nicom.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"claim,k,lhs,rhs,equal\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (EXIT_FAIL, b"")


@contextlib.contextmanager
def int_digit_limit(digits):
    """Set the interpreter's int/str digit limit (0 lifts it), restoring it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_decimal_str_matches_str():
    rng = random.Random(5)
    values = [0, 7, -7, True, 10**511, 10**512, 10**512 - 1, 10**1024 + 1]
    values += [rng.randrange(10**d) * rng.choice((1, -1)) for d in (600, 4301, 9000, 40000)]
    # both sides of the Decimal join threshold T and of the join's leaf width
    with int_digit_limit(0):
        n = len(str(2**decimal_text._JOIN_BITS)) - 1  # 10^n <= 2^T < 10^(n+1)
    edges = [10**n, 10**n - 1, 10 ** (n + 1), 10 ** (n + 1) - 1]
    for t in (decimal_text._JOIN_BITS, decimal_text._LEAF_BITS):
        edges += [2 ** (t - 1), 2**t - 1, 2**t, 2**t + 1]
    values += edges + [-v for v in edges]
    with int_digit_limit(0):
        for v in values:
            assert decimal_str(v) == str(v)


def from_digits(text):
    """int(text) for a digit string of any size, never parsing more than 512 digits at once."""
    if len(text) <= 512:
        return int(text)
    half = len(text) // 2
    return from_digits(text[:half]) * 10 ** (len(text) - half) + from_digits(text[half:])


def test_decimal_str_of_hundreds_of_thousands_of_digits():
    rng = random.Random(6)
    for digits, limit in ((300_001, 4300), (100_000, 640)):  # 640: the smallest limit accepted
        text = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=digits - 1))
        with int_digit_limit(limit):
            value = from_digits(text)
            assert decimal_str(value) == text
            assert decimal_str(-value) == "-" + text


def test_decimal_str_power_caches_stay_logarithmic():
    value = 10**1_000_000 - 1
    assert decimal_str(value) == "9" * 1_000_000
    # each cache entry is the square of the one before, and the cache stops at
    # the largest width the value splits at
    joins, powers = decimal_text._JOINS, decimal_text._POWERS
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        assert all(b == a * a for a, b in zip(joins, joins[1:]))
    assert all(b == a * a for a, b in zip(powers, powers[1:]))
    assert len(joins) == ((value.bit_length() - 1) // decimal_text._LEAF_BITS).bit_length()
    # the int powers serve the divmod regime only, below the join threshold
    assert powers[-2].bit_length() <= decimal_text._JOIN_BITS


def test_compute_beyond_the_digit_limit(capsys):
    with int_digit_limit(4300):
        code, out, err = run(capsys, "compute", "--sum", "A", "--k", "20000", "--s", "3",
                             "--engine", "closed")
        assert code == EXIT_OK, err
        _, json_out, _ = run(capsys, "compute", "--sum", "A", "--k", "20000", "--s", "3",
                             "--engine", "closed", "--format", "json")
    with int_digit_limit(0):
        value = cf.lemma3_a3(20000)
        assert len(str(value)) > 4300
        assert int(out) == value
        assert int(json.loads(json_out)["value"]) == value


def selection_ks(s):
    """Two k of each parity around the largest k whose moment_bits bound is at most
    ``cli.DECIMAL_RING_BITS[s]``."""
    k = 1
    while cf.moment_bits(k + 1, s) <= cli.DECIMAL_RING_BITS[s]:
        k += 1
    return [k - 1, k, k + 1, k + 2]


@pytest.mark.parametrize("s, prime", sorted(cf._EVALUATORS))
def test_compute_closed_text_on_both_sides_of_the_selection(capsys, monkeypatch, s, prime):
    converted = []  # the values the CLI handed to decimal_str
    monkeypatch.setattr(cli, "decimal_str", lambda v: converted.append(v) or decimal_str(v))
    moment = Moment(s, 0, prime)
    sum_kind = "Aprime" if prime else "A"
    ks = selection_ks(s)
    for k in ks:
        above = cf.moment_bits(k, s) > cli.DECIMAL_RING_BITS[s]
        assert above == (k in ks[2:])
        with int_digit_limit(4300):
            text = decimal_str(ClosedEngine().at(k, [moment])[0])
            outs = {}
            for fmt in ("text", "json", "csv"):
                converted.clear()
                code, outs[fmt], err = run(capsys, "compute", "--sum", sum_kind, "--k", str(k),
                                           "--s", str(s), "--engine", "closed", "--format", fmt)
                assert code == EXIT_OK, err
                # only the values at or below the selection are converted from an int
                assert len(converted) == (0 if above else 1), (k, fmt)
        assert outs["text"] == text + "\n", k
        assert json.loads(outs["json"])["value"] == text, k
        assert list(csv.reader(io.StringIO(outs["csv"])))[1] == [
            sum_kind, str(k), str(s), "0", "closed", text], k


@pytest.mark.parametrize("argv, message", [
    (["--sum", "A", "--s", "2"], "closed engine supports j = 0 and s in {0, 1, 3}, got s = 2, j = 0"),
    (["--sum", "A", "--s", "1", "--j", "1"],
     "closed engine supports j = 0 and s in {0, 1, 3}, got s = 1, j = 1"),
    (["--sum", "Aprime", "--s", "3", "--j", "1"], "--j applies to --sum A only"),
])
def test_compute_closed_rejects_moments_beyond_the_selection(capsys, argv, message):
    code, out, err = run(capsys, "compute", "--k", "100000", "--engine", "closed", *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def digest_by_slicing(value):
    text, width = decimal_str(abs(value)), decimal_text.DIGEST_WIDTH
    return len(text), text[:width], text[-width:]


def test_decimal_digest_matches_decimal_str_slices():
    values = [0, -1, -10**8, -(10**600 + 7)] + [int("987654321"[:d]) for d in range(1, 10)]
    values += [10**d + c for d in range(1, 3001) for c in (-1, 0, 1)]
    # both sides of powers of 2, where the bit length, and with it the digit count's
    # lower bound, steps
    values += [2**e + c for e in (*range(1, 10000, 7), decimal_text._JOIN_BITS) for c in (-1, 0, 1)]
    values += ClosedEngine().at(1000, [Moment(1), Moment(3)])
    values += ClosedEngine().at(20000, [Moment(1), Moment(3)])
    values += ClosedEngine().at(95962, [Moment(3)])
    with int_digit_limit(640):  # the smallest limit the interpreter accepts
        for v in values + [-v for v in values]:
            assert decimal_digest(v) == digest_by_slicing(v), v.bit_length()


@settings(max_examples=40, deadline=None)
@given(st.integers(1700, 300_000), st.integers(0, 2**64), st.booleans())
def test_decimal_digest_of_random_values_matches_decimal_str_slices(bits, seed, negative):
    # both sides of _BOUNDED_HEAD_BITS: 5^e in whole below it, bounded above it
    value = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    value = -value if negative else value
    with int_digit_limit(640):
        assert decimal_digest(value) == digest_by_slicing(value)


def test_decimal_digest_next_to_a_power_of_ten_takes_the_whole_power(monkeypatch):
    # n / 10^e is an integer at n = h * 10^e, or within 10^-e of one next to it, so the
    # bounds on 5^e straddle it and the head comes from the whole power
    bounded = []
    head = decimal_text._bounded_head
    monkeypatch.setattr(decimal_text, "_bounded_head",
                        lambda n, e: bounded.append(head(n, e)) or bounded[-1])
    values = [h * 10**e + c for h in (1, 10**7, 12345678, 99999999)
              for e in (1600, 2001, 5000, 30000) for c in (-1, 0, 1)]
    assert min(v.bit_length() for v in values) > decimal_text._BOUNDED_HEAD_BITS
    with int_digit_limit(640):
        for v in values:
            assert decimal_digest(v) == digest_by_slicing(v), v
    assert bounded == [None] * len(values)
    # away from an integer the bounds agree, and 5^e is never formed
    bounded.clear()
    rng = random.Random(7)
    values = [rng.getrandbits(b) | 1 << (b - 1) for b in (5121, 20000, 100000)]
    with int_digit_limit(640):
        for v in values:
            assert decimal_digest(v) == digest_by_slicing(v)
    assert None not in bounded and len(bounded) == len(values)


def test_power5_bounds_straddle_the_power():
    for e in (*range(300), 1000, 4097, 80001):
        lo, hi, t = decimal_text._power5_bounds(e)
        assert lo << t <= 5**e <= hi << t, e
        # each of about 96 bits, and at most e apart: about e * 2^-95 of their size
        assert hi.bit_length() <= 97 and hi - lo <= e, e


@pytest.mark.parametrize("k", [1, 2, 3, 40, 1000, 20000])
def test_bench_digest_equals_decimal_str_slices(capsys, k):
    # the engines that reach k here: brute under its guard, rec up to k = 1000
    # (it takes seconds at k = 20000), closed everywhere
    engines = [e for e in ("brute", "rec", "closed")
               if e == "closed" or (e == "rec" and k <= 1000) or fib(k) - 1 <= DEFAULT_BRUTE_GUARD]
    for engine in engines:
        for s in (0, 1, 3):
            with int_digit_limit(4300):  # the values at k = 20000 pass the limit
                code, out, err = run(capsys, "bench", "--k", str(k), "--s", str(s),
                                     "--engine", engine)
            assert code == EXIT_OK, err
            payload = json.loads(out)
            del payload["seconds"]
            value = make_engine("recursive" if engine == "rec" else engine).at(k, [Moment(s)])[0]
            digits, head, tail = digest_by_slicing(value)
            assert payload == {"k": k, "s": s, "engine": engine, "digits": digits,
                               "head": head, "tail": tail, "negative": value < 0}


def test_verify_beyond_the_digit_limit(capsys):
    with int_digit_limit(4300):
        code, out, err = run(capsys, "verify", "--claim", "case4l", "--kmax", "520",
                             "--format", "csv")
    assert code == EXIT_OK, err
    rows = list(csv.reader(io.StringIO(out)))
    assert max(len(r[2]) for r in rows[1:]) > 4300
    assert all(r[2] == r[3] and r[4] == "true" for r in rows[1:])


@pytest.mark.parametrize("claim, kmax", [("lemma2", "0"), ("theorem1", "2"), ("case4l", "-3")])
def test_verify_empty_range_is_a_usage_error(capsys, claim, kmax):
    code, out, err = run(capsys, "verify", "--claim", claim, "--kmax", kmax)
    assert code == EXIT_USAGE
    assert "empty index range" in err
    assert out == ""


def test_negative_guard_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "-5")
    code, _, err = run(capsys, "compute", "--sum", "A", "--k", "2", "--s", "1",
                       "--engine", "brute")
    assert code == EXIT_USAGE
    assert "NICOM_BRUTE_GUARD" in err
    code, _, _ = run(capsys, "verify", "--claim", "lemma2", "--engines", "brute")
    assert code == EXIT_USAGE
    # engines that never sum literally do not read the guard
    code, _, _ = run(capsys, "compute", "--sum", "A", "--k", "2", "--s", "1", "--engine", "rec")
    assert code == EXIT_OK


@pytest.mark.parametrize("raw", ["abc", "1.5", ""])
def test_malformed_guard_names_its_variable(capsys, monkeypatch, raw):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", raw)
    for argv in (("compute", "--sum", "A", "--k", "2", "--s", "1", "--engine", "brute"),
                 ("verify", "--claim", "lemma2", "--engines", "brute")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"error: NICOM_BRUTE_GUARD must be a nonnegative integer term count, "
                       f"got {raw!r}\n")


def test_verify_nicomachus_sums_each_term_once(capsys, monkeypatch):
    engines = []

    class Counted(BruteEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setitem(moment_sums.ENGINES, "brute", Counted)
    code, out, _ = run(capsys, "verify", "--claim", "nicomachus", "--kmax", "1000")
    assert code == EXIT_OK
    assert out.startswith("nicomachus: pass")
    assert [e.terms for e in engines] == [1000]


def test_verify_reports_skipped_indices_as_one_range(capsys, monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "1000")
    argv = ("verify", "--claim", "nicomachus", "--kmax", "200000")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.splitlines()[1] == "  skipped (guard): 1001..200000"
    assert len(out) < 1024
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out)["skipped"] == [1001, 200000]
    assert len(out) < 1024


def test_verify_left_inconclusive_by_the_guard(capsys, monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "0")
    code, out, _ = run(capsys, "verify", "--claim", "lemma3", "--engines", "brute")
    assert code == EXIT_GUARD
    assert out.startswith("lemma3: inconclusive")
    code, out, _ = run(capsys, "verify", "--claim", "lemma3", "--engines", "brute",
                       "--format", "json")
    assert code == EXIT_GUARD
    assert json.loads(out)["verdict"] == "inconclusive"


@pytest.mark.parametrize("argv", [
    ("lemma2", "--kmax", "2"),  # A(k, 1, 0) = 0 at k = 1, 2, on every engine
    ("lemma3", "--kmax", "2", "--engines", "brute"),
    ("theorem6", "--kmax", "1"),  # LCM(A(2, 1), A'(2, 1)) = 0 = the closed form at k = 1
])
def test_verify_of_only_empty_sums_is_inconclusive(capsys, argv):
    code, out, _ = run(capsys, "verify", "--claim", *argv)
    assert code == EXIT_GUARD
    assert out.startswith(f"{argv[0]}: inconclusive")
    assert "skipped" not in out


def test_verify_theorem1_checks_every_default_engine(capsys, monkeypatch):
    at = cf.ClosedEngine.at

    def off_by_one(self, k, moments):
        """The closed engine with A'(k, 3) one too large."""
        moments = list(moments)
        return [v + (mo == Moment(3, prime=True)) for mo, v in zip(moments, at(self, k, moments))]

    monkeypatch.setattr(cf.ClosedEngine, "at", off_by_one)
    code, out, _ = run(capsys, "verify", "--claim", "theorem1")
    assert code == EXIT_FAIL
    assert out.startswith("theorem1: fail (indices 3..30, engines recursive,closed)")
    # the recursive engine alone does not read the closed forms
    code, out, _ = run(capsys, "verify", "--claim", "theorem1", "--engines", "recursive")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv, problem, supported", [
    (("theorem6", "--engines", "recursive"), "unsupported engine 'recursive'", "brute, closed"),
    (("case4l", "--engines", "brute"), "unsupported engine 'brute'", "recursive, closed"),
    (("nicomachus", "--engines", "closed", "--kmax", "10"), "unsupported engine 'closed'",
     "brute"),
    (("fact-identities", "--engines", "brute"), "unsupported engine 'brute'", "closed"),
    # a name outside the registry is unknown, not unsupported
    (("theorem1", "--engines", "brute,magic"), "unknown engine 'magic'",
     "brute, recursive, closed"),
    (("theorem1", "--engines", ""), "unknown engine ''", "brute, recursive, closed"),
    # a lemma's closed forms are its right-hand side, not an engine it compares
    (("lemma4", "--engines", "closed"), "unsupported engine 'closed'", "brute, recursive"),
])
def test_verify_with_an_unsupported_engine_is_a_usage_error(capsys, argv, problem, supported):
    code, out, err = run(capsys, "verify", "--claim", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"error: {problem} for {argv[0]}; supported: {supported}\n" == err


def test_verify_with_a_repeated_engine_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--claim", "lemma2", "--engines", "brute,brute")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: engine 'brute' is listed more than once for lemma2\n"


def test_claim_choices_come_from_the_registry(capsys, monkeypatch):
    entry = verify_suite.CLAIMS["lemma2"]
    monkeypatch.setitem(verify_suite.CLAIMS, "lemma2-copy", entry)
    code, out, _ = run(capsys, "verify", "--claim", "lemma2-copy", "--kmax", "5")
    assert code == EXIT_OK
    assert out.startswith("lemma2-copy: pass (indices 1..5, engines brute,recursive)")
    code, out, _ = run(capsys, "prove", "--claim", "lemma2-copy")
    assert code == EXIT_OK
    assert out.startswith("lemma2-copy/A: certified")
    monkeypatch.setitem(verify_suite.CLAIMS, "lemma2-copy", entry._replace(sections=()))
    assert run(capsys, "prove", "--claim", "lemma2-copy")[0] == EXIT_USAGE


@pytest.mark.parametrize("argv, registry_text", [
    (("verify", "--claim", "nope"), "known: lemma2, lemma3, lemma4, theorem1, theorem6, case4l, "
                                    "nicomachus, fact-identities"),
    (("prove", "--claim", "nicomachus"), "provable claims: lemma2, lemma3, lemma4, theorem1"),
    # "--" as an explicit value: argparse reads it as the claim's name or, in some
    # releases, as no value at all
    pytest.param(("verify", "--claim=--"),
                 "unknown claim '--'|argument --claim: expected one argument",
                 id="argv2-unknown claim '--'"),
])
def test_unknown_or_unprovable_claim_is_a_usage_error(capsys, argv, registry_text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert re.search(registry_text, err), err


def test_reusing_the_parser_leaks_no_state(capsys):
    compute = ("compute", "--sum", "A", "--k", "10", "--s", "1")
    code, out, _ = run(capsys, *compute, "--j", "2", "--format", "json")
    assert (code, json.loads(out)["j"]) == (EXIT_OK, 2)
    code, out, _ = run(capsys, *compute)
    assert (code, out) == (EXIT_OK, f"{make_engine('recursive').at(10, [Moment(1)])[0]}\n")

    theorem1 = verify_suite.CLAIMS["theorem1"]
    code, out, _ = run(capsys, "verify", "--claim", "theorem1", "--deep", "--format", "json")
    assert (code, json.loads(out)["range"]) == (EXIT_OK, [3, theorem1.deep_kmax])
    code, out, _ = run(capsys, "verify", "--claim", "theorem1", "--format", "json")
    assert (code, json.loads(out)["range"]) == (EXIT_OK, [3, theorem1.kmax])

    assert run(capsys, *compute, "--format", "xml")[0] == EXIT_USAGE
    code, out, _ = run(capsys, *compute)
    assert (code, out.strip().isdigit()) == (EXIT_OK, True)

    first = run(capsys, "--help")
    assert first[0] == EXIT_OK and first[1].startswith("usage: nicom")
    assert run(capsys, "--help") == first


@pytest.mark.parametrize("engine", ["brute", "rec", "closed"])
def test_k_below_one_is_a_usage_error(capsys, engine):
    for k in ("0", "-1"):
        for sum_kind in ("A", "Aprime"):
            code, out, err = run(capsys, "compute", "--sum", sum_kind, "--k", k, "--s", "0",
                                 "--engine", engine)
            assert (code, out) == (EXIT_USAGE, ""), (k, sum_kind)
            assert "--k must be >= 1" in err
        code, out, err = run(capsys, "bench", "--k", k, "--s", "0", "--engine", engine)
        assert (code, out) == (EXIT_USAGE, ""), k
        assert "--k must be >= 1" in err


BIG =10**5000 + 7  # past the interpreter's default digit limit


def big_rows(k, engine, closed):
    """On the brute engine, rows that pass 4300 digits: an equal pair and an unequal one."""
    if not isinstance(engine, BruteEngine):
        return
    yield BIG * k, BIG * k
    yield BIG * k, BIG * k + 1


def big_row_text(k):
    with int_digit_limit(0):
        return [[str(BIG * k), str(BIG * k), "true"],
                [str(BIG * k), str(BIG * k + 1), "false"]]


def patch_big_rows(monkeypatch):
    """lemma2's rows are big_rows."""
    entry = verify_suite.CLAIMS["lemma2"]
    monkeypatch.setitem(verify_suite.CLAIMS, "lemma2", entry._replace(rows=big_rows))


def test_verify_csv_rows_are_exact_beyond_the_digit_limit(capsys, monkeypatch):
    patch_big_rows(monkeypatch)
    with int_digit_limit(4300):
        code, out, err = run(capsys, "verify", "--claim", "lemma2", "--kmax", "2",
                             "--format", "csv")
    assert code == EXIT_FAIL, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "k", "lhs", "rhs", "equal"]
    assert rows[1:] == [["lemma2", str(k), *row] for k in (1, 2) for row in big_row_text(k)]


def test_verify_failures_report_decimal_strings(capsys, monkeypatch):
    patch_big_rows(monkeypatch)
    with int_digit_limit(4300):
        code, out, err = run(capsys, "verify", "--claim", "lemma2", "--kmax", "2",
                             "--format", "json")
        assert code == EXIT_FAIL, err
        code, text, _ = run(capsys, "verify", "--claim", "lemma2", "--kmax", "2")
        assert code == EXIT_FAIL
    expected = [{"index": k, "lhs": lhs, "rhs": rhs}
                for k in (1, 2) for lhs, rhs, equal in big_row_text(k) if equal == "false"]
    assert json.loads(out)["failures"] == expected
    assert text.splitlines() == ["lemma2: fail (indices 1..2, engines brute,recursive)"] + [
        f"  FAIL at {f['index']}: {f['lhs']} != {f['rhs']}" for f in expected]


def test_prove_theorem1_evaluates_each_identity_once(capsys, monkeypatch):
    calls = []
    sides = qratio.theorem1_identity_sides

    def counted(K, *engine):
        calls.append(K)
        return sides(K, *engine)

    monkeypatch.setattr(qratio, "theorem1_identity_sides", counted)
    code, _, _ = run(capsys, "prove", "--claim", "theorem1")
    assert code == EXIT_OK
    # the default windows hold 63, 66, 63 and 66 terms per side (residues 0..3)
    assert len(calls) == 63 + 66 + 63 + 66
    assert len(set(calls)) == len(calls)


def test_prove_lemma2_reads_each_closed_row_once(capsys, monkeypatch):
    calls = []
    at = cf.ClosedEngine.at

    def counted(self, k, moments):
        calls.append(k)
        return at(self, k, moments)

    monkeypatch.setattr(cf.ClosedEngine, "at", counted)
    assert run(capsys, "prove", "--claim", "lemma2")[0] == EXIT_OK
    # both sections read the A and A' row at k = 1..30, the default window of degree 10
    assert calls == list(range(1, 31))


@pytest.mark.parametrize("claim, window", [("lemma3", None), ("lemma4", 5), ("theorem1", None)])
def test_prove_reads_every_section_in_one_ascending_pass(capsys, monkeypatch, claim, window):
    entry = verify_suite.CLAIMS[claim]
    read = []

    def counted(k, engine, closed):
        read.append(k)
        return entry.rows(k, engine, closed)

    monkeypatch.setitem(verify_suite.CLAIMS, claim, entry._replace(rows=counted))
    argv = ["prove", "--claim", claim, "--format", "json"]
    code, out, _ = run(capsys, *argv, *([] if window is None else ["--window", str(window)]))
    assert code == EXIT_OK
    # so the recurrence engine of a lemma never reads behind its frontier and refills
    certs = json.loads(out)
    assert read == sorted({a * i + b for (_, _, a, b, _), cert in zip(entry.sections, certs)
                           for i in range(1, cert["degree"] + cert["window"] + 1)})


def test_theorem1_claims_read_one_identity_row(capsys, monkeypatch):
    calls = []
    sides = qratio.theorem1_identity_sides

    def counted(K, *engine):
        calls.append(K)
        return sides(K, *engine)

    monkeypatch.setattr(qratio, "theorem1_identity_sides", counted)
    assert run(capsys, "verify", "--claim", "theorem1", "--kmax", "10")[0] == EXIT_OK
    # each K at most once per engine (recursive, closed)
    assert sorted(set(calls)) == list(range(3, 11))
    assert all(calls.count(K) <= 2 for K in calls)
    calls.clear()
    code, _, _ = run(capsys, "verify", "--claim", "case4l", "--kmax", "5", "--engines", "closed")
    assert code == EXIT_OK
    assert calls == [4, 8, 12, 16, 20]
    calls.clear()
    code, out, _ = run(capsys, "prove", "--claim", "theorem1", "--window", "1", "--format", "json")
    assert code == EXIT_OK
    # residue r certifies K = 4l + r for l = 1..degree + 1
    certs = json.loads(out)
    assert sorted(calls) == sorted(4 * l + r for r, cert in enumerate(certs)
                                   for l in range(1, cert["degree"] + 2))
