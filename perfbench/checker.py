"""Check each reply of the nicom CLI against a reference the timed engine did not produce.

* ``value``/``digest`` requests on the recurrence and brute engines are
  checked against the closed forms, evaluated here, outside the timed
  process;
* those on the closed-form engine against closed_refs.json (see
  make_refs.py): residue modulo 10^8 (2^61 - 1), digit count and leading
  digits, all derived without the closed forms;
* ``verify`` and ``prove`` replies against their expected exit code,
  verdict, index range and, per certificate, degree and agreed terms.

A reply is ``ok``, ``wrong`` (a wrong value or verdict) or ``error`` (any
other non-zero exit, such as the 4300-digit integer-to-string limit).
Both of the last two count as failed requests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import ref_key

OK, WRONG, ERROR = "ok", "wrong", "error"
DIGIT_LIMIT_MESSAGE = "Exceeds the limit"

# (claim, shape, bound, degree) of each certificate a claim yields, in order.
_SIGNED2 = ("signed-phi-powers", 2, 10)
_EVEN4 = ("even-phi-powers", 4, 9)
_QUARTIC10 = ("quartic-phi-powers", 10, 21)
_TWICE_ODD21 = ("twice-odd-phi-powers", 21, 22)
CERTIFICATES = {
    "lemma2": [("lemma2/A", *_SIGNED2), ("lemma2/Aprime", *_SIGNED2)],
    "lemma3": [("lemma3/even", *_EVEN4), ("lemma3/odd", *_EVEN4)],
    "lemma4": [("lemma4/even", *_EVEN4), ("lemma4/odd", *_EVEN4)],
    "theorem1": [
        ("theorem1/mod4=0", *_QUARTIC10),
        ("theorem1/mod4=1", *_TWICE_ODD21),
        ("theorem1/mod4=2", *_QUARTIC10),
        ("theorem1/mod4=3", *_TWICE_ODD21),
    ],
}


class Checker:
    def __init__(self, root: Path) -> None:
        # Replies are parsed here, in the checking process only; the process
        # that serves requests keeps the interpreter's default digit limit.
        sys.set_int_max_str_digits(0)
        if str(root / "src") not in sys.path:
            sys.path.insert(0, str(root / "src"))
        from nicom import closed_forms, fib_lucas

        self._closed = {
            ("A", 0): lambda k: fib_lucas.fib(k) - 1,
            ("A", 1): closed_forms.lemma2_a,
            ("A", 3): closed_forms.lemma3_a3,
            ("Aprime", 0): lambda k: fib_lucas.fib(k) - 1,
            ("Aprime", 1): closed_forms.lemma2_a_prime,
            ("Aprime", 3): closed_forms.lemma4_a_prime3,
        }
        refs = json.loads(Path(__file__).with_name("closed_refs.json").read_text())
        self._modulus = int(refs["modulus"])
        self._table = refs["entries"]

    def reference_digits(self, expect: dict) -> int:
        """Decimal digits of the value a value/digest request asks for."""
        return self._reference(expect)[0]

    def _reference(self, expect: dict) -> tuple[int, str, str, int]:
        """(digits, leading 8 digits, last 8 digits, value modulo the table modulus)."""
        kind, k, s = expect["sum"], expect["k"], expect["s"]
        if expect["ref"] == "table":
            digits, head, residue = self._table[ref_key(kind, k, s)]
            residue = int(residue)
            return digits, head, str(residue % 10**8).zfill(8), residue
        text = str(self._closed[(kind, s)](k))
        return len(text), text[:8], text[-8:], int(text) % self._modulus

    def check(self, expect: dict, rc: int, out: str, err: str) -> tuple[str, str]:
        """(status, reason) of one reply."""
        if rc not in (0, 1):
            if DIGIT_LIMIT_MESSAGE in err:
                return ERROR, "digit-limit"
            return ERROR, f"exit {rc}"
        try:
            problem = _CHECKS[expect["kind"]](self, expect, rc, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unparseable reply ({type(exc).__name__})"
        return (WRONG, problem) if problem else (OK, "")

    def _value(self, expect, rc, out):
        if rc != 0:
            return f"exit {rc}"
        text = out.strip()
        digits, head, _, residue = self._reference(expect)
        if len(text) != digits or text[:8] != head or int(text) % self._modulus != residue:
            return "value differs from reference"
        return ""

    def _digest(self, expect, rc, out):
        if rc != 0:
            return f"exit {rc}"
        reply = json.loads(out)
        digits, head, tail, _ = self._reference(expect)
        wanted = {"k": expect["k"], "s": expect["s"], "engine": expect["engine"],
                  "digits": digits, "head": head, "tail": tail, "negative": False}
        if any(reply.get(key) != value for key, value in wanted.items()):
            return "digest differs from reference"
        if not isinstance(reply.get("seconds"), (int, float)) or reply["seconds"] < 0:
            return "missing timing"
        return ""

    def _verify(self, expect, rc, out):
        reply = json.loads(out)
        if rc != 0 or reply["verdict"] != "pass":
            return f"verdict {reply['verdict']} (exit {rc})"
        if (reply["claim"] != expect["claim"] or reply["range"] != expect["range"]
                or reply["failures"] or reply["skipped"]):
            return "report differs from expectation"
        if expect["engines"] is not None and reply["engines"] != expect["engines"]:
            return "engines differ from request"
        return ""

    def _prove(self, expect, rc, out):
        certs = json.loads(out)
        wanted = CERTIFICATES[expect["claim"]]
        if rc != 0 or len(certs) != len(wanted):
            return f"{len(certs)} certificates (exit {rc})"
        for cert, (name, shape, bound, degree) in zip(certs, wanted):
            window = 2 * degree if expect["window"] is None else expect["window"]
            got = (cert["claim"], cert["shape"], cert["bound"], cert["degree"],
                   cert["agreed_terms"], cert["window"], cert["verdict"])
            if got != (name, shape, bound, degree, degree, window, "certified"):
                return f"certificate {name} differs from expectation"
        return ""


_CHECKS = {
    "value": Checker._value,
    "digest": Checker._digest,
    "verify": Checker._verify,
    "prove": Checker._prove,
}
