"""Command-line front end: compute, verify, prove, bench.

Exit codes: 0 success/pass, 1 verification failure or refutation,
2 usage error, 3 resource guard exceeded, or a verify left inconclusive
because it compared only empty sums.  JSON output renders big integers
as decimal strings.

``build_parser`` is cached, so ``main`` parses with one parser, built on
first use and kept for the process.  It holds no copy of the claim
registry: ``verify_suite`` checks ``--claim`` against ``CLAIMS`` as it
stands at each call, and an unknown or unprovable claim exits 2.  The
``--format`` choices are ``FORMATS``, and ``ENGINE_NAMES`` maps each
``compute``/``bench`` ``--engine`` name to its ``moment_sums.ENGINES`` name.

``compute --engine closed`` evaluates in one of two rings, chosen by
``closed_forms.moment_bits(k, s)``, an upper bound on the value's size:
up to ``DECIMAL_RING_BITS`` bits on ints, printed by ``decimal_str``;
above it in an exact ``Decimal`` context, whose ``str`` is a linear copy
where ``decimal_str`` would convert binary to decimal.  ``bench`` always
evaluates on ints and prints ``decimal_digest``.

``verify`` and ``prove`` import ``verify_suite``, and with it
``recurrence_prover`` and ``qratio``, at their first use; ``compute`` and
``bench`` load none of the three.
"""

from __future__ import annotations

import argparse
import functools
import sys
from time import perf_counter

from .closed_forms import ClosedEngine, moment_bits
from .decimal_text import decimal_digest, decimal_str, exact_context
from .moment_sums import ENGINES, BruteForceGuardError, Moment, make_engine

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# a closed compute whose moment_bits bound is above this evaluates in exact Decimal
DECIMAL_RING_BITS = 3 * 2**14

FORMATS = ("text", "json", "csv")
# compute's and bench's --engine name -> its moment_sums.ENGINES name
ENGINE_NAMES = {"brute": "brute", "rec": "recursive", "closed": "closed"}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed indentation."""
    import json

    return json.dumps(obj, indent=2, sort_keys=True)


def _moment(sum_kind: str, k: int, s: int, j: int) -> Moment:
    if k < 1:
        raise ValueError(f"--k must be >= 1, got {k}")
    prime = sum_kind == "Aprime"
    if prime and j != 0:
        raise ValueError("--j applies to --sum A only")
    return Moment(s, j, prime)


def _compute_value(sum_kind: str, k: int, s: int, j: int, engine: str) -> int:
    moment = _moment(sum_kind, k, s, j)
    return make_engine(ENGINE_NAMES[engine]).at(k, [moment])[0]


def _compute_text(sum_kind: str, k: int, s: int, j: int, engine: str) -> str:
    """The decimal text of the moment; see the module docstring for the closed engine's two rings."""
    if engine == "closed" and moment_bits(k, s) > DECIMAL_RING_BITS:
        from decimal import Decimal

        moment = _moment(sum_kind, k, s, j)
        with exact_context():
            return str(ClosedEngine(Decimal(1)).at(k, [moment])[0])
    return decimal_str(_compute_value(sum_kind, k, s, j, engine))


def _cmd_compute(args) -> int:
    # the request's fields, in _compute_text's argument order, then its value
    reply = {field: getattr(args, field) for field in ("sum", "k", "s", "j", "engine")}
    reply["value"] = _compute_text(*reply.values())
    if args.format == "json":
        print(canonical_json(reply))
    elif args.format == "csv":
        _print_csv([reply.keys(), reply.values()])
    else:
        print(reply["value"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify_suite

    engines = tuple(args.engines.split(",")) if args.engines is not None else None
    report = verify_suite.verify_claim(
        args.claim, k_max=args.kmax, engines=engines, deep=args.deep
    )
    if args.format == "json":
        print(canonical_json(report.to_dict()))
    elif args.format == "csv":
        rows = [["claim", "k", "lhs", "rhs", "equal"]]
        rows += [[report.claim, r.index, decimal_str(r.lhs), decimal_str(r.rhs),
                  str(r.lhs == r.rhs).lower()]
                 for r in report.rows]
        _print_csv(rows)
    else:
        lo, hi = report.range
        print(f"{report.claim}: {report.verdict} "
              f"(indices {lo}..{hi}, engines {','.join(report.engines)})")
        for f in report.failures:
            print(f"  FAIL at {f['index']}: {f['lhs']} != {f['rhs']}")
        if report.skipped:
            print("  skipped (guard): {}..{}".format(*report.skipped))
    if report.verdict == "inconclusive":
        return EXIT_GUARD
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_prove(args) -> int:
    if args.window is not None and args.window < 1:
        raise ValueError(f"--window must be >= 1, got {args.window}")
    from . import verify_suite
    from .recurrence_prover import Certificate

    certs = verify_suite.prove_claim(args.claim, extra_window=args.window)
    if args.format == "json":
        print(canonical_json([c.to_dict() for c in certs]))
    elif args.format == "csv":
        columns = [f for f in Certificate._fields if f != "root_containment"]
        _print_csv([columns] + [[getattr(c, f) for f in columns] for c in certs])
    else:
        for c in certs:
            print(f"{c.claim}: {c.verdict} "
                  f"(degree {c.degree}, agreed {c.agreed_terms}, window {c.window})")
    return EXIT_OK if all(c.certified for c in certs) else EXIT_FAIL


def _cmd_bench(args) -> int:
    start = perf_counter()
    value = _compute_value("A", args.k, args.s, 0, args.engine)
    elapsed = perf_counter() - start
    digits, head, tail = decimal_digest(value)
    print(canonical_json({"k": args.k, "s": args.s, "engine": args.engine,
                          "seconds": round(elapsed, 6), "digits": digits, "head": head,
                          "tail": tail, "negative": value < 0}))
    return EXIT_OK


def _print_csv(rows) -> None:
    import csv

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nicom",
        description="Exact golden-ratio Beatty moment sums and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate a moment sum")
    p.add_argument("--sum", choices=["A", "Aprime"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--engine", choices=ENGINE_NAMES, default="rec")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="check a claim index by index")
    p.add_argument("--claim", required=True,
                   help="a registered claim; another name is a usage error")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--engines", default=None,
                   help="comma-separated subset of the engines the claim supports "
                        f"({','.join(ENGINES)}); another engine is a usage error")
    p.add_argument("--deep", action="store_true",
                   help="extend default ranges (theorem1/case4l to 100)")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("prove", help="finite recurrence certification of a claim")
    p.add_argument("--claim", required=True,
                   help="a claim with a registered root-set spec; another is a usage error")
    p.add_argument("--window", type=int, default=None,
                   help="corroboration window (default 2x the annihilator degree)")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("bench", help="time an engine at a given index")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--engine", choices=ENGINE_NAMES, default="closed")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BruteForceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
