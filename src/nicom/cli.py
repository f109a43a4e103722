"""Command-line front end: compute, verify, prove, bench.

Exit codes: 0 success/pass, 1 verification failure or refutation, or a
reader that closed stdout before the output was all written, 2 usage
error, 3 resource guard exceeded, or a verify left inconclusive because it
compared only empty sums.  JSON output renders big integers
as decimal strings.

``build_parser`` returns the command table, built once per process: each
command's handler, help line and options, and each option's name, kind
(int, string or flag), choices and default or ``REQUIRED``.  It is the one
place an option is spelled.  ``parse_args`` reads argv on one of two paths.
The table path reads a known command followed only by exact option names,
each flag bare and each other option followed by one value.  Every value
must not start with ``-``, must pass ``int()`` for an int option and must
be among the option's choices, and every required option must be given.
Any other argv goes to an ``argparse`` parser built from the same table,
and ``argparse`` is imported only then.  It reads unique prefixes,
``--name=value``, negative numbers and ``--``; ``-h``/``--help`` prints
help and exits 0, and any other input it cannot read prints a ``usage:``
and an ``error:`` line and exits 2.  Either path returns a namespace the
``_cmd_*`` handlers read as ``args.<name>``.
The table holds no copy of the claim registry: ``verify_suite`` checks
``--claim`` against ``CLAIMS`` as it stands at each call, and an unknown or
unprovable claim exits 2.  The ``--format`` choices are ``FORMATS``, and
``ENGINE_NAMES`` maps each ``compute``/``bench`` ``--engine`` name to its
``moment_sums.ENGINES`` name.

``compute --engine closed`` evaluates in one of two rings, chosen by
``closed_forms.moment_bits(k, s)``, an upper bound on the value's size:
up to ``DECIMAL_RING_BITS[s]`` bits on ints, printed by ``decimal_str``;
above it in an exact ``Decimal`` context, whose ``str`` is a linear copy
where ``decimal_str`` would convert binary to decimal.  Each s has its own
cut, at the measured crossover of the two rings (the table beside
``DECIMAL_RING_BITS``): 6,144 bits for s = 1 and 3, 32,768 for s = 0.
``bench`` always evaluates on ints and prints ``decimal_digest``, which
reads no full decimal text.

``verify`` and ``prove`` import ``verify_suite``, and with it
``recurrence_prover`` and ``qratio``, at their first use; ``compute`` and
``bench`` load none of the three.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Collection, NamedTuple

from .closed_forms import ClosedEngine, moment_bits
from .decimal_text import decimal_digest, decimal_str, exact_context
from .moment_sums import ENGINES, BruteForceGuardError, Moment, make_engine

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# s -> the moment_bits(k, s) bound above which a closed compute evaluates in exact
# Decimal.  Decimal time over int time, text included, at the largest k of each bound
# (the worse of two k of each parity; in process, best of 9, CPython 3.11, x86-64):
#
#   bits     3k    4k    5k    6k    8k    16k   24k   30k   33k   40k   48k
#   s = 0    1.25  1.11  1.10  1.12  1.13  1.20  1.25  1.29  0.63  0.64  0.64
#   s = 1    1.12  0.97  0.91  0.88  0.83  0.85  0.90  0.91  0.52  0.53  0.54
#   s = 1'   1.15  1.03  0.94  0.88  0.83  0.85  0.90  0.91  0.52  0.53  0.54
#   s = 3    1.10  0.93  0.91  0.89  0.81  0.83  0.88  0.89  0.88  0.91  0.91
#   s = 3'   1.08  0.96  0.90  0.87  0.82  0.84  0.89  0.91  0.51  0.53  0.53
#
# A product of F's (s = 1, 3) gains from 4-5k bits; F_k - 1 (s = 0) only past a step
# near 32,400 bits, where its Decimal time halves at once.  An s outside the table
# evaluates on ints.
DECIMAL_RING_BITS = {0: 2**15, 1: 3 * 2**11, 3: 3 * 2**11}

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
    cut = DECIMAL_RING_BITS.get(s)  # None for an s the closed engine rejects
    if engine == "closed" and cut is not None and moment_bits(k, s) > cut:
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
        print(canonical_json([c._asdict() for c in certs]))
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


class Option(NamedTuple):
    """One option of a command, spelled ``--name`` on the command line.

    ``kind`` is ``int``, ``str`` or ``bool``; a ``bool`` option is a flag,
    which takes no value and is True when given.  ``default`` is REQUIRED
    for an option every call must give.
    """

    name: str
    kind: type
    choices: Collection[str] | None = None
    default: object = None
    help: str = ""


class Command(NamedTuple):
    handler: Callable
    help: str
    options: tuple[Option, ...]


REQUIRED = object()  # the default of an option that has none


@functools.cache
def build_parser() -> dict[str, Command]:
    """The command table: each command's handler, help line and options."""
    return {
        "compute": Command(_cmd_compute, "evaluate a moment sum", (
            Option("sum", str, ("A", "Aprime"), REQUIRED),
            Option("k", int, default=REQUIRED),
            Option("s", int, default=REQUIRED),
            Option("j", int, default=0),
            Option("engine", str, ENGINE_NAMES, "rec"),
            Option("format", str, FORMATS, "text"),
        )),
        "verify": Command(_cmd_verify, "check a claim index by index", (
            Option("claim", str, default=REQUIRED,
                   help="a registered claim; another name is a usage error"),
            Option("kmax", int),
            Option("engines", str,
                   help="comma-separated subset of the engines the claim supports "
                        f"({','.join(ENGINES)}); another engine is a usage error"),
            Option("deep", bool, default=False,
                   help="extend default ranges (theorem1/case4l to 100)"),
            Option("format", str, FORMATS, "text"),
        )),
        "prove": Command(_cmd_prove, "finite recurrence certification of a claim", (
            Option("claim", str, default=REQUIRED,
                   help="a claim with a registered root-set spec; another is a usage error"),
            Option("window", int,
                   help="corroboration window (default 2x the annihilator degree)"),
            Option("format", str, FORMATS, "text"),
        )),
        "bench": Command(_cmd_bench, "time an engine at a given index", (
            Option("k", int, default=REQUIRED),
            Option("s", int, default=REQUIRED),
            Option("engine", str, ENGINE_NAMES, "closed"),
        )),
    }


def parse_args(argv: list[str] | None = None):
    """argv's command and its option values, as a namespace of ``command`` and
    every option of that command: from the table when argv is spelled exactly,
    else from ``_argparse`` (see the module docstring)."""
    argv = sys.argv[1:] if argv is None else argv
    command = build_parser().get(argv[0]) if argv else None
    if command is not None:
        options = {f"--{o.name}": o for o in command.options}
        values = {o.name: o.default for o in command.options}
        tokens = iter(argv[1:])
        for token in tokens:
            option = options.get(token)
            if option is None:
                break
            if option.kind is bool:
                values[option.name] = True
                continue
            text = next(tokens, "-")  # a missing value is argparse's to report
            if text[:1] == "-":
                break
            try:
                value = option.kind(text)
            except ValueError:
                break
            if option.choices is not None and value not in option.choices:
                break
            values[option.name] = value
        else:
            if REQUIRED not in values.values():
                return SimpleNamespace(command=argv[0], **values)
    return _argparse(argv)


def _argparse(argv: list[str]):
    """argv read by an argparse parser built from the command table: help and usage errors."""
    import argparse

    # wider than any usage line, so each stays on one line; help text starts at column 24
    formatter = functools.partial(argparse.HelpFormatter, width=1 << 20)
    parser = argparse.ArgumentParser(
        prog="nicom", formatter_class=formatter,
        description="Exact golden-ratio Beatty moment sums and identity verification")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = build_parser()
    for name, command in commands.items():
        p = sub.add_parser(name, help=command.help, description=command.help,
                           formatter_class=formatter)
        for o in command.options:
            kind = ({"action": "store_true"} if o.kind is bool
                    else {"type": o.kind, "choices": o.choices})
            p.add_argument(f"--{o.name}", **kind, required=o.default is REQUIRED,
                           default=o.default, help=o.help)
    args = parser.parse_args(argv)
    for o in commands[args.command].options:
        # some argparse releases read --name=-- as an empty list
        if not isinstance(getattr(args, o.name), (o.kind, type(None))):
            sub.choices[args.command].error(f"argument --{o.name}: expected one argument")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return build_parser()[args.command].handler(args)
    except BruteForceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    entry()
