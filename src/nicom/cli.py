"""Command-line front end: compute, verify, prove, bench.

Exit codes: 0 success/pass, 1 verification failure or refutation,
2 usage error, 3 resource guard exceeded, or a verify left inconclusive
because it compared only empty sums.  JSON output renders big integers
as decimal strings.

``build_parser`` returns the command table, built once per process: each
command's handler, help line and options, and each option's name, kind
(int, string or flag), choices and default or ``REQUIRED``.  It is the one
place an option is spelled, and ``parse_args`` and the help read it.
``parse_args`` reads argv left to right by the rules argparse applied to
this command line: ``--name value`` or ``--name=value``, a long option cut
to a unique prefix, a value starting with ``-`` only if it is a negative
number or holds a space, ``int()`` for int options, the last of a repeated
option; no command takes a positional, so ``--`` and what follows it are an
error.  It returns a namespace the ``_cmd_*`` handlers read as
``args.<name>``.
``-h``/``--help`` prints help and exits 0; any other input it cannot read
prints a ``usage:`` and an ``error:`` line naming the token and exits 2.
The table holds no copy of the claim registry: ``verify_suite`` checks
``--claim`` against ``CLAIMS`` as it stands at each call, and an unknown or
unprovable claim exits 2.  The ``--format`` choices are ``FORMATS``, and
``ENGINE_NAMES`` maps each ``compute``/``bench`` ``--engine`` name to its
``moment_sums.ENGINES`` name.

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

import functools
import sys
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Collection, NamedTuple, NoReturn

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
HELP = ("-h", "--help")


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


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """argv's command and its option values, read left to right as argparse read them.

    Returns a namespace of ``command`` and every option of that command.
    On ``-h``/``--help`` it prints help to stdout and raises SystemExit(0);
    on any other input it cannot read it prints a usage line and an
    ``error:`` line naming the token to stderr and raises SystemExit(2).
    """
    commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    unknown = []  # tokens nothing asks for, an error once the command has parsed
    command = None
    for at, token in enumerate(argv):
        spelled = None if token == "--" else _spelled(token, HELP, None)
        if spelled is None:  # the command, which a "--" with nothing after it is not
            command = token if token != "--" or at + 1 < len(argv) else None
            break
        if spelled[0] is None:
            unknown.append(token)
        else:
            _help(None, spelled[1])
    if command is None:
        _fail(None, "the following arguments are required: command")
    if command not in commands:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, commands))})")

    options = {f"--{o.name}": o for o in commands[command].options}
    names = (*HELP, *options)
    values = {o.name: o.default for o in options.values()}
    tokens = iter(argv[at + 1:])
    for token in tokens:
        if token == "--":  # what follows it is all values, and no option takes them
            unknown += [token, *tokens]
            break
        name, explicit = _spelled(token, names, command) or (None, None)
        if name is None:
            unknown.append(token)
            continue
        if name in HELP:
            _help(command, explicit)
        option = options[name]
        if option.kind is bool:
            if explicit is not None:
                _fail(command, f"argument {name}: ignored explicit argument {explicit!r}")
            values[option.name] = True
            continue
        if explicit is None:
            explicit = next(tokens, "--")
            if explicit == "--" or _spelled(explicit, names, command) is not None:
                _fail(command, f"argument {name}: expected one argument")
        values[option.name] = _value(command, option, explicit)
    missing = [f"--{name}" for name, value in values.items() if value is REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **values)


def _spelled(token: str, names: tuple[str, ...],
             command: str | None) -> tuple[str | None, str | None] | None:
    """What token is among the option names of command: None for a value, else
    (its name or None for an unknown option, its ``=value`` or None).

    A long option may be cut to a unique prefix.  A token starting with ``-`` is
    a value if it is ``-`` alone, a negative number or holds a space.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, explicit = token.partition("=")
    if not eq:
        explicit = None
    elif name in names:
        return name, explicit
    if token[1] == "-":
        matches = [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    whole, dot, fraction = token[1:].partition(".")  # -D, -D.D or -.D
    negative_number = (whole.isdecimal() and not dot
                       or fraction.isdecimal() and (not whole or whole.isdecimal()))
    if negative_number or " " in token:
        return None
    return None, None


def _value(command: str, option: Option, text: str):
    try:
        value = option.kind(text)
    except ValueError:
        _fail(command, f"argument --{option.name}: invalid {option.kind.__name__} value: {text!r}")
    if option.choices is not None and value not in option.choices:
        _fail(command, f"argument --{option.name}: invalid choice: {value!r} "
                       f"(choose from {', '.join(map(repr, option.choices))})")
    return value


def _option_text(option: Option) -> str:
    if option.kind is bool:
        return f"--{option.name}"
    if option.choices is not None:
        return f"--{option.name} {{{','.join(option.choices)}}}"
    return f"--{option.name} {option.name.upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: nicom [-h] {{{','.join(build_parser())}}} ..."
    words = [f"usage: nicom {command} [-h]"]
    for option in build_parser()[command].options:
        text = _option_text(option)
        words.append(text if option.default is REQUIRED else f"[{text}]")
    return " ".join(words)


def _help(command: str | None, explicit: str | None) -> NoReturn:
    """Print the top-level help (command None) or a command's, and exit 0."""
    if explicit is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {explicit!r}")
    commands = build_parser()
    flags = [("-h, --help", "show this help message and exit")]
    if command is None:
        about = "Exact golden-ratio Beatty moment sums and identity verification"
        sections = {"commands": [(name, c.help) for name, c in commands.items()],
                    "options": flags}
    else:
        about = commands[command].help
        options = commands[command].options
        sections = {"options": flags + [(_option_text(o), o.help) for o in options]}
    lines = [_usage(command), "", about]
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        # each help text from column 24, as argparse set it
        lines += [((f"  {left:<22}" if len(left) < 22 else f"  {left}\n{'':24}") + right).rstrip()
                  for left, right in rows]
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _fail(command: str | None, message: str) -> NoReturn:
    prog = "nicom" if command is None else f"nicom {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


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
    sys.exit(main())


if __name__ == "__main__":
    entry()
