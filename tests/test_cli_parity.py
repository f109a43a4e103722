"""``cli.parse_args`` against the argparse parser the CLI used before it.

``parse_args`` reads an exactly spelled argv from its command table and
gives every other argv to an argparse parser built from the same table;
both paths must read argv as the old parser did.  ``reference_parser`` is
that parser's definition, less the handlers it bound to each command, kept
here and nowhere in ``src``.  Hypothesis draws token lists from a fixed
alphabet: the commands, every option name and its prefixes, ``name=value``
forms, ``-h``, ``--help``, ``--``, a bogus option and a few values.  It also
draws exactly spelled argvs, each a command with some of its options as
``--name value``, so that the table path's own ``int()`` and choices rules
meet the reference.  Both parsers must give the same outcome for each list:
the same values, the help of the same parser, or a usage error from the
same parser.  The error text is not compared, since argparse words it
differently across Python versions.
"""

import argparse
import contextlib
import importlib.util
import io
import itertools
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from nicom import cli
from nicom.cli import ENGINE_NAMES, FORMATS
from nicom.moment_sums import ENGINES


def reference_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("prove", help="finite recurrence certification of a claim")
    p.add_argument("--claim", required=True,
                   help="a claim with a registered root-set spec; another is a usage error")
    p.add_argument("--window", type=int, default=None,
                   help="corroboration window (default 2x the annihilator degree)")
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("bench", help="time an engine at a given index")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--engine", choices=ENGINE_NAMES, default="closed")

    return parser


REFERENCE = reference_parser()


def outcome(parse, argv):
    """("values", the parsed values), ("help", the prog whose help printed) or
    ("error", the prog whose usage error printed)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            if exc.code == 0:
                assert err.getvalue() == ""
                usage = out.getvalue().split("\n")[0]  # usage: <prog> [-h] ...
                return "help", usage.removeprefix("usage: ").split(" [-h]")[0]
            assert (exc.code, out.getvalue()) == (2, "")
            lines = err.getvalue().splitlines()  # argparse may wrap the usage over lines
            assert lines[0].startswith("usage: nicom")
            return "error", lines[-1].split(": error: ")[0]
    return "values", vars(args)


COMMANDS = ["compute", "verify", "prove", "bench"]
NAMES = ["--sum", "--k", "--s", "--j", "--engine", "--format", "--claim", "--kmax",
         "--engines", "--deep", "--window", "--help"]
PREFIXES = sorted({name[:end] for name in NAMES for end in range(3, len(name))})
VALUES = ["", "-1", "-x", "3", "A", "json", "closed"]


def dashes_always_fail() -> bool:
    # argparse releases differ on "--" before a command and after its options; the table
    # parser keeps the reading of Python 3.10 and 3.11, where both are usage errors, and
    # "--" is drawn only where the reference reads it so too
    return all(outcome(REFERENCE.parse_args, argv)[0] == "error"
               for argv in (["--", "bench", "--k", "3", "--s", "3"],
                            ["bench", "--k", "3", "--s", "3", "--"]))


SPELLED = NAMES + PREFIXES + ["--bogus"]
TOKENS = st.one_of(
    st.sampled_from([*COMMANDS, *SPELLED, "-h", *VALUES] + ["--"] * dashes_always_fail()),
    st.builds("{}={}".format, st.sampled_from(SPELLED), st.sampled_from(VALUES)),
)
# a token, or an option followed by a value
UNITS = st.one_of(st.tuples(TOKENS), st.tuples(st.sampled_from(SPELLED), st.sampled_from(VALUES)))
# each command with its required options, cut at a drawn length, so that some lists parse
BASES = [["compute", "--sum", "A", "--k", "3", "--s", "3"], ["verify", "--claim", "A"],
         ["prove", "--claim", "A"], ["bench", "--k", "3", "--s", "3"]]
ARGVS = st.builds(lambda base, cut, units: base[:cut] + list(itertools.chain(*units)),
                  st.sampled_from(BASES), st.integers(0, 7), st.lists(UNITS, max_size=6))


@settings(max_examples=400, deadline=None)
@given(ARGVS)
@example(["compute", "--sum", "A", "--k", "-1", "--s", "3", "--j=-1", "--eng", "closed"])
@example(["compute", "--su=Aprime", "--k", "3", "--s", "3", "--s", "-1", "--fo", "json"])
@example(["compute", "--sum=A", "--k=3", "--s=3"])
@example(["verify", "--claim", "-x y", "--engines", "-1.5"])
@example(["bench", "--k", "3", "--s", "1", "--eng=closed", "--s", "-1"])
@example(["verify", "--cl", "-1", "--de", "--kmax=3", "--format=json", "--e", ""])
@example(["verify", "--claim", "A", "--deep=3"])
@example(["verify", "--claim=", "--deep", "--deep", "--km", "-1"])
@example(["prove", "--claim", "A", "--window", "-x"])
@example(["prove", "--claim", "A", "--w=3", "--claim", "json"])
@example(["bench", "--k", "3", "--s", "3", "--engine", "json"])
@example(["bench", "--k", "3", "--s", "3", "-x"])
@example(["--bogus", "compute", "-h"])
@example(["--he"])
@example([])
def test_the_table_parser_reads_argv_as_argparse_did(argv):
    assert outcome(cli.parse_args, argv) == outcome(REFERENCE.parse_args, argv)


# values for an exactly spelled option: valid and wrong choices, and ints as int() reads them
EXACT_VALUES = ["A", "Aprime", "json", "closed", "fast", "lemma2", "7", "007", " 3", "1_000",
                "x", ""]


def exactly_spelled(command):
    """command followed by a random subset of its options, in a random order, each
    spelled ``--name value`` and a flag bare."""
    def spelled(option):
        if option.kind is bool:
            return st.just([f"--{option.name}"])
        values = st.sampled_from([*(option.choices or ()), *EXACT_VALUES])
        return values.map(lambda value: [f"--{option.name}", value])

    options = cli.build_parser()[command].options
    return st.lists(st.sampled_from(options), unique_by=lambda option: option.name).flatmap(
        lambda chosen: st.tuples(*map(spelled, chosen))).map(
        lambda pairs: [command, *itertools.chain(*pairs)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMMANDS).flatmap(exactly_spelled))
@example(["compute", "--sum", "Aprime", "--k", "007", "--s", " 3", "--j", "1_000"])
@example(["compute", "--format", "csv", "--engine", "brute", "--s", "0", "--k", "1", "--sum", "A"])
@example(["verify", "--deep", "--claim", "x", "--kmax", " 3", "--engines", "", "--deep"])
@example(["prove", "--window", "7", "--claim", "lemma2", "--format", "fast"])
@example(["bench", "--k", "x", "--s", "3"])
def test_exactly_spelled_argvs_read_as_argparse_did(argv):
    assert outcome(cli.parse_args, argv) == outcome(REFERENCE.parse_args, argv)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmarks_requests_never_reach_argparse(monkeypatch):
    def no_argparse(argv):
        raise AssertionError(f"argparse read {argv}")

    monkeypatch.setattr(cli, "_argparse", no_argparse)
    workloads = load_workloads()
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            requests = workloads.generate(workload, seed)
            assert requests
            for request in requests:
                args = cli.parse_args(list(request["argv"]))
                assert args.command == request["argv"][0]


def test_the_alphabet_reaches_every_outcome():
    # the draws above reach more than usage errors: each command parses, and help prints
    for argv, expected in [
        (["compute", "--sum", "A", "--k", "3", "--s", "3"], "values"),
        (["verify", "--claim", "A"], "values"),
        (["prove", "--claim", "A"], "values"),
        (["bench", "--k", "3", "--s", "3"], "values"),
        (["verify", "--help"], "help"),
    ]:
        assert outcome(REFERENCE.parse_args, argv)[0] == expected
        assert outcome(cli.parse_args, argv) == outcome(REFERENCE.parse_args, argv)
