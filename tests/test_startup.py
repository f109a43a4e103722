"""What a fresh ``nicom`` process loads.

Importing ``nicom.cli`` and building its command table, which every CLI
command does first, loads ``nicom.cli`` and the five modules ``compute`` and
``bench`` run (``fib_lucas``, ``beatty_floor``, ``closed_forms``,
``moment_sums`` and ``decimal_text``), and none of ``verify_suite``,
``recurrence_prover`` and ``qratio``, which ``verify`` and ``prove`` load
at their first use.  Nor does it load ``argparse``, or ``gettext`` and
``locale``, which argparse loads: ``cli`` parses argv from its own
command table.  Nor does it load ``dataclasses``, ``inspect``, ``json``,
``csv``, ``fractions`` or ``decimal``; each of the last four
loads when its first user runs: ``decimal`` when ``decimal_str`` converts
a value above ``decimal_text._JOIN_BITS`` bits, or a closed ``compute``
bounds its value above ``cli.DECIMAL_RING_BITS``, the same 49,152 bits.
Each case runs in a fresh interpreter and compares ``sys.modules`` before
and after, so what ``site`` preloads does not count.  Nor does the import
compile a ``MomentTable`` step: a plan's step compiles at its first fill.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import nicom

SRC = str(Path(nicom.__file__).parent.parent)
WATCHED = ("argparse", "gettext", "locale", "dataclasses", "inspect", "json", "csv",
           "fractions", "decimal")
# the nicom modules importing nicom.cli loads, and those verify and prove add
CLI_MODULES = ",".join(f"nicom.{m}" for m in (
    "beatty_floor", "cli", "closed_forms", "decimal_text", "fib_lucas", "moment_sums"))
VERIFY_STACK = "nicom.qratio,nicom.recurrence_prover,nicom.verify_suite"

# argv[1] is the directory holding nicom, argv[2] the first use to run;
# prints the watched and nicom.* modules the import added, then those the use added
PROBE = f"""
import sys
def shown(added):
    return sorted(m for m in added if m in {WATCHED!r} or m.startswith("nicom."))
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import nicom.cli
nicom.cli.build_parser()
imported = set(sys.modules)
print(*shown(imported - before), sep=",")

import contextlib, io
from nicom.cli import main
from nicom.decimal_text import decimal_str
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[2])
print(*shown(set(sys.modules) - imported), sep=",")
"""


def loads(use):
    """(the watched and nicom.* modules importing nicom.cli adds, those ``use`` then adds)."""
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC, use],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, at_use = proc.stdout.split("\n")[:2]
    return at_import, at_use


COMPUTE = "main(['compute', '--sum', 'A', '--k', '10', '--s', '1', '--engine', 'closed'"


@pytest.mark.parametrize("use, first_loaded", [
    ("pass", ""),
    (COMPUTE + "])", ""),
    ("main(['bench', '--k', '10', '--s', '1'])", "json"),
    ("main(['verify', '--claim', 'theorem1'])", VERIFY_STACK),
    ("main(['prove', '--claim', 'lemma2'])", VERIFY_STACK),
    (COMPUTE + ", '--format', 'json'])", "json"),
    ("main(['prove', '--claim', 'lemma2', '--format', 'json'])", "json," + VERIFY_STACK),
    (COMPUTE + ", '--format', 'csv'])", "csv"),
    ("main(['verify', '--claim', 'lemma2', '--format', 'csv'])", "csv," + VERIFY_STACK),
    # decimal_str joins Decimal halves only above 3 * 2**14 = 49,152 bits
    ("decimal_str((1 << 49152) - 1)", ""),
    ("decimal_str(1 << 49152)", "decimal"),
    # a closed compute evaluates in exact Decimal once moment_bits(k, s), an upper bound
    # on the value's size, passes cli.DECIMAL_RING_BITS = 3 * 2**14 bits; at s = 1 that is
    # above k = 35393
    ("main(['compute', '--sum', 'A', '--k', '35393', '--s', '1', '--engine', 'closed'])", ""),
    ("main(['compute', '--sum', 'A', '--k', '35394', '--s', '1', '--engine', 'closed'])",
     "decimal"),
    # fractions itself imports decimal
    ("from nicom.qratio import q_value; q_value('phi', 4)", "decimal,fractions,nicom.qratio"),
])
def test_each_module_loads_at_its_first_use(use, first_loaded):
    assert loads(use) == (CLI_MODULES, first_loaded)


STEP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import nicom.cli
nicom.cli.build_parser()
from nicom.moment_sums import MomentTable, _compiled_step
first, second = MomentTable(), MomentTable()
compiled = [_compiled_step.cache_info().misses]
first.a(40, 3)
compiled.append(_compiled_step.cache_info().misses)
second.a(50, 3)
compiled.append(_compiled_step.cache_info().misses)
print(*compiled, first._fronts[False][6] is second._fronts[False][6])
"""


def test_a_plans_step_compiles_at_its_first_fill():
    # none at import, so start-up pays for no step; a second table on the plan reuses it
    proc = subprocess.run([sys.executable, "-c", STEP_PROBE, SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "1", "True"]
