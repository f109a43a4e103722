"""What a fresh ``nicom`` process loads.

Importing ``nicom.cli`` and building its parser, which every CLI command
does first, loads none of ``dataclasses``, ``inspect``, ``json``, ``csv``,
``fractions`` or ``decimal``; each of the last four loads when its first
user runs: ``decimal`` when ``decimal_str`` converts a value above
``decimal_text._JOIN_BITS`` bits, or a closed ``compute`` bounds its value
above ``cli.DECIMAL_RING_BITS``, the same 49,152 bits.  Each case runs in a
fresh interpreter and compares ``sys.modules`` before and after, so what
``site`` preloads does not count.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import nicom

SRC = str(Path(nicom.__file__).parent.parent)
WATCHED = ("dataclasses", "inspect", "json", "csv", "fractions", "decimal")

# argv[1] is the directory holding nicom, argv[2] the first use to run;
# prints the watched modules the import added, then those the use added
PROBE = f"""
import sys
watched = set({WATCHED!r})
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import nicom.cli
nicom.cli.build_parser()
imported = set(sys.modules)
print(*sorted(watched & (imported - before)), sep=",")

import contextlib, io
from nicom.cli import main
from nicom.decimal_text import decimal_str
from nicom.qratio import q_value
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[2])
print(*sorted(watched & (set(sys.modules) - imported)), sep=",")
"""


def loads(use):
    """(the watched modules importing nicom.cli adds, those ``use`` then adds)."""
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC, use],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, at_use = proc.stdout.split("\n")[:2]
    return at_import, at_use


COMPUTE = "main(['compute', '--sum', 'A', '--k', '10', '--s', '1', '--engine', 'closed'"


@pytest.mark.parametrize("use, first_loaded", [
    ("pass", ""),
    (COMPUTE + "])", ""),
    ("main(['verify', '--claim', 'theorem1'])", ""),
    ("main(['prove', '--claim', 'lemma2'])", ""),
    (COMPUTE + ", '--format', 'json'])", "json"),
    ("main(['prove', '--claim', 'lemma2', '--format', 'json'])", "json"),
    (COMPUTE + ", '--format', 'csv'])", "csv"),
    ("main(['verify', '--claim', 'lemma2', '--format', 'csv'])", "csv"),
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
    ("q_value('phi', 4)", "decimal,fractions"),
])
def test_each_module_loads_at_its_first_use(use, first_loaded):
    assert loads(use) == ("", first_loaded)
