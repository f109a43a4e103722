"""The names in nicom that the benchmark harness reaches, so a refactor cannot silently drop one.

``perfbench/tracing.py`` wraps functions by their names in each layer's
module and reads ``len(MomentTable())`` and ``IndexResult.skipped``;
``perfbench/checker.py`` evaluates references through ``closed_forms`` and
``fib_lucas``.  The checker is read as source only: constructing it lifts
the process's int-to-str digit limit.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from nicom.fib_lucas import fib
from nicom.moment_sums import MomentTable
from nicom.recurrence_prover import Certificate
from nicom.verify_suite import ClaimReport, IndexResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# hooks whose functions are gone, so their metrics read 0 (ROADMAP item 1); mending
# one moves it out of this list
DEAD_HOOKS = {"moment_sums.a_brute", "moment_sums.a_prime_brute", "qratio.a_brute_range",
              "qratio.a_prime_brute_range", "recurrence_prover.char_poly"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(dotted):
    """Whether ``layer.name``, or ``layer.Class.name``, names an attribute of nicom."""
    layer, *names = dotted.split(".")
    obj = importlib.import_module(f"nicom.{layer}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_traced_layer_and_live_hook_exists():
    tracing = load_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"nicom.{layer}")
    hooks = set(tracing.Tracer()._hooks(fib))
    assert DEAD_HOOKS <= hooks
    assert [name for name in sorted(hooks - DEAD_HOOKS) if not resolves(name)] == []
    assert [name for name in sorted(DEAD_HOOKS) if resolves(name)] == []


def test_table_and_report_names_the_tracer_reads():
    assert callable(MomentTable.a)
    assert len(MomentTable()) == 0
    assert IndexResult(3, 1, 1).skipped is False
    assert {"rows"} <= set(ClaimReport._fields) and {"index"} <= set(IndexResult._fields)
    assert {"degree", "window"} <= set(Certificate._fields)


def test_every_checker_reference_name_exists():
    tree = ast.parse((PERFBENCH / "checker.py").read_text())
    used = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("closed_forms", "fib_lucas")}
    assert used  # the checker's references still go through these two modules
    assert [name for name in sorted(used) if not resolves(name)] == []
