"""Per-layer tracing of nicom, installed from outside the package.

``install`` wraps every public function of each nicom module (plus
``MomentTable.a`` and ``cli._compute_value``) and rebinds each wrapper
wherever a module looks the function up: the defining module and every
module that imported the name, so ``closed_forms.fib`` is traced as well as
``fib_lucas.fib``.  A layer is the module that defines the function.

Each call pushes a frame; on return its duration is charged to the
caller's frame, so self time is a call's duration minus the time its child
calls cover.  Calls into ``closed_forms``, ``fib_lucas`` and
``beatty_floor`` run up to millions of times per pass, so these leaf
layers are aggregated into calls and self time instead of being kept as
spans, and a call they make within their own layer is not timed again
(their ``calls`` count entries into the layer).  All other calls are kept
in memory as spans (id, parent id, request id, name, start, end) and
written out, gzipped, when the run ends.  A wrapper costs more than
``floor_phi`` itself, so ``beatty_floor.self_s`` is an upper bound;
``trace.overhead_ratio`` shows the distortion.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "verify_suite", "recurrence_prover", "qratio", "closed_forms",
          "fib_lucas", "moment_sums", "beatty_floor")
AGGREGATED = ("closed_forms", "fib_lucas", "beatty_floor")


class Tracer:
    def __init__(self) -> None:
        self.request_id = -1
        self.spans: list[tuple] = []
        self._cells: dict[str, list] = {}  # function name -> [self seconds, calls]
        self._inside: dict[str, list] = {}  # layer -> [a call of it is running]
        self.totals = Counter()  # counters and inclusive times named by metric
        self._stack: list[list] = []  # [span id, seconds covered by child calls]
        self._next_id = 0
        self._origin = perf_counter()

    def wrap(self, layer: str, name: str, fn, after=None):
        """A traced stand-in for fn; after(args, result, seconds) records counters."""
        aggregated = layer in AGGREGATED
        full_name = f"{layer}.{name}"
        stack, spans = self._stack, self.spans
        cell = self._cells.setdefault(full_name, [0.0, 0])  # self seconds, calls
        inside = self._inside.setdefault(layer, [False])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if aggregated and inside[0]:
                # a same-layer call inside an aggregated layer: the enclosing
                # call's timing already covers it
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            inside[0] = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inside[0] = False
                stack.pop()
                elapsed = end - start
                cell[0] += elapsed - frame[1]
                cell[1] += 1
                if parent is not None:
                    parent[1] += elapsed
                if not aggregated:
                    spans.append((frame[0], parent[0] if parent else 0, self.request_id,
                                  full_name, start - self._origin, end - self._origin))
            if after is not None:
                after(args, result, elapsed)
            return result

        return traced

    def _table_a(self, fn):
        """MomentTable.a, counting hits and filled cells by len(table) around each call."""
        totals = self.totals

        @functools.wraps(fn)
        def counted(table, *args):
            before = len(table)
            start = perf_counter()
            value = fn(table, *args)
            filled = len(table) - before
            totals["moment_sums.table_calls"] += 1
            totals["moment_sums.cells_filled"] += filled
            if filled:
                totals["moment_sums.fill_s"] += perf_counter() - start
            else:
                totals["moment_sums.table_hits"] += 1
            return value

        return counted

    def _hooks(self, fib) -> dict:
        """Counters recorded after each call, by function; fib is the untraced nicom fib."""
        totals = self.totals

        def brute(terms_of):
            def after(args, result, seconds):
                totals["moment_sums.brute_calls"] += 1
                totals["moment_sums.brute_terms"] += terms_of(args)
                totals["moment_sums.brute_s"] += seconds

            return after

        def largest(metric, measure):
            def after(args, result, seconds):
                totals[metric] = max(totals[metric], measure(args, result))

            return after

        def add(metric, measure):
            def after(args, result, seconds):
                totals[metric] += measure(args, result, seconds)

            return after

        return {
            "moment_sums.a_brute": brute(lambda args: fib(args[0].k) - 1),
            "moment_sums.a_prime_brute": brute(lambda args: fib(args[0]) - 1),
            "qratio.a_brute_range": brute(lambda args: args[0]),
            "qratio.a_prime_brute_range": brute(lambda args: args[0]),
            "fib_lucas.fib": largest("fib_lucas.max_index", lambda args, _: args[0]),
            "fib_lucas.lucas": largest("fib_lucas.max_index", lambda args, _: args[0]),
            "cli._compute_value": largest("cli.max_output_bits",
                                          lambda _, value: abs(value).bit_length()),
            "verify_suite.verify_claim": add(
                "verify_suite.indices_checked",
                lambda _, report, __: len({r.index for r in report.rows if not r.skipped})),
            "recurrence_prover.certify_identity": add(
                "recurrence_prover.terms_checked",
                lambda _, cert, __: 2 * (cert.degree + cert.window)),
            "recurrence_prover.char_poly": add(
                "recurrence_prover.char_poly_s", lambda _, __, seconds: seconds),
        }

    def summary(self) -> dict:
        """Per-layer totals of everything traced so far."""
        out = dict(self.totals)
        for layer in LAYERS:
            cells = [c for name, c in self._cells.items() if name.startswith(layer + ".")]
            out[f"{layer}.self_s"] = sum(c[0] for c in cells)
            out[f"{layer}.calls"] = sum(c[1] for c in cells)
        out["recurrence_prover.certify_self_s"] = self._cells.get(
            "recurrence_prover.certify_identity", [0.0])[0]
        out["trace.request_s"] = sum(s[5] - s[4] for s in self.spans if s[3] == "cli.main")
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for span in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)


def install(modules: dict) -> Tracer:
    """Wrap nicom's public functions; modules maps each layer name to its module."""
    tracer = Tracer()
    hooks = tracer._hooks(modules["fib_lucas"].fib)
    replacements = {}
    for layer in LAYERS:
        module = modules[layer]
        for name, obj in vars(module).items():
            wanted = not name.startswith("_") or f"{layer}.{name}" in hooks
            if wanted and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                replacements[obj] = tracer.wrap(layer, name, obj, hooks.get(f"{layer}.{name}"))
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(module, name, replacements[obj])
    table = modules["moment_sums"].MomentTable
    table.a = tracer.wrap("moment_sums", "MomentTable.a", tracer._table_a(table.a))
    return tracer
