"""Spans and counters around qortho's public functions, from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper in every
``qortho`` module namespace that binds it, and in the module-level tables
that hold it (``verify._QPR_SUITES`` and ``verify._QPK_SUITES``), so calls
between modules (``para_racah.qpochhammer``, ``connections.eval_recurrence``,
``cli.format_scalar``) are counted as well.  ``uninstall()`` restores them.

Each call records a span: id, layer name, start, end, parent span id and
operation id.  Spans stay in memory until ``dump()``.  A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function names, layer name)
LAYERS = [
    ("cli", ("main",), "cli"),
    ("scalars", ("format_scalar",), "scalars.format"),
    ("para_racah", ("b_coefficient", "u_coefficient"), "para_racah.coef"),
    ("para_racah", ("eval_recurrence",), "para_racah.eval_recurrence"),
    ("para_racah", ("eval_explicit",), "para_racah.eval_explicit"),
    ("para_racah", ("qdiff_residual",), "para_racah.qdiff_residual"),
    ("para_racah", ("weights_from_christoffel",), "para_racah.christoffel"),
    ("para_racah", ("weights",), "para_racah.weights"),
    ("para_krawtchouk", ("b_coefficient", "u_coefficient"), "para_krawtchouk.coef"),
    ("para_krawtchouk", ("eval_recurrence",), "para_krawtchouk.eval_recurrence"),
    ("para_krawtchouk", ("weights",), "para_krawtchouk.weights"),
    ("qseries", ("qpochhammer",), "qseries.qpochhammer"),
    ("qseries", ("_series_eval_with_magnitude",), "qseries.series"),
    ("verify", ("gram_errors", "gram_errors_qpk"), "verify.gram_errors"),
    ("verify", ("run_suite",), "verify.run_suite"),
    ("spectral", ("spectrum",), "spectral.spectrum"),
    ("connections", ("verify_qracah_identity",), "connections.qracah_identity"),
    ("connections", ("dual_hahn_limit",), "connections.dual_hahn"),
]
SUITE_TABLES = ("_QPR_SUITES", "_QPK_SUITES")
COEF_LAYERS = ("para_racah.coef", "para_krawtchouk.coef")


def _qortho_namespaces():
    """Every namespace dict that can hold a function reference."""
    for name, mod in list(sys.modules.items()):
        if name == "qortho" or name.startswith("qortho."):
            yield vars(mod)
            for table in SUITE_TABLES:
                if isinstance(vars(mod).get(table), dict):
                    yield vars(mod)[table]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, layer, start, end, parent id, op id)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # distinct coefficients, series terms, checks
        self.op = -1
        self._stack = []         # [span id, child time]
        self._next_id = 0
        self._distinct = set()
        self._patched = []       # (namespace, key, original)

    # -- operations ------------------------------------------------------
    def begin_op(self, op_id: int):
        self.op = op_id
        self._distinct = set()

    def end_op(self, rc: int):
        for layer, key in self._distinct:
            self.counts[layer + ".distinct"] += 1
        self.counts["cli.ops_nonzero_exit"] += rc != 0

    # -- wrapping --------------------------------------------------------
    def _wrap(self, layer, fn, which):
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            self._observe(layer, which, args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, layer, start, end, parent, self.op))
            if layer == "verify.run_suite":
                self.counts["verify.checks"] += len(result)
                self.counts["verify.checks_failed"] += sum(not c.passed for c in result)
            return result

        return wrapper

    def _observe(self, layer, which, args):
        if layer in COEF_LAYERS:
            self._distinct.add((layer, (which, args[0], args[1])))
        elif layer == "qseries.series":
            spec = args[0]
            degree = spec.truncation
            if degree is None:
                from qortho import qseries
                degree = qseries._terminating_degree(tuple(spec.numerator), spec.q)
            self.counts["qseries.series.terms"] += degree + 1

    def install(self):
        targets = {}
        for module, names, layer in LAYERS:
            mod = sys.modules["qortho." + module]
            for name in names:
                fn = getattr(mod, name)
                targets[id(fn)] = (fn, self._wrap(layer, fn, name))
        suites = sys.modules["qortho.verify"]
        for table in SUITE_TABLES:
            for suite, fn in getattr(suites, table).items():
                if id(fn) not in targets:
                    targets[id(fn)] = (fn, self._wrap("verify.suite." + suite, fn, suite))
        for ns in _qortho_namespaces():
            for key, value in list(ns.items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    ns[key] = targets[id(value)][1]
                    self._patched.append((ns, key, value))
        originals = {id(fn) for fn, _ in targets.values()}
        for ns in _qortho_namespaces():
            if any(id(v) in originals for v in ns.values()):
                raise RuntimeError("a traced function kept an unwrapped binding")

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched = []

    # -- output ----------------------------------------------------------
    def totals(self) -> dict:
        """Raw sums over the run: self seconds, calls and counts by name."""
        out = {("cli.self" if layer == "cli" else layer) + "_s": v
               for layer, v in self.self_s.items()}
        out.update({layer + ".calls": v for layer, v in self.calls.items()})
        out.update(self.counts)
        return out

    def dump(self, path):
        layers = sorted({s[1] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        doc = {"fields": ["id", "layer", "start", "end", "parent", "op"],
               "layers": layers,
               "spans": [[i, index[l], round(s, 9), round(e, 9), p, op]
                         for i, l, s, e, p, op in self.spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
