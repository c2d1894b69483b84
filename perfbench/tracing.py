"""Spans around the calls into diffgen's modules, placed from outside.

``Tracer.install()`` rebinds each traced public function, wherever diffgen
holds a reference to it (module globals, and dicts such as the solver's
scheme table), to a wrapper that records a span: name, start, end and the
index of the enclosing span. ``uninstall()`` puts the originals back, so
untraced passes run the program unchanged. Spans nest: ``assemble_unified``
contains ``unified_coefficient_rows``, ``compact_stencil`` contains
``beta_coefficients``, ``cli.run`` contains whatever the command calls.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from time import perf_counter

# span name -> (module, functions); a span's busy time is reported as "<name>_s"
SPANS = {
    "explicit_form.beta_coefficients": ("explicit_form", ("beta_coefficients",)),
    "explicit_form.error_coefficients": ("explicit_form", ("error_coefficients",)),
    "series.miller_expand": ("series", ("miller_expand",)),
    "series.grunwald_weights": ("series", ("grunwald_weights",)),
    "stencils.build": ("stencils", ("compact_stencil", "noncompact_stencil")),
    "stencils.apply": ("stencils", ("apply_stencil",)),
    "cli.run": ("cli", ("run",)),
    "solvers.assemble_fractional": ("solvers", ("assemble_fractional",)),
    "solvers.assemble_central": ("solvers", ("assemble_central",)),
    "solvers.unified_coefficient_rows": ("solvers", ("unified_coefficient_rows",)),
    "solvers.assemble_unified": ("solvers", ("assemble_unified",)),
    "solvers.solve_dense": ("solvers", ("solve_dense",)),
}
# time spent in a BVP problem's rhs/exact callables: the problem factories
# are wrapped to return problems whose callables record this span
PROBLEM_EVAL = "scalars.problem_eval"
PROBLEM_FACTORIES = ("sine_bvp", "power_law_fractional_bvp")


def _matrix_entries(out, args, kwargs) -> int:
    matrix = out[0]
    size = getattr(matrix, "size", None)
    return size if size is not None else sum(len(row) for row in matrix)


# function -> (counter name, work done by one call)
COUNTERS = {
    "beta_coefficients": ("explicit_form.coefficients", lambda out, a, k: len(out.beta)),
    "miller_expand": ("series.weights", lambda out, a, k: len(out.weights)),
    "grunwald_weights": ("series.weights", lambda out, a, k: len(out)),
    "solve_dense": ("solvers.unknowns", lambda out, a, k: len(a[1])),
    "assemble_central": ("solvers.matrix_entries", _matrix_entries),
    "assemble_unified": ("solvers.matrix_entries", _matrix_entries),
    "assemble_fractional": ("solvers.matrix_entries", _matrix_entries),
}
TIME_METRICS = tuple(SPANS) + (PROBLEM_EVAL,)
COUNT_METRICS = tuple(dict.fromkeys(name for name, _ in COUNTERS.values()))


class Tracer:
    def __init__(self, dg):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack: list[int] = []
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if m is not None and (name == "diffgen" or name.startswith("diffgen."))]
        self._swaps = []  # (original, wrapper)
        for span, (module, names) in SPANS.items():
            mod = getattr(dg, module)
            for fname in names:
                original = getattr(mod, fname)
                self._swaps.append((original, self._wrap(span, original, COUNTERS.get(fname))))
        for fname in PROBLEM_FACTORIES:
            original = getattr(dg.solvers, fname)
            self._swaps.append((original, self._factory(original)))

    def _wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counter is not None:
                counts[counter[0]] += counter[1](out, args, kwargs)
            return out

        return traced

    def _rebind(self, old, new) -> None:
        for mod in self._modules:
            for key, value in vars(mod).items():
                if value is old:
                    setattr(mod, key, new)
                elif type(value) is dict and not key.startswith("__"):
                    for k, v in value.items():
                        if v is old:
                            value[k] = new

    def install(self) -> None:
        for original, wrapper in self._swaps:
            self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for original, wrapper in self._swaps:
            self._rebind(wrapper, original)

    def _factory(self, fn):
        """``fn`` returning its problem with rhs and exact timed as PROBLEM_EVAL."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            problem = fn(*args, **kwargs)
            exact = problem.exact and self._wrap(PROBLEM_EVAL, problem.exact)
            return replace(problem, rhs=self._wrap(PROBLEM_EVAL, problem.rhs), exact=exact)

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    def busy(self) -> dict[str, float]:
        """Seconds inside each span name, not counting a span nested in one of
        the same name twice."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        spans = self.spans
        for name, start, end, parent in spans:
            if name not in out:
                continue
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out
