"""Outside-in tracer: spans around the package's public functions.

Each function is wrapped where its caller looks it up (``cli.propagate``,
``propagator.dft3_forward``, ``diagnostics.to_spectral``, ...), so no
program file changes.  A span is ``(name, start, end, parent)`` with
``parent`` the index of the enclosing span (-1 for the root).  Spans stay in
memory and are written out by the caller when the command has finished.

The span name is the defining layer and function, whichever module binds
it, so ``diagnostics.to_spectral`` and ``propagator.to_spectral`` both
record ``propagator.to_spectral``.  A function that was never called has
no span: :func:`summarize` reports it as absent rather than as zero, so a
later change that bypasses a layer shows up instead of reading as free.
A binding that no longer exists is listed in ``Tracer.unbound``.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

# (module that looks the name up, attribute, span name)
BINDINGS = (
    ("psmaxwell.cli", "build_grid", "grid.build_grid"),
    ("psmaxwell.cli", "sample_initial", "analytic.sample_initial"),
    ("psmaxwell.cli", "propagate", "propagator.propagate"),
    ("psmaxwell.cli", "invariant_report", "diagnostics.invariant_report"),
    ("psmaxwell.cli", "relative_change", "diagnostics.relative_change"),
    ("psmaxwell.cli", "error_norms", "diagnostics.error_norms"),
    ("psmaxwell.propagator", "build_coefficients", "propagator.build_coefficients"),
    ("psmaxwell.propagator", "step", "propagator.step"),
    ("psmaxwell.propagator", "to_spectral", "propagator.to_spectral"),
    ("psmaxwell.propagator", "to_physical", "propagator.to_physical"),
    ("psmaxwell.propagator", "dft3_forward", "spectral.dft3_forward"),
    ("psmaxwell.propagator", "dft3_inverse", "spectral.dft3_inverse"),
    ("psmaxwell.propagator", "realize", "spectral.realize"),
    ("psmaxwell.diagnostics", "spectral_time_derivative",
     "diagnostics.spectral_time_derivative"),
    ("psmaxwell.diagnostics", "energies", "diagnostics.energies"),
    ("psmaxwell.diagnostics", "helicities", "diagnostics.helicities"),
    ("psmaxwell.diagnostics", "momenta", "diagnostics.momenta"),
    ("psmaxwell.diagnostics", "divergences", "diagnostics.divergences"),
    ("psmaxwell.diagnostics", "to_spectral", "propagator.to_spectral"),
    ("psmaxwell.diagnostics", "to_physical", "propagator.to_physical"),
    ("psmaxwell.diagnostics", "dft3_inverse", "spectral.dft3_inverse"),
)

ROOT = "cli.main"

# The first call of each of these runs under tracemalloc.  Later calls are
# the same size, so one peak suffices and the others keep their timing.
TRACEMALLOC_FIRST = ("propagator.propagate", "diagnostics.invariant_report")


def span_names() -> list[str]:
    return sorted({name for _, _, name in BINDINGS} | {ROOT})


class Tracer:
    """Installs the wrappers, records spans, and restores the bindings."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.max_imag_residue: float | None = None
        self.tracemalloc_peak_bytes: dict[str, int] = {}
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            measure_memory = (
                name in TRACEMALLOC_FIRST
                and name not in self.tracemalloc_peak_bytes
                and not tracemalloc.is_tracing()
            )
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
                if measure_memory:
                    self.tracemalloc_peak_bytes[name] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if name == "spectral.realize" and isinstance(result, tuple):
                residue = float(result[1])
                if self.max_imag_residue is None or residue > self.max_imag_residue:
                    self.max_imag_residue = residue
            return result

        return wrapper


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so their
    intervals are disjoint and their durations add up.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans: list) -> dict:
    """Calls, inclusive and self time per span name; never-called names are absent."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, parent), self_s in zip(spans, selfs):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        # Inclusive time counts only the outermost span of a name.
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            entry["total_s"] += end - start
    return out


def check_spans(spans: list) -> list[str]:
    """Problems with the tracer's own bookkeeping; empty when consistent."""
    problems = []
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != ROOT:
        problems.append(f"expected one {ROOT} root span, got {len(roots)} roots")
    selfs = self_times(spans)
    for (name, start, end, parent), self_s in zip(spans, selfs):
        if end < start or self_s < -1e-6:
            problems.append(f"span {name} has end < start or negative self time")
            break
        if parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems.append(f"span {name} is not nested in its parent")
            break
    if roots:
        root = spans[roots[0]]
        if abs(sum(selfs) - (root[2] - root[1])) > 1e-6:
            problems.append("self times do not sum to the root span")
    return problems
