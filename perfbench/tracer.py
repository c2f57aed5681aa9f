"""Boundary tracing of ``pathgap`` from outside the program.

``Tracer.installed()`` replaces each traced function by a wrapper under the
name its caller looks it up by, and restores the originals on exit:

* ``pathgap._kernels.{bisect_bracket, factor_shifted, solve_factored}`` and
  ``pathgap.eigensolver.ground_state``, which the solver reaches through
  module attributes;
* ``spectrum_low`` and ``assemble_hamiltonian`` as bound in
  ``pathgap.scaling``, ``pathgap.cli`` and ``pathgap.bounds`` (each where
  the module binds it);
* ``evaluate_bounds``, ``to_json``, ``gap_series``, ``series_to_csv``,
  ``series_from_csv`` and ``fit_power_law`` in ``pathgap.cli``;
* ``build_trial_state`` in ``pathgap.bounds``.

``cli.main`` is wrapped by the caller (``Tracer.main``).  Each call records
a span (name, lookup site, parent span, point id, duration, self time and
the exception it raised, if any).  Spans stay in memory until the caller
writes them out.  A point starts at each assembly in ``cli`` or
``scaling``; later spans share its id until the next one.

``kernels.sturm_sweeps`` is derived, not counted: each bisection step
halves the bracket, so a call's sweeps are round(log2(width_in /
width_out)).  This holds only while ``bisect_bracket`` bisects; a kernel
that shrinks its bracket by other means makes the figure a width ratio,
not a sweep count.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field

import pathgap._kernels
import pathgap.bounds
import pathgap.cli
import pathgap.eigensolver
import pathgap.scaling

_SITES = (pathgap.scaling, pathgap.cli, pathgap.bounds)
# (attribute, span name, modules the attribute is looked up in).  A module
# that does not bind the attribute is skipped, so the trace survives
# refactors of the program; what is gone reads as zero.
TRACED = (
    ("bisect_bracket", "_kernels.bisect_bracket", (pathgap._kernels,)),
    ("factor_shifted", "_kernels.factor_shifted", (pathgap._kernels,)),
    ("solve_factored", "_kernels.solve_factored", (pathgap._kernels,)),
    ("ground_state", "eigensolver.ground_state", (pathgap.eigensolver,)),
    ("spectrum_low", "eigensolver.spectrum_low", _SITES),
    ("assemble_hamiltonian", "operators.assemble_hamiltonian", _SITES),
    ("evaluate_bounds", "bounds.evaluate_bounds", (pathgap.cli,)),
    ("build_trial_state", "bounds.build_trial_state", (pathgap.bounds,)),
    ("to_json", "cli.to_json", (pathgap.cli,)),
    ("gap_series", "scaling.gap_series", (pathgap.cli,)),
    ("series_to_csv", "scaling.series_to_csv", (pathgap.cli,)),
    ("series_from_csv", "scaling.series_from_csv", (pathgap.cli,)),
    ("fit_power_law", "scaling.fit_power_law", (pathgap.cli,)),
)
_POINT_STARTS = {pathgap.cli.__name__, pathgap.scaling.__name__}
_SOLVER_ERRORS = (pathgap.eigensolver.ConvergenceError, pathgap.eigensolver.PositivityError)


@dataclass
class Span:
    name: str
    site: str
    parent: "Span | None"
    point: int
    start: float = 0.0
    duration: float = 0.0
    child_time: float = 0.0
    error: str | None = None
    sweeps: int = 0
    sites: int = 0
    children: list[str] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Spans of every traced call made while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._point = 0

    def _wrap(self, fn, name: str, site: str):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)  # recursion (to_json) is one span
            if name == "operators.assemble_hamiltonian" and site in _POINT_STARTS:
                self._point += 1
            parent = stack[-1] if stack else None
            span = Span(name, site, parent, self._point)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.duration = time.perf_counter() - span.start
                stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                    parent.children.append(name)
                self.spans.append(span)
            if name == "_kernels.bisect_bracket":
                span.sweeps, span.sites = _bisect_work(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for attr, name, modules in TRACED:
                for module in modules:
                    fn = getattr(module, attr, None)
                    if fn is not None:
                        saved.append((module, attr, fn))
                        setattr(module, attr, self._wrap(fn, name, module.__name__))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def main(self, argv: list[str]) -> int:
        """``pathgap.cli.main`` under a ``cli.main`` span."""
        return self._wrap(pathgap.cli.main, "cli.main", "benchmark")(argv)


def halvings(width_in: float, width_out: float) -> int:
    """Bisection steps that shrink a bracket from width_in to width_out."""
    return round(math.log2(width_in / width_out))


def _bisect_work(args, result) -> tuple[int, int]:
    """(sweeps, sites) of ``bisect_bracket(diag, offsq, index, lo, hi, ...)``
    returning ``(lo, hi)``; (0, 0) once the kernel's signature changes."""
    try:
        diag, lo, hi = args[0], args[3], args[4]
        return halvings(hi - lo, result[1] - result[0]), int(diag.shape[0])
    except (IndexError, TypeError, AttributeError, ValueError, ZeroDivisionError):
        return 0, 0


def layer_metrics(spans: list[Span], bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (units in ``UNITS``)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(*names):
        return sum((s.duration for n in names for s in by_name.get(n, ())), 0.0)

    def own(*names):
        return sum((s.self_time for n in names for s in by_name.get(n, ())), 0.0)

    bisect = by_name.get("_kernels.bisect_bracket", [])
    sweeps = sum(s.sweeps for s in bisect)
    site_updates = sum(s.sweeps * s.sites for s in bisect)
    ground = by_name.get("eigensolver.ground_state", [])
    assemble = by_name.get("operators.assemble_hamiltonian", [])
    return {
        "kernels.bisect_calls": len(bisect),
        "kernels.bisect_s": busy("_kernels.bisect_bracket"),
        "kernels.sturm_sweeps": sweeps,
        "kernels.sweeps_per_eigenvalue": sweeps / len(bisect) if bisect else 0.0,
        "kernels.site_updates": site_updates,
        "kernels.ns_per_site_update": (
            1e9 * busy("_kernels.bisect_bracket") / site_updates if site_updates else 0.0
        ),
        "kernels.factor_calls": calls("_kernels.factor_shifted"),
        "kernels.factor_s": busy("_kernels.factor_shifted"),
        "kernels.solve_calls": calls("_kernels.solve_factored"),
        "kernels.solve_s": busy("_kernels.solve_factored"),
        "eigensolver.spectrum_low_calls": calls("eigensolver.spectrum_low"),
        "eigensolver.spectrum_low_s": busy("eigensolver.spectrum_low"),
        "eigensolver.ground_state_s": busy("eigensolver.ground_state"),
        "eigensolver.self_s": own("eigensolver.spectrum_low", "eigensolver.ground_state"),
        "eigensolver.inverse_sweeps_per_point": (
            calls("_kernels.solve_factored") / len(ground) if ground else 0.0
        ),
        "eigensolver.nudges": sum(
            1 for s in ground if s.children.count("_kernels.factor_shifted") > 1
        ),
        "eigensolver.failures": sum(
            1 for s in ground if s.error in {e.__name__ for e in _SOLVER_ERRORS}
        ),
        "operators.assemble_calls": len(assemble),
        "operators.assemble_s": busy("operators.assemble_hamiltonian"),
        "bounds.assemble_calls": sum(1 for s in assemble if s.site == pathgap.bounds.__name__),
        "bounds.evaluate_calls": calls("bounds.evaluate_bounds"),
        "bounds.evaluate_s": busy("bounds.evaluate_bounds"),
        "bounds.trial_state_s": busy("bounds.build_trial_state"),
        "bounds.self_s": own("bounds.evaluate_bounds", "bounds.build_trial_state"),
        "scaling.gap_series_s": busy("scaling.gap_series"),
        "scaling.self_s": own(
            "scaling.gap_series", "scaling.series_to_csv", "scaling.series_from_csv",
            "scaling.fit_power_law",
        ),
        "scaling.csv_s": busy("scaling.series_to_csv", "scaling.series_from_csv"),
        "scaling.fit_s": busy("scaling.fit_power_law"),
        "cli.main_s": busy("cli.main"),
        "cli.self_s": own("cli.main", "cli.to_json"),
        "cli.to_json_s": busy("cli.to_json"),
        "cli.bytes_out": bytes_out,
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes; counts, which agree across
    passes, stay integers."""
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        ints = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if ints else statistics.median(values)
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_calls") or metric in COUNTS:
        return "count"
    return UNITS[metric]


COUNTS = {"kernels.sturm_sweeps", "kernels.site_updates", "eigensolver.nudges",
          "eigensolver.failures"}
UNITS = {
    "kernels.sweeps_per_eigenvalue": "1",
    "kernels.ns_per_site_update": "ns",
    "eigensolver.inverse_sweeps_per_point": "1",
    "cli.bytes_out": "B",
}
