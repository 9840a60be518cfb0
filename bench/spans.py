"""Timing spans recorded around the calls one layer makes into another.

Nothing in the package is edited: ``instrument`` replaces, for the duration
of a ``with`` block, the names that one module imported from another (for
example ``experiments.cosine_weight_kernel_many``) with wrappers that log a
span, and puts the originals back on exit.  A span is a list
``[name, start, end, parent, size]``: ``parent`` is the index of the
enclosing span (-1 at the root) and ``size`` a work count taken from the
call (cells, lambda values, certificates returned).  Spans are kept in
memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType


class Recorder:
    """In-memory span log for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, size=None):
        """Return ``fn`` wrapped to record one span per call.

        ``name`` is a string or a function of the call's positional
        arguments; ``size`` maps (args, kwargs, result) to a work count.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())  # fn may be a class
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if size is not None:
                spans[idx][4] = size(args, kwargs, out)
            return out

        return traced


def _out_size(args, kwargs, out):
    return int(out.size)


def _grid_cells(args, kwargs, out):
    return int(args[1].n_cells)


def _certificate(args, kwargs, out):
    return int(type(out).__name__ != "Infeasible")


def _cli_command(args):
    return f"cli.{args[0][0]}"


# (module, name imported into it, span name, work count).  The span name is
# the callee's own module and function; the same callee may be imported into
# several modules and is wrapped in each.
TARGETS = [
    ("exponents", "SeparableParams", "exponents.SeparableParams", None),
    ("exponents", "RadialParams", "exponents.RadialParams", None),
    ("exponents", "classify_separable", "exponents.classify_separable", None),
    ("exponents", "classify_radial", "exponents.classify_radial", None),
    ("feasibility", "solve_one", "feasibility.solve_one", _certificate),
    ("feasibility", "solve_two", "feasibility.solve_two", _certificate),
    ("feasibility", "verify_one", "feasibility.verify_one", None),
    ("feasibility", "verify_two", "feasibility.verify_two", None),
    ("analysis", "cosine_weight_kernel_many", "analysis.cosine_weight_kernel_many", _out_size),
    ("experiments", "predicted_exponent", "experiments.predicted_exponent", None),
    ("experiments", "l2_endpoint_scan", "experiments.l2_endpoint_scan", None),
    ("experiments", "knapp_scan", "experiments.knapp_scan", None),
    ("experiments", "cosine_weight_kernel_many", "analysis.cosine_weight_kernel_many", _out_size),
    ("experiments", "hankel_decay_transform_many", "analysis.hankel_decay_transform_many",
     _out_size),
    ("experiments", "j0_extrema", "analysis.j0_extrema", None),
    ("experiments", "extend_on_grid", "operator.extend_on_grid", _out_size),
    ("experiments", "weighted_lq_2d", "norms.weighted_lq_2d", _grid_cells),
    ("experiments", "circle_norm", "operator.circle_norm", None),
    ("experiments", "weak_lq_1d", "norms.weak_lq_1d", None),
    ("cli", "run", _cli_command, None),
    ("cli", "SeparableParams", "exponents.SeparableParams", None),
    ("cli", "RadialParams", "exponents.RadialParams", None),
    ("cli", "classify_separable", "exponents.classify_separable", None),
    ("cli", "classify_radial", "exponents.classify_radial", None),
    ("cli", "riesz_diagram", "exponents.riesz_diagram", None),
    ("cli", "solve_one", "feasibility.solve_one", _certificate),
    ("cli", "solve_two", "feasibility.solve_two", _certificate),
    ("cli", "knapp_scan", "experiments.knapp_scan", None),
    ("cli", "constant_density_sums", "experiments.constant_density_sums", None),
    ("cli", "dual_scan", "experiments.dual_scan", None),
    ("cli", "pitt_sweep", "experiments.pitt_sweep", None),
    ("cli", "cosine_weight_kernel", "analysis.cosine_weight_kernel", None),
    ("cli", "fresnel_constant", "analysis.fresnel_constant", None),
]


@contextmanager
def instrument(modules: dict[str, ModuleType], recorder: Recorder, targets=TARGETS):
    """Wrap every target name while the block runs; always restore them."""
    saved = []
    try:
        for module_name, attr, name, size in targets:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, size))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, work size, and for the
    solvers the verifier calls made inside them (``nested_verify``)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        s = stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0, "nested_verify": 0}
        )
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["size"] += size
        # a parent span is always logged before its children
        if name.startswith("feasibility.verify_") and parent >= 0:
            parent_name = spans[parent][0]
            if parent_name.startswith("feasibility.solve_"):
                stats[parent_name]["nested_verify"] += 1
    return stats


def root_seconds(spans: list[list]) -> float:
    """Time covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
