"""Per-layer metrics derived from the spans of the traced passes.

Counts and seconds are per traced pass; ``us_per_*`` and ``ns_per_cell``
are span time over work done.  A layer the workload never calls reads 0.
``bytes_computed`` is computed from array sizes, not measured: 16 bytes per
cell for the complex field ``extend_on_grid`` writes, 24 per cell for the
field ``weighted_lq_2d`` reads plus the mass array it writes.
"""

from __future__ import annotations

import statistics

import spans

_PER_CALL = (
    "exponents.SeparableParams",
    "exponents.RadialParams",
    "exponents.classify_separable",
    "exponents.classify_radial",
    "feasibility.solve_one",
    "feasibility.solve_two",
    "feasibility.verify_one",
    "feasibility.verify_two",
    "experiments.predicted_exponent",
)
_SOLVERS = ("feasibility.solve_one", "feasibility.solve_two")
# span name, bytes computed per cell
_GRIDS = (("operator.extend_on_grid", 16), ("norms.weighted_lq_2d", 24))
_SCANS = ("l2_endpoint_scan", "knapp_scan", "dual_scan", "pitt_sweep", "constant_density_sums")
CLI_COMMANDS = ("classify", "feasibility", "diagram", "knapp", "constant", "dual", "pitt",
                "oscint")

# (name, unit, better), in report order
PER_LAYER = (
    [(f"{n}.us_per_call", "us", "lower") for n in _PER_CALL]
    + [(f"{n}.verify_per_solve", "count", "lower") for n in _SOLVERS]
    + [
        ("feasibility.feasible_share", "share", "higher"),
        ("analysis.cosine_weight_kernel_many.calls", "count", "lower"),
        ("analysis.cosine_weight_kernel_many.lambdas", "count", "lower"),
        ("analysis.cosine_weight_kernel_many.us_per_lambda", "us", "lower"),
        ("analysis.hankel_decay_transform_many.values", "count", "lower"),
        ("analysis.hankel_decay_transform_many.us_per_value", "us", "lower"),
        ("analysis.j0_extrema.s", "s", "lower"),
        ("norms.weak_lq_1d.us_per_call", "us", "lower"),
    ]
    + [
        metric
        for grid, _ in _GRIDS
        for metric in (
            (f"{grid}.cells", "count", "lower"),
            (f"{grid}.ns_per_cell", "ns", "lower"),
            (f"{grid}.bytes_computed", "B", "lower"),
        )
    ]
    + [(f"experiments.{scan}.self_s", "s", "lower") for scan in _SCANS]
    + [(f"cli.{cmd}.s", "s", "lower") for cmd in CLI_COMMANDS]
    + [
        ("cli.self_s", "s", "lower"),
        ("trace.coverage", "share", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("check.error_rate", "share", "lower"),
        ("check.slope_dev", "1", "lower"),
        ("check.max_rel_dev", "1", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _merge(into: dict, stats: dict) -> None:
    for name, s in stats.items():
        total = into.setdefault(name, dict.fromkeys(s, 0))
        for key, value in s.items():
            total[key] += value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(passes, accuracy: dict) -> dict[str, float]:
    """Metrics of the traced passes; ``passes`` as returned by run_passes."""
    traced = [(p.wall, p.spans) for p in passes if p.traced]
    untraced = [p.wall for p in passes if not p.traced]
    n = len(traced)
    stats: dict = {}
    for _, s in traced:
        _merge(stats, spans.summarize(s))
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0, "nested_verify": 0}

    def get(name: str) -> dict:
        return stats.get(name, empty)

    m = {}
    for name in _PER_CALL:
        m[f"{name}.us_per_call"] = _ratio(get(name)["total_s"], get(name)["calls"]) * 1e6
    for name in _SOLVERS:  # verifier calls inside the solver per certificate returned
        m[f"{name}.verify_per_solve"] = _ratio(get(name)["nested_verify"], get(name)["size"])
    m["feasibility.feasible_share"] = _ratio(
        sum(get(s)["size"] for s in _SOLVERS), sum(get(s)["calls"] for s in _SOLVERS)
    )
    kernel = get("analysis.cosine_weight_kernel_many")
    m["analysis.cosine_weight_kernel_many.calls"] = kernel["calls"] / n
    m["analysis.cosine_weight_kernel_many.lambdas"] = kernel["size"] / n
    m["analysis.cosine_weight_kernel_many.us_per_lambda"] = (
        _ratio(kernel["total_s"], kernel["size"]) * 1e6
    )
    hankel = get("analysis.hankel_decay_transform_many")
    m["analysis.hankel_decay_transform_many.values"] = hankel["size"] / n
    m["analysis.hankel_decay_transform_many.us_per_value"] = (
        _ratio(hankel["total_s"], hankel["size"]) * 1e6
    )
    m["analysis.j0_extrema.s"] = get("analysis.j0_extrema")["total_s"] / n
    weak = get("norms.weak_lq_1d")
    m["norms.weak_lq_1d.us_per_call"] = _ratio(weak["total_s"], weak["calls"]) * 1e6
    for grid, bytes_per_cell in _GRIDS:
        s = get(grid)
        m[f"{grid}.cells"] = s["size"] / n
        m[f"{grid}.ns_per_cell"] = _ratio(s["total_s"], s["size"]) * 1e9
        m[f"{grid}.bytes_computed"] = bytes_per_cell * s["size"] / n
    for scan in _SCANS:
        m[f"experiments.{scan}.self_s"] = get(f"experiments.{scan}")["self_s"] / n
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = get(f"cli.{cmd}")["total_s"] / n
    m["cli.self_s"] = sum(get(f"cli.{cmd}")["self_s"] for cmd in CLI_COMMANDS) / n
    m["trace.coverage"] = statistics.median(spans.root_seconds(s) / wall for wall, s in traced)
    m["trace.overhead_s"] = (
        statistics.median(wall for wall, _ in traced) - statistics.median(untraced)
    )
    for key, value in accuracy.items():
        m[f"check.{key}"] = value
    return m
