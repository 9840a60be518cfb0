"""The benchmark's trace wraps names the package imports across modules
(``bench/spans.py`` TARGETS); a renamed or removed name would break
``bench/run.py --trace 1`` while every other test stays green, and a name
that no workload calls any more would leave its layer's figures empty."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    # bench modules import their siblings (numpy and the standard library
    # only) as top-level modules, and dataclasses need the module registered
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_trace_target_exists():
    targets = _load("spans").TARGETS
    assert targets
    missing = [
        (module, attr)
        for module, attr, _, _ in targets
        if not hasattr(importlib.import_module(f"restriction_lab.{module}"), attr)
    ]
    assert missing == []


def test_every_trace_target_fires():
    # one pass of each workload, one span name per (module, name) wrapped
    spans, workloads = _load("spans"), _load("workloads")
    targets = [(module, attr, f"{module}.{attr}", None) for module, attr, _, _ in spans.TARGETS]
    mods = {module: importlib.import_module(f"restriction_lab.{module}")
            for module, _, _, _ in targets}
    recorder = spans.Recorder()
    with spans.instrument(mods, recorder, targets):
        for workload in workloads.WORKLOADS.values():
            workload.run_pass(mods, workload.prepare(1))
    fired = {name for name, _, _, _, _ in recorder.spans}
    assert sorted({name for _, _, name, _ in targets} - fired) == []
