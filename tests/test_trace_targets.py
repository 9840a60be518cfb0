"""The benchmark's trace wraps names the package imports across modules
(``bench/spans.py`` TARGETS); a renamed or removed name would break
``bench/run.py --trace 1`` while every other test stays green."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


def test_every_trace_target_exists():
    targets = _load_spans().TARGETS
    assert targets
    missing = [
        (module, attr)
        for module, attr, _, _ in targets
        if not hasattr(importlib.import_module(f"restriction_lab.{module}"), attr)
    ]
    assert missing == []
