"""The benchmark's ``cli-suite`` goldens as a test: each of
``bench/workloads.py`` CLI_COMMANDS must reproduce ``bench/reference.json``,
byte for byte where the command is marked exact and within the benchmark's
own numeric tolerance otherwise, so a change that would fail the benchmark's
output check fails here first."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from restriction_lab.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    # workloads.py imports its siblings calibrate and oracle (numpy and the
    # standard library only) as top-level modules; its dataclasses need the
    # module registered while it executes
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


WORKLOADS = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())["cli-suite"]


@pytest.mark.parametrize("label, argv, exact", WORKLOADS.CLI_COMMANDS,
                         ids=[label for label, _, _ in WORKLOADS.CLI_COMMANDS])
def test_cli_command_matches_reference(capsys, label, argv, exact):
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    if exact:
        assert out == REFERENCE[label]
    else:
        ok, dev = WORKLOADS._compare_numeric(out, REFERENCE[label])
        assert ok, f"{label}: largest relative deviation {dev}"
