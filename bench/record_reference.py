"""Record the reference outputs the scan and CLI checks compare against.

    python3 bench/record_reference.py

Runs one pass of ``l2-endpoint``, ``knapp-grid`` and ``cli-suite`` and writes
their scan samples, fitted slopes and CLI stdout to ``bench/reference.json``.
The committed file was recorded at the commit that introduced the
benchmark; re-record only when an output is meant to change.
"""

from __future__ import annotations

import json

from run import import_package
from workloads import REFERENCE, WORKLOADS


def main() -> None:
    mods = import_package()
    reference = {}
    for name in ("l2-endpoint", "knapp-grid", "cli-suite"):
        workload = WORKLOADS[name]
        results = workload.run_pass(mods, workload.prepare(0))
        for _, out in results:
            if isinstance(out, Exception):
                raise out
        reference[name] = workload.record(results)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
