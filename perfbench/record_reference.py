"""Record the seed-0 reference values that run.py compares against.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at seed 0 and writes each
operation's observables to perfbench/reference_seed0.json.  Run it only
at a commit whose outputs are known to be right: later runs treat any
difference as a failed operation.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import harness
    import workloads

    bench = harness.Harness(run.OUT / "reports")
    reference = {}
    for name in workloads.WORKLOADS:
        record = bench.run(workloads.build(name, 0), seconds=0, trace=False)
        if record.failed:
            print("\n".join(record.problems), file=sys.stderr)
            return 1
        reference[name] = record.observables
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
