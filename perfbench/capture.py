"""Capture the reference outcomes the benchmark compares against.

    python3 perfbench/capture.py [workload ...]

Runs every input variant 0..VARIANTS-1 of each named workload (all
workloads when none is named), including the variants a workload leaves
out because they raise, and writes perfbench/reference/<workload>.json: per variant and
experiment, the raised error type or every check verdict and every table
(header, rows and sha256).  Run it only on the commit whose outputs are
the reference; a change that alters tables on purpose re-captures them
and says so.
"""

from __future__ import annotations

import json
import os
import sys

import workloads

sys.path.insert(0, workloads.SRC)


def main(argv=None) -> int:
    from fracflow.errors import FracflowError
    from fracflow.runner import run_experiment

    names = (argv if argv is not None else sys.argv[1:]) \
        or sorted(workloads.WORKLOADS)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for workload in names:
        variants = {}
        for v in range(workloads.VARIANTS):
            records = []
            for config in workloads.run_configs(workload, v):
                try:
                    manifest, result = run_experiment(
                        config, workers=workloads.WORKERS)
                    records.append(workloads.outcome(config, manifest,
                                                     result))
                except FracflowError as exc:
                    records.append(workloads.outcome(
                        config, error=type(exc).__name__))
                print(workload, v, config.experiment, config.seed,
                      records[-1]["error"] or "ok", flush=True)
            variants[str(v)] = records
        with open(workloads.reference_path(workload), "w") as fh:
            json.dump({"workload": workload, "table_tol": workloads.TABLE_TOL,
                       "variants": variants}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
