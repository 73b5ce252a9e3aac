"""Workload definitions, config generation from the benchmark seed, and
the comparison of experiment outcomes with the captured reference.

A workload is a list of registered experiments with member-count
overrides.  An input variant v shifts every experiment's shipped seed by
v, so variant 0 runs the shipped seeds.  References are captured for the
VARIANTS variants 0..VARIANTS-1; a workload runs those of them on which
every operation completes, and the benchmark seed picks one of these, which
is why the seed is reduced modulo their count instead of being used
directly.
"""

from __future__ import annotations

import json
import math
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# every workload runs with two pool workers (the core count of the box the
# probes were taken on); the ladder experiments accept and ignore it today
WORKERS = 2
VARIANTS = 16

# the solver tolerance shared by every Picard experiment in the workloads;
# a table cell may move by 100 tol (absolute plus relative) and still match
SOLVER_TOL = 1e-8
TABLE_TOL = 100 * SOLVER_TOL

# Sizes are scaled so one repetition takes about 5 s on two cores and a
# 60 s run holds about ten of them, so the run median rests on many samples.
# Experiments whose Picard sweep count depends on the worst member of the
# sample (moment-monotonicity converges in 22 to 32 sweeps at 128 members,
# by seed) are left out, because that makes the work itself vary by seed.
# A solver-free workload (linear-spectral-decay, orthogonality and
# stroock-varopoulos) is left out too: on the two-vCPU guest it was tuned
# on, its run medians moved by 10 to 25 % with the load of other guests,
# more than a third of the largest bound allowed.
WORKLOADS = {
    # the acceptance gate's dominant path: whole-ensemble Picard sweeps in
    # one process through the cut-off ladder, whose rungs 4 and 8 stop at
    # the 40-sweep cap unconverged (the seeds on which it raises
    # NonContractionError are left out, see RAISING)
    "burgers-ladder": [
        ("cutoff-ladder", {"n_members": 128}),
    ],
    # the only pooled path: 3 solves x 2 chunks through parallel_picard,
    # few sweeps, so pool start-up, result transfer and the dissipation
    # reduction weigh more.  One member past a whole chunk (CHUNK = 256)
    # makes the second chunk a single member, so the pool starts its two
    # workers but only one process is busy at a time: on a two-vCPU guest
    # whose host is shared, two busy workers measured the host's contention
    # (512 members: repetitions 40-60 % slower in phases of heavy steal,
    # and 10-run medians 28 % apart), not fracflow
    "tanh-dissipation-pool": [
        ("energy-dissipation", {"n_members": 257}),
    ],
}


# variants left out of a workload because an experiment raises on them:
# cutoff-ladder at 128 members raises NonContractionError for seed shifts
# 3, 13 and 14 (shipped seed 96 + shift; see the reference files), and a
# benchmark workload must be one on which no operation fails
RAISING = {"burgers-ladder": (3, 13, 14)}


def variants(workload: str) -> list:
    return [v for v in range(VARIANTS) if v not in RAISING.get(workload, ())]


def variant(workload: str, seed: int) -> int:
    usable = variants(workload)
    return usable[seed % len(usable)]


def run_configs(workload: str, v: int) -> list:
    """Resolved and validated RunConfigs of input variant v of a workload."""
    from fracflow.runner import RunConfig

    configs = []
    for name, overrides in WORKLOADS[workload]:
        shipped = RunConfig.from_dict({"experiment": name}).seed
        configs.append(RunConfig.from_dict(
            {"experiment": name, **overrides,
             "seed": shipped + v}))
    return configs


def outcome(config, manifest=None, result=None, error=None) -> dict:
    """The comparable record of one experiment run: the name of the raised
    error type, or every check verdict and every table with its sha256."""
    record = {"experiment": config.experiment, "seed": config.seed,
              "n_members": config.n_members, "error": error,
              "checks": [], "tables": {}}
    if error is None:
        record["checks"] = [[c.name, bool(c.passed), c.detail]
                            for c in result.checks]
        for name in sorted(result.tables):
            header, rows = result.tables[name]
            record["tables"][name] = {
                "sha256": manifest.tables[name],
                "header": list(header),
                "rows": [[float(v) for v in row] for row in rows]}
    return record


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, v: int) -> list | None:
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    return data["variants"].get(str(v))


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TABLE_TOL + TABLE_TOL * abs(b)


def compare(record: dict, ref: dict | None) -> tuple:
    """(mismatches, tables_hash_equal) of one run against its reference.

    A mismatch is a differing error type, check name or verdict, a
    missing table, or a cell outside TABLE_TOL of the reference."""
    if ref is None:
        return [f"{record['experiment']}: no reference"], 0
    where = record["experiment"]
    if record["error"] != ref["error"]:
        return [f"{where}: raised {record['error']}, "
                f"reference {ref['error']}"], 0
    bad = []
    got = [c[:2] for c in record["checks"]]
    want = [c[:2] for c in ref["checks"]]
    if got != want:
        bad.append(f"{where}: checks {got} != reference {want}")
    equal = 0
    for name, table in ref["tables"].items():
        mine = record["tables"].get(name)
        if mine is None:
            bad.append(f"{where}: table {name} missing")
            continue
        equal += mine["sha256"] == table["sha256"]
        if (mine["header"] != table["header"]
                or len(mine["rows"]) != len(table["rows"])
                or any(len(r) != len(q) or not all(map(_close, r, q))
                       for r, q in zip(mine["rows"], table["rows"]))):
            bad.append(f"{where}: table {name} differs from the reference "
                       f"beyond {TABLE_TOL:g}")
    for name in sorted(set(record["tables"]) - set(ref["tables"])):
        bad.append(f"{where}: table {name} has no reference")
    return bad, equal
