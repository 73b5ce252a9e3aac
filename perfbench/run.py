"""fracflow benchmark: scaled acceptance-gate workloads, driven from outside.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see workloads.py):

  burgers-ladder          cutoff-ladder, 128 members, one process
  tanh-dissipation-pool   energy-dissipation, 257 members, pooled chunks

The program only receives run configs generated from --seed.  Each
repetition of a workload runs in a fresh interpreter (rep.py), so peak RSS
is per repetition and every repetition pays the same lazy set-up a CLI run
pays.  Two pool workers are used throughout.

--trace 0 repeats the workload until --seconds would be exceeded (at
least once) and reports the end-to-end metrics as medians over
repetitions: wall_s, members_per_s, cpu_s, peak_rss_mb, plus setup_s, the
median lifetime of fresh interpreters that import fracflow and resolve and
validate the workload's configs.  One set-up probe runs before each
repetition (and at least SETUP_PROBES in all), so the set-up samples are
spread over the same stretch of time as the repetitions.  Repetitions
that lost more than STEAL_LIMIT of their CPU time to other guests of the
hypervisor are marked in the output; they stay in the medians.

--trace 1 runs the workload once untraced and once with every layer
boundary wrapped (spans.py) and reports the per-layer table, the tracing
overhead, and whether both runs produced the same table hashes.

Every run's checks and tables are compared with perfbench/reference (see
capture.py).  attempted/failed count Picard solves and experiment runs; a
solve fails if it raises or flags members, a run if it raises, a check is
FAIL or a table misses its reference.  Solves that stop at max_iter
unconverged (the cut-off ladder's rungs 4 and 8) are counted and printed
apart, and reported per layer as solver.unconverged_solves/_ratio.
'correct' is true when every outcome matches the reference and all
repetitions produced the same table hashes.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads
from spans import LAYERS

REP = os.path.join(workloads.BENCH_DIR, "rep.py")
OUT_DIR = os.path.join(workloads.ROOT, ".perfbench-out")
SETUP_PROBES = 11
# a repetition that lost more than this share of its CPU time to other
# guests of the hypervisor (the steal counter of /proc/stat) is marked
STEAL_LIMIT = 0.05
# a whole invocation must end within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child(argv: list, timeout: float) -> str:
    """Run a child in its own session; on timeout kill it and everything
    it started (pool workers), then wait for it."""
    proc = subprocess.Popen([sys.executable] + argv, cwd=workloads.ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{os.path.basename(argv[0])} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{err.strip()}")
    return out


def src_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(workloads.SRC, "fracflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def environment() -> dict:
    return {"commit": commit(), "src_sha256": src_digest(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "workers": workloads.WORKERS}


def percentile_note(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"n={n}, no percentile has 10 samples beyond it"
    value = statistics.quantiles(values, n=1000)[int(best * 10) - 1]
    return f"n={n}, p{best:g}={value:.6g}"


def setup_probe(workload: str, seed: int, deadline: float) -> float:
    t0 = time.perf_counter()
    _child([REP, "--workload", workload, "--seed", str(seed),
            "--setup-only"], deadline - time.perf_counter())
    return time.perf_counter() - t0


def repetition(workload: str, seed: int, trace: int, deadline: float,
               nproc: int) -> dict:
    out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    lines = _child([REP, "--workload", workload, "--seed", str(seed),
                    "--trace", str(trace), "--out", out],
                   deadline - time.perf_counter()).strip().splitlines()
    rep = json.loads(lines[-1])
    rep["loaded"] = rep["load_before"] > nproc
    rep["disturbed"] = rep["steal_s"] > STEAL_LIMIT * rep["cpu_s"]
    print(f"rep trace={trace}: wall {rep['wall_s']:.3f} s, "
          f"cpu {rep['cpu_s']:.3f} s, peak rss {rep['peak_rss_mb']:.1f} MB, "
          f"{rep['failed']}/{rep['attempted']} operations failed, "
          f"loadavg {rep['load_before']:.2f} -> {rep['load_after']:.2f}, "
          f"steal {rep['steal_s']:.2f} s"
          + (" LOADED (load above nproc at start)" if rep["loaded"] else "")
          + (" DISTURBED (steal above limit)" if rep["disturbed"] else ""))
    return rep


def report_runs(reps: list):
    """Every check of every experiment, and every reference mismatch."""
    for record in reps[0]["records"]:
        head = f"{record['experiment']} (seed {record['seed']}, " \
               f"{record['n_members']} members)"
        if record["error"]:
            print(f"{head}: raised {record['error']}")
        for name, passed, detail in record["checks"]:
            print(f"{head}: {'PASS' if passed else 'FAIL'} {name}: {detail}")
    for line in sorted({m for rep in reps for m in rep["mismatches"]}):
        print(f"reference mismatch: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    if not os.path.isfile(os.path.join(workloads.SRC, "fracflow",
                                       "__init__.py")):
        print(f"no fracflow package under {workloads.SRC}", file=sys.stderr)
        return 2
    try:
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        nproc = env["nproc"] or 1
        reps = []
        if args.trace:
            reps.append(repetition(args.workload, args.seed, 0, deadline,
                                   nproc))
            reps.append(repetition(args.workload, args.seed, 1, deadline,
                                   nproc))
        else:
            setup = []
            start = time.perf_counter()
            lengths = []
            while True:
                t0 = time.perf_counter()
                setup.append(setup_probe(args.workload, args.seed, deadline))
                reps.append(repetition(args.workload, args.seed, 0, deadline,
                                       nproc))
                lengths.append(time.perf_counter() - t0)
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(lengths) > args.seconds:
                    break
            while len(setup) < SETUP_PROBES:
                setup.append(setup_probe(args.workload, args.seed, deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    report_runs(reps)
    hashes = [[{name: t["sha256"] for name, t in r["tables"].items()}
               for r in rep["records"]] for rep in reps]
    same = all(h == hashes[0] for h in hashes)
    correct = same and not any(rep["mismatches"] for rep in reps)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(f"tables hash-equal to reference: {reps[0]['tables_hash_equal']}; "
          f"identical hashes across {len(reps)} repetitions: {same}")
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of "
          f"{attempted} operations failed)")
    print(f"solves stopped unconverged at max_iter: "
          f"{sum(r['unconverged'] for r in reps)} of "
          f"{sum(r['solves'] for r in reps)}")
    print(f"loaded repetitions: {sum(r['loaded'] for r in reps)} "
          f"of {len(reps)}")

    if args.trace:
        layers = dict(reps[1]["layers"])
        layers["trace.overhead_ratio"] = \
            reps[1]["wall_s"] / reps[0]["wall_s"] - 1.0
        layers["solver.unconverged_ratio"] = (
            reps[1]["unconverged"] / reps[1]["solves"]
            if reps[1]["solves"] else 0.0)
        print(f"spans written to {reps[1]['spans_file']}")
        self_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        print(f"layer self times {self_sum:.6f} s + unattributed "
              f"{layers['trace.unattributed_s']:.6f} s = traced wall "
              f"{layers['trace.wall_s']:.6f} s")
        if layers["trace.missing_chunk_spans"]:
            print(f"missing worker spans: "
                  f"{layers['trace.missing_chunk_spans']} chunks")
        if not layers["experiments.chunks"]:
            print("experiments.pool_efficiency: no pooled solve on this "
                  "workload, reported as 0")
        print(f"traced and untraced table hashes equal: {same}")
        values = layers
    else:
        print(f"medians over {len(reps)} repetitions "
              f"({sum(r['disturbed'] for r in reps)} disturbed by steal) "
              f"and {len(setup)} set-up probes")
        samples = {
            "wall_s": [r["wall_s"] for r in reps],
            "members_per_s": [r["members"] / r["wall_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "setup_s": setup,
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = values[name]
        if args.trace:
            note = (" (computed from array sizes, not measured traffic)"
                    if name.endswith("_computed") else "")
        else:
            note = f" (median; {percentile_note(samples[name])})"
        print(f"{name} {value:.6g} {unit}{note}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"correct: {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
