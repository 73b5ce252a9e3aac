"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload W --seed N --trace 0|1 --out DIR
    python3 perfbench/rep.py --workload W --seed N --setup-only

The timed region runs from the first experiment call to the last artifact
written; imports and config resolution (the set-up) come before it.  The
last stdout line is a JSON record: wall, CPU and peak RSS of the timed
region, operation counts, each run's outcome against the reference and,
when traced, the per-layer summary.  --setup-only stops after resolving
the configs, so its process lifetime is the set-up time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import sys
import time

import workloads

sys.path.insert(0, workloads.SRC)


def loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class Operations:
    """Solve-level and run-level operation counts.

    A solve is a picard_solve call outside the pool, or one
    parallel_picard call; it fails if it raises or flags members.  A solve
    that stops at max_iter unconverged returns a result and is counted
    apart, as unconverged.  A run is one experiment; it fails if it
    raises, a check is FAIL or a table misses its reference."""

    def __init__(self):
        self.solves = 0
        self.failed_solves = 0
        self.unconverged = 0
        self.pool_depth = 0

    def _count(self, ok: bool, converged: bool):
        self.solves += 1
        self.failed_solves += not ok
        self.unconverged += not converged

    def install(self):
        import fracflow.experiments as experiments
        import fracflow.solver as solver
        from spans import replace_everywhere

        picard, pool = solver.picard_solve, experiments.parallel_picard

        @functools.wraps(picard)
        def counted_picard(*args, **kwargs):
            if self.pool_depth:
                return picard(*args, **kwargs)
            try:
                traj, diag = picard(*args, **kwargs)
            except Exception:
                self._count(False, False)
                raise
            self._count(True, diag.converged)
            return traj, diag

        @functools.wraps(pool)
        def counted_pool(*args, **kwargs):
            self.pool_depth += 1
            try:
                traj, info = pool(*args, **kwargs)
            except Exception:
                self._count(False, False)
                raise
            finally:
                self.pool_depth -= 1
            self._count(not info["flagged"], info["converged"])
            return traj, info

        replace_everywhere(picard, counted_picard)
        replace_everywhere(pool, counted_pool)


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def execute(workload: str, seed: int, out_dir: str, tracer=None) -> dict:
    """Run every experiment of the workload once, timed; returns the
    timings, the operation counts and the outcome record of each run."""
    import fracflow.runner as runner
    from fracflow.errors import FracflowError

    configs = workloads.run_configs(workload,
                                    workloads.variant(workload, seed))
    ops = Operations()
    ops.install()
    if tracer is not None:
        tracer.install()
    done = []
    load_before, steal0 = loadavg(), steal_s()
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    for i, config in enumerate(configs):
        try:
            manifest, result = runner.run_experiment(
                config, workers=workloads.WORKERS,
                out=os.path.join(out_dir, f"run{i}"))
            done.append((config, manifest, result, None))
        except FracflowError as exc:
            # keep the name only: the traceback would hold solver arrays
            done.append((config, None, None, type(exc).__name__))
    wall = time.perf_counter() - t0
    cpu1, peak_rss = _rusage()
    records = [workloads.outcome(c, m, r, e) for c, m, r, e in done]
    return {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_rss,
            "members": sum(c.n_members for c in configs),
            "load_before": load_before, "load_after": loadavg(),
            "steal_s": steal_s() - steal0,
            "solves": ops.solves, "failed_solves": ops.failed_solves,
            "unconverged": ops.unconverged, "records": records}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        workloads.run_configs(args.workload,
                              workloads.variant(args.workload, args.seed))
        return 0

    import fracflow.experiments

    from spans import Tracer, summarize

    os.makedirs(args.out)
    try:
        tracer = Tracer(args.out) if args.trace else None
        rep = execute(args.workload, args.seed, args.out, tracer)
        rep["artifact_bytes"] = _dir_bytes(args.out)
        ref = workloads.load_reference(
            args.workload, workloads.variant(args.workload, args.seed))
        mismatches, hash_equal, failed_runs = [], 0, 0
        for i, record in enumerate(rep["records"]):
            bad, equal = workloads.compare(
                record, ref[i] if ref and i < len(ref) else None)
            mismatches += bad
            hash_equal += equal
            failed_runs += bool(record["error"] or bad or not all(
                c[1] for c in record["checks"]))
        rep.update(mismatches=mismatches, tables_hash_equal=hash_equal,
                   attempted=rep["solves"] + len(rep["records"]),
                   failed=rep["failed_solves"] + failed_runs)
        if tracer is not None:
            spans = tracer.merged()
            rep["spans_file"] = os.path.join(
                os.path.dirname(args.out),
                f"spans-{args.workload}-seed{args.seed}.jsonl")
            with open(rep["spans_file"], "w") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in spans)
            layers = summarize(spans, tracer.main_pid, rep["wall_s"],
                               workloads.WORKERS, fracflow.experiments.CHUNK)
            layers["runner.artifact_bytes"] = rep["artifact_bytes"]
            layers["runner.tables_hash_equal"] = hash_equal
            rep["layers"] = layers
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
