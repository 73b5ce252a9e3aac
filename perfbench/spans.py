"""Span tracing around the fracflow layers, and the per-layer summary.

The tracer replaces every public function of the six fracflow modules
(plus a few private boundaries the per-layer table needs) with a wrapper
that records one span per call: name, start, end, span id, parent span id,
run id and process id.  Spans stay in memory.  Pool workers are forked
with the wrappers in place; each appends its spans to a per-process file
after every chunk, and the parent merges those files when the repetition
ends.  Nothing under src/ is modified; the wrappers live only in the
traced interpreter.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import math
import os
import sys
import time

LAYERS = ("random_fields", "spectral", "solver", "ensemble_stats",
          "experiments", "runner")
RUN_SPAN = "runner.run_experiment"
CHUNK_SPAN = "experiments.chunk"


def replace_everywhere(obj, replacement):
    """Point every fracflow module global that is ``obj`` at
    ``replacement`` (modules import each other's functions by name)."""
    for name, module in list(sys.modules.items()):
        if name == "fracflow" or name.startswith("fracflow."):
            for key, value in list(vars(module).items()):
                if value is obj:
                    setattr(module, key, replacement)


# ------------------------------------------------------------ span details

def _fft_detail(args, kwargs, result):
    # forward_transform / inverse_transform(grid, array): flop and byte
    # counts are computed from array sizes, not measured
    grid, values = args[0], args[1]
    length = math.prod(grid.shape)
    return {"points": int(values.size),
            "flop": 5.0 * values.size * math.log2(length),
            "bytes": int(values.nbytes + result.nbytes)}


def _sample_detail(args, kwargs, result):
    return {"members": int(result.n_members)}


def _solve_detail(args, kwargs, result):
    diag = result[1]
    return {"sweeps": int(diag.iterations), "converged": bool(diag.converged),
            "residual": float(diag.residuals[-1]) if diag.residuals else 0.0}


def _pool_detail(args, kwargs, result):
    # parallel_picard(grid, measure, nonlinearity, solver, n_members, ...)
    return {"members": int(args[4])}


def _chunk_detail(args, kwargs, result):
    values = result["values"]
    return {"bytes": 0 if values is None else int(values.nbytes)}


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans = []      # (name, start, end, id, parent, run, pid, detail)
        self.stack = []      # (span id, run id) of the open spans
        self.count = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # a worker keeps the open stack (its chunk spans hang off the
        # parent's parallel_picard span) but none of the parent's spans
        self.pid = os.getpid()
        self.spans = []
        self.count = 0

    def wrap(self, name: str, fn, detail=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, run = tracer.stack[-1] if tracer.stack else (0, 0)
            tracer.count += 1
            sid = tracer.pid * 10**9 + tracer.count
            if name == RUN_SPAN:
                run = sid
            tracer.stack.append((sid, run))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, start, time.perf_counter(), sid, parent,
                              run, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            tracer._close(name, start, end, sid, parent, run,
                          detail(args, kwargs, result) if detail else None)
            return result

        return traced

    def _close(self, name, start, end, sid, parent, run, detail):
        self.stack.pop()
        self.spans.append((name, start, end, sid, parent, run, self.pid,
                           detail))

    def flush(self):
        """Append this worker's spans to its per-process file."""
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def merged(self) -> list:
        """Parent spans plus every span the workers flushed."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spans-*.jsonl"))):
            with open(path) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
        return spans

    def install(self):
        """Wrap the layer boundaries of the already imported fracflow."""
        import fracflow.experiments as experiments
        import fracflow.runner as runner
        import fracflow.solver as solver

        details = {
            "spectral.forward_transform": _fft_detail,
            "spectral.inverse_transform": _fft_detail,
            "random_fields.sample_ensemble": _sample_detail,
            "solver.picard_solve": _solve_detail,
            "experiments.parallel_picard": _pool_detail,
        }
        residual = solver.spatial_rms
        for layer in LAYERS:
            module = sys.modules[f"fracflow.{layer}"]
            for key, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not key.startswith("_")
                        and fn.__module__ == module.__name__):
                    name = f"{layer}.{key}"
                    replace_everywhere(fn, self.wrap(name, fn,
                                                     details.get(name)))
        # the Bielecki residual is spatial_rms as the solver calls it
        solver.spatial_rms = self.wrap("solver.residual", residual)
        solver.NonlinearitySpec.evaluate = self.wrap(
            "solver.flux", solver.NonlinearitySpec.evaluate)
        runner._write_artifacts = self.wrap("runner.write_artifacts",
                                            runner._write_artifacts)
        runner._table_text = self.wrap("runner.table_text",
                                       runner._table_text)
        for name, exp in list(experiments.REGISTRY.items()):
            experiments.REGISTRY[name] = type(exp)(
                exp.name, exp.statement, exp.defaults,
                self.wrap(f"experiments.{name}", exp.fn))
        chunk = self.wrap(CHUNK_SPAN, experiments._solve_chunk, _chunk_detail)
        tracer = self

        @functools.wraps(experiments._solve_chunk)
        def flushing_chunk(payload):
            try:
                return chunk(payload)
            finally:
                if os.getpid() != tracer.main_pid:
                    tracer.flush()

        experiments._solve_chunk = flushing_chunk


# ---------------------------------------------------------------- summary

def summarize(spans: list, main_pid: int, wall: float, workers: int,
              chunk: int) -> dict:
    """Per-layer metrics of one traced repetition.

    Busy times sum the outermost spans of a kind over all processes.  Self
    times (span minus its same-process children) of the main process are
    attributed to layers; with trace.unattributed_s they add up to
    ``wall``.  Worker spans run in parallel with the parent's
    parallel_picard span, so they enter busy times but not self times.
    """
    by_id = {s[3]: s for s in spans}
    child_time = {}
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[6] == s[6]:
            child_time[s[4]] = child_time.get(s[4], 0.0) + s[2] - s[1]

    def self_time(s):
        return s[2] - s[1] - child_time.get(s[3], 0.0)

    def outermost(names):
        return [s for s in spans if s[0] in names
                and (by_id.get(s[4]) is None or by_id[s[4]][0] not in names)]

    def busy(names):
        return sum(s[2] - s[1] for s in outermost(names))

    def named(prefix, test):
        return {s[0] for s in spans if s[0].startswith(prefix)
                and test(s[0][len(prefix):])}

    def total(names, key):
        return sum((s[7] or {}).get(key, 0) for s in spans if s[0] in names)

    m = {}
    sampling = {"random_fields.sample_ensemble", "random_fields.sample_field"}
    m["random_fields.sample_s"] = busy(sampling)
    m["random_fields.sample_calls"] = len(outermost(sampling))
    m["random_fields.members_sampled"] = total(
        {"random_fields.sample_ensemble"}, "members")
    m["random_fields.estimate_s"] = busy({
        "random_fields.estimate_spectrum",
        "random_fields.directional_orthogonality_stat"})

    fft = {"spectral.forward_transform", "spectral.inverse_transform"}
    m["spectral.fft_calls"] = len([s for s in spans if s[0] in fft])
    m["spectral.fft_s"] = busy(fft)
    m["spectral.fft_points"] = total(fft, "points")
    m["spectral.fft_gflop_computed"] = total(fft, "flop") / 1e9
    m["spectral.fft_bytes_computed"] = total(fft, "bytes")
    m["spectral.to_real_calls"] = len([s for s in spans
                                       if s[0] == "spectral.to_real"])
    m["spectral.to_real_s"] = busy({"spectral.to_real"})
    m["spectral.multiplier_s"] = busy(
        named("spectral.", lambda k: k.endswith("_multiplier")))

    solves = [s for s in spans if s[0] == "solver.picard_solve"]
    details = [s[7] or {} for s in solves]
    m["solver.solves"] = len(solves)
    m["solver.solve_s"] = busy({"solver.picard_solve"})
    m["solver.sweeps"] = sum(d.get("sweeps", 0) for d in details)
    m["solver.max_sweeps"] = max((d.get("sweeps", 0) for d in details),
                                 default=0)
    m["solver.unconverged_solves"] = sum(
        1 for d in details if not d.get("converged", False))
    m["solver.max_final_residual"] = max(
        (d.get("residual", 0.0) for d in details), default=0.0)
    m["solver.flux_evals"] = len([s for s in spans if s[0] == "solver.flux"])
    m["solver.flux_s"] = busy({"solver.flux"})
    m["solver.residual_s"] = busy({"solver.residual"})
    m["solver.recurrence_self_s"] = sum(self_time(s) for s in solves)
    m["solver.ladder_self_s"] = sum(
        self_time(s) for s in spans if s[0] == "solver.solve_polynomial")

    reduce = named("ensemble_stats.", lambda k: k != "format_table")
    m["ensemble_stats.reduce_s"] = busy(reduce)
    m["ensemble_stats.reduce_calls"] = len(outermost(reduce))

    chunks = [s for s in spans if s[0] == CHUNK_SPAN]
    pool = {"experiments.parallel_picard"}
    m["experiments.chunks"] = len(chunks)
    m["experiments.parallel_picard_s"] = busy(pool)
    m["experiments.chunk_solve_s"] = sum(s[2] - s[1] for s in chunks)
    m["experiments.pool_efficiency"] = (
        m["experiments.chunk_solve_s"]
        / (workers * m["experiments.parallel_picard_s"])
        if m["experiments.parallel_picard_s"] else 0.0)
    m["experiments.result_bytes_computed"] = total({CHUNK_SPAN}, "bytes")

    m["runner.run_s"] = busy({RUN_SPAN})
    m["runner.artifact_write_s"] = busy({"runner.write_artifacts"})
    m["runner.table_hash_s"] = sum(
        s[2] - s[1] for s in spans if s[0] == "runner.table_text"
        and by_id.get(s[4], ("",))[0] == RUN_SPAN)

    main = [s for s in spans if s[6] == main_pid]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_time(s) for s in main
                                   if s[0].startswith(layer + "."))
    top = sum(s[2] - s[1] for s in main if by_id.get(s[4]) is None)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - top
    m["trace.spans"] = len(spans)
    expected = sum(-(-(s[7] or {}).get("members", 0) // chunk)
                   for s in spans if s[0] in pool)
    m["trace.missing_chunk_spans"] = max(0, expected - len(chunks))
    return m
