"""Canned verification experiments.

Each experiment bundles a default configuration with a function that
samples, solves and checks one mathematical statement (spectral decay of
the free flow, kernel identities, Picard contraction rates, moment
monotonicity, the dissipation identity, and so on).  The registry is what
the command line lists and runs; tests drive the same entry points.

Each experiment builds its grid, measure, flux and solver config once
from the run record (_cfg_parts); pooled solves hand those objects to
their member chunks as they are.  A chunk is CHUNK members, one pool
task, sampled once.  The parent allocates each joined array once, with
the whole run's members, writes every chunk result into its member
columns as the pool yields it and then drops it, so it holds at most
one chunk result besides the joined arrays.  Together with counter-based
per-member seeding this makes every number independent of the worker
count and of CHUNK.  _chunk_results runs the chunks of several solves as
the tasks of one process pool, with no more workers than chunks, and
yields each solve's results in chunk order: parallel_picard is its
one-solve case, energy-dissipation submits its three solves (the linear
gate, tanh and Burgers) at once, and parallel_ladder runs a cut-off
ladder as one task per chunk, solving every level inside it through
solver._ladder_solve.  That generator re-solves a level above the first
only for the members whose cut-off bound on the level below and copies
the others; each level's trajectory and residual history are still
those of a full solve of that level, bit for bit.  No
trajectory of a pooled statistic leaves the process that solved it:
energy-dissipation's chunks return each member's dissipation series
(avg_x u^2 and the Dirichlet rate per node), the ladder's chunks each
member's pair distances and top-level moments per node plus the top
level's last node, and the parent reduces the joined (nodes, members)
series across members.  Residuals work the same way: a chunk returns
each member's residual history, (max_iter, members) per solve or per
ladder level, and the parent writes the histories into its joined ones
and builds each solve's PicardDiagnostics from the whole batch's once,
with solver._diagnostics, which also applies the NonContractionError
rule.  picard-contraction still solves its ensemble in one process.
"""

from __future__ import annotations

import difflib
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .ensemble_stats import (
    dissipation_series,
    format_table,
    moment_series,
    reduce_dissipation,
    reduce_moments,
    stroock_varopoulos_check,
)
from .errors import ConfigurationError, NumericError, from_record
from .random_fields import (
    Ensemble,
    directional_orthogonality_stat,
    estimate_spectrum,
    measure_from_spec,
    sample_ensemble,
    two_mode_measure,
)
from .solver import (
    NonlinearitySpec,
    SolverConfig,
    _diagnostics,
    _free_flow,
    _ladder_solve,
    _picard_iterate,
    contraction_bound,
    ladder_levels,
    ladder_moments,
    ladder_report,
    ladder_series,
    minimal_K,
    picard_solve,
    step_solve,
)
from .spectral import (
    Grid,
    apply_multiplier_values,
    gradient_constant,
    grad_semigroup_multiplier,
    kernel_values,
    l2_norm,
    semigroup_multiplier,
    spatial_rms,
)

# fixed member chunk; never derived from the worker count.  A cut-off
# ladder task holds every level's trajectory of its members: at n = 512 and
# 11 nodes 32 members peak at 6-7 MB traced (64: 12-13 MB), so a pool
# worker's RSS stays at the parent's.  Smaller batches cost CPU per member:
# a level-4 rung solve took 8 % more per member at 32 than at 64, and 32 %
# more at 16.
CHUNK = 32

TWO_PI = 2.0 * math.pi


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentResult:
    """What one experiment run produced: pass/fail checks, numeric tables
    (name -> (header, rows)), raw field ensembles to export, the seeds
    that generated every member, and members flagged for numeric
    failure."""

    experiment: str
    checks: list
    tables: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    member_seeds: list = field(default_factory=list)
    flagged: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list:
        return [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                for c in self.checks]


# ------------------------------------------------------------ parallel solve

def _solve_chunk(payload: dict) -> dict:
    """One member chunk of a solve, sampled once from the payload's
    measure.  values is the chunk's trajectory, or for a dissipation chunk
    its dissipation_series, or for a ladder chunk (ladder set) its
    ladder_series: the chunk solves data h_n(u0) with flux f(h_n(.)) for
    every level n in increasing order through _ladder_solve, which
    re-solves only the members whose cut-off bound on the level below,
    and final holds the top level's last node.  The member axis of
    values is 1 in every case.  history is each member's residual history
    in _picard_iterate's form, for the parent to join with the other
    chunks' before any diagnostics are built; a ladder chunk's maps each
    level it solved to its history.  A plain chunk whose spec is None
    solves the linear equation (f = 0) as its free flow P_t u0, with no
    sweep.
    Numeric blowup inside a chunk is reported, not raised: the run
    continues with those members flagged, and a ladder chunk stops at the
    level that failed."""
    measure, spec, config = (payload["measure"], payload["spec"],
                             payload["solver"])
    ens = sample_ensemble(measure, payload["size"], payload["seed"],
                          counter_offset=payload["offset"] + payload["start"])
    out = {"start": payload["start"], "seeds": ens.seeds, "values": None,
           "error": None}
    try:
        if payload["ladder"] is None:
            traj, out["history"] = (_free_flow(ens, config) if spec is None
                                    else _picard_iterate(ens, spec, config))
            out["values"] = (dissipation_series(traj, config.s)
                             if payload["dissipation"] else traj.values)
            return out
        solutions, out["history"] = {}, {}
        for n, values, history in _ladder_solve(ens, spec, payload["ladder"],
                                                config):
            solutions[n], out["history"][n] = values, history
    except NumericError as exc:
        out["error"] = str(exc)
        return out
    out["values"] = ladder_series(measure.grid, solutions)
    # a copy, not a view, so an in-process chunk frees its trajectories
    out["final"] = values[-1].copy()
    return out


def _chunk_payloads(measure, spec: NonlinearitySpec, solver: SolverConfig,
                    n_members: int, seed: int, counter_offset: int = 0,
                    ladder=None, dissipation: bool = False) -> list:
    if n_members < 1:
        raise ConfigurationError("n_members must be >= 1")
    return [{"measure": measure, "spec": spec, "solver": solver,
             "seed": seed, "offset": counter_offset, "ladder": ladder,
             "dissipation": dissipation,
             "start": start, "size": min(CHUNK, n_members - start)}
            for start in range(0, n_members, CHUNK)]


def _require_members(n_members: int, what: str):
    """Reject a run too small for a member-level stderr before it solves."""
    if n_members < 2:
        raise ConfigurationError(f"{what} needs >= 2 members, got {n_members}")


def _member_columns(res: dict) -> slice:
    """The member columns of a chunk result in the joined arrays."""
    return slice(res["start"], res["start"] + len(res["seeds"]))


def _write_block(joined, block: np.ndarray, cols: slice, n_members: int,
                 axis: int = 1) -> np.ndarray:
    """Write a chunk's block into its member columns along axis of the
    joined array and return that.  The joined array is allocated at the
    first block, with n_members along axis: by then the pool has forked
    its workers, so none of them inherits it.  Columns no block was
    written to stay unset."""
    if joined is None:
        shape = list(block.shape)
        shape[axis] = n_members
        joined = np.empty(shape, dtype=block.dtype)
    joined[(slice(None),) * axis + (cols,)] = block
    return joined


def _merge_chunks(results, n_members: int, spec: NonlinearitySpec,
                  config: SolverConfig) -> tuple:
    """(values, seeds, PicardDiagnostics, flagged entries) of one plain or
    dissipation solve's chunk results, n_members in all.  values and the
    residual histories are joined along the member axis 1, each chunk
    written into its member columns as it arrives and then dropped, so
    the parent holds the joined arrays and at most one chunk result:
    values are whole trajectories for parallel_picard, (nodes, members,
    2) dissipation series for energy-dissipation, and the diagnostics are
    _diagnostics of the joined history under spec (NonlinearitySpec.zero()
    for the free flow), so a growing solve raises NonContractionError
    here.  flagged holds (index, seed, message) for each member of a chunk
    that failed numerically, and those members' columns are dropped once
    at the end."""
    values = history = None
    seeds, flagged = [None] * n_members, []
    kept = np.ones(n_members, dtype=bool)
    for res in results:
        cols = _member_columns(res)
        seeds[cols] = res["seeds"]
        if res["error"] is not None:
            kept[cols] = False
            flagged.extend((res["start"] + j, member_seed, res["error"])
                           for j, member_seed in enumerate(res["seeds"]))
        else:
            values = _write_block(values, res["values"], cols, n_members)
            history = _write_block(history, res["history"], cols, n_members)
        # drop it before the next chunk arrives
        del res
    if values is None:
        raise NumericError("every member chunk failed numerically")
    if not kept.all():
        # compress, unlike a mask index, returns C-ordered arrays
        values, history = (np.compress(kept, a, axis=1)
                           for a in (values, history))
        seeds = [s for s, keep in zip(seeds, kept) if keep]
    return values, seeds, _diagnostics(history, spec, config), flagged


@contextmanager
def _chunk_results(solves: list, workers: int):
    """Several solves, each given as its list of chunk payloads, run as
    the tasks of one process pool of at most one worker per chunk (or one
    by one as they are read, with one worker or one chunk); yields an
    iterator of each solve's chunk results, in the order given.  A caller
    reads each solve's results before the next solve's; one that stops
    reading leaves the later solves unread.  On leaving the block the pool
    shuts down and drops the chunks not yet started."""
    payloads = [p for solve in solves for p in solve]
    pool = (ProcessPoolExecutor(max_workers=min(workers, len(payloads)))
            if workers > 1 and len(payloads) > 1 else None)
    try:
        results = (map(_solve_chunk, payloads) if pool is None
                   else pool.map(_solve_chunk, payloads, chunksize=1))
        yield (islice(results, len(solve)) for solve in solves)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def parallel_picard(grid: Grid, measure, spec: NonlinearitySpec,
                    solver: SolverConfig, n_members: int, seed: int,
                    workers: int = 1, counter_offset: int = 0) -> tuple:
    """Chunked ensemble Picard solve; returns (trajectory Ensemble, info).
    A spec of None solves the linear equation as its free flow, no sweep.

    info carries the PicardDiagnostics of the residual histories joined
    over the chunks (diagnostics) and its converged flag, all member seeds
    in order, and flagged (index, seed, message) entries for chunks that
    failed numerically.  Raises NonContractionError as picard_solve does
    on the whole batch.  Identical output for any worker count.
    """
    payloads = _chunk_payloads(measure, spec, solver, n_members, seed,
                               counter_offset)
    with _chunk_results([payloads], workers) as solves:
        values, seeds, diag, flagged = _merge_chunks(
            next(solves), n_members,
            NonlinearitySpec.zero() if spec is None else spec, solver)
    traj = Ensemble(grid, values, solver.time_grid, seeds)
    info = {"converged": diag.converged, "diagnostics": diag,
            "member_seeds": list(traj.seeds), "flagged": flagged}
    return traj, info


def parallel_ladder(grid: Grid, measure, spec: NonlinearitySpec,
                    solver: SolverConfig, n_members: int, seed: int, ladder,
                    workers: int = 1) -> tuple:
    """The cut-off ladder of a polynomial flux on member chunks: for each
    level n solve with data h_n(u0) and flux f(h_n(.)), then measure
    whether the solutions form a Cauchy sequence in n.  Returns
    (final_state, moments, LadderReport): the top level's last-node
    snapshot Ensemble with every member seed, and the top level's
    member_moments for each p of LADDER_MOMENTS.

    Each member chunk is one pool task that solves every level and returns
    its ladder_series, so no trajectory leaves its worker.  The parent
    writes each chunk's series, final state and per-level residual
    histories into their member columns of the joined arrays as the
    chunk arrives and then drops it, so it holds the joined arrays and at
    most one chunk result.  The report's moment guard needs two members,
    so one is rejected before any solve.  Level by level in increasing
    order, a chunk that failed at that level raises NumericError (the
    first such chunk's message), and the level's joined residual history
    gives its PicardDiagnostics under f(h_n(.)) or raises
    NonContractionError.  Identical output for any worker count and any
    CHUNK.
    """
    levels = ladder_levels(spec, ladder)
    _require_members(n_members, "cut-off ladder moment guard")
    payloads = _chunk_payloads(measure, spec, solver, n_members, seed,
                               ladder=levels)
    series = final = None
    seeds, histories = [None] * n_members, {}
    failed = {}                   # level -> the first chunk's message there
    with _chunk_results([payloads], workers) as solves:
        for res in next(solves):
            cols = _member_columns(res)
            seeds[cols] = res["seeds"]
            # a failed chunk holds the histories of the levels below its
            # failure, which the diagnostics of those levels need; a level
            # any chunk failed at raises below, unset columns and all
            for n, history in res["history"].items():
                histories[n] = _write_block(histories.get(n), history, cols,
                                            n_members)
            if res["error"] is not None:
                failed.setdefault(levels[len(res["history"])], res["error"])
            else:
                series = _write_block(series, res["values"], cols, n_members)
                final = _write_block(final, res["final"], cols, n_members,
                                     axis=0)
            # drop it before the next chunk arrives
            del res
    diagnostics = {}
    for n in levels:
        if n in failed:
            raise NumericError(f"ladder level {n:g}: {failed[n]}")
        diagnostics[n] = _diagnostics(histories[n],
                                      replace(spec, cutoff_level=n), solver)
    times = solver.time_grid
    final_state = Ensemble(grid, final, times[-1], seeds)
    return (final_state, ladder_moments(series),
            ladder_report(times, series, diagnostics))


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class Experiment:
    name: str
    statement: str
    defaults: dict
    fn: object

    def default_config(self) -> dict:
        import copy

        return copy.deepcopy(self.defaults)


REGISTRY: dict = {}


def _register(name: str, statement: str, defaults: dict):
    def wrap(fn):
        defaults["experiment"] = name
        REGISTRY[name] = Experiment(name, statement, defaults, fn)
        return fn

    return wrap


def get_experiment(name: str) -> Experiment:
    if name in REGISTRY:
        return REGISTRY[name]
    near = difflib.get_close_matches(name, REGISTRY, n=1)
    hint = f"; did you mean {near[0]!r}?" if near else ""
    raise ConfigurationError(
        f"unknown experiment {name!r}{hint} (see the list subcommand)"
    )


def list_experiments() -> list:
    """(name, statement) pairs in registration order."""
    return [(e.name, e.statement) for e in REGISTRY.values()]


def _cfg_parts(config: dict) -> tuple:
    """(grid, measure, nonlinearity spec, solver config) built from a run
    record; raises ConfigurationError on the first bad part."""
    grid = from_record(Grid, config["grid"], "grid")
    return (grid, measure_from_spec(grid, config["measure"]),
            NonlinearitySpec.from_record(config["nonlinearity"]),
            SolverConfig.from_record(config["solver"]))


def _unconverged_note(solves: dict, n_members: int,
                      noun: str = "rungs") -> str:
    """Detail-line suffix naming the solves (label -> PicardDiagnostics)
    that stopped at max_iter unconverged, with how many of the n_members
    were still above tol; empty when every solve converged."""
    named = [f"{label} ({diag.iterations} sweeps, residual "
             f"{diag.residuals[-1]:.3g}, {diag.unconverged_members} of "
             f"{n_members} members above tol)"
             for label, diag in solves.items() if not diag.converged]
    return f"; unconverged {noun}: {', '.join(named)}" if named else ""


def _rung_note(report, n_members: int) -> str:
    """_unconverged_note of a LadderReport's rungs, named n=level."""
    return _unconverged_note({f"n={n:g}": report.diagnostics[n]
                              for n in report.levels}, n_members)


def _uniform_grid(t_final: float, nodes: int) -> list:
    return np.linspace(0.0, t_final, nodes).tolist()


def _defaults(measure: dict, nonlinearity: dict, solver: dict,
              n_members: int, seed: int, n: int = 512) -> dict:
    return {
        "grid": {"d": 1, "n": n, "len": TWO_PI},
        "measure": measure,
        "nonlinearity": nonlinearity,
        "solver": solver,
        "n_members": n_members,
        "seed": seed,
        "out": None,
    }


# -------------------------------------------------------------- experiments

_S_SWEEP = (0.6, 0.75, 1.0)


@_register(
    "linear-spectral-decay",
    "empirical spectrum of the free flow follows e^{-2t|k|^{2s}} w_k at "
    "every retained mode (3 stderr), s in {0.6, 0.75, 1.0}",
    _defaults(
        measure={"family": "two_mode", "mass": 1.0, "mean": 0.0,
                 "params": {"wavenumber": 3.0}},
        nonlinearity={"kind": "zero"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(1.0, 11)},
        n_members=2000, seed=12,
    ),
)
def _linear_spectral_decay(config: dict, workers: int) -> ExperimentResult:
    grid, measure, _, _ = _cfg_parts(config)
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    retained = np.nonzero(measure.weights > 0)
    checks, rows = [], []
    for s in _S_SWEEP:
        for t in (0.1, 0.5, 1.0):
            op = semigroup_multiplier(grid, s, t)
            est = estimate_spectrum(Ensemble(
                grid, apply_multiplier_values(grid, ens.values, op), t))
            target = measure.decayed(s, t)
            worst = 0.0
            for idx in zip(*retained):
                se = est.stderr[idx]
                z = (est.measure.weights[idx] - target.weights[idx]) / se
                worst = max(worst, abs(z))
                rows.append([s, t, grid.axis_wavenumbers[idx[0]],
                             target.weights[idx], est.measure.weights[idx],
                             se, z])
            checks.append(CheckResult(
                f"decay-s{s:g}-t{t:g}", worst <= 3.0,
                f"max |z| over retained modes = {worst:.2f}"))
    tables = {"spectral_decay": (
        ["s", "t", "k", "target", "estimate", "stderr", "z"], rows)}
    return ExperimentResult(config["experiment"], checks, tables,
                            member_seeds=list(ens.seeds))


@_register(
    "zero-nonlinearity",
    "with f = 0 the Picard solution equals the semigroup flow of the "
    "initial data to 1e-10 at every time node",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 2.0}},
        nonlinearity={"kind": "zero"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(1.0, 11),
                "bielecki_k": 2.0, "tol": 1e-12, "max_iter": 6},
        n_members=64, seed=3, n=256,
    ),
)
def _zero_nonlinearity(config: dict, workers: int) -> ExperimentResult:
    grid, measure, spec, solver = _cfg_parts(config)
    traj, info = parallel_picard(grid, measure, spec, solver,
                                 config["n_members"], config["seed"], workers)
    worst = 0.0
    rows = []
    for j, t in enumerate(traj.times):
        op = semigroup_multiplier(grid, solver.s, float(t))
        exact = apply_multiplier_values(grid, traj.values[0], op)
        err = float(np.max(spatial_rms(grid, traj.values[j] - exact)))
        worst = max(worst, err)
        rows.append([float(t), err])
    checks = [CheckResult("matches-semigroup", worst <= 1e-10,
                          f"max rms deviation from P_t u0 = {worst:.2e}")]
    return ExperimentResult(
        config["experiment"], checks,
        {"free_flow_error": (["t", "rms_error"], rows)},
        fields={"final_state": traj.at(-1)},
        member_seeds=info["member_seeds"], flagged=info["flagged"])


@_register(
    "semigroup-contraction",
    "P_{t1} P_{t2} = P_{t1+t2} to 1e-12 and t -> ||P_t u||_2 is "
    "nonincreasing with no tolerance",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 3.0}},
        nonlinearity={"kind": "zero"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(2.0, 20)},
        n_members=4, seed=21,
    ),
)
def _semigroup_contraction(config: dict, workers: int) -> ExperimentResult:
    grid, measure, _, solver = _cfg_parts(config)
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    law_worst = 0.0
    for s in _S_SWEEP:
        for t1, t2 in ((0.1, 0.2), (0.05, 0.45), (0.3, 0.3), (0.7, 0.3)):
            one = apply_multiplier_values(
                grid, ens.values, semigroup_multiplier(grid, s, t1 + t2))
            two = apply_multiplier_values(
                grid,
                apply_multiplier_values(grid, ens.values,
                                        semigroup_multiplier(grid, s, t2)),
                semigroup_multiplier(grid, s, t1))
            law_worst = max(law_worst, float(np.max(np.abs(one - two))))
    tgrid = solver.time_grid
    rows, violations = [], 0
    prev = None
    for t in tgrid:
        flowed = apply_multiplier_values(
            grid, ens.values, semigroup_multiplier(grid, solver.s, float(t))) \
            if t > 0 else ens.values
        norms = np.asarray(l2_norm(grid, flowed))
        if prev is not None:
            violations += int(np.sum(norms > prev))
        rows.append([float(t), float(np.max(norms))])
        prev = norms
    checks = [
        CheckResult("semigroup-law", law_worst <= 1e-12,
                    f"sup composition error = {law_worst:.2e}"),
        CheckResult("l2-contraction", violations == 0,
                    f"{violations} norm increases on a "
                    f"{tgrid.size}-point grid"),
    ]
    return ExperimentResult(
        config["experiment"], checks,
        {"flow_norms": (["t", "max_l2_norm"], rows)},
        member_seeds=list(ens.seeds))


@_register(
    "kernel-identities",
    "kernel mass 1 to 1e-8, the self-similar rescaling law to 1e-6, and "
    "the s = 1 Gaussian closed form to 1e-8",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 2.0}},
        nonlinearity={"kind": "zero"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(2.0, 5)},
        n_members=1, seed=0,
    ),
)
def _kernel_identities(config: dict, workers: int) -> ExperimentResult:
    grid, _, _, _ = _cfg_parts(config)
    checks, rows = [], []
    mass_worst = 0.0
    for s in _S_SWEEP:
        for t in (0.5, 1.0, 2.0):
            ker = kernel_values(grid, s, t)
            mass_err = abs(float(np.sum(ker)) * grid.cell_volume - 1.0)
            mass_worst = max(mass_worst, mass_err)
            rows.append([s, t, mass_err])
    checks.append(CheckResult("unit-mass", mass_worst <= 1e-8,
                              f"max |mass - 1| = {mass_worst:.2e}"))

    # p_t(x) = t^{-1/2s} p_1(t^{-1/2s} x): evaluate p_1 on the rescaled
    # grid so the sample points match exactly
    s = 0.75
    scale_worst = 0.0
    base = Grid(1, 128, 24.0)
    for t in (0.5, 1.0, 2.0):
        lam = t ** (-1.0 / (2.0 * s))
        ker_t = kernel_values(base, s, t)
        ker_1 = kernel_values(Grid(1, 128, 24.0 * lam), s, 1.0)
        rel = float(np.max(np.abs(ker_t - lam * ker_1)) / np.max(ker_t))
        scale_worst = max(scale_worst, rel)
    checks.append(CheckResult("rescaling-law", scale_worst <= 1e-6,
                              f"max relative error = {scale_worst:.2e}"))

    gauss_worst = 0.0
    for t in (0.25, 1.0):
        g = Grid(1, 512, 20.0 * math.sqrt(t))
        ker = kernel_values(g, 1.0, t)
        x = g.axis_points()
        xc = np.where(x > g.len / 2, x - g.len, x)
        oracle = np.exp(-(xc**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        gauss_worst = max(gauss_worst, float(np.max(np.abs(ker - oracle))))
    checks.append(CheckResult("gaussian-oracle", gauss_worst <= 1e-8,
                              f"sup error vs heat kernel = {gauss_worst:.2e}"))
    return ExperimentResult(config["experiment"], checks,
                            {"kernel_mass": (["s", "t", "mass_error"], rows)})


@_register(
    "gradient-bound",
    "the gradient-flow operator norm obeys ||grad_z P_t||_2 <= c_s "
    "t^{-1/2s} on log-spaced t in [1e-3, 10] with zero violations",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 3.0}},
        nonlinearity={"kind": "zero"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(1.0, 5)},
        n_members=1, seed=33,
    ),
)
def _gradient_bound(config: dict, workers: int) -> ExperimentResult:
    grid, measure, _, solver = _cfg_parts(config)
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    u = ens.values[0]
    base = float(l2_norm(grid, u))
    ts = np.logspace(-3.0, 1.0, 41)
    checks, rows = [], []
    for s in _S_SWEEP:
        c = gradient_constant(s)
        violations = 0
        for t in ts:
            bound = c * float(t) ** (-1.0 / (2.0 * s))
            op = grad_semigroup_multiplier(grid, s, float(t), solver.z)
            norm = op.operator_norm()
            ratio = float(l2_norm(grid, apply_multiplier_values(
                grid, u, op))) / base
            # operator norms sit below the continuum constant; 1e-12
            # relative slack covers exp/product rounding only
            if norm > bound * (1.0 + 1e-12) or ratio > bound * (1.0 + 1e-12):
                violations += 1
            rows.append([s, float(t), norm, ratio, bound])
        checks.append(CheckResult(
            f"gradient-bound-s{s:g}", violations == 0,
            f"{violations} violations on {ts.size} log-spaced times"))
    return ExperimentResult(
        config["experiment"], checks,
        {"gradient_bound": (["s", "t", "operator_norm", "field_ratio",
                             "bound"], rows)},
        member_seeds=list(ens.seeds))


@_register(
    "picard-contraction",
    "for a Lipschitz flux the Picard iteration contracts at the "
    "predicted Bielecki rate: measured ratio <= 1.1 rho(K), tol reached "
    "in <= 30 iterations",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 2.0}},
        nonlinearity={"kind": "lipschitz_tanh", "scale": 0.1},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(0.5, 26),
                "tol": 1e-8, "max_iter": 30},
        n_members=200, seed=44,
    ),
)
def _picard_contraction(config: dict, workers: int) -> ExperimentResult:
    grid, measure, spec, base = _cfg_parts(config)
    lip = spec.effective_lipschitz()
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    checks, rows = [], []
    for s in (0.75, 1.0):
        k0 = minimal_K(s, lip)
        for mult in (2.0, 4.0):
            k = mult * k0
            cfg = replace(base, s=s, bielecki_k=k)
            traj, diag = picard_solve(ens, spec, cfg)
            rho = contraction_bound(s, lip, k)
            measured = max(diag.ratios) if diag.ratios else 0.0
            ok = (diag.converged and diag.iterations <= 30
                  and measured <= 1.1 * rho
                  and diag.residuals[-1] <= base.tol)
            checks.append(CheckResult(
                f"contraction-s{s:g}-K{mult:g}K0", ok,
                f"ratio {measured:.3f} vs bound {1.1 * rho:.3f}, "
                f"{diag.iterations} iterations, "
                f"residual {diag.residuals[-1]:.2e}"))
            rows.append([s, k, rho, measured, float(diag.iterations),
                         diag.residuals[-1]])
    return ExperimentResult(
        config["experiment"], checks,
        {"contraction": (["s", "K", "rho", "measured_ratio", "iterations",
                          "final_residual"], rows)},
        member_seeds=list(ens.seeds))


@_register(
    "moment-monotonicity",
    "E|u(t)|^p is nonincreasing along the cut-off Burgers flow for "
    "p in {2, 4, 6} (paired-increment z <= 3 at every step)",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 0.8}},
        nonlinearity={"kind": "burgers_quadratic"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(1.0, 21),
                "bielecki_k": 6.0, "tol": 1e-8, "max_iter": 40},
        n_members=2000, seed=58,
    ),
)
def _moment_monotonicity(config: dict, workers: int) -> ExperimentResult:
    final, moments, report = parallel_ladder(
        *_cfg_parts(config), config["n_members"], config["seed"],
        (1, 2, 4, 8), workers)
    checks, tables = [], {}
    for p in (2, 4, 6):
        series = reduce_moments(report.times, moments[p], p)
        worst = series.max_increase_z()
        checks.append(CheckResult(
            f"moment-p{p}-nonincreasing", worst <= 3.0,
            f"largest step increase z = {worst:.2f}"))
        tables[f"moment_p{p}"] = (
            ["t", "estimate", "stderr", "increase_z"], series.rows())
    checks.append(CheckResult(
        "ladder-cauchy", report.cauchy_violations == 0,
        f"{report.cauchy_violations} distance increases"
        f"{_rung_note(report, final.n_members)}"))
    return ExperimentResult(config["experiment"], checks, tables,
                            fields={"final_state": final},
                            member_seeds=list(final.seeds))


@_register(
    "energy-dissipation",
    "d/dt E u^2 = -2 E |(-lap)^{s/2} u|^2 on interior nodes to "
    "max(5% |rhs|, 3 stderr); an exact linear gate at dt^2 runs first",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 1.0,
                 "params": {"width": 0.6}},
        nonlinearity={"kind": "lipschitz_tanh", "scale": 0.5},
        solver={"s": 0.75, "z": [1.0],
                "time_grid": _uniform_grid(0.1, 21),
                "bielecki_k": 4.0, "tol": 1e-8, "max_iter": 40},
        n_members=5000, seed=71,
    ),
)
def _energy_dissipation(config: dict, workers: int) -> ExperimentResult:
    grid, measure, spec, solver = _cfg_parts(config)
    n_members = config["n_members"]
    _require_members(n_members, "dissipation identity stderr")
    times = solver.time_grid
    dt = float(np.max(np.diff(times)))
    checks, tables = [], {}
    seeds, flagged = [], []

    # linear gate: single +/-1 pair along the first axis plus a mean,
    # where the centered stencil bias (2 lam dt)^2/6 sits below the dt^2
    # cap; with f = 0 its solution is the free flow (spec None)
    solves = ((two_mode_measure(grid, [1.0] + [0.0] * (grid.d - 1),
                                mass=1.0, mean=1.0), None),
              (measure, spec),
              (measure, NonlinearitySpec.burgers(cutoff_level=2.0)))
    # one pool for all three; disjoint counter blocks: gate 0..N,
    # tanh N..2N, burgers 2N..3N.  Chunks return per-member series.
    payloads = [_chunk_payloads(*solve, solver, n_members, config["seed"],
                                counter_offset=k * n_members,
                                dissipation=True)
                for k, solve in enumerate(solves)]
    with _chunk_results(payloads, workers) as results:

        def next_report(label, flux):
            """The solve's DissipationReport and its unconverged note."""
            series, member_seeds, diag, member_flags = _merge_chunks(
                next(results), n_members, flux, solver)
            seeds.extend(member_seeds)
            flagged.extend(member_flags)
            report = reduce_dissipation(times, series)
            return report, _unconverged_note({label: diag}, report.n_members,
                                             "solve")

        gate, note = next_report("linear gate", NonlinearitySpec.zero())
        inner = ~gate.low_confidence
        gate_ok = bool(np.all(
            np.abs(gate.residual[inner])
            <= dt**2 * np.abs(gate.rhs[inner]) + 3.0 * gate.stderr[inner]))
        checks.append(CheckResult(
            "linear-gate", gate_ok,
            f"interior residual within dt^2 relative + 3 stderr (dt={dt:g})"
            f"{note}"))
        tables["dissipation_linear"] = (
            ["t", "lhs", "rhs", "residual", "stderr", "low_confidence"],
            gate.rows())

        sign_ok = bool(np.all(gate.rhs <= 0.0))
        if not gate_ok:
            # the tanh and burgers solves are left unread
            checks.append(CheckResult("tanh-identity", False,
                                      "skipped: linear gate failed"))
            checks.append(CheckResult("burgers-identity", False,
                                      "skipped: linear gate failed"))
        else:
            for label, (_, flux) in zip(("tanh", "burgers"), solves[1:]):
                report, note = next_report(label, flux)
                inner = ~report.low_confidence
                cap = np.maximum(0.05 * np.abs(report.rhs[inner]),
                                 3.0 * report.stderr[inner])
                worst = float(np.max(np.abs(report.residual[inner]) - cap))
                ok = bool(np.all(np.abs(report.residual[inner]) <= cap))
                checks.append(CheckResult(
                    f"{label}-identity", ok,
                    f"worst interior excess over cap = {worst:.2e}{note}"))
                sign_ok = sign_ok and bool(np.all(report.rhs <= 0.0))
                tables[f"dissipation_{label}"] = (
                    ["t", "lhs", "rhs", "residual", "stderr",
                     "low_confidence"],
                    report.rows())
    checks.append(CheckResult("rhs-sign", sign_ok,
                              "rhs <= 0 at every node (exact)"))
    return ExperimentResult(config["experiment"], checks, tables,
                            member_seeds=seeds, flagged=flagged)


@_register(
    "orthogonality",
    "E[grad_z f(u) . g(u)] = 0 for stationary reflection-invariant u: "
    "|z| <= 3 for (f, g) = (id, id), (x^2/2, x), (tanh, x^3)",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 2.0}},
        nonlinearity={"kind": "zero"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(1.0, 5)},
        n_members=2000, seed=85,
    ),
)
def _orthogonality(config: dict, workers: int) -> ExperimentResult:
    _, measure, _, solver = _cfg_parts(config)
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    pairs = [
        ("id-id", None, lambda x: x),
        ("halfsquare-id", lambda x: 0.5 * x * x, lambda x: x),
        ("tanh-cube", np.tanh, lambda x: x**3),
    ]
    checks, rows = [], []
    for i, (label, f, g) in enumerate(pairs):
        stat = directional_orthogonality_stat(ens, g, solver.z, f=f)
        checks.append(CheckResult(
            f"orthogonality-{label}", abs(stat.z_score) <= 3.0,
            f"value {stat.value:.3e}, z = {stat.z_score:.2f}"))
        rows.append([float(i), stat.value, stat.stderr, stat.z_score])
    return ExperimentResult(
        config["experiment"], checks,
        {"orthogonality": (["pair", "value", "stderr", "z"], rows)},
        member_seeds=list(ens.seeds))


@_register(
    "cutoff-ladder",
    "solutions with flux and data cut off at levels 1, 2, 4, 8 form a "
    "Cauchy sequence: pairwise L2 distances shrink as the lower level "
    "rises, zero violations",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 6.25, "mean": 0.0,
                 "params": {"width": 0.8}},
        nonlinearity={"kind": "burgers_quadratic"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(0.5, 11),
                "bielecki_k": 6.0, "tol": 1e-8, "max_iter": 40},
        n_members=2000, seed=96,
    ),
)
def _cutoff_ladder(config: dict, workers: int) -> ExperimentResult:
    # mass 6.25 puts the field rms at 2.5, so levels 1, 2 clip hard and
    # 4, 8 clip rarely: the distances have room to shrink
    final, _, report = parallel_ladder(
        *_cfg_parts(config), config["n_members"], config["seed"],
        (1, 2, 4, 8), workers)
    rows = [[pair[0], pair[1], sup]
            for pair, sup in sorted(report.sup_distances.items())]
    # node 0 compares h_top(u0) with itself, so its z is 0 by construction
    guard_min = min(float(np.min(v[1:])) for v in report.guard_z.values())
    checks = [
        CheckResult("cauchy-distances",
                    report.cauchy_violations == 0,
                    f"{report.cauchy_violations} increases across min "
                    f"levels{_rung_note(report, final.n_members)}"),
        CheckResult("moment-guard", guard_min >= -3.0,
                    f"min initial-bound z = {guard_min:.2f}"),
    ]
    return ExperimentResult(
        config["experiment"], checks,
        {"ladder_distances": (["level_lo", "level_hi", "sup_distance"],
                              rows)},
        fields={"final_state": final},
        member_seeds=list(final.seeds))


@_register(
    "stroock-varopoulos",
    "E[(P_h - I)(sgn w |w|^a) sgn w |w|^b] <= ab E[(P_h - I)|w| |w|] for "
    "a + b = 2: slack >= -3 stderr, plus an n = 16 kernel-sum oracle",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 3.0}},
        nonlinearity={"kind": "zero"},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(1.0, 5)},
        n_members=2000, seed=107,
    ),
)
def _stroock_varopoulos(config: dict, workers: int) -> ExperimentResult:
    grid, measure, _, _ = _cfg_parts(config)
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    checks, rows = [], []
    for a, b in ((0.5, 1.5), (1.0, 1.0)):
        for h in (0.05, 0.2):
            for s in (0.6, 1.0):
                rep = stroock_varopoulos_check(ens, a, b, h, s)
                checks.append(CheckResult(
                    f"slack-a{a:g}-h{h:g}-s{s:g}", rep.passed(),
                    f"slack {rep.slack:.3e} ({rep.z_score:.1f} stderr)"))
                rows.append(rep.rows()[0])

    # independent physical-space evaluation: circulant kernel-sum matrix
    # against the Fourier multiplier path
    g16 = Grid(1, 16, TWO_PI)
    m16 = measure_from_spec(g16, config["measure"])
    e16 = sample_ensemble(m16, 8, config["seed"],
                          counter_offset=config["n_members"])
    a, b, h, s = 0.5, 1.5, 0.3, 0.75
    rep = stroock_varopoulos_check(e16, a, b, h, s)
    p = kernel_values(g16, s, h)
    idx = (np.arange(16)[:, None] - np.arange(16)[None, :]) % 16
    matrix = p[idx] * g16.dx

    def kernel_apply(v):
        return v @ matrix.T

    w = e16.values
    theta, absw = np.sign(w), np.abs(w)
    pa, pb = theta * absw**a, theta * absw**b
    lhs = float(np.mean(np.mean((kernel_apply(pa) - pa) * pb, axis=1)))
    rhs = float(np.mean(np.mean((kernel_apply(absw) - absw) * absw, axis=1)))
    slack = a * b * rhs - lhs
    gap = abs(rep.slack - slack)
    checks.append(CheckResult(
        "brute-force-oracle", gap <= 1e-10,
        f"|multiplier - kernel-sum| slack gap = {gap:.2e} on n = 16"))
    return ExperimentResult(
        config["experiment"], checks,
        {"convexity_slack": (["a", "b", "h", "s", "slack", "stderr", "z"],
                             rows)},
        member_seeds=list(ens.seeds))


@_register(
    "solver-cross-validation",
    "global Picard and stepwise product integration agree at the final "
    "time to 10 tol, and the stepper converges at second order "
    "(ratio in [3, 5] under dt halving)",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 2.0}},
        nonlinearity={"kind": "lipschitz_tanh", "scale": 0.5},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(0.5, 51),
                "bielecki_k": 3.0, "tol": 1e-10, "max_iter": 40},
        n_members=1, seed=118, n=256,
    ),
)
def _solver_cross_validation(config: dict, workers: int) -> ExperimentResult:
    grid, measure, spec, cfg = _cfg_parts(config)
    ens = sample_ensemble(measure, config["n_members"], config["seed"])

    picard_traj, diag = picard_solve(ens, spec, cfg)
    step_traj = step_solve(ens, spec, cfg)
    gap = float(np.max(spatial_rms(grid, picard_traj.values[-1]
                                   - step_traj.values[-1])))
    checks = [CheckResult(
        "picard-vs-step", gap <= 10.0 * cfg.tol,
        f"final-time rms gap {gap:.2e} vs cap {10.0 * cfg.tol:.2e}")]

    t_final = float(cfg.time_grid[-1])

    def at_nodes(nodes):
        sub = replace(cfg, time_grid=np.linspace(0.0, t_final, nodes))
        return step_solve(ens, spec, sub).values[-1]

    ref = at_nodes(801)
    err_coarse = float(np.max(spatial_rms(grid, at_nodes(51) - ref)))
    err_fine = float(np.max(spatial_rms(grid, at_nodes(101) - ref)))
    ratio = err_coarse / err_fine
    checks.append(CheckResult(
        "self-convergence", 3.0 <= ratio <= 5.0,
        f"error ratio under dt halving = {ratio:.2f}"))
    rows = [[51.0, err_coarse], [101.0, err_fine]]
    return ExperimentResult(
        config["experiment"], checks,
        {"step_convergence": (["nodes", "final_error_vs_ref"], rows)},
        member_seeds=list(ens.seeds))


@_register(
    "replay-determinism",
    "the same seed reproduces bit-identical ensembles and tables for any "
    "worker count",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 2.0}},
        nonlinearity={"kind": "lipschitz_tanh", "scale": 0.3},
        solver={"s": 0.75, "z": [1.0], "time_grid": _uniform_grid(0.3, 7),
                "bielecki_k": 2.0, "tol": 1e-8, "max_iter": 20},
        n_members=600, seed=129, n=256,
    ),
)
def _replay_determinism(config: dict, workers: int) -> ExperimentResult:
    _require_members(config["n_members"], "replay moment table")
    args = (*_cfg_parts(config), config["n_members"], config["seed"])
    solo, info = parallel_picard(*args, workers=1)
    multi, _ = parallel_picard(*args, workers=2)
    identical = bool(np.array_equal(solo.values, multi.values))

    def table_text(traj):
        series = moment_series(traj, 2)
        return format_table(["t", "estimate", "stderr", "increase_z"],
                            series.rows())

    t1, t2 = table_text(solo), table_text(multi)
    checks = [
        CheckResult("bitwise-values", identical,
                    "1-worker and 2-worker ensembles are bit-identical"
                    if identical else "ensemble values differ"),
        CheckResult("bitwise-tables", t1 == t2,
                    "formatted moment tables are byte-identical"
                    if t1 == t2 else "tables differ"),
    ]
    rows = moment_series(solo, 2).rows()
    return ExperimentResult(
        config["experiment"], checks,
        {"moment_p2": (["t", "estimate", "stderr", "increase_z"], rows)},
        member_seeds=info["member_seeds"], flagged=info["flagged"])
