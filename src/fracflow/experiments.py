"""Canned verification experiments.

Each experiment bundles a default configuration with a function that
samples, solves and checks one mathematical statement (spectral decay of
the free flow, kernel identities, Picard contraction rates, moment
monotonicity, the dissipation identity, and so on).  The registry is what
the command line lists and runs; tests drive the same entry points.

Each experiment builds its grid, measure, flux and solver config once
from the run record (_cfg_parts, None for a section the record lacks or
holds as null); its defaults hold only the sections its body builds.
Pooled solves hand those objects to their member chunks as they are.  A
chunk is CHUNK members, one pool task, sampled once.  _chunk_results
runs the chunks of several solves as
the tasks of one process pool, with no more workers than chunks, and
yields each solve joined: parallel_picard is its one-solve case,
energy-dissipation submits its three solves (the linear gate, tanh and
Burgers) at once, and parallel_ladder runs a cut-off ladder as one task
per chunk, solving every level inside it through solver._ladder_solve.
Every chunk solves through solver._picard_iterate; the linear gate's
flux is NonlinearitySpec.zero(), so it takes one sweep per member.
_ladder_solve returns the ladder whole, every level's trajectory values
and the levels' stacked residual history, and names the level a numeric
failure happened at; the chunk reduces it to its ensemble_stats
ladder_series.
Every pooled solve is joined in _merge_chunks, the one join and the one
failure policy, so a caller only declares its solves.  The parent
allocates each joined array once, with the whole run's members, writes
every chunk result into its member columns as the pool yields it and
then drops it, so it holds at most one chunk result besides the joined
arrays.  A chunk that failed numerically (at any level, for a ladder)
returns only its seeds and message: its members are flagged and their
columns dropped, and the run goes on while two members are left.
Together with counter-based per-member seeding this makes every number
independent of the worker count and of CHUNK.  No trajectory of a
pooled statistic leaves the process that solved it: energy-dissipation's
chunks return each member's dissipation series (avg_x u^2 and the
Dirichlet rate per node), the ladder's chunks each member's pair
distances and top-level moments per node plus the top level's last
node, and the parent reduces the joined (nodes, members) series across
members.  Residuals work the same way: a chunk returns
each member's residual history, (max_iter, members) per solve or
(levels, max_iter, members) per ladder, and _merge_chunks builds every
solve's or ladder level's PicardDiagnostics once from the joined
history, with solver._diagnostics, which also applies the
NonContractionError rule.  picard-contraction and zero-nonlinearity
solve their ensemble in one process.
energy-dissipation's solves of a smooth flux (its linear gate, f = 0,
and tanh with no cut-off) run on one coarser grid per solve
(_solve_grid): the coarsest n' = n/2^j >= 8 whose Nyquist index is at
least 8 K, K the largest mode index at which the measure's sqrt-weight
exceeds 1e-16 of its peak (n' = 16 for the gate and 128 for tanh at the
shipped defaults), a mode's index being Grid.mode_index, the one index
rule.  A chunk samples u0 on the configured grid and takes every
(n/n')-th point.  A member is kept from the coarse solve when, at
every node, the rms of its modes at index 3n'/8 and above is at most
tol/100; the others are re-solved on the configured grid through the
same solve.  Each decision reads only the measure, the flux and the
member, so the outputs stay independent of the workers and of CHUNK.
The cut-off Burgers solve, the ladders and parallel_picard keep the
configured grid.
Every check is a CheckResult, whose statistic and signed margin alone
decide its verdict (CheckResult.passed).  Each statistical check is one
function of arrays, called by its experiment on the solve and by a
negative control on transformed arrays: _cauchy_check reads a ladder
series over its levels, _moment_guard and _moment_check its moments,
_decay_check one (s, t) of the free flow's spectrum, _gate_check and
_identity_check one energy-dissipation solve's DissipationReport, and
_slack_check each member's two sides of the convexity inequality.
_noted, the one note helper, names a check's unconverged solves, and
_gridded the grid a smooth dissipation solve ran on.
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
    DissipationReport,
    MomentSeries,
    convexity_members,
    dissipation_series,
    format_table,
    ladder_moments,
    ladder_series,
    ladder_sup_distances,
    moment_series,
    reduce_dissipation,
    reduce_moments,
)
from .errors import ConfigurationError, NumericError, from_record
from .random_fields import (
    Ensemble,
    directional_orthogonality_stat,
    estimate_spectrum,
    measure_from_spec,
    member_mean,
    sample_ensemble,
    two_mode_measure,
    z_score,
)
from .solver import (
    NonlinearitySpec,
    SolverConfig,
    _diagnostics,
    _ladder_solve,
    _picard_iterate,
    contraction_bound,
    ladder_levels,
    minimal_K,
    picard_solve,
    step_solve,
)
from .spectral import (
    Grid,
    apply_multiplier_values,
    gradient_constant,
    grad_semigroup_multiplier,
    half_spectrum,
    half_spectrum_weights,
    kernel_values,
    l2_norm,
    real_dft,
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

# the coarse grid of energy-dissipation's smooth solves (_solve_grid) and
# the bound a member's spectral tail must meet on it (_dissipation_chunk;
# the truncation estimate of Boyd, Chebyshev and Fourier Spectral Methods,
# 2001, ch. 2).  On 257 members of three seeds tanh on n = 128 deviated
# from n = 512 by at most 2.2e-11 rms, and on n = 64 by up to 7.4e-7, where
# the tail read at least 9x each member's deviation above 1e-13
_BAND_FLOOR = 1e-16
_BAND_FACTOR = 8
_TAIL_FRACTION = 1e-2

TWO_PI = 2.0 * math.pi


@dataclass
class CheckResult:
    """One check as numbers: the statistic its detail reports and its
    signed margin to the bound; passed at margin >= 0, so NaN fails."""

    name: str
    statistic: float
    margin: float
    detail: str

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)


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
    its dissipation_series (_dissipation_chunk: a smooth flux runs on the
    coarsest grid that resolves the measure, and refined flags the
    members whose spectral tail there exceeded tol/100, re-solved on the
    configured grid), or for a ladder chunk (ladder set) the
    ladder_series of the whole ladder _ladder_solve returns, and final
    holds the top level's last node.  The member axis of values is 1 in
    every case.  history is each member's residual history in
    _picard_iterate's form, for the parent to join with the other
    chunks' before any diagnostics are built; a ladder chunk's is the
    stacked one _ladder_solve returns, (levels, max_iter, members).
    Every chunk solves through _picard_iterate, f = 0 included, which
    takes one sweep per member.
    Numeric blowup inside a chunk is reported, not raised: the chunk
    returns only its seeds and the message (which names the level a
    ladder failed at), and the run continues with its members flagged."""
    measure, spec, config, levels = (payload["measure"], payload["spec"],
                                     payload["solver"], payload["ladder"])
    ens = sample_ensemble(measure, payload["size"], payload["seed"],
                          counter_offset=payload["offset"] + payload["start"])
    out = {"start": payload["start"], "seeds": ens.seeds, "values": None,
           "error": None}
    try:
        if levels is not None:
            solutions, history = _ladder_solve(ens, spec, levels, config)
            # a copy, so an in-process chunk frees its trajectories
            return dict(out, values=ladder_series(measure.grid, solutions),
                        history=history,
                        final=solutions[levels[-1]][-1].copy())
        if payload["dissipation"]:
            return dict(out, **_dissipation_chunk(ens, measure, spec, config))
        traj, history = _picard_iterate(ens, spec, config)
        return dict(out, values=traj.values, history=history)
    except NumericError as exc:
        return dict(out, error=str(exc))


def _smooth(spec: NonlinearitySpec) -> bool:
    """Whether a flux is smooth (f = 0, or tanh with no cut-off), so a
    dissipation solve of it may run on a coarser grid (_solve_grid)."""
    return spec.kind == "zero" or (spec.kind == "lipschitz_tanh"
                                   and spec.cutoff_level is None)


def _solve_grid(measure, spec) -> Grid:
    """The grid a dissipation solve runs on.  For a smooth flux it is the
    coarsest n/2^j >= 8 points per axis whose Nyquist index is at least
    _BAND_FACTOR K, K the measure's band edge: the largest mode index at
    which sqrt(w) exceeds _BAND_FLOOR of its peak.  Any other flux, or a
    band that leaves no coarser grid, keeps the measure's own grid."""
    grid = measure.grid
    if not _smooth(spec):
        return grid
    amp = np.sqrt(measure.weights)
    edge = np.max(grid.mode_index[amp > _BAND_FLOOR * np.max(amp)],
                  initial=0.0)
    n = grid.n
    # the next grid, n/2, must be even, at least 8 and resolve the band
    while n % 4 == 0 and n // 2 >= 8 and n // 4 >= _BAND_FACTOR * edge:
        n //= 2
    return grid if n == grid.n else Grid(grid.d, n, grid.len)


def _tail_rms(traj: Ensemble) -> np.ndarray:
    """Each member's largest, over the nodes, spatial rms of its part at
    the modes with an index of at least 3n/8: the spectral-tail estimate
    of how far a solve on this grid is from one on a finer grid."""
    grid = traj.grid
    weights = (half_spectrum(grid, grid.mode_index >= 3 * grid.n / 8)
               * half_spectrum_weights(grid))
    axes = tuple(range(1, grid.d + 1))
    tail = np.zeros(traj.n_members)
    for node in traj.values:
        power = np.sum(weights * np.abs(real_dft(grid, node)) ** 2, axis=axes)
        np.maximum(tail, np.sqrt(power) / grid.n**grid.d, out=tail)
    return tail


def _dissipation_chunk(ens: Ensemble, measure, spec,
                       config: SolverConfig) -> dict:
    """A dissipation chunk's values (dissipation_series), residual
    history and refined flags.  The chunk solves on _solve_grid, from u0
    at every (n/n')-th point of the configured grid, its own values.  On
    a coarser grid a member is kept from that solve when its _tail_rms is
    at most _TAIL_FRACTION tol; the others (refined) are re-solved on the
    configured grid through the same solve, so their series and history
    are that solve's, bit for bit.  Each decision reads only the measure,
    the flux and the member, so the output is the same for any CHUNK."""
    grid = _solve_grid(measure, spec)
    every = (slice(None, None, ens.grid.n // grid.n),) * grid.d
    traj, history = _picard_iterate(
        Ensemble(grid, np.ascontiguousarray(ens.values[(Ellipsis, *every)]),
                 seeds=ens.seeds), spec, config)
    values = dissipation_series(traj, config.s)
    refined = np.zeros(ens.n_members, dtype=bool)
    if grid != ens.grid:
        refined = _tail_rms(traj) > _TAIL_FRACTION * config.tol
    del traj
    redo = np.flatnonzero(refined)
    if redo.size:
        fine, history[:, redo] = _picard_iterate(
            Ensemble(ens.grid, ens.values[redo],
                     seeds=[ens.seeds[i] for i in redo]), spec, config)
        values[:, redo] = dissipation_series(fine, config.s)
    return {"values": values, "history": history, "refined": refined}


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


# the member axis of each array a chunk result may hold
_MEMBER_AXIS = {"values": 1, "history": -1, "final": 0, "refined": 0}


def _write_block(joined, block: np.ndarray, cols: slice, n_members: int,
                 axis: int) -> np.ndarray:
    """Write a chunk's block into its member columns along axis of the
    joined array and return that.  The joined array is allocated at the
    first block, with n_members along axis: by then the pool has forked
    its workers, so none of them inherits it.  Columns no block was
    written to stay unset."""
    if joined is None:
        shape = list(block.shape)
        shape[axis] = n_members
        joined = np.empty(shape, dtype=block.dtype)
    index = [slice(None)] * block.ndim
    index[axis] = cols
    joined[tuple(index)] = block
    return joined


def _merge_chunks(results, payloads: list) -> tuple:
    """(joined, seeds, flagged entries, diagnostics) of one solve from the
    chunk results of its payloads; the one place chunk results are joined,
    a failed chunk is handled and diagnostics are built, for every pooled
    solve.  joined maps each array of a chunk result (values, history and
    a ladder's final; see _solve_chunk) to the whole run's, joined along
    its member axis: each chunk is written into its member columns as it
    arrives and then dropped, so the parent holds the joined arrays and at
    most one chunk result.  flagged
    holds (index, seed, message) for each member of a chunk that failed
    numerically, and those members' columns and seeds are dropped once
    at the end, so every joined array is the whole run's minus them, or
    NumericError names the first when fewer than two members are left.
    diagnostics is the PicardDiagnostics of the joined history under the
    payloads' spec, or a ladder's per level under f(h_n(.)), keyed by
    level."""
    n_members = sum(p["size"] for p in payloads)
    joined, seeds, flagged = {}, [None] * n_members, []
    kept = np.ones(n_members, dtype=bool)
    for res in results:
        cols = slice(res["start"], res["start"] + len(res["seeds"]))
        seeds[cols] = res["seeds"]
        if res["error"] is not None:
            kept[cols] = False
            flagged.extend((res["start"] + j, member_seed, res["error"])
                           for j, member_seed in enumerate(res["seeds"]))
        else:
            for key, axis in _MEMBER_AXIS.items():
                if key in res:
                    joined[key] = _write_block(joined.get(key), res[key],
                                               cols, n_members, axis)
        # drop it before the next chunk arrives
        del res
    if flagged:
        if kept.sum() < 2:
            index, seed, message = flagged[0]
            raise NumericError(
                f"{len(flagged)} members flagged, {kept.sum()} left for a "
                f"member-level stderr; the first, member {index} (seed "
                f"{seed}): {message}")
        # compress, unlike a mask index, returns C-ordered arrays
        joined = {key: np.compress(kept, a, axis=_MEMBER_AXIS[key])
                  for key, a in joined.items()}
        seeds = [s for s, keep in zip(seeds, kept) if keep]
    spec, solver, levels = (payloads[0][key]
                            for key in ("spec", "solver", "ladder"))
    if levels is None:
        return joined, seeds, flagged, _diagnostics(joined["history"], spec,
                                                    solver)
    return joined, seeds, flagged, {
        n: _diagnostics(history, replace(spec, cutoff_level=n), solver)
        for n, history in zip(levels, joined["history"])}


@contextmanager
def _chunk_results(solves: list, workers: int):
    """Several solves, each given as its list of chunk payloads, run as
    the tasks of one process pool of at most one worker per chunk (or one
    by one as they are read, with one worker or one chunk); yields an
    iterator of each solve's _merge_chunks tuple, (joined, seeds, flagged,
    diagnostics), in the order given, each solve joined as its chunks
    arrive.  A caller reads each solve before the next; one that stops
    reading leaves the later solves unread.  On leaving the block the pool
    shuts down and drops the chunks not yet started."""
    payloads = [p for solve in solves for p in solve]
    pool = (ProcessPoolExecutor(max_workers=min(workers, len(payloads)))
            if workers > 1 and len(payloads) > 1 else None)
    try:
        results = (map(_solve_chunk, payloads) if pool is None
                   else pool.map(_solve_chunk, payloads, chunksize=1))
        yield (_merge_chunks(islice(results, len(solve)), solve)
               for solve in solves)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def parallel_picard(grid: Grid, measure, spec: NonlinearitySpec,
                    solver: SolverConfig, n_members: int, seed: int,
                    workers: int = 1) -> tuple:
    """Chunked ensemble Picard solve; returns (trajectory Ensemble, info).
    Every spec, NonlinearitySpec.zero() included, runs the same Picard
    iteration; with f = 0 it takes one sweep per member.

    info carries the PicardDiagnostics of the residual histories joined
    over the chunks (diagnostics) and its converged flag, the kept member
    seeds in order, and flagged (index, seed, message) entries for chunks
    that failed numerically; _merge_chunks builds the diagnostics and
    raises when flagged chunks leave fewer than two members.  Raises
    NonContractionError as picard_solve does on the whole batch.
    Identical output for any worker count.
    """
    payloads = _chunk_payloads(measure, spec, solver, n_members, seed)
    with _chunk_results([payloads], workers) as solves:
        joined, seeds, flagged, diag = next(solves)
    traj = Ensemble(grid, joined["values"], solver.time_grid, seeds)
    return traj, {"converged": diag.converged, "diagnostics": diag,
                  "member_seeds": list(traj.seeds), "flagged": flagged}


def parallel_ladder(grid: Grid, measure, spec: NonlinearitySpec,
                    solver: SolverConfig, n_members: int, seed: int, ladder,
                    workers: int = 1) -> tuple:
    """The cut-off ladder of a polynomial flux on member chunks: for each
    level n solve with data h_n(u0) and flux f(h_n(.)).  Returns
    (final_state, series, diagnostics, flagged): the top level's
    last-node snapshot Ensemble with every kept member's seed, the joined
    ladder_series of the kept members, (nodes, members, k), each level's
    PicardDiagnostics keyed by level in increasing order, and the (index,
    seed, message) entries of the members flagged for numeric failure.
    The ladder checks (_cauchy_check, _moment_guard, _moment_check) read
    the series alone, and _noted names the unconverged levels.

    Each member chunk is one pool task that takes its whole ladder and
    stacked residual history from _ladder_solve and returns its
    ladder_series, so no trajectory leaves its worker; _merge_chunks
    joins the chunks' series, final states and stacked histories as they
    arrive and builds each level's PicardDiagnostics under f(h_n(.)).  A
    chunk that failed at any level is flagged with the "ladder level n: "
    message _ladder_solve raised and its members are dropped from every
    level.  The checks need a member-level stderr, so one member is
    rejected before any solve.
    Identical output for any worker count and any CHUNK.
    """
    levels = ladder_levels(spec, ladder)
    _require_members(n_members, "cut-off ladder checks")
    payloads = _chunk_payloads(measure, spec, solver, n_members, seed,
                               ladder=levels)
    with _chunk_results([payloads], workers) as solves:
        joined, seeds, flagged, diagnostics = next(solves)
    final_state = Ensemble(grid, joined["final"], solver.time_grid[-1], seeds)
    return final_state, joined["values"], diagnostics, flagged


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
    record, None for a section the record lacks or holds as null; raises
    ConfigurationError on the first bad part."""
    grid = from_record(Grid, config["grid"], "grid")
    build = {"measure": lambda record: measure_from_spec(grid, record),
             "nonlinearity": NonlinearitySpec.from_record,
             "solver": SolverConfig.from_record}
    return (grid, *(None if config.get(key) is None else make(config[key])
                    for key, make in build.items()))


def _noted(check: CheckResult, solves: dict,
           noun: str = "rungs") -> CheckResult:
    """check with the solves (label, or ladder level named n=level, ->
    PicardDiagnostics) that stopped at max_iter unconverged named after
    its detail, each with how many of its members were above tol."""
    named = [f"{label if isinstance(label, str) else f'n={label:g}'} "
             f"({diag.iterations} sweeps, residual "
             f"{diag.residuals[-1]:.3g}, {diag.unconverged_members} of "
             f"{diag.members} members above tol)"
             for label, diag in solves.items() if not diag.converged]
    return (replace(check, detail=f"{check.detail}; unconverged {noun}: "
                                  f"{', '.join(named)}") if named else check)


def _gridded(check: CheckResult, solved: Grid, configured: Grid,
             refined: int, members: int) -> CheckResult:
    """check with the grid its solve ran on named after its detail and,
    when that is coarser than the configured grid, how many of its
    members were re-solved on the configured grid."""
    where = f"n = {solved.n}"
    if solved != configured:
        where += (f", {refined} of {members} members re-solved on "
                  f"n = {configured.n}")
    return replace(check, detail=f"{check.detail}; {where}")


# the detail wording of each experiment's ladder Cauchy check, by name
_CAUCHY_WORDING = {"cauchy-distances": "increases across min levels",
                   "ladder-cauchy": "distance increases"}


def _cauchy_check(name: str, series: np.ndarray, levels: list) -> CheckResult:
    """A ladder's Cauchy count, from its joined ladder_series over the
    levels in increasing order: how often the worst sup distance from a
    level to the levels above grows as that level rises, zero to pass;
    NaN when any worst distance is NaN."""
    sup = ladder_sup_distances(series, levels)
    worst = np.array([np.max([sup[n, m] for m in levels if m > n])
                      for n in levels[:-1]])
    count = (np.nan if np.isnan(worst).any()
             else int(np.sum(np.diff(worst) > 0)))
    return CheckResult(name, count, -count, f"{count} {_CAUCHY_WORDING[name]}")


def _moment_guard(moments: dict) -> CheckResult:
    """cutoff-ladder's bound of the top level's moments by the initial
    data's, E|u(t)|^p <= E|h_n(u0)|^p for p = 2 and 4, from its
    ladder_moments (p -> (nodes, members)): the paired z of the bound's
    slack at each node, at least -3 everywhere to pass."""
    # node 0 is h_top(u0), compared with itself: its z is 0 by construction
    worst = min(float(np.min(z_score(*member_mean(
        moments[p][0][None, :] - moments[p], axis=1))[1:])) for p in (2, 4))
    return CheckResult("moment-guard", worst, worst + 3.0,
                       f"min initial-bound z = {worst:.2f}")


def _moment_check(series: MomentSeries) -> CheckResult:
    """moment-monotonicity's check of one moment series: no step increase
    above 3 paired stderr."""
    worst = series.max_increase_z()
    return CheckResult(f"moment-p{series.p}-nonincreasing", worst, 3.0 - worst,
                       f"largest step increase z = {worst:.2f}")


def _decay_check(measure, s: float, t: float, est) -> tuple:
    """linear-spectral-decay's comparison at (s, t): the SpectrumEstimate
    est of the flowed data against measure.decayed(s, t), in stderr, at
    every mode the measure retains.  Returns the CheckResult on the
    largest |z| and the table rows [s, t, k, target, estimate, stderr, z]."""
    target = measure.decayed(s, t)
    worst, rows = 0.0, []
    for idx in zip(*np.nonzero(measure.weights > 0)):
        se = est.stderr[idx]
        z = (est.measure.weights[idx] - target.weights[idx]) / se
        worst = np.maximum(worst, abs(z))
        rows.append([s, t, measure.grid.axis_wavenumbers[idx[0]],
                     target.weights[idx], est.measure.weights[idx], se, z])
    return (CheckResult(f"decay-s{s:g}-t{t:g}", worst, 3.0 - worst,
                        f"max |z| over retained modes = {worst:.2f}"), rows)


def _gate_check(report: DissipationReport, dt: float, k: float,
                s: float) -> CheckResult:
    """energy-dissipation's linear gate, from the f = 0 solve's
    DissipationReport: the largest excess of an interior residual over
    dt^2 |rhs| + 3 stderr, at most 0 to pass.  k is the |k| of the mode
    the gate flows at order s; only at |k| = 1 is the check blind to s."""
    inner = ~report.low_confidence
    cap = dt**2 * np.abs(report.rhs[inner]) + 3.0 * report.stderr[inner]
    worst = float(np.max(np.abs(report.residual[inner]) - cap))
    mode = ("|k| = 1 mode, where |k|^{2s} = 1 for every s, so it tests the "
            "time stencil, not s" if k == 1.0 else
            f"|k| = {k:.3g} mode, where |k|^{{2s}} = {k ** (2.0 * s):.3g} "
            f"at s = {s:g}")
    return CheckResult(
        "linear-gate", worst, -worst,
        f"interior residual within dt^2 relative + 3 stderr (dt={dt:g}); "
        f"it flows a {mode}")


def _identity_check(label: str, report: DissipationReport) -> CheckResult:
    """energy-dissipation's identity check of one nonlinear solve, from
    its DissipationReport: the largest excess of an interior residual
    over max(5 % |rhs|, 3 stderr), at most 0 to pass."""
    inner = ~report.low_confidence
    cap = np.maximum(0.05 * np.abs(report.rhs[inner]),
                     3.0 * report.stderr[inner])
    worst = float(np.max(np.abs(report.residual[inner]) - cap))
    return CheckResult(f"{label}-identity", worst, -worst,
                       f"worst interior excess over cap = {worst:.2e}")


def _slack_check(a: float, b: float, h: float, s: float, lhs: np.ndarray,
                 rhs: np.ndarray) -> tuple:
    """stroock-varopoulos's check of one (a, b, h, s), from each member's
    increment forms lhs and rhs (convexity_members): the z of the slack
    ab rhs - lhs, whose margin slack + 3 stderr is >= 0 to pass.  Returns
    the CheckResult and the table row [a, b, h, s, slack, stderr, z]."""
    slack, stderr = map(float, member_mean(a * b * rhs - lhs))
    z = z_score(slack, stderr)
    return (CheckResult(f"slack-a{a:g}-h{h:g}-s{s:g}", z, slack + 3.0 * stderr,
                        f"slack {slack:.3e} ({z:.1f} stderr)"),
            [a, b, h, s, slack, stderr, z])


def _uniform_grid(t_final: float, nodes: int) -> list:
    return np.linspace(0.0, t_final, nodes).tolist()


def _defaults(n_members: int, seed: int, n: int = 512, **sections) -> dict:
    """Defaults holding only the model sections the experiment builds."""
    return {"grid": {"d": 1, "n": n, "len": TWO_PI}, **sections,
            "n_members": n_members, "seed": seed, "out": None}


# -------------------------------------------------------------- experiments

_S_SWEEP = (0.6, 0.75, 1.0)


@_register(
    "linear-spectral-decay",
    "empirical spectrum of the free flow follows e^{-2t|k|^{2s}} w_k at "
    "every retained mode (3 stderr), s in {0.6, 0.75, 1.0}",
    _defaults(
        measure={"family": "two_mode", "mass": 1.0, "mean": 0.0,
                 "params": {"wavenumber": 3.0}},
        n_members=2000, seed=12,
    ),
)
def _linear_spectral_decay(config: dict, workers: int) -> ExperimentResult:
    grid, measure, _, _ = _cfg_parts(config)
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    checks, rows = [], []
    for s in _S_SWEEP:
        for t in (0.1, 0.5, 1.0):
            op = semigroup_multiplier(grid, s, t)
            est = estimate_spectrum(Ensemble(
                grid, apply_multiplier_values(grid, ens.values, op), t))
            check, more = _decay_check(measure, s, t, est)
            checks.append(check)
            rows.extend(more)
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
    # a ~0.01 s solve: starting a process pool takes longer
    traj, _ = picard_solve(sample_ensemble(measure, config["n_members"],
                                           config["seed"]), spec, solver)
    rows = []
    for j, t in enumerate(traj.times):
        op = semigroup_multiplier(grid, solver.s, float(t))
        exact = apply_multiplier_values(grid, traj.values[0], op)
        err = float(np.max(spatial_rms(grid, traj.values[j] - exact)))
        rows.append([float(t), err])
    worst = np.max([err for _, err in rows])
    checks = [CheckResult("matches-semigroup", worst, 1e-10 - worst,
                          f"max rms deviation from P_t u0 = {worst:.2e}")]
    return ExperimentResult(
        config["experiment"], checks,
        {"free_flow_error": (["t", "rms_error"], rows)},
        fields={"final_state": traj.at(-1)}, member_seeds=list(traj.seeds))


@_register(
    "semigroup-contraction",
    "P_{t1} P_{t2} = P_{t1+t2} to 1e-12 and t -> ||P_t u||_2 is "
    "nonincreasing with no tolerance",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 3.0}},
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
            law_worst = np.maximum(law_worst, np.max(np.abs(one - two)))
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
        CheckResult("semigroup-law", law_worst, 1e-12 - law_worst,
                    f"sup composition error = {law_worst:.2e}"),
        CheckResult("l2-contraction", violations, -violations,
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
    _defaults(n_members=1, seed=0),
)
def _kernel_identities(config: dict, workers: int) -> ExperimentResult:
    grid, _, _, _ = _cfg_parts(config)
    checks, rows = [], []
    for s in _S_SWEEP:
        for t in (0.5, 1.0, 2.0):
            ker = kernel_values(grid, s, t)
            mass_err = abs(float(np.sum(ker)) * grid.cell_volume - 1.0)
            rows.append([s, t, mass_err])
    mass_worst = np.max([row[2] for row in rows])
    checks.append(CheckResult("unit-mass", mass_worst, 1e-8 - mass_worst,
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
        scale_worst = np.maximum(scale_worst, rel)
    checks.append(CheckResult("rescaling-law", scale_worst, 1e-6 - scale_worst,
                              f"max relative error = {scale_worst:.2e}"))

    gauss_worst = 0.0
    for t in (0.25, 1.0):
        g = Grid(1, 512, 20.0 * math.sqrt(t))
        ker = kernel_values(g, 1.0, t)
        x = g.axis_points()
        xc = np.where(x > g.len / 2, x - g.len, x)
        oracle = np.exp(-(xc**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        gauss_worst = np.maximum(gauss_worst, np.max(np.abs(ker - oracle)))
    checks.append(CheckResult("gaussian-oracle", gauss_worst,
                              1e-8 - gauss_worst,
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
            f"gradient-bound-s{s:g}", violations, -violations,
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
            solved = diag.converged and diag.iterations <= 30
            checks.append(CheckResult(
                f"contraction-s{s:g}-K{mult:g}K0", measured,
                1.1 * rho - measured if solved else -np.inf,
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
    parts = _cfg_parts(config)
    final, series, diagnostics, flagged = parallel_ladder(
        *parts, config["n_members"], config["seed"], (1, 2, 4, 8), workers)
    moments = ladder_moments(series)
    checks, tables = [], {}
    for p in (2, 4, 6):
        moment = reduce_moments(parts[3].time_grid, moments[p], p)
        checks.append(_moment_check(moment))
        tables[f"moment_p{p}"] = (
            ["t", "estimate", "stderr", "increase_z"], moment.rows())
    checks.append(_noted(_cauchy_check("ladder-cauchy", series,
                                       list(diagnostics)), diagnostics))
    return ExperimentResult(config["experiment"], checks, tables,
                            fields={"final_state": final},
                            member_seeds=list(final.seeds), flagged=flagged)


def _dissipation_solves(grid: Grid, measure, spec: NonlinearitySpec,
                        n_members: int) -> dict:
    """energy-dissipation's solves, name -> (measure, flux, counter offset)
    in disjoint counter blocks.  The linear gate is a single +/-1 pair
    along the first axis plus a mean, where the centered stencil bias
    (2 lam dt)^2/6 sits below the dt^2 cap.  Its flux is
    NonlinearitySpec.zero(), so its Picard solve is the free flow P_t u0,
    confirmed by one sweep per member."""
    gate = two_mode_measure(grid, [1.0] + [0.0] * (grid.d - 1), mass=1.0,
                            mean=1.0)
    return {"linear": (gate, NonlinearitySpec.zero(), 0),
            "tanh": (measure, spec, n_members),
            "burgers": (measure, NonlinearitySpec.burgers(cutoff_level=2.0),
                        2 * n_members)}


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
    if times.size < 3:
        raise ConfigurationError("the dissipation identity needs a time_grid "
                                 f"of >= 3 nodes, got {times.size}")
    dt = float(np.max(np.diff(times)))
    checks, tables = [], {}
    # the largest rhs over the solves read, NaN once any rhs is NaN
    seeds, flagged, rhs_top = [], [], -np.inf
    solves = _dissipation_solves(grid, measure, spec, n_members)
    # one pool for all three; chunks return per-member series
    payloads = [_chunk_payloads(m, flux, solver, n_members, config["seed"],
                                offset, dissipation=True)
                for m, flux, offset in solves.values()]
    with _chunk_results(payloads, workers) as results:
        for (name, (m, flux, _)), (joined, kept, lost, diag) in zip(
                solves.items(), results):
            seeds.extend(kept)
            flagged.extend(lost)
            gate = name == "linear"
            report = reduce_dissipation(times, joined["values"])
            tables[f"dissipation_{name}"] = (
                ["t", "lhs", "rhs", "residual", "stderr", "low_confidence"],
                report.rows())
            rhs_top = float(np.maximum(rhs_top, np.max(report.rhs)))
            if gate:
                # the |k| of the grid mode the gate's pair snapped to
                k = float(np.max(m.grid.k_abs[m.weights > 0]))
                check = _gate_check(report, dt, k, solver.s)
            else:
                check = _identity_check(name, report)
            if _smooth(flux):
                check = _gridded(check, _solve_grid(m, flux), grid,
                                 int(np.sum(joined["refined"])), diag.members)
            checks.append(_noted(check,
                                 {"linear gate" if gate else name: diag},
                                 "solve"))
            if gate and not checks[-1].passed:
                # the tanh and burgers solves are left unread
                checks += [CheckResult(f"{later}-identity", np.nan, -np.inf,
                                       "skipped: linear gate failed")
                           for later in ("tanh", "burgers")]
                break
    checks.append(CheckResult("rhs-sign", rhs_top, -rhs_top,
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
            f"orthogonality-{label}", stat.z_score, 3.0 - abs(stat.z_score),
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
    final, series, diagnostics, flagged = parallel_ladder(
        *_cfg_parts(config), config["n_members"], config["seed"],
        (1, 2, 4, 8), workers)
    rows = [[lo, hi, sup] for (lo, hi), sup in
            sorted(ladder_sup_distances(series, list(diagnostics)).items())]
    checks = [_noted(_cauchy_check("cauchy-distances", series,
                                   list(diagnostics)), diagnostics),
              _moment_guard(ladder_moments(series))]
    return ExperimentResult(
        config["experiment"], checks,
        {"ladder_distances": (["level_lo", "level_hi", "sup_distance"],
                              rows)},
        fields={"final_state": final},
        member_seeds=list(final.seeds), flagged=flagged)


@_register(
    "stroock-varopoulos",
    "E[(P_h - I)(sgn w |w|^a) sgn w |w|^b] <= ab E[(P_h - I)|w| |w|] for "
    "a + b = 2: slack >= -3 stderr, plus an n = 16 kernel-sum oracle",
    _defaults(
        measure={"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
                 "params": {"width": 3.0}},
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
                check, row = _slack_check(a, b, h, s, *convexity_members(
                    ens, a, b, semigroup_multiplier(grid, s, h)))
                checks.append(check)
                rows.append(row)

    # independent physical-space evaluation: circulant kernel-sum matrix
    # against the Fourier multiplier path
    g16 = Grid(1, 16, TWO_PI)
    m16 = measure_from_spec(g16, config["measure"])
    e16 = sample_ensemble(m16, 8, config["seed"],
                          counter_offset=config["n_members"])
    a, b, h, s = 0.5, 1.5, 0.3, 0.75
    m_lhs, m_rhs = convexity_members(e16, a, b,
                                     semigroup_multiplier(g16, s, h))
    multiplier_slack = float(np.mean(a * b * m_rhs - m_lhs))
    p = kernel_values(g16, s, h)
    idx = (np.arange(16)[:, None] - np.arange(16)[None, :]) % 16
    matrix_t = (p[idx] * g16.dx).T
    w = e16.values
    theta, absw = np.sign(w), np.abs(w)
    pa, pb = theta * absw**a, theta * absw**b
    lhs = float(np.mean(np.mean((pa @ matrix_t - pa) * pb, axis=1)))
    rhs = float(np.mean(np.mean((absw @ matrix_t - absw) * absw, axis=1)))
    gap = abs(multiplier_slack - (a * b * rhs - lhs))
    checks.append(CheckResult(
        "brute-force-oracle", gap, 1e-10 - gap,
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
        "picard-vs-step", gap, 10.0 * cfg.tol - gap,
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
        "self-convergence", ratio, min(ratio - 3.0, 5.0 - ratio),
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
    header = ["t", "estimate", "stderr", "increase_z"]
    rows = moment_series(solo, 2).rows()
    values_differ = float(not np.array_equal(solo.values, multi.values))
    tables_differ = float(format_table(header, rows) != format_table(
        header, moment_series(multi, 2).rows()))
    checks = [
        CheckResult("bitwise-values", values_differ, -values_differ,
                    "ensemble values differ" if values_differ else
                    "1-worker and 2-worker ensembles are bit-identical"),
        CheckResult("bitwise-tables", tables_differ, -tables_differ,
                    "tables differ" if tables_differ else
                    "formatted moment tables are byte-identical"),
    ]
    return ExperimentResult(
        config["experiment"], checks, {"moment_p2": (header, rows)},
        member_seeds=info["member_seeds"], flagged=info["flagged"])
