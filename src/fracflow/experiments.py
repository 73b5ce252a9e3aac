"""Canned verification experiments.

Each experiment bundles a default configuration with a function that
samples, solves and checks one mathematical statement (spectral decay of
the free flow, kernel identities, Picard contraction rates, moment
monotonicity, the dissipation identity, and so on).  The registry is what
the command line lists and runs; tests drive the same entry points.

Ensemble solves run in member chunks of fixed size CHUNK, and chunk
results are reduced in chunk order.  Together with counter-based
per-member seeding this makes every number independent of the worker
count.  parallel_picard runs one solve this way; parallel_ladder runs
every level of a cut-off ladder as (level, chunk) tasks of one process
pool, so the ladder experiments use the workers too.  A chunk returns its
residual series unjudged: the NonContractionError rule of picard_solve is
applied once per solve, to the series merged over its chunks, which is
the whole batch's series.  picard-contraction still solves its ensemble
in one process.
"""

from __future__ import annotations

import difflib
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .ensemble_stats import (
    dissipation_residual,
    format_table,
    moment_series,
    stroock_varopoulos_check,
)
from .errors import (
    ConfigurationError,
    LadderWarning,
    NumericError,
    require_number,
)
from .random_fields import (
    Ensemble,
    directional_orthogonality_stat,
    estimate_spectrum,
    measure_from_spec,
    sample_ensemble,
)
from .solver import (
    NonlinearitySpec,
    PicardDiagnostics,
    SolverConfig,
    _picard_iterate,
    contraction_bound,
    ladder_levels,
    ladder_report,
    ladder_rung,
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

# fixed member chunk; never derived from the worker count
CHUNK = 256

TWO_PI = 2.0 * math.pi


def grid_from_record(record: dict) -> Grid:
    if not isinstance(record, dict):
        raise ConfigurationError("grid record must be a mapping")
    extra = set(record) - {"d", "n", "len"}
    if extra:
        raise ConfigurationError(f"unknown grid keys: {sorted(extra)}")
    missing = {"d", "n", "len"} - set(record)
    if missing:
        raise ConfigurationError(f"grid record missing {sorted(missing)}")
    return Grid(d=require_number(record["d"], "grid 'd'", integer=True),
                n=require_number(record["n"], "grid 'n'", integer=True),
                len=require_number(record["len"], "grid 'len'"))


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
    """One member chunk, rebuilt from plain records so it can cross a
    process boundary.  A ladder chunk (level n set) solves with data
    h_n(u0) and flux f(h_n(.)).  The chunk's residual series comes back
    unjudged, for the growth rule to see the merged series.  Numeric
    blowup inside a chunk is reported, not raised: the run continues
    with those members flagged."""
    grid = grid_from_record(payload["grid"])
    measure = measure_from_spec(grid, payload["measure"])
    spec = NonlinearitySpec.from_record(payload["nonlinearity"])
    config = SolverConfig.from_record(payload["solver"])
    ens = sample_ensemble(measure, payload["size"], payload["seed"],
                          counter_offset=payload["offset"] + payload["start"])
    if payload["level"] is not None:
        ens, spec = ladder_rung(ens, spec, payload["level"])
    try:
        traj, diag = _picard_iterate(ens, spec, config)
    except NumericError as exc:
        return {"start": payload["start"], "size": payload["size"],
                "seeds": ens.seeds, "values": None, "error": str(exc)}
    return {"start": payload["start"], "size": payload["size"],
            "seeds": ens.seeds, "values": traj.values, "error": None,
            "diagnostics": diag}


def _chunk_payloads(grid_rec: dict, measure_rec: dict, nl_rec: dict,
                    solver_rec: dict, n_members: int, seed: int,
                    counter_offset: int = 0, level=None) -> list:
    if n_members < 1:
        raise ConfigurationError("n_members must be >= 1")
    return [{"grid": grid_rec, "measure": measure_rec,
             "nonlinearity": nl_rec, "solver": solver_rec,
             "seed": seed, "offset": counter_offset, "level": level,
             "start": start, "size": min(CHUNK, n_members - start)}
            for start in range(0, n_members, CHUNK)]


@contextmanager
def _chunk_results(payloads: list, workers: int):
    """An iterator over the chunk results in submission order, solved on a
    process pool when there are workers and chunks to share, else one by
    one as it is read.  Reading it as it comes keeps only the unmerged
    chunks in memory; the pool shuts down on leaving the block."""
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map(_solve_chunk, payloads, chunksize=1)
    else:
        yield map(_solve_chunk, payloads)


def _merge_chunks(grid_rec: dict, solver_rec: dict, n_members: int,
                  results) -> tuple:
    """(trajectory Ensemble, merged PicardDiagnostics, flagged entries) of
    one solve's chunk results, in chunk order; flagged holds (index,
    seed, message) for each member of a chunk that failed numerically.

    Each chunk is copied into place as it is read, so only one chunk's
    array is alive beside the trajectory; a single chunk is the
    trajectory as it is."""
    values, seeds, diags, flagged = None, [], [], []
    for res in results:
        if res["error"] is not None:
            for j in range(res["size"]):
                flagged.append((res["start"] + j, res["seeds"][j],
                                res["error"]))
            continue
        block = res["values"]
        if res["size"] == n_members:
            values = block
        else:
            if values is None:
                values = np.empty(block.shape[:1] + (n_members,)
                                  + block.shape[2:])
            values[:, len(seeds):len(seeds) + res["size"]] = block
        seeds.extend(res["seeds"])
        diags.append(res["diagnostics"])
    if not seeds:
        raise NumericError("every member chunk failed numerically")
    if len(seeds) < n_members:          # flagged members leave no rows
        values = values[:, :len(seeds)].copy()
    config = SolverConfig.from_record(solver_rec)
    traj = Ensemble(grid_from_record(grid_rec), values, config.time_grid, seeds)
    return traj, PicardDiagnostics.merge(diags), flagged


def parallel_picard(grid_rec: dict, measure_rec: dict, nl_rec: dict,
                    solver_rec: dict, n_members: int, seed: int,
                    workers: int = 1, counter_offset: int = 0) -> tuple:
    """Chunked ensemble Picard solve; returns (trajectory Ensemble, info).

    info carries the PicardDiagnostics merged over the chunks
    (diagnostics) and its converged flag, all member seeds in order, and
    flagged (index, seed, message) entries for chunks that failed
    numerically.  Raises NonContractionError by the rule of picard_solve,
    applied to the merged series.  Identical output for any worker count.
    """
    payloads = _chunk_payloads(grid_rec, measure_rec, nl_rec, solver_rec,
                               n_members, seed, counter_offset)
    with _chunk_results(payloads, workers) as results:
        traj, diag, flagged = _merge_chunks(grid_rec, solver_rec, n_members,
                                            results)
    diag.raise_if_growing()
    info = {"converged": diag.converged, "diagnostics": diag,
            "member_seeds": list(traj.seeds), "flagged": flagged}
    return traj, info


def parallel_ladder(grid_rec: dict, measure_rec: dict, nl_rec: dict,
                    solver_rec: dict, n_members: int, seed: int, ladder,
                    workers: int = 1) -> tuple:
    """The cut-off ladder of solve_polynomial on the chunked path; returns
    (top-level trajectory Ensemble, LadderReport).

    Every (level, chunk) pair is one task of one pool, and every level
    solves the same members.  Each level's chunks merge as in
    parallel_picard; then, level by level in increasing order, a failed
    chunk raises NumericError and a growing merged series raises
    NonContractionError, as the in-memory ladder would.  Identical
    output for any worker count, and equal to solve_polynomial on the
    same sample.
    """
    levels = ladder_levels(NonlinearitySpec.from_record(nl_rec), ladder)
    rungs = [_chunk_payloads(grid_rec, measure_rec, nl_rec, solver_rec,
                             n_members, seed, level=n) for n in levels]
    solutions, diagnostics = {}, {}
    with _chunk_results([p for rung in rungs for p in rung],
                        workers) as results:
        for n, rung in zip(levels, rungs):
            traj, diag, flagged = _merge_chunks(
                grid_rec, solver_rec, n_members, islice(results, len(rung)))
            if flagged:
                raise NumericError(f"ladder level {n:g}: {flagged[0][2]}")
            diag.raise_if_growing()
            solutions[n], diagnostics[n] = traj, diag
    report = ladder_report(solutions, diagnostics)
    return solutions[report.top_level], report


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
    grid = grid_from_record(config["grid"])
    measure = measure_from_spec(grid, config["measure"])
    return grid, measure


def _unconverged_note(report, n_members: int) -> str:
    """Detail-line suffix naming the ladder rungs whose solve stopped at
    max_iter unconverged, with how many of the n_members were still above
    tol; empty when every rung converged."""
    rungs = []
    for n in report.unconverged_levels:
        diag = report.diagnostics[n]
        rungs.append(f"n={n:g} ({diag.iterations} sweeps, residual "
                     f"{diag.residuals[-1]:.3g}, {diag.unconverged_members} of "
                     f"{n_members} members above tol)")
    return f"; unconverged rungs: {', '.join(rungs)}" if rungs else ""


def _run_ladder(config: dict, workers: int) -> tuple:
    """(top-level trajectory, LadderReport, whether LadderWarning was
    raised) of the ladder 1, 2, 4, 8 of a config on the chunked path."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        top, report = parallel_ladder(
            config["grid"], config["measure"], config["nonlinearity"],
            config["solver"], config["n_members"], config["seed"],
            (1, 2, 4, 8), workers)
    warned = any(issubclass(w.category, LadderWarning) for w in caught)
    return top, report, warned


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
    grid, measure = _cfg_parts(config)
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
    grid, _ = _cfg_parts(config)
    traj, info = parallel_picard(
        config["grid"], config["measure"], config["nonlinearity"],
        config["solver"], config["n_members"], config["seed"], workers)
    s = float(config["solver"]["s"])
    worst = 0.0
    rows = []
    for j, t in enumerate(traj.times):
        op = semigroup_multiplier(grid, s, float(t))
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
    grid, measure = _cfg_parts(config)
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
    tgrid = np.asarray(config["solver"]["time_grid"], dtype=np.float64)
    s = float(config["solver"]["s"])
    rows, violations = [], 0
    prev = None
    for t in tgrid:
        flowed = apply_multiplier_values(
            grid, ens.values, semigroup_multiplier(grid, s, float(t))) \
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
    grid, _ = _cfg_parts(config)
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
    grid, measure = _cfg_parts(config)
    z = config["solver"]["z"]
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
            op = grad_semigroup_multiplier(grid, s, float(t), z)
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
    grid, measure = _cfg_parts(config)
    spec = NonlinearitySpec.from_record(config["nonlinearity"])
    lip = spec.effective_lipschitz()
    base = SolverConfig.from_record(config["solver"])
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    checks, rows = [], []
    for s in (0.75, 1.0):
        k0 = minimal_K(s, lip)
        for mult in (2.0, 4.0):
            k = mult * k0
            cfg = SolverConfig(s=s, z=base.z, time_grid=base.time_grid,
                               bielecki_k=k, tol=base.tol,
                               max_iter=base.max_iter, dealias=base.dealias)
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
    top, report, ladder_warned = _run_ladder(config, workers)
    checks, tables = [], {}
    for p in (2, 4, 6):
        series = moment_series(top, p)
        worst = series.max_increase_z()
        checks.append(CheckResult(
            f"moment-p{p}-nonincreasing", worst <= 3.0,
            f"largest step increase z = {worst:.2f}"))
        tables[f"moment_p{p}"] = (
            ["t", "estimate", "stderr", "increase_z"], series.rows())
    checks.append(CheckResult(
        "ladder-cauchy", report.cauchy_violations == 0 and not ladder_warned,
        f"{report.cauchy_violations} distance increases"
        f"{_unconverged_note(report, top.n_members)}"))
    return ExperimentResult(config["experiment"], checks, tables,
                            fields={"final_state": top.at(-1)},
                            member_seeds=list(top.seeds))


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
    s = float(config["solver"]["s"])
    n_members = config["n_members"]
    dt = float(np.max(np.diff(np.asarray(config["solver"]["time_grid"]))))
    checks, tables = [], {}
    seeds, flagged = [], []

    def run(nl_rec, measure_rec, offset):
        traj, info = parallel_picard(
            config["grid"], measure_rec, nl_rec, config["solver"],
            n_members, config["seed"], workers, counter_offset=offset)
        seeds.extend(info["member_seeds"])
        flagged.extend(info["flagged"])
        return dissipation_residual(traj, s)

    # linear gate: single +/-1 pair plus a mean, where the centered
    # stencil bias (2 lam dt)^2/6 sits below the dt^2 cap
    gate_measure = {"family": "two_mode", "mass": 1.0, "mean": 1.0,
                    "params": {"wavenumber": 1.0}}
    gate = run({"kind": "zero"}, gate_measure, offset=0)
    inner = ~gate.low_confidence
    gate_ok = bool(np.all(
        np.abs(gate.residual[inner])
        <= dt**2 * np.abs(gate.rhs[inner]) + 3.0 * gate.stderr[inner]))
    checks.append(CheckResult(
        "linear-gate", gate_ok,
        f"interior residual within dt^2 relative + 3 stderr (dt={dt:g})"))
    tables["dissipation_linear"] = (
        ["t", "lhs", "rhs", "residual", "stderr", "low_confidence"],
        gate.rows())

    sign_ok = bool(np.all(gate.rhs <= 0.0))
    if not gate_ok:
        checks.append(CheckResult("tanh-identity", False,
                                  "skipped: linear gate failed"))
        checks.append(CheckResult("burgers-identity", False,
                                  "skipped: linear gate failed"))
    else:
        for k, (label, nl_rec) in enumerate((
                ("tanh", config["nonlinearity"]),
                ("burgers", {"kind": "burgers_quadratic",
                             "cutoff_level": 2.0}))):
            # disjoint counter blocks: gate 0..N, tanh N..2N, burgers 2N..3N
            report = run(nl_rec, config["measure"],
                         offset=(1 + k) * n_members)
            inner = ~report.low_confidence
            cap = np.maximum(0.05 * np.abs(report.rhs[inner]),
                             3.0 * report.stderr[inner])
            worst = float(np.max(np.abs(report.residual[inner]) - cap))
            ok = bool(np.all(np.abs(report.residual[inner]) <= cap))
            checks.append(CheckResult(
                f"{label}-identity", ok,
                f"worst interior excess over cap = {worst:.2e}"))
            sign_ok = sign_ok and bool(np.all(report.rhs <= 0.0))
            tables[f"dissipation_{label}"] = (
                ["t", "lhs", "rhs", "residual", "stderr", "low_confidence"],
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
    grid, measure = _cfg_parts(config)
    z = config["solver"]["z"]
    ens = sample_ensemble(measure, config["n_members"], config["seed"])
    pairs = [
        ("id-id", None, lambda x: x),
        ("halfsquare-id", lambda x: 0.5 * x * x, lambda x: x),
        ("tanh-cube", np.tanh, lambda x: x**3),
    ]
    checks, rows = [], []
    for i, (label, f, g) in enumerate(pairs):
        stat = directional_orthogonality_stat(ens, g, z, f=f)
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
    top, report, ladder_warned = _run_ladder(config, workers)
    rows = [[pair[0], pair[1], sup]
            for pair, sup in sorted(report.sup_distances.items())]
    guard_min = min(float(np.min(v)) for v in report.guard_z.values())
    checks = [
        CheckResult("cauchy-distances",
                    report.cauchy_violations == 0 and not ladder_warned,
                    f"{report.cauchy_violations} increases across min "
                    f"levels{_unconverged_note(report, top.n_members)}"),
        CheckResult("moment-guard", guard_min >= -3.0,
                    f"min initial-bound z = {guard_min:.2f}"),
    ]
    return ExperimentResult(
        config["experiment"], checks,
        {"ladder_distances": (["level_lo", "level_hi", "sup_distance"],
                              rows)},
        fields={"final_state": top.at(-1)},
        member_seeds=list(top.seeds))


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
    grid, measure = _cfg_parts(config)
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
    grid, measure = _cfg_parts(config)
    spec = NonlinearitySpec.from_record(config["nonlinearity"])
    cfg = SolverConfig.from_record(config["solver"])
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
        sub = SolverConfig(s=cfg.s, z=cfg.z,
                           time_grid=np.linspace(0.0, t_final, nodes),
                           bielecki_k=cfg.bielecki_k, tol=cfg.tol,
                           max_iter=cfg.max_iter, dealias=cfg.dealias)
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
    args = (config["grid"], config["measure"], config["nonlinearity"],
            config["solver"], config["n_members"], config["seed"])
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
