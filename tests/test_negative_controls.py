"""Negative controls: each shipped check below is built by one function,
which its experiment calls on the solve's arrays.  A control calls the
same function on arrays where the identity it checks is false by a
stated margin, and the check must FAIL there, while the call on the true
arrays passes.  gradient-bound's checks have no function of their own:
their control lowers the constant c_s they compare with to 0.99 of its
value, and every s must then FAIL.  A check that cannot fail shows
nothing: energy-dissipation's rhs-sign has no control, because its rhs is
minus a sum of squares on any arrays."""

import math
from itertools import combinations, product

import numpy as np
import pytest

import fracflow.experiments
from fracflow.ensemble_stats import (
    convexity_members,
    dissipation_series,
    ladder_moments,
    reduce_dissipation,
    reduce_moments,
)
from fracflow.experiments import (
    CheckResult,
    _cauchy_check,
    _cfg_parts,
    _decay_check,
    _dissipation_solves,
    _gate_check,
    _identity_check,
    _moment_check,
    _moment_guard,
    _slack_check,
    get_experiment,
    parallel_ladder,
)
from fracflow.random_fields import Ensemble, estimate_spectrum, sample_ensemble
from fracflow.runner import RunConfig
from fracflow.solver import picard_solve
from fracflow.spectral import (
    MultiplierOp,
    apply_multiplier_values,
    gradient_constant,
    semigroup_multiplier,
)


@pytest.mark.parametrize("margin, passed", [
    (math.nan, False), (-math.inf, False), (-1e-300, False),
    (0.0, True), (-0.0, True), (math.inf, True)])
def test_the_margin_alone_decides(margin, passed):
    """A check passes at margin >= 0 and nowhere else: a NaN margin, such
    as a skipped identity's or one computed from a NaN statistic, fails."""
    assert CheckResult("any", 0.0, margin, "detail").passed is passed


def shipped(experiment: str, **overrides) -> tuple:
    """The experiment's (grid, measure, flux, solver config), member
    count and seed, from its shipped config with the overrides."""
    cfg = RunConfig.from_dict({"experiment": experiment, **overrides})
    return _cfg_parts(cfg.to_dict()), cfg.n_members, cfg.seed


def ladder(experiment: str, **overrides) -> tuple:
    """(series, diagnostics, time grid) of the experiment's cut-off
    ladder, solved in this process as the experiment solves it."""
    parts, n_members, seed = shipped(experiment, **overrides)
    _, series, diagnostics, _ = parallel_ladder(*parts, n_members, seed,
                                                (1, 2, 4, 8))
    return series, diagnostics, parts[3].time_grid


@pytest.fixture(scope="module")
def cutoff_ladder():
    return ladder("cutoff-ladder", n_members=64, grid={"n": 32})


def test_moment_monotonicity_fails_on_time_reversed_moments():
    """The moments decrease along the cut-off Burgers flow; read backwards
    in time they increase, and every p's increase z must exceed 5."""
    series, _, times = ladder("moment-monotonicity", n_members=256,
                              grid={"n": 32})
    for p, moments in ladder_moments(series).items():
        assert _moment_check(reduce_moments(times, moments, p)).passed
        backwards = reduce_moments(times, moments[::-1], p)
        check = _moment_check(backwards)
        assert not check.passed, check.detail
        assert backwards.max_increase_z() > 5.0


def test_cutoff_ladder_fails_on_growing_distances(cutoff_ladder):
    """Each pair's distance scaled by its lower level squared: the worst
    distance from a level then grows with the level (from 4.2 at level 1
    to 11.3 at 2 and 22.7 at 4 on this sample) and the Cauchy count reads
    two increases."""
    series, diagnostics, _ = cutoff_ladder
    levels = list(diagnostics)
    assert _cauchy_check("cauchy-distances", series, levels).passed
    grown = series.copy()
    for i, (lo, _) in enumerate(combinations(levels, 2)):
        grown[..., i] *= lo ** 2
    check = _cauchy_check("cauchy-distances", grown, levels)
    assert not check.passed
    assert check.statistic == 2


@pytest.mark.parametrize("pair", range(6))
def test_cutoff_ladder_fails_on_a_nan_distance(pair):
    """Each pair's distance 1/lo, so the worst distance from a level falls
    as it rises and the count passes; one pair's distances set to NaN
    make that level's worst distance, and so the count, NaN: a NaN
    compares false, and a count of increases would read 0 and pass."""
    levels = [1.0, 2.0, 4.0, 8.0]
    series = np.empty((3, 4, 6))
    for i, (lo, _) in enumerate(combinations(levels, 2)):
        series[..., i] = 1.0 / lo
    assert _cauchy_check("cauchy-distances", series, levels).passed
    series[..., pair] = np.nan
    check = _cauchy_check("cauchy-distances", series, levels)
    assert not check.passed
    assert math.isnan(check.statistic)


def test_cutoff_ladder_guard_fails_on_time_reversed_moments(cutoff_ladder):
    """The top level's moments stay below the initial data's; read
    backwards in time, the last node's moments become the bound and the
    earlier, larger ones break it: the guard's min z must fall below -5."""
    series, _, _ = cutoff_ladder
    moments = ladder_moments(series)
    assert _moment_guard(moments).passed
    check = _moment_guard({p: m[::-1] for p, m in moments.items()})
    assert not check.passed
    assert check.statistic < -5.0


def test_gradient_bound_fails_below_the_constant(monkeypatch):
    """The bound is sharp: the discrete operator norm reaches 0.9999999,
    0.9999963 and 0.9999986 of c_s t^{-1/2s} at s = 0.6, 0.75 and 1.
    Against 0.99 c_s each s must count violations on its 41 times (28, 24
    and 19 on the shipped config), while the true c_s counts none."""
    experiment = get_experiment("gradient-bound")
    config = RunConfig.from_dict({"experiment": "gradient-bound"}).to_dict()
    assert experiment.fn(config, 1).passed
    monkeypatch.setattr(fracflow.experiments, "gradient_constant",
                        lambda s: 0.99 * gradient_constant(s))
    checks = experiment.fn(config, 1).checks
    assert [c.name for c in checks] == [
        "gradient-bound-s0.6", "gradient-bound-s0.75", "gradient-bound-s1"]
    for check in checks:
        assert not check.passed, check.detail
        assert check.statistic > 0


def test_linear_spectral_decay_fails_at_the_wrong_s():
    """The data flowed at s = 0.75 and compared with the target at
    s' = 0.6: at the shipped 2000 members every t's |z| must exceed 10,
    while the target at the true s passes."""
    (grid, measure, _, _), n_members, seed = shipped("linear-spectral-decay")
    ens = sample_ensemble(measure, n_members, seed)
    for t in (0.1, 0.5, 1.0):
        flowed = apply_multiplier_values(grid, ens.values,
                                         semigroup_multiplier(grid, 0.75, t))
        est = estimate_spectrum(Ensemble(grid, flowed, t))
        assert _decay_check(measure, 0.75, t, est)[0].passed
        wrong, _ = _decay_check(measure, 0.6, t, est)
        assert not wrong.passed, wrong.detail
        assert wrong.statistic > 10.0


def test_linear_spectral_decay_fails_on_a_nan_stderr():
    """A NaN z at every retained mode makes the largest |z| NaN, and the
    check FAILs; a reduction that drops NaN would read 0.00 and pass."""
    (_, measure, _, _), _, seed = shipped("linear-spectral-decay")
    est = estimate_spectrum(sample_ensemble(measure, 50, seed))
    assert _decay_check(measure, 0.75, 0.0, est)[0].passed
    est.stderr[:] = np.nan
    check, rows = _decay_check(measure, 0.75, 0.0, est)
    assert not check.passed
    assert math.isnan(check.statistic)
    assert rows and all(math.isnan(row[6]) for row in rows)


@pytest.fixture(scope="module")
def dissipation():
    """(series by solve, time grid, dt, s) of energy-dissipation's three
    solves at 257 members on a 64-cell grid, each solve's
    dissipation_series drawn from the counter block the experiment
    gives it and Picard-solved in this process."""
    (grid, measure, spec, solver), n_members, seed = shipped(
        "energy-dissipation", n_members=257, grid={"n": 64})
    series = {}
    for name, (m, flux, offset) in _dissipation_solves(
            grid, measure, spec, n_members).items():
        ens = sample_ensemble(m, n_members, seed, counter_offset=offset)
        traj, _ = picard_solve(ens, flux, solver)
        series[name] = dissipation_series(traj, solver.s)
    times = solver.time_grid
    return series, times, float(np.max(np.diff(times))), solver.s


def test_energy_dissipation_fails_backwards_in_time(dissipation):
    """Each solve's mean square falls; read backwards in time it rises
    while the Dirichlet rate stays negative, so d/dt E u^2 takes the
    rate's opposite sign.  The gate's worst interior residual must exceed
    its dt^2 cap by more than |rhs| (1.61 |rhs| on this sample), and each
    identity's worst excess over its cap must exceed 1 (3.09 for tanh and
    3.11 for Burgers).  This does not show that the identities' 5 % cap
    is tight: a flow at the wrong s' = 0.74 still passes it."""
    series, times, dt, s = dissipation
    true = reduce_dissipation(times, series["linear"])
    assert _gate_check(true, dt, 1.0, s).passed
    report = reduce_dissipation(times, series["linear"][::-1])
    assert not _gate_check(report, dt, 1.0, s).passed
    inner = ~report.low_confidence
    rhs = np.abs(report.rhs[inner])
    excess = (np.abs(report.residual[inner]) - dt**2 * rhs
              - 3.0 * report.stderr[inner])
    assert np.max(excess / rhs) > 1.0
    for label in ("tanh", "burgers"):
        true = reduce_dissipation(times, series[label])
        assert _identity_check(label, true).passed
        check = _identity_check(
            label, reduce_dissipation(times, series[label][::-1]))
        assert not check.passed
        assert check.statistic > 1.0


def backward_flow(grid, s: float, h: float) -> MultiplierOp:
    """The semigroup run backwards, e^{+h|k|^{2s}}, capped at 10 so it
    stays finite: it amplifies the modes P_h damps, and the convexity
    slack turns negative."""
    return MultiplierOp(grid, np.exp(np.minimum(h * grid.k_abs ** (2 * s),
                                                math.log(10.0))))


def test_stroock_varopoulos_fails_under_the_backward_flow():
    """Each of the eight slack checks at the shipped 2000 members: under
    P_h every z is above +89, and under the backward flow every check
    must FAIL with z below -10 (the weakest, -20.1, at a = b = 1,
    h = 0.05, s = 1)."""
    (grid, measure, _, _), n_members, seed = shipped("stroock-varopoulos")
    ens = sample_ensemble(measure, n_members, seed)
    for (a, b), h, s in product(((0.5, 1.5), (1.0, 1.0)), (0.05, 0.2),
                                (0.6, 1.0)):
        forward, _ = _slack_check(a, b, h, s, *convexity_members(
            ens, a, b, semigroup_multiplier(grid, s, h)))
        assert forward.passed, forward.detail
        check, _ = _slack_check(a, b, h, s, *convexity_members(
            ens, a, b, backward_flow(grid, s, h)))
        assert not check.passed, check.detail
        assert check.statistic < -10.0


def test_detail_lines_report_the_statistic(cutoff_ladder, dissipation):
    """Each check function formats its detail from the statistic it
    returns, in the detail's own format."""
    series, _, times = cutoff_ladder
    moments = ladder_moments(series)
    guard = _moment_guard(moments)
    assert guard.detail == f"min initial-bound z = {guard.statistic:.2f}"
    moment = _moment_check(reduce_moments(times, moments[2], 2))
    assert moment.detail == (
        f"largest step increase z = {moment.statistic:.2f}")
    (grid, measure, _, _), _, seed = shipped("linear-spectral-decay")
    ens = sample_ensemble(measure, 200, seed)
    decay, _ = _decay_check(measure, 0.75, 0.0, estimate_spectrum(ens))
    assert decay.detail == (
        f"max |z| over retained modes = {decay.statistic:.2f}")
    dseries, dtimes, _, _ = dissipation
    identity = _identity_check("tanh", reduce_dissipation(dtimes,
                                                          dseries["tanh"]))
    assert identity.detail == (
        f"worst interior excess over cap = {identity.statistic:.2e}")
    slack, row = _slack_check(0.5, 1.5, 0.2, 0.6, *convexity_members(
        ens, 0.5, 1.5, semigroup_multiplier(grid, 0.6, 0.2)))
    assert slack.statistic == row[6]
    assert slack.detail == f"slack {row[4]:.3e} ({slack.statistic:.1f} stderr)"
