"""Negative controls: each shipped check below is built by one function,
which its experiment calls on the solve's arrays.  A control calls the
same function on arrays where the identity it checks is false by a
stated margin, and the check must FAIL there, while the call on the true
arrays passes.  A check that cannot fail shows nothing."""

from itertools import combinations

import pytest

from fracflow.ensemble_stats import reduce_moments
from fracflow.experiments import (
    _cauchy_check,
    _cfg_parts,
    _decay_check,
    _moment_check,
    _moment_guard,
    parallel_ladder,
)
from fracflow.random_fields import Ensemble, estimate_spectrum, sample_ensemble
from fracflow.runner import RunConfig
from fracflow.solver import ladder_moments
from fracflow.spectral import apply_multiplier_values, semigroup_multiplier


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
    assert _cauchy_check("cauchy-distances", series, diagnostics).passed
    grown = series.copy()
    for i, (lo, _) in enumerate(combinations(diagnostics, 2)):
        grown[..., i] *= lo ** 2
    check = _cauchy_check("cauchy-distances", grown, diagnostics)
    assert not check.passed
    assert check.detail.startswith("2 increases across min levels")


def test_cutoff_ladder_guard_fails_on_time_reversed_moments(cutoff_ladder):
    """The top level's moments stay below the initial data's; read
    backwards in time, the last node's moments become the bound and the
    earlier, larger ones break it: the guard's min z must fall below -5."""
    series, _, _ = cutoff_ladder
    moments = ladder_moments(series)
    assert _moment_guard(moments).passed
    check = _moment_guard({p: m[::-1] for p, m in moments.items()})
    assert not check.passed
    assert float(check.detail.rsplit("= ", 1)[1]) < -5.0


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
        assert float(wrong.detail.rsplit("= ", 1)[1]) > 10.0
