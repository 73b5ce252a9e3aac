"""Negative controls: each shipped check below is run by its experiment
on data where the identity it checks is false by a stated margin, and
must FAIL there, while the same run on the true data passes.  A check
that cannot fail shows nothing."""

from itertools import combinations

import pytest

import fracflow.experiments
from fracflow.errors import LadderWarning
from fracflow.experiments import get_experiment
from fracflow.runner import RunConfig


def run_checks(experiment: str, **overrides) -> dict:
    """name -> CheckResult of one in-process run of the experiment."""
    cfg = RunConfig.from_dict({"experiment": experiment, **overrides})
    result = get_experiment(experiment).fn(cfg.to_dict(), 1)
    return {c.name: c for c in result.checks}


def test_moment_monotonicity_fails_on_time_reversed_moments(monkeypatch):
    """The moments decrease along the cut-off Burgers flow; read backwards
    in time they increase, and every p's increase z must exceed 3."""
    overrides = {"n_members": 256, "grid": {"n": 32}}
    forward = run_checks("moment-monotonicity", **overrides)
    real = fracflow.experiments.parallel_ladder

    def time_reversed(*args, **kwargs):
        final, moments, report, flagged = real(*args, **kwargs)
        return (final, {p: m[::-1] for p, m in moments.items()}, report,
                flagged)

    monkeypatch.setattr(fracflow.experiments, "parallel_ladder",
                        time_reversed)
    reversed_ = run_checks("moment-monotonicity", **overrides)
    for p in (2, 4, 6):
        name = f"moment-p{p}-nonincreasing"
        assert forward[name].passed, forward[name].detail
        assert not reversed_[name].passed, reversed_[name].detail
        worst = float(reversed_[name].detail.rsplit("= ", 1)[1])
        assert worst > 5.0


def test_cutoff_ladder_fails_on_growing_distances(monkeypatch):
    """Each pair's distance scaled by its lower level squared: the worst
    distance from a level then grows with the level (from 4.2 at level 1
    to 11.3 at 2 and 22.7 at 4 on this sample) and the Cauchy count reads
    two increases."""
    overrides = {"n_members": 64, "grid": {"n": 32}}
    assert run_checks("cutoff-ladder", **overrides)["cauchy-distances"].passed
    real = fracflow.experiments.ladder_report

    def growing(times, series, diagnostics):
        grown = series.copy()
        for i, (lo, _) in enumerate(combinations(diagnostics, 2)):
            grown[..., i] *= lo ** 2
        return real(times, grown, diagnostics)

    monkeypatch.setattr(fracflow.experiments, "ladder_report", growing)
    with pytest.warns(LadderWarning):
        check = run_checks("cutoff-ladder", **overrides)["cauchy-distances"]
    assert not check.passed
    assert check.detail.startswith("2 increases across min levels")


def test_linear_spectral_decay_fails_at_the_wrong_s(monkeypatch):
    """The data flowed at s = 0.75 whatever s the check asks for, so the
    s = 0.6 checks compare it with a target built at s' = 0.6; at the
    shipped 2000 members each |z| must exceed 3 with margin."""
    real = fracflow.experiments.semigroup_multiplier
    monkeypatch.setattr(fracflow.experiments, "semigroup_multiplier",
                        lambda grid, s, t: real(grid, 0.75, t))
    checks = run_checks("linear-spectral-decay")
    for t in ("0.1", "0.5", "1"):
        assert checks[f"decay-s0.75-t{t}"].passed
        wrong = checks[f"decay-s0.6-t{t}"]
        assert not wrong.passed, wrong.detail
        assert float(wrong.detail.rsplit("= ", 1)[1]) > 10.0
