"""Statistics layer: moment series, dissipation, and the semigroup
convexity inequality, each checked against closed-form or brute-force
oracles on small grids."""

import math
import tracemalloc

import numpy as np
import pytest

from fracflow.ensemble_stats import (
    convexity_members,
    dissipation_residual,
    dissipation_series,
    format_table,
    member_moments,
    moment_series,
    reduce_dissipation,
    reduce_moments,
)
from fracflow.errors import ConfigurationError, ResolutionError
from fracflow.experiments import _slack_check
from fracflow.random_fields import (
    Ensemble,
    gaussian_bump_measure,
    sample_ensemble,
    two_mode_measure,
)
from fracflow.solver import (
    NonlinearitySpec,
    SolverConfig,
    picard_solve,
)
from fracflow.spectral import (
    Grid,
    apply_multiplier_values,
    kernel_values,
    semigroup_multiplier,
)

GRID = Grid(d=1, n=64, len=2.0 * math.pi)


def constant_ensemble(grid, levels):
    values = np.stack([np.full(grid.shape, float(c)) for c in levels])
    return Ensemble(grid, values)


def trajectory(times, values):
    return Ensemble(GRID, values, np.asarray(times, dtype=float))


def linear_run(measure, n_members, seed, s, t_final, nodes, bielecki_k=2.0):
    """Free flow of a sampled ensemble; zero nonlinearity is exact for the
    product-integration propagator, so this is a closed-form reference."""
    ens = sample_ensemble(measure, n_members, seed=seed)
    config = SolverConfig(s=s, z=[1.0] * measure.grid.d,
                          time_grid=np.linspace(0.0, t_final, nodes),
                          bielecki_k=bielecki_k, tol=1e-10, max_iter=8)
    traj, _ = picard_solve(ens, NonlinearitySpec.zero(), config)
    return traj


class TestMomentSeries:
    def test_zero_initial_data(self):
        values = np.zeros((5, 3, GRID.n))
        traj = trajectory(np.linspace(0, 1, 5), values)
        series = moment_series(traj, 2)
        assert np.all(series.values == 0.0)
        assert np.all(series.increase_z == 0.0)

    def test_snapshot_rejected(self):
        with pytest.raises(ConfigurationError, match="trajectory"):
            moment_series(constant_ensemble(GRID, [1.0, 2.0]), 2)
        with pytest.raises(ConfigurationError, match="trajectory"):
            dissipation_residual(constant_ensemble(GRID, [1.0, 2.0]), 0.75)

    def test_constant_fields_exact(self):
        # dyadic constants so the spatial mean introduces no rounding
        traj = trajectory([0.0], constant_ensemble(GRID, [1.5] * 3).values[None])
        series = moment_series(traj, 2)
        assert series.values[0] == 1.5**2 and series.stderr[0] == 0.0
        assert moment_series(traj, 5).values[0] == 1.5**5
        with pytest.raises(ConfigurationError):
            moment_series(traj, 1.5)

    def test_monotone_under_semigroup(self):
        """The flow contracts every L^p norm, pathwise for p = 2."""
        measure = gaussian_bump_measure(GRID, width=3.0, mass=2.0)
        ens = sample_ensemble(measure, 64, seed=7)
        op = semigroup_multiplier(GRID, 0.75, 0.3)
        flowed = apply_multiplier_values(GRID, ens.values, op)
        traj = trajectory([0.0, 0.3], np.stack([ens.values, flowed]))
        m2 = moment_series(traj, 2).values
        assert m2[1] <= m2[0]
        m4 = moment_series(traj, 4).values
        assert m4[1] <= m4[0] * (1.0 + 1e-12)

    def test_linear_flow_matches_spectral_decay_sum(self):
        """E avg u(t)^2 = mean^2 + sum_k w_k e^{-2 t |k|^{2s}} under the
        free flow; Monte Carlo estimate within 3 stderr at every node."""
        s = 0.75
        measure = gaussian_bump_measure(GRID, width=1.2, mass=1.5, mean=0.4)
        traj = linear_run(measure, 400, seed=29, s=s, t_final=0.5, nodes=11)
        series = moment_series(traj, 2)
        for j, t in enumerate(series.times):
            oracle = (measure.mean**2
                      + np.sum(measure.decayed(s, float(t)).weights))
            assert abs(series.values[j] - oracle) <= 3.0 * series.stderr[j]
        # decay means no step should look like a significant increase
        assert series.max_increase_z() < 3.0

    def test_increase_z_flags_growth(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((8, GRID.n))
        values = np.stack([base, 1.1 * base])   # energy rises by 21%
        traj = trajectory([0.0, 0.1], values)
        series = moment_series(traj, 2)
        assert series.increase_z[0] > 3.0

    def test_certain_increase_is_infinite(self):
        """Every member's moment rises by the same amount: the paired
        increment has zero spread, so the rise is certain, z = +inf."""
        series = reduce_moments(np.array([0.0, 1.0]),
                                np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]), 2)
        assert series.increase_z[0] == math.inf
        assert series.max_increase_z() == math.inf

    @pytest.mark.parametrize("p", [1.0, 1.99, math.nan, math.inf])
    def test_order_validation(self, p):
        traj = trajectory([0.0, 1.0], np.ones((2, 2, GRID.n)))
        with pytest.raises(ConfigurationError, match="order"):
            moment_series(traj, p)

    def test_standard_gaussian_second_and_fourth(self):
        # mass-1 field: E u^2 = 1 and E u^4 = 3 (fourth-moment identity)
        measure = gaussian_bump_measure(GRID, width=2.0, mass=1.0)
        ens = sample_ensemble(measure, 600, seed=101)
        traj = trajectory([0.0], ens.values[None])
        m2 = moment_series(traj, 2)
        assert abs(m2.values[0] - 1.0) <= 3.0 * m2.stderr[0]
        m4 = moment_series(traj, 4)
        assert abs(m4.values[0] - 3.0) <= 3.0 * m4.stderr[0]

    def test_lyapunov_ordering(self):
        measure = gaussian_bump_measure(GRID, width=2.5, mass=1.3)
        ens = sample_ensemble(measure, 200, seed=23)
        traj = trajectory([0.0], ens.values[None])
        m2 = moment_series(traj, 2).values[0]
        m4 = moment_series(traj, 4).values[0]
        # Cauchy-Schwarz holds pathwise, so no statistical slack needed
        assert m2**0.5 <= m4**0.25 * (1.0 + 1e-12)
        per2 = member_moments(traj.values, 2)[0]
        per4 = member_moments(traj.values, 4)[0]
        assert np.all(per2 <= np.sqrt(per4) * (1.0 + 1e-12))

    def test_stderr_scales_like_root_n(self):
        measure = gaussian_bump_measure(GRID, width=2.0, mass=1.0)
        se_small, se_big = (
            moment_series(trajectory(
                [0.0], sample_ensemble(measure, n, seed=seed).values[None]), 2).stderr[0]
            for n, seed in ((400, 51), (1600, 52)))
        exponent = math.log(se_small / se_big) / math.log(4.0)
        assert 0.4 <= exponent <= 0.6

    def test_members_reduce_individually(self):
        """The series is the member mean of each member's own series, and
        its stderr is the spread of those over members; a one-member
        trajectory has no stderr, so its series is refused."""
        measure = two_mode_measure(GRID, 3.0, mass=1.0)
        traj = linear_run(measure, 6, seed=3, s=0.75, t_final=0.2, nodes=6)
        batch = moment_series(traj, 2)
        singles = np.stack(
            [member_moments(traj.values[:, i:i + 1], 2)[:, 0]
             for i in range(traj.n_members)], axis=1)
        with pytest.raises(ConfigurationError, match="needs >= 2 members"):
            moment_series(trajectory(traj.times, traj.values[:, :1]), 2)
        assert np.array_equal(batch.values, singles.mean(axis=1))
        assert np.array_equal(batch.stderr,
                              singles.std(axis=1, ddof=1) / math.sqrt(6))

    def test_rows_shape(self):
        values = np.zeros((3, 2, GRID.n))
        traj = trajectory([0.0, 0.5, 1.0], values)
        rows = moment_series(traj, 2).rows()
        assert len(rows) == 3 and len(rows[0]) == 4


def single_mode_trajectory(s, amp, k0, times, n_members=2):
    """Exact free-flow data A e^{-t k0^{2s}} cos(k0 x), duplicated members."""
    x = GRID.axis_points()
    lam = float(k0) ** (2.0 * s)
    snapshots = np.stack([amp * math.exp(-lam * t) * np.cos(k0 * x)
                          for t in times])
    values = np.repeat(snapshots[:, None, :], n_members, axis=1)
    return trajectory(times, values), lam


class TestDissipation:
    def test_single_mode_residual_is_the_stencil_bias(self):
        """With u = A e^{-lam t} cos(k0 x) both sides are closed-form:
        residual(t_j) = (A^2/2) e^{-2 lam t_j} (2 lam - sinh(2 lam h)/h)
        on interior nodes, i.e. pure centered-difference bias."""
        s, amp, k0 = 0.75, 1.3, 1
        h = 2e-3
        times = np.linspace(0.0, 0.04, 21)
        traj, lam = single_mode_trajectory(s, amp, k0, times)
        report = dissipation_residual(traj, s)
        predicted = (amp**2 / 2.0) * np.exp(-2.0 * lam * times) \
            * (2.0 * lam - math.sinh(2.0 * lam * h) / h)
        inner = slice(1, -1)
        # the residual is a cancellation of two O(1) quantities, so the
        # floating-point floor is eps * m2 / (2h) ~ 1e-13, not eps itself
        assert np.allclose(report.residual[inner], predicted[inner],
                           rtol=1e-6, atol=1e-12)
        assert np.all(report.stderr == 0.0)   # identical members
        assert report.low_confidence[0] and report.low_confidence[-1]
        assert not np.any(report.low_confidence[inner])
        assert report.decay_time == pytest.approx(1.0 / (2.0 * lam), rel=1e-12)

    def test_rhs_is_never_positive(self):
        measure = gaussian_bump_measure(GRID, width=2.0, mass=1.0)
        traj = linear_run(measure, 16, seed=11, s=0.6, t_final=4e-3, nodes=5)
        report = dissipation_residual(traj, 0.6)
        assert np.all(report.rhs <= 0.0)

    def test_linear_flow_relative_residual_within_dt_squared(self):
        # single-pair measure keeps the stencil bias below dt^2 in relative
        # terms: (2 lam h)^2 / 6 with lam = 1
        s = 0.75
        h = 2e-3
        measure = two_mode_measure(GRID, 1.0, mass=1.0)
        traj = linear_run(measure, 300, seed=77, s=s, t_final=0.04, nodes=21)
        report = dissipation_residual(traj, s)
        for j in range(1, report.times.size - 1):
            cap = h**2 * abs(report.rhs[j]) + 3.0 * report.stderr[j]
            assert abs(report.residual[j]) <= cap

    def test_too_coarse_grid_raises(self):
        s = 0.75
        times = np.linspace(0.0, 0.5, 6)   # dt = 0.1 >> decay time / 100
        traj, _ = single_mode_trajectory(s, 1.0, 1, times)
        with pytest.raises(ResolutionError):
            dissipation_residual(traj, s)

    def test_constant_fields_give_zero_identity(self):
        values = np.broadcast_to(
            np.array([1.0, 2.0])[None, :, None], (4, 2, GRID.n)).copy()
        traj = trajectory(np.linspace(0, 1, 4), values)
        report = dissipation_residual(traj, 0.8)
        assert np.all(report.lhs == 0.0)
        assert np.all(report.rhs == 0.0)
        assert np.all(report.residual == 0.0)
        assert report.decay_time == math.inf

    def test_needs_two_members(self):
        times = np.linspace(0.0, 0.01, 5)
        traj = trajectory(times, np.zeros((5, 1, GRID.n)))
        with pytest.raises(ConfigurationError):
            dissipation_residual(traj, 0.75)
        # the member count is judged before the resolution
        coarse, _ = single_mode_trajectory(0.75, 1.0, 1, np.linspace(0, 0.5, 6),
                                           n_members=1)
        with pytest.raises(ConfigurationError, match="needs >= 2 members"):
            dissipation_residual(coarse, 0.75)

    def test_series_of_member_blocks_reduce_to_the_whole(self):
        # the per-member stage of blocks (as member chunks return it),
        # joined in member order, reduces bit for bit to the one-call report
        measure = two_mode_measure(GRID, 1.0, mass=1.0)
        traj = linear_run(measure, 300, seed=77, s=0.75, t_final=0.04,
                          nodes=21)
        whole = dissipation_residual(traj, 0.75)
        blocks = [trajectory(traj.times, traj.values[:, lo:hi])
                  for lo, hi in ((0, 256), (256, 300))]
        joined = np.concatenate(
            [dissipation_series(b, 0.75) for b in blocks], axis=1)
        assert joined.shape == (21, 300, 2)
        split = reduce_dissipation(traj.times, joined)
        for name in ("lhs", "rhs", "residual", "stderr", "low_confidence"):
            assert np.array_equal(getattr(split, name), getattr(whole, name))
        assert split.decay_time == whole.decay_time
        assert split.n_members == whole.n_members == 300

    def test_series_peak_memory_is_a_few_node_slices(self):
        # node by node, so no temporary is as large as the trajectory
        grid = Grid(d=1, n=512, len=2.0 * math.pi)
        values = np.random.default_rng(5).standard_normal((21, 64, 512))
        traj = Ensemble(grid, values, np.linspace(0.0, 0.1, 21))
        tracemalloc.start()
        try:
            series = dissipation_series(traj, 0.75)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.shape == (21, 64, 2)
        assert peak < 4 * values[0].nbytes


def brute_force_semigroup(grid, s, h, values):
    """Physical-space circulant kernel sum, independent of the multiplier
    path (convolution theorem is the identity under test)."""
    p = kernel_values(grid, s, h)
    dx = grid.len / grid.n
    idx = (np.arange(grid.n)[:, None] - np.arange(grid.n)[None, :]) % grid.n
    matrix = p[idx] * dx
    return values @ matrix.T


def slack_check(ens, a, b, h, s):
    """stroock-varopoulos's check of ens at (a, b, h, s) and each member's
    slack ab rhs - lhs, from convexity_members under P_h."""
    lhs, rhs = convexity_members(ens, a, b,
                                 semigroup_multiplier(ens.grid, s, h))
    check, row = _slack_check(a, b, h, s, lhs, rhs)
    return check, row, a * b * rhs - lhs


class TestStroockVaropoulos:
    def test_parameter_validation(self):
        ens = constant_ensemble(GRID, [1.0, 2.0])
        op = semigroup_multiplier(GRID, 0.75, 0.1)
        with pytest.raises(ConfigurationError):
            convexity_members(ens, 0.5, 1.0, op)
        with pytest.raises(ConfigurationError):
            convexity_members(ens, -0.5, 2.5, op)

    def test_degenerate_split_on_nonnegative_fields(self):
        # a = b = 1 on w >= 0: both sides are the same expression
        measure = gaussian_bump_measure(GRID, width=2.0, mass=0.5)
        ens = sample_ensemble(measure, 32, seed=13)
        ens = Ensemble(GRID, np.abs(ens.values) + 0.25)
        check, row, members = slack_check(ens, 1.0, 1.0, 0.2, 0.75)
        assert np.all(members == 0.0)
        assert row[4:] == [0.0, 0.0, 0.0]
        assert check.passed

    def test_signed_fields_have_nonnegative_slack(self):
        measure = gaussian_bump_measure(GRID, width=3.0, mass=1.0)
        ens = sample_ensemble(measure, 400, seed=59)
        check, row, members = slack_check(ens, 1.0, 1.0, 0.1, 0.75)
        # |P_h w| <= P_h|w| pointwise makes this pathwise, not just mean
        assert np.all(members > 0.0)
        assert row[6] > 3.0
        assert check.passed

    def test_fractional_powers_on_gaussian_field(self):
        measure = gaussian_bump_measure(GRID, width=3.0, mass=1.0)
        ens = sample_ensemble(measure, 1000, seed=67)
        check, _, members = slack_check(ens, 0.5, 1.5, 0.1, 0.75)
        assert check.passed
        assert members.shape == (1000,)

    def test_nonnegative_fields_fractional_powers(self):
        measure = gaussian_bump_measure(GRID, width=2.0, mass=1.0)
        ens = sample_ensemble(measure, 300, seed=71)
        ens = Ensemble(GRID, np.abs(ens.values) + 0.1)
        check, row, _ = slack_check(ens, 0.5, 1.5, 0.15, 0.8)
        assert row[4] > 0.0
        assert check.passed

    def test_brute_force_kernel_sum_oracle(self):
        """n = 16 circulant-matrix evaluation of both sides reproduces the
        spectral implementation, member by member, to near machine
        precision."""
        grid = Grid(d=1, n=16, len=2.0 * math.pi)
        a, b, h, s = 0.5, 1.5, 0.3, 0.75
        measure = gaussian_bump_measure(grid, width=1.5, mass=1.0)
        ens = sample_ensemble(measure, 6, seed=97)
        lhs, rhs = convexity_members(ens, a, b,
                                     semigroup_multiplier(grid, s, h))
        w = ens.values
        theta = np.sign(w)
        absw = np.abs(w)
        pa, pb = theta * absw**a, theta * absw**b
        np.testing.assert_allclose(
            lhs, np.mean((brute_force_semigroup(grid, s, h, pa) - pa) * pb,
                         axis=1), rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            rhs, np.mean((brute_force_semigroup(grid, s, h, absw) - absw)
                         * absw, axis=1), rtol=0, atol=1e-10)


class TestFormatTable:
    def test_round_trip(self):
        text = format_table(["t", "value"], [[0.0, 1.5], [0.5, -2.25e-8]])
        lines = text.strip().split("\n")
        assert lines[0] == "#t\tvalue"
        cells = [[float(c) for c in line.split("\t")] for line in lines[1:]]
        assert cells == [[0.0, 1.5], [0.5, -2.25e-8]]
