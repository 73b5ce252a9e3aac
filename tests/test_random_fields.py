"""Tests for measure construction, Gaussian sampling, the Ensemble
container and the statistical estimators.  Statistical assertions use fixed
seeds and member-level standard errors; exact identities (Hermitian
symmetry, determinism) are checked at roundoff scale.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracflow.errors import ConfigurationError, NumericError
from fracflow.random_fields import (
    Ensemble,
    SpectralMeasure,
    _member_noise,
    _member_rng,
    directional_orthogonality_stat,
    estimate_spectrum,
    export_ensemble,
    gaussian_bump_measure,
    load_ensemble,
    measure_from_spec,
    member_mean,
    power_law_measure,
    sample_ensemble,
    two_mode_measure,
    z_score,
)
from fracflow.spectral import (
    Grid,
    _reverse_modes,
    apply_multiplier_values,
    semigroup_multiplier,
)


GRID = Grid(d=1, n=256, len=2 * math.pi)


def bump(mass=1.0, mean=0.0, grid=GRID):
    return gaussian_bump_measure(grid, width=2.0, mass=mass, mean=mean)


def total_mass(measure) -> float:
    """sigma(X): the variance of a field sampled from the measure."""
    return float(np.sum(measure.weights))


# ------------------------------------------------------------------ measures

class TestMeasureValidation:
    def test_asymmetric_weights_rejected(self):
        w = np.zeros(GRID.shape)
        w[3] = 1.0  # no matching weight at -3
        with pytest.raises(ConfigurationError):
            SpectralMeasure(GRID, w)

    def test_negative_weights_rejected(self):
        w = np.full(GRID.shape, -0.1)
        with pytest.raises(ConfigurationError):
            SpectralMeasure(GRID, w)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            SpectralMeasure(GRID, np.ones(GRID.n + 2))

    def test_nonfinite_weights_rejected(self):
        w = np.ones(GRID.shape)
        w[5] = np.nan
        with pytest.raises(NumericError):
            SpectralMeasure(GRID, w)

    def test_small_asymmetry_is_symmetrized_exactly(self):
        rng = np.random.default_rng(0)
        w = rng.random(GRID.shape)
        w = w + _reverse_modes(w, 1)
        w[3] *= 1.0 + 1e-13  # within tolerance
        m = SpectralMeasure(GRID, w)
        assert np.array_equal(m.weights, _reverse_modes(m.weights, 1))

    def test_total_mass(self):
        m = bump(mass=2.5)
        assert math.isclose(total_mass(m), 2.5, rel_tol=1e-12)

    def test_nonfinite_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            SpectralMeasure(GRID, np.zeros(GRID.shape), mean=math.inf)


class TestMeasureFamilies:
    def test_two_mode_snaps_to_nearest_node(self):
        # len = 2 pi so node spacing is 1; kappa = 3.2 snaps to index 3
        m = two_mode_measure(GRID, 3.2, mass=2.0)
        assert m.weights[3] == 1.0
        assert m.weights[-3 % GRID.n] == 1.0
        assert np.count_nonzero(m.weights) == 2

    def test_two_mode_rejects_zero_snap(self):
        with pytest.raises(ConfigurationError):
            two_mode_measure(GRID, 0.3, mass=1.0)

    def test_two_mode_rejects_nyquist(self):
        with pytest.raises(ConfigurationError):
            two_mode_measure(GRID, float(GRID.n // 2), mass=1.0)

    def test_two_mode_dimension_check(self):
        g2 = Grid(d=2, n=16, len=2 * math.pi)
        with pytest.raises(ConfigurationError):
            two_mode_measure(g2, 3.0, mass=1.0)

    def test_bump_mass_and_dc(self):
        m = bump(mass=3.0)
        assert m.weights[0] == 0.0
        assert math.isclose(total_mass(m), 3.0, rel_tol=1e-12)

    def test_power_law_mass_and_dc(self):
        m = power_law_measure(GRID, nu=1.5, mass=1.0)
        assert m.weights[0] == 0.0
        assert math.isclose(total_mass(m), 1.0, rel_tol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            gaussian_bump_measure(GRID, width=-1.0, mass=1.0)
        with pytest.raises(ConfigurationError):
            power_law_measure(GRID, nu=0.0, mass=1.0)
        with pytest.raises(ConfigurationError):
            gaussian_bump_measure(GRID, width=1.0, mass=-2.0)

    def test_decayed_matches_literal_multiplier(self):
        m = bump()
        s, t = 0.75, 0.3
        got = m.decayed(s, t).weights
        want = m.weights * np.exp(-2.0 * t * GRID.k_abs ** (2.0 * s))
        assert np.max(np.abs(got - want)) <= 1e-15
        assert total_mass(m.decayed(s, t)) < total_mass(m)

    def test_decayed_zero_time_is_identity(self):
        m = bump()
        assert np.array_equal(m.decayed(0.8, 0.0).weights, m.weights)


class TestMeasureSpecRecords:
    @pytest.mark.parametrize("record, build", [
        ({"family": "gaussian_bump", "mass": 1.5, "mean": 0.25,
          "params": {"width": 2.0}},
         lambda: gaussian_bump_measure(GRID, width=2.0, mass=1.5, mean=0.25)),
        ({"family": "power_law", "mass": 1.0, "params": {"nu": 2.0}},
         lambda: power_law_measure(GRID, 2.0, 1.0)),
    ], ids=["gaussian_bump", "power_law"])
    def test_record_builds_the_family(self, record, build):
        m = measure_from_spec(GRID, record)
        direct = build()
        assert np.array_equal(m.weights, direct.weights)
        assert m.mean == direct.mean == record.get("mean", 0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown measure keys"):
            measure_from_spec(GRID, {"family": "gaussian_bump", "mass": 1.0,
                                     "params": {"width": 2.0}, "seed": 3})

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown measure family"):
            measure_from_spec(GRID, {"family": "white", "mass": 1.0})

    def test_missing_mass_rejected(self):
        with pytest.raises(ConfigurationError, match="mass"):
            measure_from_spec(GRID, {"family": "power_law",
                                     "params": {"nu": 1.0}})

    def test_missing_family_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="missing parameter"):
            measure_from_spec(GRID, {"family": "power_law", "mass": 1.0,
                                     "params": {}})

    @pytest.mark.parametrize("record", [
        {"family": "gaussian_bump", "mass": 1.0, "params": {"width": "wide"}},
        {"family": "gaussian_bump", "mass": 1.0, "params": {"width": [1, 2]}},
        {"family": "power_law", "mass": "1", "params": {"nu": 1.0}},
        {"family": "power_law", "mass": 1.0, "mean": None, "params": {"nu": 1.0}},
        {"family": "two_mode", "mass": 1.0, "params": {"wavenumber": ["3"]}},
        {"family": "two_mode", "mass": True, "params": {"wavenumber": 3}},
        {"family": "two_mode", "mass": 1.0, "params": [3.0]},
    ])
    def test_non_numeric_entries_rejected(self, record):
        with pytest.raises(ConfigurationError):
            measure_from_spec(GRID, record)


# ------------------------------------------------------------------ sampling

class TestNoise:
    def test_coefficients_exactly_hermitian(self):
        noise = _member_noise(GRID, seed=11)
        assert np.array_equal(noise, np.conj(_reverse_modes(noise, 1)))

    def test_self_paired_modes_are_real(self):
        noise = _member_noise(GRID, seed=11)
        assert noise[0].imag == 0.0
        assert noise[GRID.n // 2].imag == 0.0

    def test_unit_variance_per_mode(self):
        """Pooled |W_k|^2 over draws and modes concentrates at 1."""
        draws = np.stack([_member_noise(GRID, 5, c) for c in range(200)])
        power = np.abs(draws) ** 2
        pooled = float(power.mean())
        se = float(power.mean(axis=1).std(ddof=1)) / math.sqrt(200)
        assert abs(pooled - 1.0) <= 4 * se

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            _member_noise(GRID, seed=-1)

    @pytest.mark.parametrize("seed", [0, 72, 2**40 + 3])
    @pytest.mark.parametrize("counter", [0, 1, 257, 2**31, 2**63, 2**64 - 1,
                                         2**64 + 5, 3 * 2**64 + 7, 2**128 + 3])
    def test_member_stream_is_the_jumped_substream(self, seed, counter):
        """The counter set directly gives Philox(key=seed).jumped(counter):
        the same bit generator state and the same draws."""
        jumped = np.random.Philox(key=seed).jumped(counter)
        rng = _member_rng(seed, counter)
        got, want = rng.bit_generator.state, jumped.state
        for word in ("counter", "key"):
            assert np.array_equal(got["state"][word], want["state"][word])
        assert np.array_equal(got["buffer"], want["buffer"])
        assert got["buffer_pos"] == want["buffer_pos"]
        assert np.array_equal(rng.standard_normal(1024),
                              np.random.Generator(jumped).standard_normal(1024))


class TestSamplingDeterminism:
    def test_bitwise_reproducible(self):
        a = sample_ensemble(bump(), 6, seed=42)
        b = sample_ensemble(bump(), 6, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = sample_ensemble(bump(), 4, seed=1)
        b = sample_ensemble(bump(), 4, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_counter_offset_slices_the_stream(self):
        """Members depend only on (seed, counter), not on batch layout."""
        full = sample_ensemble(bump(), 8, seed=9)
        tail = sample_ensemble(bump(), 5, seed=9, counter_offset=3)
        assert np.array_equal(full.values[3:], tail.values)
        assert full.seeds[3:] == tail.seeds

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
    def test_real_synthesis_matches_complex_synthesis(self, d, n):
        """The half-spectrum synthesis equals the full complex one at
        roundoff, and its imaginary residue would be roundoff too."""
        g = Grid(d=d, n=n, len=2 * math.pi)
        m = gaussian_bump_measure(g, width=2.0, mass=1.0, mean=0.5)
        ens = sample_ensemble(m, 3, seed=8)
        for i in range(3):
            coeffs = np.sqrt(m.weights) * _member_noise(g, 8, i) * g.len**d
            full = np.fft.ifftn(coeffs, axes=tuple(range(-d, 0))) \
                / g.cell_volume
            assert np.max(np.abs(full.imag)) <= 1e-13
            assert np.max(np.abs(ens.values[i] - full.real - 0.5)) <= 1e-13

    @given(seed=st.integers(min_value=0, max_value=2**32),
           offset=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_offset_slicing_property(self, seed, offset):
        m = two_mode_measure(GRID, 5.0, mass=1.0)
        whole = sample_ensemble(m, offset + 2, seed=seed)
        part = sample_ensemble(m, 2, seed=seed, counter_offset=offset)
        assert np.array_equal(whole.values[offset:], part.values)


class TestSampleStatistics:
    def test_spatial_mean_is_deterministic(self):
        # DC weight is zero, so every member integrates to the mean exactly
        ens = sample_ensemble(bump(mean=0.75), 50, seed=3)
        means = ens.values.mean(axis=1)
        assert np.max(np.abs(means - 0.75)) <= 1e-13

    def test_variance_matches_mass(self):
        mass = 1.8
        ens = sample_ensemble(bump(mass=mass), 600, seed=12)
        per_member = (ens.values**2).mean(axis=1)
        se = per_member.std(ddof=1) / math.sqrt(ens.n_members)
        assert abs(per_member.mean() - mass) <= 3 * se

    def test_fourth_moment_is_gaussian(self):
        """E avg_x u^4 = 3 sigma(X)^2 for a homogeneous Gaussian field."""
        mass = 1.0
        ens = sample_ensemble(bump(mass=mass), 600, seed=21)
        m4 = (ens.values**4).mean(axis=1)
        se = m4.std(ddof=1) / math.sqrt(ens.n_members)
        assert abs(m4.mean() - 3.0 * mass**2) <= 3.5 * se

    def test_stderr_scales_like_inverse_sqrt_n(self):
        m = bump()
        small = sample_ensemble(m, 400, seed=8)
        large = sample_ensemble(m, 1600, seed=8, counter_offset=400)
        se_small = (small.values**2).mean(axis=1).std(ddof=1) / math.sqrt(400)
        se_large = (large.values**2).mean(axis=1).std(ddof=1) / math.sqrt(1600)
        exponent = math.log(se_small / se_large) / math.log(4.0)
        assert 0.4 <= exponent <= 0.6


class TestEnsembleContainer:
    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, np.zeros((3, GRID.n + 1)))
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, np.empty((0, GRID.n)))       # no members

    def test_nonfinite_member_reported(self):
        vals = np.zeros((4, GRID.n))
        vals[2, 7] = np.inf
        with pytest.raises(NumericError, match="2"):
            Ensemble(GRID, vals)

    def test_seed_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, np.zeros((3, GRID.n)), seeds=[(0, 0)])

    def test_trajectory_layout_and_snapshot_view(self):
        times = np.linspace(0, 1, 4)
        vals = np.random.default_rng(0).standard_normal((4, 2) + GRID.shape)
        traj = Ensemble(GRID, vals, times, seeds=[(1, 0), (1, 1)])
        assert traj.is_trajectory and traj.n_members == 2
        snap = traj.at(2)
        assert not snap.is_trajectory and snap.n_members == 2
        assert snap.time == times[2]
        assert np.array_equal(snap.values, vals[2])
        assert snap.seeds == traj.seeds
        assert Ensemble(GRID, vals[0]).time == 0.0

    def test_times_validation(self):
        vals = np.zeros((3, 2) + GRID.shape)
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, vals)                       # trajectory needs times
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, vals, np.linspace(0, 1, 4))  # one time per node
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, vals[0], np.linspace(0, 1, 2))
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, np.zeros(GRID.shape))        # no member axis

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ConfigurationError):
            Ensemble(GRID, np.empty((3, 0, GRID.n)), np.linspace(0, 1, 3))

    @pytest.mark.parametrize("d", [1, 2])
    def test_single_field_validation(self, d):
        """A single field travels as a one-member batch: its grid shape and
        finiteness are checked on d = 1 and 2."""
        g = Grid(d, 16, 1.0)
        with pytest.raises(ConfigurationError):
            Ensemble(g, np.zeros((1,) + (8,) * d))
        with pytest.raises(ConfigurationError):
            Ensemble(g, np.zeros(g.shape))                 # no member axis
        bad = np.zeros((1,) + g.shape)
        bad[(0,) + (3,) * d] = np.nan
        with pytest.raises(NumericError, match=r"\[0\]"):
            Ensemble(g, bad)
        assert Ensemble(g, np.zeros((1,) + g.shape)).n_members == 1

    def test_nonfinite_trajectory_member_reported(self):
        vals = np.zeros((3, 4) + GRID.shape)
        vals[1, 3, 7] = np.nan
        with pytest.raises(NumericError, match=r"\[3\]"):
            Ensemble(GRID, vals, np.linspace(0, 1, 3))

    def test_export_load_round_trip(self, tmp_path):
        ens = sample_ensemble(bump(), 5, seed=77)
        export_ensemble(ens, tmp_path / "ens")
        back = load_ensemble(tmp_path / "ens")
        assert np.array_equal(back.values, ens.values)
        assert back.seeds == ens.seeds
        assert back.time == ens.time
        assert back.grid == ens.grid

    def test_load_rejects_wrong_kind(self, tmp_path):
        ens = sample_ensemble(bump(), 2, seed=1)
        _, json_path = export_ensemble(ens, tmp_path / "ens")
        meta = json.loads(Path(json_path).read_text())
        meta["kind"] = "something-else"
        Path(json_path).write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError):
            load_ensemble(tmp_path / "ens")

    def test_load_rejects_wrong_magic(self, tmp_path):
        ens = sample_ensemble(bump(), 2, seed=1)
        _, json_path = export_ensemble(ens, tmp_path / "ens")
        meta = json.loads(Path(json_path).read_text())
        meta["format"] = "fracflow-binary-v0"
        Path(json_path).write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="not a fracflow-binary"):
            load_ensemble(tmp_path / "ens")

    def test_load_rejects_truncated_bin(self, tmp_path):
        ens = sample_ensemble(bump(), 2, seed=1)
        bin_path, _ = export_ensemble(ens, tmp_path / "ens")
        data = Path(bin_path).read_bytes()
        Path(bin_path).write_bytes(data[:-8])
        with pytest.raises(ConfigurationError,
                           match=rf"has {len(data) - 8} bytes, metadata "
                                 rf"implies {len(data)}"):
            load_ensemble(tmp_path / "ens")

    @pytest.mark.parametrize("edit", [lambda g: g.update(d=1.9),
                                      lambda g: g.pop("len")],
                             ids=["fractional-d", "no-len"])
    def test_load_rejects_bad_grid(self, tmp_path, edit):
        """The sidecar grid goes through the grid record check: a bad
        entry raises ConfigurationError instead of being truncated, and a
        missing one instead of KeyError."""
        ens = sample_ensemble(bump(), 2, seed=1)
        _, json_path = export_ensemble(ens, tmp_path / "ens")
        meta = json.loads(Path(json_path).read_text())
        edit(meta["grid"])
        Path(json_path).write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="grid"):
            load_ensemble(tmp_path / "ens")


# ------------------------------------------------------------------ estimator

class TestMemberEstimator:
    def test_mean_and_stderr_along_the_member_axis(self):
        per_member = np.array([[1.0, 2.0, 4.0], [3.0, 3.0, 3.0]])
        mean, stderr = member_mean(per_member, axis=1)
        assert np.array_equal(mean, per_member.mean(axis=1))
        assert np.array_equal(
            stderr, per_member.std(axis=1, ddof=1) / math.sqrt(3))
        mean, stderr = member_mean(per_member[0])
        assert mean == 7.0 / 3.0
        assert stderr == per_member[0].std(ddof=1) / math.sqrt(3)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_members_refused(self, n):
        with pytest.raises(ConfigurationError, match="needs >= 2 members"):
            member_mean(np.ones((4, n)), axis=1)

    def test_z_score_rules(self):
        z = z_score(np.array([2.0, 0.0, 3.0, -3.0]),
                    np.array([0.5, 0.0, 0.0, 0.0]))
        assert z.tolist() == [4.0, 0.0, math.inf, -math.inf]
        assert z_score(-1.0, 0.0) == -math.inf
        assert isinstance(z_score(1.0, 2.0), float)

    def test_one_member_statistics_refused(self):
        ens = sample_ensemble(bump(), 1, seed=4)
        with pytest.raises(ConfigurationError, match="needs >= 2 members"):
            estimate_spectrum(ens)
        with pytest.raises(ConfigurationError, match="needs >= 2 members"):
            directional_orthogonality_stat(ens, g=np.tanh, z=1.0)


# ------------------------------------------------------------------ spectrum

class TestSpectrum:
    def test_two_mode_recovery(self):
        """Support weights recovered within stderr; off-support stays at the
        roundoff floor because each member has exactly two excited modes."""
        m = two_mode_measure(GRID, 7.0, mass=2.0)
        ens = sample_ensemble(m, 500, seed=30)
        est = estimate_spectrum(ens)
        support = m.weights > 0
        z = (est.measure.weights[support] - m.weights[support]) / est.stderr[support]
        assert np.max(np.abs(z)) <= 4.0
        assert np.max(est.measure.weights[~support]) <= 1e-20 * total_mass(m)

    def test_total_mass_equals_empirical_variance(self):
        ens = sample_ensemble(bump(), 60, seed=6)
        est = estimate_spectrum(ens)
        var = float(np.mean((ens.values - np.mean(ens.values)) ** 2))
        assert math.isclose(total_mass(est.measure), var, rel_tol=1e-10)

    def test_significant_modes_within_stderr(self):
        m = bump()
        ens = sample_ensemble(m, 1500, seed=44)
        est = estimate_spectrum(ens)
        sig = m.weights > 1e-10 * np.max(m.weights)
        z = (est.measure.weights[sig] - m.weights[sig]) / est.stderr[sig]
        assert np.max(np.abs(z)) <= 4.0

    def test_decayed_spectrum_after_linear_flow(self):
        """Applying e^{-t(-lap)^s} member-wise turns the spectrum into the
        decayed measure."""
        m, s, t = bump(), 0.75, 0.4
        ens = sample_ensemble(m, 800, seed=52)
        op = semigroup_multiplier(GRID, s, t)
        flowed = Ensemble(GRID, apply_multiplier_values(GRID, ens.values, op), t)
        est = estimate_spectrum(flowed)
        want = m.decayed(s, t)
        sig = want.weights > 1e-10 * np.max(want.weights)
        z = (est.measure.weights[sig] - want.weights[sig]) / est.stderr[sig]
        assert np.max(np.abs(z)) <= 4.0

    def test_dc_bin_goes_to_mean(self):
        ens = sample_ensemble(bump(mean=1.5), 40, seed=3)
        est = estimate_spectrum(ens)
        assert est.measure.weights[0] == 0.0
        assert abs(est.measure.mean - 1.5) <= 1e-12


# ------------------------------------------------------------------ moments

class TestSpectralMoments:
    @given(alpha=st.floats(min_value=0.2, max_value=2.0),
           ratio=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_moment_interpolation_property(self, alpha, ratio, seed):
        """sum |k|^{2b} w <= (sum |k|^{2a} w)^{b/a} (sum w)^{1-b/a} for
        0 < b < a (Hoelder on the spectral measure)."""
        beta = ratio * alpha
        g = Grid(d=1, n=32, len=2 * math.pi)
        rng = np.random.default_rng(seed)
        w = rng.random(g.shape)
        w = 0.5 * (w + _reverse_modes(w, 1))
        w[0] = 0.0
        m = SpectralMeasure(g, w)
        i_alpha = float(np.sum(g.k_abs ** (2 * alpha) * m.weights))
        i_beta = float(np.sum(g.k_abs ** (2 * beta) * m.weights))
        bound = i_alpha ** (beta / alpha) * total_mass(m) ** (1 - beta / alpha)
        assert i_beta <= bound * (1.0 + 1e-10)


# ------------------------------------------------------------------ orthogonality

class TestOrthogonality:
    def test_constant_g_vanishes_identically(self):
        ens = sample_ensemble(bump(), 30, seed=1)
        st_ = directional_orthogonality_stat(ens, g=lambda u: np.ones_like(u),
                                             z=1.0)
        assert st_.z_score == 0.0
        assert abs(st_.value) <= 1e-14

    def test_identity_pair_hits_the_roundoff_floor(self):
        # sum_k ik |u_hat|^2 is antisymmetric in k, so the statistic is
        # pathwise zero and the floor reports z = 0 rather than value/roundoff
        ens = sample_ensemble(bump(), 200, seed=2)
        st_ = directional_orthogonality_stat(ens, g=lambda u: u, z=1.0)
        assert st_.z_score == 0.0
        assert abs(st_.value) <= 1e-14

    def test_nonlinear_pairs_within_stderr(self):
        ens = sample_ensemble(bump(), 400, seed=19)
        quad = directional_orthogonality_stat(
            ens, g=lambda u: u, z=1.0, f=lambda u: 0.5 * u * u)
        cubic = directional_orthogonality_stat(
            ens, g=lambda u: u**3, z=1.0, f=np.tanh)
        assert abs(quad.z_score) <= 3.0
        assert abs(cubic.z_score) <= 3.0

    def test_direction_scale_invariance(self):
        # the direction is normalized, so z and 3z give identical statistics
        ens = sample_ensemble(bump(), 20, seed=7)
        a = directional_orthogonality_stat(ens, g=np.tanh, z=1.0)
        b = directional_orthogonality_stat(ens, g=np.tanh, z=3.0)
        assert a.value == b.value

    def test_pointwise_function_shape_guard(self):
        ens = sample_ensemble(bump(), 4, seed=1)
        with pytest.raises(ConfigurationError):
            directional_orthogonality_stat(ens, g=lambda u: u[..., :4], z=1.0)
