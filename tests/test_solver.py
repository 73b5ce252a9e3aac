"""Solver tests: nonlinearity algebra, the product-integration weights
against quadrature, the Duhamel map against closed forms, Picard and
marching solvers against each other, contraction constants, and the
cut-off ladder."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracflow.ensemble_stats import ladder_moments, ladder_sup_distances
from fracflow.errors import (
    ConfigurationError,
    NonContractionError,
    NumericError,
    StepSizeError,
)
from fracflow.experiments import _cauchy_check, _moment_guard, parallel_ladder
from fracflow.random_fields import (
    Ensemble,
    export_ensemble,
    gaussian_bump_measure,
    load_ensemble,
    sample_ensemble,
)
from fracflow.solver import (
    _DuhamelPlan,
    NonlinearitySpec,
    SolverConfig,
    _phi1,
    _phi2,
    contraction_bound,
    cutoff_map,
    dealias_mask,
    minimal_K,
    picard_solve,
    step_solve,
)
from fracflow.spectral import (
    Grid,
    apply_multiplier_values,
    directional_derivative_multiplier,
    gradient_constant,
    half_spectrum,
    l2_norm,
    real_idft,
    semigroup_multiplier,
    spatial_rms,
)

GRID = Grid(d=1, n=256, len=2 * math.pi)


def bump_field(seed=5, mass=1.0, grid=GRID):
    """A single field, as the one-member ensemble the solvers take."""
    m = gaussian_bump_measure(grid, width=2.0, mass=mass)
    return sample_ensemble(m, 1, seed=seed)


def two_members(mass=1.0):
    """The smallest sample a ladder reduces: two members."""
    m = gaussian_bump_measure(GRID, width=2.0, mass=mass)
    return sample_ensemble(m, 2, seed=5)


def burgers_ladder(cfg, levels, mass=1.0, n_members=2, seed=5):
    """(series, diagnostics) of the cut-off Burgers ladder on n_members
    draws of the bump measure, in one process; the defaults draw
    two_members()."""
    m = gaussian_bump_measure(GRID, width=2.0, mass=mass)
    return parallel_ladder(GRID, m, NonlinearitySpec.burgers(), cfg,
                           n_members, seed, levels)[1:3]


def ladder_rung(initial, spec, level):
    """Initial data h_n(u0) and flux f(h_n(.)) of ladder level n: the
    whole-batch solve each ladder level must equal."""
    return (replace(initial, values=cutoff_map(initial.values, level)),
            replace(spec, cutoff_level=level))


def member(ens, i):
    """Member i of a snapshot as a one-member ensemble."""
    return Ensemble(ens.grid, ens.values[i:i + 1], seeds=ens.seeds[i:i + 1])


def duhamel(spec, cfg, values, grid=GRID):
    """The mild-solution map F on trajectory values (node, member, grid),
    through the solver's plan, on a copy of the values."""
    plan = _DuhamelPlan(grid, spec, cfg)
    out = values.copy()
    plan.apply(plan.first_iterate(out[0])[1], out)
    return out


def _bielecki_distance(grid, config, a, b):
    """max over realizations of sup_j e^{-K t_j} rms_x difference: the
    oracle of the residual the sweep fuses into its node loop."""
    weights = np.exp(-config.bielecki_k * config.time_grid)
    rms = spatial_rms(grid, a - b)           # (n_nodes,) + batch
    rms = np.asarray(rms).reshape(weights.size, -1)
    return float(np.max(weights[:, None] * rms))


def make_config(s=0.75, T=0.5, nodes=26, K=3.0, **kw):
    return SolverConfig(s=s, z=1.0, time_grid=np.linspace(0.0, T, nodes),
                        bielecki_k=K, **kw)


# ------------------------------------------------------------------ nonlinearity

class TestCutoffMap:
    def test_frozen_values(self):
        assert cutoff_map(3.0, 1.0) == 1.0
        assert cutoff_map(-5.0, 2.0) == -2.0
        assert cutoff_map(0.4, 1.0) == 0.4

    @given(x=st.floats(-100, 100), n=st.floats(0.1, 50))
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_odd(self, x, n):
        assert abs(cutoff_map(x, n)) <= n
        assert cutoff_map(-x, n) == -cutoff_map(x, n)

    def test_invalid_level(self):
        with pytest.raises(ConfigurationError):
            cutoff_map(1.0, 0.0)


class TestNonlinearitySpec:
    @pytest.mark.parametrize("spec", [
        NonlinearitySpec.zero(),
        NonlinearitySpec.tanh(0.7),
        NonlinearitySpec.burgers(),
        NonlinearitySpec.power(2.0, 1.5),
        NonlinearitySpec.burgers(cutoff_level=1.0),
    ])
    def test_vanishes_at_zero(self, spec):
        assert spec.evaluate(0.0) == 0.0

    def test_frozen_evaluations(self):
        assert NonlinearitySpec.burgers().evaluate(2.0) == 2.0   # 2^2/2
        # cutoff 1 first: h_1(3) = 1, then 1^2/2
        assert NonlinearitySpec.burgers(cutoff_level=1.0).evaluate(3.0) == 0.5
        assert NonlinearitySpec.tanh(2.0).evaluate(100.0) == pytest.approx(2.0)
        # q = 0 degenerates to the linear flux C x
        assert NonlinearitySpec.power(0.3, 0.0).evaluate(2.0) == pytest.approx(0.6)

    @given(x=st.floats(-20, 20), y=st.floats(-20, 20),
           c=st.floats(0.1, 5), q=st.floats(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_two_point_growth_bound(self, x, y, c, q):
        """|f(x)-f(y)| <= C |x-y| (|x|^q + |y|^q) for the polynomial kind."""
        f = NonlinearitySpec.power(c, q)
        lhs = abs(float(f.evaluate(x)) - float(f.evaluate(y)))
        rhs = c * abs(x - y) * (abs(x) ** q + abs(y) ** q)
        assert lhs <= rhs * (1 + 1e-10) + 1e-12

    def test_effective_lipschitz(self):
        assert NonlinearitySpec.zero().effective_lipschitz() == 0.0
        assert NonlinearitySpec.tanh(0.4).effective_lipschitz() == 0.4
        assert NonlinearitySpec.burgers().effective_lipschitz() == math.inf
        assert NonlinearitySpec.burgers(cutoff_level=3.0).effective_lipschitz() == 3.0
        spec = NonlinearitySpec.power(2.0, 2.0, cutoff_level=2.0)
        assert spec.effective_lipschitz() == pytest.approx(8.0)  # C n^q
        assert NonlinearitySpec.power(0.5, 0.0).effective_lipschitz() == 0.5

    def test_degree_and_dealias_defaults(self):
        assert NonlinearitySpec.burgers().polynomial_degree == 2
        assert NonlinearitySpec.burgers().dealias_default
        assert NonlinearitySpec.tanh(1.0).polynomial_degree is None
        assert not NonlinearitySpec.tanh(1.0).dealias_default
        assert NonlinearitySpec.power(1.0, 1.5).polynomial_degree is None
        assert NonlinearitySpec.zero().polynomial_degree == 0
        assert not NonlinearitySpec.zero().dealias_default

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NonlinearitySpec("cubic")
        with pytest.raises(ConfigurationError):
            NonlinearitySpec.tanh(-1.0)
        with pytest.raises(ConfigurationError):
            NonlinearitySpec.burgers(cutoff_level=-2.0)

    def test_record_round_trip(self):
        record = {"kind": "polynomial", "scale": 1.5, "exponent": 2.0,
                  "cutoff_level": 4.0}
        assert NonlinearitySpec.from_record(record) == \
            NonlinearitySpec.power(1.5, 2.0, cutoff_level=4.0)
        assert NonlinearitySpec.from_record({"kind": "burgers_quadratic"}) \
            == NonlinearitySpec.burgers()

    def test_record_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            NonlinearitySpec.from_record({"kind": "zero", "limit": 3})
        with pytest.raises(ConfigurationError):
            NonlinearitySpec.from_record({"scale": 1.0})


class TestDealiasing:
    """The dealiasing mask acts in the solver's step weights: step_a and
    step_b are the interpolation weights times the derivative symbol,
    masked for the kinds whose dealias_default is set, and they act on the
    unscaled coefficients of f(u) that _DuhamelPlan.flux_hat returns."""

    G32 = Grid(d=1, n=32, len=2 * math.pi)

    def plan(self, grid, spec):
        cfg = SolverConfig(s=0.75, z=1.0, time_grid=np.linspace(0, 1, 3))
        return _DuhamelPlan(grid, spec, cfg)

    def unmasked(self, plan):
        """The plan's (step_a, step_b) built here without any mask: the
        interpolation weights times the half-spectrum derivative symbol."""
        grid, cfg = plan.grid, plan.config
        lam = half_spectrum(grid, grid.k_abs ** (2.0 * cfg.s)).reshape(-1)
        steps = np.diff(cfg.time_grid)
        alpha = steps[:, None] * lam[None, :]
        shape = (steps.size,) + plan.decay.shape[1:]
        deriv = half_spectrum(grid, directional_derivative_multiplier(
            grid, cfg.z).values)
        return ((steps[:, None] * (_phi1(alpha) - _phi2(alpha))).reshape(shape)
                * deriv, (steps[:, None] * _phi2(alpha)).reshape(shape) * deriv)

    def weighted_flux(self, plan, values):
        """The first step's w_b-weighted grad_z f(u), as a field."""
        return real_idft(plan.grid, plan.step_b[0] * plan.flux_hat(values))

    @pytest.mark.parametrize("d, length", [(1, 2 * math.pi), (2, 3.0)],
                             ids=["d1", "d2"])
    def test_mask_keeps_low_third(self, d, length):
        """A mode is kept iff every axis index is <= n/3: in 2-D the
        largest |index| over the axes decides."""
        low = np.abs(np.fft.fftfreq(12, 1.0 / 12)) <= 4
        keep = low if d == 1 else low[:, None] & low[None, :]
        assert np.array_equal(dealias_mask(Grid(d=d, n=12, len=length)), keep)

    def test_mask_sits_in_both_step_weights(self):
        on = self.plan(self.G32, NonlinearitySpec.burgers(cutoff_level=2.0))
        keep = half_spectrum(self.G32, dealias_mask(self.G32))
        keep[0] = False                       # grad_z vanishes at k = 0
        for name, w_off in zip(("step_a", "step_b"), self.unmasked(on)):
            w_on = getattr(on, name)
            assert np.array_equal(w_on[:, keep], w_off[:, keep])
            assert np.all(w_off[:, keep] != 0)
            assert np.all(w_on[:, ~keep] == 0)
            assert np.all(w_off[:, ~keep][:, 1:-1] != 0)

    def test_quadratic_aliasing_removed(self):
        """cos(10x)^2/2 on n = 32: mode 20 would alias onto -12; the 2/3
        mask keeps |j| <= 10, so the flux is the pure projection 1/4, whose
        gradient vanishes."""
        x = self.G32.coordinates()[0]
        plan = self.plan(self.G32, NonlinearitySpec.burgers(cutoff_level=2.0))
        assert np.max(np.abs(self.weighted_flux(plan, np.cos(10 * x)))) <= 1e-13

    def test_tanh_never_masked(self):
        on = self.plan(GRID, NonlinearitySpec.tanh(1.0))
        off_a, off_b = self.unmasked(on)
        assert np.array_equal(on.step_a, off_a)
        assert np.array_equal(on.step_b, off_b)
        assert np.all(on.step_b[:, 1:-1] != 0)      # every mode but 0, n/2
        u = bump_field().values
        assert np.array_equal(on.flux_hat(u), np.fft.rfft(np.tanh(u)))


# ------------------------------------------------------------------ config, types

class TestSolverConfig:
    def test_validation(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ConfigurationError):
            SolverConfig(s=0.5, z=1.0, time_grid=t)         # s must exceed 1/2
        with pytest.raises(ConfigurationError):
            SolverConfig(s=0.75, z=1.0, time_grid=t + 0.1)  # must start at 0
        with pytest.raises(ConfigurationError):
            SolverConfig(s=0.75, z=1.0, time_grid=np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            SolverConfig(s=0.75, z=1.0, time_grid=t, tol=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(s=0.75, z=1.0, time_grid=t, bielecki_k=-1.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(s=0.75, z=1.0, time_grid=t, max_iter=0)

    def test_record_round_trip(self):
        record = {"s": 0.75, "z": [1.0], "time_grid": [0.0, 0.25, 0.5],
                  "bielecki_k": 3.0, "tol": 1e-9, "max_iter": 17}
        built = SolverConfig.from_record(record)
        direct = SolverConfig(0.75, [1.0], np.array([0.0, 0.25, 0.5]),
                              bielecki_k=3.0, tol=1e-9, max_iter=17)
        for name in ("s", "z", "bielecki_k", "tol", "max_iter"):
            assert getattr(built, name) == getattr(direct, name), name
        assert np.array_equal(built.time_grid, direct.time_grid)
        defaults = SolverConfig.from_record({"s": 0.75, "z": [1.0],
                                             "time_grid": [0.0, 0.5]})
        assert (defaults.bielecki_k, defaults.tol,
                defaults.max_iter) == (1.0, 1e-8, 40)

    def test_record_rejects_unknown_and_missing(self):
        with pytest.raises(ConfigurationError, match="unknown solver keys"):
            SolverConfig.from_record({"s": 0.75, "z": [1.0],
                                      "time_grid": [0, 1], "theta": 2})
        # the mask follows the flux kind; there is no solver key for it
        with pytest.raises(ConfigurationError, match="unknown solver keys"):
            SolverConfig.from_record({"s": 0.75, "z": [1.0],
                                      "time_grid": [0, 1], "dealias": True})
        with pytest.raises(ConfigurationError, match="missing"):
            SolverConfig.from_record({"s": 0.75})


# ------------------------------------------------------------------ phi weights

class TestProductIntegrationWeights:
    def test_against_quadrature(self):
        """phi1(a) = int_0^1 e^{-a r} dr and phi2(a) = int_0^1 (1-r) e^{-a r} dr
        checked against adaptive quadrature over 8 decades."""
        for a in [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]:
            arr = np.array([a])
            want1 = quad(lambda r: math.exp(-a * r), 0, 1, epsabs=1e-14)[0]
            want2 = quad(lambda r: (1 - r) * math.exp(-a * r), 0, 1,
                         epsabs=1e-14)[0]
            assert _phi1(arr)[0] == pytest.approx(want1, rel=1e-12)
            assert _phi2(arr)[0] == pytest.approx(want2, rel=1e-12)

    def test_series_branch_is_continuous(self):
        lo = np.array([0.0099999])
        hi = np.array([0.0100001])
        assert abs(_phi1(lo)[0] - _phi1(hi)[0]) <= 1e-6
        assert abs(_phi2(lo)[0] - _phi2(hi)[0]) <= 1e-6
        # both branches evaluated at the cut agree to near machine precision
        at = np.array([1e-2])
        exact1 = -math.expm1(-1e-2) / 1e-2
        exact2 = (math.expm1(-1e-2) + 1e-2) / 1e-4
        assert _phi1(at)[0] == pytest.approx(exact1, rel=1e-12)
        assert _phi2(at)[0] == pytest.approx(exact2, rel=1e-12)

    def test_limits(self):
        z = np.array([0.0])
        assert _phi1(z)[0] == pytest.approx(1.0)
        assert _phi2(z)[0] == pytest.approx(0.5)
        big = np.array([1e4])
        assert _phi1(big)[0] == pytest.approx(1e-4, rel=1e-10)


# ------------------------------------------------------------------ duhamel map

class TestDuhamelApply:
    def test_zero_flux_gives_free_flow(self):
        cfg = make_config()
        u0 = bump_field()
        F = duhamel(NonlinearitySpec.zero(), cfg,
                    np.repeat(u0.values[None], cfg.time_grid.size, axis=0))
        for j, t in enumerate(cfg.time_grid):
            lin = apply_multiplier_values(
                GRID, u0.values, semigroup_multiplier(GRID, cfg.s, float(t)))
            assert np.max(np.abs(F[j] - lin)) <= 1e-12

    def test_constant_field_is_fixed(self):
        cfg = make_config()
        vals = np.full((cfg.time_grid.size, 1) + GRID.shape, 1.3)
        F = duhamel(NonlinearitySpec.tanh(0.5), cfg, vals)
        assert np.max(np.abs(F - 1.3)) == 0.0

    def test_frozen_mode_closed_form(self):
        """For u frozen at cos(k x) and linear flux f = C u, each mode
        integrates to ik C (1 - e^{-t lam}) / lam exactly."""
        s, C, k0 = 0.75, 0.3, 7.0
        cfg = make_config(s=s, T=1.0, nodes=11)
        x = GRID.coordinates()[0]
        u = np.cos(k0 * x)
        lam = k0 ** (2 * s)
        F = duhamel(NonlinearitySpec.power(C, 0.0), cfg,
                    np.repeat(u[None, None], cfg.time_grid.size, axis=0))
        for j, t in enumerate(cfg.time_grid):
            decay = math.exp(-t * lam)
            oracle = decay * np.cos(k0 * x) \
                - C * k0 * np.sin(k0 * x) * (1.0 - decay) / lam
            assert np.max(np.abs(F[j, 0] - oracle)) <= 1e-8  # measured ~1e-15

    def test_overwrites_all_but_node_zero(self):
        cfg = make_config()
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((cfg.time_grid.size, 2) + GRID.shape)
        out = vals.copy()
        plan = _DuhamelPlan(GRID, NonlinearitySpec.tanh(0.5), cfg)
        plan.apply(plan.first_iterate(out[0])[1], out)
        assert np.array_equal(out[0], vals[0])
        assert all(not np.array_equal(out[j], vals[j])
                   for j in range(1, cfg.time_grid.size))


# ------------------------------------------------------------------ picard

class TestPicardSolve:
    def test_zero_flux_converges_in_one_iteration(self):
        cfg = make_config()
        u0 = bump_field()
        traj, diag = picard_solve(u0, NonlinearitySpec.zero(), cfg)
        assert diag.iterations == 1 and diag.converged
        for j, t in enumerate(cfg.time_grid):
            lin = apply_multiplier_values(
                GRID, u0.values, semigroup_multiplier(GRID, cfg.s, float(t)))
            assert np.max(np.abs(traj.values[j] - lin)) <= 1e-10

    def test_constant_initial_data_stays_constant(self):
        cfg = make_config()
        u0 = Ensemble(GRID, np.full((1,) + GRID.shape, 0.8))
        traj, diag = picard_solve(u0, NonlinearitySpec.tanh(0.5), cfg)
        assert diag.converged
        assert np.max(np.abs(traj.values - 0.8)) <= 1e-12

    def test_contraction_ratio_within_bound(self):
        L = 0.1
        K = 4.0 * minimal_K(1.0, L)
        cfg = make_config(s=1.0, T=1.0, nodes=21, K=K)
        traj, diag = picard_solve(bump_field(), NonlinearitySpec.tanh(L), cfg)
        rho = contraction_bound(1.0, L, K)
        assert diag.converged
        assert diag.rho_multiplier == pytest.approx(rho)
        assert max(diag.ratios) <= 1.1 * rho
        # residuals nonincreasing after the first iteration, 10% slack
        for a, b in zip(diag.residuals[1:], diag.residuals[2:]):
            assert b <= 1.1 * a

    def test_mean_is_conserved(self):
        cfg = make_config()
        u0 = bump_field()
        traj, _ = picard_solve(u0, NonlinearitySpec.tanh(0.5), cfg)
        means = traj.values.mean(axis=tuple(range(1, traj.values.ndim)))
        assert np.max(np.abs(means - u0.values.mean())) <= 1e-13
        assert traj.is_trajectory and traj.n_members == 1
        assert np.array_equal(traj.times, cfg.time_grid)
        assert traj.seeds == u0.seeds

    def test_batch_equals_single_member(self):
        m = gaussian_bump_measure(GRID, 2.0, 1.0)
        ens = sample_ensemble(m, 4, seed=3)
        cfg = make_config()
        spec = NonlinearitySpec.tanh(0.5)
        etraj, _ = picard_solve(ens, spec, cfg)
        straj, _ = picard_solve(member(ens, 2), spec, cfg)
        assert np.array_equal(etraj.values[:, 2], straj.values[:, 0])
        assert etraj.is_trajectory
        assert etraj.seeds == ens.seeds

    def test_members_stop_on_their_own(self):
        """A member scaled by 0.1 needs fewer sweeps than the others; it
        stops there, and every member still equals its single run."""
        m = gaussian_bump_measure(GRID, 2.0, 1.0)
        ens = sample_ensemble(m, 4, seed=3)
        ens.values[1] *= 0.1
        cfg = make_config(tol=1e-12)
        spec = NonlinearitySpec.tanh(0.5)
        etraj, ediag = picard_solve(ens, spec, cfg)
        sweeps = []
        for i in range(ens.n_members):
            straj, sdiag = picard_solve(member(ens, i), spec, cfg)
            assert np.array_equal(etraj.values[:, i], straj.values[:, 0])
            sweeps.append(sdiag.iterations)
        assert len(set(sweeps)) > 1
        assert ediag.iterations == max(sweeps)
        assert ediag.converged and ediag.unconverged_members == 0

    def test_fixed_point_certificate(self):
        cfg = make_config(tol=1e-10)
        spec = NonlinearitySpec.tanh(0.5)
        traj, _ = picard_solve(bump_field(), spec, cfg)
        F = duhamel(spec, cfg, traj.values)
        assert _bielecki_distance(GRID, cfg, F, traj.values) <= 2 * cfg.tol

    def test_restart_identity(self):
        spec = NonlinearitySpec.tanh(0.5)
        full = make_config(T=0.5, nodes=41, tol=1e-10)
        half = make_config(T=0.25, nodes=21, tol=1e-10)
        t_full, _ = picard_solve(bump_field(), spec, full)
        t_half, _ = picard_solve(bump_field(), spec, half)
        t_rest, _ = picard_solve(Ensemble(GRID, t_half.values[-1]), spec, half)
        err = l2_norm(GRID, t_rest.values[-1] - t_full.values[-1])
        assert err <= 10 * full.tol

    def test_noncontraction_error(self):
        cfg = SolverConfig(s=1.0, z=1.0, time_grid=np.linspace(0, 2, 21),
                           bielecki_k=0.01, max_iter=8)
        with pytest.raises(NonContractionError) as info:
            picard_solve(bump_field(), NonlinearitySpec.tanh(30.0), cfg)
        assert info.value.measured_ratio > 1.0
        assert info.value.iterations == 8

    def test_noncontraction_error_pickles(self):
        exc = NonContractionError(1.25, 0.5, 8)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is NonContractionError
        assert (back.measured_ratio, back.bound, back.iterations) == (1.25, 0.5, 8)
        assert str(back) == str(exc)

    def test_capped_but_shrinking_returns_unconverged(self):
        L = 2.0
        K = 1.05 * minimal_K(0.75, L)          # rho just under 1
        cfg = make_config(K=K, tol=1e-14, max_iter=3)
        traj, diag = picard_solve(bump_field(), NonlinearitySpec.tanh(L), cfg)
        assert not diag.converged
        assert diag.iterations == 3
        assert diag.unconverged_members == 1

    def test_superlinear_without_cutoff_rejected(self):
        cfg = make_config()
        with pytest.raises(ConfigurationError, match="cutoff"):
            picard_solve(bump_field(), NonlinearitySpec.burgers(), cfg)

    def test_trajectory_initial_data_rejected(self):
        cfg = make_config()
        traj, _ = picard_solve(bump_field(), NonlinearitySpec.tanh(0.3), cfg)
        with pytest.raises(ConfigurationError, match="snapshot"):
            picard_solve(traj, NonlinearitySpec.tanh(0.3), cfg)
        with pytest.raises(ConfigurationError, match="snapshot"):
            step_solve(traj, NonlinearitySpec.tanh(0.3), cfg)

    def test_node_zero_flux_evaluated_once(self, monkeypatch):
        """A sweep evaluates f at nodes 1.. only: f(u0) enters node 1
        through the constant first_iterate builds once per solve."""
        real = NonlinearitySpec.evaluate
        calls = []

        def counting(self, x):
            calls.append(np.shape(x))
            return real(self, x)

        monkeypatch.setattr(NonlinearitySpec, "evaluate", counting)
        cfg = make_config(nodes=11)
        ens = sample_ensemble(gaussian_bump_measure(GRID, 2.0, 1.0), 3, seed=3)
        _, diag = picard_solve(ens, NonlinearitySpec.tanh(0.5), cfg)
        assert diag.converged and diag.iterations >= 3
        assert len(calls) == 1 + diag.iterations * (cfg.time_grid.size - 1)
        assert set(calls) == {ens.values.shape}

    @pytest.mark.parametrize("d", [1, 2])
    def test_final_state_export_round_trip(self, d, tmp_path):
        """The final snapshot of a solve, written as a run writes its
        final_state artifact, reloads bit for bit with time t_final."""
        grid = GRID if d == 1 else Grid(d=2, n=16, len=2 * math.pi)
        cfg = SolverConfig(s=0.75, z=[1.0] + [0.0] * (d - 1),
                           time_grid=np.linspace(0.0, 0.5, 6), bielecki_k=3.0)
        ens = sample_ensemble(gaussian_bump_measure(grid, 2.0, 1.0), 3, seed=4)
        traj, _ = picard_solve(ens, NonlinearitySpec.tanh(0.3), cfg)
        export_ensemble(traj.at(-1), tmp_path / "final_state")
        back = load_ensemble(tmp_path / "final_state")
        assert np.array_equal(back.values, traj.values[-1])
        assert back.time == 0.5 and back.grid == grid
        assert back.seeds == ens.seeds and not back.is_trajectory


class TestNonFiniteFlux:
    """Burgers cut off at 1e200 is globally Lipschitz on paper, but on data
    of that size f = u^2/2 overflows to inf: every solver raises
    NumericError rather than return non-finite fields."""

    SPEC = NonlinearitySpec.burgers(cutoff_level=1e200)

    def data(self, size, members=1):
        ens = sample_ensemble(gaussian_bump_measure(GRID, 2.0, 1.0), members,
                              seed=5)
        ens.values[-1] *= size
        return ens

    def test_at_initial_data(self):
        u0 = self.data(1e200)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(self.SPEC.evaluate(u0.values)))
        with pytest.raises(NumericError, match="non-finite"):
            picard_solve(u0, self.SPEC, make_config())

    def test_inside_a_sweep(self):
        """f(u0) is finite at size 1e150, but F(u) is not: the sweep's
        residual catches it, also when one member of a batch blows up."""
        u0 = self.data(1e150, members=3)
        assert np.all(np.isfinite(self.SPEC.evaluate(u0.values)))
        with pytest.raises(NumericError, match="non-finite"):
            picard_solve(u0, self.SPEC, make_config())

    @pytest.mark.parametrize("size", [1e150, 1e200])
    def test_step_solve(self, size):
        with pytest.raises(NumericError, match="non-finite"):
            step_solve(self.data(size), self.SPEC, make_config())


# ------------------------------------------------------------------ half spectrum

def real_part(values):
    """The real part of a nominally real complex array, after checking that
    the imaginary residue is roundoff."""
    assert np.max(np.abs(values.imag)) <= 1e-10 * np.max(np.abs(values.real))
    return values.real


def full_forward(grid, values):
    """u_hat on the full spectrum: complex fftn, scaled by dx**d."""
    return np.fft.fftn(values, axes=tuple(range(-grid.d, 0))) * grid.cell_volume


def full_inverse(grid, coeffs):
    """The inverse of full_forward; a complex array."""
    return np.fft.ifftn(coeffs, axes=tuple(range(-grid.d, 0))) / grid.cell_volume


def complex_reference_apply(grid, spec, cfg, u0, values):
    """The Duhamel map on the full spectrum, as an oracle for the solver's
    half-spectrum sweeps: complex fftn, full-layout symbols and an
    imaginary-residue check at every node."""
    t = cfg.time_grid
    lam = grid.k_abs ** (2.0 * cfg.s)
    deriv = directional_derivative_multiplier(grid, cfg.z).values
    if spec.dealias_default:
        deriv = deriv * dealias_mask(grid)

    def flux_hat(v):
        return full_forward(grid, spec.evaluate(v)) * deriv

    u0_hat = full_forward(grid, u0)
    out = np.empty_like(values)
    out[0] = u0
    vhat = np.zeros(u0_hat.shape, dtype=complex)
    g_prev = flux_hat(values[0])
    for j, h in enumerate(np.diff(t)):
        a = h * lam
        g_next = flux_hat(values[j + 1])
        vhat = np.exp(-a) * vhat + h * (_phi1(a) - _phi2(a)) * g_prev \
            + h * _phi2(a) * g_next
        out[j + 1] = real_part(full_inverse(
            grid, np.exp(-t[j + 1] * lam) * u0_hat + vhat))
        g_prev = g_next
    return out


def complex_reference_picard(grid, spec, cfg, u0):
    """Picard iteration on complex_reference_apply; returns the last
    iterate and the number of sweeps."""
    lam = grid.k_abs ** (2.0 * cfg.s)
    u0_hat = full_forward(grid, u0)
    current = np.stack([real_part(full_inverse(grid, np.exp(-t * lam) * u0_hat))
                        for t in cfg.time_grid])
    for sweep in range(1, cfg.max_iter + 1):
        new = complex_reference_apply(grid, spec, cfg, u0, current)
        dist = _bielecki_distance(grid, cfg, new, current)
        current = new
        if dist <= cfg.tol:
            break
    return current, sweep


HALF_SPECTRUM_CASES = [
    pytest.param(d, spec, s, id=f"d{d}-{spec.kind}-s{s:g}")
    for d in (1, 2)
    for spec in (NonlinearitySpec.burgers(cutoff_level=2.0),
                 NonlinearitySpec.tanh(0.5))
    for s in (0.75, 1.0)
]


def half_spectrum_case(d, spec, s):
    grid = Grid(d=d, n=64 if d == 1 else 16, len=2 * math.pi)
    # mass 4 puts the field rms at 2, so the cut-off at 2 binds
    ens = sample_ensemble(gaussian_bump_measure(grid, 2.0, mass=4.0), 3, seed=21)
    cfg = SolverConfig(s=s, z=[1.0] * d, time_grid=np.linspace(0, 0.5, 11),
                       bielecki_k=2 * minimal_K(s, spec.effective_lipschitz()),
                       tol=1e-10)
    return grid, ens, cfg


class TestHalfSpectrumEquivalence:
    @pytest.mark.parametrize("d,spec,s", HALF_SPECTRUM_CASES)
    def test_duhamel_apply_matches_complex_path(self, d, spec, s):
        grid, ens, cfg = half_spectrum_case(d, spec, s)
        rng = np.random.default_rng(4)
        values = ens.values[None] + 0.3 * rng.standard_normal(
            (cfg.time_grid.size,) + ens.values.shape)
        values[0] = ens.values
        got = duhamel(spec, cfg, values, grid)
        want = complex_reference_apply(grid, spec, cfg, ens.values, values)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("d,spec,s", HALF_SPECTRUM_CASES)
    def test_picard_solve_matches_complex_path(self, d, spec, s):
        """Members stop on their own, so each is compared with the
        reference run on that member alone."""
        grid, ens, cfg = half_spectrum_case(d, spec, s)
        traj, diag = picard_solve(ens, spec, cfg)
        assert diag.converged and diag.unconverged_members == 0
        sweeps = []
        for i in range(ens.n_members):
            want, n = complex_reference_picard(grid, spec, cfg, ens.values[i])
            sweeps.append(n)
            assert np.max(np.abs(traj.values[:, i] - want)) <= 1e-12
        assert diag.iterations == max(sweeps)

    @pytest.mark.parametrize("d,spec,s", HALF_SPECTRUM_CASES[::3])
    def test_fused_residual_equals_bielecki_distance(self, d, spec, s):
        grid, ens, cfg = half_spectrum_case(d, spec, s)
        plan = _DuhamelPlan(grid, spec, cfg)
        current, node1 = plan.first_iterate(ens.values)
        for _ in range(4):
            old = current.copy()
            dist = plan.apply(node1, current)
            assert dist.shape == (ens.n_members,)
            for i in range(ens.n_members):
                oracle = _bielecki_distance(grid, cfg, current[:, i], old[:, i])
                assert oracle > 0
                assert dist[i] == pytest.approx(oracle, rel=1e-15, abs=0)

    def test_member_subset_sweep_leaves_other_rows(self):
        grid, ens, cfg = half_spectrum_case(1, NonlinearitySpec.tanh(0.5), 0.75)
        plan = _DuhamelPlan(grid, NonlinearitySpec.tanh(0.5), cfg)
        full, node1 = plan.first_iterate(ens.values)
        part = full.copy()
        want = plan.apply(node1, full)
        got = plan.apply(node1, part, np.array([0, 2]))
        assert np.array_equal(got, want[[0, 2]])
        assert np.array_equal(part[:, [0, 2]], full[:, [0, 2]])
        first, _ = plan.first_iterate(ens.values)
        assert np.array_equal(part[:, 1], first[:, 1])


# ------------------------------------------------------------------ marching

class TestStepSolve:
    def test_zero_flux_matches_linear(self):
        cfg = make_config()
        u0 = bump_field()
        traj = step_solve(u0, NonlinearitySpec.zero(), cfg)
        for j, t in enumerate(cfg.time_grid):
            lin = apply_multiplier_values(
                GRID, u0.values, semigroup_multiplier(GRID, cfg.s, float(t)))
            assert np.max(np.abs(traj.values[j] - lin)) <= 1e-10

    def test_constant_initial_data(self):
        cfg = make_config()
        u0 = Ensemble(GRID, np.full((1,) + GRID.shape, -0.6))
        traj = step_solve(u0, NonlinearitySpec.tanh(1.0), cfg)
        assert np.max(np.abs(traj.values + 0.6)) <= 1e-12

    def test_agreement_with_picard(self):
        L = 1.0
        cfg = SolverConfig(s=1.0, z=1.0, time_grid=np.linspace(0, 0.5, 101),
                           bielecki_k=2 * minimal_K(1.0, L), tol=1e-10)
        spec = NonlinearitySpec.tanh(L)
        u0 = bump_field()
        t_pic, _ = picard_solve(u0, spec, cfg)
        t_step = step_solve(u0, spec, cfg)
        err = l2_norm(GRID, t_pic.values[-1] - t_step.values[-1])
        assert err <= 10 * cfg.tol

    def test_self_convergence_is_second_order(self):
        spec = NonlinearitySpec.tanh(1.0)
        u0 = bump_field()

        def run(nodes):
            cfg = SolverConfig(s=1.0, z=1.0,
                               time_grid=np.linspace(0, 0.5, nodes + 1),
                               bielecki_k=1.0)
            return step_solve(u0, spec, cfg).values[-1]

        ref = run(800)
        coarse = l2_norm(GRID, run(50) - ref)
        fine = l2_norm(GRID, run(100) - ref)
        assert 3.0 <= coarse / fine <= 5.0

    def test_step_size_error_on_coarse_grid(self):
        cfg = SolverConfig(s=1.0, z=1.0, time_grid=np.linspace(0, 2, 5),
                           bielecki_k=1.0)
        with pytest.raises(StepSizeError, match="refine"):
            step_solve(bump_field(), NonlinearitySpec.tanh(50.0), cfg)

    def test_batch_equals_single_member(self):
        m = gaussian_bump_measure(GRID, 2.0, 1.0)
        ens = sample_ensemble(m, 3, seed=11)
        cfg = make_config()
        spec = NonlinearitySpec.tanh(0.5)
        etraj = step_solve(ens, spec, cfg)
        straj = step_solve(member(ens, 1), spec, cfg)
        assert np.array_equal(etraj.values[:, 1], straj.values[:, 0])


# ------------------------------------------------------------------ bielecki

class TestBieleckiDistance:
    """The weighted metric sup_j e^{-K t_j} max_members rms of the Picard
    residual, through the reference the fused residual is tested against."""

    def test_constant_trajectory_unweighted(self):
        cfg = make_config(T=1.0, nodes=5, K=0.0)
        vals = np.full((5, 1) + GRID.shape, -2.0)
        assert _bielecki_distance(GRID, cfg, vals, 0.0 * vals) == pytest.approx(2.0)

    def test_large_weight_selects_initial_node(self):
        vals = np.ones((5, 1) + GRID.shape) * np.arange(1, 6)[:, None, None]
        zero = np.zeros_like(vals)
        heavy = make_config(T=1.0, nodes=5, K=50.0)
        flat = make_config(T=1.0, nodes=5, K=0.0)
        assert _bielecki_distance(GRID, heavy, vals, zero) == pytest.approx(1.0)
        assert _bielecki_distance(GRID, flat, vals, zero) == pytest.approx(5.0)

    def test_homogeneity_symmetry_and_translation(self):
        cfg = make_config(nodes=6, K=1.0)
        traj, _ = picard_solve(bump_field(), NonlinearitySpec.tanh(0.3), cfg)
        a = traj.values
        b = np.roll(a, 17, axis=-1)
        zero = np.zeros_like(a)
        base = _bielecki_distance(GRID, cfg, a, zero)
        assert _bielecki_distance(GRID, cfg, 2.0 * a, zero) == pytest.approx(
            2.0 * base, rel=1e-12)
        assert _bielecki_distance(GRID, cfg, a, b) == _bielecki_distance(GRID, cfg, b, a)
        assert _bielecki_distance(GRID, cfg, a + 0.7, b + 0.7) == pytest.approx(
            _bielecki_distance(GRID, cfg, a, b), rel=1e-12)

    def test_max_over_members(self):
        m = gaussian_bump_measure(GRID, 2.0, 1.0)
        ens = sample_ensemble(m, 3, seed=2)
        cfg = make_config(nodes=4, K=0.5)
        traj, _ = picard_solve(ens, NonlinearitySpec.tanh(0.2), cfg)
        v = _bielecki_distance(GRID, cfg, traj.values, np.zeros_like(traj.values))
        rms = np.sqrt(np.mean(traj.values**2, axis=2))          # (nodes, N)
        want = np.max(np.exp(-cfg.bielecki_k * cfg.time_grid)[:, None] * rms)
        assert v == pytest.approx(float(want), rel=1e-12)
        # the worst member, not the ensemble's pooled moment
        pooled = np.max(np.sqrt(np.mean(traj.values**2, axis=(1, 2)))
                        * np.exp(-cfg.bielecki_k * cfg.time_grid))
        assert v > pooled


# ------------------------------------------------------------------ constants

class TestContractionConstants:
    def test_zero_lipschitz(self):
        assert contraction_bound(0.75, 0.0, 5.0) == 0.0

    def test_s_one_closed_form(self):
        L, K = 0.7, 3.0
        want = gradient_constant(1.0) * L * math.sqrt(math.pi / K)
        assert contraction_bound(1.0, L, K) == pytest.approx(want, rel=1e-14)

    def test_strictly_decreasing_in_k(self):
        ks = np.logspace(-2, 3, 30)
        vals = [contraction_bound(0.75, 1.0, float(k)) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s,L", [(0.6, 0.3), (0.75, 0.1), (0.9, 2.0), (1.0, 1.0)])
    def test_minimal_k_sits_on_the_threshold(self, s, L):
        K0 = minimal_K(s, L)
        assert contraction_bound(s, L, K0) == pytest.approx(1.0, abs=1e-12)
        assert contraction_bound(s, L, K0 * (1 + 1e-6)) < 1.0
        assert contraction_bound(s, L, K0 * (1 - 1e-6)) > 1.0

    @given(s=st.floats(0.55, 1.0), m=st.floats(1.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_bound_scaling_property(self, s, m):
        """rho(m K0) = m^{-(1 - 1/2s)} exactly, by homogeneity in K."""
        K0 = minimal_K(s, 1.0)
        got = contraction_bound(s, 1.0, m * K0)
        assert got == pytest.approx(m ** (-(1 - 1 / (2 * s))), rel=1e-9)

    def test_doubling_lipschitz_scales_threshold(self):
        s = 0.8
        ratio = minimal_K(s, 2.0) / minimal_K(s, 1.0)
        assert ratio == pytest.approx(2 ** (2 * s / (2 * s - 1)), rel=1e-12)

    def test_unit_threshold_calibration(self):
        # with c_1 L Gamma(1/2) = 1 the threshold lands exactly at K0 = 1
        L = 1.0 / (gradient_constant(1.0) * math.sqrt(math.pi))
        assert minimal_K(1.0, L) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("s,L", [(0.51, 1e6), (0.5000001, 10.0),
                                     (0.55, 1e30)])
    def test_threshold_past_float_range_is_inf(self, s, L):
        # the closed form overflows; no representable K contracts there
        assert contraction_bound(s, L, 1e300) > 1.0
        assert minimal_K(s, L) == math.inf

    def test_threshold_at_float_range_edge(self):
        # K0 ~ 1.156e300: the closed form still fits in a float
        K0 = minimal_K(0.75, 1e100)
        assert 1e300 < K0 < math.inf
        assert contraction_bound(0.75, 1e100, K0) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            contraction_bound(0.5, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            contraction_bound(0.75, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            contraction_bound(0.75, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            minimal_K(0.75, 0.0)


# ------------------------------------------------------------------ ladder

class TestCutoffLadder:
    """The ladder as the experiments run it, parallel_ladder with one
    worker: its chunks solve in this process."""

    def test_inactive_cutoffs_collapse_the_ladder(self):
        """u0 bounded by the lowest level: all ladder members identical."""
        u0 = two_members(mass=0.04)    # rms 0.2, excursions well under 2
        assert np.max(np.abs(u0.values)) < 1.0
        cfg = make_config(K=2 * minimal_K(0.75, 4.0))
        series, diagnostics = burgers_ladder(cfg, [2, 4], mass=0.04)
        assert ladder_sup_distances(series, [2.0, 4.0]) == {(2.0, 4.0): 0.0}
        assert all(d.converged for d in diagnostics.values())

    def test_levels_with_every_member_free_build_no_plan(self, monkeypatch):
        """Every member stays strictly inside the lowest level, so the
        levels above copy it whole: only the lowest level builds a plan,
        and each level still equals a whole-batch solve of its rung, each
        member's residual history included."""
        from fracflow.solver import _ladder_solve, _picard_iterate

        u0 = two_members(mass=0.04)
        cfg = make_config(K=2 * minimal_K(0.75, 8.0))
        spec = NonlinearitySpec.burgers()
        levels = [2.0, 4.0, 8.0]
        expected = {n: _picard_iterate(*ladder_rung(u0, spec, n), cfg)
                    for n in levels}

        built = []
        real_init = _DuhamelPlan.__init__

        def counting(plan, grid, plan_spec, config):
            built.append(plan_spec.cutoff_level)
            real_init(plan, grid, plan_spec, config)

        monkeypatch.setattr(_DuhamelPlan, "__init__", counting)
        solutions, history = _ladder_solve(u0, spec, levels, cfg)
        assert built == [2.0]
        assert list(solutions) == levels
        assert history.shape == (len(levels), cfg.max_iter, 2)
        for n, level_history in zip(levels, history):
            traj, want = expected[n]
            assert np.array_equal(solutions[n], traj.values), n
            assert np.array_equal(level_history, want), n

    def test_per_level_diagnostics_kept(self):
        cfg = make_config(K=2 * minimal_K(0.75, 2.0), tol=1e-14, max_iter=3)
        _, diagnostics = burgers_ladder(cfg, [1, 2], mass=6.0, n_members=8,
                                        seed=9)
        assert sorted(diagnostics) == [1.0, 2.0]
        for diag in diagnostics.values():
            assert diag.iterations == 3 and not diag.converged
            assert len(diag.residuals) == 3 and diag.residuals[-1] > cfg.tol

    def test_cauchy_decay_on_binding_cutoffs(self):
        K = 2 * minimal_K(0.75, 8.0)
        cfg = make_config(K=K)
        series, diagnostics = burgers_ladder(cfg, [1, 2, 4, 8], mass=6.0,
                                             n_members=40, seed=9)
        check = _cauchy_check("cauchy-distances", series, list(diagnostics))
        assert check.passed
        assert check.detail == "0 increases across min levels"
        sup = ladder_sup_distances(series, list(diagnostics))
        assert len(sup) == 6
        # distances group-monotone: worst pair at min level 1 > at 2 > at 4
        worst = [max(v for k, v in sup.items() if k[0] == n)
                 for n in (1.0, 2.0, 4.0)]
        assert worst[0] > worst[1] > worst[2] > 0

    def test_moment_guard_reported_for_ensembles(self):
        cfg = make_config(K=2 * minimal_K(0.75, 4.0))
        series, _ = burgers_ladder(cfg, [2, 4], mass=6.0, n_members=40,
                                   seed=9)
        moments = ladder_moments(series)
        assert moments[2].shape == (cfg.time_grid.size, 40)
        assert _moment_guard(moments).passed

    def test_certain_guard_violation_is_minus_infinity(self):
        """Three identical members whose top-level p = 2 moment goes from
        1 to 2 after node 0: the bound is broken with zero spread."""
        moments = np.array([1.0, 2.0])[:, None] * np.ones((1, 3))
        check = _moment_guard({2: moments, 4: np.ones((2, 3))})
        assert not check.passed
        assert check.detail == "min initial-bound z = -inf"

    def test_non_cauchy_profile_fails_the_check(self, monkeypatch):
        import fracflow.ensemble_stats as stats_mod

        def fake_distance(grid, a, b):
            # crafted so the worst distance grows with the min level
            fake_distance.calls += 1
            return np.full(a.shape[:2], float(fake_distance.calls))

        fake_distance.calls = 0
        monkeypatch.setattr(stats_mod, "_pair_distance", fake_distance)
        cfg = make_config(K=2 * minimal_K(0.75, 4.0))
        series, diagnostics = burgers_ladder(cfg, [1, 2, 4], mass=0.04)
        check = _cauchy_check("ladder-cauchy", series, list(diagnostics))
        assert not check.passed
        assert check.detail == "1 distance increases"

    def test_validation(self):
        m = gaussian_bump_measure(GRID, width=2.0, mass=1.0)
        cfg = make_config()
        with pytest.raises(ConfigurationError):
            parallel_ladder(GRID, m, NonlinearitySpec.tanh(1.0), cfg, 2, 5,
                            [1, 2])
        with pytest.raises(ConfigurationError):
            burgers_ladder(cfg, [])
        with pytest.raises(ConfigurationError):
            burgers_ladder(cfg, [2, 2])
        with pytest.raises(ConfigurationError, match="needs >= 2 members"):
            burgers_ladder(cfg, [1, 2], n_members=1)
