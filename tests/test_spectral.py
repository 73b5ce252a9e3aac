"""Tests for the pseudo-spectral core.

Oracles used here are independent of the FFT code path: literal DFT sums,
closed-form single-mode arithmetic, the periodized Gaussian heat kernel, and
golden-section maximization for the multiplier constants.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize_scalar

from fracflow.errors import ConfigurationError, NumericError, ResolutionError
from fracflow import spectral as sp


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape)


def apply(grid, values, op):
    return sp.apply_multiplier_values(grid, values, op)


def fractional_laplacian(grid, s):
    """The symbol |k|^{2s} of (-lap)^s, built as a caller-supplied op."""
    return sp.MultiplierOp(grid, grid.k_abs ** (2.0 * s))


# ---------------------------------------------------------------- grids

def test_grid_validation():
    with pytest.raises(ConfigurationError):
        sp.Grid(3, 64, 1.0)
    with pytest.raises(ConfigurationError):
        sp.Grid(1, 6, 1.0)
    with pytest.raises(ConfigurationError):
        sp.Grid(1, 63, 1.0)
    with pytest.raises(ConfigurationError):
        sp.Grid(1, 64, 0.0)
    with pytest.raises(ConfigurationError):
        sp.Grid(1, 64, math.inf)


@pytest.mark.parametrize("bad", [{"d": True}, {"n": "16"}, {"n": 16.5},
                                 {"len": None}],
                         ids=["bool-d", "string-n", "fractional-n", "none-len"])
def test_grid_entries_must_be_numbers(bad):
    with pytest.raises(ConfigurationError, match="grid '"):
        sp.Grid(**{"d": 1, "n": 16, "len": 6.0, **bad})


def test_grid_coerces_integral_floats():
    g = sp.Grid(1, 16.0, 6)
    assert type(g.n) is int and type(g.len) is float
    assert g.shape == (16,) and g == sp.Grid(1, 16, 6.0)


def test_dual_grid_symmetric_except_nyquist():
    g = sp.Grid(1, 16, 4.0)
    k = g.axis_wavenumbers
    # every mode except Nyquist has its negative present
    for j, kj in enumerate(k):
        if j == g.n // 2:
            continue
        assert np.any(np.isclose(k, -kj))
    # Nyquist is zeroed in derivative components
    assert g.deriv_components[0].ravel()[g.n // 2] == 0.0
    assert g.k_components[0].ravel()[g.n // 2] != 0.0


# ----------------------------------------------------- transforms

def full_forward(g, u):
    """u_hat on the full spectrum, straight from numpy's complex fftn."""
    return np.fft.fftn(u, axes=tuple(range(-g.d, 0))) * g.cell_volume


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8)])
def test_forward_matches_literal_dft(d, n):
    """The half spectrum is the last-axis 0..n/2 part of the literal DFT."""
    g = sp.Grid(d, n, 2.5)
    u = random_field(g, seed=1)
    uh = sp.real_forward_transform(g, u)
    x = g.axis_points()
    k = g.axis_wavenumbers
    if d == 1:
        direct = np.array([np.sum(u * np.exp(-1j * kj * x)) * g.dx for kj in k])
    else:
        direct = np.zeros((n, n), dtype=complex)
        for a, ka in enumerate(k):
            for b, kb in enumerate(k):
                phase = np.exp(-1j * (ka * x[:, None] + kb * x[None, :]))
                direct[a, b] = np.sum(u * phase) * g.dx**2
    assert uh.shape == (n,) * (d - 1) + (n // 2 + 1,)
    npt.assert_allclose(uh, direct[..., :n // 2 + 1],
                        atol=1e-12 * np.max(np.abs(direct)))


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_real_transforms_are_the_half_of_the_complex_ones(d, n):
    g = sp.Grid(d, n, 7.0)
    u = random_field(g, seed=5)
    full = full_forward(g, u)
    half = sp.real_forward_transform(g, u)
    assert half.shape == (n,) * (d - 1) + (n // 2 + 1,)
    npt.assert_allclose(half, sp.half_spectrum(g, full),
                        atol=1e-13 * np.max(np.abs(full)))
    back = sp.real_inverse_transform(g, half)
    assert back.dtype == np.float64 and back.shape == g.shape
    npt.assert_allclose(back, u, atol=1e-13)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_half_spectrum_parseval(d, n):
    """sum w |c|^2 over the half spectrum equals sum |u_hat|^2 over the
    full one, batched over leading axes."""
    g = sp.Grid(d, n, 7.0)
    u = np.stack([random_field(g, seed=s) for s in (6, 7, 8)])
    axes = tuple(range(-d, 0))
    full = np.sum(np.abs(full_forward(g, u)) ** 2, axis=axes)
    half = np.sum(sp.half_spectrum_weights(g)
                  * np.abs(sp.real_forward_transform(g, u)) ** 2, axis=axes)
    npt.assert_allclose(half, full, rtol=1e-12)
    w = sp.half_spectrum_weights(g)
    assert w.shape == (n // 2 + 1,)
    assert w[0] == w[-1] == 1.0 and np.all(w[1:-1] == 2.0)


def test_apply_multiplier_linearity():
    g = sp.Grid(1, 64, 4.0)
    op = sp.semigroup_multiplier(g, 0.75, 0.4)
    u, v = random_field(g, 3), random_field(g, 4)
    a, b = 1.7, -0.3
    combo = apply(g, a * u + b * v, op)
    parts = a * apply(g, u, op) + b * apply(g, v, op)
    npt.assert_allclose(combo, parts, atol=1e-12 * np.max(np.abs(parts)))


def test_multiplier_must_be_hermitian():
    g = sp.Grid(1, 16, 1.0)
    vals = np.zeros(16, dtype=complex)
    vals[1] = 1.0  # no conjugate partner at -k
    with pytest.raises(ConfigurationError):
        sp.MultiplierOp(g, vals)
    # odd multiplier with nonzero Nyquist entry is equally bad
    k = g.k_components[0].copy()
    with pytest.raises(ConfigurationError):
        sp.MultiplierOp(g, 1j * k)
    # zeroing the Nyquist entry repairs it
    sp.MultiplierOp(g, 1j * g.deriv_components[0])


def test_apply_multiplier_rejects_nonfinite_output():
    g = sp.Grid(1, 16, 1.0)
    u = np.zeros(16)
    u[3] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite"):
        apply(g, u, sp.semigroup_multiplier(g, 0.75, 0.1))


def test_apply_multiplier_batched_rows_match_single():
    g = sp.Grid(2, 16, 3.0)
    op = sp.grad_semigroup_multiplier(g, 0.75, 0.2, (1.0, 2.0))
    u = np.stack([random_field(g, seed) for seed in (11, 12, 13)])
    out = apply(g, u, op)
    assert out.dtype == np.float64 and out.shape == u.shape
    for i in range(3):
        npt.assert_allclose(out[i], apply(g, u[i], op), atol=1e-14)


# ----------------------------------------------------- operators

def test_derivative_single_mode():
    # contract example: op = i*k applied to cos(2 pi x / len) is -k sin(k x)
    g = sp.Grid(1, 64, 5.0)
    x = g.axis_points()
    k1 = 2 * np.pi / g.len
    f = np.cos(k1 * x)
    out = apply(g, f, sp.directional_derivative_multiplier(g, 1.0))
    assert np.max(np.abs(out - (-k1 * np.sin(k1 * x)))) < 1e-10
    # reversed direction flips the sign
    out2 = apply(g, f, sp.directional_derivative_multiplier(g, -1.0))
    npt.assert_allclose(out2, -out, atol=1e-13)


@pytest.mark.parametrize("s", [0.6, 0.75, 1.0])
def test_fractional_laplacian_single_modes(s):
    g = sp.Grid(1, 64, 8.0)
    x = g.axis_points()
    for j in (1, 3, 7):
        k = 2 * np.pi * j / g.len
        out = apply(g, np.sin(k * x), fractional_laplacian(g, s))
        npt.assert_allclose(out, k ** (2 * s) * np.sin(k * x), atol=1e-11 * k**2)


def test_fractional_laplacian_s1_is_minus_laplace():
    g = sp.Grid(1, 64, 8.0)
    x = g.axis_points()
    k = 2 * np.pi * 3 / g.len
    out = apply(g, np.cos(k * x), fractional_laplacian(g, 1.0))
    npt.assert_allclose(out, k**2 * np.cos(k * x), atol=1e-10)


def test_fractional_laplacian_kills_constants():
    g = sp.Grid(2, 16, 3.0)
    out = apply(g, np.full(g.shape, 4.2), fractional_laplacian(g, 0.8))
    assert np.max(np.abs(out)) < 1e-13


def test_invalid_s_rejected():
    g = sp.Grid(1, 16, 1.0)
    for s in (0.0, -0.3, 1.2):
        with pytest.raises(ConfigurationError):
            sp.semigroup_multiplier(g, s, 1.0)
        with pytest.raises(ConfigurationError):
            sp.grad_semigroup_multiplier(g, s, 1.0, 1.0)


# ----------------------------------------------------- semigroup

def test_semigroup_single_mode_decay():
    g = sp.Grid(1, 64, 8.0)
    x = g.axis_points()
    k = 2 * np.pi * 2 / g.len
    for s, t in [(0.6, 0.5), (1.0, 1.3)]:
        out = apply(g, np.cos(k * x), sp.semigroup_multiplier(g, s, t))
        npt.assert_allclose(out, math.exp(-t * k ** (2 * s)) * np.cos(k * x),
                            atol=1e-13)


def test_semigroup_law_and_identity():
    g = sp.Grid(1, 128, 10.0)
    u = random_field(g, 5)
    s = 0.75

    def flow(v, t):
        return apply(g, v, sp.semigroup_multiplier(g, s, t))

    for t1, t2 in [(0.1, 0.2), (0.5, 1.5), (1e-3, 2.0)]:
        two = flow(flow(u, t1), t2)
        one = flow(u, t1 + t2)
        assert np.max(np.abs(two - one)) <= 1e-12 * np.max(np.abs(u))
    npt.assert_allclose(flow(u, 0.0), u, atol=1e-13)
    with pytest.raises(ConfigurationError):
        sp.semigroup_multiplier(g, s, -0.1)


def test_semigroup_l2_contraction_exact():
    g = sp.Grid(1, 128, 10.0)
    u = random_field(g, 6)
    norms = [sp.l2_norm(g, apply(g, u, sp.semigroup_multiplier(g, 0.6, t)))
             for t in np.linspace(0.0, 2.0, 20)]
    diffs = np.diff(norms)
    assert np.all(diffs <= 0.0)  # exact, no tolerance


def test_semigroup_mean_preserved():
    g = sp.Grid(1, 64, 4.0)
    u = random_field(g, 7) + 2.5
    out = apply(g, u, sp.semigroup_multiplier(g, 0.9, 1.7))
    assert abs(np.mean(out) - np.mean(u)) < 1e-12 * (1 + abs(np.mean(u)))


def test_semigroup_strong_continuity():
    # ||P_t u - u||_2 -> 0 as t -> 0+, monotonically in t
    g = sp.Grid(1, 128, 10.0)
    u = random_field(g, 8)
    errs = [sp.l2_norm(g, apply(g, u, sp.semigroup_multiplier(g, 0.75, t)) - u)
            for t in [0.1, 0.01, 0.001, 1e-4]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05 * sp.l2_norm(g, u)


@pytest.mark.parametrize("s", [0.6, 1.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_semigroup_smoothing_inequality(s, alpha):
    """||(-lap)^{alpha/2} P_t u||_2 <= c t^{-alpha/2s} ||u||_2 with
    c = sup_r r^alpha e^{-r^{2s}}, at every positive time: the Sobolev
    gain of the flow, mode by mode."""
    g = sp.Grid(1, 128, 10.0)
    u = random_field(g, 9)
    c = golden_max(lambda r: r**alpha * math.exp(-(r ** (2 * s))))
    l2 = sp.l2_norm(g, u)
    for t in np.logspace(-3, 1, 25):
        flowed = apply(g, u, sp.semigroup_multiplier(g, s, float(t)))
        lhs = sp.l2_norm(g, apply(g, flowed, fractional_laplacian(g, alpha / 2)))
        assert lhs <= c * float(t) ** (-alpha / (2 * s)) * l2 * (1.0 + 1e-12)


# ----------------------------------------------------- gradient semigroup

def test_grad_semigroup_bound_log_spaced():
    g = sp.Grid(1, 512, 64.0)
    u = random_field(g, 9)
    base = sp.l2_norm(g, u)
    for s in (0.6, 0.75, 1.0):
        cs = sp.gradient_constant(s)
        for t in np.geomspace(1e-3, 10.0, 25):
            out = apply(g, u, sp.grad_semigroup_multiplier(g, s, t, 1.0))
            amp = sp.l2_norm(g, out) / base
            assert amp <= cs * t ** (-1.0 / (2 * s))


def test_grad_semigroup_operator_norm_matches_symbol():
    g = sp.Grid(1, 64, 8.0)
    s, t = 0.75, 0.37
    op = sp.grad_semigroup_multiplier(g, s, t, 1.0)
    k = np.abs(g.deriv_components[0].ravel())
    expected = np.max(k * np.exp(-t * g.k_abs ** (2 * s)))
    npt.assert_allclose(op.operator_norm(), expected, rtol=1e-12)
    assert op.operator_norm() <= sp.gradient_constant(s) * t ** (-1 / (2 * s))


def test_grad_semigroup_requires_positive_time():
    g = sp.Grid(1, 16, 1.0)
    with pytest.raises(ConfigurationError):
        sp.grad_semigroup_multiplier(g, 0.75, 0.0, 1.0)


def test_grad_semigroup_zero_mean_output():
    g = sp.Grid(1, 64, 4.0)
    u = random_field(g, 10) + 3.0
    out = apply(g, u, sp.grad_semigroup_multiplier(g, 0.75, 0.5, 1.0))
    assert abs(np.mean(out)) < 1e-12


def test_direction_validation():
    g = sp.Grid(2, 16, 1.0)
    with pytest.raises(ConfigurationError):
        sp.normalize_direction(g, (0.0, 0.0))
    with pytest.raises(ConfigurationError):
        sp.normalize_direction(g, (1.0,))
    with pytest.raises(ConfigurationError, match="numeric"):
        sp.normalize_direction(g, ("east", 1.0))
    z = sp.normalize_direction(g, (3.0, 4.0))
    npt.assert_allclose(z, [0.6, 0.8])


# ----------------------------------------------------- kernel

def test_kernel_mass_positivity_symmetry():
    for d in (1, 2):
        g = sp.Grid(d, 64 if d == 1 else 32, 20.0)
        ker = sp.kernel_values(g, 0.75, 1.0)
        mass = np.sum(ker) * g.cell_volume
        assert abs(mass - 1.0) <= 1e-8
        assert np.min(ker) >= 0.0
        # reflection symmetry on the grid
        flipped = sp._reverse_modes(ker, d)
        npt.assert_allclose(ker, flipped, atol=1e-12 * np.max(ker))
        if d == 2:
            npt.assert_allclose(ker, ker.T, atol=1e-12 * np.max(ker))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_kernel_scaling_identity(t):
    # p_t(x) = t^{-d/2s} p_1(t^{-1/2s} x) checked on matched grids
    s = 0.75
    g = sp.Grid(1, 128, 24.0)
    ker_t = sp.kernel_values(g, s, t)
    lam = t ** (-1.0 / (2 * s))
    g1 = sp.Grid(1, 128, 24.0 * lam)
    ker_1 = sp.kernel_values(g1, s, 1.0)
    rel = np.max(np.abs(ker_t - lam * ker_1)) / np.max(ker_t)
    assert rel <= 1e-6


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_kernel_matches_gaussian_at_s1(t):
    # len >= 20 sqrt(t) so periodization images are below 1e-8
    g = sp.Grid(1, 256, 20.0 * math.sqrt(t))
    ker = sp.kernel_values(g, 1.0, t)
    x = g.axis_points()
    xc = np.where(x > g.len / 2, x - g.len, x)
    gauss = np.zeros_like(xc)
    for j in range(-4, 5):
        y = xc + j * g.len
        gauss += np.exp(-y**2 / (4 * t)) / math.sqrt(4 * math.pi * t)
    assert np.max(np.abs(ker - gauss)) <= 1e-8


def test_kernel_resolution_error():
    g = sp.Grid(1, 64, 8.0)
    with pytest.raises(ResolutionError):
        sp.kernel_values(g, 1.0, 1e-5)
    with pytest.raises(ConfigurationError):
        sp.kernel_values(g, 1.0, 0.0)


# ----------------------------------------------------- constants

def golden_max(fn, hi=60.0):
    res = minimize_scalar(lambda r: -fn(r), bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-13})
    # compare against the boundary r = 0 as well (alpha = 0 peaks there)
    return max(-res.fun, fn(0.0))


def test_gradient_constant_values():
    npt.assert_allclose(sp.gradient_constant(1.0), (2 * math.e) ** -0.5, rtol=1e-12)
    for s in (0.6, 0.75, 1.0):
        sup = golden_max(lambda r: r * math.exp(-(r ** (2 * s))))
        npt.assert_allclose(sp.gradient_constant(s), sup, rtol=1e-9)


def test_constant_validation():
    with pytest.raises(ConfigurationError):
        sp.gradient_constant(0.0)
    with pytest.raises(ConfigurationError):
        sp.gradient_constant(1.2)
