"""Periodic pseudo-spectral core: grids, Fourier multipliers, the fractional
dissipation semigroup and its gradient, and the associated convolution kernel.

Conventions
-----------
Coefficients are stored on the synthesis side of the e^{+ikx} convention,

    u(x) = len**-d * sum_k u_hat(k) e^{+i k x},
    u_hat(k) = sum_x u(x) e^{-i k x} dx**d,

on the dual grid k in (2*pi/len) * {-n/2, ..., n/2 - 1} per axis.  A field
with spectral representation u = sum_k Z_k e^{+ikx} therefore has
u_hat(k) = len**d * Z_k, the multiplier i (z.k) is the directional
derivative, and discrete Parseval reads
sum_x |u|^2 dx**d = len**-d * sum_k |u_hat|^2.

All operators act on the trailing ``d`` axes, so arrays with leading batch
axes (ensembles, time stacks) go through the same code path.

Half spectrum (rfft layout)
---------------------------
A real field is fixed by half of its coefficients, u_hat(-k) = conj u_hat(k).
:func:`real_forward_transform` keeps the last axis at indices 0..n/2 (the
non-negative wavenumbers, Nyquist included) and every other axis in full
fftfreq order, so its output has shape (n,)*(d-1) + (n/2+1,).
:func:`half_spectrum` slices a full-layout symbol to that layout, and
:func:`real_inverse_transform` returns a real array by construction: it
takes every dropped coefficient to be the conjugate of its kept partner.
A symbol applied in this layout must therefore be Hermitian on the full
grid (validated by :class:`MultiplierOp` when the symbol is built);
otherwise the product would not describe a real field.  Parseval on the
half spectrum counts the last-axis indices 1..n/2-1 twice
(:func:`half_spectrum_weights`).  :func:`real_dft` and :func:`real_idft`
are the same pair without the dx**d factor, for the solvers' sweeps, where
it cancels.  Every real field (samples, multiplier
applications, kernels, the solvers) goes through this real pair; only the
spectrum estimator's periodogram takes a full FFT, inline, because the
measure it estimates holds full-grid weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, NumericError, ResolutionError,
                     require_number)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, len)^d.

    Parameters
    ----------
    d : int
        Spatial dimension, 1 or 2.
    n : int
        Points per axis.  Must be even and at least 8; powers of two are the
        intended use (the FFT does the heavy lifting).
    len : float
        Physical period L per axis.
    """

    d: int
    n: int
    len: float

    def __post_init__(self):
        # frozen: the coerced values go in through object.__setattr__
        for name, integer in (("d", True), ("n", True), ("len", False)):
            object.__setattr__(self, name, require_number(
                getattr(self, name), f"grid {name!r}", integer=integer))
        if self.d not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 8 or self.n % 2 != 0:
            raise ConfigurationError(f"n must be even and >= 8, got {self.n}")
        if not (self.len > 0 and math.isfinite(self.len)):
            raise ConfigurationError(f"period must be positive, got {self.len}")

    @property
    def dx(self) -> float:
        return self.len / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def coordinates(self) -> tuple:
        """Coordinate arrays broadcastable to ``shape``, one per axis."""
        x = self.axis_points()
        return tuple(
            x.reshape((1,) * ax + (self.n,) + (1,) * (self.d - ax - 1))
            for ax in range(self.d)
        )

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def k_components(self) -> tuple:
        """Wavenumber arrays broadcastable to ``shape``, one per axis."""
        k = self.axis_wavenumbers
        return tuple(
            k.reshape((1,) * ax + (self.n,) + (1,) * (self.d - ax - 1))
            for ax in range(self.d)
        )

    @cached_property
    def deriv_components(self) -> tuple:
        """Like ``k_components`` but with the Nyquist entry zeroed per axis.

        Odd multipliers (first derivatives) have no Hermitian partner for the
        Nyquist mode, so it is dropped; even multipliers keep it.
        """
        k = self.axis_wavenumbers.copy()
        k[self.n // 2] = 0.0
        return tuple(
            k.reshape((1,) * ax + (self.n,) + (1,) * (self.d - ax - 1))
            for ax in range(self.d)
        )

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for comp in self.k_components:
            out = out + comp**2
        return out

    @cached_property
    def k_abs(self) -> np.ndarray:
        return np.sqrt(self.k_squared)


def _reverse_modes(values: np.ndarray, d: int) -> np.ndarray:
    """Index map k -> -k on the trailing d axes (0 and Nyquist are fixed)."""
    axes = tuple(range(values.ndim - d, values.ndim))
    out = np.flip(values, axis=axes)
    for ax in axes:
        out = np.roll(out, 1, axis=ax)
    return out


def real_dft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The unscaled half-spectrum DFT sum_x u(x) e^{-ikx} of a real array
    over the trailing grid axes (rfft layout): u_hat / dx**d.  In d = 1 it
    calls rfft on the last axis, which is what rfftn computes there."""
    if grid.d == 1:
        return np.fft.rfft(values)
    return np.fft.rfftn(values, axes=tuple(range(-grid.d, 0)))


def real_idft(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`real_dft`; returns a real array."""
    if grid.d == 1:
        return np.fft.irfft(coeffs, grid.n)
    return np.fft.irfftn(coeffs, s=grid.shape,
                         axes=tuple(range(-grid.d, 0)))


def real_forward_transform(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients u_hat(k) of a real array (rfft layout,
    see the module docstring): the coefficients of e^{+ikx}, times
    len**d."""
    out = real_dft(grid, values)
    out *= grid.cell_volume
    return out


def real_inverse_transform(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`real_forward_transform`; returns a real array."""
    out = real_idft(grid, coeffs)
    out /= grid.cell_volume
    return out


def half_spectrum(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The rfft-layout part (last axis 0..n/2) of a full-layout array."""
    return np.ascontiguousarray(values[..., :grid.n // 2 + 1])


def half_spectrum_weights(grid: Grid) -> np.ndarray:
    """Parseval weights on the half spectrum, along the last axis: 1 at the
    self-paired indices 0 and n/2, 2 at the others (each stands for k and
    -k), so sum(w |c|^2) over the half spectrum equals sum |u_hat|^2 over
    the full one."""
    w = np.full(grid.n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


@dataclass
class MultiplierOp:
    """A Fourier multiplier m(k) acting diagonally on coefficients.

    Only Hermitian multipliers (m(-k) = conj m(k), real at self-paired
    modes) are accepted: they are exactly the ones mapping real fields to
    real fields.
    """

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"multiplier shape {self.values.shape} does not match grid"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericError(f"multiplier {self.label!r} has non-finite entries")
        mirrored = np.conj(_reverse_modes(self.values, self.grid.d))
        scale = float(np.max(np.abs(self.values), initial=0.0))
        if not np.allclose(self.values, mirrored, atol=1e-12 * max(scale, 1e-300), rtol=1e-12):
            raise ConfigurationError(
                f"multiplier {self.label!r} is not Hermitian; it would produce "
                "complex output on real fields"
            )

    def operator_norm(self) -> float:
        """Discrete L2 -> L2 operator norm, max_k |m(k)|."""
        return float(np.max(np.abs(self.values)))


def apply_multiplier_values(grid: Grid, values: np.ndarray, op: MultiplierOp,
                            context: str = "apply_multiplier_values") -> np.ndarray:
    """Multiplier application on a real (possibly batched) value array, on
    the half spectrum of the validated symbol."""
    coeffs = real_forward_transform(grid, values)
    coeffs *= half_spectrum(grid, op.values)
    out = real_inverse_transform(grid, coeffs)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"{context}: produced non-finite values")
    return out


def _check_s(s: float, low_open: float = 0.0) -> float:
    s = float(s)
    if not (low_open < s <= 1.0):
        raise ConfigurationError(f"s must lie in ({low_open}, 1], got {s}")
    return s


def semigroup_multiplier(grid: Grid, s: float, t: float) -> MultiplierOp:
    """Symbol e^{-t |k|^{2s}} of the dissipation semigroup P_t."""
    s = _check_s(s)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ConfigurationError(f"semigroup time must be >= 0, got {t}")
    return MultiplierOp(grid, np.exp(-t * grid.k_abs ** (2.0 * s)),
                        label=f"P_t(s={s}, t={t})")


def normalize_direction(grid: Grid, z) -> np.ndarray:
    """Validate a transport direction and scale it to unit length."""
    try:
        z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    except (TypeError, ValueError):
        raise ConfigurationError(f"direction must be numeric, got {z!r}")
    if z.shape != (grid.d,):
        raise ConfigurationError(
            f"direction must have {grid.d} component(s), got shape {z.shape}"
        )
    norm = float(np.linalg.norm(z))
    if not (norm > 0 and np.all(np.isfinite(z))):
        raise ConfigurationError("direction must be finite and nonzero")
    return z / norm


def directional_derivative_multiplier(grid: Grid, z) -> MultiplierOp:
    """Symbol i (z_hat . k) of the unit-direction derivative."""
    zhat = normalize_direction(grid, z)
    zk = np.zeros(grid.shape)
    for c, comp in zip(zhat, grid.deriv_components):
        zk = zk + c * comp
    return MultiplierOp(grid, 1j * zk, label="grad_z")


def grad_semigroup_multiplier(grid: Grid, s: float, t: float, z) -> MultiplierOp:
    """Symbol i (z_hat . k) e^{-t|k|^{2s}} of grad_z P_t.

    Requires t > 0: the bare gradient is unbounded in the continuum limit and
    only the semigroup factor tames it, with operator norm <= c_s t^{-1/2s}.
    """
    s = _check_s(s)
    if not (t > 0.0 and math.isfinite(t)):
        raise ConfigurationError(f"gradient-semigroup time must be > 0, got {t}")
    decay = np.exp(-t * grid.k_abs ** (2.0 * s))
    return MultiplierOp(grid,
                        directional_derivative_multiplier(grid, z).values * decay,
                        label=f"grad P_t(s={s}, t={t})")


def gradient_constant(s: float) -> float:
    """c_s = sup_{r>=0} r e^{-r^{2s}} = (2 s e)^{-1/(2s)}.

    Scaling gives the L2 bound ||grad_z P_t|| <= c_s t^{-1/(2s)}; the same
    constant drives the contraction estimate of the mild-solution map.
    """
    s = _check_s(s)
    return (2.0 * s * math.e) ** (-1.0 / (2.0 * s))


def kernel_values(grid: Grid, s: float, t: float) -> np.ndarray:
    """Convolution kernel p_t of the semigroup, periodized on the grid.

    Normalized to unit mass: sum_x p_t(x) dx^d = 1 exactly, because the
    zero-mode coefficient is e^0 = 1.  Raises ResolutionError when the kernel
    is too peaked for the mesh (max p_t * dx^d > 0.5, i.e. one cell would
    carry most of the mass).  Tiny negative lobes from spectral truncation
    are clipped; anything below -1e-12 * max(p_t) raises.
    """
    s = _check_s(s)
    if not (t > 0.0 and math.isfinite(t)):
        raise ConfigurationError(f"kernel time must be > 0, got {t}")
    coeffs = np.exp(-t * half_spectrum(grid, grid.k_abs ** (2.0 * s)))
    vals = real_inverse_transform(grid, coeffs)
    peak = float(np.max(vals))
    if peak * grid.cell_volume > 0.5:
        raise ResolutionError(
            f"kernel at t={t} under-resolved: max * dx^d = "
            f"{peak * grid.cell_volume:.3g} > 0.5; refine the grid or increase t"
        )
    floor = float(np.min(vals))
    if floor < -1e-12 * peak:
        raise ResolutionError(
            f"kernel at t={t} has negative lobes ({floor:.3e}) beyond roundoff; "
            "spectral truncation is too severe on this grid"
        )
    return np.maximum(vals, 0.0)


def l2_norm(grid: Grid, values: np.ndarray) -> np.ndarray | float:
    """Integral L2 norm sqrt(sum |u|^2 dx^d) over the trailing grid axes."""
    axes = tuple(range(-grid.d, 0))
    out = np.sqrt(np.sum(np.abs(values) ** 2, axis=axes) * grid.cell_volume)
    return float(out) if out.ndim == 0 else out


def spatial_rms(grid: Grid, values: np.ndarray) -> np.ndarray | float:
    """Root mean square over the trailing grid axes (stationary-field L2).

    For homogeneous fields this is the natural estimate of ||u(x)||_{L2(P)},
    independent of the box size.
    """
    axes = tuple(range(-grid.d, 0))
    out = np.sqrt(np.mean(values**2, axis=axes))
    return float(out) if out.ndim == 0 else out
