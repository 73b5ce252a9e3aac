"""Homogeneous Gaussian random fields on the torus, driven by a discrete
spectral measure, plus the estimators used to verify their statistics.

A measure assigns a nonnegative weight w(k) to each dual mode with
w(-k) = w(k); samples are synthesized as

    u(x) = mean + sum_k sqrt(w(k)) W_k e^{+ikx},

where W is unit-variance Hermitian complex Gaussian noise, so that
Cov(u(x), u(x+y)) = sum_k w(k) cos(k.y) exactly and the field is strictly
stationary under grid translations.  Sampling is driven by counter-based
Philox streams: (seed, member index) fully determines a draw, regardless
of how work is scheduled.

:class:`Ensemble` is the one container of the package: a batch of real
fields on a grid, either a snapshot of the members or their trajectory on
a time grid.  Sampling, the solvers, the statistics and the field
artifacts all take and return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _binio
from .errors import (ConfigurationError, NumericError, from_record,
                     require_number)
from .spectral import (
    Grid,
    _reverse_modes,
    apply_multiplier_values,
    directional_derivative_multiplier,
    half_spectrum,
    real_inverse_transform,
    semigroup_multiplier,
)

MEASURE_FAMILIES = ("two_mode", "gaussian_bump", "power_law")


@dataclass
class SpectralMeasure:
    """Discrete spectral measure: nonnegative symmetric mode weights plus a
    deterministic mean carried separately (the k = 0 weight stays zero in
    the built-in families so the DC content is never random)."""

    grid: Grid
    weights: np.ndarray
    mean: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != self.grid.shape:
            raise ConfigurationError("weights shape does not match grid")
        if not np.all(np.isfinite(w)):
            raise NumericError("measure weights contain non-finite entries")
        if np.min(w) < 0.0:
            raise ConfigurationError(
                f"measure weights must be nonnegative (min {np.min(w):.3e})"
            )
        mirrored = _reverse_modes(w, self.grid.d)
        scale = max(float(np.max(w)), 1e-300)
        if np.max(np.abs(w - mirrored)) > 1e-10 * scale:
            raise ConfigurationError("measure weights are not symmetric under k -> -k")
        # enforce exact symmetry so sampled fields are exactly stationary
        self.weights = 0.5 * (w + mirrored)
        self.mean = float(self.mean)
        if not math.isfinite(self.mean):
            raise ConfigurationError("measure mean must be finite")

    def decayed(self, s: float, t: float) -> "SpectralMeasure":
        """Pushforward under the linear flow: weights e^{-2t|k|^{2s}} w(k)."""
        mult = semigroup_multiplier(self.grid, s, t).values.real
        return SpectralMeasure(self.grid, self.weights * mult**2, mean=self.mean)


def two_mode_measure(grid: Grid, wavenumber, mass: float, mean: float = 0.0) -> SpectralMeasure:
    """All mass split evenly between one +/-kappa pair of grid modes.

    ``wavenumber`` is snapped to the nearest dual node; it must not snap to
    zero or to the Nyquist mode (which has no distinct negative partner).
    """
    _check_mass(mass)
    kvec = np.atleast_1d(np.asarray(wavenumber, dtype=np.float64))
    if kvec.shape != (grid.d,):
        raise ConfigurationError(f"wavenumber needs {grid.d} component(s)")
    idx = np.array([int(round(c * grid.len / (2 * math.pi))) for c in kvec])
    if np.all(idx == 0):
        raise ConfigurationError("two-mode wavenumber snaps to zero")
    if np.any(np.abs(idx) >= grid.n // 2):
        raise ConfigurationError("two-mode wavenumber at or beyond Nyquist")
    w = np.zeros(grid.shape)
    w[tuple(idx % grid.n)] += mass / 2.0
    w[tuple((-idx) % grid.n)] += mass / 2.0
    return SpectralMeasure(grid, w, mean=mean)


def gaussian_bump_measure(grid: Grid, width: float, mass: float,
                          mean: float = 0.0) -> SpectralMeasure:
    """Weights proportional to e^{-|k|^2 / 2 width^2}, k = 0 excluded."""
    _check_mass(mass)
    if not (width > 0 and math.isfinite(width)):
        raise ConfigurationError(f"width must be positive, got {width}")
    w = np.exp(-grid.k_squared / (2.0 * width**2))
    w[(0,) * grid.d] = 0.0
    return SpectralMeasure(grid, _normalize(w, mass), mean=mean)


def power_law_measure(grid: Grid, nu: float, mass: float,
                      mean: float = 0.0) -> SpectralMeasure:
    """Weights proportional to (1 + |k|^2)^{-nu}, truncated at Nyquist."""
    _check_mass(mass)
    if not (nu > 0 and math.isfinite(nu)):
        raise ConfigurationError(f"nu must be positive, got {nu}")
    w = (1.0 + grid.k_squared) ** (-nu)
    w[(0,) * grid.d] = 0.0
    return SpectralMeasure(grid, _normalize(w, mass), mean=mean)


def _check_mass(mass: float):
    if not (mass >= 0 and math.isfinite(mass)):
        raise ConfigurationError(f"measure mass must be >= 0, got {mass}")


def _normalize(w: np.ndarray, mass: float) -> np.ndarray:
    total = float(np.sum(w))
    if total <= 0:
        raise ConfigurationError("measure family has no support on this grid")
    return w * (mass / total)


@dataclass
class _MeasureRecord:
    """The keys of a measure record and their defaults."""

    family: str
    mass: float
    mean: float = 0.0
    params: dict = field(default_factory=dict)


def measure_from_spec(grid: Grid, record: dict) -> SpectralMeasure:
    """Build a measure from a plain dict (the on-disk representation)."""
    rec = from_record(_MeasureRecord, record, "measure")
    family, params = rec.family, rec.params
    if family not in MEASURE_FAMILIES:
        raise ConfigurationError(
            f"unknown measure family {family!r}; choose from {MEASURE_FAMILIES}"
        )
    if not isinstance(params, dict):
        raise ConfigurationError("measure params must be a mapping")
    name = {"two_mode": "wavenumber", "gaussian_bump": "width",
            "power_law": "nu"}[family]
    if name not in params:
        raise ConfigurationError(
            f"measure family {family!r} missing parameter {name!r}")
    mass = require_number(rec.mass, "measure 'mass'")
    mean = require_number(rec.mean, "measure 'mean'")
    raw = params[name]
    value = [require_number(v, f"measure {name!r}")
             for v in (raw if isinstance(raw, list) else [raw])]
    if family == "two_mode":
        return two_mode_measure(grid, value, mass, mean)
    if len(value) != 1:
        raise ConfigurationError(f"measure parameter {name!r} must be a number")
    if family == "gaussian_bump":
        return gaussian_bump_measure(grid, value[0], mass, mean)
    return power_law_measure(grid, value[0], mass, mean)


# ------------------------------------------------------------------ sampling

def _member_noise(grid: Grid, seed: int, counter: int = 0) -> np.ndarray:
    """Unit-variance Hermitian complex Gaussian coefficients, one per mode.

    E|W_k|^2 = 1 at every mode (self-paired modes are real with variance 1),
    W_{-k} = conj(W_k) exactly.  The (seed, counter) pair identifies the
    Philox stream: counter selects a jumped substream, so any subset of an
    ensemble can be regenerated independently.
    """
    rng = _member_rng(seed, counter)
    ab = rng.standard_normal((2,) + grid.shape)
    g = (ab[0] + 1j * ab[1]) / math.sqrt(2.0)  # E|g|^2 = 1
    return (g + np.conj(_reverse_modes(g, grid.d))) / math.sqrt(2.0)


def _member_rng(seed: int, counter: int) -> np.random.Generator:
    seed, counter = int(seed), int(counter)
    if seed < 0 or counter < 0:
        raise ConfigurationError("seed and counter must be nonnegative integers")
    # the state Philox(key=seed).jumped(counter) reaches, set directly at a
    # third of the cost: jumped adds counter, mod 2^128, to the upper two
    # counter words.  A uint64 array, as a list fails for words >= 2^63.
    words = np.array([0, 0, counter % 2**64, (counter >> 64) % 2**64],
                     dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=words))


@dataclass
class Ensemble:
    """A batch of real fields on one grid: the members at one time (a
    snapshot) or along a time grid (a trajectory).

    The trailing ``grid.d`` axes of ``values`` are the grid.  The leading
    axes are the members, (N, *grid.shape), for a snapshot, or the time
    nodes and then the members, (nodes, N, *grid.shape), for a
    trajectory.  ``times`` holds one time per node of a trajectory (it is
    required there); for a snapshot it is its time, a scalar, or None for
    t = 0.  ``seeds`` records the (seed, counter) pair of each member so
    any member can be regenerated.
    """

    grid: Grid
    values: np.ndarray
    times: np.ndarray | None = None
    seeds: list = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        lead = self.values.ndim - self.grid.d
        if (lead not in (1, 2) or self.values.shape[lead:] != self.grid.shape
                or self.values.shape[lead - 1] == 0):
            raise ConfigurationError(
                f"ensemble values must have shape ([nodes,] N >= 1, "
                f"{', '.join(map(str, self.grid.shape))}), got {self.values.shape}"
            )
        if self.times is not None or lead == 2:
            self.times = np.asarray(self.times, dtype=np.float64)
            if self.times.shape != self.values.shape[:lead - 1]:
                raise ConfigurationError(
                    "a trajectory needs one time per node, a snapshot one time")
        if not np.all(np.isfinite(self.values)):
            axes = tuple(a for a in range(self.values.ndim) if a != lead - 1)
            bad = np.flatnonzero(~np.all(np.isfinite(self.values), axis=axes))
            raise NumericError(
                f"ensemble members {bad[:8].tolist()} contain non-finite values")
        if self.seeds and len(self.seeds) != self.n_members:
            raise ConfigurationError("seeds list does not match member count")

    @property
    def is_trajectory(self) -> bool:
        return self.values.ndim == self.grid.d + 2

    @property
    def n_members(self) -> int:
        return self.values.shape[self.values.ndim - self.grid.d - 1]

    @property
    def time(self) -> float:
        """The time of a snapshot."""
        return 0.0 if self.times is None else float(self.times)

    def at(self, j: int) -> "Ensemble":
        """The snapshot of a trajectory at node j."""
        return Ensemble(self.grid, self.values[j], self.times[j], self.seeds)


def sample_ensemble(measure: SpectralMeasure, n_members: int, seed: int,
                    counter_offset: int = 0) -> Ensemble:
    """Draw ``n_members`` independent realizations.

    Member i uses the Philox substream (seed, counter_offset + i); the
    worker layout of a parallel run can never change the draws.
    """
    if n_members < 1:
        raise ConfigurationError("n_members must be >= 1")
    grid = measure.grid
    # the noise and the weights are Hermitian, so the half spectrum of
    # each draw fixes the real field
    noise = np.empty((n_members,) + half_spectrum(grid, measure.weights).shape,
                     dtype=np.complex128)
    seeds = []
    for i in range(n_members):
        c = counter_offset + i
        noise[i] = half_spectrum(grid, _member_noise(grid, seed, c))
        seeds.append((int(seed), int(c)))
    coeffs = np.sqrt(half_spectrum(grid, measure.weights)) * noise * grid.len**grid.d
    vals = real_inverse_transform(grid, coeffs)
    return Ensemble(grid, vals + measure.mean, seeds=seeds)


# ------------------------------------------------------------------ estimators

def member_mean(per_member, axis: int = 0) -> tuple:
    """(mean, stderr) over the member axis of member-level statistics:
    the sample mean and its standard error (ddof = 1).  Every Monte Carlo
    estimate of the package goes through here; below two members there is
    no stderr, so it raises."""
    per_member = np.asarray(per_member)
    n = per_member.shape[axis]
    if n < 2:
        raise ConfigurationError(
            f"a member-level stderr needs >= 2 members, got {n}")
    return (per_member.mean(axis=axis),
            per_member.std(axis=axis, ddof=1) / math.sqrt(n))


def z_score(mean, stderr):
    """mean / stderr, elementwise; where stderr is 0 the estimate is
    exact: 0 for a zero mean, else +-inf by the sign of the mean."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, np.divide(mean, stderr),
                     np.where(mean == 0, 0.0, np.copysign(np.inf, mean)))
    return z if z.ndim else float(z)


@dataclass
class SpectrumEstimate:
    measure: SpectralMeasure
    stderr: np.ndarray
    n_members: int


def estimate_spectrum(ens: Ensemble) -> SpectrumEstimate:
    """Averaged periodogram, symmetrized, with total mass pinned to the
    empirical variance; the k = 0 bin goes to the mean estimate instead."""
    grid = ens.grid
    mu = float(np.mean(ens.values))
    coeffs = np.fft.fftn(ens.values - mu, axes=tuple(range(-grid.d, 0)))
    coeffs *= grid.cell_volume
    per_member = np.abs(coeffs) ** 2 / grid.len ** (2 * grid.d)
    per_member = 0.5 * (per_member + _reverse_modes(per_member, grid.d))
    per_member[(np.s_[:],) + (0,) * grid.d] = 0.0
    weights, stderr = member_mean(per_member)
    variance = float(np.mean((ens.values - mu) ** 2))
    total = float(np.sum(weights))
    if total > 0 and variance > 0:
        scale = variance / total
        weights = weights * scale
        stderr = stderr * scale
    return SpectrumEstimate(SpectralMeasure(grid, weights, mean=mu), stderr,
                            ens.n_members)


@dataclass
class OrthogonalityStat:
    value: float
    stderr: float
    z_score: float
    n_members: int


def directional_orthogonality_stat(ens: Ensemble, g, z,
                                   f=None) -> OrthogonalityStat:
    """Monte Carlo estimate of E[ grad_z f(u) . g(u) ] (f defaults to the
    identity).  Exactly zero in the mean for stationary reflection-symmetric
    fields; the z-score measures the estimate in member-level stderr units."""
    grid = ens.grid
    src = ens.values if f is None else _pointwise(f, ens.values)
    grad = apply_multiplier_values(grid, src,
                                   directional_derivative_multiplier(grid, z))
    axes = tuple(range(-grid.d, 0))
    integrand = grad * _pointwise(g, ens.values)
    value, stderr = map(float, member_mean(np.mean(integrand, axis=axes)))
    # Some pairings vanish identically per realization (e.g. g = const, or
    # g = u with f = id, where the spectral sum is antisymmetric in k); then
    # value and stderr are both pure roundoff and count as exact zeros.
    floor = 1e-12 * float(np.mean(np.abs(integrand)))
    exact = stderr <= floor
    zscore = z_score(0.0 if exact and abs(value) <= max(floor, 1e-300)
                     else value, 0.0 if exact else stderr)
    return OrthogonalityStat(value, stderr, zscore, ens.n_members)


def _pointwise(fn, values: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(values), dtype=np.float64)
    if out.shape != values.shape:
        raise ConfigurationError("pointwise function changed the array shape")
    if not np.all(np.isfinite(out)):
        raise NumericError("pointwise function produced non-finite values")
    return out


# ------------------------------------------------------------------ export

def export_ensemble(ens: Ensemble, base) -> tuple:
    """Write the members of a snapshot as flat binary plus a JSON metadata
    record."""
    meta = {
        "kind": "ensemble",
        "grid": {"d": ens.grid.d, "n": ens.grid.n, "len": ens.grid.len},
        "time": ens.time,
        "seeds": [list(sc) for sc in ens.seeds],
    }
    return _binio.write_array(base, ens.values, meta)


def load_ensemble(base) -> Ensemble:
    values, meta = _binio.read_array(base)
    if meta.get("kind") != "ensemble":
        raise ConfigurationError(f"{base}: metadata kind is not 'ensemble'")
    grid = from_record(Grid, meta.get("grid"), "grid")
    seeds = [tuple(sc) for sc in meta.get("seeds", [])]
    return Ensemble(grid, values, float(meta.get("time", 0.0)), seeds)
