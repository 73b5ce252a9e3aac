"""Monte Carlo verification statistics over solved ensembles: moment
series and their monotonicity, the energy-dissipation identity, and the
two sides of the semigroup convexity inequality
E[(P_h - I)(theta |w|^a) theta |w|^b] <= ab E[(P_h - I)|w| |w|]
for a + b = 2.  The series statistics take a trajectory :class:`Ensemble`
(values indexed node, member, grid); convexity_members takes a snapshot.

Every estimator reduces member-level statistics (one number per
realization first, then member_mean and z_score over members), so spatial
correlation within a realization can never understate the error bars.
The moment series and the dissipation residual expose the two stages
apart (member_moments and dissipation_series per member and per node,
reduce_moments and reduce_dissipation across members), so member chunks
solved elsewhere reach their statistics as (nodes, members) series alone.
convexity_members stops at the per-member stage: the experiment reduces
its two sides into each check.  A cut-off ladder's per-member numbers,
from the rung trajectories the solver returns, are its ladder_series;
ladder_moments and ladder_sup_distances reduce it.
The per-member stages run node by node: their temporaries are one
node's (members, grid) size, never a whole trajectory's.
Summation is numpy pairwise reduction in member order, making every
reported number reproducible bit-for-bit for a fixed member ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, ResolutionError
from .random_fields import Ensemble, member_mean, z_score
from .spectral import (
    Grid,
    MultiplierOp,
    apply_multiplier_values,
    half_spectrum,
    half_spectrum_weights,
    l2_norm,
    real_forward_transform,
)

# central differences must resolve the energy decay: max step below this
# fraction of the initial decay time, else the lhs is bias-dominated
_DT_FRACTION = 1e-2


@dataclass
class MomentSeries:
    """E avg_x |u(t)|^p along the time grid, with member-level stderr and
    the paired-increment z-score of each step (positive = moment rose)."""

    p: float
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    increase_z: np.ndarray
    n_members: int

    def max_increase_z(self) -> float:
        return float(np.max(self.increase_z)) if self.increase_z.size else 0.0

    def rows(self) -> list:
        out = []
        for j, t in enumerate(self.times):
            zin = self.increase_z[j - 1] if j >= 1 else math.nan
            out.append([float(t), float(self.values[j]),
                        float(self.stderr[j]), zin])
        return out


def _check_trajectory(traj: Ensemble):
    if not traj.is_trajectory:
        raise ConfigurationError("expected a trajectory ensemble")


def member_moments(values: np.ndarray, p: float) -> np.ndarray:
    """The per-member part of moment_series: avg_x |u|^p of each member
    at each node of trajectory values (node, member, grid), as a (nodes,
    members) array.  Node by node, so no whole-trajectory power is
    formed."""
    if not (2 <= p < math.inf):
        raise ConfigurationError(
            f"moment order must be finite and >= 2, got {p}")
    axes = tuple(range(1, values.ndim - 1))
    return np.stack([np.mean(np.abs(v) ** p, axis=axes) for v in values])


# top-level moment orders a ladder keeps per member: the guard's 2 and 4,
# and moment-monotonicity's 2, 4, 6
LADDER_MOMENTS = (2, 4, 6)


def _pair_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L2 distance of every member at every node, (nodes, members); node
    by node, so no whole-trajectory difference is formed."""
    return np.stack([l2_norm(grid, a[j] - b[j]) for j in range(a.shape[0])])


def ladder_series(grid: Grid, solutions: dict) -> np.ndarray:
    """The per-member part of a ladder, from rung trajectory values (node,
    member, grid) keyed by level in increasing order: a (nodes, members,
    k) array holding the L2 distance of every level pair (n_lo, n_hi), in
    the order of itertools.combinations, then the top level's
    member_moments for each p of LADDER_MOMENTS.  Members are independent
    here, so member chunks' series join along axis 1 into the whole
    batch's."""
    levels = list(solutions)
    top = solutions[levels[-1]]
    return np.stack(
        [_pair_distance(grid, solutions[a], solutions[b])
         for a, b in combinations(levels, 2)]
        + [member_moments(top, p) for p in LADDER_MOMENTS], axis=-1)


def ladder_moments(series: np.ndarray) -> dict:
    """The top level's member_moments of a ladder_series, p -> (nodes,
    members), for each p of LADDER_MOMENTS.  Contiguous copies, so the
    member-axis reductions see the layout member_moments returns."""
    k = len(LADDER_MOMENTS)
    return {p: np.ascontiguousarray(series[..., i - k])
            for i, p in enumerate(LADDER_MOMENTS)}


def ladder_sup_distances(series: np.ndarray, levels: list) -> dict:
    """(n_lo, n_hi) -> the time-sup of the rms-over-members L2 distance
    between those two levels' solutions, from a ladder_series of the
    given levels."""
    return {pair: float(np.max(np.sqrt(np.mean(series[..., i] ** 2, axis=1))))
            for i, pair in enumerate(combinations(levels, 2))}


def reduce_moments(times: np.ndarray, per_member: np.ndarray,
                   p: float) -> MomentSeries:
    """The member-axis part of moment_series, on the member_moments of
    every member in member order."""
    series, stderr = member_mean(per_member, axis=1)
    # paired member increments: much tighter than differencing two
    # independent error bars when members are common between nodes
    increase = z_score(*member_mean(np.diff(per_member, axis=0), axis=1))
    return MomentSeries(p, times, series, stderr, increase,
                        per_member.shape[1])


def moment_series(traj: Ensemble, p: float) -> MomentSeries:
    """E avg_x |u|^p along a whole trajectory: member_moments, then
    reduce_moments."""
    _check_trajectory(traj)
    return reduce_moments(traj.times, member_moments(traj.values, p), p)


def _dirichlet_rate(grid: Grid, sym: np.ndarray, node: np.ndarray) -> np.ndarray:
    """-2 avg_x |(-lap)^{s/2} u|^2 per member of one node's (member, grid)
    values, via Parseval on the half spectrum; sym is |k|^{2s} on the half
    spectrum with the Parseval weights folded in."""
    axes = tuple(range(1, node.ndim))
    coeffs = real_forward_transform(grid, node)
    return -2.0 * np.sum(sym * np.abs(coeffs) ** 2, axis=axes) \
        / grid.len ** (2 * grid.d)


def _time_derivative(times: np.ndarray, series: np.ndarray) -> tuple:
    """Centered differences inside, one-sided at the ends; the boolean
    mask flags the low-confidence endpoint rows."""
    n = times.size
    out = np.empty_like(series)
    out[0] = (series[1] - series[0]) / (times[1] - times[0])
    out[-1] = (series[-1] - series[-2]) / (times[-1] - times[-2])
    if n > 2:
        out[1:-1] = (series[2:] - series[:-2]) \
            / (times[2:] - times[:-2]).reshape((-1,) + (1,) * (series.ndim - 1))
    low_confidence = np.zeros(n, dtype=bool)
    low_confidence[0] = low_confidence[-1] = True
    return out, low_confidence


def _check_resolution(times: np.ndarray, m2_0: float, rate_0: float):
    decay_time = m2_0 / abs(rate_0) if rate_0 != 0 else math.inf
    max_step = float(np.max(np.diff(times)))
    if max_step > _DT_FRACTION * decay_time:
        raise ResolutionError(
            f"time step {max_step:.3g} too coarse for finite differences: "
            f"exceeds {_DT_FRACTION:g} of the decay time {decay_time:.3g}"
        )
    return decay_time


@dataclass
class DissipationReport:
    """d/dt E u^2 against -2 E |(-lap)^{s/2} u|^2, node by node.

    lhs, rhs, residual and stderr are member-level statistics; rows where
    low_confidence is set use one-sided differences (endpoints) and carry
    first-order bias.  rhs <= 0 always: it is minus a sum of squares.
    """

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    stderr: np.ndarray
    low_confidence: np.ndarray
    decay_time: float
    n_members: int

    def rows(self) -> list:
        return [[float(self.times[j]), float(self.lhs[j]), float(self.rhs[j]),
                 float(self.residual[j]), float(self.stderr[j]),
                 float(self.low_confidence[j])]
                for j in range(self.times.size)]


def dissipation_series(traj: Ensemble, s: float) -> np.ndarray:
    """The per-member part of dissipation_residual: (nodes, members, 2)
    holding m2 = avg_x u^2 and the Dirichlet rate of each member at each
    node.  Members are independent here, so a member chunk's series is
    the whole batch's series at that chunk's members.  Node by node, so
    the temporaries are one node's size, never the trajectory's."""
    _check_trajectory(traj)
    values = traj.values
    axes = tuple(range(1, values.ndim - 1))
    out = np.empty(values.shape[:2] + (2,))
    grid = traj.grid
    sym = half_spectrum(grid, grid.k_abs ** (2.0 * s)) * half_spectrum_weights(grid)
    for j, node in enumerate(values):
        out[j, :, 0] = np.mean(node**2, axis=axes)
        out[j, :, 1] = _dirichlet_rate(grid, sym, node)
    return out


def reduce_dissipation(times: np.ndarray, series: np.ndarray) -> DissipationReport:
    """The member-axis part of dissipation_residual, on the
    dissipation_series of every member in member order."""
    m2 = np.ascontiguousarray(series[..., 0])
    rate = np.ascontiguousarray(series[..., 1])
    lhs_members, low_confidence = _time_derivative(times, m2)
    # before the resolution check: one member is a configuration error
    residual, stderr = member_mean(lhs_members - rate, axis=1)
    decay_time = _check_resolution(times, float(m2[0].mean()),
                                   float(rate[0].mean()))
    return DissipationReport(
        times=times,
        lhs=lhs_members.mean(axis=1),
        rhs=rate.mean(axis=1),
        residual=residual,
        stderr=stderr,
        low_confidence=low_confidence,
        decay_time=decay_time,
        n_members=series.shape[1],
    )


def dissipation_residual(traj: Ensemble, s: float) -> DissipationReport:
    """The dissipation identity on a whole trajectory: dissipation_series,
    then reduce_dissipation."""
    return reduce_dissipation(traj.times, dissipation_series(traj, s))


def convexity_members(ens_w: Ensemble, a: float, b: float,
                      op: MultiplierOp) -> tuple:
    """Each member's two increment forms of the convexity inequality
    E[(P - I)(theta |w|^a) theta |w|^b] <= ab E[(P - I)|w| |w|] with
    theta = sgn(w), for a + b = 2, under the multiplier op (the semigroup
    P_h is semigroup_multiplier(grid, s, h)): (lhs, rhs), one number per
    member each, avg_x of the integrand.

    Both sides are increment forms: the h = 0 diagonal E|w|^2 is
    subtracted (theta |w|^a theta |w|^b = |w|^2 pointwise), which is what
    makes the constant ab sharp for ab < 1.  Under P_h the slack
    ab rhs - lhs is then a kernel average of (th1 x^a - th2 y^a)
    (th1 x^b - th2 y^b) - ab (x - y)^2 >= 0, so it is nonnegative
    realization by realization, not only in the mean."""
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise ConfigurationError(f"powers must be positive, got a={a}, b={b}")
    if abs(a + b - 2.0) > 1e-12:
        raise ConfigurationError(f"powers must satisfy a + b = 2, got {a + b}")
    grid = ens_w.grid
    w = ens_w.values
    theta = np.sign(w)
    absw = np.abs(w)
    axes = tuple(range(1, w.ndim))
    part_a = theta * absw**a
    part_b = theta * absw**b
    lhs_field = (apply_multiplier_values(grid, part_a, op,
                                         context="convexity lhs")
                 - part_a) * part_b
    rhs_field = (apply_multiplier_values(grid, absw, op,
                                         context="convexity rhs")
                 - absw) * absw
    return np.mean(lhs_field, axis=axes), np.mean(rhs_field, axis=axes)


def format_table(header: list, rows: list) -> str:
    """Tab-separated table with a # header line and %.12e cells."""
    lines = ["#" + "\t".join(header)]
    for row in rows:
        lines.append("\t".join(f"{float(v):.12e}" for v in row))
    return "\n".join(lines) + "\n"
