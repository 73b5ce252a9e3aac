"""Mild-solution machinery for  du/dt + (-lap)^s u = grad_z f(u)  on the
torus: the Duhamel map F, global Picard iteration in a Bielecki norm, a
node-to-node exponential integrator as an independent cross-check, the
contraction-constant calculator, and the cut-off ladder for polynomially
growing f.

Time integration is mode-exact product integration: on each subinterval
f(u(tau)) is interpolated linearly and the integral

    int e^{-(t - tau) |k|^{2s}} g(tau) dtau

is evaluated in closed form per mode via the phi functions

    phi1(a) = (1 - e^{-a}) / a,    phi2(a) = (e^{-a} - 1 + a) / a^2,

so the singular prefactor of the continuum gradient estimate never enters
the quadrature.  The recurrence

    v_{j+1} = e^{-a_j} v_j + h_j (phi1 - phi2)(a_j) g_j + h_j phi2(a_j) g_{j+1}

with a_j = |k|^{2s} h_j and g_j the coefficients of grad_z f(u(t_j))
accumulates the integral exactly for piecewise linear g; started at
v_0 = u0_hat, it carries the free flow P_t u0 too.  So f = 0 needs no
solve of its own: its first Picard iterate P_t u0 is the fixed point,
and one sweep confirms it to round-off.

Every field in the solvers is real, so the sweeps run on the half spectrum
(rfft layout, see :mod:`fracflow.spectral`): the plan's symbols are the
rfft-layout slices of the full ones, and the inverse transform returns real
fields by construction.  The coefficients are unscaled (real_dft, without
the dx**d factor, which the inverse transform would only divide out again),
and grad_z with its dealiasing mask is folded into the two complex step
weights, so g_j above is the plain transform of f(u(t_j)).  f(u0) does not
change between Picard sweeps: it is evaluated once per solve, and the part
of node 1 it fixes, e^{-a_0} u0_hat + (weight)_0 f(u0)_hat, is carried
across sweeps in place of u0_hat.  Non-finite values are checked once per
sweep, on its residual, which any NaN or inf in the sweep makes non-finite.

The solvers take the initial data as a snapshot :class:`Ensemble` (a single
field is a one-member batch) and return its trajectory, an Ensemble with
the config's time grid as node times and the initial data's seeds.

The cut-off ladder's rung reuse lives in :func:`_ladder_solve` alone: it
re-solves, level by level, only the members whose cut-off bound on the
level below, through the same batch solve as every other caller, returns
the ladder whole with its stacked residual history and names the level a
numeric failure happened at.  This module only solves: the ladder's
series live in :mod:`fracflow.ensemble_stats`, its checks with the
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    NonContractionError,
    NumericError,
    StepSizeError,
    from_record,
    require_number,
)
from .random_fields import Ensemble
from .spectral import (
    Grid,
    _check_s,
    directional_derivative_multiplier,
    gradient_constant,
    half_spectrum,
    half_spectrum_weights,
    real_dft,
    real_idft,
    spatial_rms,
)

NONLINEARITY_KINDS = ("zero", "lipschitz_tanh", "burgers_quadratic", "polynomial")

# series switch for the phi functions; below this the closed forms lose
# digits to cancellation and a 4-term Taylor expansion is exact to ~1e-14
_PHI_SERIES_CUT = 1e-2


def cutoff_map(x, level: float):
    """h_n(x) = min(|x|, n) sgn(x): radial truncation at level n, as a new
    float64 array."""
    if not (level > 0 and math.isfinite(level)):
        raise ConfigurationError(f"cutoff level must be positive, got {level}")
    out = np.maximum(x, -level, out=np.empty(np.shape(x)))
    return np.minimum(out, level, out=out)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Flux nonlinearity f, optionally composed with the cut-off h_n.

    Kinds: "zero"; "lipschitz_tanh" (f = L tanh(x), globally Lipschitz);
    "burgers_quadratic" (f = x^2/2); "polynomial" (f = C x |x|^q / (q+1),
    which satisfies the two-point growth bound
    |f(x)-f(y)| <= C |x-y| (|x|^q + |y|^q) with the stored C).
    Every kind has f(0) = 0.
    """

    kind: str
    scale: float = 1.0       # L for lipschitz_tanh, C for polynomial
    exponent: float = 1.0    # q, polynomial only
    cutoff_level: float | None = None

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ConfigurationError(
                f"unknown nonlinearity kind {self.kind!r}; "
                f"choose from {NONLINEARITY_KINDS}"
            )
        scale = require_number(self.scale, "nonlinearity 'scale'")
        if not (scale >= 0 and math.isfinite(scale)):
            raise ConfigurationError(f"scale must be >= 0, got {self.scale}")
        exponent = require_number(self.exponent, "nonlinearity 'exponent'")
        if not (exponent >= 0 and math.isfinite(exponent)):
            raise ConfigurationError(f"exponent must be >= 0, got {self.exponent}")
        if self.cutoff_level is not None and not (
            require_number(self.cutoff_level, "cutoff level") > 0
            and math.isfinite(self.cutoff_level)
        ):
            raise ConfigurationError(
                f"cutoff level must be positive, got {self.cutoff_level}"
            )

    # -------------------------------------------------- factories

    @classmethod
    def zero(cls) -> "NonlinearitySpec":
        return cls("zero", scale=0.0)

    @classmethod
    def tanh(cls, lipschitz: float, cutoff_level: float | None = None) -> "NonlinearitySpec":
        return cls("lipschitz_tanh", scale=lipschitz, cutoff_level=cutoff_level)

    @classmethod
    def burgers(cls, cutoff_level: float | None = None) -> "NonlinearitySpec":
        return cls("burgers_quadratic", cutoff_level=cutoff_level)

    @classmethod
    def power(cls, scale: float, exponent: float,
              cutoff_level: float | None = None) -> "NonlinearitySpec":
        return cls("polynomial", scale=scale, exponent=exponent,
                   cutoff_level=cutoff_level)

    # -------------------------------------------------- behavior

    def evaluate(self, x):
        """Pointwise f(h_n(x)) (plain f when no cutoff is set)."""
        y = np.asarray(x, dtype=np.float64)
        if self.cutoff_level is not None:
            y = cutoff_map(y, self.cutoff_level)
        if self.kind == "zero":
            return np.zeros_like(y)
        if self.kind == "lipschitz_tanh":
            out = np.tanh(y)
            out *= self.scale
            return out
        if self.kind == "burgers_quadratic":
            out = 0.5 * y
            out *= y
            return out
        q = self.exponent
        if q == 0.0:
            return self.scale * y
        return self.scale * y * np.abs(y) ** q / (q + 1.0)

    def effective_lipschitz(self) -> float:
        """sup |f'| over the reachable range [-n, n] (inf without cutoff
        for the superlinear kinds)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "lipschitz_tanh":
            return self.scale
        n = self.cutoff_level
        if self.kind == "burgers_quadratic":
            return float(n) if n is not None else math.inf
        q = self.exponent
        if q == 0.0:
            return self.scale        # linear flux: f' = C globally
        return self.scale * float(n) ** q if n is not None else math.inf

    @property
    def polynomial_degree(self) -> int | None:
        if self.kind == "zero":
            return 0
        if self.kind == "burgers_quadratic":
            return 2
        if self.kind == "polynomial" and float(self.exponent).is_integer():
            return int(self.exponent) + 1
        return None

    @property
    def dealias_default(self) -> bool:
        """2/3-rule truncation on by default for the polynomial kinds."""
        deg = self.polynomial_degree
        return deg is not None and deg >= 2

    @classmethod
    def from_record(cls, record: dict) -> "NonlinearitySpec":
        return from_record(cls, record, "nonlinearity")


def dealias_mask(grid: Grid) -> np.ndarray:
    """Boolean keep-mask of the 2/3 rule: drop modes with any index
    component above n/3 so quadratic products cannot alias back."""
    return grid.mode_index <= grid.n // 3


# ------------------------------------------------------------------ config

@dataclass
class SolverConfig:
    """Shared knobs of the mild-solution solvers.

    time_grid starts at 0 and is strictly increasing; bielecki_k is the
    exponential weight K of the norm sup_j e^{-K t_j} ||.||; the stopping
    tolerance is absolute in that norm (relative variants would stall on
    near-zero-mass fields).  The 2/3 dealiasing mask follows the
    nonlinearity kind (NonlinearitySpec.dealias_default).
    """

    s: float
    z: object
    time_grid: np.ndarray
    bielecki_k: float = 1.0
    tol: float = 1e-8
    max_iter: int = 40

    def __post_init__(self):
        self.s = _check_s(require_number(self.s, "solver 's'"), low_open=0.5)
        try:
            t = np.asarray(self.time_grid)
        except ValueError:          # ragged nesting
            t = None
        if t is None or t.dtype.kind not in "iuf":
            raise ConfigurationError(
                f"time_grid must be a list of numbers, got {self.time_grid!r}")
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ConfigurationError("time_grid must hold at least [0, t1]")
        if t[0] != 0.0:
            raise ConfigurationError(f"time_grid must start at 0, got {t[0]}")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise ConfigurationError("time_grid must be finite and strictly increasing")
        self.time_grid = t
        k = require_number(self.bielecki_k, "solver 'bielecki_k'")
        if not (k >= 0 and math.isfinite(k)):
            raise ConfigurationError(f"bielecki_k must be >= 0, got {self.bielecki_k}")
        if not (require_number(self.tol, "solver 'tol'") > 0):
            raise ConfigurationError(f"tol must be positive, got {self.tol}")
        self.max_iter = require_number(self.max_iter, "solver 'max_iter'",
                                       integer=True)
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")

    @classmethod
    def from_record(cls, record: dict) -> "SolverConfig":
        return from_record(cls, record, "solver")


# ------------------------------------------------------------------ diagnostics

@dataclass
class PicardDiagnostics:
    """Per-iteration residuals of the fixed-point iteration plus the
    theoretical contraction bound rho_multiplier they are compared
    against, built on the closed-form constant sup_r r e^{-r^{2s}}.
    Each residual is the largest over the members still iterating at that
    sweep; unconverged_members of its members were above tol at the last.
    """

    residuals: list
    rho_multiplier: float
    unconverged_members: int
    members: int

    @property
    def converged(self) -> bool:
        return self.unconverged_members == 0

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def ratios(self) -> list:
        """Successive residual ratios (after a zero residual, none)."""
        r = self.residuals
        return [b / a for a, b in zip(r, r[1:]) if a > 0]


# ------------------------------------------------------------------ phi weights

def _phi1(alpha: np.ndarray) -> np.ndarray:
    out = np.empty_like(alpha)
    small = alpha <= _PHI_SERIES_CUT
    a = alpha[small]
    out[small] = 1.0 - a / 2.0 + a**2 / 6.0 - a**3 / 24.0 + a**4 / 120.0
    b = alpha[~small]
    out[~small] = -np.expm1(-b) / b
    return out


def _phi2(alpha: np.ndarray) -> np.ndarray:
    out = np.empty_like(alpha)
    small = alpha <= _PHI_SERIES_CUT
    a = alpha[small]
    out[small] = 0.5 - a / 6.0 + a**2 / 24.0 - a**3 / 120.0 + a**4 / 720.0
    b = alpha[~small]
    out[~small] = (np.expm1(-b) + b) / b**2
    return out


class _DuhamelPlan:
    """Precomputed per-step multipliers for one (grid, spec, config)
    combination, on the half spectrum of unscaled coefficients (real_dft):
    step decay factors e^{-a_j}, the two interpolation weights folded with
    the (masked) derivative symbol, step_a = h (phi1 - phi2) i z.k and
    step_b = h phi2 i z.k, the free-flow decay at every node, and the
    Bielecki weights e^{-K t_j}.  The transforms' dx**d factor cancels
    between the forward and the inverse transform, so it never enters."""

    def __init__(self, grid: Grid, spec: NonlinearitySpec, config: SolverConfig):
        self.grid = grid
        self.spec = spec
        self.config = config
        t = config.time_grid
        lam = half_spectrum(grid, grid.k_abs ** (2.0 * config.s))
        steps = np.diff(t)
        self.n_steps = steps.size
        alpha = steps[:, None] * lam.reshape(-1)[None, :]
        shape = (self.n_steps,) + lam.shape
        self.decay = np.exp(-alpha).reshape(shape)
        # built on the full grid so MultiplierOp validates it as Hermitian,
        # which is what makes its half-spectrum slice a complete description
        deriv = directional_derivative_multiplier(grid, config.z).values
        if spec.dealias_default:
            deriv = deriv * dealias_mask(grid)
        deriv = half_spectrum(grid, deriv)
        w_a = (steps[:, None] * (_phi1(alpha) - _phi2(alpha))).reshape(shape)
        w_b = (steps[:, None] * _phi2(alpha)).reshape(shape)
        self.step_a = w_a * deriv
        self.step_b = w_b * deriv
        self.free_decay = np.exp(-t[:, None] * lam.reshape(-1)[None, :]).reshape(
            (t.size,) + lam.shape)
        self.weights = np.exp(-config.bielecki_k * t)

    def flux_hat(self, values: np.ndarray) -> np.ndarray:
        """Unscaled coefficients of f(u); grad_z and the dealiasing mask
        are in step_a and step_b."""
        return real_dft(self.grid, self.spec.evaluate(values))

    def first_iterate(self, u0: np.ndarray) -> tuple:
        """(P_t u0 at every node, node1): the first Picard iterate, node 0
        u0 itself, and the part of node 1 of F(u) that no iterate changes,
        e^{-a_0} u0_hat + step_a[0] f(u0)_hat, which apply carries across
        sweeps.  f(u0) is evaluated and checked here, once per solve."""
        u0_hat = real_dft(self.grid, u0)
        current = np.empty((self.n_steps + 1,) + u0.shape)
        current[0] = u0
        for j in range(1, self.n_steps + 1):
            current[j] = real_idft(self.grid, self.free_decay[j] * u0_hat)
        node1 = u0_hat
        node1 *= self.decay[0]
        g0 = self.spec.evaluate(u0)
        if not np.all(np.isfinite(g0)):
            raise _non_finite(self.spec)
        g0_hat = real_dft(self.grid, g0)
        g0_hat *= self.step_a[0]
        node1 += g0_hat
        return current, node1

    def apply(self, node1: np.ndarray, values: np.ndarray,
              members: np.ndarray | None = None,
              reach: np.ndarray | None = None) -> np.ndarray:
        """Overwrite u, given by ``values`` on every node, with F(u) and
        return each member's Bielecki distance between the two,
        sup_j e^{-K t_j} rms_x, accumulated node by node while each new
        node is still in cache.

        ``node1`` is first_iterate's constant for the whole batch, and
        ``values[0]`` must hold u0 = F(u)(0); it is left as it is.
        ``members`` (integer indices into the batch axis) restricts the
        sweep to those rows and leaves the others untouched; None sweeps
        the whole batch through plain slices, so nothing is gathered.
        ``reach``, one entry per swept row, is raised in place to each
        row's max |u| over the flux inputs, nodes 1..N of u.
        Overwriting in place is safe: node j+1 of F(u) reads u only at
        nodes j and j+1, node j enters through the flux carried from the
        previous step, and node j+1 is read into ``g`` before it is
        written.  A non-finite flux anywhere in the sweep makes its
        member's distance non-finite (NaN or inf survive every transform
        and product here), so the caller checks the distances alone.
        """
        rows = () if members is None else (members,)
        vhat = node1.copy() if members is None else node1[members]
        dist = np.zeros(vhat.shape[:vhat.ndim - self.grid.d])
        for j in range(self.n_steps):
            if j:
                vhat *= self.decay[j]
                g *= self.step_a[j]
                vhat += g
                del g                 # freed before the next flux is formed
            old = values[j + 1][rows]
            if reach is not None:
                np.maximum(reach, _abs_max(self.grid, old), out=reach)
            g = self.flux_hat(old)
            vhat += self.step_b[j] * g
            new = real_idft(self.grid, vhat)
            # old is a view of node j+1 or a gathered copy, and new
            # overwrites it next: it holds the difference meanwhile
            diff = np.subtract(new, old, out=old)
            np.maximum(dist, self.weights[j + 1] * spatial_rms(self.grid, diff),
                       out=dist)
            values[j + 1][rows] = new
        return dist


def _abs_max(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Each member's max |u| over every grid axis (NaN where u holds one);
    two reductions, so no |u| array is formed."""
    axes = tuple(range(-grid.d, 0))
    return np.maximum(np.max(values, axis=axes), -np.min(values, axis=axes))


def _non_finite(spec: NonlinearitySpec) -> NumericError:
    return NumericError(
        f"nonlinearity {spec.kind!r} produced non-finite values")


def _check_initial(initial: Ensemble, spec: NonlinearitySpec):
    """The checks every solver makes on its input."""
    if initial.is_trajectory:
        raise ConfigurationError("initial data must be a snapshot ensemble")
    if not math.isfinite(spec.effective_lipschitz()):
        raise ConfigurationError(
            f"nonlinearity {spec.kind!r} is not globally Lipschitz; "
            "set cutoff_level to run it through the cut-off map"
        )


def _multiplier_rho(config: SolverConfig, lipschitz: float) -> float:
    if lipschitz == 0.0:
        return 0.0
    if not math.isfinite(lipschitz) or config.bielecki_k <= 0.0:
        return math.inf
    return contraction_bound(config.s, lipschitz, config.bielecki_k)


def picard_solve(initial: Ensemble, spec: NonlinearitySpec,
                 config: SolverConfig) -> tuple:
    """Global fixed-point iteration u_1 = P_t u0, u_{m+1} = F(u_m).

    Each member stops on its own once the discrete Bielecki residual of
    its successive iterates is <= config.tol; its trajectory is then the
    iterate of that sweep, so the result per member equals an
    independent single-member run.  The batch's residual at a sweep is
    the largest over the members still iterating, and the batch has
    converged when no member is left.  Raises NonContractionError when
    the iteration cap is reached with a net-growing residual; a capped
    but non-growing run returns with converged = False and the count of
    members still above tol in diag.unconverged_members.
    """
    traj, history = _picard_iterate(initial, spec, config)
    return traj, _diagnostics(history, spec, config)


def _picard_iterate(initial: Ensemble, spec: NonlinearitySpec,
                    config: SolverConfig,
                    reach: np.ndarray | None = None) -> tuple:
    """picard_solve without _diagnostics: the trajectory and the residual
    history, (max_iter, members), each member's residual at every sweep
    and -inf where it did not sweep.  Member chunks return the history
    as it is; the parent joins the chunks' histories along the member
    axis and judges the whole batch's once.  ``reach``, one entry per
    member, is raised in place to each member's max |u| over every flux
    input of every sweep it ran.
    """
    _check_initial(initial, spec)
    grid, u0 = initial.grid, initial.values
    plan = _DuhamelPlan(grid, spec, config)
    history = np.full((config.max_iter, u0.shape[0]), -np.inf)
    # a non-finite f(u0) or sweep shows in the check of f(u0) or in the
    # sweep's residual and is raised as NumericError there; numpy's
    # warnings on the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        current, node1 = plan.first_iterate(u0)
        active = None                 # None: every member still iterates
        for sweep in range(config.max_iter):
            rows = slice(None) if active is None else active
            swept_reach = None if reach is None else reach[rows]
            member_dist = plan.apply(node1, current, active, swept_reach)
            if not math.isfinite(float(np.max(member_dist))):
                raise _non_finite(spec)
            history[sweep, rows] = member_dist
            if reach is not None:
                reach[rows] = swept_reach
            going = member_dist > config.tol
            if not going.any():
                break
            if not going.all():
                active = np.flatnonzero(going) if active is None else active[going]
    return Ensemble(grid, current, config.time_grid, initial.seeds), history


def _diagnostics(history: np.ndarray, spec: NonlinearitySpec,
                 config: SolverConfig) -> PicardDiagnostics:
    """The PicardDiagnostics of a residual history as _picard_iterate
    returns it: at each sweep the largest residual of the members that
    ran it, and the members still above tol at the last sweep.  Raises
    NonContractionError when the solve stopped unconverged after at
    least two sweeps with its last residual above its first."""
    # every member sweeps from the first sweep on, so the swept rows lead
    largest = np.max(history, axis=1)
    r = largest[largest > -np.inf].tolist()
    unconverged = int(np.count_nonzero(history[-1] > config.tol))
    rho = _multiplier_rho(config, spec.effective_lipschitz())
    if unconverged and len(r) >= 2 and r[-1] > r[0]:
        raise NonContractionError((r[-1] / r[0]) ** (1.0 / (len(r) - 1)),
                                  rho, len(r))
    return PicardDiagnostics(residuals=r, rho_multiplier=rho,
                             unconverged_members=unconverged,
                             members=history.shape[1])


def step_solve(initial: Ensemble, spec: NonlinearitySpec,
               config: SolverConfig) -> Ensemble:
    """March node to node with the same product-integration weights,
    restarting the Duhamel identity on each subinterval.

    The one implicit coefficient (the flux at the arriving node) is
    resolved by at most 5 fixed-point sweeps; a growing sweep residual
    raises StepSizeError.  Independent of picard_solve's iteration path,
    so agreement between the two validates both.
    """
    _check_initial(initial, spec)
    grid, u0 = initial.grid, initial.values
    plan = _DuhamelPlan(grid, spec, config)
    out = np.empty((config.time_grid.size,) + u0.shape)
    out[0] = u0
    state_hat = real_dft(grid, u0)
    parseval = half_spectrum_weights(grid)
    # rms_x of a field from its unscaled coefficients c, by Parseval:
    # sqrt(sum w |c|^2) dx**d / len**d
    rms_scale = grid.cell_volume / grid.len**grid.d
    # raised below as NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(plan.n_steps):
            g_here = plan.flux_hat(out[j])
            base = plan.decay[j] * state_hat + plan.step_a[j] * g_here
            cur_hat = base + plan.step_b[j] * g_here   # predictor: flux frozen
            prev_diff = math.inf
            for _ in range(5):
                cur_vals = real_idft(grid, cur_hat)
                new_hat = base + plan.step_b[j] * plan.flux_hat(cur_vals)
                sq = np.sum(parseval * np.abs(new_hat - cur_hat) ** 2,
                            axis=tuple(range(-grid.d, 0)))
                diff = float(np.max(np.sqrt(sq))) * rms_scale
                if not math.isfinite(diff):
                    raise _non_finite(spec)
                if diff > prev_diff * (1.0 + 1e-12):
                    raise StepSizeError(
                        f"inner loop diverging at step {j} "
                        f"(t = {config.time_grid[j]:.6g} -> "
                        f"{config.time_grid[j + 1]:.6g}); refine the time grid"
                    )
                cur_hat = new_hat
                if diff <= 1e-12 * (1.0 + float(np.max(np.abs(cur_vals)))):
                    break
                prev_diff = diff
            state_hat = cur_hat
            out[j + 1] = real_idft(grid, state_hat)
    return Ensemble(grid, out, config.time_grid, initial.seeds)


# ------------------------------------------------------------------ constants

def contraction_bound(s: float, lipschitz: float, bielecki_k: float) -> float:
    """rho(K) = c_s L K^{-1 + 1/2s} Gamma(1 - 1/2s), with c_s the
    closed-form multiplier constant sup_r r e^{-r^{2s}}."""
    s = _check_s(s, low_open=0.5)
    if not (lipschitz >= 0 and math.isfinite(lipschitz)):
        raise ConfigurationError(f"lipschitz must be >= 0, got {lipschitz}")
    if not (bielecki_k > 0 and math.isfinite(bielecki_k)):
        raise ConfigurationError(f"bielecki_k must be > 0, got {bielecki_k}")
    gamma = math.gamma(1.0 - 1.0 / (2.0 * s))
    return gradient_constant(s) * lipschitz * gamma \
        * bielecki_k ** (-1.0 + 1.0 / (2.0 * s))


def minimal_K(s: float, lipschitz: float) -> float:
    """The threshold weight K0 with rho(K0) = 1:
    K0 = (c_s L Gamma(1 - 1/2s))^{2s/(2s-1)}."""
    s = _check_s(s, low_open=0.5)
    if not (lipschitz > 0 and math.isfinite(lipschitz)):
        raise ConfigurationError(f"lipschitz must be > 0, got {lipschitz}")
    a = gradient_constant(s) * lipschitz * math.gamma(1.0 - 1.0 / (2.0 * s))
    try:
        return a ** (2.0 * s / (2.0 * s - 1.0))
    except OverflowError:
        # K0 is past the float range, so rho > 1 at every representable K
        return math.inf


# ------------------------------------------------------------------ cut-off ladder

def ladder_levels(spec: NonlinearitySpec, ladder) -> list:
    """The validated cut-off levels of a ladder for a polynomial flux."""
    if spec.kind not in ("burgers_quadratic", "polynomial"):
        raise ConfigurationError(
            f"cut-off ladder applies to polynomial kinds, not {spec.kind!r}"
        )
    levels = [float(n) for n in ladder]
    if not levels:
        raise ConfigurationError("ladder must hold at least one cut-off level")
    if any(not (n > 0 and math.isfinite(n)) for n in levels):
        raise ConfigurationError("ladder levels must be positive and finite")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("ladder levels must be strictly increasing")
    return levels


def _ladder_solve(initial: Ensemble, spec: NonlinearitySpec, levels: list,
                  config: SolverConfig) -> tuple:
    """The whole ladder, each level n solved with data h_n(u0) and flux
    f(h_n(.)): (solutions, history), solutions mapping each level in
    increasing order to its trajectory values and history stacking the
    levels' residual histories in _picard_iterate's form, (levels,
    max_iter, members).  A NumericError at level n is raised again with
    "ladder level n: " before its message.

    Above the first level only the members not yet free are solved, as
    one sub-batch carrying their seeds; the others' rows and residual
    histories are copied from the level below, and a level with none
    left builds no plan.  Free are the members whose data and every flux
    input of every sweep stayed strictly inside a level.  This is exact:
    members are independent, and cutoff_map is the identity strictly
    inside a level, so a free member would sweep bit for bit the same
    again.
    """
    free = np.zeros(initial.n_members, dtype=bool)
    history = np.empty((len(levels), config.max_iter, initial.n_members))
    solutions, values = {}, None
    for i, n in enumerate(levels):
        history[i] = history[i - 1] if i else -np.inf
        todo = np.flatnonzero(~free)
        if todo.size:
            # the level's data h_n(u0), for the members to solve only
            sub = Ensemble(initial.grid, cutoff_map(initial.values[todo], n),
                           seeds=[initial.seeds[m] for m in todo])
            # the clipped data reach n exactly where the raw data do, so
            # they decide for the raw data too; the top level frees none
            reach = _abs_max(sub.grid, sub.values) if n < levels[-1] else None
            try:
                traj, history[i][:, todo] = _picard_iterate(
                    sub, replace(spec, cutoff_level=n), config, reach)
            except NumericError as exc:
                raise NumericError(f"ladder level {n:g}: {exc}") from exc
            if todo.size == free.size:
                values = traj.values
            else:
                values = values.copy()
                values[:, todo] = traj.values
            del sub, traj             # freed before the next level's data
            if reach is not None:
                free[todo] = reach < n
        solutions[n] = values
    return solutions, history
