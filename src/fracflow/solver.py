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

with a_j = |k|^{2s} h_j accumulates the integral exactly for piecewise
linear g; started at v_0 = u0_hat, it carries the free flow P_t u0 too.

Every field in the solvers is real, so the sweeps run on the half spectrum
(rfft layout, see :mod:`fracflow.spectral`): the plan's symbols are the
rfft-layout slices of the full ones, and the inverse transform returns real
fields by construction.

The solvers take the initial data as a snapshot :class:`Ensemble` (a single
field is a one-member batch) and return its trajectory, an Ensemble with
the config's time grid as node times and the initial data's seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    LadderWarning,
    NonContractionError,
    NumericError,
    StepSizeError,
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
    l2_norm,
    real_forward_transform,
    real_inverse_transform,
    spatial_rms,
)

NONLINEARITY_KINDS = ("zero", "lipschitz_tanh", "burgers_quadratic", "polynomial")

# series switch for the phi functions; below this the closed forms lose
# digits to cancellation and a 4-term Taylor expansion is exact to ~1e-14
_PHI_SERIES_CUT = 1e-2


def cutoff_map(x, level: float):
    """h_n(x) = min(|x|, n) sgn(x): radial truncation at level n."""
    if not (level > 0 and math.isfinite(level)):
        raise ConfigurationError(f"cutoff level must be positive, got {level}")
    return np.clip(x, -level, level)


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
            return self.scale * np.tanh(y)
        if self.kind == "burgers_quadratic":
            return 0.5 * y * y
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

    def to_record(self) -> dict:
        return {"kind": self.kind, "scale": self.scale,
                "exponent": self.exponent, "cutoff_level": self.cutoff_level}

    @classmethod
    def from_record(cls, record: dict) -> "NonlinearitySpec":
        if not isinstance(record, dict):
            raise ConfigurationError("nonlinearity record must be a mapping")
        extra = set(record) - {"kind", "scale", "exponent", "cutoff_level"}
        if extra:
            raise ConfigurationError(f"unknown nonlinearity keys: {sorted(extra)}")
        if "kind" not in record:
            raise ConfigurationError("nonlinearity record needs a 'kind' entry")
        return cls(record["kind"],
                   scale=record.get("scale", 1.0),
                   exponent=record.get("exponent", 1.0),
                   cutoff_level=record.get("cutoff_level"))


def dealias_mask(grid: Grid) -> np.ndarray:
    """Boolean keep-mask of the 2/3 rule: drop modes with any index
    component above n/3 so quadratic products cannot alias back."""
    keep = np.ones(grid.shape, dtype=bool)
    idx = np.fft.fftfreq(grid.n, 1.0 / grid.n)  # integer mode indices
    cut = grid.n // 3
    for ax in range(grid.d):
        shape = (1,) * ax + (grid.n,) + (1,) * (grid.d - ax - 1)
        keep &= (np.abs(idx) <= cut).reshape(shape)
    return keep


# ------------------------------------------------------------------ config

@dataclass
class SolverConfig:
    """Shared knobs of the mild-solution solvers.

    time_grid starts at 0 and is strictly increasing; bielecki_k is the
    exponential weight K of the norm sup_j e^{-K t_j} ||.||; the stopping
    tolerance is absolute in that norm (relative variants would stall on
    near-zero-mass fields).  dealias = None defers to the nonlinearity kind.
    """

    s: float
    z: object
    time_grid: np.ndarray
    bielecki_k: float = 1.0
    tol: float = 1e-8
    max_iter: int = 40
    dealias: bool | None = None

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
        if self.dealias is not None and not isinstance(self.dealias,
                                                       (bool, np.bool_)):
            raise ConfigurationError(
                f"dealias must be true, false or null, got {self.dealias!r}")

    def to_record(self) -> dict:
        z = np.atleast_1d(np.asarray(self.z, dtype=np.float64))
        return {"s": self.s, "z": z.tolist(),
                "time_grid": self.time_grid.tolist(),
                "bielecki_k": self.bielecki_k, "tol": self.tol,
                "max_iter": self.max_iter, "dealias": self.dealias}

    @classmethod
    def from_record(cls, record: dict) -> "SolverConfig":
        if not isinstance(record, dict):
            raise ConfigurationError("solver record must be a mapping")
        known = {"s", "z", "time_grid", "bielecki_k", "tol", "max_iter", "dealias"}
        extra = set(record) - known
        if extra:
            raise ConfigurationError(f"unknown solver keys: {sorted(extra)}")
        missing = {"s", "z", "time_grid"} - set(record)
        if missing:
            raise ConfigurationError(f"solver record missing: {sorted(missing)}")
        return cls(record["s"], record["z"], np.asarray(record["time_grid"]),
                   bielecki_k=record.get("bielecki_k", 1.0),
                   tol=record.get("tol", 1e-8),
                   max_iter=record.get("max_iter", 40),
                   dealias=record.get("dealias"))


# ------------------------------------------------------------------ diagnostics

@dataclass
class PicardDiagnostics:
    """Per-iteration residuals of the fixed-point iteration plus the two
    theoretical contraction bounds they are compared against.

    rho_multiplier uses the closed-form constant sup_r r e^{-r^{2s}};
    rho_kernel replaces it with the measured L1 norm of grad_z p_1 on the
    run grid (reported for reference, same K and Gamma factor).
    Each residual is the largest over the members still iterating at that
    sweep; unconverged_members counts those still above tol at the last.
    """

    residuals: list
    rho_multiplier: float
    rho_kernel: float
    bielecki_k: float
    tol: float
    converged: bool
    unconverged_members: int

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def ratios(self) -> list:
        """Successive residual ratios (after a zero residual, none)."""
        r = self.residuals
        return [b / a for a, b in zip(r, r[1:]) if a > 0]

    @classmethod
    def merge(cls, parts: list) -> "PicardDiagnostics":
        """The diagnostics of one solve run as member chunks: at each sweep
        the largest residual of the chunks still iterating, converged when
        every chunk converged, unconverged members summed.  Members iterate
        independently, so this is the whole batch's series."""
        sweeps = max(d.iterations for d in parts)
        residuals = [max(d.residuals[m] for d in parts if m < d.iterations)
                     for m in range(sweeps)]
        return replace(
            parts[0], residuals=residuals,
            converged=all(d.converged for d in parts),
            unconverged_members=sum(d.unconverged_members for d in parts))

    def raise_if_growing(self):
        """The NonContractionError rule: a solve that reached the iteration
        cap with its last residual above its first is not contracting."""
        r = self.residuals
        if not self.converged and len(r) >= 2 and r[-1] > r[0]:
            measured = (r[-1] / r[0]) ** (1.0 / (len(r) - 1))
            raise NonContractionError(measured, self.rho_multiplier,
                                      self.iterations)


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
    combination, on the half spectrum: step decay factors, the two
    interpolation weights, the free-flow decay at every node, the masked
    derivative symbol, and the Bielecki weights e^{-K t_j}."""

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
        self.w_a = (steps[:, None] * (_phi1(alpha) - _phi2(alpha))).reshape(shape)
        self.w_b = (steps[:, None] * _phi2(alpha)).reshape(shape)
        self.free_decay = np.exp(-t[:, None] * lam.reshape(-1)[None, :]).reshape(
            (t.size,) + lam.shape)
        # built on the full grid so MultiplierOp validates it as Hermitian,
        # which is what makes its half-spectrum slice a complete description
        deriv = directional_derivative_multiplier(grid, config.z).values
        use_mask = (spec.dealias_default if config.dealias is None
                    else bool(config.dealias)) and spec.dealias_default
        if use_mask:
            deriv = deriv * dealias_mask(grid)
        self.deriv = half_spectrum(grid, deriv)
        self.weights = np.exp(-config.bielecki_k * t)

    def flux_hat(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of grad_z f(u) (dealiased when configured)."""
        g = self.spec.evaluate(values)
        if not np.all(np.isfinite(g)):
            raise NumericError(
                f"nonlinearity {self.spec.kind!r} produced non-finite values"
            )
        out = real_forward_transform(self.grid, g)
        out *= self.deriv
        return out

    def free_flow(self, u0_hat: np.ndarray) -> np.ndarray:
        """P_t u0 at every node: the first Picard iterate."""
        batch = u0_hat.shape[:u0_hat.ndim - self.grid.d]
        out = np.empty((self.n_steps + 1,) + batch + self.grid.shape)
        for j in range(self.n_steps + 1):
            out[j] = real_inverse_transform(self.grid, self.free_decay[j] * u0_hat)
        return out

    def apply(self, u0_hat: np.ndarray, values: np.ndarray,
              members: np.ndarray | None = None) -> np.ndarray:
        """Overwrite u, given by ``values`` on every node, with F(u) and
        return each member's Bielecki distance between the two,
        sup_j e^{-K t_j} rms_x, accumulated node by node while each new
        node is still in cache.

        ``values[0]`` must hold u0 = F(u)(0) and is left as it is.
        ``members`` (integer indices into the batch axis) restricts the
        sweep to those rows and leaves the others untouched; None sweeps
        the whole batch through plain slices, so nothing is gathered.
        Overwriting in place is safe: node j+1 of F(u) reads u only at
        nodes j and j+1, node j enters through the flux carried from the
        previous step, and node j+1 is read into ``ghat_next`` before it
        is written.  ``vhat`` starts at u0_hat, so the free flow rides in
        the recurrence.
        """
        rows = () if members is None else (members,)
        vhat = u0_hat[rows].copy()
        dist = np.zeros(vhat.shape[:vhat.ndim - self.grid.d])
        ghat_prev = self.flux_hat(values[0][rows])
        for j in range(self.n_steps):
            old = values[j + 1][rows]
            ghat_next = self.flux_hat(old)
            vhat *= self.decay[j]
            vhat += self.w_a[j] * ghat_prev
            vhat += self.w_b[j] * ghat_next
            new = real_inverse_transform(self.grid, vhat)
            np.maximum(dist, self.weights[j + 1] * spatial_rms(self.grid, new - old),
                       out=dist)
            values[j + 1][rows] = new
            ghat_prev = ghat_next
        return dist


def duhamel_apply(traj: Ensemble, spec: NonlinearitySpec,
                  config: SolverConfig) -> Ensemble:
    """The mild-solution map F evaluated on a trajectory:
    F(u)(t_j) = P_{t_j} u(0) + int_0^{t_j} grad_z P_{t_j - tau} f(u(tau)) dtau,
    with the integral by per-mode product integration."""
    if not traj.is_trajectory:
        raise ConfigurationError("duhamel_apply needs a trajectory")
    if not np.array_equal(traj.times, config.time_grid):
        raise ConfigurationError("trajectory and config disagree on the time grid")
    grid = traj.grid
    plan = _DuhamelPlan(grid, spec, config)
    out = traj.values.copy()
    plan.apply(real_forward_transform(grid, out[0]), out)
    return Ensemble(grid, out, config.time_grid, traj.seeds)


def _check_initial(initial: Ensemble, spec: NonlinearitySpec):
    """The checks every solver makes on its input."""
    if initial.is_trajectory:
        raise ConfigurationError("initial data must be a snapshot ensemble")
    if not math.isfinite(spec.effective_lipschitz()):
        raise ConfigurationError(
            f"nonlinearity {spec.kind!r} is not globally Lipschitz; "
            "set cutoff_level to run it through the cut-off map"
        )


def _bielecki_distance(grid: Grid, config: SolverConfig,
                       a: np.ndarray, b: np.ndarray) -> float:
    """max over realizations of sup_j e^{-K t_j} rms_x difference."""
    weights = np.exp(-config.bielecki_k * config.time_grid)
    rms = spatial_rms(grid, a - b)           # (n_nodes,) + batch
    rms = np.asarray(rms).reshape(weights.size, -1)
    return float(np.max(weights[:, None] * rms))


def _kernel_rho(grid: Grid, config: SolverConfig, lipschitz: float) -> float:
    """Alternative contraction diagnostic: the measured L1 norm of
    grad_z p_1 on this grid, in place of the closed-form constant."""
    if lipschitz == 0.0:
        return 0.0
    if not math.isfinite(lipschitz):
        return math.inf
    s = config.s
    deriv = directional_derivative_multiplier(grid, config.z).values
    coeffs = half_spectrum(grid, deriv * np.exp(-grid.k_abs ** (2.0 * s)))
    vals = real_inverse_transform(grid, coeffs)
    c_kern = float(np.sum(np.abs(vals)) * grid.cell_volume)
    if config.bielecki_k <= 0.0:
        return math.inf
    gamma = math.gamma(1.0 - 1.0 / (2.0 * s))
    return c_kern * lipschitz * gamma * config.bielecki_k ** (-1.0 + 1.0 / (2.0 * s))


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
    traj, diag = _picard_iterate(initial, spec, config)
    diag.raise_if_growing()
    return traj, diag


def _picard_iterate(initial: Ensemble, spec: NonlinearitySpec,
                    config: SolverConfig) -> tuple:
    """picard_solve without the growth rule: member chunks return their
    series, and the rule is applied once to the merged one."""
    _check_initial(initial, spec)
    grid, u0 = initial.grid, initial.values
    lipschitz = spec.effective_lipschitz()
    plan = _DuhamelPlan(grid, spec, config)
    u0_hat = real_forward_transform(grid, u0)
    current = plan.free_flow(u0_hat)
    current[0] = u0
    residuals: list[float] = []
    converged = False
    active = None                     # None: every member still iterates
    for _ in range(config.max_iter):
        member_dist = plan.apply(u0_hat, current, active)
        dist = float(np.max(member_dist))
        residuals.append(dist)
        if dist <= config.tol:
            converged = True
            break
        going = member_dist > config.tol
        if not going.all():
            active = np.flatnonzero(going) if active is None else active[going]
    diag = PicardDiagnostics(
        residuals=residuals,
        rho_multiplier=_multiplier_rho(config, lipschitz),
        rho_kernel=_kernel_rho(grid, config, lipschitz),
        bielecki_k=config.bielecki_k,
        tol=config.tol,
        converged=converged,
        unconverged_members=0 if converged else int(np.count_nonzero(going)),
    )
    return Ensemble(grid, current, config.time_grid, initial.seeds), diag


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
    state_hat = real_forward_transform(grid, u0)
    parseval = half_spectrum_weights(grid)
    for j in range(plan.n_steps):
        ghat_here = plan.flux_hat(out[j])
        base = plan.decay[j] * state_hat + plan.w_a[j] * ghat_here
        cur_hat = base + plan.w_b[j] * ghat_here   # predictor: flux frozen
        prev_diff = math.inf
        for _ in range(5):
            cur_vals = real_inverse_transform(grid, cur_hat)
            new_hat = base + plan.w_b[j] * plan.flux_hat(cur_vals)
            # sweep residual as spatial rms, via Parseval on the coefficients
            sq = np.sum(parseval * np.abs(new_hat - cur_hat) ** 2,
                        axis=tuple(range(-grid.d, 0)))
            diff = float(np.max(np.sqrt(sq))) / grid.len**grid.d
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
        out[j + 1] = real_inverse_transform(grid, state_hat)
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
    expo = 2.0 * s / (2.0 * s - 1.0)
    try:
        k0 = a**expo
    except OverflowError:
        k0 = math.inf
    if math.isinf(k0):
        # closed form overflowed; bisect rho(K) = 1 on the representable range
        lo, hi = 1.0, 1e300
        if contraction_bound(s, lipschitz, hi) > 1.0:
            return math.inf
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if contraction_bound(s, lipschitz, mid) > 1.0:
                lo = mid
            else:
                hi = mid
        k0 = math.sqrt(lo * hi)
    return k0


# ------------------------------------------------------------------ cut-off ladder

@dataclass
class LadderReport:
    """Cauchy diagnostics of a cut-off ladder run.

    pair_distances maps (n_lo, n_hi) to the per-node rms-over-members L2
    distance between those two ladder solutions; sup_distances is the
    time-sup of each.  cauchy_violations counts increases of the worst
    distance as the lower cut-off level rises.  guard_z (two or more
    members only) holds per-node z-scores of the initial-data moment bound
    E|u(t)|^p <= E|h_n(u0)|^p for p = 2, 4.  diagnostics maps each level
    to the PicardDiagnostics of its solve.
    """

    levels: list
    times: np.ndarray
    pair_distances: dict
    sup_distances: dict
    cauchy_violations: int
    guard_z: dict | None
    top_level: float
    diagnostics: dict

    @property
    def unconverged_levels(self) -> list:
        """Levels whose Picard solve stopped at max_iter above tol."""
        return [n for n in self.levels if not self.diagnostics[n].converged]


def _pair_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-node L2 distance, rms over members; node by node, so no
    whole-trajectory difference is formed."""
    out = np.empty(a.shape[0])
    for j in range(a.shape[0]):
        out[j] = np.sqrt(np.mean(l2_norm(grid, a[j] - b[j]) ** 2))
    return out


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


def ladder_rung(initial: Ensemble, spec: NonlinearitySpec,
                level: float) -> tuple:
    """Initial data h_n(u0) and flux f(h_n(.)) of ladder level n."""
    return (replace(initial, values=cutoff_map(initial.values, level)),
            replace(spec, cutoff_level=level))


def solve_polynomial(initial: Ensemble, spec: NonlinearitySpec,
                     config: SolverConfig, ladder) -> tuple:
    """Approximate a polynomially growing flux by the cut-off ladder:
    for each level n solve with initial data h_n(u0) and flux f(h_n(.)),
    then measure whether the solutions form a Cauchy sequence in n.

    Returns the top-level trajectory and a LadderReport; a non-decreasing
    distance profile emits LadderWarning (the data stays in the report).
    """
    solutions = {}
    diagnostics = {}
    for n in ladder_levels(spec, ladder):
        solutions[n], diagnostics[n] = picard_solve(
            *ladder_rung(initial, spec, n), config)
    report = ladder_report(solutions, diagnostics)
    return solutions[report.top_level], report


def ladder_report(solutions: dict, diagnostics: dict) -> LadderReport:
    """The LadderReport of rung trajectories and their PicardDiagnostics,
    both keyed by level in increasing order; emits LadderWarning on a
    non-decreasing distance profile."""
    levels = list(solutions)
    top = levels[-1]
    grid, times = solutions[top].grid, solutions[top].times
    pair_distances = {}
    sup_distances = {}
    for i, ni in enumerate(levels):
        for nj in levels[i + 1:]:
            d = _pair_distance(grid, solutions[ni].values, solutions[nj].values)
            pair_distances[(ni, nj)] = d
            sup_distances[(ni, nj)] = float(np.max(d))

    violations = 0
    if len(levels) >= 3:
        worst = [max(sup_distances[(n, m)] for m in levels if m > n)
                 for n in levels[:-1]]
        violations = sum(1 for a, b in zip(worst, worst[1:]) if b > a)

    guard_z = None
    if solutions[top].n_members >= 2:
        guard_z = {}
        cut0 = solutions[top].values[0]          # h_top(u0)
        axes = tuple(range(-grid.d, 0))
        for p in (2, 4):
            start_p = np.mean(np.abs(cut0) ** p, axis=axes)
            now_p = np.stack([np.mean(np.abs(v) ** p, axis=axes)
                              for v in solutions[top].values])
            slack = start_p[None, :] - now_p          # (n_nodes, N)
            se = slack.std(axis=1, ddof=1) / math.sqrt(slack.shape[1])
            with np.errstate(invalid="ignore", divide="ignore"):
                z = np.where(se > 0, slack.mean(axis=1) / se,
                             np.where(slack.mean(axis=1) == 0, 0.0, np.inf))
            guard_z[p] = z

    report = LadderReport(
        levels=levels,
        times=times,
        pair_distances=pair_distances,
        sup_distances=sup_distances,
        cauchy_violations=violations,
        guard_z=guard_z,
        top_level=top,
        diagnostics=diagnostics,
    )
    if violations > 0:
        warnings.warn(LadderWarning(
            f"ladder distances increased {violations} time(s) as the cut-off "
            "level rose; solutions are not behaving like a Cauchy sequence",
            data=report,
        ))
    return report
