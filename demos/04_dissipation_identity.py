"""Two ensemble identities checked by Monte Carlo.

First the energy balance d/dt E u^2 = -2 E |(-lap)^{s/2} u|^2 along a
nonlinear run (the flux term is a perfect derivative, so it cannot move
energy on average).  Then the kernel convexity inequality
E[(P_h - I)(sgn w |w|^a) sgn w |w|^b] <= ab E[(P_h - I)|w| |w|] that
drives higher-moment decay.
"""

import numpy as np

from fracflow import (
    Grid,
    NonlinearitySpec,
    SolverConfig,
    convexity_members,
    gaussian_bump_measure,
    dissipation_residual,
    picard_solve,
    sample_ensemble,
    semigroup_multiplier,
)

S = 0.75
grid = Grid(d=1, n=256, len=2.0 * np.pi)
# a deterministic mean rides along for free: it adds energy that the
# flow never drains, which slows the relative decay and keeps the
# finite-difference gate honest at this step size
measure = gaussian_bump_measure(grid, width=0.6, mass=1.0, mean=1.0)
ens = sample_ensemble(measure, n_members=800, seed=23)

spec = NonlinearitySpec.tanh(0.5)
config = SolverConfig.from_record({
    "s": S, "z": [1.0],
    "time_grid": list(np.linspace(0.0, 0.1, 21)),
    "bielecki_k": 4.0, "tol": 1e-10, "max_iter": 30,
})
traj, _ = picard_solve(ens, spec, config)

report = dissipation_residual(traj, S)
print(f"== energy balance, {report.n_members} members ==")
print(f"decay time scale: {report.decay_time:.2f} "
      f"(steps must stay under 1% of this)")
print("t        d/dt E u^2    -2 dirichlet   residual    stderr")
for j in range(1, len(report.times) - 1, 4):
    print(f"{report.times[j]:.3f}   {report.lhs[j]:+.6f}    "
          f"{report.rhs[j]:+.6f}     {report.residual[j]:+.2e}   "
          f"{report.stderr[j]:.2e}")
worst = np.max(np.abs(report.residual[1:-1])
               / np.maximum(np.abs(report.rhs[1:-1]), 1e-300))
print(f"worst interior residual: {100 * worst:.4f}% of |rhs| "
      "(tolerance is 5%)")

print()
print("== kernel convexity inequality ==")
w = sample_ensemble(gaussian_bump_measure(grid, width=3.0, mass=1.0),
                    n_members=2000, seed=31)
for a, b in ((0.5, 1.5), (1.0, 1.0)):
    for h in (0.05, 0.2):
        # each member's two sides under P_h; the slack is averaged over
        # members, so its stderr is a member-level one
        lhs, rhs = convexity_members(w, a, b, semigroup_multiplier(grid, S, h))
        slack = a * b * rhs - lhs
        mean = slack.mean()
        stderr = slack.std(ddof=1) / np.sqrt(slack.size)
        print(f"a = {a}, b = {b}, h = {h:4.2f}: slack = {mean:+.5f} "
              f"+- {stderr:.5f}  (z = {mean / stderr:+.1f}, "
              f"needs >= -3)")
