"""The linear flow e^{-t(-lap)^s} as a spectral multiplier.

Walks through the identities the harness later checks statistically:
the semigroup law, mode-wise decay at rate e^{-t|k|^{2s}}, unit kernel
mass, and the s = 1 limit where the kernel is an honest Gaussian.
"""

import numpy as np

from fracflow import (
    Grid,
    apply_multiplier_values,
    kernel_values,
    l2_norm,
    semigroup_multiplier,
)

grid = Grid(d=1, n=512, len=2.0 * np.pi)
s = 0.75

x = grid.coordinates()[0]
u0 = np.cos(3 * x) + 0.4 * np.sin(7 * x)

print(f"== semigroup law, s = {s} ==")
p_half = semigroup_multiplier(grid, s, 0.5)
p_03 = semigroup_multiplier(grid, s, 0.3)
p_08 = semigroup_multiplier(grid, s, 0.8)
two_step = apply_multiplier_values(grid, apply_multiplier_values(
    grid, u0, p_03), p_half)
one_step = apply_multiplier_values(grid, u0, p_08)
print(f"|P_0.5 P_0.3 u - P_0.8 u|_max = {np.abs(two_step - one_step).max():.3e}")

print()
print("== mode-wise decay ==")
coeffs0 = np.fft.rfft(u0)
for t in (0.1, 0.5, 1.0):
    ut = apply_multiplier_values(grid, u0, semigroup_multiplier(grid, s, t))
    coeffs = np.fft.rfft(ut)
    # mode 3 should shrink by exactly e^{-t 3^{2s}}
    measured = abs(coeffs[3]) / abs(coeffs0[3])
    target = np.exp(-t * 3.0 ** (2 * s))
    print(f"t = {t:4.1f}: |u_hat(3)| ratio = {measured:.10f}, "
          f"e^(-t 3^2s) = {target:.10f}")

print()
print("== L2 contraction ==")
norms = [float(l2_norm(grid, apply_multiplier_values(
    grid, u0, semigroup_multiplier(grid, s, t))))
    for t in np.linspace(0.0, 2.0, 9)]
drops = np.diff(norms)
print("norms:", " ".join(f"{v:.4f}" for v in norms))
print(f"strictly nonincreasing: {bool(np.all(drops <= 0))}")

print()
print("== kernel identities ==")
for t in (0.5, 1.0, 2.0):
    p = kernel_values(grid, s, t)
    mass = float(np.sum(p) * grid.dx)
    print(f"t = {t:3.1f}: sum p_t dx - 1 = {mass - 1.0:+.2e}")

wide = Grid(d=1, n=512, len=30.0)
t = 1.0
p = kernel_values(wide, 1.0, t)
y = wide.coordinates()[0]
y = np.where(y > wide.len / 2, y - wide.len, y)     # center the kernel
gauss = np.exp(-y ** 2 / (4 * t)) / np.sqrt(4 * np.pi * t)
print(f"s = 1 vs Gaussian, sup-error = {np.abs(p - gauss).max():.2e} "
      "(heat kernel limit)")
