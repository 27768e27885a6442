"""Simulate the controlled system and audit its structural guarantees.

Walks through one controlled run on a 1D grid: mass conservation of the cell
density, cellwise nonnegativity of both states, domination of the
concentration by the linear comparison solution, and the weak-form residual
of the density equation.  Artifacts land in ``demo_out/simulate/``.
"""

import os

import numpy as np

from chemoctrl import (
    Grid,
    ModelParams,
    control_preset,
    field_preset,
    simulate,
    solve_comparison,
    trajectory_to_dir,
    weak_residual,
)

OUT = os.path.join("demo_out", "simulate")
os.makedirs(OUT, exist_ok=True)

# domain: unit interval, 48 cells, control acting on the left third
grid = Grid.unit_box((48,))
grid = grid.with_mask(grid.box_mask([(0.0, 1.0 / 3.0)]))
params = ModelParams(s=2.0, alpha=0.1, m=8.0, q=3.0, t_final=0.3)

u0 = field_preset(grid, "gaussian", amplitude=2.5, base=0.2, width=0.1,
                  center=[0.7])
v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.6)
control = control_preset(grid, "random", params.t_final, seed=11,
                         amplitude=3.0, times=6)

print("running the controlled system ...")
traj = simulate(u0, v0, control, params, dt_max=5e-3)
print(f"  accepted steps: {traj.dt_history.size}, "
      f"rejections: {len(traj.events)}")

mass = traj.mass_trace
print(f"  initial mass {mass[0]:.12f}, final mass {mass[-1]:.12f}")
print(f"  worst per-step relative drift: "
      f"{np.abs(np.diff(mass)).max() / mass[0]:.3e}")
print(f"  minimum density:       {traj.u.min():.3e}")
print(f"  minimum concentration: {traj.v.min():.3e}")

print("solving the dominating linear problem with the same step sizes ...")
w = solve_comparison(v0, control, params, 5e-3, dt_history=traj.dt_history)
print(f"  max(v - w) over the whole run: {(traj.v - w.w).max():.3e} "
      "(nonpositive means the bound holds)")

# constant-in-time test functions, one cell array each
ones = np.ones(grid.dims)
mode = np.cos(np.pi * grid.axis_centers(0))
print("weak-form residual of the density equation:")
print(f"  constant test function: {weak_residual(traj, ones):.3e}")
print(f"  cosine test function:   {weak_residual(traj, mode):.3e}")

trajectory_to_dir(traj, os.path.join(OUT, "trajectory"))
print(f"trajectory exported to {OUT}/trajectory "
      "(manifest.json plus u.npy, v.npy, control.npy and control_mask.npy)")
