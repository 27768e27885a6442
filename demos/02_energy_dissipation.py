"""Energy decay of the uncontrolled system and the fitted audit constants.

First an uncontrolled relaxation run shows the energy trace decreasing and
the inequality audit passing with no forcing allowance.  Then a family of
runs with scaled copies of one control shape recovers the empirical map from
control norm to the smallest admissible forcing constant, which comes out
nondecreasing.  Artifacts land in ``demo_out/energy/``.
"""

import os

import numpy as np

from chemoctrl import (
    Grid,
    ModelParams,
    build_energy_report,
    control_preset,
    energy_inequality_audit,
    field_preset,
    fit_constants,
    simulate,
)
from chemoctrl.io import write_csv

OUT = os.path.join("demo_out", "energy")
os.makedirs(OUT, exist_ok=True)

grid = Grid.unit_box((48,))
params = ModelParams(s=1.0, alpha=0.1, m=8.0, q=3.0, t_final=0.3)

print("uncontrolled relaxation run ...")
u0 = field_preset(grid, "random", seed=21, low=0.0, high=0.5)
v0 = field_preset(grid, "random", seed=22, low=0.5, high=1.5)
traj = simulate(u0, v0, None, params, dt_max=2e-3)

report = build_energy_report(traj, params)
print(f"  E(0) = {report.energy[0]:.6f}, E(T) = {report.energy[-1]:.6f}")
print(f"  energy is nonincreasing: {bool(np.all(np.diff(report.energy) <= 0))}")
report.to_json(os.path.join(OUT, "energy_report.json"))

# one integral per saved interval: their sums are the integrals over [0, T]
print(f"  dissipation integrals over [0, T]: "
      f"entropy {report.dissipation_entropy.sum():.4f}, "
      f"cross {report.dissipation_cross.sum():.4f}, "
      f"hessian {report.dissipation_hessian.sum():.4f}, "
      f"quartic {report.dissipation_quartic.sum():.4f}")

res = energy_inequality_audit(traj, params, beta=1e-3, K=0.0)
print(f"  audit residual at beta=1e-3, K=0: {res:.3e} "
      "(nonpositive means the inequality holds)")

write_csv(os.path.join(OUT, "energy_trace.csv"), ["t", "energy"],
          zip(report.times.tolist(), report.energy.tolist()))

print("\nfitting the forcing constant over a control-amplitude sweep ...")
mask_grid = grid.with_mask(grid.box_mask([(0.0, 0.25)]))
sweep_params = ModelParams(s=2.0, alpha=0.1, m=8.0, q=3.0, t_final=0.2)
u0s = field_preset(mask_grid, "gaussian", amplitude=1.0, base=0.2, width=0.12)
v0s = field_preset(mask_grid, "cosine", base=1.0, amplitude=0.4)
shape = control_preset(mask_grid, "random", sweep_params.t_final, seed=33,
                       amplitude=1.5, times=5)
trajs = []
for lam in (0.0, 1.0, 2.0, 4.0):
    ctrl = shape.scaled(lam) if lam > 0 else None
    trajs.append(simulate(u0s, v0s, ctrl, sweep_params, 2e-3))

fitted = fit_constants(trajs, sweep_params)
print(f"  fitted beta: {fitted.beta:.6g}")
rows = list(zip(fitted.control_norms.tolist(), fitted.K_values.tolist()))
for norm, K in rows:
    print(f"  |f|_q = {norm:8.4f}  ->  K = {K:.6g}")
write_csv(os.path.join(OUT, "fitted_K.csv"), ["control_norm", "K"], rows)
print(f"artifacts written to {OUT}")
