"""Bounded-control optimization on the bundled small instance.

Minimizes the tracking objective by L-BFGS descent inside the control
ball, then sweeps the ball radius to exhibit the nonincreasing optimal value
and the threshold under which the three related problems order.  Artifacts
land in ``demo_out/optimize/``.
"""

import os

import numpy as np

from chemoctrl import evaluate_J, optimize, ordering_experiment, simulate
from chemoctrl.cli import load_config

OUT = os.path.join("demo_out", "optimize")
os.makedirs(OUT, exist_ok=True)

cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "optimize_small.json")
cfg = load_config(cfg_path)

print("baseline (zero control) ...")
base_traj = simulate(cfg.u0, cfg.v0, None, cfg.model, cfg.dt_max)
base = evaluate_J(base_traj, base_traj.control, cfg.cost, cfg.model.s)
print(f"  J = {base.total:.6f} "
      f"(state_u {base.state_u:.2e}, state_v {base.state_v:.6f})")

print("L-BFGS descent inside the control ball ...")
ctrl, trace = optimize(cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0,
                       cfg.dt_max)
accepted = trace.accepted_J(start=0)
print(f"  accepted objective values: {np.round(accepted, 6)}")
print(f"  best J = {trace.best_J:.6f}  "
      f"(|f|_q = {ctrl.lq_norm(cfg.cost.q):.4f} <= M = {cfg.cost.M})")
trace.to_csv(os.path.join(OUT, "trace.csv"))

print("ball-radius sweep (warm started) ...")
table = ordering_experiment(cfg.m_sweep, cfg.optimizer, cfg.cost, cfg.model,
                            cfg.u0, cfg.v0, cfg.dt_max)
for row in table.rows:
    mark = "yes" if row.threshold_ok else "no"
    print(f"  M = {row.M:4.1f}: J = {row.J:.8f}, |f|_q = {row.control_norm:.4f},"
          f" ordering threshold M >= (q/gamma_f) J: {mark}")
if table.plateau_M is not None:
    print(f"  doubling M beyond {table.plateau_M} no longer improves J")
table.to_csv(os.path.join(OUT, "m_sweep.csv"))
print(f"artifacts written to {OUT}")
