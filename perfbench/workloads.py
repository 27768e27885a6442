"""The three benchmark workloads: generated configs, CLI calls and output checks.

A workload turns the benchmark seed into one config file and runs
``chemoctrl.cli.main`` on it in process.  Only the config file reaches the
program; every random preset gets its own seed drawn from the workload seed.
Sizes follow the fixed instances 1D 64, 2D 96^2 and 3D 24^3.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

# Every config carries the same tracking target.  ``optimize`` minimizes it;
# on the two simulation workloads it is only evaluated on the written
# trajectory, so that ``best_J`` pins their output as well.
TRACKING_COST = {
    "gamma_u": 1.0, "gamma_v": 1.0, "gamma_f": 0.1, "M": 3.0,
    "desired_u": {"preset": "constant", "value": 0.0},
    "desired_v": {"preset": "constant", "value": 1.5},
}

# The audit contract of ``cmd_simulate``, checked again from its summary.
MASS_DRIFT_LIMIT = 1e-12


def _preset_seeds(seed, n):
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _summary_problems(out_dir, need_comparison):
    summary = _read_json(os.path.join(out_dir, "audit_summary.json"))
    problems = []
    for key in ("negative_u_cells", "negative_v_cells"):
        if summary[key] != 0:
            problems.append(f"{key} = {summary[key]}")
    if not summary["mass_step_drift_rel"] <= MASS_DRIFT_LIMIT:
        problems.append(f"mass_step_drift_rel = {summary['mass_step_drift_rel']}")
    if need_comparison and summary.get("comparison_pass") is not True:
        problems.append(f"comparison_pass = {summary.get('comparison_pass')}, "
                        f"violation {summary.get('comparison_max_violation')}")
    return problems


def _trajectory_objective(cfg_path, traj_dir):
    """Tracking objective of a written trajectory, under the config's cost."""
    from chemoctrl.cli import load_config
    from chemoctrl.cost import evaluate_J
    from chemoctrl.sim import trajectory_from_dir

    cfg = load_config(cfg_path)
    traj = trajectory_from_dir(traj_dir)
    return evaluate_J(traj, traj.control, cfg.cost, cfg.model.s).total


@dataclass(frozen=True)
class Workload:
    name: str

    def config(self, seed):
        raise NotImplementedError

    def argvs(self, cfg_path, out_dir):
        """The CLI calls of one run, in order."""
        raise NotImplementedError

    def problems(self, out_dir):
        """Failed output checks of one run (an empty list when all pass)."""
        raise NotImplementedError

    def objective(self, cfg_path, out_dir):
        """The ``best_J`` of one run."""
        raise NotImplementedError


class Compare3D(Workload):
    """Bound by factorization: every step and every comparison step runs splu.

    ``save_every`` stays at its default of 1.  With ``save_every > 1`` the
    comparison is paired with the saved levels instead of the accepted steps
    and reports a false domination failure; this workload does not cover that.
    """

    def config(self, seed):
        v_seed, f_seed = _preset_seeds(seed, 2)
        return {
            "grid": {"dims": [24, 24, 24], "lengths": [1.0, 1.0, 1.0],
                     "control_box": [[0.25, 0.75]] * 3},
            "model": {"s": 1.0, "alpha": 0.1, "m": 8.0, "q": 3.0, "t_final": 0.05},
            "initial": {"u": {"preset": "gaussian", "amplitude": 2.0, "width": 0.15},
                        "v": {"preset": "random", "seed": v_seed,
                              "low": 0.9, "high": 1.1}},
            "control": {"preset": "random", "seed": f_seed, "amplitude": 1.0,
                        "times": 5},
            "sim": {"dt_max": 0.01, "save_every": 1},
            "cost": TRACKING_COST,
        }

    def argvs(self, cfg_path, out_dir):
        return [["compare", cfg_path, "--output", out_dir]]

    def problems(self, out_dir):
        return _summary_problems(out_dir, need_comparison=True)

    def objective(self, cfg_path, out_dir):
        return _trajectory_objective(cfg_path, os.path.join(out_dir, "trajectory"))


class Audit2D(Workload):
    """Bound by trajectory I/O: 51 saved 96^2 levels written, then read back."""

    def config(self, seed):
        v_seed, f_seed = _preset_seeds(seed, 2)
        return {
            "grid": {"dims": [96, 96], "lengths": [1.0, 1.0],
                     "control_box": [[0.25, 0.75]] * 2},
            "model": {"s": 1.0, "alpha": 0.1, "m": 8.0, "q": 3.0, "t_final": 0.5},
            "initial": {"u": {"preset": "gaussian", "amplitude": 2.0, "width": 0.15},
                        "v": {"preset": "random", "seed": v_seed,
                              "low": 0.9, "high": 1.1}},
            "control": {"preset": "random", "seed": f_seed, "amplitude": 1.0,
                        "times": 5},
            "sim": {"dt_max": 0.01, "save_every": 1},
            "energy": {"beta": 1e-3, "K": 1e-4},
            "cost": TRACKING_COST,
        }

    def argvs(self, cfg_path, out_dir):
        return [["simulate", cfg_path, "--output", out_dir],
                ["energy-audit", cfg_path,
                 "--trajectory", os.path.join(out_dir, "trajectory"),
                 "--output", os.path.join(out_dir, "audit")]]

    def problems(self, out_dir):
        problems = _summary_problems(out_dir, need_comparison=False)
        audit = _read_json(os.path.join(out_dir, "audit", "energy_audit.json"))
        if audit["passed"] is not True:
            problems.append(f"energy audit failed, worst residual "
                            f"{audit['worst_residual']}")
        return problems

    def objective(self, cfg_path, out_dir):
        return _trajectory_objective(cfg_path, os.path.join(out_dir, "trajectory"))


class Optimize1D(Workload):
    """Thousands of tiny simulations: per-step overhead and FD probes dominate."""

    def config(self, seed):
        v_seed, opt_seed = _preset_seeds(seed, 2)
        return {
            "grid": {"dims": [64], "lengths": [1.0], "control_box": [[0.0, 0.5]]},
            "model": {"s": 2.0, "alpha": 0.1, "m": 8.0, "q": 3.0, "t_final": 0.4},
            # best_J follows the mean of v0; a narrow range keeps it within a
            # few percent across seeds
            "initial": {"u": {"preset": "gaussian", "amplitude": 1.0, "width": 0.15},
                        "v": {"preset": "random", "seed": v_seed,
                              "low": 0.97, "high": 1.03}},
            "sim": {"dt_max": 0.02},
            "cost": TRACKING_COST,
            # stop_tol 0 runs every iteration, so the work per run is fixed
            "optimizer": {"max_iters": 16, "step0": 1.0, "shrink": 0.5,
                          "fd_epsilon": 1e-3, "basis": [3, 4], "stop_tol": 0.0,
                          "seed": opt_seed, "control_times": 9},
            "energy": {"beta": 1e-3, "K": 1.0},
        }

    def argvs(self, cfg_path, out_dir):
        return [["optimize", cfg_path, "--output", out_dir]]

    def problems(self, out_dir):
        best = self.objective(None, out_dir)
        if not math.isfinite(best):
            return [f"best_J = {best}"]
        start = float(trace_rows(out_dir)[0]["J"])
        if best > start:
            return [f"best_J {best} exceeds the zero-control objective {start}"]
        return []

    def objective(self, cfg_path, out_dir):
        return float(_read_json(os.path.join(out_dir, "best_objective.json"))["total"])


def trace_rows(out_dir):
    """Rows of the optimizer's ``trace.csv`` (empty when there is none)."""
    path = os.path.join(out_dir, "trace.csv")
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (Compare3D("compare-3d"), Audit2D("audit-2d"),
                                 Optimize1D("optimize-1d"))}
