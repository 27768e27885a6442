"""Command line front end: declarative configs, subcommands and exports.

One config file (TOML or JSON, picked by extension) describes a run; flags
only override scalar fields.  Exit codes: 0 success or audit pass, 1 audit
fail, 2 config error, 3 data error, 4 infeasibility.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .cost import CostParams, DesiredState, check_admissible
from .energy import audit_pairs_to_csv, build_energy_report, energy_inequality_audit
from .grid import Field, Grid, field_from_csv
from .io import read_levels, write_levels
from .model import ModelParams
from .opt import InfeasibleBaselineError, OptimizerConfig, optimize, \
    ordering_experiment
from .presets import control_preset, desired_preset, field_preset
from .sim import Control, TrajectoryFormatError, simulate, solve_comparison, \
    trajectory_from_dir, trajectory_to_dir

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


class ConfigError(ValueError):
    """The run configuration is invalid or references missing files."""


def _load_raw_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    ext = os.path.splitext(path)[1].lower()
    try:
        if ext == ".toml":
            try:
                import tomllib
            except ImportError:
                import tomli as tomllib
            with open(path, "rb") as fh:
                return tomllib.load(fh)
        if ext == ".json":
            with open(path) as fh:
                return json.load(fh)
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    raise ConfigError(f"unsupported config extension {ext!r} (use .toml or .json)")


@dataclass
class RunConfig:
    """Validated, fully constructed run description."""

    grid: Grid
    model: ModelParams
    u0: Field
    v0: Field
    control: Control | None
    dt_max: float
    save_every: int
    compare: bool
    cost: CostParams | None
    optimizer: OptimizerConfig | None
    beta: float
    K: float
    m_sweep: list
    output_dir: str
    base_dir: str


def _build_grid(section):
    try:
        dims = [int(n) for n in section["dims"]]
    except KeyError as err:
        raise ConfigError("grid.dims is required") from err
    lengths = section.get("lengths", [1.0] * len(dims))
    if len(lengths) != len(dims):
        raise ConfigError("grid.lengths must match grid.dims in length")
    spacing = tuple(L / n for L, n in zip(lengths, dims))
    grid = Grid(tuple(dims), spacing)
    if "control_box" in section:
        grid = grid.with_mask(grid.box_mask(section["control_box"]))
    elif "control_mask" in section:
        mask = np.asarray(section["control_mask"], dtype=bool).reshape(grid.dims)
        grid = grid.with_mask(mask)
    return grid


def _build_field(grid, section, base_dir, what):
    if "csv" in section:
        path = os.path.join(base_dir, section["csv"])
        if not os.path.exists(path):
            raise ConfigError(f"{what}: file not found: {path}")
        return field_from_csv(grid, path)
    if "preset" in section:
        kw = {k: v for k, v in section.items() if k != "preset"}
        return field_preset(grid, section["preset"], **kw)
    raise ConfigError(f"{what}: give either a preset or a csv path")


def _build_control(grid, section, t_final, base_dir):
    if section is None or section.get("preset") == "none":
        return None
    if "csv" in section:
        path = os.path.join(base_dir, section["csv"])
        if not os.path.exists(path):
            raise ConfigError(f"control: file not found: {path}")
        times = np.asarray(section.get("times", [0.0, t_final]), dtype=float)
        return Control(grid, times, read_levels(path, grid.dims, times.size))
    kw = {k: v for k, v in section.items() if k != "preset"}
    return control_preset(grid, section.get("preset", "zero"), t_final, **kw)


def _build_desired(grid, section, base_dir):
    if section is None:
        return desired_preset("constant", value=0.0)
    if "csv" in section:
        path = os.path.join(base_dir, section["csv"])
        if not os.path.exists(path):
            raise ConfigError(f"desired state: file not found: {path}")
        return DesiredState.from_field(field_from_csv(grid, path))
    kw = {k: v for k, v in section.items() if k != "preset"}
    return desired_preset(section.get("preset", "constant"), **kw)


def load_config(path, overrides=None):
    """Parse and validate a config file into constructed objects."""
    raw = _load_raw_config(path)
    overrides = overrides or {}
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        grid = _build_grid(raw.get("grid", {}))
        msec = dict(raw.get("model", {}))
        if "t_final" in overrides:
            msec["t_final"] = overrides["t_final"]
        model = ModelParams(
            s=float(msec.get("s", 1.0)), alpha=float(msec.get("alpha", 0.1)),
            m=float(msec.get("m", 8.0)), q=float(msec.get("q", 3.0)),
            t_final=float(msec.get("t_final", 1.0)))
        init = raw.get("initial", {})
        u0 = _build_field(grid, init.get("u", {"preset": "zero"}), base_dir, "initial.u")
        v0 = _build_field(grid, init.get("v", {"preset": "constant", "value": 1.0}),
                          base_dir, "initial.v")
        control = _build_control(grid, raw.get("control"), model.t_final, base_dir)
        ssec = raw.get("sim", {})
        dt_max = float(overrides.get("dt_max", ssec.get("dt_max", model.t_final / 50
                                                        if model.t_final > 0 else 1.0)))
        if not (math.isfinite(dt_max) and dt_max > 0):
            raise ConfigError(f"dt_max must be finite and positive, got {dt_max}")
        save_every = int(overrides.get("save_every", ssec.get("save_every", 1)))
        if save_every < 1:
            raise ConfigError(f"save_every must be at least 1, got {save_every}")
        compare = bool(overrides.get("compare", ssec.get("compare", False)))

        cost = None
        csec = raw.get("cost")
        if csec is not None:
            cost = CostParams(
                gamma_u=float(csec.get("gamma_u", 1.0)),
                gamma_v=float(csec.get("gamma_v", 1.0)),
                gamma_f=float(csec.get("gamma_f", 1.0)),
                q=model.q,
                u_d=_build_desired(grid, csec.get("desired_u"), base_dir),
                v_d=_build_desired(grid, csec.get("desired_v"), base_dir),
                M=float(csec.get("M", 1.0)))

        # unknown keys are ignored, so older configs with fd_epsilon, seed or
        # n_starts still load
        optimizer = None
        osec = raw.get("optimizer")
        if osec is not None:
            optimizer = OptimizerConfig(
                max_iters=int(osec.get("max_iters", 25)),
                step0=float(osec.get("step0", 1.0)),
                shrink=float(osec.get("shrink", 0.5)),
                basis=tuple(int(b) for b in osec.get("basis", [2, 2])),
                stop_tol=float(osec.get("stop_tol", 1e-6)),
                control_times=int(osec.get("control_times", 9)))

        esec = raw.get("energy", {})
        beta = float(overrides.get("beta", esec.get("beta", 1e-3)))
        if not beta > 0:
            raise ConfigError(f"beta must be positive, got {beta}")
        K = float(overrides.get("K", esec.get("K", 0.0)))
        m_sweep = _positive_list("m_sweep", raw.get("m_sweep", []))
        output_dir = str(overrides.get("output_dir", raw.get("output_dir", "out")))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as err:
        raise ConfigError(f"invalid config {path}: {err}") from err
    return RunConfig(grid=grid, model=model, u0=u0, v0=v0, control=control,
                     dt_max=dt_max, save_every=save_every, compare=compare,
                     cost=cost, optimizer=optimizer, beta=beta, K=K,
                     m_sweep=m_sweep, output_dir=output_dir, base_dir=base_dir)


def _positive_list(name, values):
    """``values`` as floats, each one positive."""
    values = [float(v) for v in values]
    bad = [v for v in values if not v > 0]
    if bad:
        raise ConfigError(f"{name} values must be positive, got {bad}")
    return values


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def cmd_simulate(cfg, out_dir, compare=None):
    """Run the stepper, export the trajectory and an audit summary."""
    os.makedirs(out_dir, exist_ok=True)
    do_compare = cfg.compare if compare is None else compare
    traj = simulate(cfg.u0, cfg.v0, cfg.control, cfg.model, cfg.dt_max,
                    save_every=cfg.save_every)
    trajectory_to_dir(traj, os.path.join(out_dir, "trajectory"))

    mass = traj.mass_trace
    if mass.size > 1 and abs(mass[0]) > 0:
        step_drift = float(np.abs(np.diff(mass)).max() / abs(mass[0]))
        total_drift = float(abs(mass[-1] - mass[0]) / abs(mass[0]))
    else:
        step_drift = total_drift = 0.0
    summary = {
        "final_time": float(traj.times[-1]),
        "levels": traj.n_levels,
        "steps": int(traj.dt_history.size),
        "step_rejections": len(traj.events),
        "mass_step_drift_rel": step_drift,
        "mass_total_drift_rel": total_drift,
        "negative_u_cells": int((traj.u < 0).sum()),
        "negative_v_cells": int((traj.v < 0).sum()),
        "min_u": float(traj.u.min()),
        "min_v": float(traj.v.min()),
    }
    if do_compare:
        # paired step by step; compared at the saved levels, whose times are
        # exactly the comparison's times after the same accepted steps
        w_traj = solve_comparison(cfg.v0, cfg.control, cfg.model, cfg.dt_max,
                                  dt_history=traj.dt_history)
        w_saved = w_traj.w[np.isin(w_traj.times, traj.times)]
        violation = float((traj.v - w_saved).max())
        summary["comparison_max_violation"] = violation
        summary["comparison_pass"] = bool(violation <= 1e-10)
        np.savetxt(os.path.join(out_dir, "comparison_max_w.csv"),
                   np.column_stack([traj.times,
                                    w_saved.reshape(traj.n_levels, -1).max(axis=1)]),
                   delimiter=",", header="t,max_w", comments="")
    _write_json(os.path.join(out_dir, "audit_summary.json"), summary)

    ok = summary["negative_u_cells"] == 0 and summary["negative_v_cells"] == 0 \
        and summary["mass_step_drift_rel"] <= 1e-12 \
        and summary.get("comparison_pass", True)
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def cmd_energy_audit(cfg, traj_dir, beta, K, out_dir, alpha_sweep=None):
    """Audit a stored trajectory; exit 0 iff the worst residual is <= 0.

    The report stores the (nonnegative) housed constant; the audit itself
    accepts any requested ``K``, so adversarial negative values simply fail.
    ``alpha_sweep`` re-audits under alternative square-root shifts and writes
    one residual per value (the provable shift threshold is nonconstructive,
    so this stays a diagnostic).
    """
    alpha_sweep = _positive_list("--alpha-sweep", alpha_sweep or [])
    os.makedirs(out_dir, exist_ok=True)
    traj = trajectory_from_dir(traj_dir)
    if alpha_sweep:
        with open(os.path.join(out_dir, "alpha_sweep.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "worst_residual"])
            for alpha in alpha_sweep:
                pa = replace(traj.params, alpha=alpha)
                writer.writerow([repr(alpha),
                                 repr(energy_inequality_audit(traj, pa, beta, K))])
    report = build_energy_report(traj, traj.params, beta, max(K, 0.0))
    report.to_json(os.path.join(out_dir, "energy_report.json"))
    audit_pairs_to_csv(report.residual_pairs(K),
                       os.path.join(out_dir, "energy_residual_pairs.csv"))
    worst = report.worst_residual(K)
    # a pass tolerates round-off of the energy evaluations themselves
    floor = 1e-12 * max(1.0, float(np.abs(report.energy).max()))
    passed = bool(worst <= floor)
    _write_json(os.path.join(out_dir, "energy_audit.json"), {
        "beta": beta, "K": K, "worst_residual": worst,
        "passed": passed,
    })
    return EXIT_OK if passed else EXIT_AUDIT_FAIL


def cmd_optimize(cfg, out_dir):
    """Run the descent, export the best control, trace and admissibility report.

    The report and the cost breakdown reuse the best control's run from descent.
    """
    if cfg.cost is None or cfg.optimizer is None:
        raise ConfigError("optimize needs cost and optimizer config sections")
    os.makedirs(out_dir, exist_ok=True)
    ctrl, trace = optimize(cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0,
                           cfg.dt_max)
    trace.to_csv(os.path.join(out_dir, "trace.csv"))

    cfg.grid.to_json(os.path.join(out_dir, "grid.json"))
    write_levels(os.path.join(out_dir, "best_control.csv"), cfg.grid.dims, ctrl.values)
    _write_json(os.path.join(out_dir, "best_control_times.json"),
                {"times": [float(t) for t in ctrl.times]})

    best = trace.best
    report = check_admissible(best.traj, ctrl, cfg.cost, cfg.model, cfg.beta, cfg.K)
    report.to_json(os.path.join(out_dir, "admissibility.json"))
    _write_json(os.path.join(out_dir, "best_objective.json"), best.breakdown.to_dict())
    return EXIT_OK


def cmd_sweep(cfg, out_dir, m_values=None):
    """Objective-versus-radius table over a sweep of ball radii."""
    if cfg.cost is None or cfg.optimizer is None:
        raise ConfigError("sweep needs cost and optimizer config sections")
    values = _positive_list("--m-values", m_values) if m_values else cfg.m_sweep
    if not values or len(values) < 2:
        raise ConfigError("sweep needs at least two M values (config m_sweep)")
    os.makedirs(out_dir, exist_ok=True)
    table = ordering_experiment(values, cfg.optimizer, cfg.cost, cfg.model,
                                cfg.u0, cfg.v0, cfg.dt_max)
    table.to_csv(os.path.join(out_dir, "m_sweep.csv"))
    _write_json(os.path.join(out_dir, "m_sweep.json"), {
        "plateau_M": table.plateau_M,
        "J": [r.J for r in table.rows],
        "M": [r.M for r in table.rows],
    })
    return EXIT_OK


def _add_common(p):
    p.add_argument("config", help="TOML or JSON run configuration")
    p.add_argument("--output", help="output directory (overrides config)")
    p.add_argument("--dt-max", type=float, dest="dt_max")
    p.add_argument("--t-final", type=float, dest="t_final")
    p.add_argument("--save-every", type=int, dest="save_every")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chemoctrl",
        description="Simulate, audit and optimally control the "
                    "chemotaxis-consumption system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the controlled system")
    _add_common(p)
    p.add_argument("--compare", action="store_true", default=None,
                   help="also solve the dominating linear problem")

    p = sub.add_parser("compare", help="integrate plus paired comparison solve")
    _add_common(p)

    p = sub.add_parser("energy-audit", help="audit a stored trajectory")
    _add_common(p)
    p.add_argument("--trajectory", required=True, help="trajectory directory")
    p.add_argument("--beta", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--alpha-sweep", type=float, nargs="+", dest="alpha_sweep",
                   help="re-audit under these square-root shifts (diagnostic)")

    p = sub.add_parser("optimize", help="projected descent over the control ball")
    _add_common(p)

    p = sub.add_parser("sweep", help="objective table over ball radii")
    _add_common(p)
    p.add_argument("--m-values", type=float, nargs="+", dest="m_values")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in (
        ("dt_max", getattr(args, "dt_max", None)),
        ("t_final", getattr(args, "t_final", None)),
        ("save_every", getattr(args, "save_every", None)),
        ("beta", getattr(args, "beta", None)),
        ("K", getattr(args, "K", None)),
        ("output_dir", getattr(args, "output", None)),
    ) if v is not None}
    try:
        cfg = load_config(args.config, overrides)
        out_dir = cfg.output_dir
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, compare=args.compare)
        if args.command == "compare":
            return cmd_simulate(cfg, out_dir, compare=True)
        if args.command == "energy-audit":
            return cmd_energy_audit(cfg, args.trajectory, cfg.beta, cfg.K, out_dir,
                                    alpha_sweep=args.alpha_sweep)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, m_values=args.m_values)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TrajectoryFormatError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibleBaselineError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
