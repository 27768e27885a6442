"""Command line front end: declarative configs, subcommands and exports.

One config file (TOML or JSON, picked by extension) describes a run; the
command line names only files, plus ``energy-audit``'s diagnostic
``--alpha-sweep``.  Exit codes: 0 success or audit pass, 1 audit fail,
2 config error, 3 data error, 4 infeasible run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .cost import CostParams, DesiredState, check_admissible
from .energy import build_energy_report, energy_inequality_audit
from .grid import Field, Grid
from .io import LevelStackError, load_levels, save_levels, write_csv, write_json
from .model import ModelParams
from .opt import SHRINK, STEP0, InfeasibleBaselineError, OptimizerConfig, \
    optimize, ordering_experiment
from .presets import CONTROL_PRESETS, DESIRED_PRESETS, FIELD_PRESETS, \
    checked_number, control_preset, desired_preset, field_preset, preset_parameters
from .sim import Control, PositivityError, StiffnessError, TrajectoryFormatError, \
    check_nonnegative, simulate, solve_comparison, trajectory_from_dir, \
    trajectory_to_dir

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
    control: Control
    dt_max: float
    cost: CostParams | None
    optimizer: OptimizerConfig | None
    beta: float
    K: float
    m_sweep: list


# a config value as a finite float, or an int with integral=True, else a ConfigError
_number = functools.partial(checked_number, error=ConfigError)


# the keys each config table reads; any other key is a config error
CONFIG_KEYS = {
    "": ("grid", "model", "initial", "control", "sim", "cost", "optimizer",
         "energy", "m_sweep"),
    "grid": ("dims", "lengths", "control_box", "control_mask"),
    "model": tuple(f.name for f in fields(ModelParams)),
    "initial": ("u", "v"),
    "sim": ("dt_max",),
    "cost": ("gamma_u", "gamma_v", "gamma_f", "M", "desired_u", "desired_v"),
    # fd_epsilon and seed are no longer read, but the benchmark's generated
    # optimize config still names them (ROADMAP item 1)
    "optimizer": ("max_iters", "basis", "stop_tol", "control_times",
                  "fd_epsilon", "seed"),
    "energy": ("beta", "K"),
}

# keys whose settings are now constants, still accepted at their fixed value
# only because the benchmark's generated configs name them (ROADMAP item 1)
FIXED_KEYS = {"sim": {"save_every": 1}, "optimizer": {"step0": STEP0, "shrink": SHRINK}}


def _require_table(section, what):
    if not isinstance(section, dict):
        raise ConfigError(f"{what} must be a table, got {section!r}")
    return section


def _table(raw, name):
    """Config table ``name`` of ``raw`` (``""`` for the top level), empty
    when absent.

    A table that is not a mapping, or a key it does not read, raises
    :class:`ConfigError` naming the key.
    """
    what = name or "the config"
    section = _require_table(raw if name == "" else raw.get(name, {}), what)
    fixed = FIXED_KEYS.get(name, {})
    extra = sorted(set(section) - set(CONFIG_KEYS[name]) - set(fixed))
    if extra:
        key = f"{name}.{extra[0]}" if name else extra[0]
        raise ConfigError(f"unknown config key {key}; {what} takes "
                          f"{sorted(CONFIG_KEYS[name])}")
    for key, value in fixed.items():
        if key in section and _number(section[key], f"{name}.{key}") != value:
            raise ConfigError(f"{name}.{key} is fixed at {value}, got {section[key]!r}")
    return section


def _npy_path(section, base_dir, what, keys=("npy",)):
    """The file an ``npy`` entry of section ``what`` names, relative to the
    config's directory.  Beside ``npy`` the section may hold only ``keys``."""
    extra = sorted(set(section) - set(keys))
    if extra:
        raise ConfigError(f"{what}.{extra[0]} is not read beside {what}.npy; "
                          f"with an npy, {what} takes {sorted(keys)}")
    path = os.path.join(base_dir, section["npy"])
    if not os.path.exists(path):
        raise ConfigError(f"{what}: file not found: {path}")
    return path


def _npy_levels(section, base_dir, what, shape, keys=("npy",)):
    """The level stack of ``shape`` that the ``npy`` entry of section ``what``
    names.  A missing file, or a stack of the wrong shape, dtype or size,
    raises :class:`ConfigError` that starts with ``what`` and names the file."""
    path = _npy_path(section, base_dir, what, keys)
    try:
        return load_levels(path, shape)
    except LevelStackError as err:
        raise ConfigError(f"{what}: {err}") from None


def _build_grid(section, base_dir):
    try:
        dims = [_number(n, "grid.dims", integral=True) for n in section["dims"]]
    except KeyError as err:
        raise ConfigError("grid.dims is required") from err
    lengths = [_number(L, "grid.lengths")
               for L in section.get("lengths", [1.0] * len(dims))]
    if len(lengths) != len(dims):
        raise ConfigError("grid.lengths must match grid.dims in length")
    spacing = tuple(L / n for L, n in zip(lengths, dims))
    grid = Grid(tuple(dims), spacing)
    if "control_box" in section and "control_mask" in section:
        raise ConfigError("give either grid.control_box or grid.control_mask, not both")
    if "control_box" in section:
        box = [[_number(x, "grid.control_box") for x in pair]
               for pair in section["control_box"]]
        grid = grid.with_mask(grid.box_mask(box))
    elif "control_mask" in section:
        mask = section["control_mask"]
        if not (isinstance(mask, dict) and "npy" in mask):
            found = f"keys {sorted(mask)}" if isinstance(mask, dict) \
                else f"a {type(mask).__name__}"
            raise ConfigError('grid.control_mask must be a table {"npy": "mask.npy"} '
                              f"naming a level stack, got {found}")
        values = _npy_levels(mask, base_dir, "grid.control_mask", grid.dims)
        try:
            grid = grid.with_mask(values)
        except ValueError as err:
            path = os.path.join(base_dir, mask["npy"])
            raise ConfigError(f"grid.control_mask: {path}: {err}") from None
    return grid


def _preset_parameters(table, name, section, what, ndim):
    """The parameters of preset ``name`` in a config ``section``, checked by
    :func:`~chemoctrl.presets.preset_parameters` on ``ndim`` axes; a refused
    one raises :class:`ConfigError` naming ``what.key``."""
    kw = {key: value for key, value in section.items() if key != "preset"}
    try:
        preset_parameters(table, name, kw, ndim)
    except ValueError as err:
        raise ConfigError(f"{what}.{err}") from None
    return kw


def _build_field(grid, section, base_dir, what):
    if "npy" in _require_table(section, what):
        return Field(grid, _npy_levels(section, base_dir, what, grid.dims))
    if "preset" in section:
        name = section["preset"]
        return field_preset(grid, name, **_preset_parameters(
            FIELD_PRESETS, name, section, what, grid.ndim))
    keys = ", ".join(f"{what}.{key}" for key in sorted(section))
    raise ConfigError(f"{what}: give either a preset or an npy path"
                      + (f", not {keys}" if keys else ""))


def _build_control(grid, section, t_final, base_dir):
    """The config's control; without one, the zero control."""
    section = _require_table({} if section is None else section, "control")
    if "npy" in section:
        times = np.array([_number(t, "control.times")
                          for t in section.get("times", Control.lattice(t_final, 2))])
        control = Control(grid, times, _npy_levels(
            section, base_dir, "control", (times.size, *grid.dims), keys=("npy", "times")))
        if not control.covers(t_final):
            raise ConfigError(f"control.times end at {control.t_final!r}, before "
                              f"model.t_final {t_final!r}")
        return control
    name = section.get("preset", "zero")
    return control_preset(grid, name, t_final, **_preset_parameters(
        CONTROL_PRESETS, name, section, "control", grid.ndim))


def _build_desired(grid, section, base_dir, what):
    if section is None:
        return desired_preset("constant", value=0.0)
    if "npy" in _require_table(section, what):
        return DesiredState.from_field(Field(
            grid, _npy_levels(section, base_dir, what, grid.dims)))
    name = section.get("preset", "constant")
    return desired_preset(name, **_preset_parameters(
        DESIRED_PRESETS, name, section, what, grid.ndim))


def load_config(path):
    """Parse and validate a config file into constructed objects."""
    raw = _load_raw_config(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        _table(raw, "")
        grid = _build_grid(_table(raw, "grid"), base_dir)
        model = ModelParams(**{key: _number(value, f"model.{key}")
                               for key, value in _table(raw, "model").items()})
        init = _table(raw, "initial")
        u0 = _build_field(grid, init.get("u", {"preset": "zero"}), base_dir, "initial.u")
        v0 = _build_field(grid, init.get("v", {"preset": "constant", "value": 1.0}),
                          base_dir, "initial.v")
        check_nonnegative("initial.u", u0.values)
        check_nonnegative("initial.v", v0.values)
        control = _build_control(grid, raw.get("control"), model.t_final, base_dir)
        ssec = _table(raw, "sim")
        dt_max = _number(ssec.get(
            "dt_max", model.t_final / 50 if model.t_final > 0 else 1.0), "sim.dt_max")
        if not dt_max > 0:
            raise ConfigError(f"sim.dt_max must be positive, got {dt_max}")

        cost = None
        if raw.get("cost") is not None:
            csec = _table(raw, "cost")
            cost = CostParams(
                q=model.q,
                u_d=_build_desired(grid, csec.get("desired_u"), base_dir,
                                   "cost.desired_u"),
                v_d=_build_desired(grid, csec.get("desired_v"), base_dir,
                                   "cost.desired_v"),
                **{key: _number(csec.get(key, 1.0), f"cost.{key}")
                   for key in ("gamma_u", "gamma_v", "gamma_f", "M")})

        optimizer = None
        if raw.get("optimizer") is not None:
            osec = _table(raw, "optimizer")
            basis = None
            if "basis" in osec:  # node counts for time, then one per grid axis
                basis = tuple(_number(b, "optimizer.basis", integral=True)
                              for b in osec["basis"])
                if len(basis) != grid.ndim + 1:
                    raise ConfigError(f"optimizer.basis needs {grid.ndim + 1} entries "
                                      f"(time, then one per grid axis), got {list(basis)}")
            optimizer = OptimizerConfig(basis=basis, **{
                key: _number(osec[key], f"optimizer.{key}", integral=key != "stop_tol")
                for key in ("max_iters", "stop_tol", "control_times") if key in osec})

        esec = _table(raw, "energy")
        beta = _number(esec.get("beta", 1e-3), "energy.beta")
        if not beta > 0:
            raise ConfigError(f"energy.beta must be positive, got {beta}")
        K = _number(esec.get("K", 0.0), "energy.K")
        m_sweep = _positive_list("m_sweep", raw.get("m_sweep", []))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as err:
        raise ConfigError(f"invalid config {path}: {err}") from err
    return RunConfig(grid=grid, model=model, u0=u0, v0=v0, control=control,
                     dt_max=dt_max, cost=cost, optimizer=optimizer, beta=beta, K=K,
                     m_sweep=m_sweep)


def _positive_list(name, values):
    """``values`` as finite floats, each one positive."""
    values = [_number(v, name) for v in values]
    bad = [v for v in values if not v > 0]
    if bad:
        raise ConfigError(f"{name} values must be positive, got {bad}")
    return values


def cmd_simulate(cfg, out_dir, compare=False):
    """Run the stepper, export the trajectory and an audit summary; with
    ``compare``, also the paired comparison solve and its domination check.

    Both solves run before the output directory is made, so a run that fails
    writes nothing.
    """
    traj = simulate(cfg.u0, cfg.v0, cfg.control, cfg.model, cfg.dt_max)
    if compare:
        w_traj = solve_comparison(cfg.v0, cfg.control, cfg.model, cfg.dt_max,
                                  dt_history=traj.dt_history)
    os.makedirs(out_dir, exist_ok=True)
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
    if compare:
        # level by level, through one level of scratch
        gap = np.empty(traj.grid.dims)
        violation = max(float(np.subtract(v, w, out=gap).max())
                        for v, w in zip(traj.v, w_traj.w))
        summary["comparison_max_violation"] = violation
        # the split scheme keeps v <= w exactly, with no round-off allowance
        summary["comparison_pass"] = bool(violation <= 0.0)
        write_csv(os.path.join(out_dir, "comparison_max_w.csv"), ["t", "max_w"],
                  zip(traj.times.tolist(),
                      w_traj.w.reshape(traj.n_levels, -1).max(axis=1).tolist()))
    write_json(os.path.join(out_dir, "audit_summary.json"), summary)

    ok = summary["negative_u_cells"] == 0 and summary["negative_v_cells"] == 0 \
        and summary["mass_step_drift_rel"] <= 1e-12 \
        and summary.get("comparison_pass", True)
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def cmd_energy_audit(cfg, traj_dir, out_dir, alpha_sweep=None):
    """Audit a stored trajectory at the config's ``beta`` and ``K``; exit 0 iff
    the worst residual is <= 0.  ``energy_audit.json`` names the worst pair's
    saved times ``t1`` and ``t2`` (null for a run of one level).

    The audit accepts any ``K``, so adversarial negative values simply fail.
    The trajectory is read before the output directory is made, so a data
    error writes nothing.
    ``alpha_sweep`` re-audits under alternative square-root shifts and writes
    one residual per value (the provable shift threshold is nonconstructive,
    so this stays a diagnostic).
    """
    beta, K = cfg.beta, cfg.K
    alpha_sweep = _positive_list("--alpha-sweep", alpha_sweep or [])
    traj = trajectory_from_dir(traj_dir)
    os.makedirs(out_dir, exist_ok=True)
    if alpha_sweep:
        write_csv(os.path.join(out_dir, "alpha_sweep.csv"), ["alpha", "worst_residual"],
                  [(alpha, energy_inequality_audit(
                      traj, replace(traj.params, alpha=alpha), beta, K))
                   for alpha in alpha_sweep])
    report = build_energy_report(traj, traj.params)
    report.to_json(os.path.join(out_dir, "energy_report.json"))
    t1, t2, worst = report.worst_pair(beta, K)
    # a pass tolerates round-off of the energy evaluations themselves
    floor = 1e-12 * max(1.0, float(np.abs(report.energy).max()))
    passed = bool(worst <= floor)
    write_json(os.path.join(out_dir, "energy_audit.json"), {
        "beta": beta, "K": K, "t1": t1, "t2": t2, "worst_residual": worst,
        "passed": passed,
    })
    return EXIT_OK if passed else EXIT_AUDIT_FAIL


def _check_optimizable(cfg, command):
    """Refuse ``command`` without cost and optimizer sections, or at ``t_final = 0``."""
    if cfg.cost is None or cfg.optimizer is None:
        raise ConfigError(f"{command} needs cost and optimizer config sections")
    if not cfg.model.t_final > 0:
        raise ConfigError(f"{command} needs model.t_final > 0, got {cfg.model.t_final}")


def cmd_optimize(cfg, out_dir):
    """Run the descent, export the best control, trace and admissibility report.

    The report and the cost breakdown reuse the best control's run from descent.
    """
    _check_optimizable(cfg, "optimize")
    ctrl, trace = optimize(cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0,
                           cfg.dt_max)
    os.makedirs(out_dir, exist_ok=True)
    trace.to_csv(os.path.join(out_dir, "trace.csv"))

    cfg.grid.to_json(os.path.join(out_dir, "grid.json"))
    save_levels(os.path.join(out_dir, "control_mask.npy"), cfg.grid.control_mask)
    save_levels(os.path.join(out_dir, "best_control.npy"), ctrl.values)
    write_json(os.path.join(out_dir, "best_control_times.json"),
               {"times": [float(t) for t in ctrl.times]})

    best = trace.best
    report = check_admissible(best.traj, ctrl, cfg.cost, cfg.model, cfg.beta, cfg.K)
    report.to_json(os.path.join(out_dir, "admissibility.json"))
    write_json(os.path.join(out_dir, "best_objective.json"), best.breakdown.to_dict())
    return EXIT_OK


def cmd_sweep(cfg, out_dir):
    """Objective-versus-radius table over the config's ``m_sweep`` radii."""
    _check_optimizable(cfg, "sweep")
    if len(cfg.m_sweep) < 2:
        raise ConfigError("sweep needs at least two M values (config m_sweep)")
    table = ordering_experiment(cfg.m_sweep, cfg.optimizer, cfg.cost, cfg.model,
                                cfg.u0, cfg.v0, cfg.dt_max)
    os.makedirs(out_dir, exist_ok=True)
    table.to_csv(os.path.join(out_dir, "m_sweep.csv"))
    write_json(os.path.join(out_dir, "m_sweep.json"), {
        "plateau_M": table.plateau_M,
        "J": [r.J for r in table.rows],
        "M": [r.M for r in table.rows],
    })
    return EXIT_OK


@functools.cache  # built on first use, not at import, then shared
def build_parser():
    parser = argparse.ArgumentParser(
        prog="chemoctrl",
        description="Simulate, audit and optimally control the "
                    "chemotaxis-consumption system.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, what in (
            ("simulate", "integrate the controlled system"),
            ("compare", "integrate plus paired comparison solve"),
            ("energy-audit", "audit a stored trajectory"),
            ("optimize", "L-BFGS descent over the control ball"),
            ("sweep", "objective table over ball radii")):
        p = sub.add_parser(name, help=what)
        p.add_argument("config", help="TOML or JSON run configuration")
        p.add_argument("--output", default="out", help="output directory")
        if name == "energy-audit":
            p.add_argument("--trajectory", required=True, help="trajectory directory")
            p.add_argument("--alpha-sweep", type=float, nargs="+", dest="alpha_sweep",
                           help="re-audit under these square-root shifts (diagnostic)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command in ("simulate", "compare"):
            return cmd_simulate(cfg, args.output, compare=args.command == "compare")
        if args.command == "energy-audit":
            return cmd_energy_audit(cfg, args.trajectory, args.output,
                                    alpha_sweep=args.alpha_sweep)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.output)
        return cmd_sweep(cfg, args.output)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TrajectoryFormatError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    # a state that overflows ends its run in a PositivityError
    except (InfeasibleBaselineError, StiffnessError, PositivityError) as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
