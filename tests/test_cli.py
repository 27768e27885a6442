import csv
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import TABLE_DEFECT_STAND_INS

import chemoctrl
from chemoctrl import energy, sim
from chemoctrl.cli import FIXED_KEYS, build_parser, load_config, main
from chemoctrl.cost import DesiredState, evaluate_J
from chemoctrl.io import load_levels, save_levels
from chemoctrl.opt import make_context
from chemoctrl.sim import trajectory_from_dir

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# level-stack defects with no counterpart among the CSV cell-table defects
# that the ids of TABLE_DEFECT_STAND_INS name
STACK_ONLY_DEFECTS = ["big-endian", "object", "fortran order"]

# manifest defects a trajectory loader rejects; the first word names the field
MANIFEST_DEFECTS = ["times old format", "mass_trace old format",
                    "dt_history zero", "dt_history nan", "dt_history short",
                    "dt_history absorbed", "dt_history overflowing",
                    "control_times string",
                    "params.s string", "params.s bool", "params.t_final null",
                    "grid list", "grid.spacing string", "grid.dims fractional",
                    "control_mask in grid"]


# a step rejection as the stepper records it
GOOD_EVENT = {"t": 0.1, "dt": 0.02, "reason": "chemotaxis CFL violated",
              "admissible_dt": 0.01}


def corrupt_manifest(manifest, kind):
    """Plant one defect of ``kind`` in a loaded trajectory manifest."""
    dts = manifest["dt_history"]
    if kind == "times old format":
        # the format before dt_history was the one record of the clock
        manifest["times"] = [0.0, *np.cumsum(dts).tolist()]
    elif kind == "mass_trace old format":
        manifest["mass_trace"] = [1.0] * (len(dts) + 1)
    elif kind == "dt_history zero":
        dts[0] = 0.0
    elif kind == "dt_history nan":
        dts[-1] = math.nan
    elif kind == "dt_history short":
        # fewer steps than the level stacks have intervals
        del dts[2:]
    elif kind == "dt_history absorbed":
        # a step too small to move the clock: two saved levels at one time
        dts[1] = 1e-300
    elif kind == "dt_history overflowing":
        # finite steps whose sum is not
        dts[:2] = [1e308, 1e308]
    elif kind == "control_times string":
        manifest["control_times"] = [str(t) for t in manifest["control_times"]]
    elif kind == "params.s string":
        manifest["params"]["s"] = "2"
    elif kind == "params.s bool":
        manifest["params"]["s"] = True
    elif kind == "params.t_final null":
        manifest["params"]["t_final"] = None
    elif kind == "grid list":
        manifest["grid"] = [1]
    elif kind == "grid.spacing string":
        manifest["grid"]["spacing"] = [str(h) for h in manifest["grid"]["spacing"]]
    elif kind == "grid.dims fractional":
        manifest["grid"]["dims"] = [n + 0.9 for n in manifest["grid"]["dims"]]
    elif kind == "control_mask in grid":
        # the format before control_mask.npy: one JSON integer per cell
        manifest["grid"]["control_mask"] = [1] * math.prod(manifest["grid"]["dims"])
    else:
        raise ValueError(kind)


def cfg_path(name):
    return os.path.join(CONFIGS, name)


def patched_config(tmp_path, name, patch):
    """A copy of bundled config ``name`` in ``tmp_path`` with the tables of
    ``patch`` merged in and its other keys replaced; returns its path."""
    with open(cfg_path(name)) as fh:
        raw = json.load(fh)
    for key, value in patch.items():
        raw[key] = {**raw.get(key, {}), **value} if isinstance(value, dict) else value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def run(args):
    return main(args)


def config_values(cfg):
    """A loaded config as nested plain values, for comparing two loads:
    dataclasses by field, arrays as lists, and a desired state by its values
    on the grid at the start and the end of the horizon."""
    def plain(x):
        if isinstance(x, DesiredState):
            return [x.at(t, cfg.grid).tolist() for t in (0.0, cfg.model.t_final)]
        if dataclasses.is_dataclass(x):
            return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
        if isinstance(x, np.ndarray):
            return x.tolist()
        return x
    return plain(cfg)


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert run(["simulate", str(tmp_path / "nope.json")]) == 2

    def test_missing_initial_condition_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [8]},
            "initial": {"u": {"npy": "missing_u0.npy"},
                        "v": {"preset": "constant", "value": 1.0}},
        }))
        assert run(["simulate", str(cfg)]) == 2
        assert "missing_u0.npy" in capsys.readouterr().err

    def test_bad_extension(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("{}")
        assert run(["simulate", str(cfg)]) == 2

    def test_sweep_without_cost_section(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"dims": [8]}}))
        assert run(["sweep", str(cfg)]) == 2

    def test_desired_state_from_csv(self, tmp_path):
        from chemoctrl import Grid
        g = Grid.unit_box((8,))
        save_levels(tmp_path / "vd.npy", np.full(8, 1.25))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [8]},
            "cost": {"M": 1.0, "desired_v": {"npy": "vd.npy"}},
        }))
        loaded = load_config(str(cfg))
        assert loaded.cost.v_d.at(0.7, g) == pytest.approx(1.25)

    def test_desired_state_missing_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [8]},
            "cost": {"M": 1.0, "desired_v": {"npy": "absent.npy"}},
            "optimizer": {"max_iters": 1},
        }))
        assert run(["optimize", str(cfg)]) == 2
        assert "absent.npy" in capsys.readouterr().err

    # the names of the three malformed-input tests below are those of the CSV
    # inputs they tested; they now read the config's .npy files
    @pytest.mark.parametrize("kind", TABLE_DEFECT_STAND_INS + [
        pytest.param("trailing byte", id="t_index out of range")] + STACK_ONLY_DEFECTS)
    def test_malformed_control_csv(self, tmp_path, capsys, corrupt_npy, kind):
        save_levels(tmp_path / "f.npy", np.full((3, 8), -0.5))
        corrupt_npy(tmp_path / "f.npy", kind)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [8]}, "model": {"t_final": 0.1},
            "control": {"npy": "f.npy", "times": [0.0, 0.05, 0.1]},
        }))
        assert run(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "f.npy" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_control_csv_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "f.npy").mkdir()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"dims": [8]},
                                   "control": {"npy": "f.npy"}}))
        assert run(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "f.npy" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", TABLE_DEFECT_STAND_INS + ["trailing byte"]
                             + STACK_ONLY_DEFECTS + ["negative"])
    def test_malformed_field_csv(self, tmp_path, capsys, corrupt_npy, kind):
        # a 2D grid, so that a transposed stack has the wrong shape
        save_levels(tmp_path / "u0.npy", np.full((4, 3), 0.5))
        corrupt_npy(tmp_path / "u0.npy", kind)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [4, 3]}, "model": {"t_final": 0.1},
            "initial": {"u": {"npy": "u0.npy"}},
        }))
        assert run(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 2
        # a negative cell is refused like a negative preset, naming the cell
        assert ("initial.u must be nonnegative, got -5e-324 at cell (3, 2)"
                if kind == "negative" else "u0.npy") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, field", [
        ({"initial": {"u": {"csv": "u0.csv"}}}, "initial.u.csv"),
        ({"control": {"csv": "f.csv", "times": [0.0, 0.4]}}, "control.csv"),
        ({"cost": {"desired_v": {"csv": "vd.csv"}}}, "cost.desired_v.csv"),
    ])
    def test_csv_input_key_is_refused(self, tmp_path, capsys, section, field):
        # cell data is read from .npy files only; a section that still names
        # a CSV file exits 2 and names the key, whether or not the file exists
        for name in ("u0.csv", "f.csv", "vd.csv"):
            (tmp_path / name).write_text("i0,value\r\n")
        cfg = patched_config(tmp_path, "optimize_small.json", section)
        out = tmp_path / "o"
        assert run(["optimize", str(cfg), "--output", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    # a case's id carries its position in this list: add new cases at the end
    @pytest.mark.parametrize("command, flags, patch, field", [
        ("energy-audit", [], {"energy": {"beta": -1.0}}, "beta"),
        ("energy-audit", [], {"energy": {"beta": 0.0}}, "beta"),
        ("energy-audit", ["--alpha-sweep", "0.1", "0"], {}, "--alpha-sweep"),
        ("simulate", [], {"sim": {"dt_max": -1.0}}, "dt_max"),
        ("simulate", [], {"sim": {"dt_max": math.nan}}, "dt_max"),
        ("optimize", [], {"sim": {"dt_max": 0.0}}, "dt_max"),
        ("simulate", [], {"sim": {"dt_max": math.inf}}, "dt_max"),
        ("simulate", [], {"sim": {"save_every": 0}}, "save_every"),
        ("sweep", [], {"m_sweep": [-1.0, 1.0]}, "m_sweep"),
        ("sweep", [], {"m_sweep": [0.5, 0.0]}, "m_sweep"),
        ("simulate", [], {"sim": {"save_every": 1.5}}, "sim.save_every"),
        ("optimize", [], {"optimizer": {"max_iters": 2.7}}, "optimizer.max_iters"),
        ("optimize", [], {"optimizer": {"control_times": 9.5}}, "optimizer.control_times"),
        ("optimize", [], {"optimizer": {"basis": [2, 2.5]}}, "optimizer.basis"),
        ("simulate", [], {"grid": {"dims": [16.5]}}, "grid.dims"),
        ("simulate", [], {"sim": {"compare": "false"}}, "sim.compare"),
        ("simulate", [], {"sim": {"save_every": True}}, "sim.save_every"),
        ("simulate", [], {"model": {"s": math.nan}}, "model.s"),
        ("simulate", [], {"model": {"alpha": "0.1"}}, "model.alpha"),
        ("optimize", [], {"cost": {"gamma_u": math.nan}}, "cost.gamma_u"),
        ("optimize", [], {"optimizer": {"step0": math.inf}}, "optimizer.step0"),
        ("energy-audit", [], {"energy": {"K": math.nan}}, "energy.K"),
        ("energy-audit", [], {"energy": {"K": math.inf}}, "energy.K"),
        ("simulate", [], {"model": {"t_final": math.inf}}, "model.t_final"),
        ("simulate", [], {"model": {"t_final": math.nan}}, "model.t_final"),
        ("simulate", [], {"sim": {"compare": True}}, "compare"),
        ("simulate", [], {"initial": {"u": {"preset": "gaussian", "amplitud": 3.0}}},
         "initial.u.amplitud"),
        ("simulate", [], {"initial": {"u": {"preset": "zero", "value": 1.0}}},
         "initial.u.value"),
        ("simulate", [], {"initial": {"u": {"preset": "gauss"}}}, "initial.u.preset"),
        ("simulate", [], {"initial": {"u": {"preset": "gaussian", "width": "0.1"}}},
         "initial.u.width"),
        ("simulate", [], {"initial": {"u": {"preset": "gaussian", "center": [0.5, 0.5]}}},
         "initial.u.center"),
        ("simulate", [], {"initial": {"u": {"preset": "gaussian", "center": 0.5}}},
         "initial.u.center"),
        ("simulate", [], {"initial": {"v": {"preset": "cosine", "modes": [math.nan]}}},
         "initial.v.modes"),
        ("simulate", [], {"initial": {"v": {"preset": "random", "seed": -1}}},
         "initial.v.seed"),
        ("simulate", [], {"initial": {"v": {"preset": "random", "seed": 1.5}}},
         "initial.v.seed"),
        ("simulate", [], {"initial": {"v": {"preset": "random", "high": True}}},
         "initial.v.high"),
        ("simulate", [], {"control": {"preset": "random", "tims": 3}}, "control.tims"),
        ("simulate", [], {"control": {"preset": "random", "times": 5.5}}, "control.times"),
        ("simulate", [], {"control": {"preset": "random", "times": 1}}, "control.times"),
        ("simulate", [], {"control": {"preset": "constant", "amplitude": math.inf}},
         "control.amplitude"),
        ("simulate", [], {"control": {"preset": "random", "target_norm": 1.0}},
         "control.target_norm"),
        ("simulate", [], {"control": {"preset": "random", "q": 4.0}}, "control.q"),
        ("optimize", [], {"cost": {"desired_v": {"preset": "constant", "value": "1.5"}}},
         "cost.desired_v.value"),
        ("optimize", [], {"cost": {"desired_u": {"preset": "time_decaying", "rat": 2}}},
         "cost.desired_u.rat"),
        # a misspelt key is refused in every table, not taken as its default
        ("simulate", [], {"modle": {"t_final": 5.0}}, "modle"),
        ("simulate", [], {"grid": {"length": [2.0]}}, "grid.length"),
        ("simulate", [], {"model": {"t_fnal": 5.0}}, "model.t_fnal"),
        ("simulate", [], {"initial": {"w": {"preset": "zero"}}}, "initial.w"),
        ("simulate", [], {"sim": {"dt_mx": 0.001}}, "sim.dt_mx"),
        ("optimize", [], {"cost": {"gamma_w": 1.0}}, "cost.gamma_w"),
        ("optimize", [], {"optimizer": {"n_start": 4}}, "optimizer.n_start"),
        ("energy-audit", [], {"energy": {"k": 1.0}}, "energy.k"),
        ("simulate", [], {"sim": 0.001}, "sim must be a table"),
        ("simulate", [], {"control": {"preset": "none", "amplitude": 1.0}},
         "control.amplitude"),
        ("simulate", [], {"initial": {"u": "u0.csv"}}, "initial.u must be a table"),
        ("simulate", [], {"control": "f.csv"}, "control must be a table"),
        ("optimize", [], {"cost": {"desired_v": 1.5}},
         "cost.desired_v must be a table"),
        # --output names the output directory; the config has no key for it
        ("simulate", [], {"output_dir": "out"}, "output_dir"),
        # an initial state must be nonnegative, checked when the config loads
        ("simulate", [], {"initial": {"u": {"preset": "constant", "value": -1.0}}},
         "initial.u must be nonnegative, got -1.0 at cell (0,)"),
        ("optimize", [], {"initial": {"v": {"preset": "random", "low": -0.5,
                                            "high": 1.0, "seed": 3}}},
         "initial.v must be nonnegative"),
        # a retired key still loads at its fixed value, and only there
        ("simulate", [], {"sim": {"save_every": 3}}, "sim.save_every is fixed at 1,"),
        ("optimize", [], {"optimizer": {"step0": 2.0}}, "optimizer.step0 is fixed at 1.0,"),
        ("optimize", [], {"optimizer": {"shrink": 0.25}},
         "optimizer.shrink is fixed at 0.5,"),
        # a retired key that no config still names is refused like a typo
        ("optimize", [], {"optimizer": {"n_starts": 4}}, "optimizer.n_starts"),
    ])
    def test_bad_numeric_input_is_config_error(self, decay_dir, tmp_path, capsys,
                                               command, flags, patch, field):
        cfg = patched_config(tmp_path, "optimize_small.json", patch)
        out = tmp_path / "o"
        argv = [command, str(cfg), *flags, "--output", str(out)]
        if command == "energy-audit":
            argv += ["--trajectory", decay_dir]
        assert run(argv) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("patch, message", [
        # a zero-width bump centered on a cell of the 16-cell grid once ran
        # to a NaN objective, reported as an infeasible baseline (exit 4)
        ({"cost": {"desired_u": {"preset": "gaussian_bump", "width": 0,
                                 "center": [0.53125]}}},
         "cost.desired_u.width must be positive"),
        ({"cost": {"desired_v": {"preset": "time_decaying", "width": -0.1}}},
         "cost.desired_v.width must be positive"),
        ({"initial": {"u": {"preset": "gaussian", "width": 0, "center": [0.53125]}}},
         "initial.u.width must be positive"),
        # exp(2000 t) overflows before t_final = 0.4
        ({"cost": {"desired_u": {"preset": "time_decaying", "rate": -2000}}},
         "cost.desired_u.rate must be at least 0"),
    ])
    def test_target_width_and_rate_are_checked(self, tmp_path, capsys, patch, message):
        cfg = patched_config(tmp_path, "optimize_small.json", patch)
        out = tmp_path / "o"
        assert run(["optimize", str(cfg), "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("times, code", [
        ([0.0, 0.05], 2),
        ([0.0, 0.4], 0),
        # the horizon simulate allows: t_final less 1e-12 * max(1, t_final)
        ([0.0, 0.4 - 5e-13], 0),
        ([0.0, 0.4 - 2e-12], 2),
    ])
    def test_control_times_must_reach_the_horizon(self, tmp_path, capsys, times, code):
        # optimize_small.json runs to model.t_final 0.4
        save_levels(tmp_path / "f.npy", np.full((2, 16), 0.5))
        cfg = patched_config(tmp_path, "optimize_small.json",
                             {"control": {"npy": "f.npy", "times": times}})
        out = tmp_path / "o"
        assert run(["simulate", str(cfg), "--output", str(out)]) == code
        if code == 2:
            assert "control.times" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("basis, code", [
        ([2, 2], 2), ([2, 2, 2, 2], 2), ([2, 3, 2], 0), (None, 0)])
    def test_basis_has_one_entry_for_time_and_each_axis(self, tmp_path, capsys,
                                                        basis, code):
        # without a basis, each of the 8x6 grid's three lattice axes gets 2 nodes
        with open(cfg_path("optimize_small.json")) as fh:
            raw = json.load(fh)
        raw["grid"] = {"dims": [8, 6], "control_box": [[0.0, 0.5], [0.0, 1.0]]}
        raw["optimizer"]["max_iters"] = 2
        del raw["optimizer"]["basis"]
        if basis is not None:
            raw["optimizer"]["basis"] = basis
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert run(["optimize", str(cfg), "--output", str(out)]) == code
        if code == 2:
            assert "optimizer.basis needs 3 entries" in capsys.readouterr().err
            assert not out.exists()
        else:
            loaded = load_config(str(cfg))
            assert loaded.optimizer.basis == (basis and tuple(basis))
            ctx = make_context(loaded.optimizer, loaded.cost, loaded.model, loaded.u0,
                               loaded.v0, loaded.dt_max)
            assert ctx.basis == tuple(basis or (2, 2, 2))

    def test_fixed_keys_at_their_value_load_as_without_them(self, tmp_path):
        named = patched_config(tmp_path, "optimize_small.json", {
            "sim": {"save_every": 1}, "optimizer": {"step0": 1.0, "shrink": 0.5}})
        with open(named) as fh:
            raw = json.load(fh)
        assert all(key in raw[table] for table in FIXED_KEYS for key in FIXED_KEYS[table])
        assert config_values(load_config(str(named))) == \
            config_values(load_config(cfg_path("optimize_small.json")))

    def test_readme_config_sketch_loads(self, tmp_path):
        # the sketch is JSON once its // comments are stripped; it names no
        # key that is fixed now or that is still read only to be ignored
        with open(README) as fh:
            sketch = re.search(r"### Config sketch\n\n```jsonc\n(.*?)```", fh.read(),
                               re.S).group(1)
        raw = json.loads(re.sub(r"//.*", "", sketch))
        cfg = tmp_path / "sketch.json"
        cfg.write_text(json.dumps(raw))
        assert load_config(str(cfg)).optimizer is not None
        for table, keys in FIXED_KEYS.items():
            assert not set(raw[table]) & set(keys)
        assert not set(raw["optimizer"]) & {"fd_epsilon", "seed"}

    def test_config_must_be_a_table(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert run(["simulate", str(cfg)]) == 2
        assert "must be a table" in capsys.readouterr().err

    @pytest.mark.parametrize("builder, section, extra, field", [
        ("field", ["initial", "u"], {"preset": "zero"}, "initial.u.preset"),
        ("control", ["control"], {"preset": "zero"}, "control.preset"),
        ("control", ["control"], {"tims": [0.0, 0.05, 0.1]}, "control.tims"),
        ("desired", ["cost", "desired_v"], {"value": 1.5}, "cost.desired_v.value"),
    ])
    def test_csv_section_takes_only_what_it_reads(self, tmp_path, capsys, builder,
                                                  section, extra, field):
        # beside npy, only a control's times are read; any other key exits 2
        if builder == "control":
            save_levels(tmp_path / "t.npy", np.full((3, 8), 0.5))
            entry = {"npy": "t.npy", "times": [0.0, 0.05, 0.1]}
        else:
            save_levels(tmp_path / "t.npy", np.full(8, 0.5))
            entry = {"npy": "t.npy"}
        raw = {"grid": {"dims": [8]}, "model": {"t_final": 0.1}}
        table = raw
        for key in section[:-1]:
            table = table.setdefault(key, {})
        table[section[-1]] = entry
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        load_config(str(cfg))
        if "times" in extra:
            del entry["times"]
        entry.update(extra)
        cfg.write_text(json.dumps(raw))
        assert run(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "simulate_decay.toml", "--seed", "1"],
        ["optimize", "optimize_small.json", "--m-sweep", "1", "2"],
        ["energy-audit", "simulate_decay.toml", "--trajectory", "t", "--dt-max", "0.1"],
        ["optimize", "optimize_small.json", "--save-every", "2"],
        ["simulate", "simulate_exponential.json", "--compare"],
        # the config sets these values; the command line does not
        ["simulate", "simulate_decay.toml", "--dt-max", "0.1"],
        ["simulate", "simulate_decay.toml", "--t-final", "0.1"],
        ["simulate", "simulate_decay.toml", "--save-every", "2"],
        ["compare", "simulate_exponential.json", "--dt-max", "0.1"],
        ["compare", "simulate_exponential.json", "--t-final", "0.1"],
        ["compare", "simulate_exponential.json", "--save-every", "2"],
        ["energy-audit", "simulate_decay.toml", "--trajectory", "t", "--beta", "0.001"],
        ["energy-audit", "simulate_decay.toml", "--trajectory", "t", "--K", "0.0"],
        ["optimize", "optimize_small.json", "--dt-max", "0.1"],
        ["optimize", "optimize_small.json", "--t-final", "0.1"],
        ["sweep", "optimize_small.json", "--dt-max", "0.1"],
        ["sweep", "optimize_small.json", "--t-final", "0.1"],
        ["sweep", "optimize_small.json", "--m-values", "0.5", "1"],
    ])
    def test_removed_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([argv[0], cfg_path(argv[1]), *argv[2:]])
        assert exc.value.code == 2
        removed = [a for a in argv if a.startswith("--")][-1]
        assert f"unrecognized arguments: {removed}" in capsys.readouterr().err


    @pytest.mark.parametrize("grid", [
        {"control_mask": [1] * 32},  # a JSON list, the format before level stacks
        {"control_mask": [True] * 32},
        {"control_mask": [[1] * 32]},
        {"control_mask": 1},
        {"control_mask": {"preset": "box"}},
        {"control_mask": {"npy": "half.npy"}},
        {"control_mask": {"npy": "absent.npy"}},
        {"control_mask": {"npy": "bits.npy", "times": [0.0, 0.25]}},
        {"control_mask": {"npy": "bits.npy"}, "control_box": [[0.0, 0.5]]},
    ])
    def test_bad_control_mask_is_config_error(self, tmp_path, capsys, grid):
        mask = np.ones(32)
        save_levels(tmp_path / "bits.npy", mask)
        mask[3] = 0.5
        save_levels(tmp_path / "half.npy", mask)
        cfg = patched_config(tmp_path, "simulate_equilibrium.json", {"grid": grid})
        out = tmp_path / "o"
        assert run(["simulate", str(cfg), "--output", str(out)]) == 2
        assert "grid.control_mask" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, shape, named", [
        (0.5, (32,), "value 0.5 at (3,)"),
        (2.0, (32,), "value 2.0 at (3,)"),
        (-1.0, (32,), "value -1.0 at (3,)"),
        (1.0, (31,), "holds <f8 of shape (31,)"),
        (1.0, (1, 32), "holds <f8 of shape (1, 32)"),
    ])
    def test_control_mask_npy_defect_is_named(self, tmp_path, capsys, value, shape,
                                              named):
        mask = np.ones(shape)
        mask.flat[3] = value
        save_levels(tmp_path / "m.npy", mask)
        cfg = patched_config(tmp_path, "simulate_equilibrium.json",
                             {"grid": {"control_mask": {"npy": "m.npy"}}})
        out = tmp_path / "o"
        assert run(["simulate", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.control_mask: ")
        assert "m.npy: " in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("key, patch, shape", [
        ("initial.u", {"initial": {"u": {"npy": "x.npy"}}}, (32,)),
        ("cost.desired_v", {"cost": {"desired_v": {"npy": "x.npy"}}}, (32,)),
        ("control", {"control": {"npy": "x.npy"}}, (2, 32)),
    ], ids=["initial.u", "cost.desired_v", "control"])
    @pytest.mark.parametrize("defect", ["shape", "dtype"])
    def test_npy_defect_names_the_key(self, tmp_path, capsys, key, patch, shape,
                                      defect):
        # a level stack of the wrong shape or dtype is refused with the key
        # that names it first, then the file
        values = np.ones(shape)
        if defect == "shape":
            values = values[..., :-1]
        with open(tmp_path / "x.npy", "wb") as fh:
            np.lib.format.write_array(
                fh, values.astype("<f4" if defect == "dtype" else "<f8"))
        cfg = patched_config(tmp_path, "simulate_equilibrium.json", patch)
        out = tmp_path / "o"
        assert run(["simulate", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: {tmp_path / 'x.npy'}: holds ")
        assert not out.exists()

    def test_control_mask_of_bools_and_bits(self, tmp_path):
        # a level stack holds 1.0 and 0.0; the grid keeps them as bools
        mask = np.repeat([1.0, 0.0, 1.0, 0.0], 8)
        save_levels(tmp_path / "m.npy", mask)
        cfg = patched_config(tmp_path, "simulate_equilibrium.json",
                             {"grid": {"control_mask": {"npy": "m.npy"}}})
        assert load_config(str(cfg)).grid.control_mask.tolist() == \
            [bool(b) for b in mask]


class TestParser:
    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--output"]),
        ("compare", ["--output"]),
        ("energy-audit", ["--output", "--trajectory", "--alpha-sweep"]),
        ("optimize", ["--output"]),
        ("sweep", ["--output"]),
    ])
    def test_each_subcommand_takes_exactly_these_flags(self, command, flags):
        # the config sets every value; flags name files, and --alpha-sweep
        # lists diagnostic shifts that have no config field
        parser = build_parser()
        sub = next(a for a in parser._actions if a.choices and command in a.choices)
        actions = sub.choices[command]._actions
        assert [a.dest for a in actions if not a.option_strings] == ["config"]
        assert [s for a in actions for s in a.option_strings
                if s not in ("-h", "--help")] == flags


class TestSimulate:
    def test_byte_identical_level_stacks(self, tmp_path):
        stacks = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["simulate", cfg_path("simulate_exponential.json"),
                        "--output", str(out)]) == 0
            stacks.append({name: (out / "trajectory" / name).read_bytes()
                           for name in ("u.npy", "v.npy", "control.npy")})
        assert stacks[0] == stacks[1]

    def test_equilibrium_audit_clean(self, tmp_path):
        out = str(tmp_path / "eq")
        assert run(["simulate", cfg_path("simulate_equilibrium.json"),
                    "--output", out]) == 0
        with open(os.path.join(out, "audit_summary.json")) as fh:
            summary = json.load(fh)
        assert summary["negative_u_cells"] == 0
        assert summary["negative_v_cells"] == 0
        assert summary["mass_step_drift_rel"] == 0.0
        assert summary["step_rejections"] == 0

    def test_exponential_growth_with_comparison(self, tmp_path):
        out = str(tmp_path / "exp")
        assert run(["compare", cfg_path("simulate_exponential.json"),
                    "--output", out]) == 0
        traj = trajectory_from_dir(os.path.join(out, "trajectory"))
        lam, T = 0.8, float(traj.times[-1])
        dt = float(traj.dt_history[0])
        n = round(T / dt)
        discrete = (1.0 - dt * lam) ** (-n)
        assert traj.v[-1].max() == pytest.approx(discrete, rel=1e-12)
        assert abs(traj.v[-1].max() - np.exp(lam * T)) <= 2.0 * lam**2 * dt * np.exp(lam * T)
        with open(os.path.join(out, "audit_summary.json")) as fh:
            summary = json.load(fh)
        assert summary["comparison_pass"]

    def test_compare_subcommand(self, tmp_path):
        out = str(tmp_path / "cmp")
        assert run(["compare", cfg_path("simulate_equilibrium.json"),
                    "--output", out]) == 0
        with open(os.path.join(out, "audit_summary.json")) as fh:
            assert json.load(fh)["comparison_max_violation"] <= 0.0

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_stiff_run_is_infeasible(self, tmp_path, capsys, command):
        # a control this strong drives the adaptive step below its floor
        cfg = tmp_path / "stiff.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [16]},
            "control": {"preset": "constant", "amplitude": 5e12},
            "sim": {"dt_max": 0.1},
        }))
        out = tmp_path / "o"
        assert run([command, str(cfg), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, grid, model, u0, state", [
        pytest.param("simulate", {"dims": [16]}, {}, 0.0, "v", id="simulate"),
        pytest.param("compare", {"dims": [16]}, {}, 0.0, "v", id="compare"),
        # on half the box the overflowing v has overflowing gradients too
        pytest.param("compare", {"dims": [16], "control_box": [[0.0, 0.5]]}, {}, 0.0,
                     "v", id="compare-control_box"),
        # consumption keeps v bounded, while the comparison w overflows
        pytest.param("compare", {"dims": [16]}, {"s": 1.0, "m": 100.0}, 50.0, "w",
                     id="compare-comparison"),
    ])
    def test_overflowing_run_is_infeasible(self, tmp_path, capsys, command, grid,
                                           model, u0, state):
        # dt*f = 0.9 passes every step bound, and the state grows tenfold per
        # step until it overflows; numpy must not warn on the way
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({
            "grid": grid,
            "model": {**model, "t_final": 20.0},
            "initial": {"u": {"preset": "constant", "value": u0},
                        "v": {"preset": "constant", "value": 1.0}},
            "control": {"preset": "constant", "amplitude": 45.0},
            "sim": {"dt_max": 0.02},
        }))
        out = tmp_path / "o"
        assert run([command, str(cfg), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"infeasible: {state} went negative or non-finite") \
            and err.count("\n") == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def decay_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("decay"))
    assert run(["simulate", cfg_path("simulate_decay.toml"), "--output", out]) == 0
    return os.path.join(out, "trajectory")


@pytest.fixture(scope="module")
def controlled_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("exponential"))
    assert run(["simulate", cfg_path("simulate_exponential.json"), "--output", out]) == 0
    return os.path.join(out, "trajectory")


class TestEnergyAudit:
    def test_dissipative_run_passes(self, decay_dir, tmp_path):
        out = str(tmp_path / "audit")
        code = run(["energy-audit", cfg_path("simulate_decay.toml"),
                    "--trajectory", decay_dir, "--output", out])
        assert code == 0
        # the verdict names its worst pair, and no file holds every pair
        assert sorted(os.listdir(out)) == ["energy_audit.json", "energy_report.json"]
        with open(os.path.join(out, "energy_audit.json")) as fh:
            audit = json.load(fh)
        assert audit.keys() == {"beta", "K", "t1", "t2", "worst_residual", "passed"}
        assert audit["passed"] is True
        assert 0.0 <= audit["t1"] < audit["t2"]

    def test_equilibrium_zero_residual(self, tmp_path):
        sim_out = str(tmp_path / "eq")
        run(["simulate", cfg_path("simulate_equilibrium.json"), "--output", sim_out])
        out = str(tmp_path / "audit")
        code = run(["energy-audit", cfg_path("simulate_equilibrium.json"),
                    "--trajectory", os.path.join(sim_out, "trajectory"),
                    "--output", out])
        assert code == 0
        with open(os.path.join(out, "energy_audit.json")) as fh:
            assert abs(json.load(fh)["worst_residual"]) <= 1e-12

    def test_one_level_run_names_no_pair(self, tmp_path):
        cfg = str(patched_config(tmp_path, "simulate_equilibrium.json",
                                 {"model": {"t_final": 0.0}}))
        assert run(["simulate", cfg, "--output", str(tmp_path / "eq")]) == 0
        out = tmp_path / "audit"
        assert run(["energy-audit", cfg, "--trajectory", str(tmp_path / "eq" / "trajectory"),
                    "--output", str(out)]) == 0
        audit = json.loads((out / "energy_audit.json").read_text())
        assert (audit["t1"], audit["t2"], audit["worst_residual"]) == (None, None, 0.0)

    def test_adversarial_negative_K_fails(self, tmp_path):
        sim_out = str(tmp_path / "eq")
        run(["simulate", cfg_path("simulate_equilibrium.json"), "--output", sim_out])
        cfg = patched_config(tmp_path, "simulate_equilibrium.json",
                             {"energy": {"K": -1.0}})
        code = run(["energy-audit", str(cfg),
                    "--trajectory", os.path.join(sim_out, "trajectory"),
                    "--output", str(tmp_path / "audit")])
        assert code == 1

    def test_alpha_sweep_diagnostic(self, decay_dir, tmp_path):
        out = str(tmp_path / "audit")
        code = run(["energy-audit", cfg_path("simulate_decay.toml"),
                    "--trajectory", decay_dir, "--alpha-sweep", "0.05", "0.1",
                    "0.2", "--output", out])
        assert code == 0
        with open(os.path.join(out, "alpha_sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["alpha"]) for r in rows] == [0.05, 0.1, 0.2]
        assert all(np.isfinite(float(r["worst_residual"])) for r in rows)

    @pytest.mark.parametrize("sweep", [[], ["0.05", "0.1", "0.2"]])
    def test_one_level_pass_per_audit(self, decay_dir, tmp_path, monkeypatch, sweep):
        # one report serves the pairs and the worst residual; each swept
        # alpha needs one more pass over the saved levels
        calls = []
        level_quantities = energy._level_quantities

        def counted(traj, params):
            calls.append(params.alpha)
            return level_quantities(traj, params)

        monkeypatch.setattr(energy, "_level_quantities", counted)
        args = ["energy-audit", cfg_path("simulate_decay.toml"), "--trajectory",
                decay_dir, "--output", str(tmp_path / "audit")]
        if sweep:
            args += ["--alpha-sweep", *sweep]
        assert run(args) == 0
        assert len(calls) == 1 + len(sweep)

    def test_malformed_trajectory_is_data_error(self, controlled_dir, tmp_path, capsys):
        # the case directories are numbered, so only the message can name the key
        for case, kind in enumerate(["unparsable", *MANIFEST_DEFECTS]):
            broken = tmp_path / str(case) / "trajectory"
            shutil.copytree(controlled_dir, broken)
            manifest = broken / "manifest.json"
            if kind == "unparsable":
                manifest.write_text("{oops")
            else:
                content = json.loads(manifest.read_text())
                corrupt_manifest(content, kind)
                manifest.write_text(json.dumps(content))
            out = tmp_path / str(case) / "audit"
            code = run(["energy-audit", cfg_path("simulate_exponential.json"),
                        "--trajectory", str(broken), "--output", str(out)])
            assert code == 3, kind
            named = "malformed trajectory" if kind == "unparsable" else kind.split()[0]
            assert named in capsys.readouterr().err, kind
            assert not (out / "energy_audit.json").exists(), kind

    @pytest.mark.parametrize("kind", ["half", "two", "wrong shape", "missing"])
    def test_malformed_control_mask_is_data_error(self, controlled_dir, tmp_path, capsys,
                                                  kind):
        broken = tmp_path / "trajectory"
        shutil.copytree(controlled_dir, broken)
        path = broken / "control_mask.npy"
        mask = np.load(path)
        if kind == "half":
            mask[3] = 0.5
        elif kind == "two":
            mask[-1] = 2.0
        elif kind == "wrong shape":
            mask = mask[1:]
        if kind == "missing":
            path.unlink()
        else:
            save_levels(path, mask)
        out = tmp_path / "audit"
        code = run(["energy-audit", cfg_path("simulate_exponential.json"),
                    "--trajectory", str(broken), "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "control_mask.npy" in err
        if kind == "half":
            assert "0.5 at (3,)" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["times", "mass_trace"])
    def test_old_format_clock_is_data_error(self, decay_dir, tmp_path, capsys, key):
        # the format before dt_history was the one record of the clock also
        # stored the saved times and the mass trace, which nothing checked
        # against the steps; either key marks that format, which is refused
        broken = tmp_path / "trajectory"
        shutil.copytree(decay_dir, broken)
        manifest = broken / "manifest.json"
        content = json.loads(manifest.read_text())
        content[key] = getattr(trajectory_from_dir(decay_dir), key).tolist()
        manifest.write_text(json.dumps(content))
        out = tmp_path / "audit"
        code = run(["energy-audit", cfg_path("simulate_decay.toml"),
                    "--trajectory", str(broken), "--output", str(out)])
        assert code == 3
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_trajectory_makes_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "audit"
        code = run(["energy-audit", cfg_path("simulate_decay.toml"),
                    "--trajectory", str(tmp_path / "missing"), "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    def test_truncated_state_csv_is_data_error(self, decay_dir, tmp_path, capsys):
        broken = tmp_path / "trajectory"
        shutil.copytree(decay_dir, broken)
        stack = broken / "u.npy"
        stack.write_bytes(stack.read_bytes()[:1000])
        code = run(["energy-audit", cfg_path("simulate_decay.toml"),
                    "--trajectory", str(broken), "--output", str(tmp_path / "a")])
        assert code == 3
        assert "u.npy" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, events", [
        ("mixed", [{"t": "nan?", "dt": -1}, 5]),
        ("not a list", {"t": 0.1}),
        ("no reason", [{"t": 0.1, "dt": 0.02, "admissible_dt": 0.01}]),
        ("extra key", [{**GOOD_EVENT, "note": 1}]),
        ("negative t", [{**GOOD_EVENT, "t": -0.1}]),
        ("nan t", [{**GOOD_EVENT, "t": math.nan}]),
        ("boolean t", [{**GOOD_EVENT, "t": True}]),
        ("zero dt", [{**GOOD_EVENT, "dt": 0.0}]),
        ("infinite dt", [{**GOOD_EVENT, "dt": math.inf}]),
        ("numeric reason", [{**GOOD_EVENT, "reason": 3}]),
        ("nan admissible_dt", [{**GOOD_EVENT, "admissible_dt": math.nan}]),
        ("null admissible_dt", [GOOD_EVENT, {**GOOD_EVENT, "admissible_dt": None}]),
    ])
    def test_malformed_events_are_data_error(self, decay_dir, tmp_path, capsys, kind,
                                             events):
        broken = tmp_path / "trajectory"
        shutil.copytree(decay_dir, broken)
        manifest = broken / "manifest.json"
        content = json.loads(manifest.read_text())
        content["events"] = events
        manifest.write_text(json.dumps(content))
        code = run(["energy-audit", cfg_path("simulate_decay.toml"),
                    "--trajectory", str(broken), "--output", str(tmp_path / "a")])
        assert code == 3
        assert "events must be objects" in capsys.readouterr().err

    def test_valid_events_load(self, decay_dir, tmp_path):
        broken = tmp_path / "trajectory"
        shutil.copytree(decay_dir, broken)
        manifest = broken / "manifest.json"
        content = json.loads(manifest.read_text())
        content["events"] = [GOOD_EVENT, {**GOOD_EVENT, "t": 0, "dt": 1}]
        manifest.write_text(json.dumps(content))
        assert trajectory_from_dir(broken).events == content["events"]

    def test_csv_trajectory_is_data_error(self, decay_dir, tmp_path, capsys):
        # a CSV trajectory, the format before .npy level stacks, lists its
        # state files in the manifest and holds no u.npy; the manifest key
        # that no trajectory_to_dir writes is refused first
        broken = tmp_path / "trajectory"
        shutil.copytree(decay_dir, broken)
        for stack in broken.glob("*.npy"):
            stack.unlink()
        manifest = broken / "manifest.json"
        content = json.loads(manifest.read_text())
        content["state_files"] = [f"state_{i:05d}.csv"
                                  for i in range(len(content["dt_history"]) + 1)]
        manifest.write_text(json.dumps(content))
        code = run(["energy-audit", cfg_path("simulate_decay.toml"),
                    "--trajectory", str(broken), "--output", str(tmp_path / "a")])
        assert code == 3
        assert "unknown key 'state_files'" in capsys.readouterr().err

    # each case id names the CSV file and defect it planted when levels were
    # CSV rows; it now plants the level-stack defect that stands in for it
    @pytest.mark.parametrize("name, kind", [
        pytest.param("u.npy", "level missing", id="state_00001.csv-missing row"),
        pytest.param("v.npy", "level extra", id="state_00001.csv-duplicate row"),
        pytest.param("u.npy", "bad magic", id="state_00001.csv-negative index"),
        pytest.param("v.npy", "transposed", id="state_00001.csv-index out of range"),
        pytest.param("u.npy", "float32", id="state_00001.csv-non-integer index"),
        pytest.param("v.npy", "nan", id="state_00001.csv-non-finite value"),
        pytest.param("u.npy", "inf", id="state_00001.csv-infinite value"),
        pytest.param("v.npy", "version 3.0", id="state_00001.csv-wrong header"),
        pytest.param("u.npy", "trailing byte", id="state_00001.csv-short row"),
        pytest.param("v.npy", "negative", id="state_00001.csv-negative value"),
        pytest.param("control.npy", "level missing", id="control.csv-missing row"),
        pytest.param("control.npy", "level extra", id="control.csv-duplicate row"),
        pytest.param("control.npy", "bad magic", id="control.csv-negative index"),
        pytest.param("control.npy", "fortran order",
                     id="control.csv-index out of range"),
        pytest.param("control.npy", "object", id="control.csv-non-integer index"),
        pytest.param("control.npy", "nan", id="control.csv-non-finite value"),
        pytest.param("control.npy", "inf", id="control.csv-infinite value"),
        pytest.param("control.npy", "big-endian", id="control.csv-wrong header"),
        pytest.param("control.npy", "truncated", id="control.csv-short row"),
        pytest.param("control.npy", "trailing byte",
                     id="control.csv-t_index out of range"),
    ])
    def test_malformed_trajectory_csv_is_data_error(self, controlled_dir, tmp_path,
                                                     capsys, corrupt_npy, name, kind):
        broken = tmp_path / "trajectory"
        shutil.copytree(controlled_dir, broken)
        corrupt_npy(broken / name, kind)
        code = run(["energy-audit", cfg_path("simulate_exponential.json"),
                    "--trajectory", str(broken), "--output", str(tmp_path / "a")])
        assert code == 3
        assert name in capsys.readouterr().err


class TestOptimize:
    def test_bundled_instance(self, tmp_path):
        out = str(tmp_path / "opt")
        assert run(["optimize", cfg_path("optimize_small.json"),
                    "--output", out]) == 0
        with open(os.path.join(out, "trace.csv")) as fh:
            rows = list(csv.DictReader(fh))
        accepted = [float(r["J"]) for r in rows if r["accepted"] == "1"]
        assert len(accepted) >= 2
        assert accepted[-1] < accepted[0]  # strictly below the baseline
        norms = [float(r["control_norm"]) for r in rows]
        assert max(norms) <= 3.0 + 1e-12
        with open(os.path.join(out, "admissibility.json")) as fh:
            adm = json.load(fh)
        assert adm["in_ball"] is True
        assert adm["passed"] is True
        assert os.path.exists(os.path.join(out, "best_control.npy"))

    def test_best_control_is_not_simulated_again(self, tmp_path, count_calls):
        # the admissibility report and best_objective.json reuse the run that
        # evaluated the best control during descent
        calls = count_calls(sim.simulate)
        assert run(["optimize", cfg_path("optimize_small.json"),
                    "--output", str(tmp_path / "o")]) == 0
        assert calls["opt.simulate"] > 0
        assert sum(calls.values()) == calls["opt.simulate"]

    def test_control_mask_is_written_beside_the_best_control(self, tmp_path):
        out = tmp_path / "o"
        assert run(["optimize", cfg_path("optimize_small.json"),
                    "--output", str(out)]) == 0
        grid = load_config(cfg_path("optimize_small.json")).grid
        assert 0 < grid.control_mask.sum() < grid.n_cells
        mask = load_levels(out / "control_mask.npy", grid.dims)
        assert np.array_equal(mask, grid.control_mask)
        with open(out / "grid.json") as fh:
            assert json.load(fh) == {"dims": list(grid.dims),
                                     "spacing": list(grid.spacing)}

    def test_control_mask_feeds_back_into_a_config(self, tmp_path):
        # control_mask.npy stands in for the control_box it came from
        out = tmp_path / "o"
        assert run(["optimize", cfg_path("optimize_small.json"),
                    "--output", str(out)]) == 0
        with open(cfg_path("optimize_small.json")) as fh:
            raw = json.load(fh)
        del raw["grid"]["control_box"]
        raw["grid"]["control_mask"] = {"npy": "control_mask.npy"}
        (out / "c.json").write_text(json.dumps(raw))
        grid = load_config(str(out / "c.json")).grid
        assert grid.compatible_with(load_config(cfg_path("optimize_small.json")).grid)

    def test_best_objective_is_last_accepted_J(self, tmp_path):
        out = tmp_path / "o"
        assert run(["optimize", cfg_path("optimize_small.json"),
                    "--output", str(out)]) == 0
        with open(out / "trace.csv", newline="") as fh:
            accepted = [r["J"] for r in csv.DictReader(fh) if r["accepted"] == "1"]
        with open(out / "best_objective.json") as fh:
            total = json.load(fh)["total"]
        assert repr(total) == accepted[-1]

    def test_best_control_feeds_back_as_a_control(self, tmp_path):
        # best_control.npy and best_control_times.json, given back as a
        # config's control, rerun the best control's run bit for bit
        opt = tmp_path / "opt"
        assert run(["optimize", cfg_path("optimize_small.json"),
                    "--output", str(opt)]) == 0
        with open(opt / "best_control_times.json") as fh:
            times = json.load(fh)["times"]
        cfg = patched_config(tmp_path, "optimize_small.json", {
            "control": {"npy": str(opt / "best_control.npy"), "times": times}})
        out = tmp_path / "sim"
        assert run(["simulate", str(cfg), "--output", str(out)]) == 0
        loaded = load_config(str(cfg))
        traj = trajectory_from_dir(out / "trajectory")
        total = evaluate_J(traj, traj.control, loaded.cost, loaded.model.s).total
        with open(opt / "best_objective.json") as fh:
            assert total == json.load(fh)["total"]

    def test_infeasible_baseline_exit_code(self, tmp_path):
        # a concentration spike steep enough that even the uncontrolled run
        # underflows the adaptive step floor
        cfg = tmp_path / "stiff.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [16]},
            "model": {"s": 1.0, "t_final": 0.4},
            "initial": {"u": {"preset": "constant", "value": 1.0},
                        "v": {"preset": "gaussian", "amplitude": 1e13,
                              "width": 0.15}},
            "sim": {"dt_max": 0.05},
            "cost": {"M": 1.0},
            "optimizer": {"max_iters": 1, "basis": [1, 1], "control_times": 2},
        }))
        assert run(["optimize", str(cfg), "--output", str(tmp_path / "o")]) == 4
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert run(["optimize", cfg_path("optimize_small.json"),
                        "--output", out]) == 0
            outs.append(out)
        for name in ("trace.csv", "best_control.npy", "best_objective.json"):
            with open(os.path.join(outs[0], name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(outs[1], name), "rb") as fh:
                second = fh.read()
            assert first == second


class TestHorizonZero:
    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_optimize_and_sweep_are_config_errors(self, tmp_path, capsys, command):
        # both once ended in a traceback (exit 1) from the control lattice
        cfg = patched_config(tmp_path, "optimize_small.json",
                             {"model": {"t_final": 0.0}, "m_sweep": [0.5, 1.0]})
        out = tmp_path / "o"
        assert run([command, str(cfg), "--output", str(out)]) == 2
        assert f"{command} needs model.t_final > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("control", [
        None, {"preset": "none"}, {"preset": "zero"},
        {"preset": "constant", "amplitude": 2.0},
        {"preset": "random", "seed": 4, "amplitude": 1.0, "times": 5},
        {"npy": "f.npy"},  # on the default times, the zero control's lattice
    ])
    def test_compare_writes_one_level_under_every_preset(self, tmp_path, control):
        save_levels(tmp_path / "f.npy", np.full((2, 32), 0.5))
        patch = {"model": {"t_final": 0.0}}
        if control is not None:
            patch["control"] = control
        cfg = patched_config(tmp_path, "simulate_equilibrium.json", patch)
        out = tmp_path / "o"
        assert run(["compare", str(cfg), "--output", str(out)]) == 0
        traj = trajectory_from_dir(out / "trajectory")
        assert traj.times.tolist() == [0.0]
        assert traj.control.t_final == 1e-300
        with open(out / "comparison_max_w.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1

    def test_desired_center_length_is_checked_at_load(self, tmp_path, capsys):
        # a desired state is built without a grid, so the loader checks it
        cfg = patched_config(tmp_path, "optimize_small.json", {"cost": {
            "desired_u": {"preset": "gaussian_bump", "center": [0.5, 0.5]}}})
        assert run(["optimize", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "cost.desired_u.center needs one entry per axis (1)" \
            in capsys.readouterr().err


class TestSweep:
    def test_table_monotone(self, tmp_path):
        out = str(tmp_path / "sweep")
        cfg = patched_config(tmp_path, "optimize_small.json",
                             {"m_sweep": [0.5, 1.0, 2.0]})
        assert run(["sweep", str(cfg), "--output", out]) == 0
        with open(os.path.join(out, "m_sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        J = np.array([float(r["J"]) for r in rows])
        assert np.all(np.diff(J) <= 1e-7 * np.maximum(J[:-1], 1e-300))


# runs the four subcommands in a fresh interpreter whose importer refuses
# every scipy module; prints their exit codes and the scipy modules loaded
WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
from chemoctrl.cli import main

cfg, out = sys.argv[1], sys.argv[2]
codes = [main(["simulate", cfg, "--output", f"{out}/sim"]),
         main(["compare", cfg, "--output", f"{out}/cmp"]),
         main(["energy-audit", cfg, "--trajectory", f"{out}/sim/trajectory",
               "--output", f"{out}/audit"]),
         main(["optimize", cfg, "--output", f"{out}/opt"])]
print(codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


class TestRuntimeWithoutScipy:
    def test_every_subcommand_runs_with_scipy_refused(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "grid": {"dims": [8, 6], "lengths": [1.0, 1.0],
                     "control_box": [[0.0, 0.5], [0.0, 1.0]]},
            "model": {"s": 2.0, "alpha": 0.1, "m": 8.0, "q": 3.0, "t_final": 0.2},
            "initial": {"u": {"preset": "gaussian", "amplitude": 2.0, "width": 0.2},
                        "v": {"preset": "constant", "value": 1.0}},
            "control": {"preset": "random", "seed": 4, "amplitude": 1.0, "times": 3},
            "sim": {"dt_max": 0.05},
            "cost": {"gamma_u": 1.0, "gamma_v": 1.0, "gamma_f": 0.1, "M": 3.0,
                     "desired_u": {"preset": "constant", "value": 0.0},
                     "desired_v": {"preset": "constant", "value": 1.5}},
            "optimizer": {"max_iters": 3, "basis": [2, 2, 2], "control_times": 5},
        }))
        src = os.path.dirname(os.path.dirname(chemoctrl.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, str(cfg), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0] []"
