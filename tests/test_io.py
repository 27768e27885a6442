import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import TABLE_DEFECT_STAND_INS

from chemoctrl import (
    Control,
    Grid,
    ModelParams,
    Trajectory,
    trajectory_from_dir,
    trajectory_to_dir,
)
from chemoctrl.io import LevelStackError, load_levels, save_levels, write_json

SRC = Path(__file__).resolve().parent.parent / "src" / "chemoctrl"


# zero, a subnormal, a huge value, an exact power of two and shortest-repr cases
SPECIAL = np.array([0.0, 5e-324, 1e300, 0.5, 0.1, 1.0 / 3.0, 2.5e-5, 1e16])


def special_values(shape, seed, sign=1.0):
    rng = np.random.default_rng(seed)
    vals = rng.random(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    flat = vals.reshape(-1)
    flat[: SPECIAL.size] = SPECIAL[: flat.size]
    return sign * vals


@pytest.mark.parametrize("dims", [(7,), (4, 3), (3, 2, 4)])
class TestByteIdentity:
    def test_trajectory_files(self, tmp_path, dims):
        grid = Grid.unit_box(dims)
        grid = grid.with_mask(special_values(dims, 4) > 1e-3)
        ctrl_vals = special_values((4,) + dims, 2)
        ctrl_vals.reshape(-1)[1::2] *= -1.0  # controls may be negative
        control = Control(grid, np.array([0.0, 0.03, 0.07, 0.1]), ctrl_vals)
        traj = Trajectory(grid=grid, params=ModelParams(s=1.0, t_final=0.1),
                          u=special_values((3,) + dims, 0),
                          v=special_values((3,) + dims, 1), control=control,
                          dt_history=[0.05, 0.05])
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        assert sorted(p.name for p in out.iterdir()) == \
            ["control.npy", "control_mask.npy", "manifest.json", "u.npy", "v.npy"]
        for name, values in (("u", traj.u), ("v", traj.v), ("control", control.values),
                             ("control_mask", grid.control_mask.astype(float))):
            ref = tmp_path / f"ref_{name}.npy"
            np.save(ref, values)
            assert (out / f"{name}.npy").read_bytes() == ref.read_bytes()

    # a field a config names is a stack of shape dims, with no level axis
    def test_field_file(self, tmp_path, dims):
        values = special_values(dims, 3, sign=-1.0)
        save_levels(tmp_path / "field.npy", values)
        np.save(tmp_path / "ref.npy", values)
        assert (tmp_path / "field.npy").read_bytes() == \
            (tmp_path / "ref.npy").read_bytes()

    # the format of best_control.npy and of a control a config names
    def test_level_file(self, tmp_path, dims):
        values = special_values((4,) + dims, 6)
        values.reshape(-1)[1::2] *= -1.0  # controls may be negative
        save_levels(tmp_path / "levels.npy", values)
        np.save(tmp_path / "ref.npy", values)
        assert (tmp_path / "levels.npy").read_bytes() == \
            (tmp_path / "ref.npy").read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
shapes = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dims=shapes)
def test_roundtrip_is_bit_exact(tmp_path_factory, data, dims):
    # a field stack and a level stack, negative values, zeros and
    # subnormals included
    tmp = tmp_path_factory.mktemp("io")
    values = data.draw(arrays(np.float64, dims, elements=finite))
    save_levels(tmp / "field.npy", values)
    back = load_levels(tmp / "field.npy", dims)
    assert np.array_equal(bits(back), bits(values))

    n_levels = data.draw(st.integers(1, 3))
    levels = data.draw(arrays(np.float64, (n_levels,) + dims, elements=finite))
    save_levels(tmp / "levels.npy", levels)
    back = load_levels(tmp / "levels.npy", (n_levels,) + dims)
    assert np.array_equal(bits(back), bits(levels))


# each case id names the cell-table defect it planted when fields and controls
# were CSV tables; it now plants the level-stack defect that stands in for it
@pytest.mark.parametrize("kind", TABLE_DEFECT_STAND_INS)
def test_malformed_cell_table_rejected(tmp_path, corrupt_npy, kind):
    # a field stack: shape dims, as a config's initial field or desired state
    dims = (4, 3)
    path = tmp_path / "cells.npy"
    save_levels(path, np.ones(dims))
    corrupt_npy(path, kind)
    with pytest.raises(LevelStackError, match="cells.npy"):
        load_levels(path, dims)


@pytest.mark.parametrize("kind", TABLE_DEFECT_STAND_INS + [
    pytest.param("trailing byte", id="t_index out of range")])
def test_malformed_level_table_rejected(tmp_path, corrupt_npy, kind):
    # a control stack on a 1D grid: three control times of five cells
    dims = (5,)
    path = tmp_path / "levels.npy"
    save_levels(path, np.ones((3,) + dims))
    corrupt_npy(path, kind)
    with pytest.raises(LevelStackError, match="levels.npy"):
        load_levels(path, (3,) + dims)


def test_header_only_table_reports_missing_rows(tmp_path):
    # a valid header for four cells and no data: the size check names both
    path = tmp_path / "empty.npy"
    save_levels(path, np.ones(4))
    header = path.stat().st_size - 4 * 8
    path.write_bytes(path.read_bytes()[:header])
    with pytest.raises(LevelStackError, match=f"empty.npy: {header} bytes, "
                                              f"expected {header + 32}"):
        load_levels(path, (4,))


# defects every level stack rejects; "negative" only where values must be >= 0
NPY_DEFECTS = ["bad magic", "version 3.0", "truncated", "trailing byte", "float32",
               "big-endian", "object", "fortran order", "level missing",
               "level extra", "transposed", "nan", "inf", "negative"]


@pytest.mark.parametrize("kind", NPY_DEFECTS)
def test_malformed_level_stack_rejected(tmp_path, corrupt_npy, kind):
    path = tmp_path / "levels.npy"
    save_levels(path, np.random.default_rng(4).random((3, 4, 5)))
    corrupt_npy(path, kind)
    if kind == "fortran order":
        with path.open("rb") as fh:
            np.lib.format.read_magic(fh)
            assert np.lib.format.read_array_header_1_0(fh)[1]  # the defect is there
    if kind == "negative":
        # only a stack that must be nonnegative rejects a negative value
        assert load_levels(path, (3, 4, 5)).reshape(-1)[-1] == -5e-324
        with pytest.raises(LevelStackError, match="levels.npy: negative value"):
            load_levels(path, (3, 4, 5), nonnegative=True)
        return
    with pytest.raises(LevelStackError, match="levels.npy"):
        load_levels(path, (3, 4, 5))


def test_object_stack_is_never_unpickled(tmp_path, monkeypatch):
    import pickle

    path = tmp_path / "levels.npy"
    np.save(path, np.ones((2, 3), dtype=object), allow_pickle=True)
    monkeypatch.setattr(pickle, "load", lambda *a, **k: pytest.fail("unpickled"))
    monkeypatch.setattr(pickle, "loads", lambda *a, **k: pytest.fail("unpickled"))
    with pytest.raises(LevelStackError, match=r"\|O of shape \(2, 3\)"):
        load_levels(path, (2, 3))


def test_version_2_header_is_read(tmp_path):
    path = tmp_path / "levels.npy"
    values = special_values((2, 3), 5)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, values, version=(2, 0))
    assert np.array_equal(bits(load_levels(path, (2, 3))), bits(values))


nonnegative = st.floats(0.0, 1e300, width=64)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dims=shapes, n_levels=st.integers(1, 4),
       n_control=st.integers(2, 4))
def test_trajectory_roundtrip_is_bit_exact(tmp_path_factory, data, dims, n_levels,
                                           n_control):
    grid = Grid.unit_box(tuple(max(n, 2) for n in dims))
    dims = grid.dims
    gaps = data.draw(arrays(np.float64, n_levels - 1, elements=st.floats(1e-6, 1.0)))
    control = Control(grid, np.arange(float(n_control)),
                      data.draw(arrays(np.float64, (n_control,) + dims, elements=finite)))
    traj = Trajectory(grid=grid, params=ModelParams(s=1.0, t_final=1.0),
                      u=data.draw(arrays(np.float64, (n_levels,) + dims,
                                         elements=nonnegative)),
                      v=data.draw(arrays(np.float64, (n_levels,) + dims,
                                         elements=nonnegative)),
                      control=control, dt_history=gaps)
    out = tmp_path_factory.mktemp("traj")
    trajectory_to_dir(traj, out)
    back = trajectory_from_dir(out)
    assert np.array_equal(bits(back.dt_history), bits(gaps))
    assert np.array_equal(bits(back.times), bits(traj.times))
    assert np.array_equal(bits(back.u), bits(traj.u))
    assert np.array_equal(bits(back.v), bits(traj.v))
    assert np.array_equal(bits(back.control.times), bits(control.times))
    assert np.array_equal(bits(back.control.values), bits(control.values))


def file_writes(tree):
    """``(line, call)`` of each call in ``tree`` that writes a file itself."""
    writers = {"json.dump", "csv.writer", "np.savetxt", "np.save"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not all(isinstance(m, ast.Constant) and not set(m.value) & set("wax+")
                       for m in modes):
                yield node.lineno, ast.unparse(node)
        elif name in writers:
            yield node.lineno, name


def test_codec_is_the_only_writer():
    hits = [f"{path.name}:{line}: {call}"
            for path in sorted(SRC.glob("*.py")) if path.name != "io.py"
            for line, call in file_writes(ast.parse(path.read_text()))]
    assert hits == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_non_finite(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(path, {"ok": 1.0, "nested": [{"bad": value}]})
    assert not path.exists()
