import sys

import numpy as np
import pytest
import scipy.sparse as sp


# level-stack defects standing in for the CSV cell-table defects their ids
# name, so the tests moved from cell tables to level stacks keep their ids
TABLE_DEFECT_STAND_INS = [
    pytest.param("level missing", id="missing row"),
    pytest.param("level extra", id="duplicate row"),
    pytest.param("bad magic", id="negative index"),
    pytest.param("transposed", id="index out of range"),
    pytest.param("float32", id="non-integer index"),
    pytest.param("nan", id="non-finite value"),
    pytest.param("inf", id="infinite value"),
    pytest.param("version 3.0", id="wrong header"),
    pytest.param("truncated", id="short row"),
]


def corrupt_stack(path, kind):
    """Rewrite a level stack (.npy) with one defect of ``kind``."""
    data = path.read_bytes()
    if kind in ("bad magic", "truncated", "trailing byte"):
        path.write_bytes({"bad magic": data.replace(b"\x93NUMPY", b"\x93NUMPZ", 1),
                          "truncated": data[:-1],
                          "trailing byte": data + b"\0"}[kind])
        return
    a = np.load(path, allow_pickle=False)
    if kind == "float32":
        a = a.astype("<f4")
    elif kind == "big-endian":
        a = a.astype(">f8")
    elif kind == "object":
        a = a.astype(object)
    elif kind == "fortran order":
        a = np.asfortranarray(a)
    elif kind == "level missing":
        a = a[:-1]
    elif kind == "level extra":
        a = np.concatenate([a, a[-1:]])
    elif kind == "transposed":
        a = np.ascontiguousarray(a.T)
    elif kind in ("nan", "inf", "negative"):
        a.reshape(-1)[-1] = {"nan": np.nan, "inf": np.inf, "negative": -5e-324}[kind]
    elif kind != "version 3.0":
        raise ValueError(kind)
    version = (3, 0) if kind == "version 3.0" else (1, 0)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, a, version=version, allow_pickle=kind == "object")


@pytest.fixture
def corrupt_npy():
    """``corrupt_npy(path, kind)`` plants one level-stack defect of ``kind``."""
    return corrupt_stack


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` points every name under which a ``chemoctrl.*``
    module reaches ``fn`` at a counting wrapper, the way the benchmark's
    tracer rebinds module attributes, and returns the calls per
    ``"module.attribute"``; a call that bypasses those names counts nowhere."""
    def install(fn):
        counts = {}
        for name, mod in list(sys.modules.items()):
            if not name.startswith("chemoctrl."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    key = f"{name.rpartition('.')[2]}.{attr}"
                    counts[key] = 0

                    def wrapper(*args, _key=key, **kwargs):
                        counts[_key] += 1
                        return fn(*args, **kwargs)
                    monkeypatch.setattr(mod, attr, wrapper)
        return counts
    return install


def axis_laplacians(grid):
    """The mirror-ghost second differences ``L_k``, one sparse matrix per axis
    on the C-order flat index; their sum is the assembled Laplacian.  The
    oracle for the stencil and for the stepper's diffusion solve."""
    mats = []
    for k, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        main = np.full(n, -2.0)
        main[0] = main[-1] = -1.0
        off = np.ones(n - 1)
        lk = sp.diags([off, main, off], [-1, 0, 1]) / (h * h)
        left = int(np.prod(grid.dims[:k]))
        right = int(np.prod(grid.dims[k + 1:]))
        mats.append(sp.kron(sp.identity(left), sp.kron(lk, sp.identity(right))).tocsr())
    return mats


# The grid kernels as first written, with per-cell ``np.where`` selects and
# ``np.pad`` copies: the oracles the rewritten kernels must equal byte for
# byte, signed zeros included.

def face_gradients_oracle(grid, a):
    return [np.diff(a, axis=k) / grid.spacing[k] for k in range(grid.ndim)]


def second_difference_oracle(grid, a, k):
    pad = [(0, 0)] * grid.ndim
    pad[k] = (1, 1)
    h = grid.spacing[k]
    return np.diff(np.pad(np.diff(a, axis=k) / h, pad), axis=k) / h


def chemotaxis_array_oracle(grid, mob, v, ws=None):
    # ws: the workspace the stepper passes, unused here
    transport = np.zeros(grid.dims)
    rate = np.zeros(grid.dims)
    for h, (lo, hi, last) in zip(grid.spacing, grid.face_slices):
        dv = v[hi] - v[lo]
        dv /= h
        downhill = dv > 0
        flux = np.where(downhill, mob[lo], mob[hi])
        flux *= dv
        div = np.empty(grid.dims)
        div[lo] = flux
        div[last] = 0.0
        div[hi] -= flux
        div /= h
        transport += div
        acc = np.empty(grid.dims)
        np.divide(np.where(downhill, dv, 0.0), h, out=acc[lo])
        acc[last] = 0.0
        acc[hi] += np.where(dv < 0, -dv, 0.0) / h
        rate += acc
    return np.negative(transport, out=transport), np.where(mob > 0, rate, 0.0)


def chemotaxis_transpose_oracle(grid, mob, v, bar):
    mob_bar = np.zeros(grid.dims)
    v_bar = np.zeros(grid.dims)
    for h, (lo, hi, _) in zip(grid.spacing, grid.face_slices):
        dv = v[hi] - v[lo]
        dv /= h
        downhill = dv > 0
        flux_bar = (bar[hi] - bar[lo]) / h
        mob_bar[lo] += np.where(downhill, flux_bar * dv, 0.0)
        mob_bar[hi] += np.where(downhill, 0.0, flux_bar * dv)
        dv_bar = flux_bar * np.where(downhill, mob[lo], mob[hi]) / h
        v_bar[hi] += dv_bar
        v_bar[lo] -= dv_bar
    return mob_bar, v_bar


def cell_gradient_sq_oracle(grid, a):
    total = np.zeros(grid.dims)
    grads = face_gradients_oracle(grid, a)
    for k, (lo, hi, _) in enumerate(grid.face_slices):
        pad = [(0, 0)] * grid.ndim
        pad[k] = (1, 1)
        gp = np.pad(grads[k], pad, mode="constant")
        total += (0.5 * (gp[lo] + gp[hi])) ** 2
    return total


def hessian_frobenius_sq_oracle(grid, a):
    total = sum(second_difference_oracle(grid, a, k) ** 2 for k in range(grid.ndim))
    for k in range(grid.ndim):
        for l in range(k + 1, grid.ndim):
            pad = [(0, 0)] * grid.ndim
            pad[k] = (1, 1)
            pad[l] = (1, 1)
            ap = np.pad(a, pad, mode="edge")
            sl = {}
            for sk in (-1, 1):
                for sl_ in (-1, 1):
                    idx = [slice(None)] * grid.ndim
                    idx[k] = slice(1 + sk, (-1 + sk) or None)
                    idx[l] = slice(1 + sl_, (-1 + sl_) or None)
                    sl[(sk, sl_)] = ap[tuple(idx)]
            cross = (sl[(1, 1)] - sl[(1, -1)] - sl[(-1, 1)] + sl[(-1, -1)]) / (
                4.0 * grid.spacing[k] * grid.spacing[l]
            )
            total += 2.0 * cross**2
    return total


def comparison_step_oracle(grid, w, f_tilde, dt, ws=None, out=None):
    """``sim._comparison_step`` as it was before it ran the concentration
    stage of ``sim.step`` with the reaction ``-f~``: the oracle that stage
    must equal bit for bit."""
    from chemoctrl.grid import Workspace
    from chemoctrl.sim import CFL_SAFETY, StepSizeError, _check_new_level, \
        _diffusion_solver

    f_max = float(f_tilde.max()) if f_tilde.size else 0.0
    if dt * f_max >= 1.0:
        raise StepSizeError(
            f"dt*max(f~)={dt * f_max:.3g} >= 1 breaks the M-matrix bound",
            admissible_dt=CFL_SAFETY / f_max,
        )
    if ws is None:
        ws = Workspace(grid)
    w_new = np.empty(grid.dims) if out is None else out
    w_star = np.multiply(f_tilde, dt, out=ws.cells[2])
    np.subtract(1.0, w_star, out=w_star)
    np.divide(w, w_star, out=w_star)
    _diffusion_solver(grid, dt).solve(w_star.ravel(), w_new.ravel(), ws)
    _check_new_level("w", w_new)
    return w_new


def weak_residual_oracle(traj, test_series):
    """The weak residual against a test function given at every saved level,
    shape ``(n_levels, *dims)``, as first written: the oracle the one-probe
    ``sim.weak_residual`` must equal bit for bit on a constant series."""
    from chemoctrl.grid import face_gradients, h1_seminorm

    grid = traj.grid
    phi = np.asarray(test_series, dtype=float)
    assert phi.shape == (traj.n_levels,) + grid.dims
    vol = grid.cell_volume
    residual = 0.0
    norm_sq = 0.0
    for n in range(traj.n_levels - 1):
        dt = float(traj.times[n + 1] - traj.times[n])
        ubar = 0.5 * (traj.u[n] + traj.u[n + 1])
        vbar = 0.5 * (traj.v[n] + traj.v[n + 1])
        pbar = 0.5 * (phi[n] + phi[n + 1])
        du = traj.u[n + 1] - traj.u[n]
        residual += (du * pbar).sum() * vol

        gu = face_gradients(grid, ubar)
        gv = face_gradients(grid, vbar)
        gp = face_gradients(grid, pbar)
        diff_term = 0.0
        chem_term = 0.0
        for k, (lo, hi, _) in enumerate(grid.face_slices):
            mean_u = 0.5 * (ubar[lo] + ubar[hi])
            diff_term += (gu[k] * gp[k]).sum() * vol
            chem_term += (mean_u * gv[k] * gp[k]).sum() * vol
        residual += dt * (diff_term - chem_term)

        norm_sq += dt * ((pbar**2).sum() * vol + h1_seminorm(grid, pbar) ** 2)

    if norm_sq == 0.0:
        return 0.0
    return float(residual / np.sqrt(norm_sq))
