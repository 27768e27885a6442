import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

# hypothesis's pytest plugin imports this module when an example fails, and
# it imports libcst, whose use of mypy_extensions.TypedDict warns with a
# DeprecationWarning; under ``-W error`` that aborts the session from inside
# the plugin instead of reporting the failure.  Imported here once, with that
# warning ignored for this import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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


# The grid kernels as first written, with per-cell ``np.where`` selects,
# ``np.pad`` copies and strided face slices: the oracles the rewritten
# kernels must equal byte for byte, signed zeros included.  No face-kernel
# oracle calls a face kernel of ``chemoctrl``.

def face_slices(grid):
    """Per axis, the index tuples ``(lo, hi, last)`` that select along it all
    entries but the last, all but the first, and the last one: on an array of
    shape ``dims``, the cells below and above each interior face along the
    axis, and the last layer of cells."""
    out = []
    for k in range(grid.ndim):
        lo, hi, last = ([slice(None)] * grid.ndim for _ in range(3))
        lo[k], hi[k], last[k] = slice(0, -1), slice(1, None), slice(-1, None)
        out.append((tuple(lo), tuple(hi), tuple(last)))
    return out


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
    for h, (lo, hi, last) in zip(grid.spacing, face_slices(grid)):
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


def chemotaxis_transpose_oracle(grid, mob, v, bar, ws=None, out=None):
    # ws, out: the workspace and outputs the reverse pass passes, unused here
    mob_bar = np.zeros(grid.dims)
    v_bar = np.zeros(grid.dims)
    for h, (lo, hi, _) in zip(grid.spacing, face_slices(grid)):
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
    for k, (lo, hi, _) in enumerate(face_slices(grid)):
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
    _diffusion_solver(grid, dt).solve(w_star.ravel(), ws, w_new.ravel())
    _check_new_level("w", w_new)
    return w_new


def h1_seminorm_oracle(grid, a):
    """The Neumann H^1 seminorm: the squared face gradients summed axis by
    axis, weighted by one cell volume."""
    total = 0.0
    for g in face_gradients_oracle(grid, a):
        total += (g**2).sum()
    return float(np.sqrt(total * grid.cell_volume))


def weak_residual_oracle(traj, test_series):
    """The weak residual against a test function given at every saved level,
    shape ``(n_levels, *dims)``, as first written: the oracle the one-probe
    ``sim.weak_residual`` must equal bit for bit on a constant series."""
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

        gu = face_gradients_oracle(grid, ubar)
        gv = face_gradients_oracle(grid, vbar)
        gp = face_gradients_oracle(grid, pbar)
        diff_term = 0.0
        chem_term = 0.0
        for k, (lo, hi, _) in enumerate(face_slices(grid)):
            mean_u = 0.5 * (ubar[lo] + ubar[hi])
            diff_term += (gu[k] * gp[k]).sum() * vol
            chem_term += (mean_u * gv[k] * gp[k]).sum() * vol
        residual += dt * (diff_term - chem_term)

        norm_sq += dt * ((pbar**2).sum() * vol + h1_seminorm_oracle(grid, pbar) ** 2)

    if norm_sq == 0.0:
        return 0.0
    return float(residual / np.sqrt(norm_sq))


def face_weighted_cross_oracle(grid, density_pow, z):
    """``energy._face_weighted_cross`` as it was before the report reused one
    workspace for every level, verbatim."""
    total = 0.0
    for gz, (lo, hi, _) in zip(face_gradients_oracle(grid, z), face_slices(grid)):
        mean_pow = 0.5 * (density_pow[lo] + density_pow[hi])
        total += (mean_pow * gz**2).sum()
    return total * grid.cell_volume


def level_quantities_oracle(traj, params):
    """``energy._level_quantities`` as it was before the report reused one
    workspace for every level, with fresh temporaries for every product: the
    oracle its six series must equal bit for bit.  The face terms come from
    the kernel oracles above."""
    from chemoctrl.grid import Workspace, integrate
    from chemoctrl.model import g_energy

    grid = traj.grid
    s = params.s
    vol = grid.cell_volume
    # rows: energy, entropy, cross, hessian, quartic, control forcing
    out = np.zeros((6, traj.n_levels))
    ws = Workspace(grid)  # holds the control slice of one level at a time
    for i in range(traj.n_levels):
        u = traj.u[i]
        z = np.sqrt(traj.v[i] + params.alpha**2)
        f = traj.control.slice_at(float(traj.times[i]), ws)
        out[:, i] = (
            s / 4.0 * integrate(grid, g_energy(u, s))
            + 0.5 * h1_seminorm_oracle(grid, z) ** 2,
            h1_seminorm_oracle(grid, (u + 1.0) ** (s / 2.0)) ** 2,
            face_weighted_cross_oracle(grid, u**s, z),
            hessian_frobenius_sq_oracle(grid, z).sum() * vol,
            (cell_gradient_sq_oracle(grid, z) ** 2 / z**2).sum() * vol,
            (f**2).sum() * vol,
        )
    return tuple(out)


def simulate_adjoint_oracle(traj, u_bar, v_bar):
    """``sim.simulate_adjoint`` as it was before the reverse pass wrote its
    products into a workspace, with a fresh array for every product, the
    transpose of the transport from :func:`chemotaxis_transpose_oracle` and
    the allocating form of ``Control.scatter``: the oracle the pass must
    equal bit for bit."""
    from chemoctrl.grid import Workspace
    from chemoctrl.model import truncate_derivative
    from chemoctrl.sim import _diffusion_solver, _mobility_and_reaction, _split

    grid, params, control, dts = traj.grid, traj.params, traj.control, traj.dt_history
    ws = Workspace(grid)
    u_bar = np.array(u_bar, dtype=float)
    v_bar = np.array(v_bar, dtype=float)
    f_bar = np.zeros_like(control.values)
    for n in range(dts.size - 1, -1, -1):
        dt = float(dts[n])
        t0, t1 = float(traj.times[n]), float(traj.times[n + 1])
        u, v, v_new = traj.u[n], traj.v[n], traj.v[n + 1]
        fpos, fneg = _split(control.sample(t0, t1, ws), ws)
        mobility, react = _mobility_and_reaction(u, fpos, fneg, params, out=ws.cells[4])
        diffusion = _diffusion_solver(grid, dt)

        lam_u = diffusion.solve(u_bar[n + 1].ravel(), ws, ws.flat[5]).reshape(grid.dims)
        u_bar[n] += lam_u
        mob_bar, v_new_bar = chemotaxis_transpose_oracle(grid, mobility, v_new, dt * lam_u)
        v_new_bar += v_bar[n + 1]

        mu = diffusion.solve(v_new_bar.ravel(), ws, ws.flat[5]).reshape(grid.dims)
        d = 1.0 + dt * react
        v_bar[n] += mu / d
        r_bar = -dt * mu * v / (d * d)

        mob_bar += params.s * mobility ** (params.s - 1.0) * r_bar
        u_bar[n] += truncate_derivative(u, params.m) * mob_bar
        bar = -r_bar * grid.control_mask
        j, w = control._bracket(t1)
        if w is None:
            f_bar[j] += bar
        else:
            f_bar[j - 1] += (1.0 - w) * bar
            f_bar[j] += w * bar
    return f_bar


# The coefficient prolongation as first written, recomputing every axis's
# positions, indices and weights on each call, and its transpose built from
# unit vectors: the oracles the optimize context's control space must equal
# byte for byte.

def interp_axis_oracle(arr, axis, frac):
    """Linear interpolation along one axis at fractional positions in [0, 1]."""
    n = arr.shape[axis]
    a = np.moveaxis(arr, axis, 0)
    if n == 1:
        out = np.broadcast_to(a[0], (frac.size,) + a.shape[1:]).copy()
    else:
        pos = np.clip(frac, 0.0, 1.0) * (n - 1)
        j = np.minimum(pos.astype(int), n - 2)
        w = (pos - j).reshape((-1,) + (1,) * (a.ndim - 1))
        out = a[j] * (1.0 - w) + a[j + 1] * w
    return np.moveaxis(out, 0, axis)


def lattice_fractions_oracle(grid, times):
    """Fine-lattice positions in [0, 1] per axis: the times, then the cell
    centers along each space axis."""
    t_final = times[-1] if times[-1] > 0 else 1.0
    return [times / t_final] + [grid.axis_centers(k) / grid.lengths[k]
                                for k in range(grid.ndim)]


def prolong_oracle(coeffs, grid, times):
    """Multilinear prolongation of coefficients of shape (time nodes, nodes
    per space axis...) to ``(len(times), *grid.dims)``, unmasked."""
    out = np.asarray(coeffs, dtype=float)
    for axis, frac in enumerate(lattice_fractions_oracle(grid, times)):
        out = interp_axis_oracle(out, axis, frac)
    return out


def prolong_transpose_oracle(basis, grid, times, fine):
    """Transpose of :func:`prolong_oracle`, applied axis by axis with each
    axis's interpolation matrix built from unit vectors."""
    out = fine
    for axis, (n, frac) in enumerate(zip(basis, lattice_fractions_oracle(grid, times))):
        mat = interp_axis_oracle(np.eye(n), 0, frac)
        out = np.moveaxis(np.tensordot(mat, out, axes=([0], [axis])), 0, axis)
    return out
