"""Uniform cell-centered box grids with zero-flux boundary closure.

The domain is an axis-aligned box in 1, 2 or 3 dimensions, discretized by a
uniform cell-centered grid.  The operators act on plain cell arrays: they
take face differences and close the boundary with zero flux (mirror ghost
cells), so discrete integrals of divergence-form terms vanish identically.
The Laplacian is the sum over the axes of one such second difference, and
the upwind transport is one more divergence of face fluxes.  A boolean mask
marks the subregion where the bilinear control is allowed to act.  The
discrete norms live here too, including the space-time ``L^p`` norm with its
trapezoid rule in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .io import read_cells, write_cells, write_json


class GridMismatchError(ValueError):
    """Raised when an operation combines fields living on different grids."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered grid on a box, with a control-region mask.

    Parameters
    ----------
    dims : tuple of int
        Cell counts per axis; every axis needs at least 2 cells.
    spacing : tuple of float
        Cell width per axis, strictly positive.
    control_mask : ndarray of bool, optional
        Marks the cells where the control acts.  Defaults to the whole
        domain.  Shape must equal ``dims``.
    """

    dims: tuple
    spacing: tuple
    control_mask: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        spacing = tuple(float(h) for h in self.spacing)
        if len(dims) not in (1, 2, 3):
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {len(dims)}")
        if len(spacing) != len(dims):
            raise ValueError("dims and spacing must have the same length")
        if any(n < 2 for n in dims):
            raise ValueError(f"every axis needs at least 2 cells, got dims={dims}")
        if any(not np.isfinite(h) or h <= 0 for h in spacing):
            raise ValueError(f"spacing must be positive, got {spacing}")
        mask = self.control_mask
        if mask is None:
            mask = np.ones(dims, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != dims:
                raise ValueError(
                    f"control_mask shape {mask.shape} does not match dims {dims}"
                )
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "control_mask", mask)

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def n_cells(self):
        return int(np.prod(self.dims))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    @property
    def lengths(self):
        """Box side lengths per axis."""
        return tuple(n * h for n, h in zip(self.dims, self.spacing))

    @property
    def volume(self):
        """Measure of the whole box."""
        return float(np.prod(self.lengths))

    def axis_centers(self, axis):
        """Cell-center coordinates along one axis."""
        n, h = self.dims[axis], self.spacing[axis]
        return (np.arange(n) + 0.5) * h

    def cell_centers(self):
        """Cell-center coordinate arrays, one per axis, each of shape ``dims``."""
        axes = [self.axis_centers(k) for k in range(self.ndim)]
        return np.meshgrid(*axes, indexing="ij")

    @cached_property
    def face_slices(self):
        """Per axis, the index tuples ``(lo, hi, last)`` that select along it
        all entries but the last, all but the first, and the last one.

        On an array of shape ``dims`` they are the cells below and above each
        interior face along the axis, and the last layer of cells.
        """
        out = []
        for k in range(self.ndim):
            lo, hi, last = ([slice(None)] * self.ndim for _ in range(3))
            lo[k], hi[k], last[k] = slice(0, -1), slice(1, None), slice(-1, None)
            out.append((tuple(lo), tuple(hi), tuple(last)))
        return tuple(out)

    def compatible_with(self, other):
        """Whether two grids describe the same discretization (mask included)."""
        return self is other or (
            self.dims == other.dims
            and self.spacing == other.spacing
            and np.array_equal(self.control_mask, other.control_mask)
        )

    def box_mask(self, bounds):
        """Boolean mask of cells whose centers fall inside a coordinate box.

        Parameters
        ----------
        bounds : sequence of (lo, hi) pairs, one per axis.
        """
        if len(bounds) != self.ndim:
            raise ValueError("one (lo, hi) pair per axis required")
        centers = self.cell_centers()
        mask = np.ones(self.dims, dtype=bool)
        for k, (lo, hi) in enumerate(bounds):
            mask &= (centers[k] >= lo) & (centers[k] <= hi)
        return mask

    def with_mask(self, mask):
        """New grid with the same geometry and a different control mask."""
        return Grid(self.dims, self.spacing, control_mask=mask)

    def header_dict(self):
        return {
            "dims": list(self.dims),
            "spacing": list(self.spacing),
            "control_mask": [int(b) for b in self.control_mask.ravel(order="C")],
        }

    def to_json(self, path):
        write_json(path, self.header_dict())

    @classmethod
    def from_header(cls, header):
        dims = tuple(int(n) for n in header["dims"])
        mask = np.asarray(header["control_mask"], dtype=bool).reshape(dims)
        return cls(dims, tuple(header["spacing"]), control_mask=mask)

    @classmethod
    def unit_box(cls, dims, control_mask=None):
        """Grid on the unit box [0,1]^d with the given cell counts."""
        dims = tuple(dims)
        spacing = tuple(1.0 / n for n in dims)
        return cls(dims, spacing, control_mask=control_mask)


@dataclass
class Field:
    """Scalar cell values on a grid.

    Entries must be finite; the array is stored as float64 with shape
    ``grid.dims``.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.dims:
            if vals.size == self.grid.n_cells:
                vals = vals.reshape(self.grid.dims)
            else:
                raise ValueError(
                    f"field has {vals.size} values, grid has {self.grid.n_cells} cells"
                )
        if not np.all(np.isfinite(vals)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite field value at cell {bad}")
        self.values = vals

    @classmethod
    def _unchecked(cls, grid, values):
        """Wrap a float64 array of shape ``grid.dims`` that the caller has
        already found finite, without the checks of ``__post_init__``."""
        phi = cls.__new__(cls)
        phi.grid = grid
        phi.values = values
        return phi

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.dims, float(value)))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.dims))

    def copy(self):
        return Field(self.grid, self.values.copy())

    def min(self):
        return float(self.values.min())

    def max(self):
        return float(self.values.max())


# ---------------------------------------------------------------------------
# array-level kernels (shared with the time stepper)
# ---------------------------------------------------------------------------

def face_gradients(grid, a):
    """Interior-face gradients per axis.

    The list entry for axis ``k`` has shape ``dims`` with ``dims[k]-1`` along
    that axis.  Boundary faces carry zero gradient by the Neumann closure and
    are not stored.
    """
    grads = []
    for k in range(grid.ndim):
        grads.append(np.diff(a, axis=k) / grid.spacing[k])
    return grads


def _second_difference(grid, a, k):
    """Second difference along axis ``k``: face gradients, zero boundary flux,
    then their difference.  Summed over the axes it is the discrete Laplacian,
    which maps a constant to exactly 0."""
    pad = [(0, 0)] * grid.ndim
    pad[k] = (1, 1)
    h = grid.spacing[k]
    return np.diff(np.pad(np.diff(a, axis=k) / h, pad), axis=k) / h


def chemotaxis_array(grid, mob, v):
    """Upwind conservative transport term and its per-cell outflow rate.

    Returns ``(-div(mob * grad v), rate)`` where ``rate[i]`` is the total
    outgoing face-gradient magnitude per unit cell volume.  An explicit Euler
    update ``u + dt * out`` keeps ``u`` nonnegative whenever
    ``dt * rate.max() <= 1``, because each cell can lose at most its own
    content (the upwind mobility is the donor-cell value).  The rate counts
    only cells with positive mobility: a cell with zero mobility sends no
    flux out, so it cannot lose mass and does not bound ``dt``.

    The result equals minus the divergence of the donor-cell face fluxes,
    closed with zero boundary flux, bit for bit: per axis the flux difference
    across each cell, then ``/ h``, with the axes summed in order.
    """
    transport = np.zeros(grid.dims)
    rate = np.zeros(grid.dims)
    for h, (lo, hi, last) in zip(grid.spacing, grid.face_slices):
        dv = v[hi] - v[lo]
        dv /= h
        downhill = dv > 0  # mass flows from the lo cell to the hi cell
        flux = np.where(downhill, mob[lo], mob[hi])
        flux *= dv
        # outgoing flux minus incoming, zero flux through the boundary
        div = np.empty(grid.dims)
        div[lo] = flux
        div[last] = 0.0
        div[hi] -= flux
        div /= h
        transport += div
        # outgoing gradient magnitude accumulates at the donor cell
        acc = np.empty(grid.dims)
        np.divide(np.where(downhill, dv, 0.0), h, out=acc[lo])
        acc[last] = 0.0
        acc[hi] += np.where(dv < 0, -dv, 0.0) / h
        rate += acc
    return np.negative(transport, out=transport), np.where(mob > 0, rate, 0.0)


def chemotaxis_transpose(grid, mob, v, bar):
    """Transpose of the transport term of :func:`chemotaxis_array`.

    The transport is bilinear in ``(mob, v)`` once the donor-cell masks are
    fixed, and the masks (from the sign of each face gradient of ``v``) are
    taken as :func:`chemotaxis_array` takes them.  Returns ``(mob_bar, v_bar)``,
    the gradients of ``sum(bar * transport)`` with respect to ``mob`` and ``v``
    away from the faces where the gradient of ``v`` changes sign.
    """
    mob_bar = np.zeros(grid.dims)
    v_bar = np.zeros(grid.dims)
    for h, (lo, hi, _) in zip(grid.spacing, grid.face_slices):
        dv = v[hi] - v[lo]
        dv /= h
        downhill = dv > 0
        # a face flux leaves its lo cell and enters its hi cell
        flux_bar = (bar[hi] - bar[lo]) / h
        mob_bar[lo] += np.where(downhill, flux_bar * dv, 0.0)
        mob_bar[hi] += np.where(downhill, 0.0, flux_bar * dv)
        dv_bar = flux_bar * np.where(downhill, mob[lo], mob[hi]) / h
        v_bar[hi] += dv_bar
        v_bar[lo] -= dv_bar
    return mob_bar, v_bar


def cell_gradient_sq(grid, a):
    """Cellwise squared gradient magnitude from averaged face gradients."""
    total = np.zeros(grid.dims)
    grads = face_gradients(grid, a)
    for k, (lo, hi, _) in enumerate(grid.face_slices):
        pad = [(0, 0)] * grid.ndim
        pad[k] = (1, 1)
        gp = np.pad(grads[k], pad, mode="constant")  # boundary faces: zero gradient
        total += (0.5 * (gp[lo] + gp[hi])) ** 2
    return total


def hessian_frobenius_sq(grid, a):
    """Cellwise squared Frobenius norm of the discrete Hessian.

    Zero-flux second differences (the Laplacian's) on the diagonal, centered
    cross differences closed with mirror ghosts off the diagonal; off-diagonal
    pairs count twice.
    """
    total = sum(_second_difference(grid, a, k) ** 2 for k in range(grid.ndim))
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


def integrate(phi):
    """Cell-volume-weighted sum of a field (the discrete domain integral)."""
    return float(phi.values.sum()) * phi.grid.cell_volume


def trapezoid_intervals(times, per_level):
    """Trapezoid integral of a per-level series over each interval of ``times``;
    ``np.cumsum`` of the result is the running integral."""
    return np.diff(times) * 0.5 * (per_level[:-1] + per_level[1:])


def trapezoid_weights(times):
    """Per-level weights ``w`` with ``w @ per_level`` the trapezoid integral
    over ``times``, the transpose of ``trapezoid_intervals(...).sum()``."""
    half = 0.5 * np.diff(times)
    w = np.zeros(len(times))
    w[:-1] += half
    w[1:] += half
    return w


def spacetime_lp_norm(times, series, grid, p):
    """Discrete ``L^p`` norm on the space-time cylinder, trapezoid in time.

    Parameters
    ----------
    times : ndarray of shape (n,)
    series : ndarray of shape (n, *grid.dims)
    p : float, at least 1 (``inf`` gives the max norm).
    """
    if p < 1:
        raise ValueError(f"L^p norm requires p >= 1, got {p}")
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if series.shape[0] != times.size:
        raise ValueError("series and times length mismatch")
    if np.isinf(p):
        return float(np.abs(series).max())
    per_level = (np.abs(series) ** p).reshape(times.size, -1).sum(axis=1) \
        * grid.cell_volume
    return float(trapezoid_intervals(times, per_level).sum()) ** (1.0 / p)


def h1_seminorm(phi):
    """L^2 norm of the face-difference gradient with Neumann closure.

    Each interior face contributes its squared gradient weighted by one cell
    volume; boundary faces carry zero gradient.
    """
    grid = phi.grid
    total = 0.0
    for g in face_gradients(grid, phi.values):
        total += (g**2).sum()
    return float(np.sqrt(total * grid.cell_volume))


# ---------------------------------------------------------------------------
# serialization: CSV per cell plus a JSON header for the grid
# ---------------------------------------------------------------------------

def field_to_csv(phi, path):
    """Write one row per cell: index coordinates, then the value."""
    write_cells(path, phi.grid.dims, phi.values)


def field_from_csv(grid, path):
    """Read a field written by :func:`field_to_csv` onto the given grid."""
    return Field(grid, read_cells(path, grid.dims))
