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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .io import write_json


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
    control_mask : array of 0/1 entries, optional
        Marks the cells where the control acts.  Defaults to the whole
        domain.  Shape must equal ``dims``, and every entry must be a bool
        or a number equal to 0 or 1; it is stored as a read-only bool array.
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
        mask = np.ones(dims, dtype=bool) if self.control_mask is None \
            else np.asarray(self.control_mask)
        if mask.dtype.kind in "SU":  # one text entry makes text of them all
            mask = np.asarray(self.control_mask, dtype=object)
        if mask.shape != dims:
            raise ValueError(f"control_mask shape {mask.shape} does not match dims {dims}")
        off = (mask != 0) & (mask != 1)
        if off.any():
            cell = tuple(int(i) for i in np.argwhere(off)[0])
            raise ValueError(f"control_mask value {mask.item(cell)!r} at {cell} "
                             "is neither 0 nor 1")
        mask = mask.astype(bool)
        mask.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "control_mask", mask)

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def n_cells(self):
        return math.prod(self.dims)

    @cached_property
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
        """The geometry, ``dims`` and ``spacing``; the mask is cell data and
        goes to a level stack of its own."""
        return {"dims": list(self.dims), "spacing": list(self.spacing)}

    def to_json(self, path):
        write_json(path, self.header_dict())

    @classmethod
    def unit_box(cls, dims, control_mask=None):
        """Grid on the unit box [0,1]^d with the given cell counts."""
        dims = tuple(dims)
        spacing = tuple(1.0 / n for n in dims)
        return cls(dims, spacing, control_mask=control_mask)


@dataclass
class Field:
    """Scalar cell values on a grid, the validated input of a run.

    The values must have shape ``grid.dims`` and finite entries; they are
    stored as float64.  The stepper and the operators work on plain arrays.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.dims:
            raise ValueError(f"field values have shape {vals.shape}, "
                             f"the grid has dims {self.grid.dims}")
        if not np.all(np.isfinite(vals)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite field value at cell {bad}")
        self.values = vals

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.dims, float(value)))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.dims))


# ---------------------------------------------------------------------------
# array-level kernels (shared with the time stepper)
# ---------------------------------------------------------------------------

def face_gradients(grid, a, out=None):
    """Interior-face gradients per axis.

    The list entry for axis ``k`` has shape ``dims`` with ``dims[k]-1`` along
    that axis.  Boundary faces carry zero gradient by the Neumann closure and
    are not stored.  ``a[hi] - a[lo]`` is the subtraction ``np.diff`` makes,
    so the result equals ``np.diff(a, axis=k) / h`` bit for bit.  With
    ``out``, one C-contiguous array of that shape per axis, the gradients are
    written there and ``out``'s arrays are returned.
    """
    return [_face_gradient(grid, a, k, None if out is None else out[k])
            for k in range(grid.ndim)]


def _face_gradient(grid, a, k, out):
    """The interior-face gradients of :func:`face_gradients` along axis ``k``,
    in ``out`` (a new array when None)."""
    lo, hi, _ = grid.face_slices[k]
    g = np.subtract(a[hi], a[lo], out=out)
    g /= grid.spacing[k]
    return g


def _second_difference(grid, k, grad, out):
    """Second difference along axis ``k`` of the array whose face gradient
    along the axis is ``grad`` (:func:`face_gradients`' entry ``k``): zero
    boundary flux, then the difference of the gradients.  Summed over the
    axes it is the discrete Laplacian, which maps a constant to exactly 0.

    Writing the gradients into the low cells and subtracting them from the
    high cells makes the subtractions of ``np.diff`` of the zero-padded
    gradients, so the result equals that bit for bit, without the padded copy.
    The result goes into ``out``, an array of shape ``dims`` that must not be
    ``grad``, and is returned.
    """
    lo, hi, last = grid.face_slices[k]
    out[lo] = grad
    out[last] = 0.0
    out[hi] -= grad
    out /= grid.spacing[k]
    return out


class Workspace:
    """Scratch arrays for one level of cells on ``grid``, reused step after step.

    ``flat`` holds six float arrays of ``grid.n_cells`` entries, ``cells``
    the same six arrays shaped ``grid.dims``, and ``mask`` one bool array of
    ``grid.n_cells`` entries; :attr:`faces` (views of ``flat``) and
    :attr:`cross_pairs` (views of one more array) are built on first use.
    A run builds one workspace and passes it to
    every kernel of every step, so that a step allocates no array as large as
    a level; every kernel that works in one requires it.  Each kernel says
    which of its arrays it writes.  A result it returns there is overwritten
    by the next kernel given the same workspace.
    """

    def __init__(self, grid):
        n = grid.n_cells
        self.grid = grid
        self.flat = tuple(np.empty(n) for _ in range(6))
        self.cells = tuple(a.reshape(grid.dims) for a in self.flat)
        self.mask = np.empty(n, dtype=bool)

    @cached_property
    def cross_pairs(self):
        """Per axis pair ``k < l``, the edge-padded level that
        :func:`hessian_frobenius_sq`'s cross difference reads and the four
        views of it shifted by ``(+-1, +-1)`` along ``(k, l)``, built once per
        workspace: ``(k, l, padded, ((1, 1), (1, -1), (-1, 1), (-1, -1))
        views)``.  The pairs take turns in one flat array as large as the
        largest of them (on a cube the three 3D pairs have one size)."""
        dims = self.grid.dims
        pairs = list(itertools.combinations(range(len(dims)), 2))
        shapes = [_padded_shape(dims, pair) for pair in pairs]
        flat = np.empty(max(map(math.prod, shapes), default=0))
        out = []
        for (k, l), shape in zip(pairs, shapes):
            padded = flat[:math.prod(shape)].reshape(shape)
            views = []
            for sk, sl in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                idx = [slice(None)] * len(dims)
                idx[k] = slice(1 + sk, (-1 + sk) or None)
                idx[l] = slice(1 + sl, (-1 + sl) or None)
                views.append(padded[tuple(idx)])
            out.append((k, l, padded, tuple(views)))
        return tuple(out)

    @cached_property
    def faces(self):
        """Per axis ``k``, the views of ``flat`` that :func:`chemotaxis_array`
        works on, built once per workspace.

        On the flat C-order arrays the cell above cell ``i`` along axis ``k``
        is ``i + s``, with the stride ``s = prod(dims[k+1:])``, so the face
        differences of the axis are ``a[s:] - a[:-s]``.  Of those ``N - s``
        pairs, the ones whose low cell is in the last layer of the axis wrap
        from one line of cells to the next; ``wrap`` views them (None on axis
        0, where no pair wraps).  The entry per axis is ``(s, h, wrap, dv,
        up, down, acc_lo, acc_last, acc_hi)``: the difference, upward and
        downward parts of length ``N - s``, and the accumulator ``flat[3]``
        below, at and above its last ``s`` cells.
        """
        dims = self.grid.dims
        diff, up, down, acc = self.flat[:4]
        out = []
        for k, h in enumerate(self.grid.spacing):
            s = math.prod(dims[k + 1:])
            m = diff.size - s
            wrap = diff.reshape(math.prod(dims[:k]), dims[k], s)[:, -1] if k else None
            out.append((s, h, wrap, diff[:m], up[:m], down[:m],
                        acc[:m], acc[m:], acc[s:]))
        return tuple(out)


def chemotaxis_array(grid, mob, v, ws):
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
    across each cell, then ``/ h``, with the axes summed in order.  Both
    results are the ``cells[4]`` and ``cells[5]`` of the workspace ``ws``
    (:class:`Workspace`), and the kernel writes all six of its arrays and its
    mask.

    The donor flux is ``max(dv, 0) * mob[lo] + min(dv, 0) * mob[hi]`` rather
    than a per-face select: for finite ``mob`` the non-donor product is a
    zero and ``x + 0 == x``, so only the sign of a zero can differ from the
    select, and the accumulators start at +0, which a signed zero added to
    them leaves as it is.  The outflow rate ``max(dv, 0) / h`` at the lo cell
    and ``-min(dv, 0) / h`` at the hi cell is exact the same way.  The final
    mobility mask stays a select, since ``rate * (mob > 0)`` would turn an
    infinite rate into NaN and hide a CFL violation.

    Every pass runs on the flat arrays, shifted by the stride of the axis
    (:attr:`Workspace.faces`), so every operation is contiguous.  The
    differences that wrap from one line of cells to the next are set to +0
    first.  Their fluxes and rates are then zeros for finite ``mob``: at the
    low cell they stand where the per-axis slices write a zero, and at the
    high cell they are added to a term that the slices leave alone, which
    changes at most the sign of a zero term.  The accumulators start at +0
    and drop such signs, so the results equal the per-axis slices' bit for
    bit.
    """
    mob, v = mob.ravel(), v.ravel()
    acc, transport, rate = ws.flat[3:]
    for k, (s, h, wrap, dv, to_hi, down, acc_lo, acc_last, acc_hi) in enumerate(ws.faces):
        np.subtract(v[s:], v[:-s], out=dv)
        if wrap is not None:
            wrap[...] = 0.0
        dv /= h
        np.maximum(dv, 0.0, out=to_hi)  # nonzero where mass flows from lo to hi
        to_lo = np.minimum(dv, 0.0, out=dv)  # nonzero where it flows from hi to lo
        # outgoing gradient magnitude accumulates at the donor cell
        np.divide(to_hi, h, out=acc_lo)
        acc_last[...] = 0.0
        acc_hi -= np.divide(to_lo, h, out=down)
        # the first axis starts the accumulator at +0, as 0 + acc would
        np.add(acc, rate if k else 0.0, out=rate)
        # the donor-cell flux
        flux = np.multiply(to_hi, mob[:-s], out=to_hi)
        flux += np.multiply(to_lo, mob[s:], out=to_lo)
        # outgoing flux minus incoming, zero flux through the boundary
        acc_lo[...] = flux
        acc_last[...] = 0.0
        acc_hi -= flux
        acc /= h
        np.add(acc, transport if k else 0.0, out=transport)
    np.negative(transport, out=transport)
    immobile = np.logical_not(np.greater(mob, 0.0, out=ws.mask), out=ws.mask)
    np.copyto(rate, 0.0, where=immobile)
    return ws.cells[4], ws.cells[5]


def chemotaxis_transpose(grid, mob, v, bar):
    """Transpose of the transport term of :func:`chemotaxis_array`.

    The transport is bilinear in ``(mob, v)`` once the donor-cell masks are
    fixed, and the masks (from the sign of each face gradient of ``v``) are
    taken as :func:`chemotaxis_array` takes them.  Returns ``(mob_bar, v_bar)``,
    the gradients of ``sum(bar * transport)`` with respect to ``mob`` and ``v``
    away from the faces where the gradient of ``v`` changes sign.

    The mobility gradients add ``flux_bar * max(dv, 0)`` to the lo cells and
    ``flux_bar * min(dv, 0)`` to the hi cells; for a finite ``flux_bar`` the
    non-donor term is a zero, so the sums equal those of a per-face select
    bit for bit, as in :func:`chemotaxis_array`.  The donor mobility in the
    gradient with respect to ``v`` has no such exact product form and stays
    a select.
    """
    mob_bar = np.zeros(grid.dims)
    v_bar = np.zeros(grid.dims)
    for h, (lo, hi, _) in zip(grid.spacing, grid.face_slices):
        dv = v[hi] - v[lo]
        dv /= h
        # a face flux leaves its lo cell and enters its hi cell
        flux_bar = bar[hi] - bar[lo]
        flux_bar /= h
        mob_bar[lo] += flux_bar * np.maximum(dv, 0.0)
        donor = np.where(dv > 0, mob[lo], mob[hi])
        mob_bar[hi] += flux_bar * np.minimum(dv, 0.0, out=dv)
        dv_bar = np.multiply(flux_bar, donor, out=donor)
        dv_bar /= h
        v_bar[hi] += dv_bar
        v_bar[lo] -= dv_bar
    return mob_bar, v_bar


def cell_gradient_sq(grid, grads, ws):
    """Cellwise squared gradient magnitude from averaged face gradients.

    Each cell averages its two face gradients per axis, a boundary face
    counting as zero; ``grads`` are the array's :func:`face_gradients`.  The
    face sums are formed in place of a zero-padded copy; the additions are
    those of the padded form, so the result equals it bit for bit.  The
    result is ``cells[0]`` of the workspace ``ws`` (:class:`Workspace`), with
    ``cells[1]`` as scratch; neither may hold ``grads``.
    """
    total, face_sum = ws.cells[:2]
    total[...] = 0.0
    for g, (lo, hi, last) in zip(grads, grid.face_slices):
        face_sum[lo] = g
        face_sum[last] = 0.0
        face_sum[hi] += g
        face_sum *= 0.5
        total += np.square(face_sum, out=face_sum)
    return total


def hessian_frobenius_sq(grid, a, grads, ws):
    """Cellwise squared Frobenius norm of the discrete Hessian.

    Zero-flux second differences (the Laplacian's) on the diagonal, centered
    cross differences closed with mirror ghosts off the diagonal; off-diagonal
    pairs count twice.  The mirror ghosts of a cross difference are one
    edge-padded copy of ``a`` filled by slice copies, which holds what
    ``np.pad(a, mode="edge")`` holds; the arithmetic runs in the same order on
    the same values, so the result is the same bit for bit.

    ``grads`` are ``a``'s :func:`face_gradients`, from which the diagonal
    second differences start.  The result is ``cells[0]`` of the workspace
    ``ws`` (:class:`Workspace`), with ``cells[1]``, ``cells[2]`` and the
    padded levels of :attr:`Workspace.cross_pairs` as scratch; none of them
    may hold ``a`` or ``grads``.
    """
    total, diag, cross = ws.cells[:3]
    _second_difference(grid, 0, grads[0], total)
    np.square(total, out=total)
    for k in range(1, grid.ndim):
        _second_difference(grid, k, grads[k], diag)
        total += np.square(diag, out=diag)
    for k, l, padded, (pp, pm, mp, mm) in ws.cross_pairs:
        _edge_padded(a, (k, l), padded)
        np.subtract(pp, pm, out=cross)
        cross -= mp
        cross += mm
        cross /= 4.0 * grid.spacing[k] * grid.spacing[l]
        np.square(cross, out=cross)
        cross *= 2.0
        total += cross
    return total


def _padded_shape(shape, axes):
    """``shape`` with two more entries along each axis in ``axes``."""
    return tuple(n + 2 * (j in axes) for j, n in enumerate(shape))


def _edge_padded(a, axes, out):
    """``a`` with one ghost layer on both ends of each axis in ``axes``, each
    a copy of the layer next to it (corners included), as
    ``np.pad(mode="edge")`` pads, written into ``out``, an array of the
    padded shape."""
    inner = [slice(None)] * a.ndim
    for k in axes:
        inner[k] = slice(1, -1)
    out[tuple(inner)] = a
    for k in axes:
        for ghost, source in ((0, 1), (-1, -2)):
            dst, src = list(inner), list(inner)
            dst[k], src[k] = ghost, source
            out[tuple(dst)] = out[tuple(src)]
        inner[k] = slice(None)  # the next axis copies these ghosts into its corners
    return out


def integrate(grid, a):
    """Cell-volume-weighted sum of a cell array (the discrete domain integral)."""
    return float(a.sum()) * grid.cell_volume


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


def h1_seminorm(grid, a, grads_sq=None):
    """L^2 norm of the face-difference gradient of a cell array, with Neumann
    closure.

    Each interior face contributes its squared gradient weighted by one cell
    volume; boundary faces carry zero gradient.  ``grads_sq`` are the squares
    of ``a``'s :func:`face_gradients` when already at hand (``a`` is then not
    read); each is summed as it would be when computed here.
    """
    if grads_sq is None:
        grads_sq = (np.square(g, out=g) for g in face_gradients(grid, a))
    total = 0.0
    for g_sq in grads_sq:
        total += g_sq.sum()
    return float(np.sqrt(total * grid.cell_volume))
