"""Uniform cell-centered box grids with zero-flux boundary closure.

The domain is an axis-aligned box in 1, 2 or 3 dimensions, discretized by a
uniform cell-centered grid.  A boolean mask marks the subregion where the
bilinear control is allowed to act.  The discrete norms live here too,
including the space-time ``L^p`` norm with its trapezoid rule in time.

Every face operator is one stencil on the flat C-order cell array.  Along
axis ``k`` the cell above cell ``i`` is ``i + s``, with the stride ``s =
prod(dims[k+1:])``, so :func:`face_difference` forms the ``N - s`` pairs of
neighbours in one contiguous call on ``a[s:]`` and ``a[:-s]``, and
:func:`face_scatter` puts face values back onto the low and the high cells
the same way, through an array's :func:`face_views`; no ufunc takes a
strided operand.  The pairs whose low cell lies in the last layer of the
axis wrap from one line of cells to the next: the difference sets them to
+0, and the scatter sets the last layer of a fresh divergence to +0, the
zero boundary flux.  A wrapped +0 lands on a cell that per-axis slices
leave alone, and ``x - 0`` is ``x`` while ``x + 0`` differs from it only
for ``x = -0``, a sign the kernels' next step drops (a square, or a sum
that starts at +0).  So every kernel equals its per-axis-slice form (the
oracles of the tests) bit for bit.  Where a sum needs the interior faces,
:func:`compact_faces` copies them into the C-contiguous layout ``np.diff``
returns (on axis 0 the face array has it), so each ``.sum()`` reduces the
same array in the same pairwise order.  The Laplacian is the sum over the
axes of one zero-flux second difference, and the upwind transport one more
divergence of face fluxes, so discrete integrals of divergence-form terms
vanish identically.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
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
        if any(isinstance(n, (bool, np.bool_)) or n != int(n) for n in self.dims):
            raise ValueError(f"dims must be integers, got {self.dims}")
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

FaceViews = namedtuple("FaceViews", "cells low last high wrap")


def face_views(cells, k):
    """The C-contiguous cell array ``cells`` seen along axis ``k``, of flat
    stride ``s``: ``(cells, low, last, high, wrap)``, with ``low``, ``last``
    and ``high`` its flat ``[:-s]`` (where the axis's face array lives),
    ``[-s:]`` and ``[s:]``, and ``wrap`` the entries of ``low`` whose pair
    wraps (None on axis 0)."""
    shape, flat = cells.shape, cells.ravel()
    n, s = shape[k], math.prod(shape[k + 1:])
    wrap = flat[(n - 1) * s:-s].reshape(-1, n, s)[:, 0] if k else None
    return FaceViews(cells, flat[:-s], flat[-s:], flat[s:], wrap)


def face_difference(a, k, out=None, op=np.subtract):
    """``op(a[i + s], a[i])`` for every pair of neighbours along axis ``k`` of
    the cell array ``a``, ``s`` the axis's flat stride: the *face array* of
    the axis, entry ``i`` on the face above cell ``i``, wrapped pairs at +0.
    With ``np.add`` it holds face sums.  Written into ``out``, the
    :class:`FaceViews` of an array of ``a``'s shape that is not ``a`` (new
    when None), and returned as its ``low``.
    """
    _, low, last, _, wrap = face_views(np.empty(a.shape), k) if out is None else out
    flat, s = a.ravel(), last.size
    d = op(flat[s:], flat[:-s], low)
    if wrap is not None:
        wrap.fill(0.0)
    return d


def face_scatter(low, high, out, op=np.subtract):
    """Face arrays back onto the cells of their pairs, in ``out``, the
    :class:`FaceViews` of a cell array: ``low`` onto the low cells and the
    last layer at +0, a fresh zero-flux divergence, then ``out[i + s] =
    op(out[i + s], high[i])`` on the high cells.  ``low`` may be ``out.low``
    itself, filled by its caller; ``high`` must not share memory with
    ``out``.  Returns ``out.cells``.
    """
    cells, low_cells, last, high_cells, _ = out
    if low is not low_cells:
        low_cells[...] = low
    last.fill(0.0)
    op(high_cells, high, high_cells)  # one view as input and output: numpy skips its overlap check
    return cells


def compact_faces(faces, shape, k, out=None):
    """The interior faces of a face array of axis ``k`` on cells of ``shape``
    as the C-contiguous array of ``shape`` with one entry fewer along ``k``:
    on axis 0, where the face array has that layout already, a view of it,
    else copied into ``out`` (a new array when None)."""
    n, s = shape[k], math.prod(shape[k + 1:])
    if not k:
        return faces.reshape((n - 1,) + shape[1:])
    if out is None:
        out = np.empty(shape[:k] + (n - 1,) + shape[k + 1:])
    step = faces.itemsize
    inner = np.ndarray((math.prod(shape[:k]), n - 1, s), faces.dtype, faces, 0,
                       (n * s * step, s * step, step))
    np.copyto(out.reshape(inner.shape), inner)
    return out


def face_gradient(grid, a, k, out=None):
    """The face array of ``a``'s gradient along axis ``k``, into ``out`` as
    in :func:`face_difference`."""
    g = face_difference(a, k, out)
    g /= grid.spacing[k]
    return g


def face_gradients(grid, a):
    """Interior-face gradients per axis, :func:`face_gradient` made compact:
    ``np.diff(a, axis=k) / h`` bit for bit.  Boundary faces carry zero
    gradient by the Neumann closure and are not stored."""
    return [compact_faces(face_gradient(grid, a, k), grid.dims, k) for k in range(grid.ndim)]


def _second_difference(grid, k, grad, out):
    """Zero-flux second difference along axis ``k`` of the array whose face
    array of gradients is ``grad``: its :func:`face_scatter` over the
    spacing, into ``out`` (the :class:`FaceViews` along ``k`` of an array of
    shape ``dims`` that is not ``grad``), returned as ``out.cells``.  Summed
    over the axes it is the discrete Laplacian."""
    cells = face_scatter(grad, grad, out)
    cells /= grid.spacing[k]
    return cells


class Workspace:
    """Scratch arrays for one level of cells on ``grid``, reused step after step.

    ``flat`` holds six float arrays of ``grid.n_cells`` entries, ``cells``
    the same six arrays shaped ``grid.dims``, and ``mask`` one bool array of
    ``grid.n_cells`` entries; :attr:`faces` and :attr:`cross_pairs` (views)
    are built on first use.  A run builds one workspace and passes it to every
    kernel of every step, so that a step allocates no array as large as a
    level; every kernel that works in one requires it.  Each kernel says
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
    def faces(self):
        """Per axis ``k``, the :func:`face_views` along ``k`` of ``cells[0]``
        to ``cells[3]``, the arrays the face kernels write through them."""
        return tuple(tuple(face_views(c, k) for c in self.cells[:4])
                     for k in range(self.grid.ndim))

    @cached_property
    def cross_pairs(self):
        """Per axis pair ``k < l``, ``(k, l, padded, result, shifted,
        interior)`` for :func:`hessian_frobenius_sq`'s cross difference: the
        edge-padded level, an array of its shape, the flat views of
        ``padded`` at the offsets ``(++, +-, -+, --)`` of the four diagonal
        neighbours and the view of ``result`` they combine into, and the
        view of ``result`` at the unpadded cells.  The pairs take turns in
        two flat arrays as large as the largest of them."""
        dims = self.grid.dims
        pairs = list(itertools.combinations(range(len(dims)), 2))
        shapes = [tuple(n + 2 * (j in pair) for j, n in enumerate(dims)) for pair in pairs]
        size = max(map(math.prod, shapes), default=0)
        levels, results = np.empty(size), np.empty(size)
        out = []
        for (k, l), shape in zip(pairs, shapes):
            padded, result = (a[:math.prod(shape)].reshape(shape) for a in (levels, results))
            sk, sl = (math.prod(shape[j + 1:]) for j in (k, l))
            p, r = padded.reshape(-1), result.reshape(-1)
            m = p.size - 2 * (sk + sl)
            shifted = tuple(p[i:i + m] for i in (2 * (sk + sl), 2 * sk, 2 * sl, 0))
            inner = [slice(None)] * len(dims)
            inner[k] = inner[l] = slice(1, -1)
            out.append((k, l, padded, result, shifted + (r[sk + sl:sk + sl + m],),
                        result[tuple(inner)]))
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

    Per axis, the face stencil (module docstring) of ``v``'s gradient,
    the donor-cell flux and rate on the face arrays, and their scatters,
    then ``/ h``; the axes are summed in order, into accumulators that start
    at +0.  Both results are the ``cells[4]`` and ``cells[5]`` of the
    workspace ``ws`` (:class:`Workspace`), and the kernel writes all six of
    its arrays and its mask.

    The donor flux is ``max(dv, 0) * mob[lo] + min(dv, 0) * mob[hi]`` rather
    than a per-face select: for finite ``mob`` the non-donor product is a
    zero and ``x + 0 == x``, so only the sign of a zero can differ, which the
    accumulators drop; the outflow rate ``max(dv, 0) / h`` at the lo cell
    and ``-min(dv, 0) / h`` at the hi cell is exact the same way.  The final
    mobility mask stays a select, since ``rate * (mob > 0)`` would turn an
    infinite rate into NaN and hide a CFL violation.
    """
    mob = mob.ravel()
    acc, transport, rate = ws.flat[3:]
    # outputs go in positionally, which numpy parses faster (np.maximum and np.minimum refuse it)
    for k, (h, (diff, up, down, scatter)) in enumerate(zip(grid.spacing, ws.faces)):
        dv = face_difference(v, k, diff)
        dv /= h
        s = diff.last.size
        to_hi = np.maximum(dv, 0.0, out=up.low)  # nonzero where mass flows from lo to hi
        to_lo = np.minimum(dv, 0.0, out=dv)  # nonzero where it flows from hi to lo
        # outgoing gradient magnitude accumulates at the donor cell
        face_scatter(np.divide(to_hi, h, scatter.low), np.divide(to_lo, h, down.low), scatter)
        # the first axis starts the accumulator at +0, as 0 + acc would
        np.add(acc, rate if k else 0.0, rate)
        # the donor-cell flux
        flux = np.multiply(to_hi, mob[:-s], to_hi)
        flux += np.multiply(to_lo, mob[s:], to_lo)
        # outgoing flux minus incoming, zero flux through the boundary
        face_scatter(flux, flux, scatter)
        acc /= h
        np.add(acc, transport if k else 0.0, transport)
    np.negative(transport, transport)
    immobile = np.logical_not(np.greater(mob, 0.0, ws.mask), ws.mask)
    np.copyto(rate, 0.0, where=immobile)
    return ws.cells[4], ws.cells[5]


def chemotaxis_transpose(grid, mob, v, bar, ws, out):
    """Transpose of the transport term of :func:`chemotaxis_array`.

    The transport is bilinear in ``(mob, v)`` once the donor-cell masks are
    fixed, and the masks (from the sign of each face gradient of ``v``) are
    taken as :func:`chemotaxis_array` takes them.  Writes ``(mob_bar,
    v_bar)``, the gradients of ``sum(bar * transport)`` with respect to
    ``mob`` and ``v`` away from the faces where the gradient of ``v`` changes
    sign, into ``out``, a pair of C-contiguous arrays of shape ``dims`` that
    share no memory with the inputs or the workspace, and returns it.

    The mobility gradients add ``flux_bar * max(dv, 0)`` to the lo cells and
    ``flux_bar * min(dv, 0)`` to the hi cells, exact as in
    :func:`chemotaxis_array`; the donor mobility in the gradient with respect
    to ``v`` has no exact product form and stays a select (two
    ``np.copyto``).  Both gradients accumulate axis after axis from +0; the
    kernel writes ``cells[0]`` to ``cells[3]`` and the mask of the workspace
    ``ws`` (:class:`Workspace`).
    """
    mob_bar, v_bar = out
    mob_bar.fill(0.0)
    v_bar.fill(0.0)
    mob, flat_mob_bar, flat_v_bar = mob.ravel(), mob_bar.ravel(), v_bar.ravel()
    for k, (h, (diff, flux, up, donor)) in enumerate(zip(grid.spacing, ws.faces)):
        dv = face_difference(v, k, diff)
        dv /= h
        s = diff.last.size
        mob_bar_lo, mob_bar_hi = flat_mob_bar[:-s], flat_mob_bar[s:]
        v_bar_lo, v_bar_hi = flat_v_bar[:-s], flat_v_bar[s:]
        # a face flux leaves its lo cell and enters its hi cell
        flux_bar = face_difference(bar, k, flux)
        flux_bar /= h
        mob_bar_lo += np.multiply(flux_bar, np.maximum(dv, 0.0, out=up.low), up.low)
        downhill = np.greater(dv, 0.0, ws.mask[:-s])
        np.copyto(donor.low, mob[s:])
        np.copyto(donor.low, mob[:-s], where=downhill)
        mob_bar_hi += np.multiply(flux_bar, np.minimum(dv, 0.0, out=dv), dv)
        dv_bar = np.multiply(flux_bar, donor.low, donor.low)
        dv_bar /= h
        v_bar_hi += dv_bar
        v_bar_lo -= dv_bar
    return out


def cell_gradient_sq(grid, grads, ws):
    """Cellwise squared gradient magnitude from averaged face gradients.

    Each cell averages its two face gradients per axis, a boundary face
    counting as zero: the :func:`face_scatter` with ``np.add`` of the
    array's face arrays of gradients ``grads`` (:func:`face_gradient`).  The
    result is ``cells[0]`` of the workspace ``ws`` (:class:`Workspace`), with
    ``cells[1]`` as scratch; neither may hold ``grads``.
    """
    total = ws.cells[0]
    total[...] = 0.0
    for g, views in zip(grads, ws.faces):
        face_sum = face_scatter(g, g, views[1], np.add)
        face_sum *= 0.5
        total += np.square(face_sum, out=face_sum)
    return total


def hessian_frobenius_sq(grid, a, grads, ws):
    """Cellwise squared Frobenius norm of the discrete Hessian.

    The diagonal holds the zero-flux second differences of ``a``'s face
    arrays of gradients ``grads`` (:func:`_second_difference`); off the
    diagonal, counted twice, centered cross differences closed with mirror
    ghosts: one edge-padded copy of ``a``, as ``np.pad(mode="edge")`` pads,
    combined at the flat offsets of :attr:`Workspace.cross_pairs`, whose
    interior is copied out before it joins the sum.  The result is
    ``cells[0]`` of the workspace ``ws`` (:class:`Workspace`), with
    ``cells[1]``, ``cells[2]`` and the arrays of :attr:`Workspace.cross_pairs`
    as scratch; none of them may hold ``a`` or ``grads``.
    """
    total = _second_difference(grid, 0, grads[0], ws.faces[0][0])
    np.square(total, out=total)
    for k in range(1, grid.ndim):
        diag = _second_difference(grid, k, grads[k], ws.faces[k][1])
        total += np.square(diag, out=diag)
    cross = ws.cells[2]
    for k, l, padded, _, (pp, pm, mp, mm, d), interior in ws.cross_pairs:
        _edge_padded(a, (k, l), padded)
        np.subtract(pp, pm, out=d)
        d -= mp
        d += mm
        d /= 4.0 * grid.spacing[k] * grid.spacing[l]
        np.square(d, out=d)
        d *= 2.0
        cross[...] = interior
        total += cross
    return total


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
