"""Time integration of the controlled truncated system and its comparison problem.

One step first advances the chemical concentration by sequential operator
splitting: the reaction (consumption damping and the bilinear control) acts
cell by cell, ``v* = v / (1 + dt*r)``, and then ``v*`` diffuses implicitly.
The cell density is then transported with an explicit upwind flux driven by
the fresh concentration, under implicit diffusion.  Both diffusions use one
operator, cached per step size.  On the tensor grid the Laplacian is the sum
of one-dimensional second differences ``L_k``, and the implicit diffusion is
split by axis (locally one-dimensional): ``prod_k (I - dt*L_k)`` replaces
``I - dt*Lap``, up to a term of order ``dt^2``.  Each axis factor is a
tridiagonal symmetric M-matrix, held as its dense inverse: Thomas
elimination builds it with only nonnegative terms, so it is exactly
nonnegative, and averaging it with its transpose makes it exactly
symmetric.  A solve multiplies the lines of cells along each axis by that
inverse, so every output is a sum of nonnegative products: a nonnegative
right-hand side produces an exactly nonnegative solution in floating point,
and the solve is monotone in its right-hand side.  Only numpy is needed.
Every reaction divisor is at least ``1 - dt*max(f_+)``, which is positive
whenever ``dt * max(f_+) < 1`` (checked).  The comparison problem runs the
same concentration stage with the reaction ``-f_+``, whose divisor is never
larger than the concentration's, so a comparison solve that replays a
run's steps as the run took them dominates its concentration exactly, not
up to round-off.  The one sampling rule is
the pair :meth:`Control.sample` (the slice a step sees) and its transpose
:meth:`Control.scatter`, for every run: an uncontrolled run is the run under
:meth:`Control.zero`, which :func:`simulate` and :func:`solve_comparison`
build on entry when given ``None``.  The density update is in conservative
flux form and each axis factor has columns summing to one, so the discrete
cell mass is conserved to round-off at every step.  The scheme is first
order in time, like backward Euler.

The stepper works on plain cell arrays.  Inputs are validated once, when
:func:`simulate` or :func:`solve_comparison` is entered: a ``Field`` or
``Control`` checks its values when it is built, and the entry checks add the
grids and the signs.  Every step checks ``dt``, the M-matrix and CFL bounds,
and that each new level is finite and exactly nonnegative.  A run builds one
:class:`~chemoctrl.grid.Workspace` of scratch arrays for a level and hands it
to every kernel, so a step allocates no array as large as a level; the two
diffusion solves write each new level straight into its row of the run's
level stack, which holds the levels of a run without rejections from the
start and grows only when rejections add steps.  A run and a comparison
solve are recorded alike: frozen, with read-only levels, and with their
steps ``dt_history`` the one record of their clock.
"""

from __future__ import annotations

import bisect
import datetime
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .grid import (
    Grid,
    GridMismatchError,
    Workspace,
    chemotaxis_array,
    chemotaxis_transpose,
    compact_faces,
    face_difference,
    face_gradient,
    h1_seminorm,
    integrate,
    spacetime_lp_norm,
)
from .io import LevelStackError, load_levels, save_levels, write_json
from .model import ModelParams, truncate, truncate_derivative


def __getattr__(name):
    # the benchmark's tracer (perfbench/spans.py) reads ``sim.splu`` in traced
    # runs; no program path calls it.  It is imported only when asked, so an
    # untraced run loads no scipy.  Delete this with ROADMAP item 1, which
    # retargets that span to the axis inverses.
    if name == "splu":
        from scipy.sparse.linalg import splu
        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class StepSizeError(RuntimeError):
    """A step was rejected; retry with ``dt`` at most ``admissible_dt``."""

    def __init__(self, message, admissible_dt):
        super().__init__(message)
        self.admissible_dt = admissible_dt


class StiffnessError(RuntimeError):
    """Adaptive stepping drove ``dt`` below the underflow floor."""


class PositivityError(RuntimeError):
    """A computed state came out negative, NaN or infinite (never clipped,
    always raised)."""


class TrajectoryFormatError(ValueError):
    """An on-disk trajectory is malformed or inconsistent."""


# fraction of the positivity-limited step actually allowed; absorbs round-off
CFL_SAFETY = 0.9

_DT_FLOOR_FACTOR = 1e-12


@dataclass(frozen=True, eq=False)
class Control:
    """Space-time control on the grid, zero outside the control region.

    Values live on the control's own time lattice (at least two levels,
    starting at 0), masked to the control region when built.  The one
    sampling rule is :meth:`sample` and its transpose :meth:`scatter`, the
    only pair the steppers and the reverse pass call.  The discrete space-time
    L^q norm is :func:`~chemoctrl.grid.spacetime_lp_norm` on that lattice.
    A control is immutable: the fields cannot be rebound, and ``times`` (a
    copy) and ``values`` are read-only arrays, as ``Grid.control_mask`` is,
    so each norm is computed once and kept.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    _norms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("control needs at least two time levels")
        if times[0] != 0.0 or not np.all(np.isfinite(times)) \
                or np.any(np.diff(times) <= 0):
            raise ValueError("control times must be finite and increase strictly from 0")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (times.size,) + self.grid.dims:
            raise ValueError(
                f"control values shape {vals.shape} does not match "
                f"(n_times, *dims) = {(times.size,) + self.grid.dims}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")
        vals = vals * self.grid.control_mask  # enforce the 1_{Omega_c} factor
        for a in (times, vals):
            a.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def lattice(t_final, n):
        """``n`` equally spaced times on ``[0, t_final]``, with a horizon of 0
        clamped to ``1e-300``, so that a run of horizon 0 has a lattice too."""
        return np.linspace(0.0, max(t_final, 1e-300), n)

    @classmethod
    def zero(cls, grid, t_final):
        """``f = 0`` on ``[0, t_final]``, the control of an uncontrolled run."""
        return cls(grid, cls.lattice(t_final, 2), np.zeros((2,) + grid.dims))

    @classmethod
    def constant(cls, grid, amplitude, t_final):
        vals = np.broadcast_to(float(amplitude), (2,) + grid.dims).copy()
        return cls(grid, cls.lattice(t_final, 2), vals)

    @property
    def t_final(self):
        return float(self.times[-1])

    def covers(self, horizon):
        """True if the time lattice reaches ``horizon``, to a relative ``1e-12``."""
        return self.t_final >= horizon - 1e-12 * max(1.0, horizon)

    def _bracket(self, t):
        """Where ``t`` falls on the time lattice, as ``(j, w)``.

        The slice at ``t`` is ``(1 - w) * values[j - 1] + w * values[j]``, or
        ``values[j]`` alone when ``w`` is None (``t`` clamped to an end).
        """
        ts = self.times
        if t <= ts[0]:
            return 0, None
        if t >= ts[-1]:
            return ts.size - 1, None
        j = bisect.bisect_right(ts, t)
        return j, (t - ts[j - 1]) / (ts[j] - ts[j - 1])

    def slice_at(self, t, ws):
        """Control values at time ``t`` (linear in time, clamped at the ends).

        They are written into ``cells[4]`` of the workspace ``ws``, with
        ``cells[5]`` as scratch.
        """
        out = ws.cells[4]
        j, w = self._bracket(t)
        if w is None:
            out[...] = self.values[j]
            return out
        np.multiply(self.values[j - 1], 1.0 - w, out=out)
        out += np.multiply(self.values[j], w, out=ws.cells[5])
        return out

    def sample(self, t0, t1, ws):
        """The slice a step from ``t0`` to ``t1`` sees: :meth:`slice_at` of
        its end ``t1``.  Both ends are passed so that the rule can change here
        alone, and ``t0 + dt`` need not be ``t1`` bit for bit."""
        return self.slice_at(t1, ws)

    def scatter(self, t0, t1, bar, ws, out):
        """Add :meth:`sample`'s transpose of the slice gradient ``bar`` onto
        ``out``, shaped like :attr:`values`, in the control region only (the
        values are masked there when built); returns ``out``.  The products
        go through ``cells[0]`` and ``cells[1]`` of the workspace ``ws``,
        which must not hold ``bar``."""
        bar = np.multiply(bar, self.grid.control_mask, ws.cells[0])
        j, w = self._bracket(t1)
        if w is None:
            out[j] += bar
        else:
            out[j - 1] += np.multiply(1.0 - w, bar, ws.cells[1])
            out[j] += np.multiply(w, bar, ws.cells[1])
        return out

    def lq_norm(self, q):
        """Discrete L^q norm over (0, t_final) x domain, computed on the
        first call for each ``q``."""
        if q not in self._norms:
            self._norms[q] = spacetime_lp_norm(self.times, self.values, self.grid, q)
        return self._norms[q]

    def scaled(self, factor):
        return Control(self.grid, self.times, self.values * factor)


def _clock(dt_history):
    """The read-only clock ``t += dt`` of the float array ``dt_history``, from
    0; a ValueError unless its steps are > 0 and advance a finite clock."""
    with np.errstate(over="ignore", invalid="ignore"):  # a bad clock ends at inf or NaN
        times = np.concatenate(([0.0], np.cumsum(dt_history)))
    # a clock that ends finite is finite throughout
    if dt_history.ndim != 1 or not (math.isfinite(times[-1]) and np.all(np.diff(times) > 0)):
        raise ValueError("dt_history must hold steps > 0 that advance the clock")
    times.setflags(write=False)
    return times


class _LevelRecord:
    """Read-only views of the level stacks ``_LEVELS``, each one level longer
    than the read-only steps ``dt_history``, whose :attr:`times` derive once."""

    _LEVELS = ()

    def __post_init__(self):
        dts = np.array(self.dt_history, dtype=float)
        dts.setflags(write=False)
        object.__setattr__(self, "dt_history", dts)
        for name in self._LEVELS:
            levels = np.asarray(getattr(self, name)).view()
            if (shape := levels.shape) != (dts.size + 1, *self.grid.dims):
                raise ValueError(f"{name} must hold {dts.size + 1} levels of {self.grid.dims}, "
                                 f"one more than the steps of dt_history, found shape {shape}")
            levels.setflags(write=False)
            object.__setattr__(self, name, levels)

    @property
    def n_levels(self):
        return self.dt_history.size + 1

    @functools.cached_property
    def times(self):
        return _clock(self.dt_history)


@dataclass(frozen=True, eq=False)
class Trajectory(_LevelRecord):
    """Saved states of one run plus the control and stepping metadata, frozen
    as a :class:`Control` is.  ``dt_history`` is the one record of the clock:
    :attr:`times` and :attr:`mass_trace` derive on first read."""

    grid: Grid
    params: ModelParams
    u: np.ndarray
    v: np.ndarray
    dt_history: np.ndarray
    control: Control
    events: list = field(default_factory=list)

    _LEVELS = ("u", "v")

    @functools.cached_property
    def mass_trace(self):
        mass = np.array([integrate(self.grid, u) for u in self.u])
        mass.setflags(write=False)
        return mass


@dataclass(frozen=True, eq=False)
class ComparisonTrajectory(_LevelRecord):
    """Levels ``w`` of the dominating linear problem, recorded as a run is; an
    adaptive solve lists its step rejections in ``events``."""

    grid: Grid
    w: np.ndarray
    dt_history: np.ndarray
    events: list = field(default_factory=list)

    _LEVELS = ("w",)


# ---------------------------------------------------------------------------
# cached diffusion factors
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny


def _axis_inverse(n, r):
    """``(I - dt*L_k)^-1`` for one axis of ``n`` cells, ``r = dt / h^2``.

    Thomas elimination of ``A X = I``, with ``A`` the symmetric tridiagonal
    M-matrix of diagonal ``1 + 2r`` (``1 + r`` in the end cells) and
    off-diagonal ``-r``.  Each pivot is kept as ``d_i = r + s_i`` with
    ``s_i = 1 + (r / d_(i-1)) * s_(i-1)`` (the last pivot is ``s`` alone), the
    form of ``1 + 2r - r^2 / d_(i-1)`` without its cancellation.  The
    multipliers ``r / d`` are positive and the back substitution is
    ``(y_i + r * x_(i+1)) / d_i``, so every operation adds nonnegative terms
    and ``X >= 0`` exactly; each entry carries a relative error of a few
    ``eps``, so the columns sum to one within ``n * eps``.  ``(X + X^T) / 2``
    makes ``X`` exactly symmetric and keeps it nonnegative, and entries below
    the smallest normal float are flushed to an exact 0 so that a heavily
    halved ``dt`` feeds no subnormals to BLAS.
    """
    mult = np.empty(n)
    d = np.empty(n)
    d[0] = r + 1.0
    s = 1.0
    for i in range(1, n):
        mult[i] = r / d[i - 1]
        s = 1.0 + mult[i] * s
        d[i] = s if i == n - 1 else r + s
    y = np.eye(n)
    for i in range(1, n):
        y[i, :i] = mult[i] * y[i - 1, :i]
    x = np.empty((n, n))
    x[-1] = y[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] + r * x[i + 1]) / d[i]
    x = (x + x.T) * 0.5
    x[x < _TINY] = 0.0
    return x


class _SplitDiffusion:
    """``(I - dt*L_1)^-1 ... (I - dt*L_d)^-1``, one dense product per axis.

    On the tensor grid the mirror-ghost Laplacian is the sum of commuting
    one-dimensional operators ``L_k``, and each factor ``I - dt*L_k`` is a
    symmetric M-matrix whose inverse ``X_k`` is held dense
    (:func:`_axis_inverse`): exactly symmetric and exactly nonnegative, with
    unit column sums to round-off.  A solve multiplies each line of cells
    along axis ``k`` by ``X_k``.  Every output is a sum of nonnegative
    products, in an order fixed by the shapes, so a nonnegative right-hand
    side gives an exactly nonnegative solution, the solve is monotone, and it
    conserves the cell sum to round-off.  The factors act on different axes,
    so their product is symmetric and its transpose is the same solve.

    A solve costs ``O(n_k)`` per cell and axis, where a tridiagonal
    substitution (LAPACK's ``dpttrs`` on an ``L D L^T`` factor) costs
    ``O(1)``.  Measured on one core against ``dpttrs`` run axis by axis, the
    product is faster up to about 190 cells per axis in 2D and still faster
    at 96^3 in 3D; past that the substitution would win.  On 64 cells in 1D
    it is about 1 us slower per solve.
    """

    def __init__(self, grid, dt):
        dims = grid.dims
        # axes of equal cell count and width share one inverse
        built = {}
        for n, h in zip(dims, grid.spacing):
            if (n, h) not in built:
                built[n, h] = _axis_inverse(n, dt / (h * h))
        self._inverses = [built[n, h] for n, h in zip(dims, grid.spacing)]
        # every axis but the last as (cells before it, n_k, cells after it)
        self._shapes = [(math.prod(dims[:k]), dims[k], -1)
                        for k in range(len(dims) - 1)]
        self._last = self._inverses[-1]

    def solve(self, b, ws, out):
        """The solution for the flat right-hand side ``b``, written into the
        flat array ``out`` and returned.

        In 2D and 3D the product along each axis but the last goes to
        ``flat[0]``, then ``flat[1]``, of the workspace ``ws``, so ``b`` must
        be neither; ``out`` may be ``b`` there.
        """
        # the last axis runs along rows, and X is symmetric, so each row
        # times X is the solve of that row; np.dot calls BLAS with less
        # overhead than the matmul operator, which a 1D solve notices
        if not self._shapes:
            return np.dot(b, self._last, out=out)
        x = b
        for inv, shape, buf in zip(self._inverses, self._shapes, ws.flat):
            x = np.matmul(inv, x.reshape(shape), out=buf.reshape(shape))
        n = self._last.shape[0]
        np.dot(x.reshape(-1, n), self._last, out=out.reshape(-1, n))
        return out


_DIFFUSION_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_DIFFUSION_CACHE_SIZE)
def _diffusion_solver(grid, dt):
    """Cached axis inverses of the split ``I - dt*Lap``, the one operator
    both diffusions solve; built once per (grid, step size) pair, and the
    least recently used pair is evicted first.  A grid hashes by identity."""
    return _SplitDiffusion(grid, dt)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def check_nonnegative(name, a):
    """Raise ValueError naming the most negative cell unless ``a >= 0``."""
    if a.min() < 0:
        bad = tuple(int(i) for i in np.unravel_index(np.argmin(a), a.shape))
        raise ValueError(f"{name} must be nonnegative, got {a[bad]} at cell {bad}")


def _check_new_level(name, a):
    """Raise PositivityError unless a new level is finite and exactly
    nonnegative; written so that a NaN fails as well."""
    if not (a.min() >= 0 and a.max() < math.inf):
        ok = (a >= 0) & (a < math.inf)
        bad = tuple(int(i) for i in np.unravel_index(np.argmin(ok), a.shape))
        raise PositivityError(f"{name} went negative or non-finite at cell {bad}: "
                              f"{a[bad]}")


def _split(f, ws):
    """``(f_+, f_-)`` of the control slice ``f``, written into ``ws.cells[3]``
    and ``ws.cells[2]``; the steppers and the reverse pass all split here."""
    fpos = np.maximum(f, 0.0, out=ws.cells[3])
    fneg = np.negative(f, out=ws.cells[2])
    return fpos, np.maximum(fneg, 0.0, out=fneg)


def _mobility_and_reaction(u, fpos, fneg, params, out):
    """``trunc(u)`` and the reaction ``trunc(u)^s + f_- - f_+``, written into
    ``out``; shared by :func:`step` and its transpose in
    :func:`simulate_adjoint`."""
    # the truncation is the identity up to m, and u is nonnegative
    mobility = u if u.max() <= params.m else truncate(u, params.m)
    react = np.power(mobility, params.s, out=out)
    react += fneg
    react -= fpos
    return mobility, react


# an overflow in a step's arithmetic shows as a non-finite level, which
# _check_new_level raises as PositivityError, so numpy need not warn about it
_QUIET = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _concentration_stage(grid, name, v, react, fpos, dt, ws, out):
    """``(I - dt*Lap)^-1 (v / (1 + dt*react))`` solved into ``out``, checked
    and returned; ``react`` is overwritten.  ``dt * max(fpos) < 1`` is checked
    before any inverse is built, so every divisor is positive."""
    fpos_max = float(fpos.max())
    if dt * fpos_max >= 1.0:
        bad = tuple(int(i) for i in np.unravel_index(np.argmax(fpos), fpos.shape))
        raise StepSizeError(f"dt*max(f+)={dt * fpos_max:.3g} >= 1 at cell {bad} breaks "
                            "the M-matrix bound", admissible_dt=CFL_SAFETY / fpos_max)
    react *= dt
    react += 1.0
    v_star = np.divide(v, react, out=react)
    _diffusion_solver(grid, dt).solve(v_star.ravel(), ws, out.ravel())
    _check_new_level(name, out)
    return out


@_QUIET
def step(grid, u, v, f, params, dt, ws, out):
    """Advance the cell arrays ``(u, v)`` by one implicit-explicit step of
    size ``dt`` under the control slice ``f``; returns ``(u_new, v_new)``.

    The concentration goes first, split into its cellwise reaction and its
    diffusion:

        v* = v / (1 + dt*(trunc(u)^s + f_- - f_+)),   (I - dt*Lap) v_new = v*

    where ``I - dt*Lap`` stands for its split by axis, ``prod_k (I -
    dt*L_k)``.  Every divisor is at least ``1 - dt*max(f_+)``, positive
    provided ``dt * max(f_+) < 1`` (checked), and the cached nonnegative
    axis inverses keep ``v_new`` exactly nonnegative.  The density then
    takes the upwind chemotaxis flux built from ``v_new`` explicitly and
    diffuses implicitly through the same inverses, which conserves mass to
    round-off and preserves nonnegativity under the reported CFL bound on
    ``dt``.

    The arrays are trusted to have shape ``grid.dims`` and to be finite and
    nonnegative: :func:`simulate` checks its inputs once, and each step checks
    ``dt``, the M-matrix and CFL bounds, and that the new ``v`` and ``u`` are
    finite and exactly nonnegative.  ``f`` is a :meth:`Control.sample`
    slice, zero outside the control region.

    ``ws`` is the run's :class:`~chemoctrl.grid.Workspace`, whose arrays the
    step overwrites, and ``out`` the pair of C-contiguous arrays of shape
    ``grid.dims`` that receive ``(u_new, v_new)`` and are returned; neither
    may hold ``u``, ``v`` or ``f``.

    Raises
    ------
    ValueError
        If ``dt`` is not positive and finite.
    StepSizeError
        If ``dt`` violates the reaction divisor condition or the chemotaxis
        CFL bound; the error carries the largest admissible ``dt``.
    PositivityError
        If a new ``v`` or ``u`` is negative, NaN or infinite despite the
        checks (this indicates a bug or an overflow; values are never
        clipped).
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    u_new, v_new = out

    fpos, fneg = _split(f, ws)
    mobility, react = _mobility_and_reaction(u, fpos, fneg, params, out=ws.cells[4])
    _concentration_stage(grid, "v", v, react, fpos, dt, ws, v_new)

    transport, rate = chemotaxis_array(grid, mobility, v_new, ws)
    rate_max = float(rate.max())
    if dt * rate_max > CFL_SAFETY:
        bad = tuple(int(i) for i in np.unravel_index(np.argmax(rate), rate.shape))
        raise StepSizeError(
            f"chemotaxis CFL violated at cell {bad}: dt*outflow="
            f"{dt * rate_max:.3g} > {CFL_SAFETY}",
            admissible_dt=CFL_SAFETY / rate_max,
        )
    rhs = np.multiply(transport, dt, out=transport)
    rhs += u
    _diffusion_solver(grid, dt).solve(rhs.ravel(), ws, u_new.ravel())
    _check_new_level("u", u_new)
    return u_new, v_new


class _LevelStack:
    """The levels of one run, each written in place into its row of one array.

    The array starts with ``rows`` rows, as many as the levels of a run that
    rejects no step, so such a run copies no level but the first.  Rejections
    add steps; when the rows run out the array doubles, and only then are
    the levels copied.
    """

    def __init__(self, first, rows):
        self._levels = np.empty((rows,) + first.shape)
        self._levels[0] = first
        self._count = 1

    def next_row(self):
        """The row the next level is written into; it joins the stack at
        :meth:`commit`, and until then the next call returns it again."""
        if self._count == len(self._levels):
            grown = np.empty((2 * self._count,) + self._levels.shape[1:])
            grown[:self._count] = self._levels
            self._levels = grown
        return self._levels[self._count]

    def commit(self):
        self._count += 1

    def stack(self):
        """The ``(n_levels, *shape)`` array of the committed levels."""
        return self._levels[:self._count]


def _rows_without_rejections(t_final, dt_max):
    """``1 + ceil(t_final / dt_max)``, the levels of a run that rejects no
    step; one when the ratio is not finite and no such run exists."""
    ratio = t_final / dt_max
    return 1 + math.ceil(ratio) if math.isfinite(ratio) else 1


def _adaptive_steps(advance, state, t_final, dt_max, events):
    """Shared halving / re-doubling driver, yielding ``(t, dt, state)``.

    ``advance(state, t, dt)`` returns the state one step of size ``dt`` after
    time ``t``, or raises StepSizeError; each rejection is appended to
    ``events`` and halves the step.  After 10 clean steps the step doubles
    again, up to ``dt_max``, and the last step is clipped to ``t_final``; a
    step that would leave only round-off, at most ``1e-9 * t_final``, for a
    sliver step of its own is stretched to ``t_final`` instead.  Raises
    StiffnessError when the step falls below the underflow floor.
    """
    t = 0.0
    dt = dt_max
    clean = 0
    floor = _DT_FLOOR_FACTOR * max(t_final, 1e-300)
    end = t_final - 1e-14 * max(t_final, 1.0)
    while t < end:
        dt_step = min(dt, t_final - t)
        if t_final - 1e-9 * t_final <= t + dt_step < end:
            dt_step = t_final - t
        try:
            state = advance(state, t, dt_step)
        except StepSizeError as err:
            events.append({
                "t": t, "dt": dt_step, "reason": str(err),
                "admissible_dt": err.admissible_dt,
            })
            dt = 0.5 * dt_step
            clean = 0
            if dt < floor:
                raise StiffnessError(
                    f"dt underflow at t={t:.6g}: {err}") from err
            continue
        t += dt_step
        yield t, dt_step, state
        clean += 1
        if clean >= 10 and dt < dt_max:
            dt = min(2.0 * dt, dt_max)
            clean = 0


def _entry_control(grid, control, horizon):
    """The control a run uses: ``control`` checked, or :meth:`Control.zero`
    up to ``horizon`` for ``None``.  A ``GridMismatchError`` unless it lives
    on ``grid``, a ``ValueError`` unless it :meth:`~Control.covers`
    ``horizon``."""
    if control is None:
        return Control.zero(grid, horizon)
    if not grid.compatible_with(control.grid):
        raise GridMismatchError("control lives on a different grid")
    if not control.covers(horizon):
        raise ValueError("control time lattice does not cover the horizon")
    return control


def simulate(u0, v0, control, params, dt_max):
    """Integrate the controlled system up to the horizon, saving every step.

    The inputs are checked once, on entry: a ``GridMismatchError`` unless
    ``u0``, ``v0`` and the control share one grid, a ``ValueError`` if the
    control ends before ``params.t_final`` or naming the cell if ``u0`` or
    ``v0`` has a negative one.  The run builds its own
    :class:`~chemoctrl.grid.Workspace`, which every step is given.  The
    steps then run on their cell arrays, which are read and never written.

    Parameters
    ----------
    u0, v0 : Field
        Nonnegative initial states on the same grid.
    control : Control or None
        ``None`` means the uncontrolled system, run as :meth:`Control.zero`
        up to ``params.t_final``: the returned trajectory holds that control.
    params : ModelParams
    dt_max : float
        Upper bound for the adaptive step.

    Returns
    -------
    Trajectory
    """
    if not (dt_max > 0 and np.isfinite(dt_max)):
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    grid = u0.grid
    if not grid.compatible_with(v0.grid):
        raise GridMismatchError("u0 and v0 live on different grids")
    check_nonnegative("u0", u0.values)
    check_nonnegative("v0", v0.values)
    control = _entry_control(grid, control, params.t_final)
    ws = Workspace(grid)

    rows = _rows_without_rejections(params.t_final, dt_max)
    us = _LevelStack(u0.values, rows)
    vs = _LevelStack(v0.values, rows)

    def advance(state, t, dt_step):
        f = control.sample(t, t + dt_step, ws)
        return step(grid, *state, f, params, dt_step, ws, (us.next_row(), vs.next_row()))

    dts = []
    events = []
    for _, dt_step, _ in _adaptive_steps(advance, (u0.values, v0.values),
                                         params.t_final, dt_max, events):
        us.commit()
        vs.commit()
        dts.append(dt_step)

    return Trajectory(grid=grid, params=params, u=us.stack(), v=vs.stack(),
                      control=control, dt_history=dts, events=events)


def simulate_adjoint(traj, u_bar, v_bar):
    """Reverse pass of :func:`simulate` over one of its runs.

    ``u_bar`` and ``v_bar`` hold the derivatives of an objective with respect
    to the saved levels (shaped like ``traj.u`` and ``traj.v``).  Returns its
    derivative with respect to ``traj.control.values`` through the discrete
    map, taken away from its kinks: the upwind switch, the truncation knee
    and the step-size choice, which are held as the run took them.

    Nothing is taped.  Each step, last first, recomputes its mobility,
    reaction and control slice from the saved levels and the exact step sizes
    ``dt_history``, and transposes the step; the slice comes from the one
    sampling rule :meth:`Control.sample` and its gradient goes back through
    its transpose :meth:`Control.scatter`.  The one implicit operator, the
    product of the commuting axis factors ``I - dt*L_k``, is symmetric, so
    each transposed diffusion reuses the cached forward solve; the reaction
    divisor ``d = 1 + dt*r`` is transposed cell by cell: two solves a step.

    Like a forward run, the pass builds one
    :class:`~chemoctrl.grid.Workspace` and two gradient arrays of one level,
    and writes every product of a step into them, in the operand order of
    the expressions the comments give, so a step allocates no array as large
    as a level unless the truncation is active.
    """
    grid, params, control, dts = traj.grid, traj.params, traj.control, traj.dt_history
    ws = Workspace(grid)
    u_bar = np.array(u_bar, dtype=float)  # accumulated in place, level by level
    v_bar = np.array(v_bar, dtype=float)
    f_bar = np.zeros_like(control.values)
    # the transport's transpose writes into these two, built once per pass
    mob_bar, v_new_bar = np.empty(grid.dims), np.empty(grid.dims)
    scratch = ws.cells[0]
    for n in range(dts.size - 1, -1, -1):
        dt = float(dts[n])
        t0, t1 = float(traj.times[n]), float(traj.times[n + 1])
        u, v, v_new = traj.u[n], traj.v[n], traj.v[n + 1]
        fpos, fneg = _split(control.sample(t0, t1, ws), ws)
        mobility, react = _mobility_and_reaction(u, fpos, fneg, params, out=ws.cells[4])
        diffusion = _diffusion_solver(grid, dt)

        # u_new = (I - dt*Lap)^-1 (u + dt * transport(mobility, v_new)); both
        # solves go to flat[5], which the transpose (cells[0] to cells[3]) keeps
        lam_u = diffusion.solve(u_bar[n + 1].ravel(), ws, ws.flat[5]).reshape(grid.dims)
        u_bar[n] += lam_u
        bar = np.multiply(dt, lam_u, lam_u)  # dt * lam_u
        chemotaxis_transpose(grid, mobility, v_new, bar, ws, (mob_bar, v_new_bar))
        v_new_bar += v_bar[n + 1]

        # v_new = (I - dt*Lap)^-1 (v / d), d = 1 + dt*r, with Lap split by axis
        mu = diffusion.solve(v_new_bar.ravel(), ws, ws.flat[5]).reshape(grid.dims)
        d = np.multiply(dt, react, react)  # 1 + dt * r, in place of r
        d = np.add(1.0, d, d)
        v_bar[n] += np.divide(mu, d, scratch)
        # r_bar = -dt * mu * v / (d * d)
        r_bar = np.multiply(-dt, mu, mu)
        r_bar *= v
        r_bar /= np.multiply(d, d, d)

        # r = trunc(u)^s - f, with f the control slice:
        # mob_bar += s * mobility ** (s - 1) * r_bar, where **= dispatches as ** does
        np.copyto(scratch, mobility)
        scratch **= params.s - 1.0
        term = np.multiply(params.s, scratch, scratch)
        mob_bar += np.multiply(term, r_bar, term)
        if mobility is u:
            # below the knee trunc'(u) is exactly 1, and 1.0 * x == x
            u_bar[n] += mob_bar
        else:
            u_bar[n] += truncate_derivative(u, params.m) * mob_bar
        control.scatter(t0, t1, np.negative(r_bar, r_bar), ws, f_bar)
    return f_bar


@_QUIET
def _comparison_step(grid, w, f_tilde, dt, ws, out):
    """``w`` one comparison step of size ``dt`` later, in ``out``:
    :func:`step`'s concentration stage with ``r = -f~``, since
    ``1 + dt*(-f~)`` is exactly ``1 - dt*f~``.  ``ws`` and ``out`` (one
    array) follow the rules of :func:`step`, and ``f_tilde`` is not
    ``ws.cells[2]``."""
    react = np.negative(f_tilde, out=ws.cells[2])
    return _concentration_stage(grid, "w", w, react, f_tilde, dt, ws, out)


def solve_comparison(w0, control, params, dt_max, times=None, dt_history=None):
    """Solve the dominating linear problem driven by the positive control part.

    The reaction uses ``f~ = max(f, 0)`` of each step's :meth:`Control.sample`
    slice in the same split scheme: ``w* = w / (1 - dt*f~)``, then
    ``prod_k (I - dt*L_k) w_new = w*`` on the same cached inverses.  Paired
    with a run of :func:`simulate` by its steps ``dt_history``, the solve
    replays them, ``t += dt``, and dominates the concentration exactly, cell
    by cell: each divisor is never larger than the concentration's, and the
    division and the products with the nonnegative inverses are monotone.
    The ``times`` of the run's levels pair as their steps ``np.diff(times)``,
    which may differ from the run's in the last bit.  Steps that are not > 0
    or do not advance a finite clock are refused before the control is
    built.  Unpaired, the solve steps adaptively to ``params.t_final`` and
    records its step rejections in ``events``; a paired solve rejects none.
    The control must live on ``w0``'s grid and reach the horizon, as
    :func:`simulate` checks it; ``None`` means :meth:`Control.zero`.  The
    solve builds its own workspace, as :func:`simulate` does.
    """
    grid = w0.grid
    check_nonnegative("w0", w0.values)
    if times is not None and dt_history is not None:
        raise ValueError("give either paired times or a dt history, not both")
    if times is not None:
        times = np.array(times, dtype=float)
        if times.ndim != 1 or times.size < 1 or times[0] != 0.0 \
                or not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("paired times must be finite and increase strictly from 0")
        dt_history = np.diff(times)
    if dt_history is not None:
        dt_history = np.array(dt_history, dtype=float)
        horizon, rows = float(_clock(dt_history)[-1]), dt_history.size + 1
    elif not (dt_max > 0 and math.isfinite(dt_max)):
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    else:
        horizon, rows = params.t_final, _rows_without_rejections(params.t_final, dt_max)
    control = _entry_control(grid, control, horizon)
    ws = Workspace(grid)
    levels = _LevelStack(w0.values, rows)
    events, taken = [], []

    def advance(w, t, dt):
        f_tilde = _split(control.sample(t, t + dt, ws), ws)[0]
        w = _comparison_step(grid, w, f_tilde, dt, ws, levels.next_row())
        levels.commit()  # a step that returns is accepted
        taken.append(dt)
        return w

    if dt_history is None:
        for _ in _adaptive_steps(advance, w0.values, params.t_final, dt_max, events):
            pass
    else:
        w, t = w0.values, 0.0
        for dt in dt_history.tolist():
            w = advance(w, t, dt)
            t += dt
    return ComparisonTrajectory(grid=grid, w=levels.stack(), dt_history=taken,
                                events=events)


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------

def weak_residual(traj, probe):
    """Space-time residual of the density equation against a constant probe.

    The test function is ``probe`` at every time.  Quadrature is independent
    of the stepper: trapezoid in time with level midpoints and centered
    (arithmetic-mean) face mobilities, so trajectories from :func:`simulate`
    leave a first-order-in-dt footprint instead of an identically zero one.
    The result is normalized by the space-time H^1 norm of the test function.

    Parameters
    ----------
    traj : Trajectory
    probe : ndarray of shape ``dims``
        One cell array; any other shape, a level series included, is refused.
    """
    grid = traj.grid
    phi = np.asarray(probe, dtype=float)
    if phi.shape != grid.dims:
        raise ValueError(f"probe shape {phi.shape} does not match the grid's {grid.dims}")

    vol = grid.cell_volume
    ws = Workspace(grid)  # the face arrays of a level, reused at every level
    gp = [face_gradient(grid, phi, k) for k in range(grid.ndim)]
    # the probe's squared L^2 + H^1 norm, its space-time weight per unit time
    size = (phi**2).sum() * vol + h1_seminorm(grid, phi) ** 2
    residual = 0.0
    norm_sq = 0.0
    for n in range(traj.n_levels - 1):
        dt = float(traj.times[n + 1] - traj.times[n])
        ubar = 0.5 * (traj.u[n] + traj.u[n + 1])
        vbar = 0.5 * (traj.v[n] + traj.v[n + 1])
        du = traj.u[n + 1] - traj.u[n]
        residual += (du * phi).sum() * vol

        diff_term = 0.0
        chem_term = 0.0
        for k, (g_phi, views) in enumerate(zip(gp, ws.faces)):
            g = face_gradient(grid, ubar, k, views[0])
            g *= g_phi
            diff_term += compact_faces(g, grid.dims, k).sum() * vol
            mean_u = face_difference(ubar, k, views[1], np.add)
            mean_u *= 0.5
            mean_u *= face_gradient(grid, vbar, k, views[2])
            mean_u *= g_phi
            chem_term += compact_faces(mean_u, grid.dims, k).sum() * vol
        residual += dt * (diff_term - chem_term)

        norm_sq += dt * size  # per step, not size * T: the sums differ in the last bit

    if norm_sq == 0.0:
        return 0.0
    return float(residual / np.sqrt(norm_sq))


# ---------------------------------------------------------------------------
# on-disk trajectory format: one .npy level stack per field plus a JSON manifest
# ---------------------------------------------------------------------------

_EVENT_KEYS = {"t", "dt", "reason", "admissible_dt"}
_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
_MANIFEST_KEYS = ("grid", "params", "dt_history", "events", "control_times", "created_at")


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _numbers(manifest_path, key, value):
    """The manifest's list ``value`` as a float array; any entry that is not
    a finite JSON number (a string, a bool or null) is refused."""
    if not isinstance(value, list) or not all(map(_finite, value)):
        raise TrajectoryFormatError(f"{manifest_path}: {key} must be a list of finite numbers")
    return np.array(value, dtype=float)


def _valid_event(event):
    """True for a step rejection as :func:`_adaptive_steps` records it."""
    return isinstance(event, dict) and event.keys() == _EVENT_KEYS \
        and _finite(event["t"]) and event["t"] >= 0 \
        and _finite(event["dt"]) and event["dt"] > 0 \
        and isinstance(event["reason"], str) and _finite(event["admissible_dt"])


def trajectory_to_dir(traj, outdir):
    """Write ``u.npy``, ``v.npy``, ``control.npy`` and ``control_mask.npy``
    plus ``manifest.json``.

    Each ``.npy`` is a level stack (:func:`chemoctrl.io.save_levels`).  The
    control mask is one stack of shape ``dims`` holding 1.0 in the control
    region and 0.0 elsewhere; the manifest's ``grid`` holds only ``dims`` and
    ``spacing``, and its ``control_times`` the control's time lattice.  Every
    run has a control, an uncontrolled one :meth:`Control.zero`, so every
    directory holds the same five files.  No other file is touched.
    """
    os.makedirs(outdir, exist_ok=True)
    save_levels(os.path.join(outdir, "u.npy"), traj.u)
    save_levels(os.path.join(outdir, "v.npy"), traj.v)
    save_levels(os.path.join(outdir, "control_mask.npy"), traj.grid.control_mask)
    save_levels(os.path.join(outdir, "control.npy"), traj.control.values)
    manifest = {
        "grid": traj.grid.header_dict(),
        "params": asdict(traj.params),
        "dt_history": [float(d) for d in traj.dt_history],
        "events": traj.events,
        "control_times": [float(t) for t in traj.control.times],
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def trajectory_from_dir(path):
    """Load a trajectory written by :func:`trajectory_to_dir`.

    The manifest must hold exactly the keys :func:`trajectory_to_dir` writes.
    Every number in it must be a finite JSON number, ``grid.dims``
    integers, and every entry of ``control_mask.npy`` exactly 0 or 1, as
    :class:`~chemoctrl.grid.Grid` checks; the steps must advance a finite
    clock and fit the levels, as :class:`Trajectory` checks.  Older formats
    are refused: a ``grid`` holding the mask as a list, ``control_times:
    null`` for an uncontrolled run, and the ``times`` and ``mass_trace``
    that :class:`Trajectory` now derives.
    """
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        keys = manifest.keys() if isinstance(manifest, dict) else set()
        if keys != set(_MANIFEST_KEYS):
            raise TrajectoryFormatError(f"{manifest_path}: " + ", ".join(
                [f"missing key {key!r}" for key in _MANIFEST_KEYS if key not in keys]
                + [f"unknown key {key!r}" for key in sorted(keys - set(_MANIFEST_KEYS))]))
        header = manifest["grid"]
        if not isinstance(header, dict) or header.keys() != {"dims", "spacing"}:
            found = sorted(header) if isinstance(header, dict) else type(header).__name__
            raise TrajectoryFormatError(
                f"{manifest_path}: grid must hold exactly dims and spacing, found "
                f"{found} (the control mask is control_mask.npy, not a grid key)")
        dims = header["dims"]
        if not isinstance(dims, list) or not all(type(n) is int for n in dims):
            raise TrajectoryFormatError(
                f"{manifest_path}: grid.dims must be a list of integers")
        spacing = _numbers(manifest_path, "grid.spacing", header["spacing"])
        pd = manifest["params"]
        for key in _PARAM_KEYS:
            if not _finite(pd[key]):
                raise TrajectoryFormatError(
                    f"{manifest_path}: params.{key} must be a finite number, got {pd[key]!r}")
        params = ModelParams(**{key: pd[key] for key in _PARAM_KEYS})
        dt_history = _numbers(manifest_path, "dt_history", manifest["dt_history"])
        events = manifest["events"]
        if not isinstance(events, list) or not all(map(_valid_event, events)):
            raise TrajectoryFormatError(
                f"{manifest_path}: events must be objects with finite t >= 0, "
                "finite dt > 0, a string reason and a finite admissible_dt")
        shape = (dt_history.size + 1, *dims)
        try:
            u = load_levels(os.path.join(path, "u.npy"), shape, nonnegative=True)
            v = load_levels(os.path.join(path, "v.npy"), shape, nonnegative=True)
        except LevelStackError as err:  # the level count is one more than the steps
            raise TrajectoryFormatError(f"{err}; dt_history has {dt_history.size} steps") from None
        grid = Grid(tuple(dims), tuple(spacing))
        mask_path = os.path.join(path, "control_mask.npy")
        mask = load_levels(mask_path, grid.dims)
        try:
            grid = grid.with_mask(mask)
        except ValueError as err:
            raise TrajectoryFormatError(f"{mask_path}: {err}") from None
        ctimes = _numbers(manifest_path, "control_times", manifest["control_times"])
        control = Control(grid, ctimes, load_levels(os.path.join(path, "control.npy"),
                                                    (ctimes.size,) + grid.dims))
        traj = Trajectory(grid=grid, params=params, u=u, v=v, control=control,
                          dt_history=dt_history, events=events)
        try:
            traj.times  # derived here, so that a bad clock is refused on loading
        except ValueError as err:
            raise TrajectoryFormatError(f"{manifest_path}: {err}") from None
        return traj
    except TrajectoryFormatError:
        raise
    except (OSError, KeyError, TypeError, ValueError, IndexError, OverflowError) as err:
        raise TrajectoryFormatError(f"malformed trajectory at {path}: {err}") from err
