"""Quasi-Newton descent over bounded controls through the simulation map.

The control is parameterized on a coarse space-time lattice and prolonged
multilinearly to the fine lattice; every candidate is radially retracted into
the admissible ball before it is simulated, so all evaluated controls are
feasible and the coefficients themselves are unconstrained.  Descent runs
from one start, the zero control or a better warm start.  The line search
accepts only strict decreases, so the accepted objective sequence is strictly
decreasing, and the method is deterministic.

The continuous problem has no adjoint at weak-solution regularity, but the
discrete reduced objective is piecewise smooth: prolongation, mask, radial
retraction, the implicit-explicit steps and the trapezoid space-time norms.
Descent differentiates that map directly (discretize, then optimize):
:func:`adjoint_gradient` runs one reverse pass over the run that evaluated
the current point, so a gradient costs no further simulation.
:func:`finite_difference_gradient` stays as the oracle it is checked against.
The search direction is the limited-memory BFGS one (:func:`lbfgs_direction`,
Liu & Nocedal 1989) built from the last :data:`LBFGS_MEMORY` curvature pairs,
with the sup-normalized gradient as the fallback where no pair is stored or
the quasi-Newton direction does not descend.
The trace keeps the best point with its run, so its admissibility and cost
breakdown need no further simulation either.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cost import (
    CostBreakdown,
    evaluate_J,
    evaluate_J_gradient,
    project_ball,
    project_ball_transpose,
)
from .io import write_csv
from .sim import (Control, PositivityError, StiffnessError, Trajectory, simulate,
                  simulate_adjoint)


class InfeasibleBaselineError(RuntimeError):
    """Even the zero control fails to produce a finite objective."""


# the line search: the first steepest-descent trial step, in coefficient
# units, the factor each rejected trial step is multiplied by, and the
# rejections per descent iteration before descent stops
STEP0 = 1.0
SHRINK = 0.5
MAX_BACKTRACKS = 25

# curvature pairs (s, y) the quasi-Newton direction is built from
LBFGS_MEMORY = 6

# a pair is kept only when s.y exceeds this multiple of |s| |y|: the ball
# boundary and the other kinks of the discrete map can bend the secant
# the wrong way, and such a pair would break the positive definiteness
CURVATURE_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent and parameterization knobs.

    ``basis`` gives the coarse lattice dims as (time, axis0[, axis1...]), 2
    nodes each when None; ``control_times`` is the fine time-lattice size the
    coefficients are prolonged to.  Descent stops after ``max_iters``
    iterations or a relative drop below ``stop_tol``.
    """

    max_iters: int = 25
    basis: tuple | None = None
    stop_tol: float = 1e-6
    control_times: int = 9

    def __post_init__(self):
        # written so that a NaN fails every check
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if self.basis is not None and (len(self.basis) < 2
                                       or not all(b >= 1 for b in self.basis)):
            raise ValueError("basis needs >= 1 node per dimension, (time, space...)")
        if not math.isfinite(self.stop_tol):
            raise ValueError(f"stop_tol must be finite, got {self.stop_tol}")
        if not self.control_times >= 2:
            raise ValueError("control_times must be at least 2")


TRACE_COLUMNS = ("start", "iteration", "J", "j_state_u", "j_state_v", "j_control",
                 "control_norm", "step_length", "accepted", "reason")


@dataclass
class TraceRow:
    """One evaluated candidate; ``reason`` says why an infeasible one failed
    and is empty for a feasible one."""

    start: int
    iteration: int
    J: float
    j_state_u: float
    j_state_v: float
    j_control: float
    control_norm: float
    step_length: float
    accepted: bool
    reason: str = ""


@dataclass
class OptimizationTrace:
    """Every evaluated candidate, and the best point with the run behind it."""

    rows: list = field(default_factory=list)
    best: Evaluation | None = None
    # per start, the last finite accepted objective
    _last_J: dict = field(default_factory=dict, repr=False)

    @property
    def best_J(self):
        return math.inf if self.best is None else self.best.J

    @property
    def best_coeffs(self):
        return None if self.best is None else self.best.coeffs

    def append(self, row):
        if row.accepted and math.isfinite(row.J):
            if row.J >= self._last_J.get(row.start, math.inf):
                raise ValueError("accepted objective values must decrease strictly")
            self._last_J[row.start] = row.J
        self.rows.append(row)

    def accepted_J(self, start=None):
        return np.array([r.J for r in self.rows if r.accepted
                         and (start is None or r.start == start)])

    def to_csv(self, path):
        write_csv(path, TRACE_COLUMNS, (
            [r.start, r.iteration, r.J, r.j_state_u, r.j_state_v, r.j_control,
             r.control_norm, r.step_length, int(r.accepted), r.reason]
            for r in self.rows))


@dataclass
class OptimizeContext:
    """Everything a reduced-objective evaluation needs."""

    grid: object
    model_params: object
    cost_params: object
    u0: object
    v0: object
    dt_max: float
    basis: tuple
    control_times: np.ndarray

    @cached_property
    def prolongation(self):
        """Per lattice axis (time, then space), the fine-by-coarse matrix of
        the prolongation's linear interpolation, built from unit vectors.

        The prolongation is their tensor product.  Its transpose is applied
        axis by axis: assembled, it would hold 24M entries for the basis
        ``(3, 4, 4, 4)`` on 24^3 cells and 9 control times.
        """
        return [_interp_axis(np.eye(n), 0, frac)
                for n, frac in zip(self.basis,
                                   _lattice_fractions(self.grid, self.control_times))]


def make_context(config, cost_params, model_params, u0, v0, dt_max):
    basis = tuple(config.basis or (2,) * (u0.grid.ndim + 1))  # time, then each axis
    if len(basis) != u0.grid.ndim + 1:
        raise ValueError(f"basis needs {u0.grid.ndim + 1} entries, got {basis}")
    times = np.linspace(0.0, model_params.t_final, config.control_times)
    return OptimizeContext(grid=u0.grid, model_params=model_params,
                           cost_params=cost_params, u0=u0, v0=v0, dt_max=dt_max,
                           basis=basis, control_times=times)


def _interp_axis(arr, axis, frac):
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


def _lattice_fractions(grid, times):
    """Fine-lattice positions in [0, 1] per axis: the times, then the cell
    centers along each space axis."""
    t_final = times[-1] if times[-1] > 0 else 1.0
    return [times / t_final] + [grid.axis_centers(k) / grid.lengths[k]
                                for k in range(grid.ndim)]


def prolong_coefficients(coeffs, grid, times):
    """Multilinear prolongation of coarse lattice coefficients.

    ``coeffs`` has shape ``basis`` = (time nodes, nodes per space axis...);
    the output lives on ``(len(times), *grid.dims)``.
    """
    out = np.asarray(coeffs, dtype=float)
    for axis, frac in enumerate(_lattice_fractions(grid, times)):
        out = _interp_axis(out, axis, frac)
    return out


def _prolong_transpose(matrices, fine):
    """Transpose of the prolongation, applied axis by axis."""
    out = fine
    for axis, mat in enumerate(matrices):
        out = np.moveaxis(np.tensordot(mat, out, axes=([0], [axis])), 0, axis)
    return out


def _masked_control(coeffs, ctx):
    """The prolonged, masked control before its retraction into the ball."""
    values = prolong_coefficients(coeffs.reshape(ctx.basis), ctx.grid,
                                  ctx.control_times)
    return Control(ctx.grid, ctx.control_times.copy(), values)


def control_from_coefficients(coeffs, ctx):
    """Prolong, mask and retract coefficients into a feasible control."""
    return project_ball(_masked_control(coeffs, ctx), ctx.cost_params.M,
                        ctx.cost_params.q)


@dataclass
class Evaluation:
    """One evaluated candidate: its objective and the run behind it.

    An infeasible candidate has ``J = inf``, no breakdown and no trajectory,
    and keeps the message of its ``StiffnessError`` or ``PositivityError``
    (a state that overflowed) as ``reason``.
    """

    coeffs: np.ndarray
    J: float
    breakdown: CostBreakdown | None
    control: Control
    traj: Trajectory | None
    reason: str = ""

    def row(self, iteration, step_length, accepted, q):
        bd = self.breakdown
        # descent has one start, numbered 0 in the trace's ``start`` column
        return TraceRow(0, iteration, self.J,
                        bd.state_u if bd else math.inf,
                        bd.state_v if bd else math.inf,
                        bd.control if bd else math.inf,
                        self.control.lq_norm(q), step_length, accepted, self.reason)


def _evaluate(coeffs, ctx):
    ctrl = control_from_coefficients(coeffs, ctx)
    try:
        traj = simulate(ctx.u0, ctx.v0, ctrl, ctx.model_params, ctx.dt_max)
    except (StiffnessError, PositivityError) as err:
        return Evaluation(coeffs, math.inf, None, ctrl, None, str(err))
    breakdown = evaluate_J(traj, ctrl, ctx.cost_params, ctx.model_params.s)
    return Evaluation(coeffs, breakdown.total, breakdown, ctrl, traj)


def reduced_objective(f_params, ctx):
    """Objective of the coefficients after prolongation, retraction and solve.

    Deterministic for fixed inputs; a stiffness failure or an overflowing
    state marks the candidate infeasible with value ``inf``.
    """
    return _evaluate(np.asarray(f_params, dtype=float), ctx).J


def adjoint_gradient(coeffs, traj, ctx):
    """Exact gradient of :func:`reduced_objective` at ``coeffs``, by one
    reverse pass over ``traj``, the run that evaluated them.

    Chains the objective's partial derivatives through the time steps
    (:func:`~chemoctrl.sim.simulate_adjoint`), the retraction into the ball,
    the control mask and the prolongation.  It is the derivative of the
    discrete map wherever that map is smooth, which is away from the upwind
    switch, the truncation knee, the ball boundary and a change in the
    accepted step sizes.
    """
    cp = ctx.cost_params
    u_bar, v_bar, f_bar = evaluate_J_gradient(traj, traj.control, cp,
                                              ctx.model_params.s)
    f_bar += simulate_adjoint(traj, u_bar, v_bar)
    g_bar = project_ball_transpose(_masked_control(coeffs, ctx), cp.M, cp.q, f_bar)
    return _prolong_transpose(ctx.prolongation, g_bar * ctx.grid.control_mask).ravel()


def finite_difference_gradient(fun, x, epsilon):
    """Central differences of ``fun`` at ``x``, coordinate by coordinate.

    Falls back to a one-sided difference when a probe comes back infeasible
    (infinite); the returned mask flags those coordinates.  The optimizer no
    longer calls it; it is the oracle :func:`adjoint_gradient` is checked
    against.

    Returns
    -------
    (gradient, one_sided) : pair of ndarray
    """
    x = np.asarray(x, dtype=float)
    vals = []
    for i in range(x.size):
        for sign in (+1.0, -1.0):
            p = x.copy()
            p[i] += sign * epsilon
            vals.append(fun(p))

    center = None
    grad = np.zeros(x.size)
    one_sided = np.zeros(x.size, dtype=bool)
    for i in range(x.size):
        fp, fm = vals[2 * i], vals[2 * i + 1]
        if math.isfinite(fp) and math.isfinite(fm):
            grad[i] = (fp - fm) / (2.0 * epsilon)
        else:
            if center is None:
                center = fun(x)
            one_sided[i] = True
            if math.isfinite(fp):
                grad[i] = (fp - center) / epsilon
            elif math.isfinite(fm):
                grad[i] = (center - fm) / epsilon
            else:
                grad[i] = 0.0
    return grad, one_sided


def lbfgs_direction(grad, pairs):
    """``H @ grad`` for the L-BFGS inverse-Hessian approximation ``H`` of
    the curvature ``pairs`` (s, y), oldest first, by the two-loop recursion.

    ``H`` starts from the scaled identity ``(s.y / y.y) I`` of the newest
    pair and satisfies the secant equation ``H y = s`` for it.
    """
    q = np.array(grad, dtype=float)
    alphas = []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        q -= a * y
        alphas.append(a)
    s, y = pairs[-1]
    r = (s @ y) / (y @ y) * q
    for (s, y), a in zip(pairs, reversed(alphas)):
        r += (a - (y @ r) / (s @ y)) * s
    return r


def _store_pair(pairs, s, y):
    """Append (s, y) to ``pairs`` when its curvature is safely positive."""
    if s @ y > CURVATURE_TOL * np.linalg.norm(s) * np.linalg.norm(y):
        pairs.append((s, y))


def _search_direction(grad, pairs, step):
    """The direction to move against and its first trial multiple.

    The quasi-Newton direction is tried at unit length when it descends
    (``d.grad > 0``); otherwise, or with no pair stored, the sup-normalized
    gradient at the steepest-descent ``step``.  Returns ``(d, t, newton)``.
    """
    if pairs:
        d = lbfgs_direction(grad, pairs)
        if d @ grad > 0:
            return d, 1.0, True
    return grad / float(np.abs(grad).max()), step, False


def optimize(config, cost_params, model_params, u0, v0, dt_max):
    """Minimize the objective over the ball by L-BFGS descent on the
    retracted coefficients.

    Always evaluates the zero control first (it is feasible by definition);
    descent starts there.  Each iteration takes the gradient at the current point
    and, with the previous point, forms the curvature pair of the step just
    taken.  It then moves against the L-BFGS direction, trying a unit
    multiple first.  The first iteration, and any whose L-BFGS direction does
    not descend, moves against the sup-normalized gradient by ``step``, in
    coefficient units, first :data:`STEP0`; such a move accepted without
    backtracking grows the next ``step`` by ``1/SHRINK``, otherwise ``step``
    keeps the accepted length.  A rejected trial is scaled by :data:`SHRINK`,
    up to :data:`MAX_BACKTRACKS` times.  Only strict decreases are accepted, so
    every point the gradient is taken at is feasible and its run is at hand.
    The trace's ``step_length`` is the sup-norm of each candidate's move.
    Returns the best control found and the trace, which holds the best point
    and its run as ``trace.best``.

    Raises
    ------
    ValueError
        If ``config.basis`` does not have ``grid.ndim + 1`` entries.
    InfeasibleBaselineError
        If the zero-control run itself fails.
    """
    ctx = make_context(config, cost_params, model_params, u0, v0, dt_max)
    return _descend(config, ctx, _baseline(ctx), None)


def _baseline(ctx):
    """The zero control's evaluation.  It does not depend on the ball radius:
    the zero control lies inside every ball."""
    zero = _evaluate(np.zeros(int(np.prod(ctx.basis))), ctx)
    if not math.isfinite(zero.J):
        raise InfeasibleBaselineError(
            f"the zero-control baseline run failed: {zero.reason}")
    return zero


def _descend(config, ctx, zero, warm):
    """:func:`optimize` from the evaluated zero control ``zero``, or from the
    coefficients ``warm`` of :func:`ordering_experiment`'s previous radius
    when that warm start is strictly better (None: no warm start)."""
    trace = OptimizationTrace()
    q = ctx.cost_params.q
    cur = zero
    if warm is not None:
        warm_start = _evaluate(warm, ctx)
        if warm_start.J < cur.J:
            cur = warm_start
    trace.append(cur.row(0, 0.0, True, q))

    step = STEP0
    pairs = deque(maxlen=LBFGS_MEMORY)
    prev = None
    for it in range(1, config.max_iters + 1):
        grad = adjoint_gradient(cur.coeffs, cur.traj, ctx)
        if prev is not None:
            _store_pair(pairs, cur.coeffs - prev[0], grad - prev[1])
        prev = (cur.coeffs, grad)
        if not np.abs(grad).max() > 0.0:
            break
        direction, t, newton = _search_direction(grad, pairs, step)
        d_max = float(np.abs(direction).max())
        for backtracks in range(MAX_BACKTRACKS):
            cand = _evaluate(cur.coeffs - t * direction, ctx)
            if cand.J < cur.J:
                break
            trace.append(cand.row(it, t * d_max, False, q))
            t *= SHRINK
        else:
            break
        rel_drop = (cur.J - cand.J) / max(cur.J, 1e-300)
        cur = cand
        trace.append(cur.row(it, t * d_max, True, q))
        if not newton:
            step = t if backtracks else t / SHRINK
        if rel_drop < config.stop_tol:
            break

    trace.best = cur
    return cur.control, trace


@dataclass
class OrderingRow:
    M: float
    J: float
    control_norm: float
    threshold: float
    threshold_ok: bool


@dataclass
class OrderingTable:
    rows: list
    plateau_M: float | None

    def J_column(self):
        return np.array([r.J for r in self.rows])

    def to_csv(self, path):
        write_csv(path, ["M", "J", "control_norm", "threshold_q_over_gamma_f_J",
                         "threshold_ok"],
                  ([r.M, r.J, r.control_norm, r.threshold, int(r.threshold_ok)]
                   for r in self.rows))


def ordering_experiment(m_values, config, cost_params, model_params, u0, v0,
                        dt_max):
    """Optimize per ball radius and tabulate the monotone objective column.

    Runs are warm-started with the previous radius' best coefficients, so the
    objective column is nonincreasing along increasing radii.  The zero
    control, every run's baseline, is simulated once for all radii.  Each row
    also checks the threshold ``M >= (q / gamma_f) * J(M)`` under which the
    ordering between the three related minimization problems applies, and the
    table reports the smallest radius whose doubling no longer improves the
    objective beyond ``stop_tol`` (relative).
    """
    m_values = [float(m) for m in m_values]
    if len(m_values) < 2:
        raise ValueError("need at least two ball radii")
    rows = []
    warm = zero = None
    results = {}
    cached = {}
    for M in m_values:
        if M in cached:  # deterministic, so repeated radii reuse the result
            J, norm, warm = cached[M]
        else:
            cp = replace(cost_params, M=M)
            ctx = make_context(config, cp, model_params, u0, v0, dt_max)
            if zero is None:
                zero = _baseline(ctx)
            ctrl, trace = _descend(config, ctx, zero, warm)
            J = trace.best_J
            warm = trace.best_coeffs
            norm = ctrl.lq_norm(cp.q)
            cached[M] = (J, norm, warm)
        threshold = cost_params.q / cost_params.gamma_f * J
        rows.append(OrderingRow(M=M, J=J, control_norm=norm,
                                threshold=threshold,
                                threshold_ok=bool(M >= threshold)))
        results[M] = J

    plateau = None
    for M in sorted(results):
        twice = 2.0 * M
        match = [m for m in results if abs(m - twice) <= 1e-9 * max(1.0, twice)]
        if match:
            J_m, J_2m = results[M], results[match[0]]
            if J_m - J_2m < config.stop_tol * max(J_m, 1e-300):
                plateau = M
                break
    return OrderingTable(rows=rows, plateau_M=plateau)
