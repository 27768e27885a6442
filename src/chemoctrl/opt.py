"""Projected descent over bounded controls through the simulation map.

The control is parameterized on a coarse space-time lattice and prolonged
multilinearly to the fine lattice; every candidate is radially retracted into
the admissible ball before it is simulated, so all evaluated controls are
feasible.  Gradients come from central finite differences of the reduced
objective (no adjoint is available at weak-solution regularity), and the line
search accepts only strict decreases, so the accepted objective sequence is
strictly decreasing and the method is deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cost import evaluate_J, project_ball
from .sim import Control, StiffnessError, simulate


class InfeasibleBaselineError(RuntimeError):
    """Even the zero control fails to produce a finite objective."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent and parameterization knobs.

    ``basis`` gives the coarse lattice dims as (time, axis0[, axis1...]);
    ``control_times`` is the fine time-lattice size the coefficients are
    prolonged to.
    """

    max_iters: int = 25
    step0: float = 1.0
    shrink: float = 0.5
    fd_epsilon: float = 1e-4
    basis: tuple = (2, 2)
    stop_tol: float = 1e-6
    seed: int = 0
    control_times: int = 9
    max_backtracks: int = 25
    n_starts: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie strictly between 0 and 1")
        if self.step0 <= 0 or self.fd_epsilon <= 0:
            raise ValueError("step0 and fd_epsilon must be positive")
        if len(self.basis) < 2 or any(b < 1 for b in self.basis):
            raise ValueError("basis needs >= 1 node per dimension, (time, space...)")
        if self.control_times < 2:
            raise ValueError("control_times must be at least 2")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")


@dataclass
class TraceRow:
    start: int
    iteration: int
    J: float
    j_state_u: float
    j_state_v: float
    j_control: float
    control_norm: float
    step_length: float
    accepted: bool


@dataclass
class OptimizationTrace:
    rows: list = field(default_factory=list)
    best_J: float = math.inf
    best_coeffs: np.ndarray = None

    def append(self, row):
        if row.accepted:
            prev = [r.J for r in self.rows
                    if r.accepted and r.start == row.start and np.isfinite(r.J)]
            if prev and np.isfinite(row.J) and row.J >= prev[-1]:
                raise ValueError("accepted objective values must decrease strictly")
        self.rows.append(row)

    def accepted_J(self, start=None):
        return np.array([r.J for r in self.rows if r.accepted
                         and (start is None or r.start == start)])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["start", "iteration", "J", "j_state_u", "j_state_v",
                             "j_control", "control_norm", "step_length", "accepted"])
            for r in self.rows:
                writer.writerow([r.start, r.iteration, repr(r.J), repr(r.j_state_u),
                                 repr(r.j_state_v), repr(r.j_control),
                                 repr(r.control_norm), repr(r.step_length),
                                 int(r.accepted)])


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
    fd_epsilon: float = 1e-4


def make_context(config, cost_params, model_params, u0, v0, dt_max):
    times = np.linspace(0.0, model_params.t_final, config.control_times)
    return OptimizeContext(grid=u0.grid, model_params=model_params,
                           cost_params=cost_params, u0=u0, v0=v0, dt_max=dt_max,
                           basis=tuple(config.basis), control_times=times,
                           fd_epsilon=config.fd_epsilon)


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


def prolong_coefficients(coeffs, grid, times):
    """Multilinear prolongation of coarse lattice coefficients.

    ``coeffs`` has shape ``basis`` = (time nodes, nodes per space axis...);
    the output lives on ``(len(times), *grid.dims)``.
    """
    out = np.asarray(coeffs, dtype=float)
    t_final = times[-1] if times[-1] > 0 else 1.0
    out = _interp_axis(out, 0, times / t_final)
    for k in range(grid.ndim):
        frac = grid.axis_centers(k) / grid.lengths[k]
        out = _interp_axis(out, 1 + k, frac)
    return out


def control_from_coefficients(coeffs, ctx):
    """Prolong, mask and retract coefficients into a feasible control."""
    values = prolong_coefficients(coeffs.reshape(ctx.basis), ctx.grid,
                                  ctx.control_times)
    ctrl = Control(ctx.grid, ctx.control_times.copy(), values)
    return project_ball(ctrl, ctx.cost_params.M, ctx.cost_params.q)


def _evaluate(coeffs, ctx):
    ctrl = control_from_coefficients(coeffs, ctx)
    try:
        traj = simulate(ctx.u0, ctx.v0, ctrl, ctx.model_params, ctx.dt_max)
    except StiffnessError:
        return math.inf, None, ctrl
    breakdown = evaluate_J(traj, ctrl, ctx.cost_params, ctx.model_params.s)
    return breakdown.total, breakdown, ctrl


def reduced_objective(f_params, ctx):
    """Objective of the coefficients after prolongation, retraction and solve.

    Deterministic for fixed inputs; a stiffness failure marks the candidate
    infeasible with value ``inf``.
    """
    coeffs = np.asarray(f_params, dtype=float)
    value, _, _ = _evaluate(coeffs, ctx)
    return value


def finite_difference_gradient(fun, x, epsilon):
    """Central differences of ``fun`` at ``x``, coordinate by coordinate.

    Falls back to a one-sided difference when a probe comes back infeasible
    (infinite); the returned mask flags those coordinates.

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


def fd_gradient(f_params, ctx):
    """Finite-difference gradient of :func:`reduced_objective`."""
    return finite_difference_gradient(lambda p: reduced_objective(p, ctx),
                                      np.asarray(f_params, dtype=float),
                                      ctx.fd_epsilon)


def _descend(coeffs0, J0, bd0, ctrl0, ctx, config, trace, start):
    """Backtracking descent from an evaluated starting point.

    The trial move is ``step`` times the sup-normalized gradient, so ``step``
    is measured in coefficient units.  A step accepted without backtracking
    grows the next trial by ``1/shrink``; otherwise the next trial reuses the
    accepted length.  Only strict decreases are accepted.
    """
    coeffs = coeffs0
    J_cur, bd_cur, ctrl_cur = J0, bd0, ctrl0
    step = config.step0
    for it in range(1, config.max_iters + 1):
        grad, _ = fd_gradient(coeffs, ctx)
        gmax = float(np.abs(grad).max())
        if gmax == 0.0:
            break
        direction = grad / gmax
        accepted = False
        backtracked = False
        for _ in range(config.max_backtracks):
            cand = coeffs - step * direction
            Jc, bdc, cc = _evaluate(cand, ctx)
            if Jc < J_cur:
                accepted = True
                break
            trace.append(TraceRow(start, it, Jc,
                                  bdc.state_u if bdc else math.inf,
                                  bdc.state_v if bdc else math.inf,
                                  bdc.control if bdc else math.inf,
                                  cc.lq_norm(ctx.cost_params.q), step, False))
            step *= config.shrink
            backtracked = True
        if not accepted:
            break
        rel_drop = (J_cur - Jc) / max(J_cur, 1e-300)
        coeffs, J_cur, bd_cur, ctrl_cur = cand, Jc, bdc, cc
        trace.append(TraceRow(start, it, J_cur, bd_cur.state_u, bd_cur.state_v,
                              bd_cur.control, ctrl_cur.lq_norm(ctx.cost_params.q),
                              step, True))
        if not backtracked:
            step /= config.shrink
        if rel_drop < config.stop_tol:
            break
    return coeffs, J_cur, bd_cur, ctrl_cur


def optimize(config, cost_params, model_params, u0, v0, dt_max,
             initial_coeffs=None):
    """Minimize the objective over the ball by projected descent.

    Always evaluates the zero control first (it is feasible by definition);
    descent starts there, from ``initial_coeffs`` when that warm start is
    strictly better, and from ``n_starts - 1`` extra seeded random starts.
    Returns the best control found and the full trace.

    Raises
    ------
    InfeasibleBaselineError
        If the zero-control run itself fails.
    """
    ctx = make_context(config, cost_params, model_params, u0, v0, dt_max)
    trace = OptimizationTrace()
    n_coeffs = int(np.prod(config.basis))

    zeros = np.zeros(n_coeffs)
    J0, bd0, ctrl0 = _evaluate(zeros, ctx)
    if not math.isfinite(J0):
        raise InfeasibleBaselineError("the zero-control baseline run failed")

    starts = [(zeros, J0, bd0, ctrl0)]
    if initial_coeffs is not None:
        warm = np.asarray(initial_coeffs, dtype=float).ravel()
        if warm.size != n_coeffs:
            raise ValueError("warm start has the wrong number of coefficients")
        Jw, bdw, cw = _evaluate(warm, ctx)
        if Jw < J0:
            starts = [(warm, Jw, bdw, cw)]
    rng = np.random.default_rng(config.seed)
    for _ in range(config.n_starts - 1):
        extra = rng.normal(0.0, config.step0, size=n_coeffs)
        Je, bde, ce = _evaluate(extra, ctx)
        if math.isfinite(Je):
            starts.append((extra, Je, bde, ce))

    best = None
    for k, (c0, J_s, bd_s, ctrl_s) in enumerate(starts):
        trace.append(TraceRow(k, 0, J_s, bd_s.state_u, bd_s.state_v, bd_s.control,
                              ctrl_s.lq_norm(cost_params.q), 0.0, True))
        coeffs, J_fin, bd_fin, ctrl_fin = _descend(c0, J_s, bd_s, ctrl_s, ctx,
                                                   config, trace, k)
        if best is None or J_fin < best[1]:
            best = (coeffs, J_fin, bd_fin, ctrl_fin)

    best_coeffs, best_J, _, best_ctrl = best
    trace.best_J = best_J
    trace.best_coeffs = best_coeffs
    return best_ctrl, trace


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["M", "J", "control_norm", "threshold_q_over_gamma_f_J",
                             "threshold_ok"])
            for r in self.rows:
                writer.writerow([repr(r.M), repr(r.J), repr(r.control_norm),
                                 repr(r.threshold), int(r.threshold_ok)])


def ordering_experiment(m_values, config, cost_params, model_params, u0, v0,
                        dt_max):
    """Optimize per ball radius and tabulate the monotone objective column.

    Runs are warm-started with the previous radius' best coefficients, so the
    objective column is nonincreasing along increasing radii.  Each row also
    checks the threshold ``M >= (q / gamma_f) * J(M)`` under which the
    ordering between the three related minimization problems applies, and the
    table reports the smallest radius whose doubling no longer improves the
    objective beyond ``stop_tol`` (relative).
    """
    m_values = [float(m) for m in m_values]
    if len(m_values) < 2:
        raise ValueError("need at least two ball radii")
    rows = []
    warm = None
    results = {}
    cached = {}
    for M in m_values:
        if M in cached:  # deterministic, so repeated radii reuse the result
            J, norm, warm = cached[M]
        else:
            cp = replace(cost_params, M=M)
            ctrl, trace = optimize(config, cp, model_params, u0, v0, dt_max,
                                   initial_coeffs=warm)
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
