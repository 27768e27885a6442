"""Tracking objective, desired states, space-time norms and the control ball.

The objective charges the density misfit in the ``L^{5s/3}`` space-time norm
with weight ``3*gamma_u/(5s)``, the concentration misfit in ``L^2`` with
weight ``gamma_v/2``, and the control in ``L^q`` with weight ``gamma_f/q``.
Feasible controls live in the ball of radius ``M`` in the ``L^q`` norm;
radial scaling restores feasibility (the exact metric projection has no
closed form for general ``q``, and the optimizer only needs a retraction).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .energy import energy_inequality_audit
from .grid import spacetime_lp_norm, trapezoid_weights
from .io import write_json
from .sim import weak_residual


@dataclass(frozen=True)
class DesiredState:
    """Space-time target field, evaluated lazily at trajectory times.

    ``fn(t, grid)`` gives the target's cells at time ``t``.  ``steady`` marks
    a target that does not depend on ``t``, which the cost evaluates once a
    call; the constructors of such targets (:meth:`constant`,
    :meth:`from_field`, :meth:`from_profile`) set it, and a target built from
    ``fn`` alone is evaluated at every level.
    """

    fn: callable
    steady: bool = False

    def at(self, t, grid):
        vals = np.asarray(self.fn(t, grid), dtype=float)
        if vals.shape != grid.dims:
            raise ValueError(f"desired state at t={t} has shape {vals.shape}, "
                             f"not the grid's {grid.dims}")
        if not np.all(np.isfinite(vals)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            raise ValueError(f"desired state at t={t} is not finite at cell {bad}: "
                             f"{vals[bad]}")
        return vals

    @classmethod
    def from_profile(cls, profile):
        """The steady target whose cells on a grid are ``profile(grid)``."""
        return cls(fn=lambda t, grid: profile(grid), steady=True)

    @classmethod
    def constant(cls, value):
        return cls.from_profile(lambda grid: np.full(grid.dims, float(value)))

    @classmethod
    def from_field(cls, field):
        return cls.from_profile(lambda grid: field.values)


@dataclass
class CostParams:
    """Weights, desired states and the control-ball radius."""

    gamma_u: float
    gamma_v: float
    gamma_f: float
    q: float
    u_d: DesiredState
    v_d: DesiredState
    M: float

    def __post_init__(self):
        # each check on its own (min(1.0, nan) is 1.0), so that a NaN fails
        for name in ("gamma_u", "gamma_v", "gamma_f", "M"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 2.5 < self.q < math.inf:
            raise ValueError(f"control exponent q must be finite, > 5/2, got {self.q}")


@dataclass
class CostBreakdown:
    state_u: float
    state_v: float
    control: float

    @property
    def total(self):
        return self.state_u + self.state_v + self.control

    def to_dict(self):
        return {"state_u": self.state_u, "state_v": self.state_v,
                "control": self.control, "total": self.total}


def _misfits(traj, cost_params):
    """Per saved level, ``u - u_d`` and ``v - v_d``.  A steady target is
    evaluated once and subtracted from the whole level stack by broadcasting,
    which gives the level-by-level differences."""
    grid, times = traj.grid, traj.times

    def misfit(levels, target):
        if target.steady:
            return levels - target.at(float(times[0]), grid)
        return np.stack([levels[i] - target.at(float(t), grid)
                         for i, t in enumerate(times)])
    return misfit(traj.u, cost_params.u_d), misfit(traj.v, cost_params.v_d)


def evaluate_J(traj, control, cost_params, s):
    """Objective value of a run, with the three addends reported separately.

    Returns
    -------
    CostBreakdown
        Fields ``state_u``, ``state_v``, ``control``; ``total`` is their sum.
    """
    grid = traj.grid
    pu = 5.0 * s / 3.0
    u_diff, v_diff = _misfits(traj, cost_params)
    term_u = 3.0 * cost_params.gamma_u / (5.0 * s) \
        * spacetime_lp_norm(traj.times, u_diff, grid, pu) ** pu
    term_v = cost_params.gamma_v / 2.0 \
        * spacetime_lp_norm(traj.times, v_diff, grid, 2.0) ** 2
    term_f = cost_params.gamma_f / cost_params.q \
        * control.lq_norm(cost_params.q) ** cost_params.q
    return CostBreakdown(state_u=term_u, state_v=term_v, control=term_f)


def _level_weights(times, grid):
    """Trapezoid-in-time times cell-volume weights, shaped to broadcast
    against a ``(levels, *dims)`` series."""
    w = trapezoid_weights(times) * grid.cell_volume
    return w.reshape((-1,) + (1,) * grid.ndim)


def _signed_power(a, p):
    """``|a|^p * sign(a)``, the derivative of ``|a|^(p+1) / (p+1)``."""
    return np.abs(a) ** p * np.sign(a)


def evaluate_J_gradient(traj, control, cost_params, s):
    """Partial derivatives of ``evaluate_J(...).total`` with the time levels
    held fixed.

    Returns ``(u_bar, v_bar, f_bar)``, shaped like ``traj.u``, ``traj.v`` and
    ``control.values``.  A charge ``c/p * integral |w - w_d|^p`` has the
    derivative ``c * weight * |w - w_d|^(p-1) * sign(w - w_d)`` per level and
    cell, with the trapezoid-times-volume weight of its quadrature.
    """
    grid = traj.grid
    pu = 5.0 * s / 3.0
    u_diff, v_diff = _misfits(traj, cost_params)
    w = _level_weights(traj.times, grid)
    u_bar = cost_params.gamma_u * w * _signed_power(u_diff, pu - 1.0)
    v_bar = cost_params.gamma_v * w * v_diff
    f_bar = cost_params.gamma_f * _level_weights(control.times, grid) \
        * _signed_power(control.values, cost_params.q - 1.0)
    return u_bar, v_bar, f_bar


def project_ball(control, M, q):
    """Radial retraction onto the control ball of radius ``M`` in ``L^q``.

    Controls already inside the ball are returned unchanged; anything else is
    scaled down radially so the output norm equals ``M``.
    """
    if M <= 0:
        raise ValueError(f"ball radius must be positive, got {M}")
    norm = control.lq_norm(q)
    if norm <= M:
        return control
    return control.scaled(M / norm)


def project_ball_transpose(control, M, q, bar):
    """Transpose of the Jacobian of :func:`project_ball` at ``control``,
    applied to ``bar`` (shaped like ``control.values``).

    Inside the ball the retraction is the identity.  Outside it is
    ``g -> M g / |g|``, whose Jacobian transpose sends ``bar`` to
    ``M/|g| * (bar - sum(bar * g) / |g| * grad|g|)``, where
    ``grad|g| = |g|^(1-q) * weight * |g|^(q-1) * sign(g)`` cellwise.
    """
    norm = control.lq_norm(q)
    if norm <= M:
        return bar
    g = control.values
    grad_norm = norm ** (1.0 - q) * _level_weights(control.times, control.grid) \
        * _signed_power(g, q - 1.0)
    return M / norm * (bar - float((bar * g).sum()) / norm * grad_norm)


@dataclass
class AdmissibilityReport:
    """Outcome of the discrete membership checks for one run."""

    control_norm: float
    M: float
    in_ball: bool
    weak_res: float
    weak_tol: float
    weak_pass: bool
    energy_residual: float
    energy_tol: float
    energy_pass: bool
    K_used: float
    beta_used: float

    @property
    def passed(self):
        return self.in_ball and self.weak_pass and self.energy_pass

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}

    def to_json(self, path):
        write_json(path, self.to_dict())


def _default_weak_tol(traj):
    mean_dt = float(np.diff(traj.times).mean()) if traj.n_levels > 1 else 0.0
    h_sq = max(h * h for h in traj.grid.spacing)
    scale = max(1.0, float(np.abs(traj.u).max()), float(np.abs(traj.v).max()))
    return 10.0 * (mean_dt + h_sq) * scale


def _weak_probes(traj):
    """Cell arrays of the constant-in-time test functions: 1 and the first
    cosine mode per axis."""
    grid = traj.grid
    probes = [np.ones(grid.dims)]
    centers = grid.cell_centers()
    for k in range(grid.ndim):
        probes.append(np.cos(np.pi * centers[k] / grid.lengths[k]))
    return probes


def check_admissible(traj, control, cost_params, params, beta, K):
    """Report the discrete admissibility of a (trajectory, control) pair.

    Checks the control-ball membership, the weak residual of the density
    equation against each constant probe of :func:`_weak_probes` (the worst
    one counts), and the energy-inequality audit with the constants ``beta``
    and ``K``.
    Both residuals pass within one tolerance, scaled by the mean step, the
    squared spacing and the largest state value.  Report-only: nothing raises
    on failure.
    """
    norm = control.lq_norm(cost_params.q)
    in_ball = norm <= cost_params.M * (1.0 + 1e-12) + 1e-12

    tol = _default_weak_tol(traj)
    weak = max(abs(weak_residual(traj, probe)) for probe in _weak_probes(traj))

    res = energy_inequality_audit(traj, params, beta, float(K))

    return AdmissibilityReport(
        control_norm=norm, M=cost_params.M, in_ball=bool(in_ball),
        weak_res=weak, weak_tol=tol, weak_pass=bool(weak <= tol),
        energy_residual=res, energy_tol=tol, energy_pass=bool(res <= tol),
        K_used=float(K), beta_used=float(beta),
    )
