"""Energy trace, dissipation integrals and the audited energy inequality.

For a state ``(u, v)`` with ``z = sqrt(v + alpha^2)`` the energy is

    E = s/4 * integral g(u) + 1/2 * integral |grad z|^2,

and along a trajectory the audit accumulates four dissipation integrals
(entropy gradient, density-weighted z-gradient, Hessian, quartic) plus the
control forcing.  The inequality under audit bounds

    E(t2) + beta * (entropy + hessian + quartic) + 1/4 * cross

by ``E(t1) + K`` for every saved pair ``t1 < t2``; ``beta`` and ``K`` are
treated as audited parameters since no closed form exists for them, and
:func:`fit_constants` recovers an empirical ``K`` curve against the control
norm.  :func:`build_energy_report` makes the one pass over the saved levels,
and its :class:`EnergyReport` is the one way to the dissipation integrals:
one trapezoid integral per saved interval, so the integral over a window of
saved levels is the sum of its entries.  The audit, its pair residuals and
:func:`fit_constants` work from the report, and ``beta`` and ``K`` enter
only there, as arguments of the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Workspace,
    cell_gradient_sq,
    face_gradients,
    h1_seminorm,
    hessian_frobenius_sq,
    integrate,
    trapezoid_intervals,
)
from .io import write_json
from .model import g_energy


class AuditInfeasibleError(RuntimeError):
    """No admissible constants make the energy audit pass."""


# the per-interval integrals of a report, each one entry per saved interval
_INTEGRALS = ("dissipation_entropy", "dissipation_cross", "dissipation_hessian",
              "dissipation_quartic", "control_forcing")


@dataclass
class EnergyReport:
    """Energy trace plus per-interval dissipation integrals of one run.

    The dissipation arrays hold one entry per consecutive saved interval
    (``len(times) - 1``); all of them are nonnegative by construction.  The
    integral from saved level ``i`` to saved level ``j`` is ``arr[i:j].sum()``.
    """

    times: np.ndarray
    energy: np.ndarray
    dissipation_entropy: np.ndarray
    dissipation_cross: np.ndarray
    dissipation_hessian: np.ndarray
    dissipation_quartic: np.ndarray
    control_forcing: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("report times must increase strictly")
        for name in _INTEGRALS:
            arr = getattr(self, name)
            if arr.size != self.times.size - 1:
                raise ValueError(f"{name} must have one entry per interval")
            if np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")

    def to_dict(self):
        return {name: [float(x) for x in getattr(self, name)]
                for name in ("times", "energy") + _INTEGRALS}

    def to_json(self, path):
        write_json(path, self.to_dict())

    def _accumulator(self, beta):
        """Cumulative ``E + beta*(entropy + hessian + quartic) + cross/4`` per level."""
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        trio = self.dissipation_entropy + self.dissipation_hessian \
            + self.dissipation_quartic
        P = np.concatenate(([0.0], np.cumsum(trio)))
        C = np.concatenate(([0.0], np.cumsum(self.dissipation_cross)))
        return self.energy + beta * P + 0.25 * C

    def worst_residual(self, beta, K):
        """Worst signed inequality residual over all saved pairs at ``(beta, K)``.

        Any ``K`` is accepted, so an adversarial negative one simply fails.
        """
        return _max_rise(self._accumulator(beta)) - float(K)

    def residual_pairs(self, beta, K):
        """Rows ``(t1, t2, residual)`` over every pair of saved levels."""
        A, t = self._accumulator(beta), self.times
        return [(float(t[i]), float(t[j]), float(A[j] - A[i] - K))
                for i in range(t.size) for j in range(i + 1, t.size)]


@dataclass
class FittedConstants:
    """Empirical audit constants: one beta, one K per control norm."""

    beta: float
    control_norms: np.ndarray
    K_values: np.ndarray


def _face_weighted_cross(grid, density_pow, z):
    """Integral of ``u^s |grad z|^2`` with arithmetic face means of ``u^s``."""
    total = 0.0
    for gz, (lo, hi, _) in zip(face_gradients(grid, z), grid.face_slices):
        mean_pow = 0.5 * (density_pow[lo] + density_pow[hi])
        total += (mean_pow * gz**2).sum()
    return total * grid.cell_volume


def _level_quantities(traj, params):
    """Instantaneous energy and dissipation densities at every saved level;
    the energy is ``s/4 * integral g(u) + 1/2 * integral |grad z|^2``."""
    grid = traj.grid
    s = params.s
    vol = grid.cell_volume
    # rows: energy, entropy, cross, hessian, quartic, control forcing
    out = np.zeros((6, traj.n_levels))
    ws = Workspace(grid)  # holds the control slice of one level at a time
    zero, control = np.zeros(grid.dims), traj.control
    for i in range(traj.n_levels):
        u = traj.u[i]
        z = np.sqrt(traj.v[i] + params.alpha**2)
        f = zero if control is None else control.slice_at(float(traj.times[i]), ws)
        out[:, i] = (
            s / 4.0 * integrate(grid, g_energy(u, s))
            + 0.5 * h1_seminorm(grid, z) ** 2,
            h1_seminorm(grid, (u + 1.0) ** (s / 2.0)) ** 2,
            _face_weighted_cross(grid, u**s, z),
            hessian_frobenius_sq(grid, z).sum() * vol,
            (cell_gradient_sq(grid, z) ** 2 / z**2).sum() * vol,
            (f**2).sum() * vol,
        )
    return tuple(out)


def build_energy_report(traj, params):
    """Energy trace and per-consecutive-interval dissipations of a run.

    The only pass over the saved levels; every audit quantity derives from it.
    """
    E, ent, cross, hess, quart, forc = _level_quantities(traj, params)
    times = traj.times
    return EnergyReport(
        times=times.copy(), energy=E,
        dissipation_entropy=trapezoid_intervals(times, ent),
        dissipation_cross=trapezoid_intervals(times, cross),
        dissipation_hessian=trapezoid_intervals(times, hess),
        dissipation_quartic=trapezoid_intervals(times, quart),
        control_forcing=trapezoid_intervals(times, forc),
    )


def _max_rise(A):
    """Largest ``A[j] - A[i]`` over saved pairs ``i < j``; 0 without a pair."""
    if A.size < 2:
        return 0.0
    return float(np.max(A[1:] - np.minimum.accumulate(A[:-1])))


def energy_inequality_audit(traj, params, beta, K):
    """Worst signed residual of the energy inequality over all saved pairs.

    For every pair of saved levels ``t1 < t2`` the residual is

        E(t2) + beta*(entropy + hessian + quartic) + cross/4 - E(t1) - K,

    with the dissipation integrals taken over ``(t1, t2)``.  A positive
    return value means the inequality fails at this ``(beta, K)``.
    """
    return build_energy_report(traj, params).worst_residual(beta, K)


def audit_pairs(traj, params, beta, K):
    """Per-pair residual rows ``(t1, t2, residual)`` for plotting."""
    return build_energy_report(traj, params).residual_pairs(beta, K)


# the tolerances of :func:`fit_constants` and the steps of its beta bisection
ZERO_TOL = 1e-8
MONO_TOL = 1e-8
BISECTION_STEPS = 60


def fit_constants(trajs, params, beta_range=(1e-6, 1.0)):
    """Fit the audit constants over a family of runs.

    Searches for the largest ``beta`` in ``beta_range`` such that every
    uncontrolled run in the family is purely dissipative (its minimal K stays
    below ``ZERO_TOL``), then reports the minimal admissible K of every run
    at that ``beta``.  The resulting K curve against the control norm must be
    nondecreasing within ``MONO_TOL``; a violation, or an infeasible lower
    end of the beta range, raises :class:`AuditInfeasibleError`.

    Parameters
    ----------
    trajs : sequence of Trajectory
        At least two runs, ideally with distinct control norms.
    params : ModelParams

    Returns
    -------
    FittedConstants
    """
    trajs = list(trajs)
    if not trajs:
        raise ValueError("need at least one trajectory")
    norms = np.array([
        t.control.lq_norm(params.q) if t.control is not None else 0.0
        for t in trajs
    ])
    reports = [build_energy_report(t, params) for t in trajs]

    def K_all(beta):
        # minimal admissible K of each run: its largest pair rise, at least 0
        return np.array([max(0.0, r.worst_residual(beta, 0.0)) for r in reports])

    zero_idx = np.nonzero(norms <= 1e-14)[0]

    def passes(beta):
        if zero_idx.size == 0:
            return True
        return bool(np.all(K_all(beta)[zero_idx] <= ZERO_TOL))

    lo, hi = beta_range
    if passes(hi):
        beta = hi
    elif not passes(lo):
        raise AuditInfeasibleError(
            f"uncontrolled runs fail the dissipation audit even at beta={lo}")
    else:
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
        beta = lo

    K = K_all(beta)
    order = np.argsort(norms, kind="stable")
    norms_sorted = norms[order]
    K_sorted = K[order]
    drops = K_sorted[:-1] - K_sorted[1:]
    if drops.size and float(drops.max()) > MONO_TOL:
        k = int(np.argmax(drops))
        raise AuditInfeasibleError(
            f"fitted K is not nondecreasing: K({norms_sorted[k]:.4g})="
            f"{K_sorted[k]:.6g} > K({norms_sorted[k + 1]:.4g})="
            f"{K_sorted[k + 1]:.6g}")
    return FittedConstants(beta=float(beta), control_norms=norms_sorted,
                           K_values=K_sorted)
