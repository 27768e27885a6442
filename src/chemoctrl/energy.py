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
saved levels is the sum of its entries.  The audit and :func:`fit_constants`
work from the report, and ``beta`` and ``K`` enter only there, as arguments
of the verdict.

The pass reuses one workspace at every saved level (:class:`_LevelWorkspace`),
so after the first level it allocates no array as large as a level, and its
face terms are the face stencil of :mod:`~chemoctrl.grid`.  The six
per-level series are the same bit for bit as with fresh temporaries
(:func:`_level_quantities` says why, term by term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Workspace,
    cell_gradient_sq,
    compact_faces,
    face_difference,
    face_gradient,
    face_views,
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

    def worst_pair(self, beta, K):
        """``(t1, t2, residual)`` of the saved pair with the worst signed
        inequality residual at ``(beta, K)``: of the largest rises of the
        accumulator, the one with the earliest ``t2``, then the earliest
        ``t1``.  Without a pair ``t1`` and ``t2`` are None and the residual is
        ``0 - K``.  Any ``K`` is accepted, so a negative one simply fails.
        """
        A = self._accumulator(beta)
        if A.size < 2:  # no pair, so no rise
            return None, None, 0.0 - float(K)
        rises = A[1:] - np.minimum.accumulate(A[:-1])
        j = int(np.argmax(rises)) + 1
        i = int(np.argmax(A[j] - A[:j]))
        return float(self.times[i]), float(self.times[j]), float(rises[j - 1]) - float(K)


@dataclass
class FittedConstants:
    """Empirical audit constants: one beta, one K per control norm."""

    beta: float
    control_norms: np.ndarray
    K_values: np.ndarray


def _face_weighted_cross(grid, density_pow, grads_sq, faces, ws):
    """Integral of ``u^s |grad z|^2`` with arithmetic face means of ``u^s``
    (face sums, halved, made compact); ``grads_sq`` are the squared compact
    face gradients of ``z``, ``faces`` one scratch array of each face shape
    and ``ws`` a :class:`Workspace` whose ``cells[1]`` takes the face sums."""
    total = 0.0
    for k, (g_sq, mean_pow, views) in enumerate(zip(grads_sq, faces, ws.faces)):
        mean = face_difference(density_pow, k, views[1], np.add)
        mean *= 0.5
        mean = compact_faces(mean, grid.dims, k, mean_pow)
        total += np.multiply(mean, g_sq, out=mean_pow).sum()
    return total * grid.cell_volume


class _LevelWorkspace:
    """The arrays one report reuses at every saved level (what they hold and
    why the results are exact: :func:`_level_quantities`); called with a
    level, it returns that level's six quantities."""

    def __init__(self, grid, params, control):
        self.grid, self.params, self.control = grid, params, control
        self.ws = Workspace(grid)
        self.z = np.empty(grid.dims)
        self.gz = [face_views(np.empty(grid.dims), k) for k in range(grid.ndim)]
        shapes = [tuple(n - (j == k) for j, n in enumerate(grid.dims))
                  for k in range(grid.ndim)]
        self.gz_sq, self.faces = ([np.empty(shape) for shape in shapes] for _ in range(2))

    def _squared_gradients(self, a, views, out):
        """``a``'s face arrays of gradients, in the levels of the
        :class:`~chemoctrl.grid.FaceViews` ``views``, one per axis, and
        their compact squares, in ``out``."""
        grads = [face_gradient(self.grid, a, k, f) for k, f in enumerate(views)]
        return grads, [np.square(compact_faces(g, self.grid.dims, k, o), out=o)
                       for k, (g, o) in enumerate(zip(grads, out))]

    def __call__(self, u, v, t):
        """``(energy, entropy, cross, hessian, quartic, control forcing)``
        of the level ``(u, v)`` at time ``t``."""
        grid, s, ws = self.grid, self.params.s, self.ws
        vol = grid.cell_volume
        cells = ws.cells
        # first, while cells[4] and cells[5] are free for the slice
        forcing = 0.0 if self.control is None else \
            np.square(self.control.slice_at(t, ws), out=cells[5]).sum() * vol
        z = np.add(v, self.params.alpha**2, out=self.z)
        np.sqrt(z, out=z)
        gz, gz_sq = self._squared_gradients(z, self.gz, self.gz_sq)
        # g_energy refuses a negative u before any power of it is taken
        energy = s / 4.0 * integrate(grid, g_energy(u, s, cells[0], cells[1])) \
            + 0.5 * h1_seminorm(grid, z, gz_sq) ** 2
        root = np.add(u, 1.0, out=cells[0])
        root **= s / 2.0
        _, root_sq = self._squared_gradients(
            root, [views[1 + k] for k, views in enumerate(ws.faces)], self.faces)
        entropy = h1_seminorm(grid, root, root_sq) ** 2
        density_pow = u  # u**1 is a copy of u
        if s != 1:
            density_pow = cells[0]
            density_pow[...] = u
            density_pow **= s  # numpy's shortcuts for s = 2 included, as u**s
        cross = _face_weighted_cross(grid, density_pow, gz_sq, self.faces, ws)
        hessian = hessian_frobenius_sq(grid, z, gz, ws).sum() * vol
        quartic = cell_gradient_sq(grid, gz, ws)
        np.square(quartic, out=quartic)
        quartic /= np.square(z, out=cells[2])
        return energy, entropy, cross, hessian, quartic.sum() * vol, forcing


def _level_quantities(traj, params):
    """Instantaneous energy and dissipation densities at every saved level;
    the energy is ``s/4 * integral g(u) + 1/2 * integral |grad z|^2``.

    One :class:`_LevelWorkspace` serves every level; it holds ``z``, the
    face arrays of ``z``'s gradients and their compact squares, one scratch
    array per face shape and a :class:`Workspace` for the control slice and
    the level-sized products.  Each quantity is the same bit for bit as its
    expression evaluated with fresh temporaries:

    - ``np.sqrt(v + alpha**2)``, ``g(u)``, ``(u + 1) ** (s/2)``, ``u**s``,
      ``cell_gradient_sq(z) ** 2 / z**2`` and ``f**2`` are the same
      operations in the same order written into reused arrays; ``a **= p``
      dispatches as ``a ** p`` does, and ``u**1`` is ``u`` itself.
    - ``z``'s gradients are computed once: their face arrays feed the
      Hessian's diagonal and ``cell_gradient_sq``, their compact squares
      ``h1_seminorm`` and the cross term, whose ``mean * gz**2`` and
      ``0.5 * (lo + hi)`` are commutative.
    - Every sum reduces a C-contiguous compact face array or level, the
      layout it reduced before, in the same pairwise order.
    """
    # rows: energy, entropy, cross, hessian, quartic, control forcing
    out = np.zeros((6, traj.n_levels))
    level = _LevelWorkspace(traj.grid, params, traj.control)
    for i in range(traj.n_levels):
        out[:, i] = level(traj.u[i], traj.v[i], float(traj.times[i]))
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


def energy_inequality_audit(traj, params, beta, K):
    """Worst signed residual of the energy inequality over all saved pairs.

    For every pair of saved levels ``t1 < t2`` the residual is

        E(t2) + beta*(entropy + hessian + quartic) + cross/4 - E(t1) - K,

    with the dissipation integrals taken over ``(t1, t2)``.  A positive
    return value means the inequality fails at this ``(beta, K)``.
    """
    return build_energy_report(traj, params).worst_pair(beta, K)[2]


def audit_pairs(traj, params, beta, K):
    """Rows ``(t1, t2, residual)`` over every pair of saved levels, ``t1``
    ascending, then ``t2``.  No program path calls it; the benchmark's tracer
    still wraps it (ROADMAP item 1 deletes both)."""
    report = build_energy_report(traj, params)
    A, t = report._accumulator(beta), report.times
    i, j = np.triu_indices(t.size, 1)
    return list(zip(t[i].tolist(), t[j].tolist(), (A[j] - A[i] - K).tolist()))


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
        return np.array([max(0.0, r.worst_pair(beta, 0.0)[2]) for r in reports])

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
