import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from chemoctrl import (
    AuditInfeasibleError,
    Control,
    Field,
    Grid,
    ModelParams,
    build_energy_report,
    control_preset,
    energy_inequality_audit,
    field_preset,
    fit_constants,
    simulate,
)
from chemoctrl import energy
from chemoctrl.energy import EnergyReport, audit_pairs
from chemoctrl.sim import Trajectory
from conftest import level_quantities_oracle


@pytest.fixture(scope="module")
def grid():
    return Grid.unit_box((32,))


def params(s=1.0, t_final=0.25, **kw):
    return ModelParams(s=s, t_final=t_final, **kw)


@pytest.fixture(scope="module")
def decay_run(grid):
    # pure heat relaxation of the concentration: u = 0, no control
    p = params(s=1.0, t_final=0.2)
    v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.8)
    return p, simulate(Field.zeros(grid), v0, None, p, 2e-3)


def energy_value(u, v, s=1.0):
    """Energy of one state, the only level of a zero-horizon run."""
    p = params(s=s, t_final=0.0)
    traj = simulate(u, v, None, p, 1.0)
    assert traj.n_levels == 1
    return float(build_energy_report(traj, p).energy[0])


class TestEnergyValue:
    def test_equilibrium_energy_is_zero(self, grid):
        assert energy_value(Field.zeros(grid), Field.full(grid, 4.0)) == 0.0

    def test_constant_density_quadratic_branch(self, grid):
        # s/4 * g(2) * |domain| = (2/4) * 2 * 1 on the unit box
        assert energy_value(Field.full(grid, 2.0), Field.full(grid, 1.0), s=2.0) \
            == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    def test_nonnegative(self, grid, s):
        rng = np.random.default_rng(int(10 * s))
        for _ in range(5):
            u = Field(grid, rng.uniform(0.0, 5.0, grid.dims))
            v = Field(grid, rng.uniform(0.0, 3.0, grid.dims))
            assert energy_value(u, v, s=s) >= 0.0


class TestDissipationTerms:
    def test_equilibrium_all_zero(self, grid):
        p = params(t_final=0.1)
        traj = simulate(Field.zeros(grid), Field.full(grid, 2.0), None, p, 0.02)
        r = build_energy_report(traj, p)
        for term in (r.dissipation_entropy, r.dissipation_cross, r.dissipation_hessian,
                     r.dissipation_quartic, r.control_forcing):
            assert abs(term.sum()) <= 1e-20  # round-off of the implicit solves

    def test_constant_control_forcing(self, grid):
        # f = lam on the whole unit cylinder: integral of |f|_L2^2 dt = lam^2
        lam = 1.7
        p = params(t_final=1.0)
        ctrl = Control.constant(grid, lam, 1.0)
        traj = simulate(Field.zeros(grid), Field.full(grid, 1e-9), ctrl, p, 0.05)
        forcing = build_energy_report(traj, p).control_forcing.sum()
        assert forcing == pytest.approx(lam**2, rel=1e-12)

    def test_heat_decay_dissipates(self, grid, decay_run):
        p, traj = decay_run
        report = build_energy_report(traj, p)
        assert report.dissipation_quartic.sum() > 0.0
        assert report.dissipation_hessian.sum() > 0.0
        assert np.all(np.diff(report.energy) < 0.0)
        # a finer-dt reference shows the same strict decay
        ref = simulate(Field(grid, traj.u[0]), Field(grid, traj.v[0]), None, p, 5e-4)
        ref_report = build_energy_report(ref, p)
        assert np.all(np.diff(ref_report.energy) < 0.0)


class TestEnergyAudit:
    def test_equilibrium_residual_zero(self, grid):
        p = params(t_final=0.1)
        traj = simulate(Field.zeros(grid), Field.full(grid, 2.0), None, p, 0.02)
        for beta in (1e-3, 0.1, 1.0):
            assert energy_inequality_audit(traj, p, beta, 0.0) == pytest.approx(
                0.0, abs=1e-13)

    def test_affine_in_K_with_slope_minus_one(self, grid, decay_run):
        p, traj = decay_run
        base = energy_inequality_audit(traj, p, 1e-3, 0.0)
        rng = np.random.default_rng(1)
        for K in rng.uniform(0.0, 5.0, size=5):
            res = energy_inequality_audit(traj, p, 1e-3, K)
            assert res == pytest.approx(base - K, rel=1e-12, abs=1e-12)

    def test_monotone_in_beta(self, grid, decay_run):
        p, traj = decay_run
        res = [energy_inequality_audit(traj, p, b, 0.0)
               for b in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert np.all(np.diff(res) >= -1e-15)

    def test_uncontrolled_dissipation_passes(self, grid):
        # the inequality with K = 0 and small beta holds for pure decay runs
        for s in (1.0, 2.0):
            p = params(s=s, t_final=0.2)
            rng = np.random.default_rng(int(s))
            u0 = Field(grid, rng.uniform(0.0, 0.5, grid.dims))
            v0 = Field(grid, rng.uniform(0.5, 1.5, grid.dims))
            traj = simulate(u0, v0, None, p, 2e-3)
            assert energy_inequality_audit(traj, p, 1e-3, 0.0) <= 0.0

    def test_audit_pairs_match_worst(self, grid, decay_run):
        p, traj = decay_run
        rows = audit_pairs(traj, p, 1e-3, 0.0)
        worst = energy_inequality_audit(traj, p, 1e-3, 0.0)
        assert max(r[2] for r in rows) <= worst + 1e-15

    @pytest.mark.parametrize("K", [0.0, -2.5, 1e-4])
    def test_residual_pairs_are_the_pairwise_rises(self, grid, decay_run, K):
        # audit_pairs gives every pair i < j in loop order, each residual
        # A[j] - A[i] - K
        p, traj = decay_run
        report = build_energy_report(traj, p)
        A, t = report._accumulator(0.3), report.times
        want = [(float(t[i]), float(t[j]), float(A[j] - A[i] - K))
                for i in range(t.size) for j in range(i + 1, t.size)]
        got = audit_pairs(traj, p, 0.3, K)
        assert [tuple(map(type, row)) for row in got] == [(float,) * 3] * len(want)
        assert [tuple(map(float.hex, row)) for row in got] \
            == [tuple(map(float.hex, row)) for row in want]
        p0 = params(t_final=0.0)  # one saved level, no pair
        one = simulate(Field.zeros(grid), Field.full(grid, 1.0), None, p0, 1.0)
        assert audit_pairs(one, p0, 0.3, K) == []

    @pytest.mark.parametrize("K", [0.0, -2.5, 1e-4])
    @pytest.mark.parametrize("run", ["decay", "controlled", "one level", "ties"])
    def test_worst_pair_is_the_first_largest_rise(self, grid, decay_run, sweep, run, K):
        # against a loop over every pair, t2 ascending, then t1: the first
        # strictly largest rise has the earliest t2, then the earliest t1
        if run == "ties":
            # rises of 1 end at t2 = 3 from t1 = 1 and 2, and at t2 = 5 from
            # t1 = 1, 2 and 4
            zero = np.zeros(5)
            report = EnergyReport(np.arange(6.0), np.array([1.0, 0, 0, 1, 0, 1]),
                                  zero, zero, zero, zero, zero)
        else:
            if run == "one level":
                p = params(t_final=0.0)
                traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), None, p, 1.0)
            else:
                p, traj = decay_run if run == "decay" else (sweep[0], sweep[1][-1])
            report = build_energy_report(traj, p)
            # the audit's verdict is the pair's residual
            assert energy_inequality_audit(traj, p, 0.3, K) \
                == report.worst_pair(0.3, K)[2]
        A, t = report._accumulator(0.3), report.times
        want = (None, None, 0.0)
        for j in range(1, t.size):
            for i in range(j):
                if want[0] is None or A[j] - A[i] > want[2]:
                    want = (float(t[i]), float(t[j]), float(A[j] - A[i]))
        want = (*want[:2], want[2] - K)
        got = report.worst_pair(0.3, K)
        if run == "one level":
            assert got[:2] == (None, None)
        else:
            assert got[0] < got[1]
            assert tuple(map(float.hex, got[:2])) == tuple(map(float.hex, want[:2]))
        if run == "ties":
            assert got[:2] == (1.0, 3.0)
        assert float.hex(got[2]) == float.hex(want[2])


class TestEnergyReport:
    def test_report_arrays_consistent(self, grid, decay_run):
        p, traj = decay_run
        report = build_energy_report(traj, p)
        assert report.times.size == traj.n_levels
        assert report.dissipation_quartic.size == traj.n_levels - 1
        assert np.all(report.dissipation_entropy >= 0.0)

    def test_report_json(self, grid, decay_run, tmp_path):
        p, traj = decay_run
        report = build_energy_report(traj, p)
        path = tmp_path / "report.json"
        report.to_json(path)
        with open(path) as fh:
            data = json.load(fh)
        # the audit constants belong to the verdict, not to the run's integrals
        assert "beta_used" not in data and "K_used" not in data
        assert len(data["energy"]) == traj.n_levels

    def test_report_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EnergyReport(times=np.array([0.0, 1.0]), energy=np.array([1.0, 1.0]),
                         dissipation_entropy=np.array([-1.0]),
                         dissipation_cross=np.array([0.0]),
                         dissipation_hessian=np.array([0.0]),
                         dissipation_quartic=np.array([0.0]),
                         control_forcing=np.array([0.0]))

    @pytest.mark.parametrize("beta", [0.0, -1e-3])
    def test_verdict_rejects_nonpositive_beta(self, grid, decay_run, beta):
        p, traj = decay_run
        report = build_energy_report(traj, p)
        with pytest.raises(ValueError, match="beta"):
            report.worst_pair(beta, 0.0)
        with pytest.raises(ValueError, match="beta"):
            audit_pairs(traj, p, beta, 0.0)


def random_levels(dims, s, controlled, seed=5):
    """A hand-built trajectory of four random levels on a grid of uneven
    spacing, off every symmetry.  ``u`` holds exact zeros of both signs in
    every level and ``v`` exact zeros; the control, the zero control unless
    ``controlled``, is sampled between the points of its own time lattice."""
    rng = np.random.default_rng(seed)
    g = Grid(dims, tuple(rng.uniform(0.05, 1.5, len(dims))))
    g = g.with_mask(rng.uniform(size=dims) < 0.6)
    dt_history = [0.1, 0.15, 0.15]
    u = rng.uniform(0.0, 3.0, (len(dt_history) + 1,) + dims)
    u[rng.uniform(size=u.shape) < 0.2] = 0.0
    u[rng.uniform(size=u.shape) < 0.1] = -0.0
    v = rng.uniform(0.0, 2.0, u.shape)
    v[rng.uniform(size=v.shape) < 0.1] = 0.0
    ctrl = Control(g, [0.0, 0.15, 0.5], rng.uniform(-2.0, 2.0, (3,) + dims)) \
        if controlled else Control.zero(g, 0.4)
    p = params(s=s, t_final=0.4)
    return p, Trajectory(grid=g, params=p, u=u, v=v, dt_history=dt_history, control=ctrl)


class TestLevelQuantities:
    @pytest.mark.parametrize("controlled", [False, True])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("dims", [(17,), (9, 6), (5, 4, 3), (96, 96), (24, 24, 24)])
    def test_match_oracle_bit_for_bit(self, dims, s, controlled):
        # the one-workspace pass against fresh temporaries for every product
        p, traj = random_levels(dims, s, controlled)
        got, want = energy._level_quantities(traj, p), level_quantities_oracle(traj, p)
        assert len(got) == len(want) == 6
        for x, y in zip(got, want):
            assert x.shape == y.shape == (traj.n_levels,)
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("s", [1.0, 1.5])
    def test_negative_density_is_refused(self, s):
        p, traj = random_levels((9, 6), s, True)
        # a trajectory's levels are read-only: the negative cell goes into a
        # copy, from which a new trajectory is built
        u = traj.u.copy()
        u[2, 3, 1] = -5e-324
        traj = dataclasses.replace(traj, u=u)
        with pytest.raises(ValueError) as want:
            level_quantities_oracle(traj, p)
        with pytest.raises(ValueError, match="entropy argument must be nonnegative") as got:
            build_energy_report(traj, p)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("s", [1.0, 1.5])
    @pytest.mark.parametrize("dims", [(96, 96), (24, 24, 24)])
    def test_level_allocates_no_level_sized_array(self, dims, s):
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.25, 0.75)] * len(dims)))
        rng = np.random.default_rng(3)
        u, v = rng.uniform(0.0, 2.0, dims), rng.uniform(0.9, 1.1, dims)
        ctrl = Control(g, [0.0, 1.0], rng.uniform(-1.0, 1.0, (2,) + dims))
        level = energy._LevelWorkspace(g, params(s=s), ctrl)
        level(u, v, 0.5)  # warm-up: the workspace's cached views
        # at numpy's own buffer size: no ufunc of the report has a strided
        # operand, so no iterator takes a scratch buffer
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            level(u, v, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < g.n_cells * 8


@pytest.fixture(scope="module")
def sweep(grid):
    # shared control shape scaled through a family of amplitudes
    p = params(s=2.0, t_final=0.2)
    u0 = field_preset(grid, "gaussian", amplitude=1.0, base=0.2, width=0.12)
    v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.4)
    base = control_preset(grid, "random", p.t_final, seed=12, amplitude=1.5,
                          times=5)
    trajs = []
    for lam in (0.0, 1.0, 2.0, 4.0):
        ctrl = base.scaled(lam) if lam > 0 else None
        trajs.append(simulate(u0, v0, ctrl, p, 2e-3))
    return p, trajs


class TestFitConstants:
    def test_zero_control_K_vanishes(self, grid, sweep):
        p, trajs = sweep
        fitted = fit_constants([trajs[0]], p)
        assert fitted.K_values[0] <= 1e-8
        assert fitted.control_norms[0] == 0.0

    def test_K_curve_nondecreasing(self, grid, sweep):
        p, trajs = sweep
        fitted = fit_constants(trajs, p)
        assert np.all(np.diff(fitted.K_values) >= -1e-8)
        assert np.all(np.diff(fitted.control_norms) > 0)

    def test_two_controls_ordered(self, grid, sweep):
        p, trajs = sweep
        fitted = fit_constants([trajs[1], trajs[3]], p)
        assert fitted.K_values[0] <= fitted.K_values[1] + 1e-8

    def test_infeasible_raises(self, grid, decay_run):
        p, traj = decay_run
        # an artificially inflated lower end of the beta range cannot pass:
        # demand dissipation with a huge weight on a run that has motion
        with pytest.raises(AuditInfeasibleError):
            fit_constants([traj], p, beta_range=(1e6, 1e7))
