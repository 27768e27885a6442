import json

import numpy as np
import pytest

from chemoctrl import (
    AuditInfeasibleError,
    Control,
    Field,
    Grid,
    ModelParams,
    State,
    build_energy_report,
    control_preset,
    dissipation_terms,
    energy_inequality_audit,
    energy_value,
    field_preset,
    fit_constants,
    simulate,
)
from chemoctrl.energy import EnergyReport, audit_pairs


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


class TestEnergyValue:
    def test_equilibrium_energy_is_zero(self, grid):
        st = State(Field.zeros(grid), Field.full(grid, 4.0), 0.0)
        assert energy_value(st, params()) == 0.0

    def test_constant_density_quadratic_branch(self, grid):
        # s/4 * g(2) * |domain| = (2/4) * 2 * 1 on the unit box
        st = State(Field.full(grid, 2.0), Field.full(grid, 1.0), 0.0)
        assert energy_value(st, params(s=2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_truncated_matches_when_inactive(self, grid):
        rng = np.random.default_rng(0)
        st = State(Field(grid, rng.uniform(0.0, 3.0, grid.dims)),
                   Field(grid, rng.uniform(0.0, 2.0, grid.dims)), 0.0)
        p = params(s=2.0, m=10.0)
        assert energy_value(st, p, truncated=True) == pytest.approx(
            energy_value(st, p, truncated=False), rel=1e-10)

    def test_truncated_never_exceeds_plain(self, grid):
        st = State(Field.full(grid, 12.0), Field.full(grid, 1.0), 0.0)
        p = params(s=2.0, m=4.0)
        assert energy_value(st, p, truncated=True) < energy_value(st, p)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    def test_nonnegative(self, grid, s):
        rng = np.random.default_rng(int(10 * s))
        for _ in range(5):
            st = State(Field(grid, rng.uniform(0.0, 5.0, grid.dims)),
                       Field(grid, rng.uniform(0.0, 3.0, grid.dims)), 0.0)
            assert energy_value(st, params(s=s)) >= 0.0


class TestDissipationTerms:
    def test_equilibrium_all_zero(self, grid):
        p = params(t_final=0.1)
        traj = simulate(Field.zeros(grid), Field.full(grid, 2.0), None, p, 0.02)
        d = dissipation_terms(traj, 0.0, float(traj.times[-1]), p)
        for term in (d.entropy, d.cross, d.hessian, d.quartic, d.control_forcing):
            assert abs(term) <= 1e-20  # round-off of the implicit solves

    def test_constant_control_forcing(self, grid):
        # f = lam on the whole unit cylinder: integral of |f|_L2^2 dt = lam^2
        lam = 1.7
        p = params(t_final=1.0)
        ctrl = Control.constant(grid, lam, 1.0)
        traj = simulate(Field.zeros(grid), Field.full(grid, 1e-9), ctrl, p, 0.05)
        d = dissipation_terms(traj, 0.0, float(traj.times[-1]), p)
        assert d.control_forcing == pytest.approx(lam**2, rel=1e-12)

    def test_heat_decay_dissipates(self, grid, decay_run):
        p, traj = decay_run
        d = dissipation_terms(traj, 0.0, float(traj.times[-1]), p)
        assert d.quartic > 0.0
        assert d.hessian > 0.0
        report = build_energy_report(traj, p)
        assert np.all(np.diff(report.energy) < 0.0)
        # a finer-dt reference shows the same strict decay
        ref = simulate(traj.state(0).u, traj.state(0).v, None, p, 5e-4)
        ref_report = build_energy_report(ref, p)
        assert np.all(np.diff(ref_report.energy) < 0.0)

    def test_off_grid_times_refused(self, grid, decay_run):
        p, traj = decay_run
        with pytest.raises(ValueError, match="not a saved time level"):
            dissipation_terms(traj, 0.0, 0.1234567, p)
        with pytest.raises(ValueError, match="precede"):
            dissipation_terms(traj, float(traj.times[-1]), 0.0, p)


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
        rows = audit_pairs(traj, p, 1e-3, 0.0, stride=5)
        worst = energy_inequality_audit(traj, p, 1e-3, 0.0)
        assert max(r[2] for r in rows) <= worst + 1e-15


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
            report.worst_residual(beta, 0.0)
        with pytest.raises(ValueError, match="beta"):
            report.residual_pairs(beta, 0.0)


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

    def test_K_of_interpolates(self, grid, sweep):
        p, trajs = sweep
        fitted = fit_constants(trajs, p)
        mid = 0.5 * (fitted.control_norms[1] + fitted.control_norms[2])
        val = fitted.K_of(mid)
        assert fitted.K_values[1] <= val + 1e-12
        assert val <= fitted.K_values[2] + 1e-12

    def test_infeasible_raises(self, grid, decay_run):
        p, traj = decay_run
        # an artificially inflated lower end of the beta range cannot pass:
        # demand dissipation with a huge weight on a run that has motion
        with pytest.raises(AuditInfeasibleError):
            fit_constants([traj], p, beta_range=(1e6, 1e7))
