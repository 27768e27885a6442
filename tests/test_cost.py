import dataclasses
import re

import numpy as np
import pytest

from chemoctrl import (
    Control,
    CostParams,
    DesiredState,
    Field,
    Grid,
    ModelParams,
    check_admissible,
    control_preset,
    desired_preset,
    evaluate_J,
    field_preset,
    project_ball,
    simulate,
    spacetime_lp_norm,
)
from chemoctrl import cost as cost_module, presets
from chemoctrl.cost import evaluate_J_gradient, project_ball_transpose


@pytest.fixture(scope="module")
def grid():
    return Grid.unit_box((16,))


def cost_params(grid, M=2.0, q=3.0, **kw):
    return CostParams(
        gamma_u=kw.get("gamma_u", 1.0), gamma_v=kw.get("gamma_v", 1.0),
        gamma_f=kw.get("gamma_f", 1.0), q=q,
        u_d=kw.get("u_d", DesiredState.constant(0.0)),
        v_d=kw.get("v_d", DesiredState.constant(0.0)), M=M)


class TestCostParams:
    @pytest.mark.parametrize("kw", [
        dict(gamma_u=0.0), dict(q=2.0), dict(M=0.0),
    ])
    def test_validation(self, grid, kw):
        with pytest.raises(ValueError):
            cost_params(grid, **{**dict(M=1.0, q=3.0), **kw})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["gamma_u", "gamma_v", "gamma_f", "q", "M"])
    def test_non_finite_refused(self, grid, key, value):
        # each weight is checked on its own: min(1.0, nan, 1.0) is 1.0
        with pytest.raises(ValueError, match=f"{key} must be"):
            cost_params(grid, **{key: value})


class TestSpacetimeNorm:
    def test_zero_series(self, grid):
        times = np.linspace(0, 1, 5)
        series = np.zeros((5,) + grid.dims)
        assert spacetime_lp_norm(times, series, grid, 3.0) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.7])
    def test_constant_on_unit_cylinder(self, grid, p):
        times = np.linspace(0, 1, 9)
        series = np.full((9,) + grid.dims, -2.5)
        assert spacetime_lp_norm(times, series, grid, p) == pytest.approx(2.5,
                                                                          rel=1e-12)

    def test_two_level_hand_trapezoid(self, grid):
        # levels 0 then c over one interval of length dt:
        # integral = dt/2 * (0 + |c|^p * |domain|)
        c, p, dt = 3.0, 2.0, 0.4
        times = np.array([0.0, dt])
        series = np.stack([np.zeros(grid.dims), np.full(grid.dims, c)])
        brute = (dt / 2.0 * c**p * 1.0) ** (1.0 / p)
        assert spacetime_lp_norm(times, series, grid, p) == pytest.approx(
            brute, rel=1e-14)

    def test_inf_norm(self, grid):
        times = np.array([0.0, 1.0])
        series = np.stack([np.zeros(grid.dims), np.full(grid.dims, -7.0)])
        assert spacetime_lp_norm(times, series, grid, np.inf) == 7.0

    def test_rejects_small_p(self, grid):
        with pytest.raises(ValueError):
            spacetime_lp_norm(np.array([0.0, 1.0]), np.zeros((2,) + grid.dims),
                              grid, 0.9)


class TestEvaluateJ:
    def test_perfect_tracking_zero_cost(self, grid):
        p = ModelParams(s=1.0, t_final=0.2)
        traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), None, p, 0.02)
        cp = cost_params(grid, u_d=DesiredState.constant(0.0),
                         v_d=DesiredState.constant(1.0))
        bd = evaluate_J(traj, traj.control, cp, p.s)
        assert bd.total == pytest.approx(0.0, abs=1e-13)

    def test_pure_control_term(self, grid):
        # states match their targets; only (gamma_f / q) * lam^q remains
        lam, q = 1.3, 3.0
        p = ModelParams(s=1.0, t_final=1.0, q=q)
        ctrl = Control.constant(grid, lam, 1.0)
        traj = simulate(Field.zeros(grid), Field.zeros(grid), ctrl, p, 0.05)
        cp = cost_params(grid, q=q, u_d=DesiredState.constant(0.0),
                         v_d=DesiredState.constant(0.0))
        bd = evaluate_J(traj, ctrl, cp, p.s)
        assert bd.state_u == pytest.approx(0.0, abs=1e-14)
        assert bd.state_v == pytest.approx(0.0, abs=1e-14)
        assert bd.control == pytest.approx(lam**q / q, rel=1e-12)

    def test_s3_prefactor_against_brute_force(self, grid):
        # s = 3: state exponent 5 and prefactor gamma_u / 5
        s = 3.0
        p = ModelParams(s=s, t_final=0.1)
        u0 = field_preset(grid, "gaussian", amplitude=1.0, base=0.2, width=0.2)
        v0 = Field.full(grid, 1.0)
        traj = simulate(u0, v0, None, p, 0.01)
        gamma_u = 2.0
        cp = cost_params(grid, gamma_u=gamma_u)
        bd = evaluate_J(traj, traj.control, cp, s)

        # independent direct summation of the iterated integral
        pu = 5.0 * s / 3.0
        assert pu == 5.0
        levels = (np.abs(traj.u) ** pu).reshape(traj.n_levels, -1).sum(axis=1) \
            * grid.cell_volume
        dt = np.diff(traj.times)
        brute = (dt * 0.5 * (levels[:-1] + levels[1:])).sum()
        expected = 3.0 * gamma_u / (5.0 * s) * brute
        assert 3.0 * gamma_u / (5.0 * s) == pytest.approx(gamma_u / 5.0)
        assert bd.state_u == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_weights(self, grid):
        p = ModelParams(s=2.0, t_final=0.1)
        ctrl = Control.constant(grid, 0.5, p.t_final)
        u0 = field_preset(grid, "gaussian", amplitude=1.0, base=0.1, width=0.2)
        traj = simulate(u0, Field.full(grid, 1.0), ctrl, p, 0.01)
        base = evaluate_J(traj, ctrl, cost_params(grid), p.s).total
        for bigger in (dict(gamma_u=2.0), dict(gamma_v=2.0), dict(gamma_f=2.0)):
            up = evaluate_J(traj, ctrl, cost_params(grid, **bigger), p.s).total
            assert up > base

    def test_nonnegative_and_zero_iff_terms_zero(self, grid):
        p = ModelParams(s=1.0, t_final=0.1)
        traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), None, p, 0.01)
        cp = cost_params(grid, v_d=DesiredState.constant(1.0))
        bd = evaluate_J(traj, traj.control, cp, p.s)
        assert bd.total >= 0.0
        assert (abs(bd.total) <= 1e-14) == all(
            abs(t) <= 1e-14 for t in (bd.state_u, bd.state_v, bd.control))


class TestProjectBall:
    def test_interior_unchanged(self, grid):
        ctrl = Control.constant(grid, 0.5, 1.0)
        out = project_ball(ctrl, M=1.0, q=3.0)
        assert out is ctrl

    def test_radial_scaling(self, grid):
        ctrl = Control.constant(grid, 2.0, 1.0)  # norm 2 in every L^q
        out = project_ball(ctrl, M=1.0, q=3.0)
        assert out.lq_norm(3.0) == pytest.approx(1.0, rel=1e-12)
        assert out.values.max() == pytest.approx(1.0, rel=1e-12)

    def test_idempotent(self, grid):
        rng = np.random.default_rng(9)
        ctrl = Control(grid, np.linspace(0, 1, 4),
                       rng.uniform(-3, 3, (4,) + grid.dims))
        once = project_ball(ctrl, M=0.7, q=3.0)
        twice = project_ball(once, M=0.7, q=3.0)
        assert np.abs(twice.values - once.values).max() <= 1e-12
        assert once.lq_norm(3.0) <= 0.7 + 1e-12

    def test_nonexpansive_for_q2(self, grid):
        rng = np.random.default_rng(10)
        times = np.linspace(0, 1, 3)
        for _ in range(10):
            a = Control(grid, times, rng.uniform(-2, 2, (3,) + grid.dims))
            b = Control(grid, times, rng.uniform(-2, 2, (3,) + grid.dims))
            pa, pb = project_ball(a, 0.5, 2.0), project_ball(b, 0.5, 2.0)
            before = Control(grid, times, a.values - b.values).lq_norm(2.0)
            after = Control(grid, times, pa.values - pb.values).lq_norm(2.0)
            assert after <= before + 1e-12


class TestGradients:
    def test_evaluate_J_gradient_directional(self, grid):
        # central differences of J along random directions of u, v and f;
        # J is smooth in each (5s/3 > 1 and q > 1), so they agree closely
        p = ModelParams(s=1.5, t_final=0.2)
        rng = np.random.default_rng(12)
        u0 = Field(grid, rng.uniform(0.2, 1.0, grid.dims))
        v0 = Field(grid, rng.uniform(0.5, 1.5, grid.dims))
        ctrl = Control(grid, np.linspace(0, 0.2, 4),
                       rng.uniform(-1, 1, (4,) + grid.dims))
        traj = simulate(u0, v0, ctrl, p, dt_max=0.05)
        cp = cost_params(grid, gamma_u=0.7, gamma_v=1.3, gamma_f=0.4,
                         u_d=DesiredState.constant(0.5),
                         v_d=DesiredState.constant(1.0))
        u_bar, v_bar, f_bar = evaluate_J_gradient(traj, ctrl, cp, p.s)
        eps = 1e-6
        for name, bar in (("u", u_bar), ("v", v_bar), ("f", f_bar)):
            base = ctrl.values if name == "f" else getattr(traj, name)
            d = rng.normal(size=base.shape)

            def J_at(x):
                if name == "f":
                    return evaluate_J(traj, Control(grid, ctrl.times, x), cp, p.s).total
                return evaluate_J(dataclasses.replace(traj, **{name: x}), ctrl, cp,
                                  p.s).total
            fd = (J_at(base + eps * d) - J_at(base - eps * d)) / (2 * eps)
            assert float((bar * d).sum()) == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("M", [0.5, 50.0])
    def test_project_ball_transpose(self, grid, M):
        rng = np.random.default_rng(13)
        times = np.linspace(0, 1, 5)
        g = rng.uniform(-2, 2, (5,) + grid.dims)
        ctrl = Control(grid, times, g)
        assert (ctrl.lq_norm(3.0) > M) == (M == 0.5)
        bar = rng.normal(size=g.shape)
        got = project_ball_transpose(ctrl, M, 3.0, bar)
        d = rng.normal(size=g.shape)
        eps = 1e-6

        def F(x):
            return project_ball(Control(grid, times, x), M, 3.0).values
        fd = (F(g + eps * d) - F(g - eps * d)) / (2 * eps)
        assert float((got * d).sum()) == pytest.approx(float((bar * fd).sum()),
                                                       rel=1e-7)


class TestCheckAdmissible:
    def test_equilibrium_passes(self, grid):
        p = ModelParams(s=1.0, t_final=0.2)
        traj = simulate(Field.zeros(grid), Field.full(grid, 2.0), None, p, 0.02)
        report = check_admissible(traj, traj.control, cost_params(grid), p, beta=1e-3, K=0.0)
        assert report.passed
        assert report.in_ball and report.weak_pass and report.energy_pass

    def test_oversized_control_fails_ball(self, grid):
        p = ModelParams(s=1.0, t_final=0.2)
        ctrl = Control.constant(grid, 4.0, p.t_final)  # norm 4 > M = 2
        traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), ctrl, p, 0.002)
        report = check_admissible(traj, ctrl, cost_params(grid, M=2.0), p,
                                  beta=1e-3, K=10.0)
        assert not report.in_ball
        assert not report.passed

    def test_validated_run_weak_residual_passes(self, grid):
        p = ModelParams(s=2.0, t_final=0.2)
        u0 = field_preset(grid, "gaussian", amplitude=1.0, base=0.2, width=0.15)
        v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.3)
        traj = simulate(u0, v0, None, p, 0.005)
        report = check_admissible(traj, traj.control, cost_params(grid), p, beta=1e-3, K=0.0)
        assert report.weak_pass
        assert report.weak_res <= report.weak_tol

    def test_report_json(self, grid, tmp_path):
        p = ModelParams(s=1.0, t_final=0.1)
        traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), None, p, 0.02)
        report = check_admissible(traj, traj.control, cost_params(grid), p, beta=1e-3, K=0.0)
        path = tmp_path / "adm.json"
        report.to_json(path)
        import json
        with open(path) as fh:
            assert json.load(fh)["passed"] is True


class TestPresetParameters:
    """The preset builders refuse what the config loader refuses, with the
    message it prefixes with the config section."""

    @pytest.mark.parametrize("build, message", [
        (lambda g: field_preset(g, "gaussian", center=[0.5]),
         "center needs one entry per axis (2), got [0.5]"),
        (lambda g: field_preset(g, "gaussian", width=0.0), "width must be positive"),
        (lambda g: field_preset(g, "gaussian", width="0.1"), "width must be a number"),
        (lambda g: field_preset(g, "random", seed=1.5), "seed must be an integer"),
        (lambda g: field_preset(g, "random", seed=-1), "seed must be at least 0"),
        (lambda g: field_preset(g, "random", high=True), "high must be a number"),
        (lambda g: field_preset(g, "cosine", modes=[1, np.nan]), "modes must be finite"),
        (lambda g: field_preset(g, "gauss"), "preset must be one of"),
        (lambda g: field_preset(g, "zero", value=1.0),
         "value is not a parameter of the 'zero' preset"),
        (lambda g: control_preset(g, "random", 1.0, times=2.5), "times must be an integer"),
        (lambda g: control_preset(g, "random", 1.0, times=1), "times must be at least 2"),
        (lambda g: control_preset(g, "constant", 1.0, amplitude=np.inf),
         "amplitude must be finite"),
        (lambda g: desired_preset("gaussian_bump", width=0.0), "width must be positive"),
        (lambda g: desired_preset("gaussian_bump", center=0.5),
         "center needs one entry per axis"),
        (lambda g: desired_preset("time_decaying", rate=-1.0), "rate must be at least 0"),
        # a target has no grid until it is evaluated, which checks its center;
        # a field's profile checks its modes as well
        (lambda g: desired_preset("gaussian_bump", center=[0.25]).at(0.0, g),
         "center needs one entry per axis (2), got [0.25]"),
        (lambda g: desired_preset("time_decaying", center=[0.5, 0.5, 0.9]).at(0.0, g),
         "center needs one entry per axis (2), got [0.5, 0.5, 0.9]"),
        (lambda g: presets._cosine_values(g, 1.0, 0.5, [1, 1, 1]),
         "modes needs one entry per axis (2), got [1, 1, 1]"),
    ])
    def test_refused_as_the_config_loader_refuses(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(Grid.unit_box((8, 6)))

    def test_checked_values_build_as_given(self):
        g = Grid.unit_box((8, 6))
        got = field_preset(g, "random", seed=3.0, low=0, high=2)
        want = field_preset(g, "random", seed=3, low=0.0, high=2.0)
        assert got.values.tobytes() == want.values.tobytes()


class TestDesiredPresets:
    def test_constant(self, grid):
        d = desired_preset("constant", value=2.0)
        assert d.at(0.3, grid) == pytest.approx(2.0)

    def test_gaussian_bump_static(self, grid):
        d = desired_preset("gaussian_bump", amplitude=1.0, width=0.2)
        assert np.array_equal(d.at(0.0, grid), d.at(5.0, grid))
        assert d.at(0.0, grid).max() <= 1.0 + 1e-12

    def test_time_decaying(self, grid):
        d = desired_preset("time_decaying", amplitude=1.0, rate=2.0, base=0.1)
        early = d.at(0.0, grid) - 0.1
        late = d.at(1.0, grid) - 0.1
        assert late.max() == pytest.approx(np.exp(-2.0) * early.max(), rel=1e-12)

    def test_from_field(self, grid):
        f = field_preset(grid, "random", seed=1)
        d = DesiredState.from_field(f)
        assert np.array_equal(d.at(9.9, grid), f.values)

    def test_steady_targets(self, grid):
        # the constructors say which targets do not depend on time
        field = field_preset(grid, "random", seed=1)
        assert DesiredState.constant(1.0).steady
        assert DesiredState.from_field(field).steady
        assert desired_preset("gaussian_bump").steady
        assert not desired_preset("time_decaying").steady
        assert not DesiredState(lambda t, g: np.zeros(g.dims)).steady

    @pytest.mark.parametrize("make", [
        lambda t, g: np.full(g.dims, np.nan),
        lambda t, g: np.where(np.arange(g.n_cells) == 3, np.inf, 0.0).reshape(g.dims),
        # a zero-width bump centered on cell 8 (0/0 there), which the presets
        # refuse, so its values are given here
        lambda t, g: np.exp(-0.5 * ((g.axis_centers(0) - 0.53125) / 0.0) ** 2),
    ])
    def test_non_finite_value_is_refused(self, grid, make):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError, match=r"desired state at t=0\.25 is not finite at cell"):
            DesiredState(make).at(0.25, grid)

    @pytest.mark.parametrize("value", [2.0, [1.0, 2.0, 3.0], "flat"])
    def test_value_of_another_shape_is_refused(self, value):
        # a scalar, a row or the flat cells: none is broadcast to the grid
        grid = Grid.unit_box((4, 3))
        flat = np.ones(grid.n_cells)
        d = DesiredState(lambda t, g: flat if value == "flat" else value)
        shape = flat.shape if value == "flat" else np.shape(value)
        with pytest.raises(ValueError) as err:
            d.at(0.1, grid)
        assert str(shape) in str(err.value) and str(grid.dims) in str(err.value)


def misfits_oracle(traj, cost_params):
    """``cost._misfits`` as it was before a steady target was evaluated once:
    each target evaluated at every saved level, and the differences
    stacked."""
    grid = traj.grid
    u_diff = np.stack([traj.u[i] - cost_params.u_d.at(float(t), grid)
                       for i, t in enumerate(traj.times)])
    v_diff = np.stack([traj.v[i] - cost_params.v_d.at(float(t), grid)
                       for i, t in enumerate(traj.times)])
    return u_diff, v_diff


class TestMisfitsMatchPerLevelForm:
    @pytest.mark.parametrize("target", [
        lambda g: DesiredState.constant(0.7),
        lambda g: DesiredState.from_field(field_preset(g, "random", seed=4)),
        lambda g: desired_preset("gaussian_bump", amplitude=0.5, base=1.2),
        lambda g: desired_preset("time_decaying", rate=3.0, amplitude=0.8, base=0.1),
    ], ids=["constant", "from_field", "gaussian_bump", "time_decaying"])
    @pytest.mark.parametrize("dims", [(16,), (6, 5), (4, 3, 3)])
    def test_cost_and_gradient_bits(self, monkeypatch, target, dims):
        g = Grid.unit_box(dims)
        rng = np.random.default_rng(len(dims))
        p = ModelParams(s=2.0, t_final=0.2)
        ctrl = Control(g, np.linspace(0, 0.2, 3), rng.uniform(-1, 1, (3,) + dims))
        traj = simulate(Field(g, rng.uniform(0.2, 1.0, dims)),
                        Field(g, rng.uniform(0.5, 1.5, dims)), ctrl, p, dt_max=0.05)
        cp = cost_params(g, u_d=target(g), v_d=target(g))

        def bits():
            bd = evaluate_J(traj, ctrl, cp, p.s)
            terms = np.array([bd.state_u, bd.state_v, bd.control])
            return [terms.tobytes()] + [a.tobytes() for a in
                                        evaluate_J_gradient(traj, ctrl, cp, p.s)]
        got = bits()
        monkeypatch.setattr(cost_module, "_misfits", misfits_oracle)
        assert got == bits()
