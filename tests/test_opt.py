import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chemoctrl import (
    Control,
    CostParams,
    DesiredState,
    Field,
    Grid,
    ModelParams,
    OptimizerConfig,
    evaluate_J,
    finite_difference_gradient,
    optimize,
    ordering_experiment,
    project_ball,
    reduced_objective,
    simulate,
)
from chemoctrl import opt, sim
from chemoctrl.cli import load_config
from chemoctrl.opt import (
    _evaluate,
    _search_direction,
    _store_pair,
    adjoint_gradient,
    lbfgs_direction,
    make_context,
)
from conftest import prolong_oracle, prolong_transpose_oracle

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
BUNDLED = os.path.join(CONFIGS, "optimize_small.json")


@pytest.fixture(scope="module")
def grid():
    # control acts on the left half only
    g = Grid.unit_box((16,))
    return g.with_mask(g.box_mask([(0.0, 0.5)]))


@pytest.fixture(scope="module")
def model_params():
    return ModelParams(s=2.0, alpha=0.1, m=8.0, q=3.0, t_final=0.4)


def cost_params(M=3.0):
    return CostParams(gamma_u=1.0, gamma_v=1.0, gamma_f=0.1, q=3.0,
                      u_d=DesiredState.constant(0.0),
                      v_d=DesiredState.constant(1.5), M=M)


@pytest.fixture(scope="module")
def context(grid, model_params):
    cfg = OptimizerConfig(basis=(2, 2), control_times=9)
    u0 = Field.zeros(grid)
    v0 = Field.full(grid, 1.0)
    return make_context(cfg, cost_params(), model_params, u0, v0, dt_max=0.05)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        dict(max_iters=0), dict(basis=(2, 0)), dict(basis=()),
        dict(basis=(2,)), dict(control_times=1),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            OptimizerConfig(**kw)

    @pytest.mark.parametrize("key, value", [
        ("max_iters", float("nan")), ("max_iters", 3.0), ("max_iters", float("inf")),
        ("stop_tol", float("nan")), ("stop_tol", float("inf")),
        ("control_times", float("nan")), ("basis", (2, float("nan"))),
        ("basis", (2.0, 2)), ("control_times", 9.0), ("basis", (True, 2)),
        ("control_times", True), ("max_iters", True),
    ])
    def test_non_finite_or_fractional_refused(self, key, value):
        with pytest.raises(ValueError, match=f"{key} (must|needs)"):
            OptimizerConfig(**{key: value})

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == \
            ["max_iters", "basis", "stop_tol", "control_times"]

    def test_removed_keys_are_ignored(self, tmp_path):
        with open(BUNDLED) as fh:
            raw = json.load(fh)
        raw["optimizer"].update(fd_epsilon=1e-3, seed=7)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert load_config(str(path)).optimizer == load_config(BUNDLED).optimizer


def unmasked_context(model_params, basis, control_times):
    """A context on an unmasked grid, whose control is the prolongation."""
    g = Grid.unit_box((16,))
    cfg = OptimizerConfig(basis=basis, control_times=control_times)
    return make_context(cfg, cost_params(), model_params, Field.zeros(g),
                        Field.full(g, 1.0), dt_max=0.05)


class TestProlongation:
    def test_constant_coefficients(self, model_params):
        ctx = unmasked_context(model_params, (2, 2), 5)
        vals = ctx.control(np.full(4, 3.0)).values
        assert vals.shape == (5,) + ctx.grid.dims
        assert vals == pytest.approx(3.0)

    def test_linear_in_time(self, model_params):
        ctx = unmasked_context(model_params, (2, 2), 5)
        coeffs = np.stack([np.zeros(2), np.full(2, 4.0)])
        vals = ctx.control(coeffs.ravel()).values
        assert vals[0] == pytest.approx(0.0)
        assert vals[2] == pytest.approx(2.0)
        assert vals[-1] == pytest.approx(4.0)

    def test_linear_in_space(self, model_params):
        ctx = unmasked_context(model_params, (2, 2), 2)
        coeffs = np.array([[0.0, 8.0], [0.0, 8.0]])
        vals = ctx.control(coeffs.ravel()).values
        x = ctx.grid.axis_centers(0)
        assert vals[0] == pytest.approx(8.0 * x)

    def test_singleton_axis_broadcasts(self, model_params):
        ctx = unmasked_context(model_params, (1, 1), 3)
        vals = ctx.control(np.full(1, 2.0)).values
        assert vals == pytest.approx(2.0)


class TestReducedObjective:
    def test_zero_coefficients_match_uncontrolled_baseline(self, context):
        J = reduced_objective(np.zeros(4), context)
        traj = simulate(context.u0, context.v0, None, context.model_params,
                        context.dt_max)
        base = evaluate_J(traj, traj.control, context.cost_params,
                          context.model_params.s).total
        assert J == pytest.approx(base, rel=1e-12)

    def test_projection_precedes_simulation(self, context):
        # coefficients blowing past M evaluate exactly like their retraction
        big = np.full(4, 50.0)
        J_big = reduced_objective(big, context)
        ctrl = project_ball(context.control(big), context.cost_params.M,
                            context.cost_params.q)
        assert ctrl.lq_norm(context.cost_params.q) <= context.cost_params.M + 1e-12
        traj = simulate(context.u0, context.v0, ctrl, context.model_params,
                        context.dt_max)
        again = evaluate_J(traj, ctrl, context.cost_params,
                           context.model_params.s).total
        assert J_big == pytest.approx(again, rel=1e-14)

    def test_deterministic(self, context):
        coeffs = np.array([0.3, -0.2, 0.7, 0.1])
        assert reduced_objective(coeffs, context) == reduced_objective(coeffs,
                                                                       context)

    def test_masked_coordinates_have_zero_gradient(self, grid, model_params):
        def context(basis):
            cfg = OptimizerConfig(basis=basis, control_times=5)
            return make_context(cfg, cost_params(), model_params, Field.zeros(grid),
                                Field.full(grid, 1.0), dt_max=0.05)
        # with 2 space nodes, node 1's hat peaks at x = 1 but reaches into the
        # mask (x <= 0.5), so it only weighs less than node 0
        ctx = context((1, 2))
        fun = lambda c: reduced_objective(c, ctx)
        grad, _ = finite_difference_gradient(fun, np.zeros(2), 1e-2)
        assert abs(grad[1]) < abs(grad[0])
        # with 3 space nodes, node 2's hat lies in x > 0.5, outside the mask:
        # its coordinates have exactly zero gradient
        ctx = context((2, 3))
        x = np.random.default_rng(8).normal(size=6)
        grad = adjoint_gradient(x, _evaluate(x, ctx).traj, ctx).reshape(ctx.basis)
        assert np.all(grad[:, 2] == 0.0)
        assert np.all(grad[:, :2] != 0.0)


class TestFiniteDifferences:
    def test_control_weight_invisible_at_zero(self, grid, model_params):
        # |f|^q has zero slope at f = 0 for q > 1, and the central difference
        # cancels the even |eps|^q contribution exactly, so the gradient at
        # the origin reflects the state terms only
        cfg = OptimizerConfig(basis=(2, 2), control_times=5)
        grads = {}
        for gamma_f in (0.1, 100.0):
            cp = CostParams(gamma_u=1.0, gamma_v=1.0, gamma_f=gamma_f, q=3.0,
                            u_d=DesiredState.constant(0.0),
                            v_d=DesiredState.constant(1.5), M=3.0)
            ctx = make_context(cfg, cp, model_params, Field.zeros(grid),
                               Field.full(grid, 1.0), dt_max=0.05)
            fun = lambda c: reduced_objective(c, ctx)
            grads[gamma_f], _ = finite_difference_gradient(fun, np.zeros(4), 1e-3)
        assert grads[0.1] == pytest.approx(grads[100.0], rel=1e-9)

    def test_exact_on_quadratics(self):
        A = np.diag([2.0, 3.0, 0.5])
        b = np.array([1.0, -2.0, 0.3])
        fun = lambda x: 0.5 * x @ A @ x + b @ x
        x0 = np.array([0.4, -1.2, 2.0])
        grad, flags = finite_difference_gradient(fun, x0, 1e-4)
        assert grad == pytest.approx(A @ x0 + b, abs=1e-9)
        assert not flags.any()

    def test_one_sided_fallback_flagged(self):
        def fun(x):
            if x[0] > 0.5:
                return math.inf
            return float(x @ x)
        grad, flags = finite_difference_gradient(fun, np.array([0.5, 1.0]), 0.1)
        assert flags[0] and not flags[1]
        # one-sided slope of x^2 at 0.5 from the left: (0.25 - 0.16) / 0.1
        assert grad[0] == pytest.approx((0.25 - 0.16) / 0.1, rel=1e-10)


class TestOptimize:
    def test_stays_at_zero_when_baseline_tracks(self, grid, model_params):
        # desired states equal the uncontrolled run: f = 0 already optimal
        p = model_params
        traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), None, p, 0.05)
        assert np.abs(traj.v - 1.0).max() <= 1e-12  # constants are equilibria
        cp = CostParams(gamma_u=1.0, gamma_v=1.0, gamma_f=1.0, q=3.0,
                        u_d=DesiredState.constant(0.0),
                        v_d=DesiredState.constant(1.0), M=2.0)
        cfg = OptimizerConfig(max_iters=3, basis=(2, 2), control_times=5)
        ctrl, trace = optimize(cfg, cp, p, Field.zeros(grid), Field.full(grid, 1.0),
                               dt_max=0.05)
        assert trace.best_J == pytest.approx(0.0, abs=1e-12)
        assert np.abs(ctrl.values).max() <= 1e-12

    def test_simulations_go_through_opt_simulate(self, grid, model_params,
                                                 count_calls):
        # the benchmark names the optimizer's simulations by this attribute
        calls = count_calls(sim.simulate)
        cfg = OptimizerConfig(max_iters=2, basis=(2, 2), control_times=5)
        optimize(cfg, cost_params(), model_params, Field.zeros(grid),
                 Field.full(grid, 1.0), dt_max=0.05)
        assert calls["opt.simulate"] > 0
        assert sum(calls.values()) == calls["opt.simulate"]

    def test_improves_and_respects_ball(self, grid, model_params):
        cfg = OptimizerConfig(max_iters=8, basis=(2, 2), control_times=9,
                              stop_tol=1e-8)
        cp = cost_params(M=3.0)
        ctrl, trace = optimize(cfg, cp, model_params, Field.zeros(grid),
                               Field.full(grid, 1.0), dt_max=0.05)
        accepted = trace.accepted_J(start=0)
        assert accepted.size >= 2
        assert np.all(np.diff(accepted) < 0)
        assert trace.best_J < accepted[0]
        for row in trace.rows:
            assert row.control_norm <= cp.M + 1e-12
        assert ctrl.lq_norm(cp.q) <= cp.M + 1e-12

    def test_default_basis_fits_the_grid(self, model_params):
        # without a basis, time and each of the two grid axes get 2 nodes; a
        # basis of the wrong length is refused before any run
        g = Grid.unit_box((8, 6))
        g = g.with_mask(g.box_mask([(0.0, 0.5), (0.0, 1.0)]))
        args = (cost_params(), model_params, Field.zeros(g), Field.full(g, 1.0), 0.05)
        ctrl, trace = optimize(OptimizerConfig(max_iters=1), *args)
        assert trace.best.coeffs.size == 8 and ctrl.values.shape == (9, 8, 6)
        with pytest.raises(ValueError, match="basis needs 3 entries"):
            optimize(OptimizerConfig(max_iters=1, basis=(2, 2)), *args)

    def test_descent_with_active_density_term(self, grid, model_params):
        # nonzero cells make the density misfit participate in the objective
        u0 = Field.full(grid, 0.5)
        v0 = Field.full(grid, 1.0)
        cp = CostParams(gamma_u=1.0, gamma_v=1.0, gamma_f=0.1, q=3.0,
                        u_d=DesiredState.constant(0.2),
                        v_d=DesiredState.constant(1.5), M=3.0)
        cfg = OptimizerConfig(max_iters=6, basis=(2, 2), control_times=9,
                              stop_tol=1e-8)
        ctrl, trace = optimize(cfg, cp, model_params, u0, v0, dt_max=0.05)
        accepted = trace.accepted_J(start=0)
        assert trace.best_J < accepted[0]
        assert np.all(np.diff(accepted) < 0)
        traj = simulate(u0, v0, ctrl, model_params, 0.05)
        bd = evaluate_J(traj, ctrl, cp, model_params.s)
        assert bd.state_u > 0.0
        assert bd.total == pytest.approx(trace.best_J, rel=1e-12)

    def test_best_point_keeps_its_run(self, grid, model_params):
        # the best point's run and breakdown are what a fresh simulation of
        # the returned control gives, bit for bit
        cp = cost_params()
        u0, v0 = Field.zeros(grid), Field.full(grid, 1.0)
        cfg = OptimizerConfig(max_iters=4, basis=(2, 2), control_times=5)
        ctrl, trace = optimize(cfg, cp, model_params, u0, v0, dt_max=0.05)
        best = trace.best
        assert best.control is ctrl
        assert best.J == trace.best_J == trace.accepted_J()[-1]
        assert np.array_equal(best.coeffs, trace.best_coeffs)
        traj = simulate(u0, v0, ctrl, model_params, 0.05)
        assert np.array_equal(best.traj.u, traj.u)
        assert np.array_equal(best.traj.v, traj.v)
        assert best.breakdown.to_dict() == \
            evaluate_J(traj, ctrl, cp, model_params.s).to_dict()

    def test_trace_rejects_nondecreasing_insert(self):
        from chemoctrl.opt import OptimizationTrace, TraceRow
        trace = OptimizationTrace()
        trace.append(TraceRow(0, 0, 1.0, 0, 0, 1.0, 0.5, 0.0, True))
        with pytest.raises(ValueError, match="strictly"):
            trace.append(TraceRow(0, 1, 1.0, 0, 0, 1.0, 0.5, 0.1, True))

    def test_deterministic_trace(self, grid, model_params):
        cfg = OptimizerConfig(max_iters=3, basis=(2, 2), control_times=5)
        args = (cfg, cost_params(), model_params, Field.zeros(grid),
                Field.full(grid, 1.0))
        c1, t1 = optimize(*args, dt_max=0.05)
        c2, t2 = optimize(*args, dt_max=0.05)
        assert np.array_equal(c1.values, c2.values)
        assert [r.J for r in t1.rows] == [r.J for r in t2.rows]


class TestHorizonZero:
    """At ``t_final = 0`` every control gives the same objective, so there is
    nothing to optimize: both entry points refuse it before any run."""

    @pytest.mark.parametrize("entry", ["optimize", "ordering_experiment"])
    def test_refused_before_any_run(self, grid, count_calls, entry):
        calls = count_calls(sim.simulate)
        p = ModelParams(s=2.0, t_final=0.0)
        args = (OptimizerConfig(), cost_params(), p, Field.zeros(grid),
                Field.full(grid, 1.0), 0.05)
        with pytest.raises(ValueError, match="t_final must be positive"):
            if entry == "optimize":
                optimize(*args)
            else:
                ordering_experiment([0.5, 1.0], *args)
        assert sum(calls.values()) == 0


class TestOrdering:
    def test_warm_started_sweep_monotone(self, grid, model_params):
        cfg = OptimizerConfig(max_iters=5, basis=(2, 2), control_times=9,
                              stop_tol=1e-8)
        table = ordering_experiment([0.5, 1.0, 2.0], cfg, cost_params(),
                                    model_params, Field.zeros(grid),
                                    Field.full(grid, 1.0), dt_max=0.05)
        J = table.J_column()
        assert np.all(np.diff(J) <= cfg.stop_tol * np.maximum(J[:-1], 1e-300))

    def test_identical_radii_identical_J(self, grid, model_params):
        cfg = OptimizerConfig(max_iters=3, basis=(2, 2), control_times=5)
        table = ordering_experiment([1.0, 1.0], cfg, cost_params(),
                                    model_params, Field.zeros(grid),
                                    Field.full(grid, 1.0), dt_max=0.05)
        assert table.rows[0].J == table.rows[1].J

    def test_zero_control_simulated_once_per_sweep(self, monkeypatch, count_calls):
        # the zero control's run does not depend on the radius, so the sweep
        # simulates it once; each warm start beats it, so every forward run
        # is one trace row
        calls = count_calls(sim.simulate)
        rows = []

        def recording(*args):
            ctrl, trace = descend(*args)
            rows.extend(trace.rows)
            return ctrl, trace
        descend = opt._descend
        monkeypatch.setattr(opt, "_descend", recording)
        cfg = load_config(BUNDLED)
        ordering_experiment(cfg.m_sweep, cfg.optimizer, cfg.cost, cfg.model,
                            cfg.u0, cfg.v0, cfg.dt_max)
        # 11 + 12 + 11 + 12 rows over the 4 radii
        assert calls["opt.simulate"] == len(rows) == 46

    def test_needs_two_radii(self, grid, model_params):
        cfg = OptimizerConfig()
        with pytest.raises(ValueError):
            ordering_experiment([1.0], cfg, cost_params(), model_params,
                                Field.zeros(grid), Field.full(grid, 1.0),
                                dt_max=0.05)


def gaussian_context(dims=(64,), basis=(3, 4), m=8.0, s=2.0, M=3.0, t_final=0.4,
                     amplitude=1.0, control_times=9):
    """An optimize-1d-style instance: a Gaussian density off center, a
    slightly varying concentration, and control on part of the box."""
    g = Grid.unit_box(dims)
    g = g.with_mask(g.box_mask([(0.0, 0.6)] + [(0.2, 1.0)] * (len(dims) - 1)))
    centers = g.cell_centers()
    r2 = sum((c - 0.45) ** 2 for c in centers)
    u0 = Field(g, amplitude * np.exp(-r2 / (2 * 0.15**2)))
    v0 = Field(g, 1.0 + 0.03 * np.sin(7.0 * centers[0] + 1.0))
    cfg = OptimizerConfig(basis=basis, control_times=control_times)
    mp = ModelParams(s=s, alpha=0.1, m=m, q=3.0, t_final=t_final)
    return make_context(cfg, cost_params(M), mp, u0, v0, dt_max=0.02)


def assert_adjoint_matches_fd(ctx, x, eps):
    """The reverse-pass gradient agrees with central differences to 1e-6
    relative; returns the evaluated point."""
    point = _evaluate(x, ctx)
    got = adjoint_gradient(x, point.traj, ctx)
    fd, one_sided = finite_difference_gradient(lambda p: reduced_objective(p, ctx),
                                               x, eps)
    assert not one_sided.any()
    assert np.abs(got - fd).max() <= 1e-6 * np.abs(fd).max()
    return point


def raw_norm(x, ctx):
    """Control norm before the retraction into the ball."""
    return ctx.control(x).lq_norm(ctx.cost_params.q)


def bundled_3d_context():
    # the bundled 3D instance: 192 coefficients on 24^3 cells
    cfg = load_config(os.path.join(CONFIGS, "optimize_3d.json"))
    assert cfg.grid.dims == (24, 24, 24)
    assert cfg.optimizer.basis == (3, 4, 4, 4)
    return make_context(cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0,
                        cfg.dt_max)


# contexts of the bases the control space is checked on
CONTEXTS = [
    pytest.param(gaussian_context, id="optimize-1d"),
    pytest.param(lambda: gaussian_context(dims=(12, 10), basis=(2, 3, 2)), id="2d"),
    pytest.param(bundled_3d_context, id="optimize_3d"),
    pytest.param(lambda: gaussian_context(basis=(1, 2)), id="singleton"),
]


class TestAdjointGradient:
    # central differences of a smooth map err by O(eps^2) plus round-off
    # O(1e-16 J / eps); each eps keeps both well below the 1e-6 tolerance

    def test_bundled_config(self):
        # u0 = 0 stays 0, so only the concentration and control terms act
        cfg = load_config(BUNDLED)
        ctx = make_context(cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0,
                           cfg.dt_max)
        rng = np.random.default_rng(1)
        for x in (np.zeros(4), rng.normal(size=4)):
            point = assert_adjoint_matches_fd(ctx, x, 1e-4)
            assert raw_norm(x, ctx) < ctx.cost_params.M
            assert point.traj.u.max() == 0.0

    def test_gaussian_density(self):
        ctx = gaussian_context()
        x = np.random.default_rng(2).normal(size=12)
        point = assert_adjoint_matches_fd(ctx, x, 1e-4)
        assert 0.0 < point.traj.u.max() <= ctx.model_params.m

    def test_two_dimensional_grid(self):
        ctx = gaussian_context(dims=(12, 10), basis=(2, 3, 2), s=1.5,
                               t_final=0.2, control_times=5)
        x = np.random.default_rng(3).normal(size=12)
        assert_adjoint_matches_fd(ctx, x, 1e-5)

    def test_ball_active(self):
        ctx = gaussian_context(basis=(2, 2))
        x = np.array([20.0, -15.0, 18.0, 25.0])
        assert raw_norm(x, ctx) > 2 * ctx.cost_params.M
        point = assert_adjoint_matches_fd(ctx, x, 1e-4)
        assert point.control.lq_norm(3.0) == pytest.approx(ctx.cost_params.M)

    def test_truncation_active(self):
        ctx = gaussian_context(m=0.5)
        x = np.random.default_rng(4).normal(size=12)
        point = assert_adjoint_matches_fd(ctx, x, 1e-5)
        assert point.traj.u.max() > ctx.model_params.m

    @given(x=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_drawn_coefficients_away_from_kinks(self, x):
        ctx = gaussian_context(dims=(16,), basis=(2, 2), m=0.8, M=1.0,
                               amplitude=1.0, t_final=0.2)
        x = np.array(x)
        eps = 1e-5
        point = _evaluate(x, ctx)
        traj = point.traj
        # the probes must see the same smooth piece: the same accepted steps,
        # no ball boundary, no truncation knee, no upwind switch within reach
        assume(abs(raw_norm(x, ctx) - ctx.cost_params.M) > 1e-3)
        assume(np.abs(traj.u - ctx.model_params.m).min() > 1e-3)
        assume(np.abs(np.diff(traj.v[1:], axis=1)).min() > 1e-6)
        steps = []

        def fun(p):
            probe = _evaluate(p, ctx)
            steps.append(np.array_equal(probe.traj.dt_history, traj.dt_history))
            return probe.J
        fd, _ = finite_difference_gradient(fun, x, eps)
        assume(all(steps))
        got = adjoint_gradient(x, traj, ctx)
        assert np.abs(got - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("make", CONTEXTS)
    def test_prolongation_transpose(self, make):
        ctx = make()
        rng = np.random.default_rng(5)
        c = rng.normal(size=ctx.basis)
        y = rng.normal(size=(ctx.control_times.size,) + ctx.grid.dims)
        fine = ctx.control(c.ravel()).values
        coarse = ctx.coefficient_gradient(y).reshape(ctx.basis)
        assert float((fine * y).sum()) == pytest.approx(float((c * coarse).sum()),
                                                        rel=1e-12)


def oracle_control(ctx, coeffs):
    """The control of ``coeffs`` through the prolongation oracle."""
    fine = prolong_oracle(coeffs.reshape(ctx.basis), ctx.grid, ctx.control_times)
    return Control(ctx.grid, ctx.control_times, fine)


def oracle_coefficient_gradient(ctx, bar):
    """The coefficient gradient of ``bar`` through the transpose oracle."""
    return prolong_transpose_oracle(ctx.basis, ctx.grid, ctx.control_times,
                                    bar * ctx.grid.control_mask).ravel()


class TestControlSpace:
    """The context's prolongation and its transpose against conftest's
    oracles, the code they replaced, byte for byte."""

    @pytest.mark.parametrize("make", CONTEXTS)
    def test_control_matches_oracle(self, make):
        ctx = make()
        c = np.random.default_rng(9).normal(size=int(np.prod(ctx.basis)))
        got, want = ctx.control(c).values, oracle_control(ctx, c).values
        assert got.tobytes() == want.tobytes()
        # Control.lq_norm sums in memory order, so the layout counts too
        assert got.strides == want.strides

    @pytest.mark.parametrize("make", CONTEXTS)
    def test_gradient_matches_oracle(self, make):
        ctx = make()
        y = np.random.default_rng(10).normal(
            size=(ctx.control_times.size,) + ctx.grid.dims)
        assert ctx.coefficient_gradient(y).tobytes() == \
            oracle_coefficient_gradient(ctx, y).tobytes()

    def test_descent_matches_oracle(self, monkeypatch):
        # every trace field, bit for bit, of a descent through the oracles
        def hex_rows(trace):
            return [[v.hex() if isinstance(v, float) else v
                     for v in dataclasses.astuple(r)] for r in trace.rows]
        cfg = load_config(BUNDLED)
        args = (cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0, cfg.dt_max)
        ctrl, trace = optimize(*args)
        monkeypatch.setattr(opt.OptimizeContext, "control", oracle_control)
        monkeypatch.setattr(opt.OptimizeContext, "coefficient_gradient",
                            oracle_coefficient_gradient)
        want_ctrl, want = optimize(*args)
        assert hex_rows(trace) == hex_rows(want)
        assert ctrl.values.tobytes() == want_ctrl.values.tobytes()

    def test_context_is_frozen(self, context):
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.basis = (3, 3)
        with pytest.raises(ValueError, match="read-only"):
            context.control_times[0] = 1.0


class TestDescentUsesAdjoint:
    def test_no_finite_difference_probes(self, grid, model_params, count_calls):
        probe_calls = count_calls(finite_difference_gradient)
        sim_calls = count_calls(sim.simulate)
        cfg = OptimizerConfig(max_iters=4, basis=(2, 2), control_times=5,
                              stop_tol=0.0)
        _, trace = optimize(cfg, cost_params(), model_params, Field.zeros(grid),
                            Field.full(grid, 1.0), dt_max=0.05)
        assert set(probe_calls.values()) == {0}
        # one simulation per trace row: gradients cost no forward runs
        assert sim_calls["opt.simulate"] == len(trace.rows)
        assert trace.accepted_J(start=0).size >= 2


class TestLBFGSDirection:
    def test_secant_identity(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=12)
        y = s + 0.3 * rng.normal(size=12)
        assert s @ y > 0
        got = lbfgs_direction(y, [(s, y)])
        assert np.abs(got - s).max() <= 1e-12 * np.abs(s).max()

    @pytest.mark.parametrize("sy, kept", [(-1.0, False), (0.0, False),
                                          (1e-12, False), (1e-3, True)])
    def test_pair_kept_only_with_positive_curvature(self, sy, kept):
        # s.y = sy for unit s and y
        s = np.array([1.0, 0.0])
        y = np.array([sy, math.sqrt(1.0 - sy * sy)])
        pairs = []
        _store_pair(pairs, s, y)
        assert len(pairs) == int(kept)

    def test_non_descent_direction_falls_back_to_gradient(self):
        # a pair of negative curvature, as _store_pair would never keep, maps
        # y to s with s.y < 0: not a descent direction for the gradient y
        s, y = np.array([1.0, 0.0]), np.array([-1.0, 2.0])
        direction, t, newton = _search_direction(y, [(s, y)], 0.25)
        assert not newton
        assert t == 0.25
        assert np.array_equal(direction, y / 2.0)

    def test_descent_direction_tried_at_unit_length(self):
        s, y = np.array([1.0, 0.5]), np.array([2.0, 0.5])
        direction, t, newton = _search_direction(y, [(s, y)], 0.25)
        assert newton and t == 1.0
        assert direction == pytest.approx(s, rel=1e-12)

    def test_fewer_forward_runs_on_bundled_config(self, count_calls):
        # steepest descent took 23 forward runs on this instance
        calls = count_calls(sim.simulate)
        cfg = load_config(BUNDLED)
        _, trace = optimize(cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0,
                            cfg.dt_max)
        assert calls["opt.simulate"] == len(trace.rows) == 14

    def test_step_length_is_sup_norm_of_the_move(self, monkeypatch):
        seen = []

        def recording(coeffs, ctx):
            seen.append(coeffs.copy())
            return _evaluate(coeffs, ctx)
        monkeypatch.setattr(opt, "_evaluate", recording)
        cfg = load_config(BUNDLED)
        _, trace = optimize(cfg.optimizer, cfg.cost, cfg.model, cfg.u0, cfg.v0,
                            cfg.dt_max)
        assert len(seen) == len(trace.rows)
        cur = seen[0]
        for x, row in zip(seen[1:], trace.rows[1:]):
            assert row.step_length == pytest.approx(np.abs(x - cur).max(),
                                                    rel=1e-12, abs=1e-15)
            if row.accepted:
                cur = x


class TestInfeasibleReason:
    def test_stiffness_message_in_trace(self, grid, model_params, monkeypatch,
                                        tmp_path):
        # every nonzero control fails; the zero control runs normally
        def stiff_unless_zero(u0, v0, control, params, dt_max):
            if np.any(control.values):
                raise sim.StiffnessError("dt underflow at t=0.125: stiff")
            return simulate(u0, v0, control, params, dt_max)
        monkeypatch.setattr(opt, "simulate", stiff_unless_zero)
        monkeypatch.setattr(opt, "MAX_BACKTRACKS", 3)
        cfg = OptimizerConfig(max_iters=1, basis=(2, 2), control_times=5)
        _, trace = optimize(cfg, cost_params(), model_params, Field.zeros(grid),
                            Field.full(grid, 1.0), dt_max=0.05)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(opt.TRACE_COLUMNS)
        assert [r["reason"] for r in rows] == \
            [""] + ["dt underflow at t=0.125: stiff"] * 3
        assert [r["J"] for r in rows[1:]] == ["inf"] * 3

    @pytest.mark.filterwarnings("error")
    def test_overflowing_state_is_infeasible(self, grid):
        # a control of 45 on half the box grows v like exp(45 t), past the
        # floating-point range long before t_final = 20
        mp = ModelParams(s=2.0, alpha=0.1, m=8.0, q=3.0, t_final=20.0)
        cfg = OptimizerConfig(basis=(1, 1), control_times=9)
        ctx = make_context(cfg, cost_params(M=1000.0), mp, Field.zeros(grid),
                           Field.full(grid, 1.0), dt_max=0.02)
        point = _evaluate(np.array([45.0]), ctx)
        assert isinstance(point, opt.Evaluation)
        assert point.J == math.inf and point.traj is None
        assert point.reason.startswith("v went negative or non-finite")
