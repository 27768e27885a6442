import dataclasses
import inspect
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (axis_laplacians, chemotaxis_array_oracle, simulate_adjoint_oracle,
                      weak_residual_oracle)

from chemoctrl import energy, grid as grid_module, sim
from chemoctrl.cost import CostParams, DesiredState, _weak_probes, evaluate_J
from chemoctrl.grid import Workspace, chemotaxis_array
from chemoctrl import (
    Control,
    Field,
    Grid,
    GridMismatchError,
    ModelParams,
    StepSizeError,
    StiffnessError,
    TrajectoryFormatError,
    field_preset,
    control_preset,
    integrate,
    simulate,
    solve_comparison,
    spacetime_lp_norm,
    step,
    trajectory_from_dir,
    trajectory_to_dir,
    weak_residual,
)


@pytest.fixture
def grid():
    return Grid.unit_box((32,))


def params(s=1.0, t_final=0.25, **kw):
    return ModelParams(s=s, t_final=t_final, **kw)


def assert_step_ladder(dt_history, events, t_final, dt_max):
    """Replay the halving / re-doubling rules over a run's steps and rejections."""
    end = t_final - 1e-14 * max(t_final, 1.0)

    def attempt(dt, t):
        # clipped to t_final, and stretched to it over a round-off remainder
        step = min(dt, t_final - t)
        return t_final - t if t_final - 1e-9 * t_final <= t + step < end else step

    t, dt, clean = 0.0, dt_max, 0
    pending = list(events)
    for accepted in dt_history:
        while pending and pending[0]["t"] == t:
            event = pending.pop(0)
            assert event["dt"] == attempt(dt, t)
            assert event["reason"] and 0 < event["admissible_dt"] < event["dt"]
            dt, clean = 0.5 * event["dt"], 0
        assert accepted == attempt(dt, t)
        t += accepted
        clean += 1
        if clean >= 10 and dt < dt_max:
            dt, clean = min(2.0 * dt, dt_max), 0
    assert not pending
    assert t == pytest.approx(t_final, rel=1e-14)


class TestControl:
    def test_mask_is_enforced(self):
        g = Grid.unit_box((8,)).with_mask(np.arange(8) < 4)
        vals = np.ones((2, 8))
        ctrl = Control(g, [0.0, 1.0], vals)
        assert np.all(ctrl.values[:, 4:] == 0.0)
        assert np.all(ctrl.values[:, :4] == 1.0)

    def test_times_must_increase_from_zero(self):
        g = Grid.unit_box((4,))
        with pytest.raises(ValueError):
            Control(g, [0.1, 0.5], np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Control(g, [0.0, 0.5, 0.5], np.zeros((3, 4)))
        with pytest.raises(ValueError):
            Control(g, [0.0, np.nan, 1.0], np.zeros((3, 4)))

    def test_slice_interpolates_linearly(self):
        g = Grid.unit_box((4,))
        vals = np.stack([np.zeros(4), np.full(4, 2.0)])
        ctrl = Control(g, [0.0, 1.0], vals)
        for t, value in ((0.5, 1.0), (-1.0, 0.0), (2.0, 2.0)):
            assert ctrl.slice_at(t, Workspace(g)) == pytest.approx(value)

    @given(n_times=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           t=st.floats(-0.5, 1.5), on_node=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_slice_matches_searchsorted_reference(self, n_times, seed, t, on_node):
        # the bisect lookup picks the searchsorted index, and the blend keeps
        # its arithmetic, so every slice is the same bytes as before
        g = Grid.unit_box((5,))
        rng = np.random.default_rng(seed)
        times = np.cumsum(np.concatenate(([0.0], rng.uniform(0.01, 0.3, n_times - 1))))
        vals = rng.normal(size=(n_times,) + g.dims)
        vals[:, 0] = -0.0
        ctrl = Control(g, times, vals)
        if on_node:
            t = float(times[rng.integers(n_times)])
        if t <= times[0]:
            ref = ctrl.values[0]
        elif t >= times[-1]:
            ref = ctrl.values[-1]
        else:
            j = int(np.searchsorted(times, t, side="right"))
            w = (t - times[j - 1]) / (times[j] - times[j - 1])
            ref = (1.0 - w) * ctrl.values[j - 1] + w * ctrl.values[j]
        assert ctrl.slice_at(t, Workspace(g)).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dims", [(7,), (5, 4), (3, 4, 2)])
    def test_scatter_is_the_transpose_of_sample(self, dims):
        # sum(slice * bar) == sum(values * scatter(bar)) for steps that start
        # and end inside the lattice, on its nodes and past either end
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.0, 0.6)] * len(dims)))
        rng = np.random.default_rng(len(dims))
        times = np.cumsum(np.concatenate(([0.0], rng.uniform(0.05, 0.3, 5))))
        ctrl = Control(g, times, rng.normal(size=(times.size,) + dims))
        ends = np.concatenate((rng.uniform(-0.5, times[-1] + 0.5, 30), times))
        outside = g.control_mask == 0.0
        for _ in range(60):
            t0, t1 = np.sort(rng.choice(ends, 2, replace=False))
            bar = rng.normal(size=dims)
            sampled = ctrl.sample(t0, t1, Workspace(g))
            assert sampled.tobytes() == ctrl.slice_at(t1, Workspace(g)).tobytes()
            levels_bar = ctrl.scatter(t0, t1, bar, Workspace(g), np.zeros_like(ctrl.values))
            assert not levels_bar[:, outside].any()
            assert np.sum(sampled * bar) == \
                pytest.approx(np.sum(ctrl.values * levels_bar), rel=1e-12, abs=1e-12)

    def test_lq_norm_constant(self):
        # |f| = c on the unit space-time cylinder has every L^q norm c
        g = Grid.unit_box((10,))
        ctrl = Control.constant(g, -3.0, 1.0)
        for q in (2.0, 3.0, 5.0):
            assert ctrl.lq_norm(q) == pytest.approx(3.0, rel=1e-12)
        assert ctrl.lq_norm(np.inf) == 3.0

    def test_scaled(self):
        g = Grid.unit_box((4,))
        ctrl = Control.constant(g, 2.0, 1.0)
        assert ctrl.scaled(0.5).lq_norm(3.0) == pytest.approx(1.0, rel=1e-12)

    def test_values_and_times_are_frozen(self):
        # a norm is computed once and kept, so nothing may change the control
        g = Grid.unit_box((4,))
        times = np.array([0.0, 0.5, 1.0])
        ctrl = Control(g, times, np.ones((3, 4)))
        for write in (lambda: ctrl.values.__setitem__((0, 0), 5.0),
                      lambda: ctrl.values.__imul__(2.0),
                      lambda: ctrl.times.__setitem__(1, 0.7)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctrl.values = np.zeros((3, 4))
        times[1] = 0.7  # the control holds a copy of its times
        assert ctrl.times[1] == 0.5 and times.flags.writeable

    @pytest.mark.parametrize("q", [2.5, 3.0, np.inf])
    def test_lq_norm_is_the_spacetime_norm(self, q):
        g = Grid.unit_box((5, 3))
        g = g.with_mask(g.box_mask([(0.0, 0.6), (0.0, 1.0)]))
        rng = np.random.default_rng(9)
        ctrl = Control(g, np.linspace(0.0, 0.3, 4), rng.normal(size=(4, 5, 3)))
        want = spacetime_lp_norm(ctrl.times, ctrl.values, g, q)
        assert np.float64(ctrl.lq_norm(q)).tobytes() == np.float64(want).tobytes()
        assert ctrl.lq_norm(q) == want  # kept from the first call


def full(grid, value):
    return np.full(grid.dims, float(value))


def fresh_step(grid, u, v, f, p, dt):
    """One :func:`step` in a fresh workspace, into new arrays."""
    return step(grid, u, v, f, p, dt, Workspace(grid),
                (np.empty(grid.dims), np.empty(grid.dims)))


    def test_covers_the_horizon_to_a_relative_1e_12(self, grid):
        # the one rule simulate and the config loader hold a control to
        ctrl = Control.zero(grid, 2.0)
        assert ctrl.covers(0.0) and ctrl.covers(2.0) and ctrl.covers(2.0 * (1 + 5e-13))
        assert not ctrl.covers(2.0 * (1 + 2e-12))


class TestStep:
    def test_empty_domain_equilibrium(self, grid):
        # no cells: constant concentration is a fixed point without control
        u, v = fresh_step(grid, full(grid, 0.0), full(grid, 2.0), full(grid, 0.0),
                          params(), 0.01)
        assert np.abs(u).max() == 0.0
        assert v == pytest.approx(2.0, rel=1e-13)

    def test_zero_concentration_freezes_everything(self, grid):
        u, v = fresh_step(grid, full(grid, 1.5), full(grid, 0.0), full(grid, 4.0),
                          params(), 0.01)
        assert np.abs(v).max() == 0.0
        assert u == pytest.approx(1.5, rel=1e-13)

    def test_backward_euler_growth_factor(self, grid):
        # u = 0, f = lam everywhere: one step multiplies v by 1/(1 - dt*lam)
        lam, dt = 0.8, 0.01
        _, v = fresh_step(grid, full(grid, 0.0), full(grid, 1.0), full(grid, lam),
                          params(), dt)
        assert v == pytest.approx(1.0 / (1.0 - dt * lam), rel=1e-12)

    def test_m_matrix_guard(self, grid):
        with pytest.raises(StepSizeError) as err:
            fresh_step(grid, full(grid, 0.0), full(grid, 1.0), full(grid, 200.0),
                       params(), 0.01)
        assert err.value.admissible_dt < 0.01

    def test_cfl_guard_reports_admissible_dt(self, grid):
        # steep v ramp with mobile cells forces a tiny transport step
        x = grid.axis_centers(0)
        u0, v0, f = full(grid, 1.0), 50.0 * x, full(grid, 0.0)
        with pytest.raises(StepSizeError, match="CFL") as err:
            fresh_step(grid, u0, v0, f, params(), 0.01)
        assert 0 < err.value.admissible_dt < 0.01
        # the halving policy recovers (the estimate shifts with the implicit v)
        dt = err.value.admissible_dt
        for _ in range(20):
            try:
                u, _ = fresh_step(grid, u0, v0, f, params(), dt)
                break
            except StepSizeError:
                dt *= 0.5
        else:
            pytest.fail("no admissible step found by halving")
        assert dt < 0.01
        assert u.min() >= 0.0

    def test_zero_density_does_not_bound_dt(self, grid):
        # cells without mobility send no flux out, so the steep ramp imposes
        # no CFL limit although dt is far above the bound mobile cells get
        x = grid.axis_centers(0)
        dt = 0.01
        u, v = fresh_step(grid, full(grid, 0.0), 50.0 * x, full(grid, 0.0), params(), dt)
        _, rate = chemotaxis_array(grid, np.ones(grid.dims), v, Workspace(grid))
        assert dt * rate.max() > sim.CFL_SAFETY
        assert np.abs(u).max() == 0.0
        assert v.min() >= 0.0

    @pytest.mark.parametrize("kernel", [chemotaxis_array, chemotaxis_array_oracle])
    def test_overflowing_face_gradient_rejects_dt(self, grid, monkeypatch, kernel):
        # v near the largest double: the face gradients on both sides of cell
        # 3 overflow to +-inf.  The immobile donor (cell 2) must not turn its
        # infinite rate into a NaN that hides the mobile donor's (cell 4)
        v = np.zeros(grid.dims)
        v[3] = 1e308
        u = np.zeros(grid.dims)
        u[4] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            _, rate = kernel(grid, u, v, Workspace(grid))
        assert rate[2] == 0.0 and rate[4] == np.inf and not np.isnan(rate).any()
        monkeypatch.setattr(sim, "chemotaxis_array", kernel)
        with pytest.raises(StepSizeError, match="CFL"):
            fresh_step(grid, u, v, full(grid, 0.0), params(), 1e-6)

    def test_mass_conserved_per_step(self, grid):
        rng = np.random.default_rng(5)
        u0 = rng.uniform(0.0, 2.0, grid.dims)
        u, _ = fresh_step(grid, u0, rng.uniform(0.0, 1.0, grid.dims), full(grid, 0.5),
                          params(s=2.0), 0.002)
        m0, m1 = integrate(grid, u0), integrate(grid, u)
        assert abs(m1 - m0) <= 1e-12 * abs(m0)

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
    def test_rejects_bad_dt(self, grid, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            fresh_step(grid, full(grid, 1.0), full(grid, 1.0), full(grid, 0.0), params(),
                       dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["u", "v"])
    def test_non_finite_new_level_raises_positivity_error(self, monkeypatch, grid,
                                                          name, bad):
        # the returned arrays are not checked again, so the step itself must
        # reject a NaN or inf that a solve hands back.  One factor serves both
        # diffusions: v's solve comes first, then u's
        solves = []

        class Poisoned:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b, ws, out):
                x = self.lu.solve(b, ws, out)
                solves.append(b)
                if len(solves) == ("v", "u").index(name) + 1:
                    x[3] = bad
                return x

        factor = sim._diffusion_solver
        monkeypatch.setattr(sim, "_diffusion_solver",
                            lambda g, dt: Poisoned(factor(g, dt)))
        with pytest.raises(sim.PositivityError,
                           match=f"{name} went negative or non-finite at cell \\(3,\\)"):
            fresh_step(grid, full(grid, 1.0), full(grid, 1.0), full(grid, 0.0), params(),
                       0.01)


class TestWorkspace:
    """One workspace per run, and new levels solved straight into their rows."""

    @pytest.mark.parametrize("dims", [(16,), (8, 6), (5, 4, 6)])
    def test_out_rows_are_returned_with_the_bits_of_a_fresh_step(self, dims):
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.0, 0.6)] * len(dims)))
        rng = np.random.default_rng(len(dims))
        u, v = rng.uniform(0.0, 2.0, dims), rng.uniform(0.5, 1.5, dims)
        f = rng.uniform(-3.0, 3.0, dims)
        p, dt = params(s=2.0), 2e-3
        ref_u, ref_v = fresh_step(g, u, v, f, p, dt)
        ref_w = sim._comparison_step(g, v, np.maximum(f, 0.0), dt, Workspace(g),
                                     np.empty(dims))
        ws = Workspace(g)
        out = (np.empty(dims), np.empty(dims))
        w_out = np.empty(dims)
        for _ in range(2):  # the second pass finds the first one's data in ws
            got = step(g, u, v, f, p, dt, ws, out)
            assert got[0] is out[0] and got[1] is out[1]
            assert out[0].tobytes() == ref_u.tobytes()
            assert out[1].tobytes() == ref_v.tobytes()
            assert sim._comparison_step(g, v, np.maximum(f, 0.0), dt, ws, w_out) is w_out
            assert w_out.tobytes() == ref_w.tobytes()

    @pytest.mark.parametrize("dims", [(24, 24, 24), (96, 96)])
    def test_steps_allocate_no_level_sized_array(self, dims):
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.25, 0.75)] * len(dims)))
        rng = np.random.default_rng(7)
        u, v = rng.uniform(0.5, 2.0, dims), rng.uniform(0.9, 1.1, dims)
        ctrl = Control(g, [0.0, 1.0], rng.uniform(-1.0, 1.0, (2,) + dims))
        p, dt = params(), 1e-3
        ws = Workspace(g)
        out = (np.empty(dims), np.empty(dims))
        w_out = np.empty(dims)

        def steps():
            step(g, u, v, ctrl.slice_at(0.5, ws), p, dt, ws, out)
            f_tilde = np.maximum(ctrl.slice_at(0.5, ws), 0.0, out=ws.cells[4])
            sim._comparison_step(g, v, f_tilde, dt, ws, w_out)

        steps()  # warm-up: the cached axis inverses and the workspace's views
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            steps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < g.n_cells * 8

    def test_kernels_require_their_workspace(self):
        # a forgotten workspace or output is a TypeError, not a fresh
        # level-sized array, and the solvers build their own
        takers, writers = [], []
        for module in (grid_module, sim, energy):
            for obj in vars(module).values():
                members = [obj, *vars(obj).values()] if inspect.isclass(obj) else [obj]
                for fn in members:
                    if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                        continue
                    parameters = inspect.signature(fn).parameters
                    ws = parameters.get("ws")
                    if ws is not None:
                        takers.append(fn.__qualname__)
                        assert ws.default is inspect.Parameter.empty, fn.__qualname__
                    out = parameters.get("out")
                    if module is sim and out is not None:
                        writers.append(fn.__qualname__)
                        assert out.default is inspect.Parameter.empty, fn.__qualname__
        assert {"chemotaxis_array", "chemotaxis_transpose", "cell_gradient_sq",
                "hessian_frobenius_sq", "Control.slice_at", "Control.sample",
                "Control.scatter", "_SplitDiffusion.solve", "step",
                "_comparison_step"} <= set(takers)
        assert {"_SplitDiffusion.solve", "_mobility_and_reaction", "step",
                "_comparison_step", "Control.scatter"} <= set(writers)
        for solver in (simulate, solve_comparison):
            assert "ws" not in inspect.signature(solver).parameters


class TestSimulate:
    @pytest.mark.parametrize("t_final, n", [(1.0, 399), (0.5, 2000), (2.0, 2000)])
    def test_steps_of_t_final_over_n_save_n_plus_one_levels(self, t_final, n):
        # t += dt falls short of t_final by about 1e-14 after n steps; that
        # remainder is taken with the last step, not as a sliver step of its own
        g = Grid.unit_box((8,))
        p = params(t_final=t_final)
        traj = simulate(Field.full(g, 1.0), Field.full(g, 1.0), None, p, t_final / n)
        assert traj.n_levels == n + 1 and traj.times[-1] == t_final
        assert traj.dt_history.min() > 0.5 * t_final / n
        assert_step_ladder(traj.dt_history, traj.events, t_final, t_final / n)
        comparison = solve_comparison(Field.full(g, 1.0), None, p, t_final / n)
        assert comparison.times.size == n + 1 and comparison.times[-1] == t_final

    def test_grid_mismatch(self, grid):
        other = Grid.unit_box((8,))
        with pytest.raises(GridMismatchError, match="u0 and v0"):
            simulate(Field.zeros(grid), Field.zeros(other), None, params(), 0.01)
        with pytest.raises(GridMismatchError, match="control"):
            simulate(Field.zeros(grid), Field.zeros(grid),
                     Control.zero(other, 1.0), params(), 0.01)

    def test_negative_initial_state_names_the_cell(self, grid):
        u0 = np.ones(grid.dims)
        u0[5] = -0.5
        with pytest.raises(ValueError, match=r"u0 must be nonnegative, got -0.5 "
                                             r"at cell \(5,\)"):
            simulate(Field(grid, u0), Field.zeros(grid), None, params(), 0.01)

    @pytest.mark.parametrize("dims", [(16,), (8, 6), (5, 4, 6)])
    def test_initial_fields_are_left_unchanged(self, dims):
        # the steps read the initial arrays in place, with no copy to guard them
        g = Grid.unit_box(dims)
        rng = np.random.default_rng(4)
        u0 = Field(g, rng.uniform(0.0, 2.0, dims))
        v0 = Field(g, rng.uniform(0.2, 1.0, dims))
        before = u0.values.copy(), v0.values.copy()
        traj = simulate(u0, v0, Control.constant(g, 2.0, 0.05),
                        params(t_final=0.05), 0.01)
        assert traj.dt_history.size >= 5
        assert u0.values.tobytes() == before[0].tobytes()
        assert v0.values.tobytes() == before[1].tobytes()

    def test_zero_horizon(self, grid):
        p = params(t_final=0.0)
        traj = simulate(Field.full(grid, 1.0), Field.full(grid, 1.0), None, p, 0.1)
        assert traj.n_levels == 1
        assert traj.times[0] == 0.0

    def test_equilibrium_run(self, grid):
        p = params(t_final=0.5)
        traj = simulate(Field.zeros(grid), Field.full(grid, 3.0), None, p, 0.05)
        assert np.abs(traj.u).max() == 0.0
        assert traj.v == pytest.approx(3.0, rel=1e-12)
        assert traj.times[-1] == pytest.approx(0.5)

    def test_exponential_growth_first_order(self, grid):
        lam, T = 0.8, 0.5
        p = params(t_final=T)
        errors = []
        for dt in (0.05, 0.025, 0.0125):
            ctrl = Control.constant(grid, lam, T)
            traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), ctrl, p, dt)
            exact = np.exp(lam * T)
            # uniform stepping: the discrete solution is the explicit product
            n = round(T / dt)
            discrete = (1.0 - dt * lam) ** (-n)
            assert traj.v[-1].max() == pytest.approx(discrete, rel=1e-12)
            errors.append(abs(traj.v[-1].max() - exact))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 0.9

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    def test_mass_trace_constant(self, grid, s):
        rng = np.random.default_rng(int(s))
        u0 = Field(grid, rng.uniform(0.0, 2.0, grid.dims))
        v0 = Field(grid, rng.uniform(0.2, 1.0, grid.dims))
        traj = simulate(u0, v0, None, params(s=s), 5e-3)
        drift = np.abs(np.diff(traj.mass_trace)).max() / abs(traj.mass_trace[0])
        assert drift <= 1e-12

    def test_positivity_never_violated(self, grid):
        ctrl = control_preset(grid, "random", 0.25, seed=8, amplitude=3.0, times=4)
        u0 = field_preset(grid, "gaussian", amplitude=3.0, base=0.1, width=0.08)
        v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.9)
        traj = simulate(u0, v0, ctrl, params(s=2.0), 5e-3)
        assert traj.u.min() >= 0.0
        assert traj.v.min() >= 0.0

    def test_adaptive_recovers_from_cfl(self, grid):
        # start from a steep chemical ramp so the first attempts are rejected
        x = grid.axis_centers(0)
        u0 = Field.full(grid, 1.0)
        v0 = Field(grid, 20.0 * x)
        traj = simulate(u0, v0, None, params(t_final=0.05), 0.02)
        assert len(traj.events) > 0
        assert traj.times[-1] == pytest.approx(0.05)
        assert traj.u.min() >= 0.0
        assert_step_ladder(traj.dt_history, traj.events, 0.05, 0.02)

    def test_step_ladder_halves_redoubles_caps_and_clips(self, grid):
        # dt_max * f = 1.5 breaks the M-matrix bound until the control vanishes
        values = np.array([30.0, 30.0, 0.0, 0.0])[:, None] * np.ones(grid.dims)
        ctrl = Control(grid, [0.0, 0.3, 0.31, 2.0], values)
        p, dt_max = params(t_final=1.43), 0.05
        v0 = Field.full(grid, 1.0)
        traj = simulate(Field.zeros(grid), v0, ctrl, p, dt_max)
        assert_step_ladder(traj.dt_history, traj.events, p.t_final, dt_max)
        dts = traj.dt_history
        # rejected at t = 0 and again when re-doubling at t = 0.25
        assert [(e["t"], e["dt"]) for e in traj.events] == \
            [(0.0, dt_max), (pytest.approx(0.25), dt_max)]
        assert np.any(dts[1:] == 2.0 * dts[:-1])  # re-doubled after the control
        assert dts.max() == dt_max and (dts == dt_max).sum() > 10  # capped
        assert dts[-1] == pytest.approx(0.03)  # clipped to the horizon
        # the unpaired comparison rejects the same steps (dt * max f~ >= 1)
        w = solve_comparison(v0, ctrl, p, dt_max)
        assert np.array_equal(w.times, traj.times)
        assert [(e["t"], e["dt"]) for e in w.events] == \
            [(e["t"], e["dt"]) for e in traj.events]
        # replaying the accepted steps rejects none
        paired = solve_comparison(v0, ctrl, p, dt_max, dt_history=traj.dt_history)
        assert paired.events == []

    def test_stiffness_failure(self, grid):
        huge = Control.constant(grid, 5e12, 1.0)
        with pytest.raises(StiffnessError):
            simulate(Field.zeros(grid), Field.full(grid, 1.0), huge,
                     params(t_final=1.0), 0.1)

    @pytest.mark.parametrize("case", ["below", "at", "above"])
    def test_level_stack_holds_the_levels_each_step_returned(self, monkeypatch, grid,
                                                             case):
        # the stack starts with 1 + ceil(t_final / dt_max) rows.  A horizon a
        # hair past 8 steps leaves one of them unfilled and 8 steps fill them
        # all; a control that breaks the M-matrix bound at dt_max halves the
        # step, and the 16 half steps overflow the rows
        dt = 1.0 / 64  # exact in binary, so the steps land on the horizon
        t_final = 8 * dt * (1.0 + 1e-15 if case == "below" else 1.0)
        rows = sim._rows_without_rejections(t_final, dt)
        accepted = []
        real_step = sim.step

        def recording_step(*args):
            out = real_step(*args)
            accepted.append(([a.copy() for a in out], args[5]))  # levels, dt
            return out

        monkeypatch.setattr(sim, "step", recording_step)
        u0 = field_preset(grid, "gaussian", amplitude=1.0, base=0.5, width=0.2)
        v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.2)
        ctrl = Control.constant(grid, 100.0, t_final) if case == "above" else None
        traj = simulate(u0, v0, ctrl, params(t_final=t_final), dt)
        assert (traj.n_levels > rows) == bool(traj.events) == (case == "above")
        assert (traj.n_levels < rows) == (case == "below")
        assert len(accepted) == traj.n_levels - 1
        times = np.cumsum([dt for _, dt in accepted])
        assert np.array_equal(traj.u, np.stack([u0.values] + [x[0] for x, _ in accepted]))
        assert np.array_equal(traj.v, np.stack([v0.values] + [x[1] for x, _ in accepted]))
        assert np.array_equal(traj.times, np.concatenate(([0.0], times)))

    def test_m_stabilization(self, grid):
        # truncation never activates when the density stays below the level
        u0 = field_preset(grid, "gaussian", amplitude=1.5, base=0.1, width=0.1)
        v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.5)
        runs = {}
        for m in (4.0, 8.0):
            runs[m] = simulate(u0, v0, None, params(s=2.0, m=m), 5e-3)
        assert np.abs(runs[4.0].u - runs[8.0].u).max() <= 1e-8
        assert np.abs(runs[4.0].v - runs[8.0].v).max() <= 1e-8

    def test_two_dimensional_run(self):
        g2 = Grid.unit_box((12, 12))
        g2 = g2.with_mask(g2.box_mask([(0.0, 0.5), (0.0, 1.0)]))
        p = params(s=2.0, t_final=0.1)
        u0 = field_preset(g2, "gaussian", amplitude=2.0, base=0.2, width=0.15,
                          center=[0.7, 0.5])
        v0 = field_preset(g2, "cosine", base=1.0, amplitude=0.4)
        ctrl = Control.constant(g2, 2.0, p.t_final)
        traj = simulate(u0, v0, ctrl, p, 5e-3)
        drift = np.abs(np.diff(traj.mass_trace)).max() / traj.mass_trace[0]
        assert drift <= 1e-12
        assert traj.u.min() >= 0.0 and traj.v.min() >= 0.0
        w = solve_comparison(v0, ctrl, p, 5e-3, times=traj.times)
        assert (traj.v - w.w).max() <= 1e-10

    def test_three_dimensional_run(self):
        g3 = Grid.unit_box((5, 5, 5))
        p = params(s=1.0, t_final=0.02)
        rng = np.random.default_rng(17)
        u0 = Field(g3, rng.uniform(0.0, 1.0, g3.dims))
        v0 = Field(g3, rng.uniform(0.2, 1.0, g3.dims))
        traj = simulate(u0, v0, None, p, 5e-3)
        drift = np.abs(np.diff(traj.mass_trace)).max() / traj.mass_trace[0]
        assert drift <= 1e-12
        assert traj.u.min() >= 0.0 and traj.v.min() >= 0.0

    def test_coupled_self_convergence(self, grid):
        # full nonlinear controlled system against a fine-step reference
        g = grid.with_mask(grid.box_mask([(0.0, 0.5)]))
        p = params(s=2.0, t_final=0.2)
        u0 = field_preset(g, "gaussian", amplitude=1.5, base=0.2, width=0.12)
        v0 = field_preset(g, "cosine", base=1.0, amplitude=0.3)
        ctrl = control_preset(g, "random", p.t_final, seed=5, amplitude=2.0,
                              times=5)
        ref = simulate(u0, v0, ctrl, p, 2.5e-4)
        errors = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = simulate(u0, v0, ctrl, p, dt)
            assert not traj.events
            errors.append(max(np.abs(traj.u[-1] - ref.u[-1]).max(),
                              np.abs(traj.v[-1] - ref.v[-1]).max()))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 0.9

    def test_control_must_cover_horizon(self, grid):
        short = Control(grid, [0.0, 0.1], np.zeros((2,) + grid.dims))
        with pytest.raises(ValueError, match="horizon"):
            simulate(Field.zeros(grid), Field.full(grid, 1.0), short,
                     params(t_final=0.5), 0.01)


class TestTrajectory:
    @pytest.mark.parametrize("dims", [(32,), (12, 10), (6, 5, 4)])
    def test_clock_and_mass_trace_are_the_steppers(self, monkeypatch, dims):
        # a steep chemical ramp rejects the first steps, and a horizon off
        # the step ladder clips the last one.  The derived times are the
        # stepper's own t += dt and the mass trace the integral of each level
        # as it was accepted, the values simulate once stored, bit for bit
        g = Grid.unit_box(dims)
        clock, masses = [0.0], []
        adaptive_steps = sim._adaptive_steps

        def recording(advance, state, *args):
            masses.append(integrate(g, state[0]))
            for t, dt, new in adaptive_steps(advance, state, *args):
                clock.append(t)
                masses.append(integrate(g, new[0]))
                yield t, dt, new

        monkeypatch.setattr(sim, "_adaptive_steps", recording)
        ramp = 20.0 * g.cell_centers()[0]
        traj = simulate(Field.full(g, 1.0), Field(g, ramp), None, params(t_final=0.053),
                        0.02)
        halvings = np.log2(0.02 / traj.dt_history[-1])
        assert traj.events and halvings != round(halvings)  # clipped: off the ladder
        assert traj.times.tobytes() == np.array(clock).tobytes()
        assert traj.mass_trace.tobytes() == np.array(masses).tobytes()

    def test_frozen_with_a_read_only_clock_derived_once(self, grid):
        traj = simulate(Field.full(grid, 1.0), Field.full(grid, 1.0), None,
                        params(t_final=0.1), 0.02)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.dt_history = traj.dt_history[:2]
        with pytest.raises(ValueError, match="read-only"):
            traj.dt_history[-1] = 0.0
        assert traj.times is traj.times and traj.mass_trace is traj.mass_trace
        # a trajectory keeps its own copy of the steps it is given
        steps = [0.02] * 5
        built = dataclasses.replace(traj, dt_history=steps)
        steps[0] = 1.0
        assert built.dt_history.tolist() == [0.02] * 5

    @pytest.mark.parametrize("name", ["u", "v"])
    @pytest.mark.parametrize("shape", [(5, 32), (7, 32), (6, 31), (6,)])
    def test_levels_must_be_one_more_than_the_steps(self, grid, name, shape):
        traj = simulate(Field.full(grid, 1.0), Field.full(grid, 1.0), None,
                        params(t_final=0.1), 0.02)
        assert traj.dt_history.size == 5
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must hold 6 levels of (32,), one more than the steps of "
                f"dt_history, found shape {shape}")):
            dataclasses.replace(traj, **{name: np.ones(shape)})


    def test_levels_and_derived_records_are_read_only_views(self, grid):
        traj = simulate(Field.full(grid, 1.0), Field.full(grid, 1.0), None,
                        params(t_final=0.1), 0.02)
        mass = traj.mass_trace[-1]
        for name in ("u", "v", "times", "mass_trace"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(traj, name)[-1] *= 2.0
        # no write reached a level, so the cached trace still holds
        assert traj.mass_trace[-1] == mass == integrate(grid, traj.u[-1])
        # the levels are views of the caller's arrays, which stay writable
        u, v = np.array(traj.u), np.array(traj.v)
        built = dataclasses.replace(traj, u=u, v=v)
        assert np.shares_memory(built.u, u) and np.shares_memory(built.v, v)
        assert not built.u.flags.writeable and u.flags.writeable and v.flags.writeable
        u[-1] *= 2.0
        assert built.u[-1].tobytes() == u[-1].tobytes()

    @pytest.mark.parametrize("steps", [[0.5, np.inf], [1.0, 1e-17], [0.1, 0.0],
                                       [0.1, -0.05, 0.1], [0.1, np.nan], [1e308, 1e308]],
                             ids=["infinite", "absorbed", "zero", "negative", "nan",
                                  "overflowing"])
    def test_clock_refuses_steps_that_do_not_advance_it(self, grid, steps):
        traj = simulate(Field.full(grid, 1.0), Field.full(grid, 1.0), None,
                        params(t_final=0.1), 0.02)
        built = dataclasses.replace(traj, dt_history=steps,
                                    u=traj.u[:len(steps) + 1], v=traj.v[:len(steps) + 1])
        with pytest.raises(ValueError, match=re.escape(
                "dt_history must hold steps > 0 that advance the clock")):
            built.times


class TestSimulateAdjoint:
    def test_needs_run_saved_every_step(self, grid):
        p = params(t_final=0.1)
        u0, v0 = Field.full(grid, 0.5), Field.full(grid, 1.0)
        ctrl = Control.constant(grid, 0.3, 0.1)
        full = simulate(u0, v0, ctrl, p, 0.01)
        # a trajectory saved every third step, as an older version wrote it,
        # is refused when it is built: it has more steps than intervals
        with pytest.raises(ValueError, match="one more than the steps of dt_history"):
            dataclasses.replace(full, u=full.u[::3], v=full.v[::3])

    def test_uncontrolled_pass_is_the_zero_control_pass(self, grid):
        # the pass once refused an uncontrolled run; that run is now the run
        # under the zero control, and so is its reverse pass, bit for bit
        p = params(t_final=0.1)
        u0 = field_preset(grid, "gaussian", amplitude=2.0, width=0.15, base=0.1)
        v0 = Field.full(grid, 1.0)
        runs = [simulate(u0, v0, control, p, 0.01)
                for control in (None, Control.zero(grid, 0.1))]
        u_bar, v_bar = np.random.default_rng(5).normal(size=(2,) + runs[0].u.shape)
        passes = [sim.simulate_adjoint(traj, u_bar, v_bar) for traj in runs]
        assert passes[0].shape == (2,) + grid.dims
        assert np.any(passes[0] != 0.0)
        assert passes[0].tobytes() == passes[1].tobytes()

    def test_zero_seed_gives_zero_gradient(self, grid):
        p = params(t_final=0.1)
        ctrl = Control.constant(grid, 0.3, 0.1)
        traj = simulate(Field.full(grid, 0.5), Field.full(grid, 1.0), ctrl, p, 0.01)
        f_bar = sim.simulate_adjoint(traj, np.zeros_like(traj.u), np.zeros_like(traj.v))
        assert f_bar.shape == ctrl.values.shape
        assert np.all(f_bar == 0.0)

    @pytest.mark.parametrize("dims", [(24,), (9, 6), (5, 4, 3)])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("m", [8.0, 0.6], ids=["below_knee", "truncated"])
    @pytest.mark.parametrize("lattice_end", [0.2 - 1e-14, 0.35], ids=["clamped", "inside"])
    def test_matches_allocating_oracle(self, dims, s, m, lattice_end):
        # a partial control region; a control lattice that ends a round-off
        # short of the horizon clamps the last step's slice to its end
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.0, 0.6)] * len(dims)))
        rng = np.random.default_rng(len(dims))
        r_sq = sum((c - 0.4) ** 2 for c in g.cell_centers())
        u0 = Field(g, 1.5 * np.exp(-r_sq / 0.05))
        v0 = Field(g, rng.uniform(0.8, 1.2, dims))
        ctrl = Control(g, np.linspace(0.0, lattice_end, 5), rng.uniform(-2.0, 2.0, (5,) + dims))
        traj = simulate(u0, v0, ctrl, params(s=s, m=m, t_final=0.2), dt_max=0.02)
        assert (traj.u.max() > m) == (m < 1.0)
        clamped = [ctrl._bracket(float(t))[1] is None for t in traj.times[1:]]
        assert clamped[-1] == (lattice_end < 0.2) and not any(clamped[:-1])
        u_bar, v_bar = rng.normal(size=traj.u.shape), rng.normal(size=traj.v.shape)
        got = sim.simulate_adjoint(traj, u_bar, v_bar)
        assert got.tobytes() == simulate_adjoint_oracle(traj, u_bar, v_bar).tobytes()

    def test_reverse_steps_allocate_no_level_sized_array(self, monkeypatch):
        dims = (24, 24, 24)
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.25, 0.75)] * len(dims)))
        rng = np.random.default_rng(7)
        p = params(t_final=0.004)
        ctrl = Control(g, [0.0, p.t_final], rng.uniform(-1.0, 1.0, (2,) + dims))
        traj = simulate(Field(g, rng.uniform(0.5, 2.0, dims)),
                        Field(g, rng.uniform(0.9, 1.1, dims)), ctrl, p, 1e-3)
        assert traj.u.max() <= p.m and traj.dt_history.size == 4
        u_bar, v_bar = rng.normal(size=traj.u.shape), rng.normal(size=traj.v.shape)
        # each reverse step starts by fetching its cached solver: mark the
        # traced memory there, and restart the peak
        marks, solver = [], sim._diffusion_solver

        def step_start(grid, dt):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return solver(grid, dt)
        monkeypatch.setattr(sim, "_diffusion_solver", step_start)
        tracemalloc.start()
        try:
            sim.simulate_adjoint(traj, u_bar, v_bar)
            marks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        # step i runs from mark i to mark i + 1; the first one warms the
        # workspace's views
        rises = [peak - current for (current, _), (_, peak) in zip(marks[1:-1], marks[2:])]
        assert len(rises) == 3
        assert max(rises) < g.n_cells * 8


class TestComparison:
    def test_pure_heat_flow(self, grid):
        v0 = field_preset(grid, "cosine", base=1.0, amplitude=0.8)
        p = params(t_final=0.25)
        w = solve_comparison(v0, None, p, 5e-3)
        masses = w.w.reshape(w.times.size, -1).sum(axis=1) * grid.cell_volume
        assert np.abs(np.diff(masses)).max() <= 1e-12 * abs(masses[0])
        maxima = w.w.reshape(w.times.size, -1).max(axis=1)
        assert np.all(np.diff(maxima) <= 1e-13)

    def test_exponential_growth(self, grid):
        lam, T, dt = 0.6, 0.5, 0.05
        ctrl = Control.constant(grid, lam, T)
        w = solve_comparison(Field.full(grid, 1.0), ctrl, params(t_final=T), dt)
        n = round(T / dt)
        assert w.w[-1].max() == pytest.approx((1.0 - dt * lam) ** (-n), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dominates_paired_concentration(self, grid, seed):
        p = params(s=2.0, t_final=0.25)
        ctrl = control_preset(grid, "random", p.t_final, seed=seed, amplitude=4.0,
                              times=5)
        u0 = field_preset(grid, "random", seed=seed + 50, low=0.0, high=2.0)
        v0 = field_preset(grid, "random", seed=seed + 90, low=0.0, high=1.5)
        traj = simulate(u0, v0, ctrl, p, 5e-3)
        w = solve_comparison(v0, ctrl, p, 5e-3, times=traj.times)
        assert (traj.v - w.w).max() <= 1e-10

    def test_rejects_negative_initial(self, grid):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_comparison(Field(grid, np.full(grid.dims, -1.0)), None,
                             params(), 0.01)

    @pytest.mark.parametrize("dt_max", [0.0, -0.01, np.nan, np.inf])
    def test_adaptive_solve_rejects_bad_dt_max(self, grid, dt_max):
        with pytest.raises(ValueError, match="dt_max must be positive"):
            solve_comparison(Field.full(grid, 1.0), None, params(), dt_max)

    @pytest.mark.parametrize("pairing", [{}, {"times": np.linspace(0.0, 1.0, 11)},
                                         {"dt_history": np.full(10, 0.1)}],
                             ids=["adaptive", "times", "dt_history"])
    def test_control_must_cover_horizon(self, grid, pairing):
        # the horizon is t_final = 1 when adaptive, else the last paired time
        short = Control.constant(grid, 0.5, 0.5)
        w0, p = Field.full(grid, 1.0), params(t_final=1.0)
        with pytest.raises(ValueError, match="horizon"):
            solve_comparison(w0, short, p, 0.1, **pairing)
        with pytest.raises(GridMismatchError, match="control"):
            solve_comparison(w0, Control.zero(Grid.unit_box((8,)), 1.0), p, 0.1,
                             **pairing)
        if pairing:  # six levels, the last at 0.5, where the control ends
            paired = {key: value[:6 - (key == "dt_history")]
                      for key, value in pairing.items()}
            assert solve_comparison(w0, short, p, 0.1, **paired).times.size == 6


    @pytest.mark.parametrize("dims", [(32,), (12, 10), (6, 5, 4)])
    def test_times_and_steps_pair_alike(self, dims):
        # a steep chemical ramp rejects the first steps and a horizon off the
        # step ladder clips the last one; pairing by the run's times is
        # pairing by their steps, and either replays the run's clock
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.0, 0.5)] * len(dims)))
        p = params(s=2.0, t_final=0.053)
        ctrl = control_preset(g, "random", p.t_final, seed=len(dims), amplitude=3.0,
                              times=4)
        v0 = Field(g, 20.0 * g.cell_centers()[0])
        traj = simulate(Field.full(g, 1.0), v0, ctrl, p, 0.02)
        assert traj.events
        by_times = solve_comparison(v0, ctrl, p, 0.02, times=traj.times)
        by_steps = solve_comparison(v0, ctrl, p, 0.02, dt_history=np.diff(traj.times))
        assert by_times.w.tobytes() == by_steps.w.tobytes()
        assert by_times.times.tobytes() == by_steps.times.tobytes() == traj.times.tobytes()
        assert (traj.v - by_times.w).max() <= 0.0

    @pytest.mark.parametrize("pairing, message", [
        ({"times": [0.0, np.nan]}, "paired times must be finite and increase strictly from 0"),
        ({"dt_history": [0.5, np.inf]}, "dt_history must hold steps > 0 that advance the clock"),
        ({"dt_history": [1.0, 1e-17]}, "dt_history must hold steps > 0 that advance the clock"),
    ], ids=["times_nan", "dt_history_infinite", "dt_history_absorbed"])
    def test_bad_pairing_is_refused_before_the_control(self, monkeypatch, grid, pairing,
                                                       message):
        # the error names the pairing, not a control the caller never gave
        def no_control(*args):
            raise AssertionError("a control was built for a bad pairing")

        monkeypatch.setattr(sim, "_entry_control", no_control)
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_comparison(Field.full(grid, 1.0), None, params(), 0.1, **pairing)

    def test_record_is_frozen_with_read_only_levels(self, grid):
        w = solve_comparison(Field.full(grid, 1.0), None, params(t_final=0.1), 0.02)
        assert w.dt_history.size == 5 and w.w.shape == (6, 32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.w = w.w[:2]
        for name in ("w", "dt_history", "times"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(w, name)[-1] *= 2.0
        assert w.times is w.times
        for shape in [(5, 32), (7, 32), (6, 31)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"w must hold 6 levels of (32,), one more than the steps of "
                    f"dt_history, found shape {shape}")):
                dataclasses.replace(w, w=np.ones(shape))


class TestWeakResidual:
    def test_equilibrium_is_exact(self, grid):
        traj = simulate(Field.zeros(grid), Field.full(grid, 2.0), None,
                        params(t_final=0.2), 0.02)
        phi = np.random.default_rng(0).uniform(-1, 1, grid.dims)
        assert abs(weak_residual(traj, phi)) <= 1e-13

    def test_constant_test_function_sees_mass_drift(self, grid):
        rng = np.random.default_rng(2)
        u0 = Field(grid, rng.uniform(0.0, 2.0, grid.dims))
        v0 = Field(grid, rng.uniform(0.1, 1.0, grid.dims))
        traj = simulate(u0, v0, None, params(s=2.0), 5e-3)
        assert abs(weak_residual(traj, np.ones(grid.dims))) <= 1e-12

    def test_first_order_under_joint_refinement(self):
        # the footprint is O(dt) in time plus O(h) from the upwind mobility,
        # so dt and h are refined together
        p = params(s=2.0, t_final=0.2)
        residuals = []
        for n, dt in ((32, 0.004), (64, 0.002), (128, 0.001)):
            g = Grid.unit_box((n,))
            u0 = field_preset(g, "gaussian", amplitude=1.0, base=0.2, width=0.15)
            v0 = field_preset(g, "cosine", base=1.0, amplitude=0.2)
            traj = simulate(u0, v0, None, p, dt)
            assert not traj.events  # the ladder must use the nominal steps
            phi = np.cos(np.pi * g.axis_centers(0))
            residuals.append(abs(weak_residual(traj, phi)))
        assert residuals[0] > residuals[1] > residuals[2]
        orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
        # asymptotically first order; observed orders approach 1 from below
        assert orders.min() >= 0.95

    def test_shape_mismatch(self, grid):
        traj = simulate(Field.zeros(grid), Field.full(grid, 1.0), None,
                        params(t_final=0.1), 0.02)
        # a level series is refused, not broadcast: the probe is one cell array
        with pytest.raises(ValueError, match="shape"):
            weak_residual(traj, np.ones((traj.n_levels,) + grid.dims))

    @pytest.mark.parametrize("dims", [(24,), (12, 10), (8, 6, 5), (96, 96), (24, 24, 24)])
    def test_matches_series_oracle_bit_for_bit(self, dims):
        # a controlled run off the box's symmetry, so no probe is vacuous
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask([(0.0, 0.5)] * len(dims)))
        p = params(s=2.0, t_final=0.05)
        u0 = field_preset(g, "gaussian", amplitude=1.5, base=0.2, width=0.2,
                          center=[0.3] * len(dims))
        v0 = field_preset(g, "cosine", base=1.0, amplitude=0.4)
        ctrl = control_preset(g, "random", p.t_final, seed=5, amplitude=2.0, times=4)
        traj = simulate(u0, v0, ctrl, p, 0.01)
        residuals = []
        for probe in _weak_probes(traj):
            series = np.broadcast_to(probe, (traj.n_levels,) + g.dims)
            residuals.append(weak_residual(traj, probe))
            assert residuals[-1].hex() == weak_residual_oracle(traj, series).hex()
        assert min(abs(r) for r in residuals[1:]) > 1e-12


class TestTrajectoryIO:
    def test_roundtrip(self, tmp_path, grid):
        ctrl = control_preset(grid, "random", 0.1, seed=4, amplitude=1.0, times=3)
        u0 = field_preset(grid, "gaussian", amplitude=1.0, base=0.5, width=0.2)
        v0 = Field.full(grid, 1.0)
        traj = simulate(u0, v0, ctrl, params(t_final=0.1), 0.02)
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        back = trajectory_from_dir(out)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.u, traj.u)
        assert np.array_equal(back.v, traj.v)
        assert np.array_equal(back.control.values, traj.control.values)
        assert back.params == traj.params

    def test_uncontrolled_roundtrip_writes_the_zero_control(self, tmp_path, grid):
        traj = simulate(Field.full(grid, 0.5), Field.full(grid, 1.0), None,
                        params(t_final=0.1), 0.02)
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        assert np.load(out / "control.npy").tobytes() == np.zeros((2, 32)).tobytes()
        back = trajectory_from_dir(out)
        assert back.control.times.tolist() == [0.0, 0.1]
        assert back.control.values.tobytes() == np.zeros((2, 32)).tobytes()
        assert np.array_equal(back.u, traj.u) and np.array_equal(back.v, traj.v)

    def test_uncontrolled_over_controlled_removes_the_old_control(self, tmp_path, grid):
        # the zero control overwrites the old control
        ctrl = control_preset(grid, "random", 0.1, seed=4, amplitude=1.0, times=3)
        out = tmp_path / "traj"
        for control in (ctrl, None):
            traj = simulate(Field.full(grid, 0.5), Field.full(grid, 1.0), control,
                            params(t_final=0.1), 0.02)
            trajectory_to_dir(traj, out)
        assert sorted(p.name for p in out.iterdir()) == \
            ["control.npy", "control_mask.npy", "manifest.json", "u.npy", "v.npy"]
        back = trajectory_from_dir(out).control
        assert back.times.tolist() == [0.0, 0.1]
        assert back.values.tobytes() == np.zeros((2, 32)).tobytes()

    def test_files_it_does_not_write_are_kept(self, tmp_path, grid):
        out = tmp_path / "traj"
        out.mkdir()
        for name in ("notes.txt", "w.npy"):
            (out / name).write_text("old\n")
        traj = simulate(Field.full(grid, 0.5), Field.full(grid, 1.0), None,
                        params(t_final=0.1), 0.02)
        trajectory_to_dir(traj, out)
        assert sorted(p.name for p in out.iterdir()) == \
            ["control.npy", "control_mask.npy", "manifest.json", "notes.txt", "u.npy",
             "v.npy", "w.npy"]
        assert (out / "notes.txt").read_text() == "old\n"

    @pytest.mark.parametrize("dims, bounds", [
        ((12,), [(0.2, 0.6)]),
        ((8, 6), [(0.0, 0.5), (0.3, 1.0)]),
        ((6, 5, 4), [(0.2, 0.8), (0.0, 0.5), (0.5, 1.0)]),
    ])
    def test_control_mask_roundtrip(self, tmp_path, dims, bounds):
        g = Grid.unit_box(dims)
        g = g.with_mask(g.box_mask(bounds))
        assert 0 < g.control_mask.sum() < g.n_cells
        ctrl = control_preset(g, "random", 0.04, seed=2, amplitude=1.0, times=3)
        traj = simulate(Field.full(g, 0.5), Field.full(g, 1.0), ctrl,
                        params(t_final=0.04), 0.02)
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        back = trajectory_from_dir(out)
        assert back.grid.compatible_with(g)
        assert np.array_equal(back.control.values, traj.control.values)

    def test_negative_control_accepted(self, tmp_path, grid, corrupt_npy):
        ctrl = control_preset(grid, "constant", 0.1, amplitude=-2.0)
        traj = simulate(Field.full(grid, 0.5), Field.full(grid, 1.0), ctrl,
                        params(t_final=0.1), 0.02)
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        assert np.array_equal(trajectory_from_dir(out).control.values, ctrl.values)
        corrupt_npy(out / "control.npy", "negative")
        assert trajectory_from_dir(out).control.values.reshape(-1)[-1] == -5e-324

    # times and mass_trace are keys of the format before dt_history was the
    # one record of the clock; they are refused as unknown
    @pytest.mark.parametrize("key", [*sim._MANIFEST_KEYS, "note", "times", "mass_trace"])
    def test_manifest_holds_exactly_the_keys_written(self, tmp_path, grid, key):
        # a manifest without control_times once loaded as an uncontrolled run
        ctrl = control_preset(grid, "constant", 0.1, amplitude=2.0)
        traj = simulate(Field.full(grid, 0.5), Field.full(grid, 1.0), ctrl,
                        params(t_final=0.1), 0.02)
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        manifest = json.loads((out / "manifest.json").read_text())
        if key in manifest:
            del manifest[key]
        else:
            manifest[key] = 1
        (out / "manifest.json").write_text(json.dumps(manifest))
        what = "missing" if key in sim._MANIFEST_KEYS else "unknown"
        with pytest.raises(TrajectoryFormatError, match=f"{what} key '{key}'"):
            trajectory_from_dir(out)

    def test_null_control_times_beside_a_control_is_refused(self, tmp_path, grid):
        # null was an uncontrolled run's control_times, before every run
        # stored its control; it is refused beside a control.npy and alone
        ctrl = control_preset(grid, "constant", 0.1, amplitude=2.0)
        traj = simulate(Field.full(grid, 0.5), Field.full(grid, 1.0), ctrl,
                        params(t_final=0.1), 0.02)
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["control_times"] = None
        (out / "manifest.json").write_text(json.dumps(manifest))
        for _ in range(2):
            with pytest.raises(TrajectoryFormatError,
                               match="control_times must be a list of finite numbers"):
                trajectory_from_dir(out)
            (out / "control.npy").unlink(missing_ok=True)

    def test_malformed_rejected(self, tmp_path):
        d = tmp_path / "broken"
        d.mkdir()
        (d / "manifest.json").write_text("{not json")
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_dir(d)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_dir(tmp_path / "nope")

    # each case id names the state-file defect it planted when levels were
    # CSV rows; it now plants the level-stack defect that stands in for it
    @pytest.mark.parametrize("name, kind", [
        pytest.param("u.npy", "truncated", id="truncated"),
        pytest.param("u.npy", "level extra", id="duplicated"),
        pytest.param("v.npy", "bad magic", id="negative index"),
        pytest.param("v.npy", "transposed", id="index out of range"),
        pytest.param("u.npy", "float32", id="non-integer index"),
        pytest.param("u.npy", "nan", id="non-finite u"),
        pytest.param("u.npy", "negative", id="negative u"),
        pytest.param("v.npy", "negative", id="negative v"),
    ])
    def test_incomplete_state_csv_rejected(self, tmp_path, corrupt_npy, name, kind):
        g = Grid.unit_box((16, 16))
        traj = simulate(Field.zeros(g), Field.full(g, 1.0), None,
                        params(t_final=0.04), 0.02)
        out = tmp_path / "traj"
        trajectory_to_dir(traj, out)
        corrupt_npy(out / name, kind)
        with pytest.raises(TrajectoryFormatError, match=name):
            trajectory_from_dir(out)


class TestUncontrolledRun:
    """An uncontrolled run is the run under the zero control: ``None`` is
    turned into ``Control.zero`` once, on entry, and every output follows."""

    @pytest.mark.parametrize("dims", [(64,), (32, 24), (24, 24, 24)])
    def test_none_is_the_zero_control(self, tmp_path, dims):
        g = Grid.unit_box(dims)
        if len(dims) == 2:
            g = g.with_mask(g.box_mask([(0.25, 0.75), (0.0, 0.5)]))
        p = params(s=2.0 if len(dims) == 2 else 1.0, t_final=0.02)
        u0 = field_preset(g, "gaussian", amplitude=2.0, width=0.15)
        v0 = field_preset(g, "random", seed=3, low=0.9, high=1.1)
        cost = CostParams(gamma_u=1.0, gamma_v=1.0, gamma_f=0.1, q=3.0, M=3.0,
                          u_d=DesiredState.constant(0.0), v_d=DesiredState.constant(1.5))
        outputs = []
        for name, control in (("none", None), ("zero", Control.zero(g, p.t_final))):
            traj = simulate(u0, v0, control, p, 0.005)
            paired = solve_comparison(v0, control, p, 0.005, dt_history=traj.dt_history)
            adaptive = solve_comparison(v0, control, p, 0.005)
            report = energy.build_energy_report(traj, p)
            J = evaluate_J(traj, traj.control, cost, p.s)
            trajectory_to_dir(traj, tmp_path / name)
            outputs.append([
                traj.times, traj.u, traj.v, traj.dt_history, traj.mass_trace,
                traj.control.times, traj.control.values, paired.times, paired.w,
                adaptive.times, adaptive.w, report.energy,
                *(getattr(report, key) for key in energy._INTEGRALS),
                np.array([J.state_u, J.state_v, J.control])])
        for got, want in zip(*outputs):
            assert got.tobytes() == want.tobytes()
        names = sorted(path.name for path in (tmp_path / "none").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "zero").iterdir())
        assert len(names) == 5
        for name in names:
            got, want = ((tmp_path / run / name).read_bytes() for run in ("none", "zero"))
            if name == "manifest.json":
                got, want = (re.sub(rb'"created_at": "[^"]*"', b"", m) for m in (got, want))
            assert got == want, name


class TestTracedNames:
    """The benchmark traces the stepper by rebinding module attributes; a hot
    path that bypasses them would make its spans read 0 without failing."""

    def test_simulate_steps_and_transports_through_module_names(self, grid,
                                                                count_calls):
        steps = count_calls(sim.step)
        transports = count_calls(chemotaxis_array)
        # dt_max * f = 1.5 breaks the M-matrix bound until the control vanishes,
        # and the concentration ramp then breaks the CFL bound
        values = np.array([30.0, 30.0, 0.0, 0.0])[:, None] * np.ones(grid.dims)
        ctrl = Control(grid, [0.0, 0.05, 0.06, 0.3], values)
        x = grid.axis_centers(0)
        traj = simulate(Field.full(grid, 1.0), Field(grid, 10.0 * x), ctrl,
                        params(t_final=0.1), 0.05)
        cfl = sum("CFL" in e["reason"] for e in traj.events)
        assert 0 < cfl < len(traj.events)  # both kinds of rejection occur
        assert steps == {"sim.step": len(traj.dt_history) + len(traj.events)}
        # an M-matrix rejection stops the step before the transport
        assert sum(transports.values()) == len(traj.dt_history) + cfl


class TestFactorCache:
    def test_diffusion_factors_bounded(self):
        g = Grid.unit_box((16,))
        for k in range(20):
            fresh_step(g, full(g, 1.0), full(g, 1.0), full(g, 0.0), params(),
                       1e-3 * (1.0 + 0.1 * k))
        info = sim._diffusion_solver.cache_info()
        assert info.currsize == info.maxsize == sim._DIFFUSION_CACHE_SIZE
        sim._diffusion_solver(g, 1e-3 * (1.0 + 0.1 * 19))  # the most recent survives
        assert sim._diffusion_solver.cache_info().hits == info.hits + 1

    @pytest.mark.parametrize("u_level, s", [(1.0, 1.0), (30.0, 2.0)])
    def test_one_factor_per_axis_and_step_size(self, monkeypatch, u_level, s):
        # (30, 2) is stiff consumption: dt * max u^s reaches 27, where the
        # coupled v-matrix was refactored at every step
        factored = []
        axis_inverse = sim._axis_inverse
        monkeypatch.setattr(sim, "_axis_inverse",
                            lambda n, r: factored.append(n) or axis_inverse(n, r))
        g = Grid.unit_box((6, 7))
        p = params(s=s, m=40.0, t_final=0.1)
        ctrl = Control.constant(g, 5.0, p.t_final)
        u0 = Field(g, u_level * np.random.default_rng(3).uniform(0.5, 1.0, g.dims))
        traj = simulate(u0, Field.full(g, 1.0), ctrl, p, 0.03)
        assert not traj.events
        sizes = len(set(traj.dt_history.tolist()))
        assert sizes == 2 and factored == [6, 7] * sizes
        # the comparison's reaction is cellwise too, so it reuses those factors
        solve_comparison(Field.full(g, 1.0), ctrl, p, 0.03, dt_history=traj.dt_history)
        assert factored == [6, 7] * sizes

    @pytest.mark.parametrize("dims", [(24, 24, 24), (96, 96), (6, 7)])
    def test_equal_axes_share_one_inverse(self, monkeypatch, dims):
        factored = []
        axis_inverse = sim._axis_inverse
        monkeypatch.setattr(sim, "_axis_inverse",
                            lambda n, r: factored.append(n) or axis_inverse(n, r))
        g, dt = Grid.unit_box(dims), 0.01
        solver = sim._SplitDiffusion(g, dt)
        assert factored == sorted(set(dims))
        first = solver._inverses[0]
        assert all((x is first) == (n == dims[0]) for x, n in zip(solver._inverses, dims))
        # the same solve as with one inverse built per axis
        apart = sim._SplitDiffusion(g, dt)
        apart._inverses = [axis_inverse(n, dt / (h * h)) for n, h in zip(dims, g.spacing)]
        apart._last = apart._inverses[-1]
        b = np.random.default_rng(2).uniform(0.0, 1.0, g.n_cells)
        ws = Workspace(g)
        got, want = np.empty(g.n_cells), np.empty(g.n_cells)
        assert solver.solve(b, ws, got).tobytes() == apart.solve(b, ws, want).tobytes()


def split_diffusion_matrix(grid, dt):
    """``prod_k (I - dt*L_k)``, assembled from the test's own stencil."""
    out = sp.identity(grid.n_cells, format="csr")
    for lk in axis_laplacians(grid):
        out = out @ (sp.identity(grid.n_cells, format="csr") - dt * lk)
    return out


class TestSplitDiffusion:
    @given(dims=st.one_of(st.tuples(st.integers(2, 30)),
                          st.tuples(st.integers(2, 9), st.integers(2, 9)),
                          st.tuples(st.integers(2, 6), st.integers(2, 6),
                                    st.integers(2, 6))),
           data=st.data(), dt=st.floats(1e-4, 10.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inverts_the_product_of_axis_factors(self, dims, data, dt, seed):
        spacing = tuple(data.draw(st.floats(0.01, 2.0)) for _ in dims)
        g = Grid(dims, spacing)
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, g.n_cells)
        a = split_diffusion_matrix(g, dt)
        x = sim._diffusion_solver(g, dt).solve(b, Workspace(g), np.empty(g.n_cells))
        # backward error: the residual against the size of A and x
        norm_a = abs(a).sum(axis=1).max()
        assert np.abs(a @ x - b).max() <= 1e-12 * norm_a * np.abs(x).max()

    @given(dims=st.one_of(st.tuples(st.integers(2, 30)),
                          st.tuples(st.integers(2, 9), st.integers(2, 9)),
                          st.tuples(st.integers(2, 6), st.integers(2, 6),
                                    st.integers(2, 6))),
           data=st.data(), dt=st.floats(1e-4, 10.0),
           rise=st.sampled_from([1.0, 1e-15]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_axis_inverses_are_exact_and_the_solve_monotone(self, dims, data, dt, rise,
                                                            seed):
        spacing = tuple(data.draw(st.floats(0.01, 2.0)) for _ in dims)
        g = Grid(dims, spacing)
        for n, h in zip(dims, spacing):
            x = sim._axis_inverse(n, dt / (h * h))
            assert x.min() >= 0.0
            assert np.array_equal(x, x.T)
            assert np.abs(x.sum(axis=0) - 1.0).max() <= n * np.finfo(float).eps
        # b <= b' cellwise, equal on about half the cells and zero on a quarter;
        # a rise of 1e-15 moves b' by a few ulps
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 1.0, g.n_cells) * (rng.random(g.n_cells) < 0.75)
        b_up = b + rise * rng.uniform(0.0, 1.0, g.n_cells) * (rng.random(g.n_cells) < 0.5)
        solver, ws = sim._diffusion_solver(g, dt), Workspace(g)
        x, x_up = np.empty(g.n_cells), np.empty(g.n_cells)
        assert (solver.solve(b, ws, x) <= solver.solve(b_up, ws, x_up)).all()

    @pytest.mark.parametrize("rhs", ["point source", "sparse with a zero region"])
    def test_nonnegative_and_conservative_on_24_cubed(self, rhs):
        # the right-hand sides on which a DCT solve gave 1070 negative cells
        g = Grid.unit_box((24, 24, 24))
        rng = np.random.default_rng(5)
        b = np.zeros(g.dims)
        if rhs == "point source":
            b[3, 17, 11] = 1.0
        else:
            b[:12] = rng.uniform(0.0, 1.0, (12, 24, 24)) * (rng.random((12, 24, 24)) < 0.05)
        solver, ws = sim._diffusion_solver(g, 0.01), Workspace(g)
        x = solver.solve(b.ravel(), ws, np.empty(g.n_cells))
        assert x.min() >= 0.0
        assert abs(x.sum() - b.sum()) <= 1e-14 * b.sum()
        # constants stay constant, as under the Neumann diffusion itself
        ones = solver.solve(np.ones(g.n_cells), ws, np.empty(g.n_cells))
        assert np.abs(ones - 1.0).max() <= 1e-14


# grids up to 3D, kept small so that each example runs in milliseconds
grids = st.one_of(
    st.tuples(st.integers(4, 24)),
    st.tuples(st.integers(3, 8), st.integers(3, 8)),
    st.tuples(st.integers(3, 5), st.integers(3, 5), st.integers(3, 5)),
).map(Grid.unit_box)


class TestSplittingProperties:
    @given(grid=grids, dt_max=st.floats(2e-3, 0.02),
           f_frac=st.floats(0.05, 1.5), slope=st.floats(0.0, 40.0),
           s=st.sampled_from([1.0, 2.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_paired_runs_keep_the_guarantees(self, grid, dt_max, f_frac, slope, s,
                                             seed):
        # controls up to 1.5/dt_max press the dt*max f+ < 1 bound and steep
        # concentration ramps press the chemotaxis CFL bound; both get halved
        p = params(s=s, t_final=5 * dt_max)
        ctrl = control_preset(grid, "random", p.t_final, seed=seed % 2**31,
                              amplitude=f_frac / dt_max, times=3)
        rng = np.random.default_rng(seed)
        x = grid.axis_centers(0).reshape((-1,) + (1,) * (grid.ndim - 1))
        u0 = Field(grid, rng.uniform(0.0, 2.0, grid.dims))
        v0 = Field(grid, np.broadcast_to(0.5 + slope * x, grid.dims).copy())
        traj = simulate(u0, v0, ctrl, p, dt_max)
        assert traj.u.min() >= 0.0 and traj.v.min() >= 0.0
        mass = traj.mass_trace
        assert np.abs(np.diff(mass)).max() <= 1e-12 * mass[0]
        w = solve_comparison(v0, ctrl, p, dt_max, dt_history=traj.dt_history)
        assert w.w.min() >= 0.0
        # exact, not within round-off: division and the nonnegative solve are
        # monotone, and each comparison divisor is at most the concentration's
        assert (traj.v - w.w).max() <= 0.0

    @given(grid=grids, dt_max=st.floats(2e-3, 0.02), f_frac=st.floats(0.05, 0.99),
           u_max=st.floats(0.0, 40.0), s=st.sampled_from([1.0, 2.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_paired_domination_is_exact(self, grid, dt_max, f_frac, u_max, s, seed):
        # consumption up to dt * 40^3 = 1280 per step, and mixed-sign controls
        # up to 0.99/dt_max; paired on the run's saved times
        p = params(s=s, m=40.0, t_final=8 * dt_max)
        ctrl = control_preset(grid, "random", p.t_final, seed=seed % 2**31,
                              amplitude=f_frac / dt_max, times=4)
        rng = np.random.default_rng(seed)
        u0 = Field(grid, rng.uniform(0.0, u_max, grid.dims))
        v0 = Field(grid, rng.uniform(0.0, 3.0, grid.dims))
        traj = simulate(u0, v0, ctrl, p, dt_max)
        w = solve_comparison(v0, ctrl, p, dt_max, times=traj.times)
        assert np.array_equal(w.times, traj.times)
        assert (traj.v - w.w).max() <= 0.0
