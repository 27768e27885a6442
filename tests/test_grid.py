import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chemoctrl import Field, Grid, h1_seminorm, integrate, sim
from chemoctrl.grid import (
    Workspace,
    _second_difference,
    cell_gradient_sq,
    chemotaxis_array,
    chemotaxis_transpose,
    compact_faces,
    face_gradient,
    face_gradients,
    face_views,
    hessian_frobenius_sq,
    trapezoid_intervals,
    trapezoid_weights,
)
from conftest import (
    axis_laplacians,
    cell_gradient_sq_oracle,
    chemotaxis_array_oracle,
    chemotaxis_transpose_oracle,
    comparison_step_oracle,
    face_gradients_oracle,
    hessian_frobenius_sq_oracle,
    second_difference_oracle,
)


def random_field(grid, seed, low=-1.0, high=1.0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.uniform(low, high, size=grid.dims))


def laplacian(grid, a):
    """The discrete Laplacian: the second differences summed over the axes."""
    return sum(_second_difference(grid, k, g, face_views(np.empty(grid.dims), k))
               for k, g in enumerate(flat_gradients(grid, a)))


def flat_gradients(grid, a):
    """``a``'s face arrays of gradients, one per axis, as the kernels take them."""
    return [face_gradient(grid, a, k) for k in range(grid.ndim)]


class TestGridConstruction:
    def test_rejects_single_cell_axis(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            Grid((1, 4), (0.1, 0.1))

    # a fractional count was once truncated (16.5 cells became 16) and a bool
    # read as 1 cell; both are refused for what they are
    @pytest.mark.parametrize("make", [
        lambda: Grid((16.5,), (1 / 16,)),
        lambda: Grid.unit_box((16.5,)),
        lambda: Grid((True, 4), (0.5, 0.25)),
        lambda: Grid((4, np.True_), (0.25, 0.5)),
        lambda: Grid(("4",), (0.25,)),
        lambda: Grid((float("inf"),), (0.1,)),
        lambda: Grid((4, float("nan")), (0.25, 0.1)),
        lambda: Grid((None,), (0.1,)),
    ])
    def test_rejects_non_integral_or_bool_axis(self, make):
        with pytest.raises(ValueError, match="dims must be integers"):
            make()

    def test_accepts_numpy_integer_axes(self):
        g = Grid((np.int64(16), np.int32(4)), (1 / 16, 0.25))
        assert g.dims == (16, 4) and all(type(n) is int for n in g.dims)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            Grid((4,), (0.0,))

    def test_rejects_mask_shape_mismatch(self):
        with pytest.raises(ValueError, match="control_mask"):
            Grid((4,), (0.25,), control_mask=np.ones(5, dtype=bool))

    @pytest.mark.parametrize("entry", [0.5, 2.0, -1.0, np.nan, "0", None])
    def test_mask_entries_must_be_0_or_1(self, entry):
        # bools and numbers equal to 0 or 1 pass and are stored as bools
        for good in (True, 1.0, 0):
            mask = Grid((4,), (0.25,), control_mask=[1.0, False, good, 1]).control_mask
            assert mask.dtype == bool and mask.tolist() == [True, False, bool(good), True]
        with pytest.raises(ValueError, match=rf"control_mask value {entry!r} at \(2,\)"):
            Grid((4,), (0.25,), control_mask=[1.0, False, entry, 1])

    def test_default_mask_covers_domain(self):
        g = Grid.unit_box((8, 8))
        assert g.control_mask.all()
        assert g.n_cells == 64
        assert g.cell_volume == pytest.approx(1.0 / 64)

    def test_box_mask_selects_half(self):
        g = Grid.unit_box((10,))
        mask = g.box_mask([(0.0, 0.5)])
        assert mask.sum() == 5

    def test_field_size_mismatch(self):
        g = Grid.unit_box((4,))
        with pytest.raises(ValueError, match="values"):
            Field(g, np.zeros(5))

    def test_field_rejects_flat_values(self):
        g = Grid.unit_box((4, 8))
        with pytest.raises(ValueError, match=r"values have shape \(32,\)"):
            Field(g, np.arange(32.0))

    def test_field_rejects_nan(self):
        g = Grid.unit_box((4,))
        with pytest.raises(ValueError, match="non-finite"):
            Field(g, [0.0, np.nan, 0.0, 0.0])


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = Grid.unit_box((16, 16))
        out = laplacian(g, np.full(g.dims, 3.7))
        assert np.abs(out).max() == 0.0

    def test_hand_stencil_four_cells(self):
        # mirror ghosts reproduce (1, -1, -1, 1) for phi = (0, 1, 1, 0), h = 1
        g = Grid((4,), (1.0,))
        out = laplacian(g, np.array([0.0, 1.0, 1.0, 0.0]))
        assert out == pytest.approx([1.0, -1.0, -1.0, 1.0], abs=1e-14)

    def test_cosine_eigenfunction(self):
        g = Grid.unit_box((256,))
        phi = np.cos(np.pi * g.axis_centers(0))
        err = np.abs(laplacian(g, phi) + np.pi**2 * phi).max()
        assert err < 1e-2 * np.pi**2

    @pytest.mark.parametrize("dims", [(32,), (16, 16)])
    def test_integral_vanishes(self, dims):
        g = Grid.unit_box(dims)
        out = laplacian(g, random_field(g, seed=11).values)
        total = integrate(g, out)
        scale = np.abs(out).max() * g.volume
        assert abs(total) <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("dims", [(24,), (8, 8), (4, 5, 6)])
    def test_symmetric_negative_semidefinite(self, dims):
        g = Grid.unit_box(dims)
        for seed in range(3):
            a = random_field(g, seed=seed).values
            b = random_field(g, seed=seed + 100).values
            la = laplacian(g, a)
            lb = laplacian(g, b)
            lhs = (la * b).sum()
            rhs = (a * lb).sum()
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-11 * scale
            quad = (la * a).sum()
            assert quad <= 1e-11 * abs(quad + 1.0)

    def test_laplacian_matrix_matches_field_op(self):
        # the assembled operator is the same stencil, up to round-off
        for dims in [(24,), (8, 9), (4, 5, 6)]:
            g = Grid(dims, tuple(0.3 + 0.2 * k for k in range(len(dims))))
            phi = random_field(g, 3).values
            lap = laplacian(g, phi)
            assembled = (sum(axis_laplacians(g)) @ phi.ravel()).reshape(dims)
            assert np.abs(assembled - lap).max() <= 1e-14 * np.abs(lap).max()

    def test_second_order_convergence(self):
        # Neumann-compatible smooth profile; observed order >= 1.9
        errors = []
        for n in (16, 32, 64, 128):
            g = Grid.unit_box((n,))
            phi = np.cos(2 * np.pi * g.axis_centers(0))
            errors.append(np.abs(laplacian(g, phi) + (2 * np.pi) ** 2 * phi).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 1.9

    def test_second_order_convergence_2d(self):
        errors = []
        for n in (16, 32, 64):
            g = Grid.unit_box((n, n))
            cx, cy = g.cell_centers()
            phi = np.cos(np.pi * cx) * np.cos(2 * np.pi * cy)
            exact = -(np.pi**2 + (2 * np.pi) ** 2) * phi
            errors.append(np.abs(laplacian(g, phi) - exact).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 1.9


class TestChemotaxisDivergence:
    # the transport term alone, -div(mob * grad v), of chemotaxis_array

    def test_constant_v_gives_zero(self):
        g = Grid.unit_box((12,))
        mob = random_field(g, 0, 0.0, 2.0).values
        out = chemotaxis_array(g, mob, np.full(g.dims, 4.2), Workspace(g))[0]
        assert np.abs(out).max() == 0.0

    def test_zero_mobility_gives_zero(self):
        g = Grid.unit_box((12,))
        out = chemotaxis_array(g, np.zeros(g.dims), random_field(g, 1).values,
                               Workspace(g))[0]
        assert np.abs(out).max() == 0.0

    def test_hand_fluxes_three_cells(self):
        # uphill v: donor cells are on the left, fluxes 1 at both inner faces
        g = Grid((3,), (1.0,))
        out = chemotaxis_array(g, np.ones(3), np.array([0.0, 1.0, 2.0]), Workspace(g))[0]
        assert out == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)

    @pytest.mark.parametrize("dims", [(32,), (9, 7)])
    def test_integral_vanishes(self, dims):
        g = Grid.unit_box(dims)
        u = random_field(g, 5, 0.0, 3.0).values
        v = random_field(g, 6, 0.0, 1.0).values
        out = chemotaxis_array(g, u, v, Workspace(g))[0]
        scale = max(np.abs(out).max() * g.volume, 1.0)
        assert abs(integrate(g, out)) <= 1e-12 * scale


def divergence_from_fluxes(grid, fluxes):
    """Cell divergence of interior-face fluxes, zero flux at the boundary."""
    out = np.zeros(grid.dims)
    for k, fl in enumerate(fluxes):
        pad = [(0, 0)] * grid.ndim
        pad[k] = (1, 1)
        fp = np.pad(fl, pad, mode="constant")
        out += np.diff(fp, axis=k) / grid.spacing[k]
    return out


def donor_cell_reference(grid, mob, v):
    """Transport as ``-divergence_from_fluxes`` of the donor-cell face fluxes,
    and the outflow rate summed axis by axis at each donor cell."""
    fluxes = []
    rate = np.zeros(grid.dims)
    for k, h in enumerate(grid.spacing):
        lo = [slice(None)] * grid.ndim
        hi = [slice(None)] * grid.ndim
        lo[k] = slice(0, -1)
        hi[k] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        dv = np.diff(v, axis=k) / h
        fluxes.append(np.where(dv > 0, mob[lo], mob[hi]) * dv)
        acc = np.zeros(grid.dims)
        acc[lo] += np.where(dv > 0, dv, 0.0) / h
        acc[hi] += np.where(dv < 0, -dv, 0.0) / h
        rate += acc
    return -divergence_from_fluxes(grid, fluxes), np.where(mob > 0, rate, 0.0)


class TestChemotaxisArray:
    @given(dims=st.one_of(
               st.tuples(st.integers(2, 24)),
               st.tuples(st.integers(2, 8), st.integers(2, 8)),
               st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))),
           seed=st.integers(0, 2**32 - 1), zero_frac=st.floats(0.0, 1.0),
           ties=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_donor_cell_reference_bit_for_bit(self, dims, seed, zero_frac,
                                                      ties):
        grid = Grid.unit_box(dims)
        rng = np.random.default_rng(seed)
        mob = rng.uniform(0.0, 2.0, dims) * (rng.uniform(size=dims) >= zero_frac)
        v = rng.uniform(0.0, 1.0, dims)
        if ties:  # equal neighbours give zero face gradients
            v = np.round(v, 1)
        transport, rate = chemotaxis_array(grid, mob, v, Workspace(grid))
        ref_transport, ref_rate = donor_cell_reference(grid, mob, v)
        assert np.array_equal(transport, ref_transport)
        assert np.array_equal(rate, ref_rate)
        # signed zeros included
        assert transport.tobytes() == ref_transport.tobytes()
        assert rate.tobytes() == ref_rate.tobytes()


class TestChemotaxisTranspose:
    @given(dims=st.one_of(
               st.tuples(st.integers(2, 24)),
               st.tuples(st.integers(2, 8), st.integers(2, 8)),
               st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity(self, dims, seed):
        # with the donor-cell masks fixed the transport is linear in the
        # mobility and in v, so <T x, bar> = <x, T^t bar> for each argument
        grid = Grid.unit_box(dims)
        rng = np.random.default_rng(seed)
        mob = rng.uniform(0.0, 2.0, dims)
        v = rng.uniform(0.0, 1.0, dims)
        bar = rng.normal(size=dims)
        mob_bar, v_bar = chemotaxis_transpose(grid, mob, v, bar, Workspace(grid),
                                              (np.empty(dims), np.empty(dims)))

        a = rng.uniform(0.0, 1.0, dims)
        lhs = float((chemotaxis_array(grid, a, v, Workspace(grid))[0] * bar).sum())
        assert lhs == pytest.approx(float((a * mob_bar).sum()), rel=1e-12, abs=1e-12)

        b = rng.normal(size=dims)
        eps = 1e-7
        def downhill(w):
            return [np.diff(w, axis=k) > 0 for k in range(grid.ndim)]
        assume(all(map(np.array_equal, downhill(v), downhill(v + eps * b))))
        delta = chemotaxis_array(grid, mob, v + eps * b, Workspace(grid))[0] \
            - chemotaxis_array(grid, mob, v, Workspace(grid))[0]
        lhs = float((delta * bar).sum()) / eps
        scale = float(np.abs(b).sum() * np.abs(v_bar).max()) + 1.0
        assert abs(lhs - float((b * v_bar).sum())) <= 1e-6 * scale

    def test_zero_mobility_passes_no_v_gradient(self):
        grid = Grid.unit_box((6, 5))
        rng = np.random.default_rng(3)
        mob_bar, v_bar = chemotaxis_transpose(grid, np.zeros(grid.dims),
                                              rng.uniform(size=grid.dims),
                                              rng.normal(size=grid.dims), Workspace(grid),
                                              nan_outputs(grid))
        assert np.all(v_bar == 0.0)
        assert np.any(mob_bar != 0.0)


def kernel_inputs(dims, seed, scale):
    """A grid of uneven spacing and the arrays ``mob, v, bar, a`` on it.

    ``mob`` is zero in about a third of the cells, and ``v`` and ``a`` repeat
    their first layer along axis 0, so some face gradients are exactly zero.
    Every array is scaled by ``scale``, or cell by cell by one of 1, 1e-300,
    1e-160 and 1e150 when ``scale`` is ``"mixed"``: near 1e-300 products
    underflow, near 1e-160 squares land among the subnormals, and near 1e150
    squares of second differences reach about 1e300.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(dims, tuple(rng.uniform(0.05, 1.5, len(dims))))
    factor = rng.choice([1.0, 1e-300, 1e-160, 1e150], size=dims) if scale == "mixed" \
        else scale
    mob = rng.uniform(0.0, 2.0, dims) * factor
    mob[rng.uniform(size=dims) < 0.3] = 0.0
    v = np.round(rng.uniform(0.0, 3.0, dims)) * factor
    v[1] = v[0]
    a = rng.normal(size=dims) * factor
    a[1] = a[0]
    bar = rng.normal(size=dims) * factor
    return grid, mob, v, bar, a


def comparison_rate(a, dt):
    """A positive control part from the signed ``a``: ``-0.0`` where ``a`` is
    not positive, scaled so that ``dt * max`` is about 1/2."""
    return np.where(a > 0, a * (0.5 / (dt * np.abs(a).max())), -0.0)


def dirty_workspace(grid):
    """A workspace whose float arrays all hold NaN and whose mask is all True,
    so that a result which reads what a workspace held before shows."""
    ws = Workspace(grid)
    for a in ws.flat:
        a.fill(np.nan)
    ws.mask.fill(True)
    for _, _, padded, result, _, _ in ws.cross_pairs:
        padded.fill(np.nan)
        result.fill(np.nan)
    return ws


def nan_outputs(grid):
    """Two NaN-filled arrays of shape ``dims``, a kernel's output pair."""
    return np.full(grid.dims, np.nan), np.full(grid.dims, np.nan)


# the workspace cells chemotaxis_transpose writes, besides its mask
TRANSPOSE_WRITTEN = {0, 1, 2, 3}


def transpose_case(k, g, mob, v, bar, a):
    """``k(g, mob, v, bar, ws, out)`` on a :func:`dirty_workspace` into
    :func:`nan_outputs`, then, as the call left them, the workspace cells
    outside :data:`TRANSPOSE_WRITTEN` and the inputs, which the kernel must
    leave as they were; the oracle leaves them all alone."""
    ws = dirty_workspace(g)
    mob, v, bar = mob.copy(), v.copy(), bar.copy()
    out = k(g, mob, v, bar, ws, nan_outputs(g))
    return [*out, *(c for i, c in enumerate(ws.cells) if i not in TRANSPOSE_WRITTEN),
            mob, v, bar]


def nan_faces(grid):
    """One NaN-filled C-contiguous array of each face shape."""
    return [np.full(g.shape, np.nan) for g in face_gradients(grid, np.zeros(grid.dims))]


def face_gradients_into(g, a):
    """:func:`face_gradients` as the energy report forms them: each face array
    in the views of a NaN-filled level, made compact into a NaN-filled array."""
    return [compact_faces(face_gradient(g, a, k, face_views(np.full(g.dims, np.nan), k)),
                          g.dims, k, out) for k, out in enumerate(nan_faces(g))]


def workspace_case(kernel, oracle, kept=(), written=()):
    """The :data:`KERNEL_CASES` entry of ``kernel(g, a, grads, ws)``, called
    with the face arrays of gradients ``grads`` of ``a`` (:func:`flat_gradients`)
    and a :func:`dirty_workspace` ``ws``, against ``oracle(g, a)``; both
    return lists of arrays.

    After the results come, as the call left them, the arrays that ``kept``
    names, which the kernel must leave as they were: ``"ws"``, the workspace
    arrays other than the ``cells`` whose indices ``written`` holds (and the
    cross-pair levels and results unless it holds ``"pairs"``), and
    ``"grads"``, ``a`` and its gradients.  The oracle leaves them all alone.
    """
    def run(fn, g, a):
        ws, a = dirty_workspace(g), a.copy()
        grads = flat_gradients(g, a)
        out = fn(g, a, grads, ws)
        if "ws" in kept:
            out += [c for i, c in enumerate(ws.cells) if i not in written] + [ws.mask]
            if "pairs" not in written:
                out += [x for pair in ws.cross_pairs for x in pair[2:4]]
        if "grads" in kept:
            out += [a, *grads]
        return out
    return (lambda k, g, mob, v, bar, a: run(k, g, a), kernel,
            lambda g, a, grads, ws: oracle(g, a))


def second_differences(g, a, grads, ws):
    return [_second_difference(g, k, grad, face_views(np.full(g.dims, np.nan), k))
            for k, grad in enumerate(grads)]


def second_differences_oracle(g, a):
    return [second_difference_oracle(g, a, k) for k in range(g.ndim)]


def cell_gradient_sq_case(kept=(), written=()):
    return workspace_case(lambda g, a, grads, ws: [cell_gradient_sq(g, grads, ws)],
                          lambda g, a: [cell_gradient_sq_oracle(g, a)], kept, written)


def hessian_frobenius_sq_case(kept=(), written=()):
    return workspace_case(lambda g, a, grads, ws: [hessian_frobenius_sq(g, a, grads, ws)],
                          lambda g, a: [hessian_frobenius_sq_oracle(g, a)], kept, written)


# each kernel with its oracle, as a function of the kernel_inputs arrays.  A
# kernel that works in a workspace is given a NaN-filled one, NaN-filled
# outputs and precomputed face gradients.  The entries named after a
# workspace or gradients also check that the kernel writes no array of the
# workspace that its docstring does not name, and leaves its input and the
# gradients it reads as they were (the energy report hands one level's
# gradients to several kernels in turn)
KERNEL_CASES = {
    "comparison_step": (
        lambda k, g, mob, v, bar, a: [k(g, v, comparison_rate(a, 0.01), 0.01,
                                        dirty_workspace(g), np.full(g.dims, np.nan))],
        sim._comparison_step, comparison_step_oracle),
    "chemotaxis_array": (lambda k, g, mob, v, bar, a: k(g, mob, v, dirty_workspace(g)),
                         chemotaxis_array, chemotaxis_array_oracle),
    "chemotaxis_transpose": (transpose_case, chemotaxis_transpose,
                             chemotaxis_transpose_oracle),
    "face_gradients": (lambda k, g, mob, v, bar, a: k(g, a),
                       face_gradients, face_gradients_oracle),
    "face_gradients_out": (lambda k, g, mob, v, bar, a: k(g, a),
                           face_gradients_into, face_gradients_oracle),
    "second_difference": workspace_case(second_differences, second_differences_oracle),
    "second_difference_grad_out": workspace_case(second_differences,
                                                 second_differences_oracle, ["grads"]),
    "cell_gradient_sq": cell_gradient_sq_case(),
    "cell_gradient_sq_ws": cell_gradient_sq_case(["ws"], {0, 1}),
    "cell_gradient_sq_grads_ws": cell_gradient_sq_case(["grads"]),
    "hessian_frobenius_sq": hessian_frobenius_sq_case(),
    "hessian_frobenius_sq_ws": hessian_frobenius_sq_case(["ws"], {0, 1, 2, "pairs"}),
    "hessian_frobenius_sq_grads_ws": hessian_frobenius_sq_case(["grads"]),
}


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-160, 1e150, "mixed"])
    @pytest.mark.parametrize("dims", [(2,), (17,), (2, 2), (9, 6), (3, 2, 4), (5, 4, 3)])
    @pytest.mark.parametrize("kernel", sorted(KERNEL_CASES))
    def test_byte_identical(self, kernel, dims, scale):
        # signed zeros and subnormals included
        call, fn, oracle = KERNEL_CASES[kernel]
        inputs = kernel_inputs(dims, len(dims) * 100 + dims[0], scale)
        with np.errstate(over="ignore", under="ignore"):
            got, want = call(fn, *inputs), call(oracle, *inputs)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()


class TestTrapezoidWeights:
    def test_transpose_of_interval_sum(self):
        rng = np.random.default_rng(4)
        times = np.cumsum(np.concatenate(([0.0], rng.uniform(0.01, 0.1, 11))))
        per_level = rng.normal(size=times.size)
        w = trapezoid_weights(times)
        assert w @ per_level == pytest.approx(
            trapezoid_intervals(times, per_level).sum(), rel=1e-13)
        assert w.sum() == pytest.approx(times[-1], rel=1e-13)


class TestNormsAndIntegrals:
    def test_integrate_measures_domain(self):
        g = Grid.unit_box((10, 10))
        assert integrate(g, np.ones(g.dims)) == pytest.approx(1.0)
        assert integrate(g, np.zeros(g.dims)) == 0.0

    def test_integrate_half_indicator(self):
        g = Grid.unit_box((10,))
        vals = np.zeros(10)
        vals[:5] = 1.0
        assert integrate(g, vals) == pytest.approx(0.5)

    def test_h1_constant_is_zero(self):
        g = Grid.unit_box((6, 6))
        assert h1_seminorm(g, np.full(g.dims, 9.0)) == 0.0

    def test_h1_two_cells(self):
        g = Grid((2,), (1.0,))
        assert h1_seminorm(g, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_h1_linear_ramp(self):
        a = 2.5
        g = Grid.unit_box((512,))
        assert h1_seminorm(g, a * g.axis_centers(0)) == pytest.approx(a, rel=2e-3)


class TestDerivedQuantities:
    def test_cell_gradient_matches_ramp(self):
        g = Grid.unit_box((64,))
        a = 3.0 * g.axis_centers(0)
        gsq = cell_gradient_sq(g, flat_gradients(g, a), Workspace(g))
        # interior cells see the exact slope; boundary cells the half-stencil
        assert gsq[1:-1] == pytest.approx(9.0, rel=1e-12)

    def test_hessian_of_quadratic(self):
        g = Grid.unit_box((64,))
        x = g.axis_centers(0)
        h = hessian_frobenius_sq(g, x**2, flat_gradients(g, x**2), Workspace(g))
        assert h[1:-1] == pytest.approx(4.0, rel=1e-10)

    def test_hessian_cross_term_2d(self):
        g = Grid.unit_box((32, 32))
        cx, cy = g.cell_centers()
        a = cx * cy
        h = hessian_frobenius_sq(g, a, flat_gradients(g, a), Workspace(g))
        # d2/dxdy = 1 counted twice; pure second derivatives vanish
        assert h[1:-1, 1:-1] == pytest.approx(2.0, rel=1e-10)


class TestSerialization:
    def test_grid_json_holds_dims_and_spacing(self, tmp_path):
        # the control mask is cell data and has a level stack of its own
        mask = np.zeros((6,), dtype=bool)
        mask[2:4] = True
        g = Grid((6,), (0.5,), control_mask=mask)
        path = tmp_path / "grid.json"
        g.to_json(path)
        with open(path) as fh:
            header = json.load(fh)
        assert header == {"dims": [6], "spacing": [0.5]}
