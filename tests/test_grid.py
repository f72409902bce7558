"""Grid core: fields, interpolation, stencils, quadrature."""

import numpy as np
import pytest
from scipy import ndimage

from riemgrid.calculus import OneFormField, metric_inverse, volume_density
from riemgrid.diffeos import from_displacement
from riemgrid.grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _Sampler,
    constant_field,
    constant_metric,
    identity_metric,
    integrate,
    interpolate,
    partial_derivative,
    stencil_derivative,
)
from riemgrid.errors import PositivityLoss


def field_from(spec, fn):
    x, y = spec.cell_centers()
    return ScalarField(spec, fn(x, y))


def test_spec_invariants():
    spec = GridSpec(16)
    assert spec.h * spec.n == 1.0
    with pytest.raises(ValueError):
        GridSpec(3)


def test_field_rejects_bad_samples():
    spec = GridSpec(8)
    with pytest.raises(ValueError, match="expected"):
        ScalarField(spec, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        VectorField(spec, np.full((2, 8, 8), np.inf))


def test_field_values_are_read_only_copies():
    n = 8
    spec = GridSpec(n)
    rng = np.random.default_rng(2)
    metric = np.stack([np.full((n, n), 2.0), 0.1 * rng.standard_normal((n, n)), np.full((n, n), 3.0)])
    displacement = 0.01 * rng.standard_normal((2, n, n))
    kinds = [
        (ScalarField, rng.standard_normal((n, n))),
        (VectorField, rng.standard_normal((2, n, n))),
        (OneFormField, rng.standard_normal((2, n, n))),
        (SymTensorField, rng.standard_normal((3, n, n))),
        (MetricField.from_stack, metric.copy()),
        (lambda spec, a: from_displacement(spec, VectorField(spec, a)).u, displacement),
        (lambda spec, a: from_displacement(spec, VectorField(spec, a)).v, displacement.copy()),
    ]
    for make, array in kinds:
        field = make(spec, array)
        stored = field.as_stack()
        kept = stored.copy()
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[(0,) * stored.ndim] = 1.0
        array[...] = 0.0  # the caller's input changes after construction
        assert np.array_equal(field.as_stack(), kept)


def test_derived_data_is_cached_read_only():
    n = 8
    rng = np.random.default_rng(3)
    g = MetricField.from_stack(
        GridSpec(n), np.stack([np.full((n, n), 2.0), 0.1 * rng.standard_normal((n, n)), np.full((n, n), 3.0)])
    )
    for owner, name in ((g, "_inverse"), (g, "_volume"), (g, "_lie_table"), (g.g, "_spline_coef")):
        cached = getattr(owner, name)
        assert getattr(owner, name) is cached, name
        assert not cached.flags.writeable, name
        with pytest.raises(ValueError):
            cached[(0,) * cached.ndim] = 1.0
    # the public fields share the metric's arrays instead of copying them
    assert metric_inverse(g).as_stack() is g._inverse
    assert volume_density(g).values is g._volume


def test_constant_field_identity():
    f = constant_field(GridSpec(16), np.eye(2))
    assert np.all(f.values[0] == 1.0)
    assert np.all(f.values[1] == 0.0)
    assert np.all(f.values[2] == 1.0)


def test_constant_field_zero():
    f = constant_field(GridSpec(16), np.zeros((2, 2)))
    assert not np.any(f.as_stack())


def test_constant_field_diagonal_det():
    f = constant_field(GridSpec(32), np.diag((4.0, 4.0)))
    det = f.values[0] * f.values[2] - f.values[1] ** 2
    assert np.all(det == 16.0)


@pytest.mark.parametrize("m", [np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(3)], ids=["asymmetric", "3x3"])
def test_constant_field_rejects_non_symmetric_2x2(m):
    with pytest.raises(ValueError, match="symmetric 2x2"):
        constant_field(GridSpec(8), m)


def test_metric_requires_spd():
    with pytest.raises(PositivityLoss):
        constant_metric(GridSpec(8), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_interpolate_constant():
    f = ScalarField(GridSpec(16), np.full((16, 16), 2.75))
    for p in ((0.0, 0.0), (0.123, 0.987), (-0.4, 3.7)):
        assert interpolate(f, *p) == pytest.approx(2.75, abs=1e-13)


def test_interpolate_sine_probe_set():
    # compare against the analytic function on a 10x10 probe set
    spec = GridSpec(64)
    f = field_from(spec, lambda x, y: np.sin(2 * np.pi * x))
    px, py = np.meshgrid(np.linspace(0, 0.9, 10), np.linspace(0, 0.9, 10), indexing="ij")
    vals = interpolate(f, px, py)
    assert np.max(np.abs(vals - np.sin(2 * np.pi * px))) <= 1e-4
    ys = np.linspace(0.0, 0.95, 10)
    assert np.max(np.abs(interpolate(f, np.full(10, 0.25), ys) - 1.0)) <= 1e-4


def test_interpolate_exact_at_cell_centers():
    spec = GridSpec(16)
    rng = np.random.default_rng(3)
    f = ScalarField(spec, rng.standard_normal((16, 16)))
    x, y = spec.cell_centers()
    vals = interpolate(f, x, y)
    assert np.max(np.abs(vals - f.values)) <= 1e-13


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_interpolate_matches_scipy_spline(n):
    # scipy is a test-only oracle: its periodic cubic spline, prefiltered and
    # sampled at the same cell coordinates x n - 1/2
    spec = GridSpec(n)
    rng = np.random.default_rng(n)
    # random points and exact cell boundaries and centers, all in [-2, 3)
    grid_points = np.arange(-2 * n, 3 * n) / n
    x = np.concatenate([rng.uniform(-2.0, 3.0, 4 * n), grid_points, grid_points + 0.5 / n])
    y = np.concatenate([rng.uniform(-2.0, 3.0, 4 * n), rng.permutation(grid_points), grid_points[::-1]])
    coords = np.stack([x * n - 0.5, y * n - 0.5])
    for field_type in (ScalarField, VectorField, SymTensorField):
        k = field_type._k
        values = rng.standard_normal((k, n, n) if k else (n, n))
        field = field_type(spec, values)
        got = interpolate(field, x, y).reshape(-1, x.size)
        for component, sampled in zip(values.reshape(-1, n, n), got):
            coef = ndimage.spline_filter(component, order=3, mode="grid-wrap")
            want = ndimage.map_coordinates(coef, coords, order=3, mode="grid-wrap", prefilter=False)
            assert np.max(np.abs(sampled - want)) <= 1e-14 * np.max(np.abs(values))
            # every component of a k-component call equals its own scalar call
            assert np.array_equal(sampled, interpolate(ScalarField(spec, component), x, y))


@pytest.mark.parametrize("n", [4, 16])
def test_interpolate_padding_edges_match_scipy_spline(n):
    # cells -1 and n - 1 read the outermost padded coefficients: points in the
    # first and last half cell of each axis, exact edges, and coordinates whose
    # reduction u - floor(u) is 0 (-0.0), rounds up to 1 (-1e-20) or lies just below 1
    spec = GridSpec(n)
    rng = np.random.default_rng(100 + n)
    half = 0.5 / n
    edges = np.concatenate([
        rng.uniform(0.0, half, 6), rng.uniform(1.0 - half, 1.0, 6), rng.uniform(-2.0, 3.0, 6),
        [0.0, -0.0, -1e-20, 1.0 - 2.0**-53, half, 1.0 - half, np.nextafter(half, 0.0), 1.0, -1.0],
    ])
    x, y = (a.ravel() for a in np.meshgrid(edges, edges, indexing="ij"))
    coords = np.stack([x * n - 0.5, y * n - 0.5])
    for field_type in (ScalarField, VectorField, SymTensorField):
        k = field_type._k
        values = rng.standard_normal((k, n, n) if k else (n, n))
        got = interpolate(field_type(spec, values), x, y).reshape(-1, x.size)
        for component, sampled in zip(values.reshape(-1, n, n), got):
            coef = ndimage.spline_filter(component, order=3, mode="grid-wrap")
            want = ndimage.map_coordinates(coef, coords, order=3, mode="grid-wrap", prefilter=False)
            assert np.max(np.abs(sampled - want)) <= 1e-14 * np.max(np.abs(values))


def test_interpolate_non_finite_points_give_nan():
    spec = GridSpec(16)
    rng = np.random.default_rng(4)
    f = ScalarField(spec, rng.standard_normal((16, 16)))
    x = np.array([np.nan, np.inf, -np.inf, 0.3, 0.3, 0.3])
    y = np.array([0.2, 0.2, 0.2, np.nan, -np.inf, 0.7])
    vals = interpolate(f, x, y)  # a RuntimeWarning would fail the test
    assert np.all(np.isnan(vals[:5]))
    assert abs(vals[5] - interpolate(f, 0.3, 0.7)) <= 1e-14
    assert np.isnan(interpolate(f, np.nan, 0.5))
    # huge finite coordinates are reduced mod 1 exactly: past 2**53 every
    # double is an integer, so they sample the line x = 0
    huge = ((2.0**19 + 0.25, 0.25), (1e15 + 0.75, 0.75), (-1e15 - 0.25, 0.75), (1e300, 0.0), (-1.7e308, 0.0))
    for big, reduced in huge:
        assert interpolate(f, big, 0.4) == interpolate(f, reduced, 0.4)
        assert interpolate(f, 0.4, big) == interpolate(f, 0.4, reduced)
    # every component of a field is NaN at the point
    v = VectorField(spec, rng.standard_normal((2, 16, 16)))
    vals = interpolate(v, x, y)
    assert vals.shape == (2, 6)
    assert np.all(np.isnan(vals[:, :5])) and np.all(np.isfinite(vals[:, 5]))


def test_sampler_matches_fresh_interpolation_across_calls():
    # the sampler re-gathers only points whose cell changed, including cells
    # read for NaN coordinates; every call must equal a fresh interpolate
    spec = GridSpec(16)
    rng = np.random.default_rng(5)
    for field in (ScalarField(spec, rng.standard_normal((16, 16))), VectorField(spec, rng.standard_normal((2, 16, 16)))):
        x, y = rng.uniform(-1.0, 2.0, (2, 8, 9))
        xn, yn = x.copy(), y.copy()
        xn[::3] = np.nan
        yn[:, 1::4] = np.inf
        calls = [(xn, yn), (x, y), (x + 1e-4, y - 1e-4), (x + 0.3, y - 0.2), (xn, y), (x, yn), (x, y), (x[0], y[0])]
        sample = _Sampler(field)
        for cx, cy in calls:
            assert np.array_equal(sample(cx, cy), interpolate(field, cx, cy), equal_nan=True)


def test_derivative_of_constant_is_zero():
    f = ScalarField(GridSpec(16), np.full((16, 16), 5.5))
    assert not np.any(partial_derivative(f, 1).values)
    assert not np.any(partial_derivative(f, 2).values)


def test_derivative_sine_analytic():
    spec = GridSpec(32)
    f = field_from(spec, lambda x, y: np.sin(2 * np.pi * x))
    d = partial_derivative(f, 1)
    x, _ = spec.cell_centers()
    assert np.max(np.abs(d.values - 2 * np.pi * np.cos(2 * np.pi * x))) <= 1e-3


def test_derivative_transverse_axis_vanishes():
    spec = GridSpec(32)
    f = field_from(spec, lambda x, y: np.sin(2 * np.pi * x))
    assert np.max(np.abs(partial_derivative(f, 2).values)) <= 1e-12


def test_stencil_rejects_an_axis_outside_the_grid():
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        stencil_derivative(np.zeros((8, 8)), 0, 1.0 / 8)


def test_stencil_matches_roll_form_bitwise():
    # the wrap-padded stencil does the arithmetic of the np.roll form on the same values
    rng = np.random.default_rng(5)
    for n in (4, 5, 16, 33):
        values = rng.standard_normal((n, n))
        for axis in (1, 2):
            ax = axis - 1
            p1, p2 = np.roll(values, -1, axis=ax), np.roll(values, -2, axis=ax)
            m1, m2 = np.roll(values, 1, axis=ax), np.roll(values, 2, axis=ax)
            reference = (8.0 * (p1 - m1) + (m2 - p2)) / (12.0 * (1.0 / n))
            assert np.array_equal(stencil_derivative(values, axis, 1.0 / n), reference)
        # on a stack, every (n, n) grid gets the single-grid stencil
        for shape in ((3, n, n), (2, 2, n, n)):
            stack = rng.standard_normal(shape)
            grids = stack.reshape(-1, n, n)
            for axis in (1, 2):
                got = stencil_derivative(stack, axis, 1.0 / n).reshape(-1, n, n)
                for k, grid in enumerate(grids):
                    assert np.array_equal(got[k], stencil_derivative(grid, axis, 1.0 / n))


def test_integrate_constant():
    assert integrate(ScalarField(GridSpec(16), np.full((16, 16), 3.0))) == pytest.approx(3.0)


def test_integrate_sine_vanishes():
    spec = GridSpec(32)
    f = field_from(spec, lambda x, y: np.sin(2 * np.pi * x))
    assert abs(integrate(f)) <= 1e-12


def test_integrate_invariant_under_lattice_roll():
    # summed in sorted order, the samples give the same bits wherever they sit
    spec = GridSpec(32)
    rng = np.random.default_rng(6)
    for _ in range(20):
        values = rng.standard_normal((32, 32))
        assert integrate(ScalarField(spec, np.roll(values, (5, 11), axis=(0, 1)))) == integrate(ScalarField(spec, values))


def test_integrate_sine_squared():
    spec = GridSpec(32)
    f = field_from(spec, lambda x, y: np.sin(2 * np.pi * x) ** 2)
    assert integrate(f) == pytest.approx(0.5, abs=1e-10)


def test_periodicity_full_shift():
    spec = GridSpec(16)
    rng = np.random.default_rng(11)
    f = ScalarField(spec, rng.standard_normal((16, 16)))
    x, y = spec.cell_centers()
    assert np.array_equal(interpolate(f, x + 1.0, y), interpolate(f, x, y))
    assert np.array_equal(interpolate(f, x, y - 1.0), interpolate(f, x, y))


def test_grid_translation_exactness():
    # interpolating at points shifted by whole cells reproduces samples exactly
    spec = GridSpec(16)
    rng = np.random.default_rng(5)
    f = ScalarField(spec, rng.standard_normal((16, 16)))
    x, y = spec.cell_centers()
    k, l = 3, 7
    vals = interpolate(f, x + k * spec.h, y + l * spec.h)
    assert np.max(np.abs(vals - np.roll(f.values, (-k, -l), axis=(0, 1)))) <= 1e-12


def test_derivative_refinement_order():
    errs = []
    for n in (16, 32, 64):
        spec = GridSpec(n)
        x, y = spec.cell_centers()
        f = ScalarField(spec, np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y))
        d = partial_derivative(f, 1)
        exact = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(4 * np.pi * y)
        errs.append(np.max(np.abs(d.values - exact)))
    fitted_order = np.log2(errs[0] / errs[2]) / 2.0
    assert fitted_order >= 3.9
