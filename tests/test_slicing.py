"""Splitting, slice decomposition, path lifting, and the isometry probes."""

import numpy as np
import pytest

from riemgrid.calculus import divergence, lie_derivative_metric
from riemgrid.diffeos import flow_exp, pullback, translation
from riemgrid.errors import NoConvergence, SolverStall
from riemgrid.geodesics import ebin_exp, ebin_inner, ebin_norm
from riemgrid.grid import (
    GridSpec,
    MetricField,
    SymTensorField,
    constant_field,
    constant_metric,
    identity_metric,
    zero_tensor,
)
from riemgrid.sampling import divergence_free_tensor, random_sym_tensor, random_vector_field
from riemgrid.slicing import (
    LatticeIsometry,
    MetricPath,
    _divergence_defect,
    berger_ebin_project,
    candidate_family,
    conjugate_isometries,
    horizontal_lift,
    isometry_candidates,
    lattice_transport,
    slice_decompose,
    slice_membership,
)

SPEC = GridSpec(32)
GAMMA = identity_metric(SPEC)
NORM_GAMMA = ebin_norm(GAMMA, GAMMA.g)


def sin_metric(n=16, amplitude=0.1):
    spec = GridSpec(n)
    x, _ = spec.cell_centers()
    return MetricField(
        SymTensorField.from_arrays(
            spec, 1.0 + amplitude * np.sin(2 * np.pi * x), np.zeros((n, n)), np.ones((n, n))
        )
    )


# ---------------------------------------------------------------------------
# splitting


def test_project_divergence_free_input_passes_through():
    s = constant_field(SPEC, np.array([[0.4, -0.1], [-0.1, 0.9]]))
    split = berger_ebin_project(GAMMA, s)
    assert np.max(np.abs(split.x.as_stack())) <= 1e-12
    assert np.max(np.abs(split.h.as_stack() - s.as_stack())) <= 1e-12


def test_project_recovers_generator():
    y_field = random_vector_field(SPEC, 11, amplitude=0.3)
    s = lie_derivative_metric(GAMMA, y_field)
    split = berger_ebin_project(GAMMA, s, tol=1e-12)
    assert np.max(np.abs(split.x.as_stack() - y_field.as_stack())) <= 1e-8
    assert ebin_norm(GAMMA, split.h) <= 1e-8


def test_project_superposition():
    y_field = random_vector_field(SPEC, 12, amplitude=0.3)
    const_part = constant_field(SPEC, np.array([[0.2, 0.05], [0.05, -0.1]]))
    s = lie_derivative_metric(GAMMA, y_field) + const_part
    split = berger_ebin_project(GAMMA, s, tol=1e-12)
    assert np.max(np.abs(split.x.as_stack() - y_field.as_stack())) <= 1e-8
    assert np.max(np.abs(split.h.as_stack() - const_part.as_stack())) <= 1e-8


def test_project_reconstruction_and_divergence_bounds():
    for seed in range(5):
        s = random_sym_tensor(SPEC, seed + 100, amplitude=0.3)
        split = berger_ebin_project(GAMMA, s, tol=1e-10)
        recon = lie_derivative_metric(GAMMA, split.x) + split.h - s
        assert ebin_norm(GAMMA, recon) <= 1e-10 * ebin_norm(GAMMA, s)
        div_h = divergence(GAMMA, split.h)
        div_s = divergence(GAMMA, s)
        assert np.max(np.abs(div_h.as_stack())) <= 1e-8 * np.max(np.abs(div_s.as_stack()))


def test_project_orthogonality_invariant():
    s = random_sym_tensor(SPEC, 200, amplitude=0.3)
    split = berger_ebin_project(GAMMA, s, tol=1e-12)
    h_norm = ebin_norm(GAMMA, split.h)
    for seed in range(10):
        x_probe = random_vector_field(SPEC, 300 + seed, amplitude=0.5)
        lie = lie_derivative_metric(GAMMA, x_probe)
        inner = abs(ebin_inner(GAMMA, lie, split.h))
        assert inner <= 1e-7 * ebin_norm(GAMMA, lie) * h_norm


def test_project_zero_mean_gauge():
    s = random_sym_tensor(SPEC, 77, amplitude=0.3)
    split = berger_ebin_project(GAMMA, s)
    assert abs(np.mean(split.x.v1.values)) <= 1e-13
    assert abs(np.mean(split.x.v2.values)) <= 1e-13


def test_project_curved_base_meets_loose_tolerance_only():
    g = sin_metric()
    s = random_sym_tensor(g.spec, 13, amplitude=0.1)
    split = berger_ebin_project(g, s, tol=1e-3)
    assert _divergence_defect(g, split.h) <= 1e-3 * _divergence_defect(g, s)
    with pytest.raises(SolverStall):
        berger_ebin_project(g, s, tol=1e-14)


def test_project_curved_tolerance_is_relative_to_scale():
    # the curved-base bound scales with div s: shrinking s must not turn a
    # stall into a silent miss (here the split reaches only 3e-3 relative)
    spec = GridSpec(16)
    g = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 1, amplitude=0.1))
    s = random_sym_tensor(spec, 1001, amplitude=0.05)
    for scale in (1.0, 0.01):
        with pytest.raises(SolverStall):
            berger_ebin_project(g, s * scale, tol=1e-4)
    # an s with no divergence at all still splits
    assert not np.any(berger_ebin_project(g, zero_tensor(spec), tol=1e-4).h.as_stack())


# ---------------------------------------------------------------------------
# membership


def test_membership_at_base_point():
    res = slice_membership(GAMMA, GAMMA)
    assert res.member
    assert res.divergence_defect == 0.0


def test_membership_of_slice_points():
    h = divergence_free_tensor(SPEC, 21, amplitude=1.0)
    h = h * (0.04 * NORM_GAMMA / ebin_norm(GAMMA, h))
    g = ebin_exp(GAMMA, h, 1.0).endpoint
    res = slice_membership(GAMMA, g, tol=1e-6)
    assert res.member
    assert res.divergence_defect <= 1e-8


def test_membership_rejects_gauge_motion():
    x_field = random_vector_field(SPEC, 22, amplitude=0.05, max_mode=2)
    g = pullback(flow_exp(x_field, 0.1), GAMMA)
    res = slice_membership(GAMMA, g, tol=1e-6)
    assert not res.member
    assert res.divergence_defect > 1e-2


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_at_base_point():
    dec = slice_decompose(GAMMA, GAMMA, tol=1e-6)
    assert dec.residual <= 1e-12
    assert np.max(np.abs(dec.phi.u.as_stack())) <= 1e-12
    assert ebin_norm(GAMMA, dec.h) <= 1e-12


def test_decompose_pure_gauge_input():
    x_field = random_vector_field(SPEC, 23, amplitude=0.003)
    g = pullback(flow_exp(x_field, 1.0), GAMMA)
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert dec.residual <= 1e-6
    assert ebin_norm(GAMMA, dec.h) <= 1e-6 * NORM_GAMMA


def test_decompose_pure_slice_input():
    h0 = divergence_free_tensor(SPEC, 24, amplitude=1.0)
    h0 = h0 * (0.05 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    g = ebin_exp(GAMMA, h0, 1.0).endpoint
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert dec.residual <= 1e-6
    assert ebin_norm(GAMMA, dec.h - h0) <= 1e-6 * NORM_GAMMA
    assert np.max(np.abs(dec.phi.u.as_stack())) <= 1e-5


def test_decompose_mixed_input_chart_roundtrip():
    h0 = divergence_free_tensor(SPEC, 25, amplitude=1.0)
    h0 = h0 * (0.05 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    x_field = random_vector_field(SPEC, 26, amplitude=0.003)
    phi0 = flow_exp(x_field, 1.0)
    g = pullback(phi0, ebin_exp(GAMMA, h0, 1.0).endpoint)
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert dec.residual <= 1e-6
    assert ebin_norm(GAMMA, dec.h - h0) <= 1e-5 * NORM_GAMMA
    recon = pullback(dec.phi, ebin_exp(GAMMA, dec.h, 1.0).endpoint)
    assert ebin_norm(GAMMA, recon.g - g.g) / ebin_norm(GAMMA, g.g) <= 1e-6


def test_decompose_outside_radius_raises():
    g = constant_metric(SPEC, 1.5 * np.eye(2))
    with pytest.raises(NoConvergence):
        slice_decompose(GAMMA, g, tol=1e-6, radius=0.1)


def test_decompose_h_divergence_bound():
    h0 = divergence_free_tensor(SPEC, 27, amplitude=1.0)
    h0 = h0 * (0.03 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    x_field = random_vector_field(SPEC, 28, amplitude=0.002)
    g = pullback(flow_exp(x_field, 1.0), ebin_exp(GAMMA, h0, 1.0).endpoint)
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert _divergence_defect(GAMMA, dec.h) <= 1e-8


# ---------------------------------------------------------------------------
# horizontal lift


def test_lift_conformal_path_is_already_horizontal():
    times = tuple(k / 4 for k in range(5))
    points = tuple(constant_metric(SPEC, (1.0 + 0.1 * t) * np.eye(2)) for t in times)
    path = MetricPath(times, points)
    lifted, gauges = horizontal_lift(path, tol=1e-8)
    for k in range(5):
        assert np.max(np.abs(gauges[k].u.as_stack())) <= 1e-10
        gap = ebin_norm(points[k], lifted.points[k].g - points[k].g)
        assert gap <= 1e-7 * ebin_norm(points[k], points[k].g)


def test_lift_pure_gauge_path_stays_at_base():
    x_field = random_vector_field(SPEC, 31, amplitude=0.002, max_mode=2)
    times = tuple(k / 4 for k in range(5))
    points = tuple(pullback(flow_exp(x_field, t), GAMMA) for t in times)
    lifted, gauges = horizontal_lift(MetricPath(times, points), tol=1e-7)
    for k in range(5):
        assert ebin_norm(GAMMA, lifted.points[k].g - GAMMA.g) <= 1e-6 * NORM_GAMMA
        gap = ebin_norm(GAMMA, pullback(gauges[k], lifted.points[k]).g - points[k].g)
        assert gap <= 1e-5 * NORM_GAMMA  # floor: interpolation through the gauges


def test_lift_mixed_path_matches_exp_factor():
    h0 = divergence_free_tensor(SPEC, 32, amplitude=1.0, max_mode=2)
    h0 = h0 * (0.02 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    x_field = random_vector_field(SPEC, 33, amplitude=0.002, max_mode=2)
    times = tuple(k / 4 for k in range(5))
    exp_factor = [ebin_exp(GAMMA, t * h0, 1.0, tol=1e-10).endpoint for t in times]
    points = tuple(pullback(flow_exp(x_field, t), exp_factor[k]) for k, t in enumerate(times))
    lifted, gauges = horizontal_lift(MetricPath(times, points), tol=1e-7)
    for k in range(5):
        gap = ebin_norm(GAMMA, lifted.points[k].g - exp_factor[k].g) / NORM_GAMMA
        assert gap <= 1e-5
        track = ebin_norm(GAMMA, pullback(gauges[k], lifted.points[k]).g - points[k].g) / NORM_GAMMA
        assert track <= 1e-5


# ---------------------------------------------------------------------------
# lattice candidates


def test_lattice_transport_of_divergence_free_tensor_stays_divergence_free():
    h = divergence_free_tensor(GridSpec(16), 41, amplitude=0.5)
    gamma16 = identity_metric(GridSpec(16))
    base_defect = np.max(np.abs(divergence(gamma16, h).as_stack()))
    for iso in (
        LatticeIsometry("id", (3, 7)),
        LatticeIsometry("fx", (5, 2)),
        LatticeIsometry("fy", (0, 9)),
        LatticeIsometry("swap", (4, 4)),
    ):
        moved = lattice_transport(iso, h)
        defect = np.max(np.abs(divergence(gamma16, moved).as_stack()))
        assert defect <= max(1e-13, 4.0 * base_defect)


def test_lattice_transport_matches_diffeo_pullback_for_translations():
    s = random_sym_tensor(SPEC, 42, amplitude=0.4)
    iso = LatticeIsometry("id", (6, 13))
    via_diffeo = pullback(translation(SPEC, (6 * SPEC.h, 13 * SPEC.h)), s)
    assert np.array_equal(lattice_transport(iso, s).as_stack(), via_diffeo.as_stack())


def test_isometry_candidates_flat_metric():
    n = 16
    found = isometry_candidates(identity_metric(GridSpec(n)), tol=1e-8)
    assert len(found) == 4 * n * n  # every candidate preserves the flat metric


def test_isometry_candidates_generic_perturbation_only_identity():
    spec = GridSpec(16)
    pert = random_sym_tensor(spec, 43, amplitude=0.05)
    g = MetricField(constant_field(spec, np.eye(2)) + pert)
    found = isometry_candidates(g, tol=1e-8)
    assert len(found) == 1
    assert found[0].is_identity()


def test_isometry_candidates_sin_metric_family():
    # gamma_11 = 1 + 0.1 sin(2 pi x): y-translations, the y-flip family, and,
    # because sin is symmetric about x = 1/4, the x-glide family x -> 1/2 - x
    n = 16
    found = isometry_candidates(sin_metric(n), tol=1e-8)
    expected = set()
    for j in range(n):
        expected.add(("id", (0, j)))
        expected.add(("fy", (0, j)))
        expected.add(("fx", (n // 2, j)))
    assert {(iso.flip, iso.shift) for iso in found} == expected
    assert len(found) == 3 * n


def test_slice_property_ii_surrogate_subsample():
    # non-isometry candidates carry slice points off the slice; isometries keep them on
    n = 16
    g = sin_metric(n)
    spec = g.spec
    s = random_sym_tensor(spec, 44, amplitude=0.05)
    split = berger_ebin_project(g, s, tol=1e-4)
    h1 = split.h * (0.02 * ebin_norm(g, g.g) / ebin_norm(g, split.h))
    point = ebin_exp(g, h1, 1.0).endpoint
    iso_set = {(i.flip, i.shift) for i in isometry_candidates(g, tol=1e-8)}
    sampled = [c for k, c in enumerate(candidate_family(n)) if k % 41 == 0]
    for cand in sampled:
        moved = lattice_transport(cand, point)
        member = slice_membership(g, moved, tol=1e-6).member
        assert member == ((cand.flip, cand.shift) in iso_set)


# ---------------------------------------------------------------------------
# conjugation of isometries


def test_conjugate_isometries_at_base_point():
    n = 16
    gamma = identity_metric(GridSpec(n))
    f, report = conjugate_isometries(gamma, gamma, tol=1e-6)
    assert np.max(np.abs(f.u.as_stack())) <= 1e-10
    assert report.inclusion_holds
    assert len(report.entries) == 4 * n * n
    for entry in report.entries:
        assert entry.matched is not None
        assert (entry.matched.flip, entry.matched.shift) == (entry.candidate.flip, entry.candidate.shift)


def test_conjugate_isometries_gauge_moved_flat():
    # the conjugated maps are compared through interpolated displacements, so
    # the flow content must be well resolved: torus mode 2 at n = 32
    n = 32
    spec = GridSpec(n)
    gamma = identity_metric(spec)
    # flow field tiled with period n/2, so half-torus translations survive in g
    x_field = random_vector_field(spec, 45, amplitude=0.004, max_mode=1, period_cells=n // 2)
    phi0 = flow_exp(x_field, 1.0)
    g = pullback(phi0, gamma)
    f, report = conjugate_isometries(gamma, g, tol=1e-6)
    found = {(e.candidate.flip, e.candidate.shift) for e in report.entries}
    assert ("id", (n // 2, 0)) in found
    assert ("id", (0, n // 2)) in found
    assert report.inclusion_holds
    assert report.max_deviation <= 1e-6


def test_conjugate_isometries_generic_slice_point_vacuous():
    n = 16
    spec = GridSpec(n)
    gamma = identity_metric(spec)
    h0 = divergence_free_tensor(spec, 46, amplitude=1.0)
    h0 = h0 * (0.04 * ebin_norm(gamma, gamma.g) / ebin_norm(gamma, h0))
    g = ebin_exp(gamma, h0, 1.0).endpoint
    f, report = conjugate_isometries(gamma, g, tol=1e-6)
    cands = [e.candidate for e in report.entries]
    assert len(cands) == 1 and cands[0].is_identity()
    assert report.inclusion_holds
