"""Tensor calculus: pointwise algebra, Levi-Civita symbols, divergence duality."""

import gc
import weakref

import numpy as np
import pytest

from riemgrid.calculus import (
    divergence,
    flat,
    form_vector_pairing,
    lie_derivative_metric,
    metric_inverse,
    sharp,
    trace_pairing,
    vector_inner,
    volume_density,
)
from riemgrid.convergence import _manufactured, adjointness_defect, measured_order
from riemgrid.diffeos import pullback, translation
from riemgrid.geodesics import ebin_norm
from riemgrid.grid import (
    _SYM,
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    constant_field,
    constant_metric,
    constant_vector,
    identity_metric,
    integrate,
    stencil_derivative,
    stencil_gradient,
)
from riemgrid.sampling import random_sym_tensor, random_vector_field


def test_metric_inverse_identity():
    spec = GridSpec(16)
    inv = metric_inverse(identity_metric(spec))
    assert np.max(np.abs(inv.as_stack() - constant_field(spec, np.eye(2)).as_stack())) == 0.0


def test_metric_inverse_diagonal():
    inv = metric_inverse(constant_metric(GridSpec(16), np.diag((4.0, 4.0))))
    assert np.all(inv.values[0] == 0.25)
    assert np.all(inv.values[2] == 0.25)
    assert np.all(inv.values[1] == 0.0)


def test_metric_inverse_generic_against_linalg():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = np.linalg.inv(m)  # [[2/3, -1/3], [-1/3, 2/3]]
    inv = metric_inverse(constant_metric(GridSpec(16), m))
    assert inv.values[0, 3, 5] == pytest.approx(expected[0, 0], abs=1e-14)
    assert inv.values[1, 3, 5] == pytest.approx(expected[0, 1], abs=1e-14)
    assert inv.values[2, 3, 5] == pytest.approx(expected[1, 1], abs=1e-14)
    assert expected[0, 0] == pytest.approx(2.0 / 3.0)


def test_metric_inverse_is_pointwise_inverse():
    spec = GridSpec(16)
    x, y = spec.cell_centers()
    g = MetricField(
        SymTensorField.from_arrays(
            spec, 1.0 + 0.3 * np.sin(2 * np.pi * x), 0.1 * np.cos(2 * np.pi * y), 1.2 + 0.2 * x
        )
    )
    inv = metric_inverse(g)
    gs, iv = g.as_stack(), inv.as_stack()
    assert np.max(np.abs(gs[0] * iv[0] + gs[1] * iv[1] - 1.0)) <= 1e-13
    assert np.max(np.abs(gs[0] * iv[1] + gs[1] * iv[2])) <= 1e-13


def test_volume_density_cases():
    spec = GridSpec(16)
    assert np.all(volume_density(identity_metric(spec)).values == 1.0)
    assert np.all(volume_density(constant_metric(spec, np.diag((4.0, 4.0)))).values == 4.0)
    v = volume_density(constant_metric(spec, np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.max(np.abs(v.values - np.sqrt(3.0))) <= 1e-15


def christoffels(g):
    """Levi-Civita symbols c^k_ij = (1/2) g^{kl} (D_i g_lj + D_j g_li - D_l g_ij), shape (2, 2, 2, n, n)."""
    dg = stencil_gradient(g.as_stack(), g.spec.h)[:, _SYM]  # dg[a][b][c] = D_a g_bc
    # (D_i g_lj + D_j g_li - D_l g_ij) at [l, i, j]
    t = np.einsum("ilj...->lij...", dg) + np.einsum("jli...->lij...", dg) - dg
    return 0.5 * np.einsum("kl...,lij...->kij...", g._inverse[_SYM], t)


def test_christoffels_vanish_for_constant_metric():
    c = christoffels(constant_metric(GridSpec(16), np.array([[2.0, 0.5], [0.5, 1.5]])))
    assert np.max(np.abs(c)) == 0.0
    c_id = christoffels(identity_metric(GridSpec(24)))
    assert np.max(np.abs(c_id)) <= 1e-14


def test_christoffels_conformal_factor():
    # g = exp(2u) delta with u = 0.1 sin(2 pi x): c^1_11 = du/dx
    spec = GridSpec(64)
    x, _ = spec.cell_centers()
    u = 0.1 * np.sin(2 * np.pi * x)
    e2u = np.exp(2 * u)
    g = MetricField(SymTensorField.from_arrays(spec, e2u, np.zeros_like(u), e2u))
    c = christoffels(g)
    expected = 0.2 * np.pi * np.cos(2 * np.pi * x)
    assert np.max(np.abs(c[0, 0, 0] - expected)) <= 1e-3


def test_christoffels_match_the_component_formula():
    # c^k_ij = (1/2) sum_l g^kl (D_i g_lj + D_j g_li - D_l g_ij), one component at a time
    spec = GridSpec(16)
    g = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 21, amplitude=0.2))
    ginv = metric_inverse(g).as_stack()[[[0, 1], [1, 2]]]
    glow = g.as_stack()[[[0, 1], [1, 2]]]
    dg = [[[stencil_derivative(glow[b, c], a + 1, spec.h) for c in range(2)] for b in range(2)] for a in range(2)]
    got = christoffels(g)
    for k, i, j in np.ndindex(2, 2, 2):
        acc = np.zeros((16, 16))
        for l in range(2):
            acc += ginv[k, l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
        assert np.array_equal(got[k, i, j], 0.5 * acc)


def test_lie_derivative_zero_field():
    spec = GridSpec(16)
    out = lie_derivative_metric(identity_metric(spec), constant_vector(spec, (0.0, 0.0)))
    assert np.max(np.abs(out.as_stack())) == 0.0


def test_lie_derivative_constant_killing():
    spec = GridSpec(16)
    out = lie_derivative_metric(identity_metric(spec), constant_vector(spec, (0.3, -0.2)))
    assert np.max(np.abs(out.as_stack())) <= 1e-14


def test_lie_derivative_shear_analytic():
    spec = GridSpec(64)
    _, y = spec.cell_centers()
    x_field = VectorField.from_arrays(spec, np.sin(2 * np.pi * y), np.zeros((64, 64)))
    out = lie_derivative_metric(identity_metric(spec), x_field)
    assert np.max(np.abs(out.values[0])) <= 1e-3
    assert np.max(np.abs(out.values[2])) <= 1e-3
    assert np.max(np.abs(out.values[1] - 2 * np.pi * np.cos(2 * np.pi * y))) <= 1e-3


def test_divergence_constant_tensor_flat():
    spec = GridSpec(16)
    g = constant_metric(spec, np.array([[1.5, 0.25], [0.25, 2.0]]))
    w = divergence(g, constant_field(spec, np.array([[0.7, -0.3], [-0.3, 1.1]])))
    assert np.max(np.abs(w.as_stack())) <= 1e-14


def test_divergence_flat_analytic():
    spec = GridSpec(64)
    x, _ = spec.cell_centers()
    s = SymTensorField.from_arrays(spec, np.sin(2 * np.pi * x), np.zeros((64, 64)), np.zeros((64, 64)))
    w = divergence(identity_metric(spec), s)
    assert np.max(np.abs(w.values[0] - 2 * np.pi * np.cos(2 * np.pi * x))) <= 1e-3
    assert np.max(np.abs(w.values[1])) <= 1e-3


def test_divergence_of_killing_lie_derivative():
    spec = GridSpec(16)
    gamma = identity_metric(spec)
    s = lie_derivative_metric(gamma, constant_vector(spec, (1.0, 2.0)))
    w = divergence(gamma, s)
    assert np.max(np.abs(w.as_stack())) <= 1e-13


def test_sharp_identity_metric():
    spec = GridSpec(16)
    from riemgrid.calculus import OneFormField

    w = OneFormField.from_arrays(spec, np.full((16, 16), 0.4), np.full((16, 16), -0.7))
    x = sharp(identity_metric(spec), w)
    assert np.array_equal(x.values[0], w.values[0])
    assert np.array_equal(x.values[1], w.values[1])


def test_flat_diagonal_metric():
    spec = GridSpec(16)
    g = constant_metric(spec, np.diag((4.0, 1.0)))
    w = flat(g, constant_vector(spec, (1.0, 1.0)))
    assert np.all(w.values[0] == 4.0)
    assert np.all(w.values[1] == 1.0)


def test_sharp_flat_roundtrip_random():
    spec = GridSpec(16)
    x, y = spec.cell_centers()
    g = MetricField(
        SymTensorField.from_arrays(
            spec, 1.0 + 0.3 * np.sin(2 * np.pi * x), 0.2 * np.cos(2 * np.pi * y), 1.5 + 0.1 * y
        )
    )
    for seed in (0, 1, 2):
        v = random_vector_field(spec, seed, amplitude=1.0)
        back = sharp(g, flat(g, v))
        assert np.max(np.abs(back.as_stack() - v.as_stack())) <= 1e-12


def test_trace_pairing_identity():
    spec = GridSpec(16)
    gamma = identity_metric(spec)
    s = constant_field(spec, np.eye(2))
    assert np.all(trace_pairing(gamma, s, s).values == 2.0)


def test_trace_pairing_scaled_metric_with_matrix_oracle():
    spec = GridSpec(16)
    g = constant_metric(spec, np.diag((4.0, 4.0)))
    s = constant_field(spec, np.eye(2))
    vals = trace_pairing(g, s, s).values
    gm = np.diag((4.0, 4.0))
    oracle = np.trace(np.linalg.inv(gm) @ np.eye(2) @ np.linalg.inv(gm) @ np.eye(2))
    assert oracle == pytest.approx(1.0 / 8.0)
    assert np.max(np.abs(vals - oracle)) <= 1e-15


def test_trace_pairing_zero_and_symmetry_positivity():
    spec = GridSpec(16)
    x, y = spec.cell_centers()
    g = MetricField(
        SymTensorField.from_arrays(spec, 1.0 + 0.2 * np.sin(2 * np.pi * x), 0.1 * x * 0, 1.0 + 0.1 * y)
    )
    s = random_sym_tensor(spec, 5, amplitude=1.0)
    t = random_sym_tensor(spec, 6, amplitude=1.0)
    assert not np.any(trace_pairing(g, s, constant_field(spec, np.zeros((2, 2)))).values)
    assert np.array_equal(trace_pairing(g, s, t).values, trace_pairing(g, t, s).values)
    quad = trace_pairing(g, s, s).values
    assert np.all(quad >= 0.0)
    assert np.min(quad) > 0.0  # s has no zero cell for this seed


def test_adjointness_refinement_order_on_curved_metric():
    # the divergence is the exact adjoint of L_X g: no decay order, roundoff at every n
    for n in (16, 32, 64, 128):
        assert adjointness_defect(n) <= 1e-13


def christoffel_divergence(g, s):
    """Reference: raise both indices of s, apply nabla_i with the Levi-Civita symbols, lower."""
    h = g.spec.h
    ginv = metric_inverse(g).as_stack()[[[0, 1], [1, 2]]]
    glow = g.as_stack()[[[0, 1], [1, 2]]]
    chris = christoffels(g)
    t = np.einsum("ia...,jb...,ab...->ij...", ginv, ginv, s.as_stack()[[[0, 1], [1, 2]]])
    up = np.zeros((2,) + t.shape[2:])
    for j in range(2):
        for i in range(2):
            up[j] += stencil_derivative(t[i, j], i + 1, h)
            up[j] += np.einsum("a...,a...->...", chris[i, i], t[:, j]) + np.einsum("a...,a...->...", chris[j, i], t[i])
    return np.einsum("kj...,j...->k...", glow, up)


def test_divergence_matches_christoffel_form_at_fourth_order():
    resolutions = (16, 32, 64, 128)
    gaps = []
    for n in resolutions:
        _, g, _, s, _ = _manufactured(n)
        gaps.append(np.max(np.abs(divergence(g, s).as_stack() - christoffel_divergence(g, s))))
    assert measured_order(gaps, resolutions) >= 3.5


def test_adjointness_sign_convention():
    # sigma(L_X g, S) = -2 integral (div S)(X) dvol, with the stated sign
    spec = GridSpec(32)
    gamma = identity_metric(spec)
    x_field = random_vector_field(spec, 12, amplitude=0.5)
    s = random_sym_tensor(spec, 13, amplitude=0.5)
    from riemgrid.geodesics import ebin_inner

    lhs = ebin_inner(gamma, lie_derivative_metric(gamma, x_field), s)
    pair = form_vector_pairing(divergence(gamma, s), x_field)
    rhs = -2.0 * integrate(ScalarField(spec, pair.values * volume_density(gamma).values))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert abs(lhs) > 1e-3  # the identity is not vacuous for these fields


def test_dropped_metric_is_freed_with_its_derived_data():
    # derived data lives on the metric, so no cache keeps a dropped metric alive
    spec = GridSpec(16)
    g = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 5, amplitude=0.1))
    s = random_sym_tensor(spec, 6, amplitude=0.05)
    ebin_norm(g, s)
    divergence(g, s)
    lie_derivative_metric(g, random_vector_field(spec, 7, amplitude=0.05))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_vector_inner_invariant_under_lattice_translation():
    # a translation moves the cell terms to other cells; summed in grid order,
    # 13 of these 20 triples changed in the last bit
    spec = GridSpec(32)
    tau = translation(spec, (5 * spec.h, 11 * spec.h))
    for seed in range(40, 100, 3):
        g = MetricField(constant_field(spec, np.eye(2)) + random_sym_tensor(spec, seed, amplitude=0.2))
        x = random_vector_field(spec, seed + 1, amplitude=0.4)
        y = random_vector_field(spec, seed + 2, amplitude=0.4)
        before = vector_inner(g, x, y)
        after = vector_inner(pullback(tau, g), pullback(tau, x), pullback(tau, y))
        assert after == before, seed
