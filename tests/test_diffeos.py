"""Diffeomorphisms: composition, inversion, flows, and the pullback action."""

import numpy as np
import pytest

from riemgrid.diffeos import (
    _rk4_steps,
    action_derivative,
    compose,
    flow_exp,
    identity_diffeo,
    invert,
    pullback,
    translation,
)
from riemgrid.errors import NoConvergence, StepFailure
from riemgrid.calculus import lie_derivative_metric
from riemgrid.geodesics import ebin_norm
from riemgrid.grid import (
    GridSpec,
    MetricField,
    SymTensorField,
    VectorField,
    constant_vector,
    identity_metric,
    stencil_gradient,
    zero_vector,
)
from riemgrid.sampling import random_sym_tensor, random_vector_field


SPEC = GridSpec(32)


def small_flow(seed=21, amplitude=0.01, t=1.0):
    return flow_exp(random_vector_field(SPEC, seed, max_mode=2, amplitude=amplitude), t)


def map_gap(phi, psi):
    return max(
        np.max(np.abs(phi.u.v1.values - psi.u.v1.values)),
        np.max(np.abs(phi.u.v2.values - psi.u.v2.values)),
    )


def test_identity_diffeo():
    ident = identity_diffeo(SPEC)
    assert not np.any(ident.u.as_stack())
    assert not np.any(ident.v.as_stack())


def test_identity_is_neutral_for_compose():
    phi = small_flow()
    assert map_gap(compose(identity_diffeo(SPEC), phi), phi) <= 1e-9
    assert map_gap(compose(phi, identity_diffeo(SPEC)), phi) <= 1e-13


def test_identity_pullback_is_exact():
    g = identity_metric(SPEC)
    s = random_sym_tensor(SPEC, 4, amplitude=0.3)
    assert np.array_equal(pullback(identity_diffeo(SPEC), s).as_stack(), s.as_stack())
    assert np.array_equal(pullback(identity_diffeo(SPEC), g).as_stack(), g.as_stack())


def test_translations_compose_exactly():
    a = translation(SPEC, (0.11, -0.07))
    b = translation(SPEC, (0.05, 0.30))
    c = compose(a, b)
    assert np.all(c.u.v1.values == 0.11 + 0.05)
    assert np.all(c.u.v2.values == -0.07 + 0.30)


def test_compose_with_inverse_is_identity():
    phi = small_flow()
    near_id = compose(phi, invert(phi))
    assert map_gap(near_id, identity_diffeo(SPEC)) <= 1e-9


def test_compose_associativity():
    phi, psi, rho = small_flow(1), small_flow(2), small_flow(3)
    left = compose(compose(phi, psi), rho)
    right = compose(phi, compose(psi, rho))
    assert map_gap(left, right) <= 2e-6  # interpolation error of the composed maps


def test_invert_translation():
    phi = translation(SPEC, (0.2, -0.4))
    inv = invert(phi)
    assert np.all(inv.u.v1.values == -0.2)
    assert np.all(inv.u.v2.values == 0.4)


def test_invert_flow_matches_negative_field():
    # the comparison floor is the spline representation of the displacement,
    # so the flow must be genuinely smooth and small
    spec = GridSpec(64)
    x = random_vector_field(spec, 8, max_mode=1, amplitude=0.02)
    fwd = flow_exp(x, 1.0)
    back = flow_exp(x * -1.0, 1.0, n_steps=128)
    gap = max(
        np.max(np.abs(invert(fwd).u.v1.values - back.u.v1.values)),
        np.max(np.abs(invert(fwd).u.v2.values - back.u.v2.values)),
    )
    assert gap <= 1e-8


def test_invert_identity():
    assert map_gap(invert(identity_diffeo(SPEC)), identity_diffeo(SPEC)) == 0.0


def test_flow_of_zero_field():
    assert map_gap(flow_exp(zero_vector(SPEC), 1.0), identity_diffeo(SPEC)) == 0.0


def test_flow_of_constant_field_is_translation():
    phi = flow_exp(constant_vector(SPEC, (0.25, 0.0)), 1.0)
    assert np.max(np.abs(phi.u.v1.values - 0.25)) <= 1e-12
    assert np.max(np.abs(phi.u.v2.values)) <= 1e-12


def test_flow_matches_dense_reference():
    spec = GridSpec(64)
    _, y = spec.cell_centers()
    x_field = VectorField.from_arrays(spec, np.sin(2 * np.pi * y), np.zeros((64, 64)))
    coarse = flow_exp(x_field, 0.1)
    dense = flow_exp(x_field, 0.1, n_steps=1000)  # dt = 1e-4
    assert map_gap(coarse, dense) <= 1e-8


@pytest.mark.parametrize(
    "n, seed, amplitude, t_lip, max_steps",
    [
        (32, 5, 0.02, 0.02, 3),  # the scale of the chart layer's flows
        (32, 6, 0.03, 0.5, 128),
        (64, 7, 0.03, 0.5, 128),
        (64, 9, 0.02, None, 96),  # a gauge-n64 field at t = 1 (t Lip about 0.39)
    ],
)
def test_flow_step_rule_matches_1024_step_oracle(n, seed, amplitude, t_lip, max_steps):
    x_field = random_vector_field(GridSpec(n), seed, amplitude=amplitude)
    lip = np.max(np.abs(stencil_gradient(x_field.values, x_field.spec.h)))
    t = 1.0 if t_lip is None else t_lip / lip
    assert _rk4_steps(x_field, t) <= max_steps
    phi = flow_exp(x_field, t)
    oracle = flow_exp(x_field, t, n_steps=1024)
    assert np.max(np.abs(phi.u.values - oracle.u.values)) <= 1e-12


def test_flow_of_zero_and_constant_fields_takes_one_step():
    assert _rk4_steps(zero_vector(SPEC), 1.0) == 1
    assert _rk4_steps(constant_vector(SPEC, (0.25, -0.1)), 1.0) == 1


@pytest.mark.parametrize(
    "seed, amplitude",
    [
        (1, 0.05),  # max ||Du||_2 = 1.52: the fixed point v = -u(x + v) could not contract
        (6, 0.04),  # max ||Du||_2 = 0.97: the fixed point ran out of iterations
    ],
)
def test_flow_inverts_where_the_fixed_point_could_not(seed, amplitude):
    x_field = random_vector_field(SPEC, seed, amplitude=amplitude, max_mode=4)
    phi = flow_exp(x_field, 1.0)
    inv = invert(phi)
    assert phi.inverse_residual <= 1e-12
    assert inv.inverse_residual <= 1e-12
    assert np.max(np.abs(compose(phi, inv).u.values)) <= 1e-10


def test_flow_whose_inverse_diverges_raises():
    # det(I + Du) >= 0.34 passes the sign check, but at max ||Du||_2 = 1.60
    # the Newton iterate for the inverse diverges
    x_field = random_vector_field(SPEC, 7, amplitude=0.05, max_mode=4)
    with pytest.raises(NoConvergence, match=r"residual"):
        flow_exp(x_field, 1.0)


def test_flow_displacement_bound():
    with pytest.raises(StepFailure):
        flow_exp(constant_vector(SPEC, (1.0, 0.0)), 1.0)


def test_pullback_lattice_translation_permutes_samples():
    s = random_sym_tensor(SPEC, 14, amplitude=0.4)
    phi = translation(SPEC, (3 * SPEC.h, 5 * SPEC.h))
    moved = pullback(phi, s)
    assert np.array_equal(moved.s11.values, np.roll(s.s11.values, (3, 5), axis=(0, 1)))
    g = identity_metric(SPEC)
    assert np.array_equal(pullback(phi, g).as_stack(), g.as_stack())


def test_pullback_shear_flow_analytic():
    # flow of (eps sin(2 pi y), 0) has the closed form (x + t eps sin(2 pi y), y)
    spec = GridSpec(64)
    eps = 0.05
    _, y = spec.cell_centers()
    x_field = VectorField.from_arrays(spec, eps * np.sin(2 * np.pi * y), np.zeros((64, 64)))
    phi = flow_exp(x_field, 1.0)
    moved = pullback(phi, identity_metric(spec))
    c = 2 * np.pi * eps * np.cos(2 * np.pi * y)
    assert np.max(np.abs(moved.g11.values - 1.0)) <= 1e-3
    assert np.max(np.abs(moved.g12.values + c)) <= 1e-3
    assert np.max(np.abs(moved.g22.values - (1.0 + c ** 2))) <= 1e-3


def test_pullback_left_action_law():
    g = identity_metric(SPEC)
    phi, psi = small_flow(31, 0.02), small_flow(32, 0.02)
    lhs = pullback(compose(phi, psi), g)
    rhs = pullback(phi, pullback(psi, g))
    # floor set by the stencil Jacobians of the composed displacements
    assert ebin_norm(g, lhs.g - rhs.g) <= 1e-3


def test_pullback_linearity():
    phi = small_flow(33, 0.02)
    s = random_sym_tensor(SPEC, 15, amplitude=0.3)
    t = random_sym_tensor(SPEC, 16, amplitude=0.3)
    lhs = pullback(phi, 2.0 * s + (-0.5) * t)
    rhs = 2.0 * pullback(phi, s) + (-0.5) * pullback(phi, t)
    assert np.max(np.abs(lhs.as_stack() - rhs.as_stack())) <= 1e-12


def test_action_derivative_zero_and_killing():
    g = identity_metric(SPEC)
    assert not np.any(action_derivative(g, zero_vector(SPEC)).as_stack())
    assert np.max(np.abs(action_derivative(g, constant_vector(SPEC, (0.4, 0.1))).as_stack())) <= 1e-14


def test_action_derivative_finite_difference():
    spec = GridSpec(64)
    g = identity_metric(spec)
    x_field = random_vector_field(spec, 18, amplitude=0.2)
    eps = 1e-4
    fd = (pullback(flow_exp(x_field, eps), g).g - g.g) * (1.0 / eps)
    exact = action_derivative(g, x_field)
    assert np.max(np.abs(fd.as_stack() - exact.as_stack())) <= 1e-2


def test_action_derivative_is_negated_lie_derivative():
    spec = GridSpec(16)
    x, y = spec.cell_centers()
    g = MetricField(
        SymTensorField.from_arrays(spec, 1.0 + 0.2 * np.sin(2 * np.pi * x), 0 * x, 1.0 + 0.1 * np.cos(2 * np.pi * y))
    )
    v = random_vector_field(spec, 19, amplitude=0.3)
    assert np.array_equal(
        action_derivative(g, v).as_stack(), -lie_derivative_metric(g, v).as_stack()
    )
