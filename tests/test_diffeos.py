"""Diffeomorphisms: composition, inversion, flows, and the pullback action."""

import numpy as np
import pytest

from riemgrid.diffeos import (
    _rk4_steps,
    action_derivative,
    compose,
    flow_exp,
    from_displacement,
    identity_diffeo,
    invert,
    pullback,
    translation,
)
from riemgrid.errors import JacobianSignFlip, NoConvergence, StepFailure
from riemgrid.calculus import lie_derivative_metric
from riemgrid.geodesics import ebin_norm
from riemgrid.grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _Sampler,
    constant_vector,
    identity_metric,
    interpolate,
    stencil_gradient,
)
from riemgrid.sampling import random_sym_tensor, random_vector_field


SPEC = GridSpec(32)


def small_flow(seed=21, amplitude=0.01, t=1.0):
    return flow_exp(random_vector_field(SPEC, seed, max_mode=2, amplitude=amplitude), t)


def map_gap(phi, psi):
    return max(
        np.max(np.abs(phi.u.values[0] - psi.u.values[0])),
        np.max(np.abs(phi.u.values[1] - psi.u.values[1])),
    )


def rk4(x_field, t, n_steps, sample=None):
    """Displacement of the time-t flow by n_steps fixed RK4 steps, with flow_exp's arithmetic.

    Each stage evaluates sample(x, y), by default one spline sampler for the
    whole flow as flow_exp keeps.
    """
    sample = _Sampler(x_field) if sample is None else sample
    x, y = x_field.spec.cell_centers()
    p = np.stack([x, y])
    dt = t / n_steps
    for _ in range(n_steps):
        k1 = sample(p[0], p[1])
        q = p + 0.5 * dt * k1
        k2 = sample(q[0], q[1])
        q = p + 0.5 * dt * k2
        k3 = sample(q[0], q[1])
        q = p + dt * k3
        k4 = sample(q[0], q[1])
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p - np.stack([x, y])


def test_identity_diffeo():
    ident = identity_diffeo(SPEC)
    assert not np.any(ident.u.as_stack())
    assert not np.any(ident.v.as_stack())


def test_identity_is_neutral_for_compose():
    phi = small_flow()
    # on the left it is exact, as the spline of zero is 0; on the right the
    # spline reproduces the nodes only to roundoff
    assert compose(identity_diffeo(SPEC), phi) is phi
    assert map_gap(compose(phi, identity_diffeo(SPEC)), phi) <= 1e-13


def test_an_inverse_is_solved_only_when_read():
    phi = small_flow(31, 0.02)
    flow = flow_exp(random_vector_field(SPEC, 32, max_mode=2, amplitude=0.02), -0.5)
    composite = compose(phi, flow)
    assert not any("v" in f.__dict__ for f in (phi, flow, composite))
    inv = invert(phi)  # promotes phi's inverse, so solves it
    near_id = compose(phi, inv)
    assert "v" in phi.__dict__
    assert "v" not in inv.__dict__ and "v" not in near_id.__dict__
    assert composite.v is composite.v


def test_identity_pullback_is_exact():
    g = identity_metric(SPEC)
    s = random_sym_tensor(SPEC, 4, amplitude=0.3)
    assert np.array_equal(pullback(identity_diffeo(SPEC), s).as_stack(), s.as_stack())
    assert np.array_equal(pullback(identity_diffeo(SPEC), g).as_stack(), g.as_stack())


def test_translations_compose_exactly():
    a = translation(SPEC, (0.11, -0.07))
    b = translation(SPEC, (0.05, 0.30))
    c = compose(a, b)
    assert np.all(c.u.values[0] == 0.11 + 0.05)
    assert np.all(c.u.values[1] == -0.07 + 0.30)


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
    assert np.all(inv.u.values[0] == -0.2)
    assert np.all(inv.u.values[1] == 0.4)


def test_invert_flow_matches_negative_field():
    # the comparison floor is the spline representation of the displacement,
    # so the flow must be genuinely smooth and small
    spec = GridSpec(64)
    x = random_vector_field(spec, 8, max_mode=1, amplitude=0.02)
    fwd = flow_exp(x, 1.0)
    back = rk4(x * -1.0, 1.0, 128)
    assert np.max(np.abs(invert(fwd).u.values - back)) <= 1e-8


def test_invert_identity():
    assert map_gap(invert(identity_diffeo(SPEC)), identity_diffeo(SPEC)) == 0.0


def test_flow_of_zero_field():
    assert map_gap(flow_exp(constant_vector(SPEC, (0.0, 0.0)), 1.0), identity_diffeo(SPEC)) == 0.0


def test_flow_of_constant_field_is_translation():
    phi = flow_exp(constant_vector(SPEC, (0.25, 0.0)), 1.0)
    assert np.max(np.abs(phi.u.values[0] - 0.25)) <= 1e-12
    assert np.max(np.abs(phi.u.values[1])) <= 1e-12


def test_flow_matches_dense_reference():
    spec = GridSpec(64)
    _, y = spec.cell_centers()
    x_field = VectorField.from_arrays(spec, np.sin(2 * np.pi * y), np.zeros((64, 64)))
    coarse = flow_exp(x_field, 0.1)
    dense = rk4(x_field, 0.1, 1000)  # dt = 1e-4
    assert np.max(np.abs(coarse.u.values - dense)) <= 1e-8


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
    oracle = rk4(x_field, t, 1024)
    assert np.max(np.abs(phi.u.values - oracle)) <= 1e-12


def test_flow_of_zero_and_constant_fields_takes_one_step():
    assert _rk4_steps(constant_vector(SPEC, (0.0, 0.0)), 1.0) == 1
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
    x, y = SPEC.cell_centers()
    for f in (phi, inv):  # the Newton certificate max|v + u(x + v)|
        v = f.v.values
        assert np.max(np.abs(v + interpolate(f.u, x + v[0], y + v[1]))) <= 1e-12
    assert np.max(np.abs(compose(phi, inv).u.values)) <= 1e-10


def test_flow_whose_inverse_diverges_raises():
    # det(I + Du) >= 0.34 passes the sign check, but at max ||Du||_2 = 1.60
    # the Newton iterate for the inverse diverges, at the first read of v
    x_field = random_vector_field(SPEC, 7, amplitude=0.05, max_mode=4)
    phi = flow_exp(x_field, 1.0)
    with pytest.raises(NoConvergence, match=r"residual"):
        phi.v


def test_flow_displacement_bound():
    with pytest.raises(StepFailure):
        flow_exp(constant_vector(SPEC, (1.0, 0.0)), 1.0)


def test_flow_with_non_finite_positions_raises():
    # a checkerboard at 1e308 overflows the spline prefilter, and t keeps
    # t max|X| inside the displacement bound; its stencil gradient is exactly
    # 0, so the step rule takes one step
    spec = GridSpec(16)
    sign = np.where(np.add.outer(np.arange(16), np.arange(16)) % 2 == 0, 1.0, -1.0)
    x_field = VectorField.from_arrays(spec, 1e308 * sign, 1e308 * sign)
    assert _rk4_steps(x_field, 1e-309) == 1
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepFailure, match="non-finite positions"):
        flow_exp(x_field, 1e-309)


def test_folding_displacement_raises():
    # det(I + Du) = 1 + 1.5 cos(2 pi x) is negative near x = 1/2
    x, _ = SPEC.cell_centers()
    u = VectorField.from_arrays(SPEC, 1.5 * np.sin(2 * np.pi * x) / (2 * np.pi), np.zeros_like(x))
    with pytest.raises(JacobianSignFlip):
        from_displacement(SPEC, u)


def test_translation_by_a_non_finite_shift_raises():
    with pytest.raises(StepFailure, match="non-finite"):
        translation(SPEC, (np.nan, 0.0))


def test_compose_across_grids_raises():
    with pytest.raises(ValueError, match="different grids"):
        compose(identity_diffeo(SPEC), identity_diffeo(GridSpec(16)))


# ---------------------------------------------------------------------------
# the cached spline gather: flows and Newton solves equal fresh interpolation


def drifting_field(n, seed):
    """A mean drift of (0.2, -0.15) plus a max_mode 2 perturbation: its flow crosses cells and the torus edge."""
    spec = GridSpec(n)
    return constant_vector(spec, (0.2, -0.15)) + random_vector_field(spec, seed, amplitude=0.03, max_mode=2)


def fresh_newton(u, start):
    """The inverse displacement of u by _build's Newton loop, with a fresh interpolate call per iterate."""
    x, y = u.spec.cell_centers()
    vs = start
    for _ in range(30):
        r = interpolate(u, x + vs[0], y + vs[1]) + vs
        if np.max(np.abs(r)) <= 1e-12:
            return vs
        dv = stencil_gradient(vs, u.spec.h)
        vs = vs - (r + dv[0] * r[0] + dv[1] * r[1])
    raise AssertionError("reference Newton loop did not converge")


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("t", [1.0, -1.0])
def test_flow_equals_rk4_with_fresh_interpolation(n, t):
    x_field = drifting_field(n, 31)
    phi = flow_exp(x_field, t)
    points = phi.points()
    assert np.min(np.abs(phi.u.values[0])) * n > 2.0  # every point crosses at least two cells
    assert np.any(points < 0.0) and np.any(points >= 1.0)  # and some wrap the torus edge
    # flow_exp's displacement, with a fresh interpolate call at every RK4 stage
    fresh = rk4(x_field, t, _rk4_steps(x_field, t), lambda x, y: interpolate(x_field, x, y))
    assert np.array_equal(phi.u.values, fresh)
    assert np.array_equal(phi.v.values, fresh_newton(phi.u, -phi.u.values))


@pytest.mark.parametrize("n", [16, 64])
def test_invert_equals_newton_with_fresh_interpolation(n):
    phi = flow_exp(drifting_field(n, 33), 1.0)
    inv = invert(phi)
    assert np.array_equal(inv.u.values, phi.v.values)
    assert np.array_equal(inv.v.values, fresh_newton(phi.v, phi.u.values))


def test_pullback_lattice_translation_permutes_samples():
    s = random_sym_tensor(SPEC, 14, amplitude=0.4)
    phi = translation(SPEC, (3 * SPEC.h, 5 * SPEC.h))
    moved = pullback(phi, s)
    assert np.array_equal(moved.values[0], np.roll(s.values[0], (3, 5), axis=(0, 1)))
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
    assert np.max(np.abs(moved.g.values[0] - 1.0)) <= 1e-3
    assert np.max(np.abs(moved.g.values[1] + c)) <= 1e-3
    assert np.max(np.abs(moved.g.values[2] - (1.0 + c ** 2))) <= 1e-3


def test_pullback_of_a_scalar_reads_it_at_the_inverse_image():
    # f(phi^-1(x)) to spline accuracy, by a flow and by a translation off the lattice
    def fn(x, y):
        return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

    x, y = SPEC.cell_centers()
    f = ScalarField(SPEC, fn(x, y))
    phi = small_flow()
    moved = pullback(phi, f)
    assert isinstance(moved, ScalarField)
    assert np.max(np.abs(moved.values - fn(x + phi.v.values[0], y + phi.v.values[1]))) <= 1e-5
    moved = pullback(translation(SPEC, (0.1, 0.0)), f)
    assert isinstance(moved, ScalarField)
    assert np.max(np.abs(moved.values - fn(x - 0.1, y))) <= 1e-5


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
    assert not np.any(action_derivative(g, constant_vector(SPEC, (0.0, 0.0))).as_stack())
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
