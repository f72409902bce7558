"""Geodesics of the L2 structure: inner product, exp, log, and their oracles."""

import numpy as np
import pytest
from scipy.optimize import minimize

from riemgrid.diffeos import pullback, translation
from riemgrid.errors import NoConvergence, PositivityLoss
from riemgrid.geodesics import (
    ebin_exp,
    ebin_inner,
    ebin_log,
    ebin_norm,
    relative_distance,
)
from riemgrid.calculus import trace_pairing, volume_density
from riemgrid.grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    constant_field,
    constant_metric,
    identity_metric,
    integrate,
    zero_tensor,
)
from riemgrid.sampling import random_sym_tensor


SPEC = GridSpec(16)
GAMMA = identity_metric(SPEC)


# ---------------------------------------------------------------------------
# inner product


def test_inner_identity_everywhere():
    s = constant_field(SPEC, np.eye(2))
    assert ebin_inner(GAMMA, s, s) == pytest.approx(2.0, abs=1e-14)


def test_inner_scaled_metric_quadrature_oracle():
    g = constant_metric(SPEC, np.diag((4.0, 4.0)))
    s = constant_field(SPEC, np.eye(2))
    direct = ebin_inner(g, s, s)
    # independent route: pointwise trace times density through the quadrature
    oracle = integrate(
        ScalarField(SPEC, trace_pairing(g, s, s).values * volume_density(g).values)
    )
    assert direct == pytest.approx(0.5, abs=1e-13)
    assert direct == pytest.approx(oracle, abs=1e-15)


def test_inner_zero_argument():
    s = random_sym_tensor(SPEC, 3, amplitude=0.5)
    assert ebin_inner(GAMMA, s, zero_tensor(SPEC)) == 0.0


def test_inner_positive_definite():
    for seed in range(5):
        s = random_sym_tensor(SPEC, seed, amplitude=0.5)
        assert ebin_inner(GAMMA, s, s) > 0.0


def test_inner_invariant_under_lattice_translation():
    x, y = SPEC.cell_centers()
    g = MetricField(
        constant_field(SPEC, np.eye(2))
        + random_sym_tensor(SPEC, 40, amplitude=0.2)
    )
    s = random_sym_tensor(SPEC, 41, amplitude=0.4)
    t = random_sym_tensor(SPEC, 42, amplitude=0.4)
    tau = translation(SPEC, (5 * SPEC.h, 11 * SPEC.h))
    before = ebin_inner(g, s, t)
    after = ebin_inner(pullback(tau, g), pullback(tau, s), pullback(tau, t))
    assert after == before


# ---------------------------------------------------------------------------
# exponential


def test_exp_zero_velocity_constant_path():
    path = ebin_exp(GAMMA, zero_tensor(SPEC), 1.0)
    assert path.steps == 0
    assert np.array_equal(path.endpoint.as_stack(), GAMMA.as_stack())
    assert path.samples[0].t == 0.0 and path.samples[-1].t == 1.0


def test_exp_starts_at_the_given_data():
    s = random_sym_tensor(SPEC, 7, amplitude=0.05)
    path = ebin_exp(GAMMA, s, 1.0)
    assert np.array_equal(path.samples[0].point.as_stack(), GAMMA.as_stack())
    assert np.array_equal(path.samples[0].velocity.as_stack(), s.as_stack())


def test_exp_conformal_closed_form():
    # pure-trace motion solves c'' = c'^2/(2c): c(t) = (1 + s t / 2)^2
    for s in (0.2, -0.3):
        path = ebin_exp(GAMMA, constant_field(SPEC, s * np.eye(2)), 1.0, tol=1e-10)
        end = path.endpoint.as_stack()
        expected = (1.0 + s / 2.0) ** 2
        assert np.max(np.abs(end[0] - expected)) <= 1e-9
        assert np.max(np.abs(end[2] - expected)) <= 1e-9
        assert np.max(np.abs(end[1])) <= 1e-12


def test_exp_constant_speed():
    s = random_sym_tensor(SPEC, 9, amplitude=0.1)
    path = ebin_exp(GAMMA, s, 1.0, tol=1e-8)
    assert path.speed_drift <= 1e-8
    speeds = [ebin_inner(p.point, p.velocity, p.velocity) for p in path.samples]
    rel = (max(speeds) - min(speeds)) / speeds[0]
    assert rel <= 1e-8


def test_exp_commutes_with_lattice_translation_exactly():
    s = random_sym_tensor(SPEC, 10, amplitude=0.08)
    g = MetricField(constant_field(SPEC, np.eye(2)) + random_sym_tensor(SPEC, 11, amplitude=0.1))
    tau = translation(SPEC, (4 * SPEC.h, 9 * SPEC.h))
    a = pullback(tau, ebin_exp(g, s, 1.0).endpoint)
    b = ebin_exp(pullback(tau, g), pullback(tau, s), 1.0).endpoint
    assert np.max(np.abs(a.as_stack() - b.as_stack())) <= 1e-12


def test_exp_positivity_loss():
    with pytest.raises(PositivityLoss):
        ebin_exp(GAMMA, constant_field(SPEC, -2.5 * np.eye(2)), 1.0)


def _curved_base(n=32):
    spec = GridSpec(n)
    return MetricField(constant_field(spec, np.eye(2)) + random_sym_tensor(spec, 11, amplitude=0.2))


def _acceleration(g, v):
    """Pointwise geodesic equation g'' = g' A + tr(A A) g / 4 - tr(A) g' / 2, A = g^{-1} g'."""
    det = g[0] * g[2] - g[1] ** 2
    i0, i1, i2 = g[2] / det, -g[1] / det, g[0] / det
    a11, a12 = i0 * v[0] + i1 * v[1], i0 * v[1] + i1 * v[2]
    a21, a22 = i1 * v[0] + i2 * v[1], i1 * v[1] + i2 * v[2]
    tr_a, tr_aa = a11 + a22, a11 * a11 + 2.0 * a12 * a21 + a22 * a22
    w = np.stack([v[0] * a11 + v[1] * a21, v[0] * a12 + v[1] * a22, v[1] * a12 + v[2] * a22])
    return w + 0.25 * tr_aa * g - 0.5 * tr_a * v


def _rk4_oracle(g, v, t_end, steps):
    """Fixed-step RK4 on the geodesic ODE; independent of the closed form."""
    dt = t_end / steps
    for _ in range(steps):
        k1g, k1v = v, _acceleration(g, v)
        k2g, k2v = v + 0.5 * dt * k1v, _acceleration(g + 0.5 * dt * k1g, v + 0.5 * dt * k1v)
        k3g, k3v = v + 0.5 * dt * k2v, _acceleration(g + 0.5 * dt * k2g, v + 0.5 * dt * k2v)
        k4g, k4v = v + dt * k3v, _acceleration(g + dt * k3g, v + dt * k3v)
        g = g + (dt / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return g, v


@pytest.mark.parametrize("amplitude", [0.05, 0.2, 0.5])
def test_exp_matches_rk4_oracle(amplitude):
    g = _curved_base()
    s = random_sym_tensor(g.spec, 12, amplitude=amplitude)
    path = ebin_exp(g, s, 1.0, tol=1e-10)
    end, vel = _rk4_oracle(g.as_stack(), s.as_stack(), 1.0, 400)
    assert np.max(np.abs(path.endpoint.as_stack() - end)) <= 1e-10
    assert np.max(np.abs(path.endpoint_velocity.as_stack() - vel)) <= 1e-10


def test_exp_conformal_branch_is_continuous():
    # lambda = 0 takes the series branch; lambda = 1e-9 the generic one.  The
    # two endpoints differ by the first-order term p t D with p = 1 + t a / 4
    c, t = -0.3, 1.0
    d = np.diag((1.0, -1.0))
    end0 = ebin_exp(GAMMA, constant_field(SPEC, c * np.eye(2)), t).endpoint.as_stack()
    end1 = ebin_exp(GAMMA, constant_field(SPEC, c * np.eye(2) + 1e-9 * d), t).endpoint.as_stack()
    p = 1.0 + t * (2.0 * c) / 4.0
    first_order = 1e-9 * p * t * np.array([1.0, 0.0, -1.0])[:, None, None]
    assert np.max(np.abs(end1 - end0 - first_order)) <= 1e-15


def _q_density(g, v):
    det = g[..., 0] * g[..., 2] - g[..., 1] ** 2
    i0, i1, i2 = g[..., 2] / det, -g[..., 1] / det, g[..., 0] / det
    a11 = i0 * v[..., 0] + i1 * v[..., 1]
    a12 = i0 * v[..., 1] + i1 * v[..., 2]
    a21 = i1 * v[..., 0] + i2 * v[..., 1]
    a22 = i1 * v[..., 1] + i2 * v[..., 2]
    return (a11 ** 2 + 2 * a12 * a21 + a22 ** 2) * np.sqrt(det)


def _bvp_minimizer(g0, g1, segments):
    """Discrete-energy path between fixed endpoints in the constant-field fiber.

    Dense piecewise-linear path, midpoint-rule energy, generic descent; stays
    independent of the closed form under test.
    """

    def energy(interior):
        y = np.vstack([g0, interior.reshape(segments - 1, 3), g1])
        dt = 1.0 / segments
        mid = 0.5 * (y[:-1] + y[1:])
        vel = (y[1:] - y[:-1]) / dt
        return dt * np.sum(_q_density(mid, vel))

    x0 = np.linspace(g0, g1, segments + 1)[1:-1].ravel()
    res = minimize(
        energy, x0, method="L-BFGS-B", options=dict(maxiter=20000, ftol=1e-16, gtol=1e-12)
    )
    y = np.vstack([g0, res.x.reshape(segments - 1, 3), g1])
    dt = 1.0 / segments
    v0 = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    return v0, res.fun


@pytest.mark.parametrize(
    "g0,s",
    [
        ((1.0, 0.0, 1.0), (0.12, -0.08, 0.05)),
        ((1.4, 0.3, 0.9), (-0.06, 0.1, 0.09)),
    ],
)
def test_exp_constant_fields_match_energy_minimization_oracle(g0, s):
    g0 = np.asarray(g0)
    s = np.asarray(s)
    gamma = constant_metric(SPEC, [[g0[0], g0[1]], [g0[1], g0[2]]])
    vel = constant_field(SPEC, [[s[0], s[1]], [s[1], s[2]]])
    end = ebin_exp(gamma, vel, 1.0, tol=1e-10).endpoint.as_stack()
    g1 = np.array([end[0, 0, 0], end[1, 0, 0], end[2, 0, 0]])
    assert np.ptp(end[0]) == 0.0  # constant data stays constant

    v0, energy = _bvp_minimizer(g0, g1, 16)
    # the minimizing path must shoot with the velocity that produced g1 ...
    assert np.max(np.abs(v0 - s)) <= 1e-4
    # ... and carry the geodesic energy sigma(S, S)
    assert energy == pytest.approx(ebin_inner(gamma, vel, vel), abs=1e-6)


# ---------------------------------------------------------------------------
# logarithm


def test_log_at_base_point_is_zero():
    s = ebin_log(GAMMA, GAMMA, tol=1e-10)
    assert not np.any(s.as_stack())


def test_log_roundtrip_seeded():
    for seed in (1, 2, 3):
        s0 = random_sym_tensor(SPEC, seed, amplitude=0.07)
        end = ebin_exp(GAMMA, s0, 1.0, tol=1e-10).endpoint
        s = ebin_log(GAMMA, end, tol=1e-8)
        assert ebin_norm(GAMMA, s - s0) / ebin_norm(GAMMA, s0) <= 1e-6


def test_log_conformal_recovers_trace_direction():
    c = 1.1
    g = constant_metric(SPEC, c * np.eye(2))
    s = ebin_log(GAMMA, g, tol=1e-10)
    st = s.as_stack()
    assert np.ptp(st[0]) <= 1e-8 and np.ptp(st[2]) <= 1e-8  # spatially constant
    assert np.max(np.abs(st[1])) <= 1e-8  # pure trace
    assert np.max(np.abs(st[0] - st[2])) <= 1e-8
    # conformal closed form: (1 + k)^2 = c with initial velocity 2k
    assert st[0, 0, 0] == pytest.approx(2.0 * (np.sqrt(c) - 1.0), abs=1e-8)


def test_log_local_injectivity_at_documented_radius():
    norm_gamma = ebin_norm(GAMMA, GAMMA.g)
    s0 = random_sym_tensor(SPEC, 17, amplitude=1.0)
    s0 = s0 * (0.1 * norm_gamma / ebin_norm(GAMMA, s0))
    end = ebin_exp(GAMMA, s0, 1.0, tol=1e-10).endpoint
    s = ebin_log(GAMMA, end, tol=1e-8)
    assert ebin_norm(GAMMA, s - s0) / ebin_norm(GAMMA, s0) <= 1e-6


def _angle_target(alpha, r2=1.3):
    """Constant target at hyperbolic half-angle alpha from the identity."""
    return constant_metric(SPEC, np.diag((r2 * np.exp(2 * alpha), r2 * np.exp(-2 * alpha))))


def test_log_domain_edge_at_angle_pi():
    # the log exists exactly for alpha < pi: just inside it round-trips,
    # just outside no geodesic reaches the target
    with pytest.raises(NoConvergence):
        ebin_log(GAMMA, _angle_target(np.pi + 1e-6), tol=1e-12)
    inside = _angle_target(np.pi - 1e-6)
    s = ebin_log(GAMMA, inside, tol=1e-12)
    end = ebin_exp(GAMMA, s, 1.0).endpoint
    assert ebin_norm(GAMMA, end.g - inside.g) <= 1e-12 * ebin_norm(GAMMA, inside.g)


def _roundtrip_gaps(g, s):
    """Target-space and velocity-space gaps of log(exp(s)), relative to |exp(s)| and |g|."""
    end = ebin_exp(g, s, 1.0).endpoint
    rec = ebin_log(g, end, tol=1e-12)
    back = ebin_exp(g, rec, 1.0).endpoint
    target_gap = ebin_norm(g, back.g - end.g) / ebin_norm(g, end.g)
    return target_gap, ebin_norm(g, rec - s) / ebin_norm(g, g.g)


@pytest.mark.parametrize("amplitude", [1e-6, 0.05, 0.5])
def test_log_exp_roundtrip_curved(amplitude):
    # near the identity the angle must come from asinh of the traceless part:
    # arccosh(1 + eps) would leave a velocity error near sqrt(eps) |g|
    g = _curved_base()
    s = random_sym_tensor(g.spec, 12, amplitude=amplitude)
    target_gap, velocity_gap = _roundtrip_gaps(g, s)
    assert target_gap <= 1e-12
    assert velocity_gap <= 1e-12


def test_log_exp_roundtrip_large_angle():
    # a = -8 and lambda = 2 tan(pi - 3) put every cell at alpha = 3
    g = _curved_base()
    gs = g.as_stack()
    m = random_sym_tensor(g.spec, 13, amplitude=1.0)
    m0 = SymTensorField.from_stack(g.spec, m.as_stack() - 0.5 * trace_pairing(g, g.g, m).values * gs)
    unit = np.sqrt(0.5 * trace_pairing(g, m0, m0).values)
    s = SymTensorField.from_stack(g.spec, -4.0 * gs + 2.0 * np.tan(np.pi - 3.0) * m0.as_stack() / unit)
    target_gap, _ = _roundtrip_gaps(g, s)
    assert target_gap <= 1e-12


def test_relative_distance_scale():
    g = constant_metric(SPEC, 1.05 * np.eye(2))
    assert relative_distance(GAMMA, g) == pytest.approx(0.05, abs=1e-12)
