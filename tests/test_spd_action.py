"""Rotations on SPD matrices: the machine-precision slice-theorem mirror."""

import math

import numpy as np
import pytest

from riemgrid.errors import OutsideTube, PositivityLoss, RadiusTooLarge, ScalarPoint
from riemgrid.sampling import DrawStream
from riemgrid.spd_action import (
    FiniteSlice,
    Rot,
    SpdPoint,
    act,
    chart_F,
    chart_F_inverse,
    isotropy_of,
    orbit_map,
    slice_at,
    tube_quotient,
)

BASE = SpdPoint(2.0, 0.0, 1.0)


def theta_grid(samples=10_000):
    return np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)


# ---------------------------------------------------------------------------
# the action


def test_act_identity_axiom():
    a = SpdPoint(1.7, 0.3, 0.8)
    moved = act(Rot(0.0), a)
    assert moved.frobenius_distance(a) == 0.0


def test_act_quarter_diagonal_matrix_oracle():
    moved = act(Rot(math.pi / 4.0), BASE)
    r = Rot(math.pi / 4.0).matrix
    oracle = r @ BASE.matrix @ r.T
    assert np.allclose(moved.matrix, [[1.5, 0.5], [0.5, 1.5]], atol=1e-14)
    assert np.allclose(moved.matrix, oracle, atol=1e-15)


def test_act_composition_axiom():
    a = SpdPoint(1.2, -0.4, 2.0)
    for alpha, beta in ((0.3, 1.1), (2.5, 4.0), (5.9, 0.7)):
        lhs = act(Rot(alpha), act(Rot(beta), a))
        rhs = act(Rot(alpha + beta), a)
        assert lhs.frobenius_distance(rhs) <= 1e-14


def test_act_chart_rotation():
    a = SpdPoint(1.9, 0.25, 0.85)
    theta = 0.77
    u, v, w = a.chart
    moved = act(Rot(theta), a)
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    assert np.allclose(moved.chart, [c * u - s * v, s * u + c * v, w], atol=1e-14)


def test_spd_validation():
    with pytest.raises(PositivityLoss):
        SpdPoint(1.0, 1.5, 1.0)


# ---------------------------------------------------------------------------
# isotropy


def brute_force_isotropy_angles(a, tol=1e-9):
    return [t for t in theta_grid() if act(Rot(t), a).frobenius_distance(a) <= tol]


def test_isotropy_of_scalar_matrix_is_full():
    iso = isotropy_of(SpdPoint(1.0, 0.0, 1.0))
    assert iso.full
    assert len(brute_force_isotropy_angles(SpdPoint(1.0, 0.0, 1.0))) == 10_000


def test_isotropy_of_diagonal_matrix():
    iso = isotropy_of(BASE)
    assert not iso.full
    angles = brute_force_isotropy_angles(BASE)
    assert angles == [0.0, math.pi]
    assert Rot(0.0) in iso and Rot(math.pi) in iso and Rot(0.5) not in iso


def test_isotropy_of_rotated_matrix():
    a = SpdPoint(1.5, 0.5, 1.5)  # conjugate of diag(2, 1)
    iso = isotropy_of(a)
    assert not iso.full
    assert brute_force_isotropy_angles(a) == [0.0, math.pi]


# ---------------------------------------------------------------------------
# orbit chart


def test_orbit_is_circle_in_chart():
    orbit = orbit_map(BASE)
    assert orbit.radius == pytest.approx(0.5)
    assert orbit.height == pytest.approx(1.5)
    for theta in np.linspace(0, math.pi, 13):
        q = act(Rot(theta), orbit.base)
        u, v, w = q.chart
        assert math.hypot(u, v) == pytest.approx(0.5, abs=1e-14)
        assert w == pytest.approx(1.5, abs=1e-14)


def test_orbit_coset_inverse():
    orbit = orbit_map(BASE)
    q = SpdPoint(1.5, 0.5, 1.5)  # act(R(pi/4), diag(2,1))
    assert orbit.coset_of(q) == pytest.approx(math.pi / 4.0, abs=1e-12)
    for theta in np.linspace(0.0, math.pi, 17, endpoint=False):
        assert orbit.coset_of(act(Rot(theta), orbit.base)) == pytest.approx(theta, abs=1e-12)


def test_orbit_chart_equivariance():
    orbit = orbit_map(BASE)
    beta = 0.37
    for theta in np.linspace(0.0, math.pi, 11, endpoint=False):
        q = act(Rot(beta), act(Rot(theta), orbit.base))
        assert orbit.coset_of(q) == pytest.approx((theta + beta) % math.pi, abs=1e-12)


def test_orbit_map_rejects_scalar():
    with pytest.raises(ScalarPoint):
        orbit_map(SpdPoint(2.0, 0.0, 2.0))


# ---------------------------------------------------------------------------
# slices


def test_slice_at_diagonal_base_is_diagonal():
    sl = slice_at(BASE, 0.1)
    for s1, s2 in ((0.05, 0.0), (0.0, -0.07), (-0.03, 0.04)):
        pt = sl.point(s1, s2)
        assert pt.a12 == 0.0
        assert pt.a11 > 0 and pt.a22 > 0


def test_slice_radius_bounds():
    with pytest.raises(RadiusTooLarge):
        slice_at(BASE, 0.6)  # reaches the scalar axis at distance 0.5
    with pytest.raises(ScalarPoint):
        slice_at(SpdPoint(1.0, 0.0, 1.0), 0.1)


def test_slice_property_i_isotropy_fixes_slice_pointwise():
    # conjugation by the half turn is the identity map
    sl = slice_at(BASE, 0.1)
    for s1 in (-0.05, 0.0, 0.06):
        for s2 in (-0.05, 0.0, 0.06):
            if s1 ** 2 + s2 ** 2 >= 0.01:
                continue
            pt = sl.point(s1, s2)
            assert act(Rot(math.pi), pt).frobenius_distance(pt) <= 1e-12


def test_slice_distance_is_plane_offset_and_rim_excess():
    sl = slice_at(BASE, 0.1)  # base chart (0.5, 0, 1.5), n1 = (1, 0, 0), n2 = (0, 0, 1)
    for s1, s2 in ((0.0, 0.0), (0.05, -0.03), (-0.06, 0.07)):
        assert sl.distance(sl.point(s1, s2)) <= 1e-15
    assert sl.distance(SpdPoint.from_chart(0.5, 0.05, 1.5)) == pytest.approx(0.05, rel=1e-12)
    assert sl.distance(SpdPoint.from_chart(0.62, 0.0, 1.66)) == pytest.approx(0.1, rel=1e-12)
    assert sl.distance(SpdPoint.from_chart(0.62, 0.05, 1.66)) == pytest.approx(math.hypot(0.05, 0.1), rel=1e-12)


def test_slice_property_ii_other_rotations_leave_the_slice():
    # exhaustive theta grid; note the quarter turn lands on swapped diagonal
    # matrices, which are diagonal but far outside the slice disk
    sl = slice_at(BASE, 0.1)
    pt = sl.point(0.05, -0.03)
    gap = math.pi / 5000.0
    for theta in theta_grid(10_000):
        if min(theta % math.pi, math.pi - theta % math.pi) < gap:
            continue  # skip the isotropy angles themselves
        moved = act(Rot(theta), pt)
        assert sl.distance(moved) > 1e-4


# ---------------------------------------------------------------------------
# the product chart


def test_chart_f_at_identity_coset():
    sl = slice_at(BASE, 0.1)
    assert chart_F(0.0, BASE).frobenius_distance(BASE) == 0.0


def test_chart_f_inverse_constructed_input():
    sl = slice_at(BASE, 0.1)
    s = SpdPoint(2.05, 0.0, 0.98)
    q = act(Rot(math.pi / 4.0), s)
    theta, s_rec = chart_F_inverse(q, sl)
    assert theta == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert s_rec.frobenius_distance(s) <= 1e-12


def test_chart_roundtrip_seeded_tube_samples():
    sl = slice_at(BASE, 0.1)
    stream = DrawStream(2024)
    worst = 0.0
    for _ in range(1000):
        theta = stream.next_unit() * math.pi
        ang = stream.next_unit() * 2.0 * math.pi
        rad = 0.095 * math.sqrt(stream.next_unit())
        s = sl.point(rad * math.cos(ang), rad * math.sin(ang))
        q = chart_F(theta, s)
        theta_rec, s_rec = chart_F_inverse(q, sl)
        worst = max(
            worst,
            abs(theta_rec - theta),
            s_rec.frobenius_distance(s),
            chart_F(theta_rec, s_rec).frobenius_distance(q),
        )
    assert worst <= 1e-12


def test_chart_f_inverse_outside_tube():
    sl = slice_at(BASE, 0.1)
    with pytest.raises(OutsideTube):
        chart_F_inverse(SpdPoint(3.5, 0.0, 0.5), sl)
    with pytest.raises(OutsideTube):
        chart_F_inverse(SpdPoint(1.5, 0.0, 1.5), sl)  # scalar: no foot point


# ---------------------------------------------------------------------------
# tube quotient


def test_tube_well_definedness_exact():
    sl = slice_at(BASE, 0.1)
    stream = DrawStream(5)
    for k in range(100):
        theta = stream.next_unit() * 2.0 * math.pi
        rad = 0.09 * math.sqrt(stream.next_unit())
        ang = stream.next_unit() * 2.0 * math.pi
        s = sl.point(rad * math.cos(ang), rad * math.sin(ang))
        a = act(Rot(theta), s)
        b = act(Rot(theta + math.pi), act(Rot(math.pi).inverse(), s))
        assert a.frobenius_distance(b) <= 1e-12


def test_tube_quotient_report_passes():
    sl = slice_at(BASE, 0.1)
    report = tube_quotient(sl, seed=77)
    assert report.passed
    assert report.samples == 1000
    assert report.max_welldef_error <= 1e-12
    assert report.max_roundtrip_error <= 1e-12
    assert report.min_class_separation > 0.0


def test_invariant_frobenius_metric():
    a = SpdPoint(1.3, 0.2, 0.9)
    b = SpdPoint(2.1, -0.3, 1.4)
    for theta in np.linspace(0.0, 2 * math.pi, 37):
        r = Rot(theta)
        assert abs(act(r, a).frobenius_distance(act(r, b)) - a.frobenius_distance(b)) <= 1e-14

