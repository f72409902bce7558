"""Planar rotations acting on SPD 2x2 matrices by conjugation: an exact mirror.

The conjugation action R . A = R A R^T of the rotation group on the cone of
symmetric positive-definite 2x2 matrices reproduces, in three dimensions and
to machine precision, the structure probed numerically on the torus: orbits,
isotropy, slices, the product chart around an orbit, and the tube quotient.
In the chart coordinates (u, v, w) = ((a11 - a22)/2, a12, (a11 + a22)/2) the
action rotates (u, v) by twice the angle and fixes w; the Euclidean chart
metric (half the Frobenius one) is invariant, so exponentials are straight
lines and every statement here is checkable to roundoff.

The action has ineffective kernel {+-I} (conjugation by R(pi) is the identity
map); it is kept raw, and isotropy groups account for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideTube, PositivityLoss, RadiusTooLarge, ScalarPoint
from .sampling import DrawStream

_TWO_PI = 2.0 * math.pi
# seeded classes sampled by tube_quotient, and the roundoff bound each check meets
_TUBE_SAMPLES = 1000
_TUBE_TOL = 1e-12


@dataclass(frozen=True)
class Rot:
    """Rotation by theta, canonicalized to [0, 2*pi)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % _TWO_PI)

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def inverse(self) -> "Rot":
        return Rot(-self.theta)


@dataclass(frozen=True)
class SpdPoint:
    """Symmetric positive-definite 2x2 matrix (a11, a12, a22)."""

    a11: float
    a12: float
    a22: float

    def __post_init__(self):
        if not (self.a11 > 0.0 and self.a11 * self.a22 - self.a12 ** 2 > 0.0):
            raise PositivityLoss(f"matrix ({self.a11}, {self.a12}, {self.a22}) is not SPD")

    @property
    def chart(self) -> np.ndarray:
        """(u, v, w) with u = (a11 - a22)/2, v = a12, w = (a11 + a22)/2."""
        return np.array([(self.a11 - self.a22) / 2.0, self.a12, (self.a11 + self.a22) / 2.0])

    @classmethod
    def from_chart(cls, u: float, v: float, w: float) -> "SpdPoint":
        return cls(w + u, v, w - u)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def is_scalar(self, tol: float) -> bool:
        u, v, _ = self.chart
        return math.hypot(u, v) <= tol

    def chart_distance(self, other: "SpdPoint") -> float:
        return float(np.linalg.norm(self.chart - other.chart))

    def frobenius_distance(self, other: "SpdPoint") -> float:
        return float(np.linalg.norm(self.matrix - other.matrix))


def act(r: Rot, a: SpdPoint) -> SpdPoint:
    """Conjugation R A R^T; rotates the chart (u, v) by 2*theta, fixes w."""
    m = r.matrix @ a.matrix @ r.matrix.T
    return SpdPoint(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])


@dataclass(frozen=True)
class IsotropyGroup:
    """Either all rotations (scalar matrices) or the two-element group {0, pi}."""

    full: bool
    angles: tuple

    def __contains__(self, r: Rot) -> bool:
        if self.full:
            return True
        return any(min(abs(r.theta - a), _TWO_PI - abs(r.theta - a)) <= 1e-12 for a in self.angles)


def isotropy_of(a: SpdPoint) -> IsotropyGroup:
    if a.is_scalar(1e-12):
        return IsotropyGroup(True, ())
    return IsotropyGroup(False, (0.0, math.pi))


@dataclass(frozen=True)
class OrbitChart:
    """Parametrization theta |-> act(R(theta), base) of an orbit circle, theta in [0, pi).

    The coset parameter is read back through atan2 in the (u, v) plane; the
    map is equivariant: precomposing with R(beta) shifts the parameter by beta
    mod pi.
    """

    base: SpdPoint
    radius: float
    height: float
    base_angle: float

    def coset_of(self, q: SpdPoint) -> float:
        u, v, _ = q.chart
        if math.hypot(u, v) == 0.0:
            raise ScalarPoint("coset undefined at a scalar matrix")
        return (0.5 * (math.atan2(v, u) - self.base_angle)) % math.pi


def orbit_map(a: SpdPoint) -> OrbitChart:
    u, v, w = a.chart
    rho = math.hypot(u, v)
    if rho == 0.0:
        raise ScalarPoint("orbit of a scalar matrix is a point; chart degenerate")
    return OrbitChart(a, rho, w, math.atan2(v, u))


@dataclass(frozen=True)
class FiniteSlice:
    """Normal disk {base + s1 n1 + s2 n2 : s1^2 + s2^2 < radius^2} in chart coordinates.

    n1 is the radial direction away from the scalar axis (at a diagonal base
    point: the traceless diagonal direction), n2 the scalar direction; both are
    normal to the orbit circle through the base.
    """

    base: SpdPoint
    radius: float
    n1: tuple
    n2: tuple

    def point(self, s1: float, s2: float) -> SpdPoint:
        if s1 ** 2 + s2 ** 2 >= self.radius ** 2:
            raise RadiusTooLarge("slice coordinates outside the slice disk")
        c = self.base.chart + s1 * np.asarray(self.n1) + s2 * np.asarray(self.n2)
        return SpdPoint.from_chart(*c)

    def coords_of(self, q: SpdPoint) -> tuple:
        d = q.chart - self.base.chart
        return float(d @ np.asarray(self.n1)), float(d @ np.asarray(self.n2))

    def distance(self, q: SpdPoint) -> float:
        """Chart distance from q to the slice disk.

        n1 and n2 are orthonormal, so it is the hypotenuse of q's offset from
        the disk's plane and of its slice coordinates' excess over the radius.
        """
        s1, s2 = self.coords_of(q)
        d = q.chart - self.base.chart - s1 * np.asarray(self.n1) - s2 * np.asarray(self.n2)
        excess = max(0.0, math.hypot(s1, s2) - self.radius)
        return math.hypot(float(np.linalg.norm(d)), excess)


def slice_at(a: SpdPoint, eps: float) -> FiniteSlice:
    """Slice through a non-scalar point: exp image of the normal eps-disk.

    eps must stay below the chart distance to the scalar axis (so the isotropy
    group is constant on the slice) and below the distance to the cone
    boundary (so every slice point is SPD).
    """
    u, v, w = a.chart
    rho = math.hypot(u, v)
    if rho == 0.0:
        raise ScalarPoint("no slice chart at a scalar matrix")
    if eps >= rho:
        raise RadiusTooLarge(f"radius {eps} reaches the scalar axis at distance {rho}")
    cone_margin = (w - rho) / math.sqrt(2.0)
    if eps >= cone_margin:
        raise RadiusTooLarge(f"radius {eps} reaches the cone boundary at distance {cone_margin:.3g}")
    n1 = (u / rho, v / rho, 0.0)
    n2 = (0.0, 0.0, 1.0)
    return FiniteSlice(a, eps, n1, n2)


def chart_F(theta_coset: float, s: SpdPoint) -> SpdPoint:
    """F(coset, slice point) = chi(coset) . s with the section chi(t) = R(t), t in [0, pi)."""
    return act(Rot(theta_coset % math.pi), s)


def chart_F_inverse(q: SpdPoint, slice_: FiniteSlice) -> tuple:
    """Explicit inverse of the product chart around the orbit of the slice base.

    Projects q to the orbit circle (straight-line foot point in the chart),
    reads the coset there, and pulls q back by the section's inverse.
    """
    orbit = orbit_map(slice_.base)
    u, v, w = q.chart
    rho = math.hypot(u, v)
    if rho == 0.0:
        raise OutsideTube("scalar matrices have no orbit foot point")
    normal_dist = math.hypot(rho - orbit.radius, w - orbit.height)
    if normal_dist >= slice_.radius:
        raise OutsideTube(f"normal distance {normal_dist:.3g} >= slice radius {slice_.radius}")
    theta = orbit.coset_of(q)
    s = act(Rot(theta).inverse(), q)
    return theta, s


@dataclass(frozen=True)
class TubeReport:
    """Outcome of the quotient-tube verification; empty violations = pass."""

    samples: int
    violations: tuple
    max_welldef_error: float
    max_roundtrip_error: float
    min_class_separation: float

    @property
    def passed(self) -> bool:
        return not self.violations


def tube_quotient(slice_: FiniteSlice, seed: int) -> TubeReport:
    """Verify that [R, s] -> act(R, s) is well-defined, injective, and onto the tube.

    Classes are pairs (R(theta), s) modulo (R(theta + pi), act(R(pi))^{-1} . s);
    samples are seeded.  Surjectivity is checked by inverting tube points
    through chart_F_inverse.
    """
    stream = DrawStream(seed)
    violations = []
    max_welldef = 0.0
    max_roundtrip = 0.0
    min_sep = math.inf

    def sample_class():
        theta = stream.next_unit() * _TWO_PI
        ang = stream.next_unit() * _TWO_PI
        rad = slice_.radius * 0.95 * math.sqrt(stream.next_unit())
        s = slice_.point(rad * math.cos(ang), rad * math.sin(ang))
        return theta, s

    pairs = []
    for k in range(_TUBE_SAMPLES):
        theta, s = sample_class()
        image = act(Rot(theta), s)
        partner = act(Rot(theta + math.pi), act(Rot(math.pi).inverse(), s))
        err = image.frobenius_distance(partner)
        max_welldef = max(max_welldef, err)
        if err > _TUBE_TOL:
            violations.append(f"well-definedness violated at sample {k}: {err:.3e}")
        pairs.append((theta, s, image))

        # surjectivity: the image must invert back through the chart
        theta_rec, s_rec = chart_F_inverse(image, slice_)
        round_err = chart_F(theta_rec, s_rec).frobenius_distance(image)
        max_roundtrip = max(max_roundtrip, round_err)
        if round_err > _TUBE_TOL:
            violations.append(f"chart roundtrip violated at sample {k}: {round_err:.3e}")

    def class_gap(p, q) -> float:
        (t1, s1, _), (t2, s2, _) = p, q
        gap = math.inf
        for shift, twist in ((0.0, 0.0), (math.pi, math.pi)):
            dt = abs((t1 - t2 - shift + math.pi) % _TWO_PI - math.pi)
            ds = s1.chart_distance(act(Rot(twist).inverse(), s2))
            gap = min(gap, dt + ds)
        return gap

    for k in range(0, len(pairs) - 1, 2):
        p, q = pairs[k], pairs[k + 1]
        gap = class_gap(p, q)
        img_gap = p[2].frobenius_distance(q[2])
        if gap > 1e-9:
            min_sep = min(min_sep, img_gap)
            if img_gap <= _TUBE_TOL:
                violations.append(f"injectivity violated for sample pair {k}: classes {gap:.3e} apart")

    return TubeReport(_TUBE_SAMPLES, tuple(violations), max_welldef, max_roundtrip, min_sep)

