"""The weak L2 (Ebin) Riemannian structure on the discretized metric space.

The inner product is sigma_g(S, T) = integral tr(g^{-1} S g^{-1} T) dvol(g).
Each cell contributes independently, and per cell the metric
tr(g^{-1} dg g^{-1} dg) sqrt(det g) is a metric cone over the hyperbolic
plane: writing g = R^2 g_1 with det g_1 = det g(0) and
R^2 = sqrt(det g / det g(0)), it reads 8 sqrt(det g(0)) (dR^2 + R^2 d alpha^2),
where 2 alpha is the hyperbolic distance travelled by the unimodular part g_1
(Freed-Groisser, Michigan Math. J. 1989; Gil-Medrano-Michor, Quart. J. Math.
1991).  Geodesics are straight lines in the polar coordinates (R, alpha), so
exp and log have closed forms.

With A = g^{-1} h, a = tr A, lambda = sqrt(tr(A_0^2) / 2) for the traceless
part A_0, p = 1 + t a / 4, q = t lambda / 2 and alpha = atan2(q, p),

    exp_g(t h) = (p^2 + q^2) (cosh 2 alpha g + (sinh 2 alpha / lambda) (h - (a/2) g)),

and sinh 2 alpha / lambda tends to t / p as lambda -> 0.  Sanity anchor: for
conformal motion g(t) = c(t) I this is c(t) = (1 + k t)^2.  The only way out
of the SPD cone is through its apex (lambda = 0 and p <= 0 on [0, t]), which
raises PositivityLoss.  The log reads R and alpha off the endpoint; it exists
exactly when alpha < pi, since a straight segment from (R, alpha) = (1, 0)
reaches no polar angle at or beyond pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import _det, _inv, _inv_stack, _trace_pairing_values, _vol_values
from .errors import NoConvergence, PositivityLoss, ToleranceNotMet
from .grid import MetricField, SymTensorField

# sample times of a returned path: the speed check runs between them
_SAMPLES = 17
# lambda at or below this multiple of |a| is zero to roundoff
_APEX = 64.0 * np.finfo(np.float64).eps


def ebin_inner(g: MetricField, s: SymTensorField, t: SymTensorField) -> float:
    """sigma_g(S, T): integral of tr(g^{-1} S g^{-1} T) against dvol(g)."""
    return _sym_inner(g, s.as_stack(), t.as_stack())


def _sym_inner(g: MetricField, a: np.ndarray, b: np.ndarray) -> float:
    """ebin_inner on (3, n, n) stacks."""
    vals = _trace_pairing_values(_inv_stack(g), a, b) * _vol_values(g)
    return float(g.spec.h ** 2 * np.sum(vals))


def ebin_norm(g: MetricField, s: SymTensorField) -> float:
    return float(np.sqrt(max(ebin_inner(g, s, s), 0.0)))


def relative_distance(base: MetricField, other: MetricField) -> float:
    """Linear-chart sigma distance |other - base| / |base|, measured at base."""
    diff = other.g - base.g
    return ebin_norm(base, diff) / ebin_norm(base, base.g)


@dataclass(frozen=True)
class GeodesicSample:
    t: float
    point: MetricField
    velocity: SymTensorField


@dataclass(frozen=True)
class GeodesicPath:
    """Geodesic from (base, velocity), sampled at equally spaced times.

    steps counts the time steps evaluated after t = 0: one per later sample of
    the closed form, none for a constant path.
    """

    base: MetricField
    velocity: SymTensorField
    samples: tuple
    steps: int
    speed_drift: float

    @property
    def endpoint(self) -> MetricField:
        return self.samples[-1].point

    @property
    def endpoint_velocity(self) -> SymTensorField:
        return self.samples[-1].velocity


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x) / x, by its Taylor series near 0 (error below 1e-22 there)."""
    x2 = x * x
    small = np.abs(x) < 1e-3
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x2 / 6.0 * (1.0 + x2 / 20.0), np.sinh(safe) / safe)


def _trace(inv: np.ndarray, s: np.ndarray) -> np.ndarray:
    """tr(g^{-1} s) per cell from the inverse stack."""
    return inv[0] * s[0] + 2.0 * inv[1] * s[1] + inv[2] * s[2]


def _geodesic(g: np.ndarray, s: np.ndarray, t, velocity: bool = False):
    """Closed-form exp_g(t s) and, if asked, its t-derivative.

    g and s are (3, n, n) stacks; t is a float or an array of times with shape
    (m, 1, 1), which adds a leading time axis to the results.
    """
    inv = _inv(g)
    a = _trace(inv, s)
    k0 = s - 0.5 * a * g  # g A_0
    lam = np.sqrt(np.maximum(0.5 * _trace_pairing_values(inv, k0, k0), 0.0))
    p = 1.0 + 0.25 * t * a
    q = 0.5 * t * lam
    if np.any((p <= 0.0) & (lam <= _APEX * np.abs(a))):
        raise PositivityLoss("geodesic reaches the apex of the SPD cone; rescale the initial velocity")
    alpha = np.arctan2(q, p)
    # alpha / lambda, with its limit t / (2 p) on exactly conformal cells
    with np.errstate(divide="ignore"):
        c = np.divide(alpha, lam, out=0.5 * t / p, where=lam > 0.0)
    cosh2, sinhc2 = np.cosh(2.0 * alpha), _sinhc(2.0 * alpha)
    r2 = p * p + q * q
    w = 2.0 * c * sinhc2  # sinh(2 alpha) / lambda
    point = np.stack([r2 * cosh2 * g[k] + r2 * w * k0[k] for k in range(3)], axis=-3)
    if not velocity:
        return point
    dr2 = 0.5 * p * a + q * lam
    du = dr2 * cosh2 + lam * lam * w
    dw = dr2 * w + cosh2
    return point, np.stack([du * g[k] + dw * k0[k] for k in range(3)], axis=-3)


def ebin_exp(g: MetricField, s: SymTensorField, t_end: float = 1.0, tol: float = 1e-8) -> GeodesicPath:
    """Geodesic from g with initial velocity s, evaluated in closed form up to t_end.

    The path is sampled at equally spaced times; the first sample is (g, s)
    itself.  A path through the apex of the SPD cone raises PositivityLoss,
    and the sigma-speed must agree between the samples within tol
    (ToleranceNotMet otherwise).
    """
    spec = g.spec
    if t_end == 0.0 or not np.any(s.as_stack()):
        return GeodesicPath(g, s, (GeodesicSample(0.0, g, s), GeodesicSample(t_end, g, s)), 0, 0.0)
    times = np.linspace(0.0, t_end, _SAMPLES)
    points, velocities = _geodesic(g.as_stack(), s.as_stack(), times[:, None, None], velocity=True)
    samples = [GeodesicSample(0.0, g, s)]
    for t, point, vel in zip(times[1:], points[1:], velocities[1:]):
        metric = MetricField.from_stack(spec, point)
        samples.append(GeodesicSample(float(t), metric, SymTensorField.from_stack(spec, vel)))

    speed0 = ebin_inner(g, s, s)
    drift = 0.0
    if speed0 > 0.0:  # zero only when s underflows
        drift = max(abs(ebin_inner(x.point, x.velocity, x.velocity) - speed0) for x in samples) / speed0
    if drift > tol:
        raise ToleranceNotMet(f"sigma-speed drift {drift:.3e} exceeds tol {tol:.3e}")
    return GeodesicPath(g, s, tuple(samples), _SAMPLES - 1, drift)


def ebin_log(g_base: MetricField, g_target: MetricField, tol: float = 1e-8) -> SymTensorField:
    """Initial velocity S with exp(g_base, S, 1).endpoint = g_target, in closed form.

    Per cell, B = g^{-1} k for the target k gives the radius R^2 = sqrt(det B)
    and the angle 2 alpha = asinh(|B_0| / R^2) of the traceless part B_0 (the
    asinh keeps full relative accuracy near the identity).  Raises
    NoConvergence when some cell has alpha >= pi, where no geodesic reaches
    the target, or when exp of the result misses g_target by more than tol in
    relative sigma norm.
    """
    spec = g_base.spec
    g = g_base.as_stack()
    k = g_target.as_stack()
    inv = _inv(g)
    half_tr = 0.5 * _trace(inv, k)
    k0 = k - half_tr * g  # g B_0
    mu = np.sqrt(np.maximum(0.5 * _trace_pairing_values(inv, k0, k0), 0.0))
    r2 = np.sqrt(_det(k) / _det(g))
    alpha = 0.5 * np.arcsinh(mu / r2)
    outside = alpha >= np.pi
    if np.any(outside):
        raise NoConvergence(
            f"target outside the log domain: angle {float(np.max(alpha)):.4f} >= pi "
            f"at {int(np.sum(outside))} cells"
        )
    r = np.sqrt(r2)
    p_minus_1 = (r - 1.0) - 2.0 * r * np.sin(0.5 * alpha) ** 2
    # 2 q / mu = 2 R sin(alpha) / (R^2 sinh(2 alpha)), finite as alpha -> 0
    scale = np.sinc(alpha / np.pi) / (r * _sinhc(2.0 * alpha))
    s = np.stack([2.0 * p_minus_1 * g[j] + scale * k0[j] for j in range(3)])

    miss = _geodesic(g, s, 1.0) - k
    mismatch = np.sqrt(max(_sym_inner(g_base, miss, miss), 0.0))
    if mismatch > tol * max(ebin_norm(g_base, g_target.g), 1e-300):
        raise NoConvergence(f"closed-form log missed the target by {mismatch:.3e} (tol {tol:.3e})")
    return SymTensorField.from_stack(spec, s)
