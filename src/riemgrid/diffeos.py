"""Discrete torus diffeomorphisms near the identity and their pullback action.

A map is stored as a periodic forward displacement u with phi(x) = x + u(x)
mod 1, together with a cached inverse displacement v recomputed from scratch
whenever a new map is produced.  Lattice translations are detected and applied
as exact sample permutations; everything else goes through spline
interpolation.  The action on metrics is the left action phi . g = pullback of
g along phi^{-1}.

The inverse displacement solves r(v) = v + u(x + v) = 0 by Newton's method
and is certified to max|r| <= 1e-12; its only domain rule is det(I + Du) > 0,
and an iterate that diverges raises NoConvergence.  The step multiplies r by
I + Dv, the stencil Jacobian of the iterate, because at the root
(I + Du(x + v))^-1 = I + Dv: no interpolated Jacobian is needed.

Flows are integrated with fixed-step RK4 on the spline-interpolated field.  The
step count comes from the field: with s = |t| max|X| and L = |t| max|D_a X^i|,
the displacement error behaves like C s (L/N)^4, so N = ceil(L (C s / eps)^(1/4))
steps meet the absolute target eps = 1e-12.  C = 0.04 is twice the largest
constant measured against 1024-step references (0.020, over random fields with
max_mode 1-4 and two shears at n = 16, 32, 64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import lie_derivative_metric
from .errors import JacobianSignFlip, NoConvergence, StepFailure
from .grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _lattice_mover,
    interpolate,
    stencil_gradient,
)

_INVERSE_TOL = 1e-12
_INVERSE_MAX_ITER = 30
_FLOW_ERROR_TARGET = 1e-12
_RK4_ERROR_CONSTANT = 0.04


@dataclass(frozen=True, eq=False)
class DiffeoGrid:
    """Torus diffeomorphism with displacement u and cached inverse displacement v."""

    spec: GridSpec
    u: VectorField
    v: VectorField
    inverse_residual: float

    def lattice_shift(self) -> tuple[int, int] | None:
        """Cell shift (k1, k2) if this map is exactly a lattice translation."""
        return _lattice_shift(self.spec, self.u.values)

    def points(self) -> np.ndarray:
        """Forward images of the cell centers, shape (2, n, n), not reduced mod 1."""
        x, y = self.spec.cell_centers()
        return np.stack([x, y]) + self.u.values


def _constant_displacement(us: np.ndarray) -> np.ndarray | None:
    c = us[:, 0, 0]
    if np.all(us[0] == c[0]) and np.all(us[1] == c[1]):
        return c
    return None


def _lattice_shift(spec: GridSpec, us: np.ndarray) -> tuple[int, int] | None:
    c = _constant_displacement(us)
    if c is None:
        return None
    k = c * spec.n
    r = np.round(k)
    if np.max(np.abs(k - r)) <= 1e-12 * spec.n:
        return int(r[0]) % spec.n, int(r[1]) % spec.n
    return None


def _sample_vector(u: VectorField, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    return np.stack([interpolate(u.v1, px, py), interpolate(u.v2, px, py)])


def _build(spec: GridSpec, us: np.ndarray, start: np.ndarray | None = None) -> DiffeoGrid:
    """Validate a forward displacement and attach its Newton inverse, started from `start` (default -u)."""
    if not np.all(np.isfinite(us)):
        raise StepFailure("displacement field contains non-finite samples")
    (d11, d21), (d12, d22) = stencil_gradient(us, spec.h)  # d_ia = D_a u^i
    if np.any((1.0 + d11) * (1.0 + d22) - d12 * d21 <= 0.0):
        raise JacobianSignFlip("pointwise Jacobian determinant is not positive")

    u = VectorField(spec, us)
    c = _constant_displacement(us)
    if c is not None:
        return DiffeoGrid(spec, u, VectorField(spec, np.broadcast_to(-c[:, None, None], us.shape)), 0.0)

    x, y = spec.cell_centers()
    vs = -us if start is None else start
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_INVERSE_MAX_ITER):
            r = _sample_vector(u, x + vs[0], y + vs[1]) + vs
            residual = float(np.max(np.abs(r)))
            if residual <= _INVERSE_TOL:
                return DiffeoGrid(spec, u, VectorField(spec, vs), residual)
            if not math.isfinite(residual):
                break
            dv = stencil_gradient(vs, spec.h)
            vs = vs - (r + dv[0] * r[0] + dv[1] * r[1])
    raise NoConvergence(f"inverse Newton solve stopped at residual {residual:.3e} (tol {_INVERSE_TOL:.0e})")


def from_displacement(spec: GridSpec, u: VectorField) -> DiffeoGrid:
    return _build(spec, u.values)


def identity_diffeo(spec: GridSpec) -> DiffeoGrid:
    return _build(spec, np.zeros((2, spec.n, spec.n)))


def translation(spec: GridSpec, shift) -> DiffeoGrid:
    """Exact translation x -> x + shift; lattice shifts act by sample permutation."""
    a, b = float(shift[0]), float(shift[1])
    us = np.stack([np.full((spec.n, spec.n), a), np.full((spec.n, spec.n), b)])
    return _build(spec, us)


def compose(phi: DiffeoGrid, psi: DiffeoGrid) -> DiffeoGrid:
    """phi o psi, sampled at cell centers; the inverse is recomputed, not composed."""
    if phi.spec != psi.spec:
        raise ValueError("cannot compose maps on different grids")
    cu, cv = _constant_displacement(phi.u.values), _constant_displacement(psi.u.values)
    if cu is not None and cv is not None:
        return translation(phi.spec, cu + cv)
    x, y = phi.spec.cell_centers()
    us_psi = psi.u.values
    us = us_psi + _sample_vector(phi.u, x + us_psi[0], y + us_psi[1])
    return _build(phi.spec, us)


def invert(phi: DiffeoGrid) -> DiffeoGrid:
    """phi^{-1}: promotes the cached inverse displacement to a forward one.

    Its own inverse is solved afresh by Newton, started from phi.u, which
    inverts v only to spline accuracy (about 1e-7).
    """
    return _build(phi.spec, phi.v.values, start=phi.u.values)


def _rk4_steps(x_field: VectorField, t: float) -> int:
    """Steps that bring the RK4 error model C s (L/N)^4 below the flow error target."""
    s = abs(t) * x_field.max_abs()
    lip = abs(t) * float(np.max(np.abs(stencil_gradient(x_field.values, x_field.spec.h))))
    return max(1, math.ceil(lip * (_RK4_ERROR_CONSTANT * s / _FLOW_ERROR_TARGET) ** 0.25))


def flow_exp(x_field: VectorField, t: float, n_steps: int | None = None) -> DiffeoGrid:
    """Time-t flow of a vector field, integrated with fixed-step RK4.

    Restricted to t * max|X| <= 1/4, which keeps the result inside the
    bijectivity neighborhood handled by the displacement representation.
    By default the step count is N = max(1, ceil(L (C s / eps)^(1/4))) with
    s = |t| max|X|, L = |t| max|D_a X^i| (4th-order stencil), C = 0.04 and
    eps = 1e-12: the RK4 error model C s (L/N)^4 then puts the displacement
    within eps of the exact flow of the interpolated field.  Zero and constant
    fields take one step.  An explicit n_steps overrides the rule.
    """
    spec = x_field.spec
    scale = abs(t) * x_field.max_abs()
    if scale > 0.25 * (1.0 + 1e-9):
        raise StepFailure(f"flow displacement bound {scale:.3f} exceeds 0.25")
    if t == 0.0:
        return identity_diffeo(spec)
    if n_steps is None:
        n_steps = _rk4_steps(x_field, t)
    x, y = spec.cell_centers()
    p = np.stack([x, y])
    dt = t / n_steps

    def vel(q: np.ndarray) -> np.ndarray:
        return _sample_vector(x_field, q[0], q[1])

    for _ in range(n_steps):
        k1 = vel(p)
        k2 = vel(p + 0.5 * dt * k1)
        k3 = vel(p + 0.5 * dt * k2)
        k4 = vel(p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(p)):
            raise StepFailure("flow integration produced non-finite positions")
    return _build(spec, p - np.stack([x, y]))


def pullback(phi: DiffeoGrid, field):
    """Left action of phi: congruence transport of g along phi^{-1}.

    At each cell x the result is J(x)^T g(phi^{-1}(x)) J(x) with J the stencil
    Jacobian of phi^{-1}.  Accepts MetricField, SymTensorField, or ScalarField;
    exact lattice translations permute samples without interpolation.
    """
    if isinstance(field, MetricField):
        return MetricField(pullback(phi, field.g))
    spec = phi.spec

    shift = phi.lattice_shift()
    if shift is not None:
        return type(field)(spec, _lattice_mover(field.values, "id")(shift))

    x, y = spec.cell_centers()
    vs = phi.v.values
    bx, by = x + vs[0], y + vs[1]
    if isinstance(field, ScalarField):
        return ScalarField(spec, interpolate(field, bx, by))

    (d11, j21), (j12, d22) = stencil_gradient(vs, spec.h)
    j11, j22 = 1.0 + d11, 1.0 + d22
    a, b, c = (interpolate(comp, bx, by) for comp in (field.s11, field.s12, field.s22))
    # columns of J are the transported basis vectors; congruence J^T g J
    s11 = j11 * (a * j11 + b * j21) + j21 * (b * j11 + c * j21)
    s12 = j11 * (a * j12 + b * j22) + j21 * (b * j12 + c * j22)
    s22 = j12 * (a * j12 + b * j22) + j22 * (b * j12 + c * j22)
    return SymTensorField.from_arrays(spec, s11, s12, s22)


def action_derivative(g: MetricField, x: VectorField) -> SymTensorField:
    """Derivative of the left action through g: minus the Lie derivative."""
    return -lie_derivative_metric(g, x)
