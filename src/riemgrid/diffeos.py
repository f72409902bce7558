"""Discrete torus diffeomorphisms near the identity and their pullback action.

A map is stored as a periodic forward displacement u with phi(x) = x + u(x)
mod 1, together with a cached inverse displacement v recomputed from scratch
whenever a new map is produced.  Lattice translations are detected and applied
as exact sample permutations; everything else goes through spline
interpolation.  The action on metrics is the left action phi . g = pullback of
g along phi^{-1}.
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
    stencil_derivative,
)

_INVERSE_TOL = 1e-12
_INVERSE_MAX_ITER = 200
_CONSISTENCY_BOUND = 1e-10


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


def _forward_jacobian_dets(spec: GridSpec, us: np.ndarray) -> np.ndarray:
    h = spec.h
    j11 = 1.0 + stencil_derivative(us[0], 1, h)
    j12 = stencil_derivative(us[0], 2, h)
    j21 = stencil_derivative(us[1], 1, h)
    j22 = 1.0 + stencil_derivative(us[1], 2, h)
    return j11 * j22 - j12 * j21


def _build(spec: GridSpec, us: np.ndarray) -> DiffeoGrid:
    """Validate a forward displacement and attach a freshly computed inverse."""
    if not np.all(np.isfinite(us)):
        raise StepFailure("displacement field contains non-finite samples")
    if np.any(_forward_jacobian_dets(spec, us) <= 0.0):
        raise JacobianSignFlip("pointwise Jacobian determinant is not positive")

    u = VectorField(spec, us)
    c = _constant_displacement(us)
    if c is not None:
        return DiffeoGrid(spec, u, VectorField(spec, np.broadcast_to(-c[:, None, None], us.shape)), 0.0)

    x, y = spec.cell_centers()
    vs = -us.copy()
    for _ in range(_INVERSE_MAX_ITER):
        new = -_sample_vector(u, x + vs[0], y + vs[1])
        delta = np.max(np.abs(new - vs))
        vs = new
        if delta <= _INVERSE_TOL:
            break
    else:
        raise NoConvergence("inverse displacement fixed point did not converge")

    residual = float(np.max(np.abs(_sample_vector(u, x + vs[0], y + vs[1]) + vs)))
    if residual > _CONSISTENCY_BOUND:
        raise NoConvergence(f"inverse consistency {residual:.3e} above bound")
    return DiffeoGrid(spec, u, VectorField(spec, vs), residual)


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
    """phi^{-1}: promotes the cached inverse displacement to a forward one."""
    c = _constant_displacement(phi.u.values)
    if c is not None:
        return translation(phi.spec, -c)
    return _build(phi.spec, phi.v.values)


def flow_exp(x_field: VectorField, t: float, n_steps: int | None = None) -> DiffeoGrid:
    """Time-t flow of a vector field, integrated with fixed-step RK4.

    Restricted to t * max|X| <= 1/4, which keeps the result inside the
    bijectivity neighborhood handled by the displacement representation.
    """
    spec = x_field.spec
    scale = abs(t) * x_field.max_abs()
    if scale > 0.25 * (1.0 + 1e-9):
        raise StepFailure(f"flow displacement bound {scale:.3f} exceeds 0.25")
    if t == 0.0:
        return identity_diffeo(spec)
    if n_steps is None:
        n_steps = max(64, int(math.ceil(256.0 * scale)))
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

    h = spec.h
    j11 = 1.0 + stencil_derivative(vs[0], 1, h)
    j12 = stencil_derivative(vs[0], 2, h)
    j21 = stencil_derivative(vs[1], 1, h)
    j22 = 1.0 + stencil_derivative(vs[1], 2, h)
    a, b, c = (interpolate(comp, bx, by) for comp in (field.s11, field.s12, field.s22))
    # columns of J are the transported basis vectors; congruence J^T g J
    s11 = j11 * (a * j11 + b * j21) + j21 * (b * j11 + c * j21)
    s12 = j11 * (a * j12 + b * j22) + j21 * (b * j12 + c * j22)
    s22 = j12 * (a * j12 + b * j22) + j22 * (b * j12 + c * j22)
    return SymTensorField.from_arrays(spec, s11, s12, s22)


def action_derivative(g: MetricField, x: VectorField) -> SymTensorField:
    """Derivative of the left action through g: minus the Lie derivative."""
    return -lie_derivative_metric(g, x)
