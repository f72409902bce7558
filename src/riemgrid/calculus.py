"""Pointwise and differential tensor operations over a metric field.

Index conventions: lower indices are covariant, g^{ij} is the pointwise 2x2
inverse, and all spatial derivatives use the shared 4th-order stencils from
grid, so discrete identities degrade uniformly.  The flat metric passes
through the same code path as any other metric.  A MetricField is checked
positive-definite at construction and immutable, so nothing here re-checks it.
Its inverse, volume density and table of L_X g are the metric's own cached,
read-only arrays (grid.MetricField): computed once per metric and freed with
it, so this module keeps no cache.

Sign convention for the orbit pairing: with (div S)_j = nabla_i S^i_j lowered
back to a one-form, the duality reads

    sigma_gamma(L_X gamma, S) = -2 * integral (div S)(X) dvol(gamma),

and is exact (to roundoff) on every metric.  The formula of L_X g has one
home, the per-cell table C with L_X g = C J on the jet J = (X, D_x X, D_y X)
(grid.MetricField._lie_table).  div applies its transpose with the sigma
weight W, using that the central stencils are skew-adjoint under the
midpoint quadrature (D^T = -D): div s = -(1/(2 vol)) J^T C^T W s.  It agrees
with the Christoffel form of the covariant divergence to 4th order.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _cell_sum,
    _Field,
    _jet,
    _jet_adjoint,
)


class OneFormField(_Field):
    """Covariant components (w1, w2) of a 1-form field."""

    _k = 2


def metric_inverse(g: MetricField) -> SymTensorField:
    """Pointwise 2x2 inverse of the metric."""
    return SymTensorField._wrap(g.spec, g._inverse)


def volume_density(g: MetricField) -> ScalarField:
    """sqrt(det g) at every cell."""
    return ScalarField._wrap(g.spec, g._volume)


def lie_derivative_metric(g: MetricField, x: VectorField) -> SymTensorField:
    """(L_X g)_ij = X^k D_k g_ij + g_kj D_i X^k + g_ik D_j X^k."""
    return SymTensorField(g.spec, _lie_stack(g, x.values))


def _lie_stack(g: MetricField, xs: np.ndarray) -> np.ndarray:
    return np.einsum("pqij,qij->pij", g._lie_table, _jet(xs, g.spec.h))


def divergence(g: MetricField, s: SymTensorField) -> OneFormField:
    """Divergence of s with the free index lowered, the exact sigma-adjoint of L_X g.

    (div s)_k = vol^-1 D_i(vol (g^-1 s)^i_k) - (1/2) (D_k g_ab) (g^-1 s g^-1)^ab,
    which is the covariant divergence written in conservative form, so it
    agrees with the Christoffel form to 4th order.
    """
    return OneFormField(g.spec, _divergence_stack(g, s.values))


def _divergence_stack(g: MetricField, ss: np.ndarray) -> np.ndarray:
    ws = np.einsum("qpij,qij->pij", g._lie_table, np.einsum("qrij,rij->qij", _sigma_weight(g), ss))
    return _jet_adjoint(ws, g.spec.h) / (-2.0 * g._volume)


def _sigma_weight(g: MetricField) -> np.ndarray:
    """W with t . W s = vol tr(g^-1 s g^-1 t) on stored components, so sigma(s, t) = h^2 sum t . W s."""
    a, b, c = g._inverse
    ab, bc, bb = 2.0 * a * b, 2.0 * b * c, b * b
    return g._volume * np.array([[a * a, ab, bb], [ab, 2.0 * (a * c + bb), bc], [bb, bc, c * c]])


def sharp(g: MetricField, w: OneFormField) -> VectorField:
    """Raise the index of a 1-form: X^i = g^{ij} w_j."""
    return VectorField(g.spec, _sharp_stack(g, w.values))


def _sharp_stack(g: MetricField, ws: np.ndarray) -> np.ndarray:
    inv = g._inverse
    return np.stack([inv[0] * ws[0] + inv[1] * ws[1], inv[1] * ws[0] + inv[2] * ws[1]])


def flat(g: MetricField, x: VectorField) -> OneFormField:
    """Lower the index of a vector field: w_i = g_ij X^j."""
    gs = g.as_stack()
    xs = x.values
    return OneFormField(g.spec, np.stack([gs[0] * xs[0] + gs[1] * xs[1], gs[1] * xs[0] + gs[2] * xs[1]]))


def trace_pairing(g: MetricField, s: SymTensorField, t: SymTensorField) -> ScalarField:
    """Pointwise tr(g^{-1} s g^{-1} t)."""
    return ScalarField(g.spec, _trace_pairing_values(g._inverse, s.values, t.values))


def _trace_pairing_values(inv: np.ndarray, ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
    a = _sym_product(inv, ss)  # g^{-1} s, a general 2x2 field
    b = a if ts is ss else _sym_product(inv, ts)
    # term grouping keeps the pairing bitwise symmetric in (s, t)
    return (a[0] * b[0] + a[3] * b[3]) + (a[1] * b[2] + a[2] * b[1])


def _sym_product(p: np.ndarray, q: np.ndarray) -> tuple:
    """Product of two symmetric 2x2 stacks as (m11, m12, m21, m22)."""
    return (
        p[0] * q[0] + p[1] * q[1],
        p[0] * q[1] + p[1] * q[2],
        p[1] * q[0] + p[2] * q[1],
        p[1] * q[1] + p[2] * q[2],
    )


def form_vector_pairing(w: OneFormField, x: VectorField) -> ScalarField:
    """Pointwise w_j X^j."""
    ws, xs = w.values, x.values
    return ScalarField(w.spec, ws[0] * xs[0] + ws[1] * xs[1])


def vector_inner(g: MetricField, x: VectorField, y: VectorField) -> float:
    """Weighted L2 inner product of vector fields: integral g_ij X^i Y^j dvol."""
    return _vector_inner_stack(g, x.values, y.values)


def _vector_inner_stack(g: MetricField, xs: np.ndarray, ys: np.ndarray) -> float:
    """vector_inner on (2, n, n) stacks."""
    gs = g.as_stack()
    dens = gs[0] * xs[0] * ys[0] + gs[1] * (xs[0] * ys[1] + xs[1] * ys[0]) + gs[2] * xs[1] * ys[1]
    return _cell_sum(g.spec, dens * g._volume)
