"""Grid-refinement studies for the discrete duality and equivariance defects.

All fields here are manufactured: fixed analytic formulas sampled at each
resolution, so a defect can be measured against the same continuum limit as
the grid is refined.  The duality defect is the exception: the discrete
divergence is built as the exact adjoint of the discrete Lie derivative, so
it is roundoff on every metric and at every resolution, and has no order.
"""

from __future__ import annotations

import math

import numpy as np

from .calculus import divergence, form_vector_pairing, lie_derivative_metric, volume_density
from .diffeos import flow_exp, pullback
from .geodesics import _exp_endpoint, ebin_inner, ebin_norm
from .grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    integrate,
)


def _manufactured(n: int):
    spec = GridSpec(n)
    x, y = spec.cell_centers()
    tp = 2.0 * np.pi
    g = MetricField(
        SymTensorField.from_arrays(
            spec,
            1.0 + 0.25 * np.sin(tp * x) * np.cos(tp * y),
            0.1 * np.sin(tp * (x + y)),
            1.0 + 0.2 * np.cos(tp * x),
        )
    )
    vec = VectorField.from_arrays(
        spec,
        0.3 * np.sin(tp * y) + 0.1 * np.cos(tp * x),
        0.2 * np.sin(tp * x) * np.cos(tp * y),
    )
    s = SymTensorField.from_arrays(
        spec,
        np.sin(tp * x) * np.sin(tp * y),
        0.5 * np.cos(tp * y),
        np.cos(tp * (x - y)),
    )
    t = SymTensorField.from_arrays(
        spec,
        np.cos(tp * x),
        0.3 * np.sin(tp * (x - y)),
        np.sin(tp * y) * np.cos(tp * x),
    )
    return spec, g, vec, s, t


def _shear_field(spec: GridSpec) -> VectorField:
    x, y = spec.cell_centers()
    tp = 2.0 * np.pi
    return VectorField.from_arrays(spec, 0.05 * np.sin(tp * y), 0.05 * np.cos(tp * x))


def adjointness_defect(n: int) -> float:
    """|sigma(L_X g, S) + 2 integral (div S)(X) dvol| for manufactured curved g."""
    _, g, vec, s, _ = _manufactured(n)
    lhs = ebin_inner(g, lie_derivative_metric(g, vec), s)
    pairing = form_vector_pairing(divergence(g, s), vec)
    rhs = 2.0 * integrate(ScalarField(g.spec, pairing.values * volume_density(g).values))
    return abs(lhs + rhs)


def equivariance_defect(n: int) -> float:
    """Commutator of the geodesic endpoint map with a smooth small flow."""
    _, g, _, s, _ = _manufactured(n)
    s = 0.1 * s
    phi = flow_exp(_shear_field(g.spec), 1.0)
    a = pullback(phi, _exp_endpoint(g, s.values))
    gp = pullback(phi, g)
    b = _exp_endpoint(gp, pullback(phi, s).values)
    return ebin_norm(gp, a.g - b.g) / ebin_norm(gp, gp.g)


def invariance_defect(n: int) -> float:
    """Change of the inner product under transport by a smooth non-lattice map."""
    _, g, _, s, t = _manufactured(n)
    phi = flow_exp(_shear_field(g.spec), 1.0)
    before = ebin_inner(g, s, t)
    after = ebin_inner(pullback(phi, g), pullback(phi, s), pullback(phi, t))
    return abs(after - before)


def measured_order(values, resolutions=(16, 32, 64)) -> float:
    """Smallest successive decay order of defect values under grid doubling."""
    orders = []
    for k in range(len(values) - 1):
        ratio = values[k] / max(values[k + 1], 1e-300)
        step = math.log2(resolutions[k + 1] / resolutions[k])
        orders.append(math.log2(max(ratio, 1e-300)) / step)
    return min(orders)
