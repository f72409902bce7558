"""Cell-centered periodic grids on the unit 2-torus [0,1)^2.

Samples live at cell centers ((i+1/2)h, (j+1/2)h) with h = 1/n, axis 0 = x,
axis 1 = y.  Interpolation is a periodic interpolating cubic spline (exact at
the nodes, exact on constants), differentiation is the 4th-order central
stencil with wraparound, and quadrature is the midpoint rule, which is
spectrally accurate for smooth periodic integrands.  All field values are
immutable after construction; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import PositivityLoss


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the discretized torus: n cells per axis, spacing h = 1/n."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"grid resolution must be at least 4, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays x[i,j], y[i,j] of the cell centers."""
        c = (np.arange(self.n) + 0.5) / self.n
        return np.meshgrid(c, c, indexing="ij")


def _frozen(values: np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n, n):
        raise ValueError(f"expected {(n, n)} samples, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field contains non-finite samples")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """n x n real samples at cell centers."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.spec.n))

    @cached_property
    def _spline_coef(self) -> np.ndarray:
        return ndimage.spline_filter(self.values, order=3, mode="grid-wrap")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.spec, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.spec, self.values - other.values)

    def __mul__(self, a: float) -> "ScalarField":
        return ScalarField(self.spec, self.values * a)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.spec, -self.values)


def interpolate(f: ScalarField, x, y):
    """Periodic bicubic interpolation of f at points (x, y).

    Points are reduced mod 1; negative coordinates are fine.  Scalar inputs
    give a float, array inputs an array of the same shape.
    """
    n = f.spec.n
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    coords = np.stack([x * n - 0.5, y * n - 0.5])
    out = ndimage.map_coordinates(
        f._spline_coef, coords.reshape(2, -1), order=3, mode="grid-wrap", prefilter=False
    ).reshape(x.shape)
    if out.ndim == 0:
        return float(out)
    return out


def partial_derivative(f: ScalarField, axis: int) -> ScalarField:
    """4th-order central difference along axis 1 (x) or 2 (y), periodic."""
    d = stencil_derivative(f.values, axis, f.spec.h)
    return ScalarField(f.spec, d)


def stencil_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Raw-array form of partial_derivative; axis is 1 or 2."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    ax = axis - 1
    n = values.shape[ax]
    # wrap-padded by two cells on each side; shifted(k)[i] = values[(i + k) % n]
    padded = np.take(values, np.arange(-2, n + 2), axis=ax, mode="wrap")

    def shifted(k: int) -> np.ndarray:
        window = slice(2 + k, 2 + k + n)
        return padded[window] if ax == 0 else padded[:, window]

    p1, p2, m1, m2 = shifted(1), shifted(2), shifted(-1), shifted(-2)
    # paired differences cancel bitwise on constant data
    return (8.0 * (p1 - m1) + (m2 - p2)) / (12.0 * h)


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral h^2 * sum(values) over the torus."""
    return float(f.spec.h ** 2 * np.sum(f.values))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Contravariant components (v1, v2) of a tangent vector field."""

    spec: GridSpec
    v1: ScalarField
    v2: ScalarField

    @classmethod
    def from_arrays(cls, spec: GridSpec, v1, v2) -> "VectorField":
        return cls(spec, ScalarField(spec, v1), ScalarField(spec, v2))

    def as_stack(self) -> np.ndarray:
        return np.stack([self.v1.values, self.v2.values])

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.v1.values)), np.max(np.abs(self.v2.values))))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.spec, self.v1 + other.v1, self.v2 + other.v2)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.spec, self.v1 - other.v1, self.v2 - other.v2)

    def __mul__(self, a: float) -> "VectorField":
        return VectorField(self.spec, self.v1 * a, self.v2 * a)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return self * -1.0


@dataclass(frozen=True, eq=False)
class SymTensorField:
    """Covariant symmetric 2-tensor with stored components s11, s12, s22."""

    spec: GridSpec
    s11: ScalarField
    s12: ScalarField
    s22: ScalarField

    @classmethod
    def from_arrays(cls, spec: GridSpec, s11, s12, s22) -> "SymTensorField":
        return cls(spec, ScalarField(spec, s11), ScalarField(spec, s12), ScalarField(spec, s22))

    @classmethod
    def from_stack(cls, spec: GridSpec, stack: np.ndarray) -> "SymTensorField":
        return cls.from_arrays(spec, stack[0], stack[1], stack[2])

    def as_stack(self) -> np.ndarray:
        return np.stack([self.s11.values, self.s12.values, self.s22.values])

    def __add__(self, other: "SymTensorField") -> "SymTensorField":
        return SymTensorField(self.spec, self.s11 + other.s11, self.s12 + other.s12, self.s22 + other.s22)

    def __sub__(self, other: "SymTensorField") -> "SymTensorField":
        return SymTensorField(self.spec, self.s11 - other.s11, self.s12 - other.s12, self.s22 - other.s22)

    def __mul__(self, a: float) -> "SymTensorField":
        return SymTensorField(self.spec, self.s11 * a, self.s12 * a, self.s22 * a)

    __rmul__ = __mul__

    def __neg__(self) -> "SymTensorField":
        return self * -1.0


@dataclass(frozen=True, eq=False)
class MetricField:
    """Pointwise symmetric positive-definite 2x2 field: a point of the metric space."""

    g: SymTensorField

    def __post_init__(self):
        a, det = self.g.s11.values, _det_of(self.g)
        if not (np.all(a > 0.0) and np.all(det > 0.0)):
            raise PositivityLoss("metric is not positive-definite at every cell")

    @property
    def spec(self) -> GridSpec:
        return self.g.spec

    @property
    def g11(self) -> ScalarField:
        return self.g.s11

    @property
    def g12(self) -> ScalarField:
        return self.g.s12

    @property
    def g22(self) -> ScalarField:
        return self.g.s22

    def as_stack(self) -> np.ndarray:
        return self.g.as_stack()

    @classmethod
    def from_stack(cls, spec: GridSpec, stack: np.ndarray) -> "MetricField":
        return cls(SymTensorField.from_stack(spec, stack))


def _det_of(s: SymTensorField) -> np.ndarray:
    return s.s11.values * s.s22.values - s.s12.values ** 2


def constant_scalar(spec: GridSpec, c: float) -> ScalarField:
    return ScalarField(spec, np.full((spec.n, spec.n), float(c)))


def constant_field(spec: GridSpec, m) -> SymTensorField:
    """Symmetric tensor holding the 2x2 matrix m = [[m11, m12], [m12, m22]] at every cell."""
    m = np.asarray(m, dtype=np.float64)
    scale = max(np.max(np.abs(m)), 1.0)
    if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12 * scale:
        raise ValueError("m must be a symmetric 2x2 matrix")
    return SymTensorField(
        spec,
        constant_scalar(spec, m[0, 0]),
        constant_scalar(spec, 0.5 * (m[0, 1] + m[1, 0])),
        constant_scalar(spec, m[1, 1]),
    )


def constant_vector(spec: GridSpec, v) -> VectorField:
    v = np.asarray(v, dtype=np.float64)
    return VectorField(spec, constant_scalar(spec, v[0]), constant_scalar(spec, v[1]))


def constant_metric(spec: GridSpec, m) -> MetricField:
    return MetricField(constant_field(spec, m))


def identity_metric(spec: GridSpec) -> MetricField:
    return constant_metric(spec, np.eye(2))


def zero_tensor(spec: GridSpec) -> SymTensorField:
    return constant_field(spec, np.zeros((2, 2)))


def zero_vector(spec: GridSpec) -> VectorField:
    return constant_vector(spec, (0.0, 0.0))
