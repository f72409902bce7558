"""Cell-centered periodic grids on the unit 2-torus [0,1)^2.

Samples live at cell centers ((i+1/2)h, (j+1/2)h) with h = 1/n, axis 0 = x,
axis 1 = y.  Interpolation is a periodic interpolating cubic spline (it
reproduces the samples at the nodes, and constant fields everywhere, to
roundoff), differentiation is the 4th-order central stencil with wraparound,
and quadrature is the midpoint rule, which is spectrally accurate for smooth
periodic integrands.

The spline is the cubic B-spline series whose values at the nodes are the
samples.  Its coefficients come from one FFT of the whole stack: sampling the
B-spline at the nodes multiplies by the symbol (4 + 2 cos theta)/6 on each
axis, so the prefilter divides by it.  They are wrap-padded to rows and columns
-2 ... n+1 and cached on the field.  A point is reduced exactly into [0, 1]^2,
which puts its cell in -1 ... n-1, inside the padding, and is evaluated from
one cell index and one set of 4 + 4 cubic weights, shared by every component
of the field.  A non-finite coordinate gives NaN weights, hence NaN values.
Evaluation is three steps: locate (cell index and weights), gather (the 4 x 4
coefficients around each cell) and contract.  A private sampler keeps one
field's gathered neighbourhoods between calls and re-gathers only the points
that changed cell, so a flow or a Newton solve, whose points move a little per
call, reads each neighbourhood about once; interpolate is a fresh sampler.

A field stores its samples as one read-only float64 array: (n, n) for a
scalar, (k, n, n) for a field with k components, in the order the component
names list them (v1 v2, s11 s12 s22, ...).  The array is validated and copied
once, at construction, so field values are immutable and shared freely;
as_stack() returns it, and component k is values[k].  The stencils act on
whole stacks: x and y are the last two array axes, so one call differentiates
every component of a field.  Every public operation here is a pure function.

Derived data (a grid's cell-center lattice and spline prefilter symbol; a
field's spline coefficients; a metric's inverse, volume density and table of
L_X g; a map's inverse displacement) is a cached_property of the object it
derives from: computed once, on first use, read-only, and freed with that object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        """Coordinate arrays x[i,j], y[i,j] of the cell centers, the same read-only pair on every call."""
        return self._centers

    @cached_property
    def _centers(self) -> tuple[np.ndarray, np.ndarray]:
        c = (np.arange(self.n) + 0.5) / self.n
        return tuple(_read_only(a) for a in np.meshgrid(c, c, indexing="ij"))

    @cached_property
    def _prefilter(self) -> tuple[np.ndarray, np.ndarray]:
        """The spline prefilter's symbol on the rfft2 modes, and the wrap index of rows -2 ... n+1."""
        symbol = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(self.n) / self.n)) / 6.0
        return _read_only(np.outer(symbol, symbol[: self.n // 2 + 1])), _read_only(np.arange(-2, self.n + 2) % self.n)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen(values: np.ndarray, shape: tuple) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"expected {shape} samples, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field contains non-finite samples")
    return _read_only(arr.copy())


@dataclass(frozen=True, eq=False)
class _Field:
    """Samples of a field with _k components in one read-only array.

    The array has shape (_k, n, n), or (n, n) for _k = 0 (a scalar).
    """

    spec: GridSpec
    values: np.ndarray
    _k = 0

    def __post_init__(self):
        n = self.spec.n
        shape = (self._k, n, n) if self._k else (n, n)
        object.__setattr__(self, "values", _frozen(self.values, shape))

    @classmethod
    def _wrap(cls, spec: GridSpec, frozen: np.ndarray):
        """A field over an already validated read-only array, shared without a copy."""
        field = object.__new__(cls)
        object.__setattr__(field, "spec", spec)
        object.__setattr__(field, "values", frozen)
        return field

    @classmethod
    def from_stack(cls, spec: GridSpec, stack: np.ndarray):
        return cls(spec, stack)

    @classmethod
    def from_arrays(cls, spec: GridSpec, *arrays):
        return cls(spec, np.stack(arrays))

    def as_stack(self) -> np.ndarray:
        return self.values

    @cached_property
    def _spline_coef(self) -> np.ndarray:
        """Spline coefficients of every component, wrap-padded to rows and columns -2 ... n+1."""
        n = self.spec.n
        symbol, wrap = self.spec._prefilter
        return _read_only(np.fft.irfft2(np.fft.rfft2(self.values) / symbol, s=(n, n))[..., wrap[:, None], wrap])

    def __add__(self, other):
        return type(self)(self.spec, self.values + other.values)

    def __sub__(self, other):
        return type(self)(self.spec, self.values - other.values)

    def __mul__(self, a: float):
        return type(self)(self.spec, self.values * a)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.spec, -self.values)


class ScalarField(_Field):
    """n x n real samples at cell centers."""


def _locate(n: int, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat padded cell index (m,) and cubic weights (4, 2, m) of the m points (x, y).

    A coordinate u is reduced exactly to u - floor(u) in [0, 1] (1 only where
    a tiny negative u rounds up), so the cell of u n - 1/2, in -1 ... n-1,
    indexes the n + 4 padded rows and columns directly.  A non-finite
    coordinate leaves NaN weights and reads its cell as -1.
    """
    s = np.stack([x, y]).reshape(2, -1)
    cell = np.floor(s)
    with np.errstate(invalid="ignore"):  # inf - inf
        s -= cell
    s *= n
    s -= 0.5  # cell coordinates, node j at j
    np.floor(s, out=cell)
    s -= cell
    np.fmax(cell, -1.0, out=cell)
    base = (cell[0] * (n + 4) + cell[1]).astype(np.intp)
    w = np.empty((4,) + s.shape)  # cubic B-spline weights of the nodes -1, 0, 1, 2, from s, s^2 and s^3
    np.multiply(s, s, out=w[2])
    np.multiply(w[2], s, out=w[3])
    np.multiply(w[3], 0.5, out=w[1])
    w[1] -= w[2]
    w[1] += 2.0 / 3.0  # (4 - 6 s^2 + 3 s^3) / 6
    w[3] /= 6.0  # s^3 / 6
    np.subtract(s, w[2], out=w[2])
    w[2] *= 0.5  # (s - s^2) / 2
    np.subtract(1.0 / 6.0, w[2], out=w[0])
    w[0] -= w[3]  # (1 - s)^3 / 6
    w[2] += 5.0 / 6.0
    w[2] -= w[1]  # (1 + 3 s + 3 s^2 - 3 s^3) / 6
    return base, w


def _gather(table: np.ndarray, p: int, base: np.ndarray) -> np.ndarray:
    """The 4 x 4 coefficients around each cell of base, shape (k, 4, 4, m), from a (k, p * p) table."""
    # padded row (column) cell + 1 + a holds node cell - 1 + a
    return table.take(base + (np.arange(1, 5)[:, None, None] * p + np.arange(1, 5)[:, None]), axis=1)


class _Sampler:
    """The spline of one field, sampled at point sets that move a little between calls.

    It keeps the gathered 4 x 4 neighbourhoods of the last call with their
    cells, and re-gathers only the points whose cell changed.  A gathered
    neighbourhood depends on its cell alone, so every call returns the bits
    that a full gather would give.
    """

    def __init__(self, field: _Field):
        coef = field._spline_coef
        self._n, self._p = field.spec.n, coef.shape[-1]
        self._lead = coef.shape[:-2]
        self._table = coef.reshape(-1, self._p * self._p)
        self._base = None
        self._samples = None

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        base, w = _locate(self._n, x, np.asarray(y, dtype=np.float64))
        if self._base is None or self._base.shape != base.shape:
            self._samples = _gather(self._table, self._p, base)
        else:
            moved = np.flatnonzero(base != self._base)
            if moved.size:
                self._samples[..., moved] = _gather(self._table, self._p, base[moved])
        self._base = base
        return np.einsum("kabm,am,bm->km", self._samples, w[:, 0], w[:, 1]).reshape(self._lead + x.shape)


def interpolate(field: _Field, x, y):
    """Periodic cubic spline of every component of a field at points (x, y).

    Any finite point is fine: its coordinates are reduced exactly into
    [0, 1].  A non-finite coordinate makes every component NaN there.  A
    field with k components gives an array of shape (k,) + x.shape, a scalar
    field one of x.shape, and a float for scalar x and y.
    """
    out = _Sampler(field)(x, y)
    if out.ndim == 0:
        return float(out)
    return out


def partial_derivative(f: ScalarField, axis: int) -> ScalarField:
    """4th-order central difference along axis 1 (x) or 2 (y), periodic."""
    d = stencil_derivative(f.values, axis, f.spec.h)
    return ScalarField(f.spec, d)


def stencil_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Raw-array form of partial_derivative over every (n, n) grid of a (..., n, n) stack.

    axis 1 (x) and axis 2 (y) are the last two array axes.
    """
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    ax = axis - 3
    n = values.shape[ax]
    trailing = (slice(None),) * (-1 - ax)

    def cells(a: np.ndarray, start: int, stop: int) -> np.ndarray:
        return a[(..., slice(start, stop)) + trailing]

    # wrap-padded by two cells on each side from its edge strips; shift k reads cells 2 + k ... 1 + k + n
    padded = np.concatenate((cells(values, n - 2, n), values, cells(values, 0, 2)), axis=ax)
    p1, p2, m1, m2 = (cells(padded, 2 + k, 2 + k + n) for k in (1, 2, -1, -2))
    # paired differences cancel bitwise on constant data
    return (8.0 * (p1 - m1) + (m2 - p2)) / (12.0 * h)


def stencil_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """(D_x, D_y) of every grid of a (..., n, n) stack, shape (2, ..., n, n)."""
    return np.stack([stencil_derivative(values, 1, h), stencil_derivative(values, 2, h)])


def _jet(values: np.ndarray, h: float) -> np.ndarray:
    """(X, D_x X, D_y X) of a (k, n, n) stack, shape (3k, n, n)."""
    return np.concatenate((values, stencil_derivative(values, 1, h), stencil_derivative(values, 2, h)))


def _jet_adjoint(jets: np.ndarray, h: float) -> np.ndarray:
    """The transpose of _jet under the plain cell sum, by D^T = -D: y_0 - D_x y_x - D_y y_y."""
    y0, yx, yy = jets.reshape((3, -1) + jets.shape[1:])
    return y0 - stencil_derivative(yx, 1, h) - stencil_derivative(yy, 2, h)


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral h^2 * sum(values) over the torus, summed in sorted order."""
    return _cell_sum(f.spec, f.values.copy())


def _cell_sum(spec: GridSpec, terms: np.ndarray) -> float:
    """h^2 times the sum of per-cell terms, added in sorted order.

    The sum does not depend on where each term sits: a lattice translation,
    which moves the terms to other cells, leaves it bitwise unchanged.  terms
    is sorted in place, so pass a temporary.
    """
    vals = terms.ravel()
    vals.sort()
    return float(spec.h ** 2 * vals.sum())


def _constants(stack: np.ndarray) -> np.ndarray | None:
    """The per-component values of a (k, n, n) stack whose every component is constant, else None."""
    c = stack[:, 0, 0]
    if np.all(stack == c[:, None, None]):
        return c
    return None


class VectorField(_Field):
    """Contravariant components (v1, v2) of a tangent vector field."""

    _k = 2

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


class SymTensorField(_Field):
    """Covariant symmetric 2-tensor with stored components s11, s12, s22."""

    _k = 3


def _det(stack: np.ndarray) -> np.ndarray:
    """Pointwise determinant of a symmetric (3, ...) stack."""
    return stack[0] * stack[2] - stack[1] ** 2


def _inv(stack: np.ndarray) -> np.ndarray:
    """Pointwise inverse of a symmetric (3, ...) stack."""
    det = _det(stack)
    return np.stack([stack[2] / det, -stack[1] / det, stack[0] / det])


# index of the stored component (11, 12, 22) that holds the symmetric entry [b][c]
_SYM = np.array([[0, 1], [1, 2]])


@dataclass(frozen=True, eq=False)
class MetricField:
    """Pointwise symmetric positive-definite 2x2 field: a point of the metric space.

    Its inverse, volume density and table of L_X g are computed on first
    use, cached on the metric as read-only arrays, and freed with it.
    """

    g: SymTensorField

    def __post_init__(self):
        gs = self.g.values
        if not (np.all(gs[0] > 0.0) and np.all(_det(gs) > 0.0)):
            raise PositivityLoss("metric is not positive-definite at every cell")

    @cached_property
    def _inverse(self) -> np.ndarray:
        """Pointwise inverse g^{ij} as a (3, n, n) stack."""
        return _read_only(_inv(self.g.values))

    @cached_property
    def _volume(self) -> np.ndarray:
        """sqrt(det g), shape (n, n)."""
        return _read_only(np.sqrt(_det(self.g.values)))

    @cached_property
    def _lie_table(self) -> np.ndarray:
        """L_X g = C J on the jet J of _jet: row ij of C, shape (3, 6, n, n), holds
        (L_X g)_ij = X^k D_k g_ij + g_kj D_i X^k + g_ik D_j X^k."""
        gs = self.g.values
        c = np.zeros((3, 6) + gs.shape[1:])
        c[:, 0], c[:, 1] = stencil_gradient(gs, self.spec.h)
        for row, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
            c[row, 2 + 2 * i : 4 + 2 * i] += gs[_SYM[:, j]]  # g_kj D_i X^k over k
            c[row, 2 + 2 * j : 4 + 2 * j] += gs[_SYM[i]]  # g_ik D_j X^k over k
        return _read_only(c)

    @property
    def spec(self) -> GridSpec:
        return self.g.spec

    def as_stack(self) -> np.ndarray:
        return self.g.values

    @classmethod
    def from_stack(cls, spec: GridSpec, stack: np.ndarray) -> "MetricField":
        return cls(SymTensorField(spec, stack))


def _flipped(values: np.ndarray, flip: str) -> np.ndarray:
    """Scalar or symmetric-tensor samples moved by a flip alone.

    flip is "id", "fx", "fy" (negate x or y) or "swap" (exchange x and y): the
    grid axes sliced or transposed, plus the sign of s12 or the exchange of
    s11 and s22 that it implies on a (3, n, n) stack.  np.roll by a cell shift
    (b1, b2) over the last two axes then completes a lattice motion.
    """
    if flip != "id" and values.ndim == 3 and len(values) != 3:
        raise ValueError("flips move only scalar and symmetric-tensor samples")
    if flip == "fx":
        values = values[..., ::-1, :]
    elif flip == "fy":
        values = values[..., ::-1]
    elif flip == "swap":
        values = np.swapaxes(values, -2, -1)
    if values.ndim == 3 and flip in ("fx", "fy"):
        values = np.stack([values[0], -values[1], values[2]])
    elif values.ndim == 3 and flip == "swap":
        values = values[::-1]
    return values


def constant_field(spec: GridSpec, m) -> SymTensorField:
    """Symmetric tensor holding the 2x2 matrix m = [[m11, m12], [m12, m22]] at every cell."""
    m = np.asarray(m, dtype=np.float64)
    scale = max(np.max(np.abs(m)), 1.0)
    if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12 * scale:
        raise ValueError("m must be a symmetric 2x2 matrix")
    comps = np.array([m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1]])
    return SymTensorField(spec, np.broadcast_to(comps[:, None, None], (3, spec.n, spec.n)))


def constant_vector(spec: GridSpec, v) -> VectorField:
    v = np.asarray(v, dtype=np.float64)
    return VectorField(spec, np.broadcast_to(v[:, None, None], (2, spec.n, spec.n)))


def constant_metric(spec: GridSpec, m) -> MetricField:
    return MetricField(constant_field(spec, m))


def identity_metric(spec: GridSpec) -> MetricField:
    return constant_metric(spec, np.eye(2))

