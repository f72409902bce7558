"""Reproducible random fields from a counter-based 64-bit generator.

The generator is SplitMix64 driven directly by (seed, counter): draw k of a
stream is mix64((seed + (k+1) * 0x9E3779B97F4A7C15) mod 2^64), mapped to a
double in [0,1) via the top 53 bits.  It is stateless, so any draw can be
reproduced from its index alone, in any language.

Random fields are band-limited: real Fourier modes with wavenumbers
0 <= p <= max_mode, |q| <= max_mode (skipping the constant), with cosine and
sine coefficients drawn uniformly from [-1, 1] and the result rescaled to a
requested max-abs amplitude, which the largest |sample| equals exactly.  The
modes are summed separably: 1-D cos/sin tables on the cell centres of each
axis, O(M n) trigonometric evaluations for M = max_mode, are combined by the
addition theorems in O(M n^2) multiply-adds; no trigonometric function is
evaluated on the full n x n grid.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    constant_field,
    stencil_gradient,
)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def unit_draw(seed: int, counter: int) -> float:
    """The counter-th double in [0,1) of the stream identified by seed."""
    z = _mix64((seed + (counter + 1) * _GAMMA) & _MASK)
    return (z >> 11) * 2.0 ** -53


class DrawStream:
    """Sequential view over the counter-based stream."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self.counter = 0

    def next_unit(self) -> float:
        u = unit_draw(self.seed, self.counter)
        self.counter += 1
        return u

    def next_symmetric(self) -> float:
        return 2.0 * self.next_unit() - 1.0


def _mode_list(max_mode: int) -> list[tuple[int, int]]:
    modes = []
    for p in range(0, max_mode + 1):
        for q in range(-max_mode, max_mode + 1):
            if p == 0 and q <= 0:
                continue  # keep one representative per +/- pair, drop the constant
            modes.append((p, q))
    return modes


def band_limited_scalar(
    spec: GridSpec,
    stream: DrawStream,
    max_mode: int = 4,
    amplitude: float = 1.0,
    period_cells: int | None = None,
) -> ScalarField:
    """Seeded smooth periodic scalar, rescaled so max|f| = amplitude.

    With period_cells set, the field is synthesized on one block of that many
    cells and tiled, making it bitwise periodic under the block translation.
    """
    return ScalarField(spec, _band_limited(spec, stream, max_mode, amplitude, period_cells))


def _band_limited(
    spec: GridSpec, stream: DrawStream, max_mode: int, amplitude: float, period_cells: int | None = None
) -> np.ndarray:
    """The samples of band_limited_scalar, by separable synthesis.

    With a_pq, b_pq in the arrays A, B (row p, column q + max_mode) and the
    1-D tables cx, sx = cos, sin(2 pi p x_i) and cy, sy = cos, sin(2 pi q y_j),
    the addition theorems give
    f = sum_p cx_p (x) (A_p cy + B_p sy) + sx_p (x) (B_p cy - A_p sy).
    Both contractions, over q and then over p, are einsum, which calls no
    BLAS, so the samples do not depend on the BLAS thread count.
    """
    n = spec.n
    block = n if period_cells is None else period_cells
    if n % block != 0:
        raise ValueError("period_cells must divide the resolution")
    a = np.zeros((max_mode + 1, 2 * max_mode + 1))
    b = np.zeros_like(a)
    for p, q in _mode_list(max_mode):
        a[p, q + max_mode] = stream.next_symmetric()
        b[p, q + max_mode] = stream.next_symmetric()
    c = (np.arange(block) + 0.5) / block
    px = 2.0 * np.pi * np.outer(np.arange(max_mode + 1), c)
    qy = 2.0 * np.pi * np.outer(np.arange(-max_mode, max_mode + 1), c)
    cx, sx, cy, sy = np.cos(px), np.sin(px), np.cos(qy), np.sin(qy)
    even = np.einsum("pq,qj->pj", a, cy) + np.einsum("pq,qj->pj", b, sy)
    odd = np.einsum("pq,qj->pj", b, cy) - np.einsum("pq,qj->pj", a, sy)
    f = np.einsum("pi,pj->ij", cx, even) + np.einsum("pi,pj->ij", sx, odd)
    scale = np.max(np.abs(f))
    if scale > 0.0:
        f = amplitude * (f / scale)  # the extreme sample divides to exactly +-1
    if block != n:
        f = np.tile(f, (n // block, n // block))
    return f


def random_vector_field(
    spec: GridSpec,
    seed: int,
    max_mode: int = 4,
    amplitude: float = 1.0,
    period_cells: int | None = None,
) -> VectorField:
    """Seeded smooth periodic vector field whose components always have zero mean.

    Each component is a band-limited draw rescaled to max-abs amplitude (see
    band_limited_scalar), then shifted by its mean, so the field carries no
    constant translation.
    """
    stream = DrawStream(seed)
    comps = [_band_limited(spec, stream, max_mode, amplitude, period_cells) for _ in range(2)]
    return VectorField.from_arrays(spec, *(v - np.mean(v) for v in comps))


def random_sym_tensor(
    spec: GridSpec, seed: int, max_mode: int = 4, amplitude: float = 1.0
) -> SymTensorField:
    stream = DrawStream(seed)
    return SymTensorField.from_arrays(spec, *(_band_limited(spec, stream, max_mode, amplitude) for _ in range(3)))


def random_metric_near_identity(spec: GridSpec, seed: int, amplitude: float):
    """Identity metric plus a seeded symmetric perturbation of given max-abs size."""
    pert = random_sym_tensor(spec, seed, amplitude=amplitude)
    return MetricField(constant_field(spec, np.eye(2)) + pert)


def divergence_free_tensor(
    spec: GridSpec, seed: int, max_mode: int = 4, amplitude: float = 1.0
) -> SymTensorField:
    """Seeded symmetric tensor with vanishing flat-metric divergence.

    Built as the rotated second-derivative pattern of a seeded potential,
    (D_yy psi, -D_xy psi, D_xx psi), plus a seeded constant part: both pieces
    are annihilated by the stencil divergence on the flat torus because the
    shift operators commute.
    """
    stream = DrawStream(seed)
    psi = _band_limited(spec, stream, max_mode, 1.0)
    dd = stencil_gradient(stencil_gradient(psi, spec.h), spec.h)  # dd[a][b] = D_a D_b psi
    s = np.stack([dd[1, 1], -dd[1, 0], dd[0, 0]])
    const = np.array([stream.next_symmetric() for _ in range(3)])
    s = s / max(np.max(np.abs(s)), 1e-300) + const[:, None, None]
    return SymTensorField(spec, amplitude * (s / np.max(np.abs(s))))
