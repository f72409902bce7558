"""Counter-based generator and seeded band-limited fields."""

import numpy as np
import pytest

from riemgrid.calculus import divergence
from riemgrid.grid import GridSpec, identity_metric
from riemgrid.sampling import (
    DrawStream,
    _mode_list,
    band_limited_scalar,
    divergence_free_tensor,
    random_sym_tensor,
    random_vector_field,
    unit_draw,
)


def test_generator_matches_published_sequence():
    # splitmix64 seeded with 0: first outputs 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4
    assert unit_draw(0, 0) == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53
    assert unit_draw(0, 1) == (0x6E789E6AA1B965F4 >> 11) * 2.0 ** -53
    assert unit_draw(0, 2) == (0x06C45D188009454F >> 11) * 2.0 ** -53


def test_generator_is_counter_addressable():
    seq = [unit_draw(42, k) for k in range(10)]
    stream = DrawStream(42)
    assert [stream.next_unit() for _ in range(10)] == seq
    assert unit_draw(42, 7) == seq[7]


def test_stream_determinism_across_instances():
    a = random_sym_tensor(GridSpec(16), 123, amplitude=0.3)
    b = random_sym_tensor(GridSpec(16), 123, amplitude=0.3)
    assert np.array_equal(a.as_stack(), b.as_stack())
    c = random_sym_tensor(GridSpec(16), 124, amplitude=0.3)
    assert not np.array_equal(a.as_stack(), c.as_stack())


def test_band_limited_amplitude_and_tiling():
    spec = GridSpec(32)
    f = band_limited_scalar(spec, DrawStream(9), max_mode=3, amplitude=0.25)
    assert np.max(np.abs(f.values)) == 0.25
    g = band_limited_scalar(spec, DrawStream(9), max_mode=3, amplitude=1.0, period_cells=16)
    assert np.array_equal(g.values[:16, :16], g.values[16:, 16:])
    assert np.array_equal(g.values[:16, :16], g.values[16:, :16])


def test_period_must_divide_the_resolution():
    with pytest.raises(ValueError, match="period_cells must divide"):
        random_vector_field(GridSpec(32), 1, amplitude=0.1, period_cells=5)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("amplitude", [0.25, 0.05, 0.1, 0.002, 1.0])
def test_band_limited_max_is_the_amplitude_exactly(n, amplitude):
    # f * (amplitude / scale) missed by one ulp on 14% of these draws, some above
    for seed in range(200):
        f = band_limited_scalar(GridSpec(n), DrawStream(seed), amplitude=amplitude)
        assert np.max(np.abs(f.values)) == amplitude, seed


def _per_mode_sum(spec, stream, max_mode, amplitude, period_cells=None):
    """Reference synthesis: one full-grid cos and sin per mode."""
    n = spec.n
    block = n if period_cells is None else period_cells
    c = (np.arange(block) + 0.5) / block
    x, y = np.meshgrid(c, c, indexing="ij")
    f = np.zeros((block, block))
    for p, q in _mode_list(max_mode):
        a = stream.next_symmetric()
        b = stream.next_symmetric()
        phase = 2.0 * np.pi * (p * x + q * y)
        f += a * np.cos(phase) + b * np.sin(phase)
    f = amplitude * (f / np.max(np.abs(f)))
    return np.tile(f, (n // block, n // block))


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("max_mode", [1, 2, 3, 4])
def test_separable_synthesis_matches_the_per_mode_sum(n, max_mode):
    spec = GridSpec(n)
    for seed, amplitude, period_cells in ((1, 1.0, None), (2, 0.05, None), (3, 0.3, n // 2), (4, 0.1, 8)):
        stream, ref_stream = DrawStream(seed), DrawStream(seed)
        f = band_limited_scalar(spec, stream, max_mode, amplitude, period_cells).values
        ref = _per_mode_sum(spec, ref_stream, max_mode, amplitude, period_cells)
        assert stream.counter == ref_stream.counter
        assert np.max(np.abs(f - ref)) <= 1e-14 * amplitude
        if period_cells is not None:
            reps = n // period_cells
            assert np.array_equal(f, np.tile(f[:period_cells, :period_cells], (reps, reps)))


def test_vector_field_zero_mean():
    v = random_vector_field(GridSpec(16), 7, amplitude=0.1)
    assert abs(np.mean(v.values[0])) <= 1e-15
    assert abs(np.mean(v.values[1])) <= 1e-15


def test_divergence_free_construction():
    spec = GridSpec(32)
    gamma = identity_metric(spec)
    for seed in (1, 2, 3):
        h = divergence_free_tensor(spec, seed, amplitude=0.05)
        w = divergence(gamma, h)
        assert np.max(np.abs(w.values[0])) <= 1e-12
        assert np.max(np.abs(w.values[1])) <= 1e-12
        assert np.max(np.abs(h.as_stack())) == 0.05
