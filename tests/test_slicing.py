"""Splitting, slice decomposition, path lifting, and the isometry probes."""

import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from riemgrid import slicing
from riemgrid.calculus import divergence, lie_derivative_metric, metric_inverse, sharp, vector_inner, volume_density
from riemgrid.convergence import measured_order
from riemgrid.diffeos import flow_exp, pullback, translation
from riemgrid.errors import NoConvergence, SolverStall, StepFailure
from riemgrid.geodesics import _exp_endpoint, _sym_norm, ebin_exp, ebin_inner, ebin_log, ebin_norm, relative_distance
from riemgrid.grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _flipped,
    constant_field,
    constant_metric,
    identity_metric,
    interpolate,
    stencil_derivative,
    stencil_gradient,
)
from riemgrid.sampling import divergence_free_tensor, random_sym_tensor, random_vector_field
from riemgrid.slicing import (
    LatticeIsometry,
    MetricPath,
    _divergence_defect,
    _row_survivors,
    _subgroup,
    berger_ebin_project,
    candidate_family,
    conjugate_isometries,
    horizontal_lift,
    isometry_candidates,
    lattice_transport,
    slice_decompose,
    slice_membership,
)

SPEC = GridSpec(32)
GAMMA = identity_metric(SPEC)
NORM_GAMMA = ebin_norm(GAMMA, GAMMA.g)


def sin_metric(n=16, amplitude=0.1):
    spec = GridSpec(n)
    x, _ = spec.cell_centers()
    return MetricField(
        SymTensorField.from_arrays(
            spec, 1.0 + amplitude * np.sin(2 * np.pi * x), np.zeros((n, n)), np.ones((n, n))
        )
    )


# ---------------------------------------------------------------------------
# splitting


def test_project_divergence_free_input_passes_through():
    s = constant_field(SPEC, np.array([[0.4, -0.1], [-0.1, 0.9]]))
    split = berger_ebin_project(GAMMA, s)
    assert np.max(np.abs(split.x.as_stack())) <= 1e-12
    assert np.max(np.abs(split.h.as_stack() - s.as_stack())) <= 1e-12


def test_project_recovers_generator():
    y_field = random_vector_field(SPEC, 11, amplitude=0.3)
    s = lie_derivative_metric(GAMMA, y_field)
    split = berger_ebin_project(GAMMA, s, tol=1e-12)
    assert np.max(np.abs(split.x.as_stack() - y_field.as_stack())) <= 1e-8
    assert ebin_norm(GAMMA, split.h) <= 1e-8
    assert split.orthogonality_defect <= 1e-13


def test_project_superposition():
    y_field = random_vector_field(SPEC, 12, amplitude=0.3)
    const_part = constant_field(SPEC, np.array([[0.2, 0.05], [0.05, -0.1]]))
    s = lie_derivative_metric(GAMMA, y_field) + const_part
    split = berger_ebin_project(GAMMA, s, tol=1e-12)
    assert np.max(np.abs(split.x.as_stack() - y_field.as_stack())) <= 1e-8
    assert np.max(np.abs(split.h.as_stack() - const_part.as_stack())) <= 1e-8


def test_project_reconstruction_and_divergence_bounds():
    for seed in range(5):
        s = random_sym_tensor(SPEC, seed + 100, amplitude=0.3)
        split = berger_ebin_project(GAMMA, s, tol=1e-10)
        recon = lie_derivative_metric(GAMMA, split.x) + split.h - s
        assert ebin_norm(GAMMA, recon) <= 1e-10 * ebin_norm(GAMMA, s)
        div_h = divergence(GAMMA, split.h)
        div_s = divergence(GAMMA, s)
        assert np.max(np.abs(div_h.as_stack())) <= 1e-8 * np.max(np.abs(div_s.as_stack()))


def test_project_orthogonality_invariant():
    s = random_sym_tensor(SPEC, 200, amplitude=0.3)
    split = berger_ebin_project(GAMMA, s, tol=1e-12)
    h_norm = ebin_norm(GAMMA, split.h)
    for seed in range(10):
        x_probe = random_vector_field(SPEC, 300 + seed, amplitude=0.5)
        lie = lie_derivative_metric(GAMMA, x_probe)
        inner = abs(ebin_inner(GAMMA, lie, split.h))
        assert inner <= 1e-7 * ebin_norm(GAMMA, lie) * h_norm


def test_project_zero_mean_gauge():
    s = random_sym_tensor(SPEC, 77, amplitude=0.3)
    split = berger_ebin_project(GAMMA, s)
    assert abs(np.mean(split.x.values[0])) <= 1e-13
    assert abs(np.mean(split.x.values[1])) <= 1e-13


def test_project_curved_base_meets_loose_tolerance_only():
    g = sin_metric()
    s = random_sym_tensor(g.spec, 13, amplitude=0.1)
    split = berger_ebin_project(g, s, tol=1e-3)
    assert _divergence_defect(g, split.h) <= 1e-3 * _divergence_defect(g, s)
    with pytest.raises(SolverStall):
        berger_ebin_project(g, s, tol=1e-14)


def test_project_curved_tolerance_is_relative_to_scale():
    # the curved-base bound scales with div s: shrinking s must not turn a
    # stall into a silent miss (here the split reaches only 3e-3 relative)
    spec = GridSpec(16)
    g = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 1, amplitude=0.1))
    s = random_sym_tensor(spec, 1001, amplitude=0.05)
    for scale in (1.0, 0.01):
        with pytest.raises(SolverStall):
            berger_ebin_project(g, s * scale, tol=1e-4)
    # an s with no divergence at all still splits
    assert not np.any(berger_ebin_project(g, constant_field(spec, np.zeros((2, 2))), tol=1e-4).h.as_stack())


def test_preconditioner_is_built_once_per_base():
    spec = GridSpec(16)
    g = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 1, amplitude=0.1))
    assert slicing._solver(g) is slicing._solver(g)


def test_dropped_base_is_freed_with_its_preconditioner():
    # the split's solver cache holds a curved base weakly, so the base, its
    # cached inverse, volume and table of L_X g, and its solver go when the
    # caller drops it
    spec = GridSpec(16)
    g = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 1, amplitude=0.1))
    berger_ebin_project(g, random_sym_tensor(spec, 1001, amplitude=0.05), tol=1e-2)
    apply_k, apply_m = slicing._solver(g)
    refs = [weakref.ref(g), weakref.ref(g._lie_table), weakref.ref(apply_k), weakref.ref(apply_m)]
    del apply_k, apply_m
    del g
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def lie_reference(g, xs):
    """(L_X g)_ij = X^k D_k g_ij + g_kj D_i X^k + g_ik D_j X^k, term by term."""
    gs = g.as_stack()
    comp = [[gs[0], gs[1]], [gs[1], gs[2]]]
    dg = stencil_gradient(gs, g.spec.h)  # dg[k][ij] = D_k g_ij
    dx = stencil_gradient(xs, g.spec.h)  # dx[i][k] = D_i X^k
    out = []
    for idx, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        acc = xs[0] * dg[0, idx] + xs[1] * dg[1, idx]
        for k in range(2):
            acc = acc + comp[k][j] * dx[i, k] + comp[i][k] * dx[j, k]
        out.append(acc)
    return np.stack(out)


def divergence_reference(g, ss):
    """(div s)_k = vol^-1 D_i(vol (g^-1 s)^i_k) - (1/2) (D_k g_ab) (g^-1 s g^-1)^ab, term by term."""
    h = g.spec.h
    inv, vol = metric_inverse(g).as_stack(), volume_density(g).values
    dg = stencil_gradient(g.as_stack(), h)
    m = (inv[0] * ss[0] + inv[1] * ss[1], inv[0] * ss[1] + inv[1] * ss[2],
         inv[1] * ss[0] + inv[2] * ss[1], inv[1] * ss[1] + inv[2] * ss[2])  # (g^-1 s)^i_k
    t11, t12, t22 = m[0] * inv[0] + m[1] * inv[1], m[0] * inv[1] + m[1] * inv[2], m[2] * inv[1] + m[3] * inv[2]
    flux = stencil_derivative(vol * np.stack(m[:2]), 1, h) + stencil_derivative(vol * np.stack(m[2:]), 2, h)
    return flux / vol - 0.5 * (dg[:, 0] * t11 + 2.0 * dg[:, 1] * t12 + dg[:, 2] * t22)


@pytest.mark.parametrize("n", [16, 32])
def test_split_operator_matches_the_composed_term_by_term_formulas(n):
    # K = J^T (C^T W C) J from the fused per-cell table equals -2 vol div(L_X g)
    # with L and div written out term by term, and L_X g and div agree with them
    spec = GridSpec(n)
    for g in (generic_metric(n, 1), generic_metric(n, 2), sin_metric(n, 0.3)):
        xs = random_vector_field(spec, 7, amplitude=0.3).as_stack()
        s = random_sym_tensor(spec, 8, amplitude=0.3)
        lie = lie_reference(g, xs)
        k_ref = -2.0 * volume_density(g).values * divergence_reference(g, lie)
        assert np.max(np.abs(slicing._solver(g)[0](xs) - k_ref)) <= 1e-14 * np.max(np.abs(k_ref))
        lie_field = lie_derivative_metric(g, VectorField(spec, xs)).as_stack()
        assert np.max(np.abs(lie_field - lie)) <= 1e-14 * np.max(np.abs(lie))
        div_ref = divergence_reference(g, s.as_stack())
        assert np.max(np.abs(divergence(g, s).as_stack() - div_ref)) <= 1e-14 * np.max(np.abs(div_ref))


@pytest.mark.parametrize("n", [16, 32])
def test_split_operator_is_symmetric(n):
    spec = GridSpec(n)
    for seed in (1, 2, 3):
        g = generic_metric(n, seed)
        a = random_vector_field(spec, 10 + seed, amplitude=0.3).as_stack()
        b = random_vector_field(spec, 20 + seed, amplitude=0.3).as_stack()
        apply_k = slicing._solver(g)[0]
        ka, kb = apply_k(a), apply_k(b)
        scale = math.sqrt(slicing._dot(ka, ka) * slicing._dot(b, b))
        assert abs(slicing._dot(ka, b) - slicing._dot(a, kb)) <= 1e-14 * scale


def test_closed_form_2x2_eigen_solve_matches_eigh():
    rng = np.random.default_rng(5)
    generic = [m + m.T for m in rng.standard_normal((50, 2, 2))]
    scaled = [m * 10.0 ** e for m, e in zip(generic[:9], range(-12, 13, 3))]
    special = [np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.diag([-3.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    for e in generic + scaled + special:
        gains, projectors = slicing._sym_eigen2(e)
        ref_gains, ref_vecs = np.linalg.eigh(e)
        scale = np.max(np.abs(e))
        assert np.max(np.abs(gains - ref_gains)) <= 1e-15 * scale
        # distinct eigenvalues: each projector is v v^T of eigh's eigenvector v
        ref_projectors = np.einsum("ak,bk->kab", ref_vecs, ref_vecs)
        assert np.max(np.abs(projectors - ref_projectors)) <= 1e-14


@pytest.mark.parametrize("c", [0.0, 2.5, -1.0])
def test_closed_form_2x2_eigen_solve_of_equal_eigenvalues(c):
    # c I, the zero matrix included: both eigenvalues are c, and the projectors
    # split the identity evenly
    gains, projectors = slicing._sym_eigen2(c * np.eye(2))
    assert np.array_equal(gains, np.linalg.eigh(c * np.eye(2))[0])
    assert np.array_equal(projectors, 0.5 * np.array([np.eye(2), np.eye(2)]))


def test_constant_base_preconditioner_drops_both_translations():
    # on a constant base E = Z^T K Z is exactly 0, so neither translation enters
    # the coarse solve: a constant residual maps to 0.  On a curved base both do.
    units = np.ones((2, 16, 16))
    g = constant_metric(GridSpec(16), np.array([[1.3, 0.2], [0.2, 0.8]]))
    apply_k, apply_m = slicing._solver(g)
    assert not np.any(apply_k(units))
    assert not np.any(apply_m(units))
    means = np.mean(slicing._solver(generic_metric(16, 1))[1](units), axis=(1, 2))
    assert np.all(np.abs(means) > 1.0)


def two_level_reference(g, r):
    """M r as two added levels: the Fourier solve at the mean metric, where
    K = -weight div L, plus the coarse solve Z E^+ Z^T r on the unit
    translations Z, with E = Z^T K Z and its near-Killing directions cut.
    E is summed as the split sums it: on the sin base its entry is 4e-2 of
    the sum of its terms' sizes, and another order moves it by 1.5e-14."""
    n = g.spec.n
    means = [float(np.mean(c)) for c in g.as_stack()]
    inverse, sigma_min = slicing._fourier_solver(n, *means)
    weight = 2.0 * math.sqrt(means[0] * means[2] - means[1] * means[1])
    rh = np.fft.rfft2(r / -weight)
    fine = np.fft.irfft2(np.stack([inverse[0, 0] * rh[0] + inverse[0, 1] * rh[1],
                                   inverse[1, 0] * rh[0] + inverse[1, 1] * rh[1]]), s=(n, n))
    units = np.einsum("ab,xy->abxy", np.eye(2), np.full((n, n), 1.0 / n))
    e = np.einsum("iaxy,jaxy->ij", units, [slicing._solver(g)[0](zj) for zj in units])
    gains, vecs = np.linalg.eigh(e)
    keep = gains > slicing._NEAR_KILLING * weight * sigma_min
    e_plus = (vecs[:, keep] / gains[keep]) @ vecs[:, keep].T
    zt_r = np.einsum("jaxy,axy->j", units, r)
    return fine + np.einsum("j,jaxy->axy", e_plus @ zt_r, units)


def preconditioner_bases(n):
    return {
        "sin": sin_metric(n, 0.1),
        "generic": generic_metric(n, 1),
        "constant": constant_metric(GridSpec(n), np.array([[1.3, 0.2], [0.2, 0.8]])),
    }


@pytest.mark.parametrize("n", [16, 32])
def test_preconditioner_multiplier_equals_the_two_level_form(n):
    # the coarse solve on the translations is the multiplier's zero mode
    for name, g in preconditioner_bases(n).items():
        apply_m = slicing._solver(g)[1]
        for seed in (7, 8):
            r = random_vector_field(g.spec, seed, amplitude=0.3).as_stack()
            # zero mean: the Fourier level; the output's mean is the roundoff of Z^T r times E^+
            out, ref = apply_m(r), two_level_reference(g, r)
            out, ref = (a - np.mean(a, axis=(1, 2), keepdims=True) for a in (out, ref))
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref)), name
            # a mean, which the coarse level solves
            r = r + np.array([0.2, -0.1])[:, None, None]
            out, ref = apply_m(r), two_level_reference(g, r)
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("n", [16, 32])
def test_preconditioner_is_symmetric(n):
    for name, g in preconditioner_bases(n).items():
        a = random_vector_field(g.spec, 11, amplitude=0.3).as_stack()
        b = random_vector_field(g.spec, 12, amplitude=0.3).as_stack()
        apply_m = slicing._solver(g)[1]
        ma, mb = apply_m(a), apply_m(b)
        scale = math.sqrt(slicing._dot(ma, ma) * slicing._dot(b, b))
        assert abs(slicing._dot(ma, b) - slicing._dot(a, mb)) <= 1e-14 * scale, name


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("name, iterations", [("sin", 12), ("generic", 17), ("constant", 1)])
def test_pcg_iteration_counts_are_pinned(n, name, iterations):
    g = preconditioner_bases(n)[name]
    s = random_sym_tensor(g.spec, 1001, amplitude=0.05)
    assert slicing._split(g, s.values)[0].iterations == iterations


def generic_metric(n, seed, **kwargs):
    spec = GridSpec(n)
    return MetricField(identity_metric(spec).g + random_sym_tensor(spec, seed, amplitude=0.1, **kwargs))


def divergence_norm(g, s):
    v = sharp(g, divergence(g, s))
    return np.sqrt(vector_inner(g, v, v))


def checkerboard_peak(xs):
    """Largest stencil-checkerboard Fourier amplitude of X over its largest."""
    xh = np.abs(np.fft.fft2(xs))
    m = xs.shape[-1] // 2
    return max(np.max(xh[:, i, j]) for i, j in ((m, 0), (0, m), (m, m))) / np.max(xh)


def test_project_exact_on_sheared_constant_metric():
    g = constant_metric(SPEC, np.array([[1.3, 0.2], [0.2, 0.8]]))
    y_field = random_vector_field(SPEC, 14, amplitude=0.3)
    split = berger_ebin_project(g, lie_derivative_metric(g, y_field), tol=1e-12)
    assert split.iterations == 1
    assert split.orthogonality_defect <= 1e-13
    assert np.max(np.abs(split.x.as_stack() - y_field.as_stack())) <= 1e-8
    assert np.max(np.abs(np.mean(split.x.as_stack(), axis=(1, 2)))) <= 1e-13
    assert divergence_norm(g, split.h) <= 1e-10 * divergence_norm(g, lie_derivative_metric(g, y_field))


def test_project_generic_curved_base_meets_tolerance_at_n32():
    # the translations carry real content on a curved base: dropping them
    # stalled this split at 2.3e-3 relative divergence
    g = generic_metric(32, 1)
    s = random_sym_tensor(g.spec, 1001, amplitude=0.05)
    split = berger_ebin_project(g, s, tol=1e-4)
    assert 0 < split.iterations <= 60
    assert divergence_norm(g, split.h) <= 1e-4 * divergence_norm(g, s)
    recon = lie_derivative_metric(g, split.x) + split.h - s
    assert ebin_norm(g, recon) <= 1e-12 * ebin_norm(g, s)
    # the stencil checkerboards are null modes and never enter X
    assert checkerboard_peak(split.x.as_stack()) <= 1e-12


@pytest.mark.parametrize("n", [16, 24, 64])
@pytest.mark.parametrize("matrix", [np.eye(2), [[1.3, 0.2], [0.2, 0.8]], [[0.7, -0.1], [-0.1, 1.9]]])
def test_project_constant_base_solves_in_one_pcg_iteration(n, matrix):
    # on a constant base the preconditioner is the exact Fourier inverse (at
    # n=24 the mean metric comes from an inexact sum), so PCG stops after one
    # iteration on the closed-form solve
    spec = GridSpec(n)
    g = constant_metric(spec, np.array(matrix, dtype=float))
    s = random_sym_tensor(spec, 1001, amplitude=0.05)
    split = berger_ebin_project(g, s, tol=1e-12)
    assert split.iterations == 1
    inverse, _ = slicing._fourier_solver(n, *(float(c[0, 0]) for c in g.as_stack()))
    x_ref = np.fft.irfft2(np.einsum("abij,bij->aij", inverse, np.fft.rfft2(divergence(g, s).as_stack())), s=(n, n))
    xs = split.x.as_stack()
    assert np.max(np.abs(xs - x_ref)) <= 1e-14 * np.max(np.abs(x_ref))
    assert np.max(np.abs(np.mean(xs, axis=(1, 2)))) <= 1e-13
    assert checkerboard_peak(xs) <= 1e-12


def test_project_curved_floor_refines_at_fourth_order():
    rel = []
    for n in (16, 32):
        g = generic_metric(n, 3, max_mode=2)
        s = random_sym_tensor(g.spec, 1001, amplitude=0.05)
        split = berger_ebin_project(g, s, tol=1e-2)
        rel.append(divergence_norm(g, split.h) / divergence_norm(g, s))
    assert rel[1] <= rel[0] / 2 ** 4


@pytest.mark.parametrize("seed", [2, 4, 6])
def test_project_generic_curved_base_stalls_at_the_n16_floor(seed):
    # at n=16 about 1e-3 of div s is checkerboard content, which no X without
    # checkerboards removes: PCG stops on its relative residual (17
    # iterations), below the cap, and leaves 10-22 times the tol bound
    g = generic_metric(16, 1)
    s = random_sym_tensor(g.spec, seed, amplitude=0.05)
    with pytest.raises(SolverStall, match="stopped on its relative residual after 17 iterations, at the checkerboard"):
        berger_ebin_project(g, s, tol=1e-4)
    split = slicing._split(g, s.values)[0]
    assert split.iterations < slicing._PCG_MAX
    assert divergence_norm(g, split.h) >= 5e-4 * divergence_norm(g, s)


def test_project_moved_curved_base_stalls_at_the_iteration_cap():
    # a curved base moved by a gauge at n=128: PCG is still descending when it
    # reaches its cap, and leaves 1.4e-6 of div s against a 6.9e-7 bound
    spec = GridSpec(128)
    curved = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 1, amplitude=0.1))
    g = pullback(flow_exp(random_vector_field(spec, 5, amplitude=0.05, max_mode=2), 1.0), curved)
    s = random_sym_tensor(spec, 11, amplitude=0.05)
    with pytest.raises(SolverStall, match=f"stopped at its {slicing._PCG_MAX}-iteration cap"):
        berger_ebin_project(g, s, tol=1e-6)


def test_project_near_killing_bases_split_without_stall():
    # on I + eps p the translations are nearly Killing; with an exactly adjoint
    # divergence the split is symmetric and reaches tol at every eps.  At n=16
    # eps = 1e-1 and 1e-2 stop above 1e-4 on the checkerboard content of div s,
    # which no X without checkerboards removes, so that resolution is left out.
    for n in (32, 64, 128):
        spec = GridSpec(n)
        p = random_sym_tensor(spec, 1, amplitude=1)
        s = random_sym_tensor(spec, 1001, amplitude=0.05)
        for eps in (1e-1, 1e-2, 1e-3):
            split = berger_ebin_project(MetricField(identity_metric(spec).g + p * eps), s, tol=1e-4)
            assert split.orthogonality_defect <= 1e-13
        # translation gains ~eps^2: a base this flat keeps them out of X
        split = berger_ebin_project(MetricField(identity_metric(spec).g + p * 1e-9), s, tol=1e-4)
        assert split.orthogonality_defect <= 1e-13
        assert np.max(np.abs(split.x.as_stack())) <= 0.25


_THREADED_SPLIT = """
import sys
import numpy as np
from riemgrid.grid import GridSpec, MetricField, identity_metric
from riemgrid.sampling import random_sym_tensor
from riemgrid.slicing import berger_ebin_project
spec = GridSpec(128)
g = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 1, amplitude=0.1))
split = berger_ebin_project(g, random_sym_tensor(spec, 2), tol=1e-6)
np.save(sys.argv[1], np.concatenate([split.x.values, split.h.values]))
"""


def test_curved_split_does_not_depend_on_the_blas_thread_count(tmp_path):
    # every reduction of the PCG split is an einsum, which calls no BLAS; a BLAS
    # dot product sums in an order set by the thread count, and the split moved
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out[threads] = tmp_path / f"split{threads}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", _THREADED_SPLIT, str(out[threads])],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    assert np.array_equal(np.load(out["1"]), np.load(out["2"]))


# ---------------------------------------------------------------------------
# membership


def test_membership_at_base_point():
    res = slice_membership(GAMMA, GAMMA)
    assert res.member
    assert res.divergence_defect == 0.0


def test_membership_of_slice_points():
    h = divergence_free_tensor(SPEC, 21, amplitude=1.0)
    h = h * (0.04 * NORM_GAMMA / ebin_norm(GAMMA, h))
    g = ebin_exp(GAMMA, h, 1.0).endpoint
    res = slice_membership(GAMMA, g, tol=1e-6)
    assert res.member
    assert res.divergence_defect <= 1e-8


def test_membership_rejects_gauge_motion():
    x_field = random_vector_field(SPEC, 22, amplitude=0.05, max_mode=2)
    g = pullback(flow_exp(x_field, 0.1), GAMMA)
    res = slice_membership(GAMMA, g, tol=1e-6)
    assert not res.member
    assert res.divergence_defect > 1e-2


def one_cell_g22(n, value):
    stack = identity_metric(GridSpec(n)).as_stack().copy()
    stack[2, 3, 5] = value
    return MetricField.from_stack(GridSpec(n), stack)


@pytest.mark.parametrize(
    "g, distance",
    [
        pytest.param(constant_metric(GridSpec(16), 2.0 * np.eye(2)), 1.0, id="beyond-0.5"),
        pytest.param(one_cell_g22(16, 3e-6), 0.0442, id="log-angle-pi"),
    ],
)
def test_membership_outside_chart(g, distance):
    # the first fails the relative-distance pre-check; the second passes it,
    # but one cell's log angle is 3.18 >= pi, where no geodesic reaches it
    base = identity_metric(GridSpec(16))
    assert relative_distance(base, g) == pytest.approx(distance, abs=1e-4)
    res = slice_membership(base, g)
    assert not res.member
    assert res.reason == "outside chart"
    assert res.divergence_defect == math.inf
    assert res.log_velocity is None


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_at_base_point():
    dec = slice_decompose(GAMMA, GAMMA, tol=1e-6)
    assert dec.residual <= 1e-12
    assert np.max(np.abs(dec.phi.u.as_stack())) <= 1e-12
    assert ebin_norm(GAMMA, dec.h) <= 1e-12


def test_decompose_pure_gauge_input():
    x_field = random_vector_field(SPEC, 23, amplitude=0.003)
    g = pullback(flow_exp(x_field, 1.0), GAMMA)
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert dec.residual <= 1e-6
    assert ebin_norm(GAMMA, dec.h) <= 1e-6 * NORM_GAMMA


def test_decompose_pure_slice_input():
    h0 = divergence_free_tensor(SPEC, 24, amplitude=1.0)
    h0 = h0 * (0.05 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    g = ebin_exp(GAMMA, h0, 1.0).endpoint
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert dec.residual <= 1e-6
    assert ebin_norm(GAMMA, dec.h - h0) <= 1e-6 * NORM_GAMMA
    assert np.max(np.abs(dec.phi.u.as_stack())) <= 1e-5


def test_decompose_mixed_input_chart_roundtrip():
    h0 = divergence_free_tensor(SPEC, 25, amplitude=1.0)
    h0 = h0 * (0.05 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    x_field = random_vector_field(SPEC, 26, amplitude=0.003)
    phi0 = flow_exp(x_field, 1.0)
    g = pullback(phi0, ebin_exp(GAMMA, h0, 1.0).endpoint)
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert dec.residual <= 1e-6
    assert ebin_norm(GAMMA, dec.h - h0) <= 1e-5 * NORM_GAMMA
    recon = pullback(dec.phi, ebin_exp(GAMMA, dec.h, 1.0).endpoint)
    assert ebin_norm(GAMMA, recon.g - g.g) / ebin_norm(GAMMA, g.g) <= 1e-6


def test_decompose_outside_radius_raises():
    g = constant_metric(SPEC, 1.5 * np.eye(2))
    with pytest.raises(NoConvergence):
        slice_decompose(GAMMA, g, tol=1e-6)


def test_decompose_h_divergence_bound():
    h0 = divergence_free_tensor(SPEC, 27, amplitude=1.0)
    h0 = h0 * (0.03 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    x_field = random_vector_field(SPEC, 28, amplitude=0.002)
    g = pullback(flow_exp(x_field, 1.0), ebin_exp(GAMMA, h0, 1.0).endpoint)
    dec = slice_decompose(GAMMA, g, tol=1e-6)
    assert _divergence_defect(GAMMA, dec.h) <= 1e-8


@pytest.mark.parametrize(
    "n, seed, tols",
    [
        pytest.param(32, 2, (1e-6, 1e-8), id="2"),
        pytest.param(32, 4, (1e-6, 1e-8), id="4"),
        pytest.param(32, 6, (1e-6, 1e-8), id="6"),
        pytest.param(64, 2, (1e-6, 1e-8, 1e-10), id="n64-2"),
    ],
)
def test_decompose_curved_base_recovery_tracks_tol(n, seed, tols):
    # every step splits by PCG at the curved base; measured worst h error
    # 0.91 tol |base| and phi error 0.51 tol over the n=32 seeds, and
    # 0.18, 0.45 and 0.17 tol |base| (phi at most 0.09 tol) at n=64
    base = generic_metric(n, 1)
    norm_base = ebin_norm(base, base.g)
    split = berger_ebin_project(base, random_sym_tensor(base.spec, seed, amplitude=0.05), tol=1e-4)
    h0 = split.h * (0.03 * norm_base / ebin_norm(base, split.h))
    phi0 = flow_exp(random_vector_field(base.spec, seed + 1, amplitude=0.002), 1.0)
    g = pullback(phi0, ebin_exp(base, h0, 1.0).endpoint)
    for tol in tols:
        dec = slice_decompose(base, g, tol=tol)
        assert dec.residual <= tol
        assert ebin_norm(base, dec.h - h0) <= 2.0 * tol * norm_base
        assert np.max(np.abs(dec.phi.u.as_stack() - phi0.u.as_stack())) <= tol


def test_decompose_flat_base_converges_at_fourth_order_to_the_continuum():
    # h0 = (psi_yy, -psi_xy, psi_xx) of psi = sin 2 pi x cos 4 pi y, from the
    # analytic derivatives, is divergence-free in the continuum but not for the
    # stencil, so |h - h0| measures the chart against its continuum limit
    resolutions = (16, 32, 64)
    errors = []
    for n in resolutions:
        spec = GridSpec(n)
        x, y = spec.cell_centers()
        sx, cx = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
        sy, cy = np.sin(4 * np.pi * y), np.cos(4 * np.pi * y)
        # scaled so that the continuum max|h0|, that of psi_yy, is 0.09
        h0 = 0.09 * np.stack([-sx * cy, 0.5 * cx * sy, -0.25 * sx * cy])
        gamma = identity_metric(spec)
        dec = slice_decompose(gamma, _exp_endpoint(gamma, h0), tol=1e-10)
        errors.append(ebin_norm(gamma, dec.h - SymTensorField(spec, h0)) / ebin_norm(gamma, gamma.g))
    assert measured_order(errors, resolutions) >= 3.5


def test_decompose_curved_base_is_a_fourth_order_cauchy_sequence():
    # no continuum chart is known on a curved base, so the h of successive
    # resolutions, splined to the n=16 cell centres, must close at 4th order
    # (measured differences 3.56e-5 and 2.21e-6, order 4.01; 9 iterations each)
    resolutions = (16, 32, 64)
    centres = GridSpec(16).cell_centers()
    hs = []
    for n in resolutions:
        spec = GridSpec(n)
        x, y = 2 * np.pi * np.array(spec.cell_centers())
        base = MetricField(SymTensorField.from_arrays(
            spec, 1 + 0.1 * np.sin(x) * np.cos(y), 0.05 * np.sin(x + y), 1 + 0.1 * np.cos(x)))
        s = SymTensorField.from_arrays(
            spec, 0.02 * np.cos(x), 0.01 * np.sin(y) * np.cos(x), -0.015 * np.sin(x + 2 * y))
        h0 = berger_ebin_project(base, s, tol=1e-8).h
        gauge = VectorField(spec, 0.002 * np.stack([np.sin(y), np.cos(x - y)]))
        target = pullback(flow_exp(gauge, 1.0), ebin_exp(base, h0, 1.0).endpoint)
        hs.append(interpolate(slice_decompose(base, target, tol=1e-11).h, *centres))
    gaps = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(hs, hs[1:])]
    assert measured_order(gaps, resolutions) >= 3.5


def test_decompose_around_a_moved_flat_base_keeps_its_error_contract():
    # a flat metric moved by a small gauge: the split's generator is large
    # there, and the full trial step flows beyond the 0.25 displacement bound
    # (StepFailure); such a trial is halved like a weak one, so the chart
    # either converges or raises NoConvergence
    base = pullback(flow_exp(random_vector_field(SPEC, 5, amplitude=0.003, max_mode=2), 1.0), GAMMA)
    split = slicing._split(base, random_sym_tensor(SPEC, 11, amplitude=0.05).values)[0]
    h = split.h * (0.03 * ebin_norm(base, base.g) / ebin_norm(base, split.h))
    target = pullback(flow_exp(random_vector_field(SPEC, 7, amplitude=0.002), 1.0), ebin_exp(base, h, 1.0).endpoint)
    try:
        dec = slice_decompose(base, target, tol=1e-6)
    except NoConvergence:
        return
    assert dec.residual <= 1e-6


def test_decompose_stalled_after_one_iteration_reports_one(monkeypatch):
    # the first miss is within tol but the pending gauge (1.6087e-2) is not;
    # with every trial flow failing, all 8 damped steps are refused and the
    # loop breaks in its first iteration, after which the miss still passes
    spec = GridSpec(16)
    base = MetricField(identity_metric(spec).g + random_sym_tensor(spec, 9, amplitude=0.05))
    target = pullback(flow_exp(random_vector_field(spec, 1, amplitude=0.002, max_mode=2), 1.0), base)
    tol = ebin_norm(base, target.g - base.g) / ebin_norm(base, target.g)
    trials = []

    def failing_flow(x, t):
        trials.append(t)
        raise StepFailure("trial flow refused")

    monkeypatch.setattr(slicing, "flow_exp", failing_flow)
    dec = slice_decompose(base, target, tol=tol)
    assert len(trials) == 8
    assert dec.residual == tol
    assert dec.iterations == 1


# ---------------------------------------------------------------------------
# horizontal lift


def test_lift_conformal_path_is_already_horizontal():
    times = tuple(k / 4 for k in range(5))
    points = tuple(constant_metric(SPEC, (1.0 + 0.1 * t) * np.eye(2)) for t in times)
    path = MetricPath(times, points)
    lifted, gauges = horizontal_lift(path, tol=1e-8)
    for k in range(5):
        assert np.max(np.abs(gauges[k].u.as_stack())) <= 1e-10
        gap = ebin_norm(points[k], lifted.points[k].g - points[k].g)
        assert gap <= 1e-7 * ebin_norm(points[k], points[k].g)


def test_lift_pure_gauge_path_stays_at_base():
    x_field = random_vector_field(SPEC, 31, amplitude=0.002, max_mode=2)
    times = tuple(k / 4 for k in range(5))
    points = tuple(pullback(flow_exp(x_field, t), GAMMA) for t in times)
    lifted, gauges = horizontal_lift(MetricPath(times, points), tol=1e-7)
    for k in range(5):
        assert ebin_norm(GAMMA, lifted.points[k].g - GAMMA.g) <= 1e-6 * NORM_GAMMA
        gap = ebin_norm(GAMMA, pullback(gauges[k], lifted.points[k]).g - points[k].g)
        assert gap <= 1e-5 * NORM_GAMMA  # floor: interpolation through the gauges


def test_lift_mixed_path_matches_exp_factor():
    h0 = divergence_free_tensor(SPEC, 32, amplitude=1.0, max_mode=2)
    h0 = h0 * (0.02 * NORM_GAMMA / ebin_norm(GAMMA, h0))
    x_field = random_vector_field(SPEC, 33, amplitude=0.002, max_mode=2)
    times = tuple(k / 4 for k in range(5))
    exp_factor = [ebin_exp(GAMMA, t * h0, 1.0, tol=1e-10).endpoint for t in times]
    points = tuple(pullback(flow_exp(x_field, t), exp_factor[k]) for k, t in enumerate(times))
    lifted, gauges = horizontal_lift(MetricPath(times, points), tol=1e-7)
    for k in range(5):
        gap = ebin_norm(GAMMA, lifted.points[k].g - exp_factor[k].g) / NORM_GAMMA
        assert gap <= 1e-5
        track = ebin_norm(GAMMA, pullback(gauges[k], lifted.points[k]).g - points[k].g) / NORM_GAMMA
        assert track <= 1e-5


def test_lift_mixed_path_around_curved_base():
    base = generic_metric(32, 1)
    norm_base = ebin_norm(base, base.g)
    split = berger_ebin_project(base, random_sym_tensor(base.spec, 32, amplitude=0.05, max_mode=2), tol=1e-4)
    h0 = split.h * (0.02 * norm_base / ebin_norm(base, split.h))
    x_field = random_vector_field(base.spec, 33, amplitude=0.002, max_mode=2)
    times = tuple(k / 4 for k in range(5))
    exp_factor = [ebin_exp(base, t * h0, 1.0).endpoint for t in times]
    points = tuple(pullback(flow_exp(x_field, t), exp_factor[k]) for k, t in enumerate(times))
    lifted, gauges = horizontal_lift(MetricPath(times, points), tol=1e-7)
    # the returned points keep no solver, whose operator table holds 36 n^2 doubles
    assert not any(point in slicing._SOLVERS for point in lifted.points)
    # measured: gap 7.0e-7, track 1.4e-6, velocity divergence 5.2e-6 (7.8 on the input path)
    for k in range(5):
        assert ebin_norm(base, lifted.points[k].g - exp_factor[k].g) / norm_base <= 1e-5
        track = ebin_norm(base, pullback(gauges[k], lifted.points[k]).g - points[k].g) / norm_base
        assert track <= 1e-5
    for k in range(1, 5):
        velocity = ebin_log(lifted.points[k - 1], lifted.points[k])
        assert _divergence_defect(lifted.points[k - 1], velocity) <= 5e-5


def test_lift_names_the_step_that_failed():
    gamma = identity_metric(GridSpec(16))
    path = MetricPath((0.0, 1.0), (gamma, MetricField(gamma.g * 1.5)))
    with pytest.raises(NoConvergence, match="lift failed at step 1"):
        horizontal_lift(path)


@pytest.mark.parametrize("times, points", [((0.0, 1.0), (GAMMA,)), ((0.0,), (GAMMA,))], ids=["mismatched", "one-sample"])
def test_metric_path_rejects_bad_samples(times, points):
    with pytest.raises(ValueError, match="at least two samples"):
        MetricPath(times, points)


# ---------------------------------------------------------------------------
# lattice candidates


def test_lattice_transport_of_divergence_free_tensor_stays_divergence_free():
    h = divergence_free_tensor(GridSpec(16), 41, amplitude=0.5)
    gamma16 = identity_metric(GridSpec(16))
    base_defect = np.max(np.abs(divergence(gamma16, h).as_stack()))
    for iso in (
        LatticeIsometry("id", (3, 7)),
        LatticeIsometry("fx", (5, 2)),
        LatticeIsometry("fy", (0, 9)),
        LatticeIsometry("swap", (4, 4)),
    ):
        moved = lattice_transport(iso, h)
        defect = np.max(np.abs(divergence(gamma16, moved).as_stack()))
        assert defect <= max(1e-13, 4.0 * base_defect)


def _source_indices(n, iso):
    # reference: the index form lattice_transport was first written in
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    b1, b2 = iso.shift
    if iso.flip == "id":
        return (i - b1) % n + 0 * j, (j - b2) % n + 0 * i
    if iso.flip == "fx":
        return (b1 - i - 1) % n + 0 * j, (j - b2) % n + 0 * i
    if iso.flip == "fy":
        return (i - b1) % n + 0 * j, (b2 - j - 1) % n + 0 * i
    # swap: source row from y, source column from x
    return (j - b2) % n + 0 * i, (i - b1) % n + 0 * j


def test_lattice_transport_matches_index_form_bitwise():
    rng = np.random.default_rng(8)
    for n in (4, 5, 16):
        spec = GridSpec(n)
        f = ScalarField(spec, rng.standard_normal((n, n)))
        s = SymTensorField(spec, rng.standard_normal((3, n, n)))
        for iso in candidate_family(n):
            si, sj = _source_indices(n, iso)
            assert np.array_equal(lattice_transport(iso, f).values, f.values[si, sj])
            a11, a12, a22 = (c[si, sj] for c in s.values)
            if iso.flip in ("fx", "fy"):
                a12 = -a12
            elif iso.flip == "swap":
                a11, a22 = a22, a11
            assert np.array_equal(lattice_transport(iso, s).values, np.stack([a11, a12, a22]))


def test_lattice_transport_matches_diffeo_pullback_for_translations():
    s = random_sym_tensor(SPEC, 42, amplitude=0.4)
    iso = LatticeIsometry("id", (6, 13))
    via_diffeo = pullback(translation(SPEC, (6 * SPEC.h, 13 * SPEC.h)), s)
    assert np.array_equal(lattice_transport(iso, s).as_stack(), via_diffeo.as_stack())


def test_lattice_candidates_reject_what_they_cannot_move():
    with pytest.raises(ValueError, match="unknown flip"):
        LatticeIsometry("rot", (0, 0))
    # a flip maps a vector's components by a rule the sample permutation does not apply
    with pytest.raises(ValueError, match="flips move only scalar and symmetric-tensor samples"):
        lattice_transport(LatticeIsometry("fx", (0, 0)), random_vector_field(SPEC, 1, amplitude=0.1))


def test_isometry_candidates_flat_metric():
    n = 16
    found = isometry_candidates(identity_metric(GridSpec(n)), tol=1e-8)
    assert len(found) == 4 * n * n  # every candidate preserves the flat metric


def test_isometry_candidates_generic_perturbation_only_identity():
    spec = GridSpec(16)
    pert = random_sym_tensor(spec, 43, amplitude=0.05)
    g = MetricField(constant_field(spec, np.eye(2)) + pert)
    found = isometry_candidates(g, tol=1e-8)
    assert len(found) == 1
    assert found[0] == LatticeIsometry("id", (0, 0))


def test_isometry_candidates_sin_metric_family():
    # gamma_11 = 1 + 0.1 sin(2 pi x): y-translations, the y-flip family, and,
    # because sin is symmetric about x = 1/4, the x-glide family x -> 1/2 - x
    n = 16
    found = isometry_candidates(sin_metric(n), tol=1e-8)
    expected = set()
    for j in range(n):
        expected.add(("id", (0, j)))
        expected.add(("fy", (0, j)))
        expected.add(("fx", (n // 2, j)))
    assert {(iso.flip, iso.shift) for iso in found} == expected
    assert len(found) == 3 * n


def _reference_candidates(g, tols):
    """The per-candidate scan at each tol: the exact test on every candidate, in candidate_family order."""
    gs = g.as_stack()
    norm_g = ebin_norm(g, g.g)
    found = {tol: [] for tol in tols}
    for flip in ("id", "fx", "fy", "swap"):
        flipped = _flipped(gs, flip)
        for shift in np.ndindex(g.spec.n, g.spec.n):
            defect = _sym_norm(g, np.roll(flipped, shift, axis=(-2, -1)) - gs)
            for tol in tols:
                if defect <= tol * norm_g:
                    found[tol].append(LatticeIsometry(flip, shift))
    return found


def _scan_metrics(n):
    """Metrics whose symmetry sets exercise each stage of the isometry scan.

    Every structured metric is built from integer cell indices, so its
    symmetries hold bitwise.
    """
    spec = GridSpec(n)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rng = np.random.default_rng(400 + n)

    def near_identity(p):
        return MetricField(SymTensorField(spec, np.stack([1.0 + p[0], p[1], 1.0 + p[2]])))

    metrics = {
        "flat": identity_metric(spec),
        "generic": MetricField(constant_field(spec, np.eye(2)) + random_sym_tensor(spec, 43, amplitude=0.05)),
        "sin": sin_metric(n),
        # period group {(k, -k)}, which is not a product of axis groups
        "x+y": near_identity(rng.uniform(-0.2, 0.2, (3, n))[:, (i + j) % n]),
    }
    if n % 2 == 0:
        m = n // 2
        metrics["tiled"] = near_identity(rng.uniform(-0.2, 0.2, (3, m, m))[:, i % m, j % m])
    p = rng.uniform(-0.2, 0.2, (3, n, n))
    p[:, 0] = 0.0
    metrics["constant reject row"] = near_identity(p)
    # x-only with x-period m, mirror-symmetric about x = 0: the x-flip coset
    # (1 + P) lies off the period group P; rows 0 and 1 agree, so the x-flip
    # shifts in P, which follow its first element, pass the row bound and
    # fail the exact test
    m = n // 2 if n % 2 == 0 else n
    u = rng.uniform(-0.2, 0.2, (3, m))
    u[1] = 0.0
    u[:, [1, m - 1]] = u[:, [0]]
    u = u + u[:, -np.arange(m) % m]
    metrics["x mirror"] = near_identity(u[:, i % m])
    p = np.zeros((3, n, n))
    p[:, 0] = rng.uniform(-0.2, 0.2, (3, n))
    # defects of the shifts along the row lie on it alone, so the row bound
    # is tight; the scale puts their norms above 1
    metrics["reject row only"] = MetricField(1e3 * near_identity(p).g)
    a = rng.uniform(-0.2, 0.2, (n, n))
    c = rng.uniform(-0.1, 0.1, (n, n))
    metrics["swap only"] = near_identity(np.stack([a, c + c.T, a.T]))
    return metrics


@pytest.mark.parametrize("n", [5, 12, 16])
def test_isometry_candidates_match_the_per_candidate_scan(n):
    for name, g in _scan_metrics(n).items():
        for tol, expected in _reference_candidates(g, (1e-8, 3e-2, -1.0)).items():
            assert isometry_candidates(g, tol) == expected, (name, tol)


def test_period_subgroup_closure():
    n = 12
    rng = np.random.default_rng(7)
    for _ in range(20):
        steps = [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(rng.integers(1, 4))]
        period = np.zeros((n, n), dtype=bool)
        period[0, 0] = True
        for step in steps:
            period = _subgroup(period, step)
        # brute force: all integer combinations of the steps
        expected = np.zeros((n, n), dtype=bool)
        for ks in np.ndindex(*(n,) * len(steps)):
            expected[sum(k * a for k, (a, _) in zip(ks, steps)) % n, sum(k * b for k, (_, b) in zip(ks, steps)) % n] = True
        assert np.array_equal(period, expected), steps


def test_isometry_row_bound_never_drops_a_passing_candidate():
    # at each shift's own exact-test boundary, bound = its defect norm, the
    # row bound must keep it; a fortiori it keeps every shift that passes at
    # any smaller defect
    n = 16
    for name, g in _scan_metrics(n).items():
        gs = g.as_stack()
        bound = 1e-8 * ebin_norm(g, g.g)
        for flip in ("id", "fx", "fy", "swap"):
            flipped = _flipped(gs, flip)
            defects = np.array(
                [_sym_norm(g, np.roll(flipped, b, axis=(-2, -1)) - gs) for b in np.ndindex(n, n)]
            ).reshape(n, n)
            kept = _row_survivors(g, flipped, defects)
            assert kept.all(), (name, flip, np.argwhere(~kept)[:4])
            dropped = ~_row_survivors(g, flipped, bound)
            assert not np.any(dropped & (defects <= bound)), (name, flip)


def test_slice_property_ii_surrogate_subsample():
    # non-isometry candidates carry slice points off the slice; isometries keep them on
    n = 16
    g = sin_metric(n)
    spec = g.spec
    s = random_sym_tensor(spec, 44, amplitude=0.05)
    split = berger_ebin_project(g, s, tol=1e-4)
    h1 = split.h * (0.02 * ebin_norm(g, g.g) / ebin_norm(g, split.h))
    point = ebin_exp(g, h1, 1.0).endpoint
    iso_set = {(i.flip, i.shift) for i in isometry_candidates(g, tol=1e-8)}
    sampled = [c for k, c in enumerate(candidate_family(n)) if k % 41 == 0]
    for cand in sampled:
        moved = lattice_transport(cand, point)
        member = slice_membership(g, moved, tol=1e-6).member
        assert member == ((cand.flip, cand.shift) in iso_set)


# ---------------------------------------------------------------------------
# conjugation of isometries


def test_conjugate_isometries_at_base_point():
    n = 16
    gamma = identity_metric(GridSpec(n))
    f, report = conjugate_isometries(gamma, gamma)
    assert np.max(np.abs(f.u.as_stack())) <= 1e-10
    assert report.inclusion_holds
    assert len(report.entries) == 4 * n * n
    for entry in report.entries:
        assert entry.matched is not None
        assert (entry.matched.flip, entry.matched.shift) == (entry.candidate.flip, entry.candidate.shift)


def test_conjugate_isometries_gauge_moved_flat(monkeypatch):
    # the conjugated maps are compared through interpolated displacements, so
    # the flow content must be well resolved: torus mode 2 at n = 32
    n = 32
    spec = GridSpec(n)
    gamma = identity_metric(spec)
    # flow field tiled with period n/2, so half-torus translations survive in g
    x_field = random_vector_field(spec, 45, amplitude=0.004, max_mode=1, period_cells=n // 2)
    phi0 = flow_exp(x_field, 1.0)
    g = pullback(phi0, gamma)
    gap = slicing._torus_gap
    calls = []
    monkeypatch.setattr(slicing, "_torus_gap", lambda a, b: calls.append(1) or gap(a, b))
    f, report = conjugate_isometries(gamma, g)
    found = {(e.candidate.flip, e.candidate.shift) for e in report.entries}
    assert ("id", (n // 2, 0)) in found
    assert ("id", (0, n // 2)) in found
    assert report.inclusion_holds
    assert report.max_deviation <= 1e-6
    assert all(e.matched == e.candidate for e in report.entries)
    # each half-torus shift is guessed, not split into +-1/2: every entry
    # scores its guess alone, two gaps, not the whole base family
    assert len(calls) == 2 * len(report.entries)


def test_conjugate_isometries_generic_slice_point_vacuous():
    n = 16
    spec = GridSpec(n)
    gamma = identity_metric(spec)
    h0 = divergence_free_tensor(spec, 46, amplitude=1.0)
    h0 = h0 * (0.04 * ebin_norm(gamma, gamma.g) / ebin_norm(gamma, h0))
    g = ebin_exp(gamma, h0, 1.0).endpoint
    f, report = conjugate_isometries(gamma, g)
    cands = [e.candidate for e in report.entries]
    assert len(cands) == 1 and cands[0] == LatticeIsometry("id", (0, 0))
    assert report.inclusion_holds


def test_conjugate_isometries_reports_the_flat_isometries_a_curved_base_lacks():
    # g = I sits 0.010 from the base 1 + 0.02 sin 2 pi x (relative distance),
    # inside the radius where slice_decompose converges, but outside Ebin's
    # slice neighbourhood: inclusion fails.  Each of the 976 isometries of I
    # that the base lacks conjugates to a map 3.1e-3 from an x-shifted lattice
    # map that is no base isometry, and no other base candidate is near it.
    base = sin_metric(16, 0.02)
    f, report = conjugate_isometries(base, identity_metric(base.spec))
    matched = [e for e in report.entries if e.matched is not None]
    unmatched = [e for e in report.entries if e.matched is None]
    assert not report.inclusion_holds
    assert len(matched) == 48 and len(unmatched) == 976
    assert all(e.deviation <= 1e-6 and e.matched == e.candidate for e in matched)
    assert all(1e-6 < e.deviation <= 1e-2 for e in unmatched)
