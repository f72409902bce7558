"""Acceptance gate: every criterion at its stated tolerance, one line per run.

Each test prints `ACCEPTANCE <k> [<name>]: PASS/FAIL (<detail>) [<time>]` and
enforces its runtime budget.  Criterion 1 measures the duality defect on a
manufactured curved metric; the discrete divergence is the exact adjoint of
the discrete Lie derivative, so the defect is roundoff at every resolution and
has no decay order.
"""

import time

import numpy as np

from riemgrid.calculus import divergence, lie_derivative_metric
from riemgrid.convergence import (
    adjointness_defect,
    equivariance_defect,
    measured_order,
)
from riemgrid.diffeos import flow_exp, pullback, translation
from riemgrid.geodesics import ebin_exp, ebin_inner, ebin_log, ebin_norm
from riemgrid.grid import (
    GridSpec,
    MetricField,
    SymTensorField,
    constant_field,
    constant_metric,
    identity_metric,
)
from riemgrid.sampling import divergence_free_tensor, random_sym_tensor, random_vector_field
from riemgrid.slicing import (
    LatticeIsometry,
    berger_ebin_project,
    candidate_family,
    conjugate_isometries,
    horizontal_lift,
    isometry_candidates,
    lattice_transport,
    slice_decompose,
    slice_membership,
    MetricPath,
)
from test_geodesics import _bvp_minimizer


class Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.details = []

    def note(self, text):
        self.details.append(text)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        detail = "; ".join(self.details)
        print(f"\nACCEPTANCE {self.number} [{self.name}]: {status} ({detail}) [{elapsed:.1f}s < {self.budget}s]")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_1_adjointness_orthogonality():
    with Criterion(1, "orbit/divergence duality is exact on a curved metric", 10) as c:
        worst = max(adjointness_defect(n) for n in (16, 32, 64))
        c.note(f"curved defect {worst:.1e} (exact by construction of div)")
        assert worst <= 1e-13


def test_criterion_2_splitting():
    with Criterion(2, "orthogonal splitting on 20 seeded inputs at n=32", 30) as c:
        spec = GridSpec(32)
        gamma = identity_metric(spec)
        probes = [random_vector_field(spec, 9000 + k, amplitude=1.0) for k in range(10)]
        probe_lies = [lie_derivative_metric(gamma, x) for x in probes]
        worst_div, worst_recon, worst_orth = 0.0, 0.0, 0.0
        for k in range(20):
            s = random_sym_tensor(spec, 500 + k, amplitude=0.3)
            split = berger_ebin_project(gamma, s, tol=1e-10)
            div_h = np.max(np.abs(divergence(gamma, split.h).as_stack()))
            div_s = np.max(np.abs(divergence(gamma, s).as_stack()))
            worst_div = max(worst_div, div_h / div_s)
            recon = lie_derivative_metric(gamma, split.x) + split.h - s
            worst_recon = max(worst_recon, ebin_norm(gamma, recon) / ebin_norm(gamma, s))
            for lie in probe_lies:
                worst_orth = max(worst_orth, abs(ebin_inner(gamma, lie, split.h)))
        c.note(f"div {worst_div:.1e}, recon {worst_recon:.1e}, orth {worst_orth:.1e}")
        assert worst_div <= 1e-8
        assert worst_recon <= 1e-8
        assert worst_orth <= 1e-7


def test_criterion_3_geodesics():
    with Criterion(3, "geodesics: speed, energy oracle, log/exp roundtrip", 60) as c:
        spec = GridSpec(32)
        gamma = identity_metric(spec)
        norm_gamma = ebin_norm(gamma, gamma.g)

        worst_drift = 0.0
        for k in range(5):
            s = random_sym_tensor(spec, 600 + k, amplitude=0.06)
            worst_drift = max(worst_drift, ebin_exp(gamma, s, 1.0, tol=1e-8).speed_drift)
        c.note(f"speed drift {worst_drift:.1e}")
        assert worst_drift <= 1e-6

        # constant-field endpoints against the energy-minimization oracle
        g0 = np.array([1.0, 0.0, 1.0])
        s0 = np.array([0.12, -0.08, 0.05])
        vel = constant_field(spec, [[s0[0], s0[1]], [s0[1], s0[2]]])
        end = ebin_exp(gamma, vel, 1.0, tol=1e-10).endpoint.as_stack()
        g1 = np.array([end[0, 0, 0], end[1, 0, 0], end[2, 0, 0]])
        v0, energy = _bvp_minimizer(g0, g1, 16)
        oracle_gap = float(np.max(np.abs(v0 - s0)))
        c.note(f"energy-oracle gap {oracle_gap:.1e}")
        assert oracle_gap <= 1e-4
        assert abs(energy - ebin_inner(gamma, vel, vel)) <= 1e-4

        worst_round = 0.0
        for k in range(3):
            s = random_sym_tensor(spec, 700 + k, amplitude=1.0)
            s = s * (0.1 * norm_gamma / ebin_norm(gamma, s))
            endp = ebin_exp(gamma, s, 1.0, tol=1e-10).endpoint
            rec = ebin_log(gamma, endp, tol=1e-8)
            worst_round = max(worst_round, ebin_norm(gamma, rec - s) / ebin_norm(gamma, s))
        c.note(f"roundtrip {worst_round:.1e}")
        assert worst_round <= 1e-6


def test_criterion_4_equivariance():
    with Criterion(4, "geodesic equivariance under the action", 120) as c:
        spec = GridSpec(32)
        g = MetricField(
            constant_field(spec, np.eye(2)) + random_sym_tensor(spec, 800, amplitude=0.1)
        )
        s = random_sym_tensor(spec, 801, amplitude=0.05)
        tau = translation(spec, (7 * spec.h, 3 * spec.h))
        a = pullback(tau, ebin_exp(g, s, 1.0, tol=1e-10).endpoint)
        b = ebin_exp(pullback(tau, g), pullback(tau, s), 1.0, tol=1e-10).endpoint
        lattice_gap = float(np.max(np.abs(a.as_stack() - b.as_stack())))
        c.note(f"lattice commutator {lattice_gap:.1e}")
        assert lattice_gap <= 1e-12

        defects = [equivariance_defect(n) for n in (16, 32, 64)]
        order = measured_order(defects)
        c.note(f"smooth-flow order {order:.2f}")
        assert order >= 1.9


def test_criterion_5_slice_decomposition():
    with Criterion(5, "slice decomposition recovers (phi, h) on 10 seeded inputs", 300) as c:
        spec = GridSpec(32)
        gamma = identity_metric(spec)
        norm_gamma = ebin_norm(gamma, gamma.g)
        worst_res, worst_h = 0.0, 0.0
        for k in range(10):
            h0 = divergence_free_tensor(spec, 900 + k, amplitude=1.0)
            h0 = h0 * (0.05 * norm_gamma / ebin_norm(gamma, h0))
            x0 = random_vector_field(spec, 950 + k, amplitude=0.003, max_mode=2)
            g = pullback(flow_exp(x0, 1.0), ebin_exp(gamma, h0, 1.0, tol=1e-10).endpoint)
            dec = slice_decompose(gamma, g, tol=1e-6)
            worst_res = max(worst_res, dec.residual)
            worst_h = max(worst_h, ebin_norm(gamma, dec.h - h0) / norm_gamma)
        c.note(f"residual {worst_res:.1e}, h-recovery {worst_h:.1e}")
        assert worst_res <= 1e-6
        assert worst_h <= 1e-5


def test_criterion_6_slice_properties():
    with Criterion(6, "slice properties over the exhaustive candidate family at n=16", 120) as c:
        n = 16
        spec = GridSpec(n)
        flat = identity_metric(spec)

        # (i) on the flat metric every candidate is an isometry and its exact
        # permutation action preserves divergence-freeness
        h = divergence_free_tensor(spec, 1000, amplitude=0.5)
        base_div = np.max(np.abs(divergence(flat, h).as_stack()))
        worst_transport = 0.0
        for cand in candidate_family(n):
            moved = lattice_transport(cand, h)
            worst_transport = max(worst_transport, np.max(np.abs(divergence(flat, moved).as_stack())))
        c.note(f"transported div {worst_transport:.1e} (input {base_div:.1e})")
        assert worst_transport <= 1e-13

        # (ii) on a structured curved metric, membership survives exactly the
        # candidate isometries
        x, _ = spec.cell_centers()
        g = MetricField(
            SymTensorField.from_arrays(
                spec, 1.0 + 0.1 * np.sin(2 * np.pi * x), np.zeros((n, n)), np.ones((n, n))
            )
        )
        iso_set = {(i.flip, i.shift) for i in isometry_candidates(g, tol=1e-8)}
        assert len(iso_set) == 3 * n
        s = random_sym_tensor(spec, 1001, amplitude=0.05)
        split = berger_ebin_project(g, s, tol=1e-4)
        h1 = split.h * (0.02 * ebin_norm(g, g.g) / ebin_norm(g, split.h))
        point = ebin_exp(g, h1, 1.0, tol=1e-10).endpoint
        mismatches = 0
        for cand in candidate_family(n):
            member = slice_membership(g, lattice_transport(cand, point), tol=1e-6).member
            if member != ((cand.flip, cand.shift) in iso_set):
                mismatches += 1
        c.note(f"membership mismatches {mismatches}/1024")
        assert mismatches == 0


def test_criterion_7_finite_dimensional_oracle():
    with Criterion(7, "finite-dimensional chart and tube at 1e-12", 5) as c:
        import math

        from riemgrid.sampling import DrawStream
        from riemgrid.spd_action import Rot, SpdPoint, act, chart_F, chart_F_inverse, slice_at, tube_quotient

        base = SpdPoint(2.0, 0.0, 1.0)
        sl = slice_at(base, 0.1)
        stream = DrawStream(4321)
        worst = 0.0
        for _ in range(1000):
            theta = stream.next_unit() * math.pi
            ang = stream.next_unit() * 2.0 * math.pi
            rad = 0.095 * math.sqrt(stream.next_unit())
            s = sl.point(rad * math.cos(ang), rad * math.sin(ang))
            q = chart_F(theta, s)
            theta_rec, s_rec = chart_F_inverse(q, sl)
            worst = max(worst, abs(theta_rec - theta), s_rec.frobenius_distance(s))
            fixed = act(Rot(math.pi), s)
            worst = max(worst, fixed.frobenius_distance(s))
        tube = tube_quotient(sl, seed=99)
        c.note(f"worst roundtrip {worst:.1e}; tube violations {len(tube.violations)}")
        assert worst <= 1e-12
        assert tube.passed
        assert tube.max_welldef_error <= 1e-12
        assert tube.max_roundtrip_error <= 1e-12


def test_criterion_8_consequences():
    with Criterion(8, "isometry conjugation, openness probe, path lifting", 180) as c:
        spec = GridSpec(32)
        gamma = identity_metric(spec)
        norm_gamma = ebin_norm(gamma, gamma.g)

        # conjugation inclusion for 5 seeded near-flat metrics: four generic
        # slice perturbations and one gauge-moved metric with surviving
        # half-torus translations
        holds = []
        for k in range(4):
            h0 = divergence_free_tensor(spec, 1100 + k, amplitude=1.0)
            h0 = h0 * (0.04 * norm_gamma / ebin_norm(gamma, h0))
            g = ebin_exp(gamma, h0, 1.0, tol=1e-10).endpoint
            _, report = conjugate_isometries(gamma, g)
            holds.append(report.inclusion_holds)
        x_tiled = random_vector_field(spec, 1200, amplitude=0.004, max_mode=1, period_cells=16)
        g = pullback(flow_exp(x_tiled, 1.0), gamma)
        _, report = conjugate_isometries(gamma, g)
        holds.append(report.inclusion_holds)
        nontrivial = len(report.entries)
        c.note(f"inclusion holds {sum(holds)}/5 (last family size {nontrivial})")
        assert all(holds)
        assert nontrivial >= 4

        # openness probe: perturbed flat metrics keep only the identity candidate
        only_identity = True
        for k in range(3):
            spec16 = GridSpec(16)
            pert = random_sym_tensor(spec16, 1300 + k, amplitude=0.05)
            g16 = MetricField(constant_field(spec16, np.eye(2)) + pert)
            found = isometry_candidates(g16, tol=1e-8)
            only_identity = only_identity and len(found) == 1 and found[0] == LatticeIsometry("id", (0, 0))
        c.note(f"trivial symmetry set {only_identity}")
        assert only_identity

        # the three lifting cases at 1e-5
        times = tuple(k / 4 for k in range(5))
        conf = MetricPath(times, tuple(constant_metric(spec, (1.0 + 0.1 * t) * np.eye(2)) for t in times))
        lifted, gauges = horizontal_lift(conf, tol=1e-8)
        conf_gap = max(
            ebin_norm(p, lifted.points[k].g - p.g) / ebin_norm(p, p.g)
            for k, p in enumerate(conf.points)
        )
        assert conf_gap <= 1e-5
        assert max(np.max(np.abs(g.u.as_stack())) for g in gauges) <= 1e-5

        x_g = random_vector_field(spec, 1400, amplitude=0.002, max_mode=2)
        gauge_path = MetricPath(times, tuple(pullback(flow_exp(x_g, t), gamma) for t in times))
        lifted, gauges = horizontal_lift(gauge_path, tol=1e-7)
        gauge_gap = max(
            ebin_norm(gamma, p.g - gamma.g) / norm_gamma for p in lifted.points
        )
        assert gauge_gap <= 1e-5

        h0 = divergence_free_tensor(spec, 1500, amplitude=1.0, max_mode=2)
        h0 = h0 * (0.02 * norm_gamma / ebin_norm(gamma, h0))
        factors = [ebin_exp(gamma, t * h0, 1.0, tol=1e-10).endpoint for t in times]
        mixed = MetricPath(
            times,
            tuple(pullback(flow_exp(x_g, t), factors[k]) for k, t in enumerate(times)),
        )
        lifted, gauges = horizontal_lift(mixed, tol=1e-7)
        mixed_gap = max(
            ebin_norm(gamma, lifted.points[k].g - factors[k].g) / norm_gamma
            for k in range(len(times))
        )
        c.note(f"lift gaps conformal {conf_gap:.1e}, gauge {gauge_gap:.1e}, mixed {mixed_gap:.1e}")
        assert mixed_gap <= 1e-5
