"""Orthogonal splitting, slice decomposition, path lifting, isometry probes.

The tangent space at a metric g splits sigma-orthogonally into the orbit
directions {L_X g} of the pullback action and the divergence-free tensors.
berger_ebin_project computes that splitting with matrix-free conjugate
gradients; slice_decompose inverts the local product chart, writing a nearby
metric as pullback(phi, exp_g(h)) with div-free h; horizontal_lift removes the
orbit component of a path's velocity step by step.  Isometry probing is
restricted to an explicit finite candidate family (lattice translations
composed with axis flips and the axis swap) that acts by exact sample
permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import (
    _divergence_stack,
    _inv_stack,
    _lie_stack,
    _vol_values,
)
from .diffeos import DiffeoGrid, compose, flow_exp, identity_diffeo, invert, pullback
from .errors import NoConvergence, SolverStall
from .geodesics import (
    _geodesic,
    _sym_inner,
    ebin_exp,
    ebin_log,
    ebin_norm,
    relative_distance,
)
from .grid import GridSpec, MetricField, ScalarField, SymTensorField, VectorField, interpolate


# ---------------------------------------------------------------------------
# orthogonal splitting


@dataclass(frozen=True)
class SplitResult:
    """S = L_X g + h with h divergence-free; X is the zero-mean gauge generator."""

    x: VectorField
    h: SymTensorField
    orthogonality_defect: float
    iterations: int


def _weighted_vec_inner(g: MetricField, xs: np.ndarray, ys: np.ndarray) -> float:
    gs = g.as_stack()
    dens = gs[0] * xs[0] * ys[0] + gs[1] * (xs[0] * ys[1] + xs[1] * ys[0]) + gs[2] * xs[1] * ys[1]
    return float(g.spec.h ** 2 * np.sum(dens * _vol_values(g)))


def _sharp_stack(g: MetricField, ws: np.ndarray) -> np.ndarray:
    inv = _inv_stack(g)
    return np.stack([inv[0] * ws[0] + inv[1] * ws[1], inv[1] * ws[0] + inv[2] * ws[1]])


# |div s| below this fraction of |s| is stencil roundoff
_DIV_ROUNDOFF = 1e-12


def _is_constant_metric(g: MetricField) -> bool:
    gs = g.as_stack()
    return all(np.ptp(gs[k]) == 0.0 for k in range(3))


def _null_cluster_cut(w: np.ndarray) -> float:
    """Eigenvalue cut separating the near-null artifact cluster from the physics.

    The duality defect detaches a handful of modes (near-Killing constants and
    checkerboard remnants of the central stencils) from the elliptic spectrum
    by several decades; the cut is placed at the widest logarithmic gap in the
    lower quarter of the spectrum, falling back to a fixed relative floor when
    no pronounced gap exists.
    """
    dim = len(w)
    floor = 1e-10 * w[-1]  # eigenvalues of A^T A: relative sv cut 1e-5
    best_ratio, cut = 1e4, floor
    for i in range(max(1, dim // 4)):
        if w[i] <= 0.0:
            continue
        ratio = w[i + 1] / w[i]
        if ratio > best_ratio:
            best_ratio, cut = ratio, math.sqrt(w[i] * w[i + 1])
    return max(cut, 0.0)


@lru_cache(maxsize=4)
def _curved_div_solver(g: MetricField):
    """Truncated least-squares solver for div(L_X g) = b on a non-constant base.

    On curved coefficients the discrete operator is self-adjoint only up to
    the stencil-duality defect, which both stalls conjugate gradients and
    pushes a small cluster of singular values toward zero.  The operator
    matrix is assembled once per base, the normal matrix eigendecomposed, and
    solves apply the pseudo-inverse with the near-null cluster truncated, so
    the returned field is smooth and the divergence residual sits at the
    discretization floor.
    """
    n = g.spec.n
    dim = 2 * n * n
    a_mat = np.empty((dim, dim))
    e = np.zeros((2, n, n))
    col = 0
    for k in range(2):
        for i in range(n):
            for j in range(n):
                e[k, i, j] = 1.0
                a_mat[:, col] = _divergence_stack(g, _lie_stack(g, e)).ravel()
                e[k, i, j] = 0.0
                col += 1
    m = a_mat.T @ a_mat
    w, v = np.linalg.eigh(m)
    keep = w > _null_cluster_cut(w)
    v_keep = np.ascontiguousarray(v[:, keep])
    w_keep = w[keep]

    def solve(b_stack: np.ndarray) -> np.ndarray:
        y = a_mat.T @ b_stack.ravel()
        coef = (v_keep.T @ y) / w_keep
        return (v_keep @ coef).reshape(2, n, n)

    return solve


def _one_form_norm(g: MetricField, ws: np.ndarray) -> float:
    xs = _sharp_stack(g, ws)
    return math.sqrt(max(_weighted_vec_inner(g, xs, xs), 0.0))


def _split_stacks(
    g: MetricField, ss: np.ndarray, tol: float = 1e-10, max_iter: int | None = None
) -> tuple:
    """Solve div(L_X g) = div(s) for the stack of X; returns (xs, iterations)."""
    spec = g.spec
    if max_iter is None:
        max_iter = 10 * spec.n * spec.n

    if not _is_constant_metric(g):
        xs = _curved_div_solver(g)(_divergence_stack(g, ss))
        return xs, 1

    def apply_k(xs: np.ndarray) -> np.ndarray:
        return -_sharp_stack(g, _divergence_stack(g, _lie_stack(g, xs)))

    b = -_sharp_stack(g, _divergence_stack(g, ss))
    xs = np.zeros_like(b)
    r = b.copy()
    rr = _weighted_vec_inner(g, r, r)
    b_norm = math.sqrt(max(rr, 0.0))
    # inputs that are already divergence-free stop on an absolute floor
    s_scale = math.sqrt(max(_sym_inner(g, ss, ss), 0.0))
    stop = tol * max(b_norm, s_scale)
    iterations = 0
    if b_norm > stop:
        p = r.copy()
        for it in range(1, max_iter + 1):
            kp = apply_k(p)
            pkp = _weighted_vec_inner(g, p, kp)
            if pkp <= 0.0:
                break  # numerically in the Killing kernel; current x is the solution
            alpha = rr / pkp
            xs = xs + alpha * p
            r = r - alpha * kp
            rr_new = _weighted_vec_inner(g, r, r)
            iterations = it
            if math.sqrt(max(rr_new, 0.0)) <= stop:
                break
            p = r + (rr_new / rr) * p
            rr = rr_new
        else:
            raise SolverStall(f"conjugate gradients did not reach {tol:.1e} in {max_iter} iterations")

    return xs, iterations


def berger_ebin_project(
    g: MetricField, s: SymTensorField, tol: float = 1e-10, max_iter: int | None = None
) -> SplitResult:
    """Split s into an orbit-tangent part L_X g and a divergence-free part h.

    Solves div(L_X g) = div(s) for X.  On a constant-coefficient base the
    operator X -> -sharp(div(L_X g)) is exactly self-adjoint and positive
    semidefinite in the g-weighted vector inner product (stencil duality), and
    matrix-free conjugate gradients from X = 0 stay orthogonal to the Killing
    kernel, pinning the zero-mean gauge.  On a curved base the equation is
    solved directly with the near-null cluster truncated, and the divergence
    left in h must be at most tol times that of s: curved bases carry an
    O(h^4)-duality floor, so a tol below that floor raises SolverStall (retry
    with higher resolution or a looser tolerance).
    """
    ss = s.as_stack()
    xs, iterations = _split_stacks(g, ss, tol, max_iter)
    if not _is_constant_metric(g):
        div_s_norm = _one_form_norm(g, _divergence_stack(g, ss))
        achieved = _one_form_norm(g, _divergence_stack(g, ss - _lie_stack(g, xs)))
        # relative to div s, unless s is divergence-free to roundoff
        bound = tol * max(div_s_norm, _DIV_ROUNDOFF * ebin_norm(g, s))
        if achieved > bound:
            raise SolverStall(
                f"direct solve left divergence {achieved:.3e} above bound {bound:.3e}"
            )
    return _finish_split(g, ss, xs, iterations)


def _project_unchecked(g: MetricField, ss: np.ndarray) -> SplitResult:
    """Internal splitting without the divergence-bound verification."""
    xs, iterations = _split_stacks(g, ss)
    return _finish_split(g, ss, xs, iterations)


def _finish_split(g: MetricField, ss: np.ndarray, xs: np.ndarray, iterations: int) -> SplitResult:
    # zero-mean gauge, applied only when the constant shift is exactly Killing
    c = np.array([np.mean(xs[0]), np.mean(xs[1])])
    if np.any(c != 0.0):
        shift = np.broadcast_to(c[:, None, None], xs.shape).copy()
        if np.max(np.abs(_lie_stack(g, shift))) <= 1e-13 * max(np.max(np.abs(c)), 1e-300):
            xs = xs - shift

    lie = _lie_stack(g, xs)
    hs = ss - lie
    denom = max(
        math.sqrt(max(_sym_inner(g, lie, lie), 0.0)) * math.sqrt(max(_sym_inner(g, hs, hs), 0.0)),
        1e-300,
    )
    defect = abs(_sym_inner(g, lie, hs)) / denom
    return SplitResult(
        VectorField.from_arrays(g.spec, xs[0], xs[1]),
        SymTensorField.from_stack(g.spec, hs),
        defect,
        iterations,
    )


# ---------------------------------------------------------------------------
# slice membership and the chart inverse


def _divergence_defect(g: MetricField, s: SymTensorField) -> float:
    """|div s| / |s|, both in the g-weighted norms; 0 for s = 0."""
    ws = _divergence_stack(g, s.as_stack())
    div_norm = math.sqrt(max(_weighted_vec_inner(g, _sharp_stack(g, ws), _sharp_stack(g, ws)), 0.0))
    s_norm = ebin_norm(g, s)
    if s_norm <= 1e-14 * ebin_norm(g, g.g):
        return 0.0
    return div_norm / s_norm


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    reason: str
    divergence_defect: float
    log_velocity: SymTensorField | None


def slice_membership(g_base: MetricField, g: MetricField, tol: float = 1e-6) -> MembershipResult:
    """Whether g lies on the slice through g_base: log exists and is div-free."""
    if relative_distance(g_base, g) > 0.5:
        return MembershipResult(False, "outside chart", math.inf, None)
    try:
        s = ebin_log(g_base, g, tol=min(1e-8, tol))
    except NoConvergence:
        return MembershipResult(False, "outside chart", math.inf, None)
    defect = _divergence_defect(g_base, s)
    if defect <= tol:
        return MembershipResult(True, "divergence-free log", defect, s)
    return MembershipResult(False, "log has an orbit component", defect, s)


@dataclass(frozen=True)
class SliceDecomposition:
    """g = pullback(phi, exp_base(h)) with h divergence-free at the base."""

    phi: DiffeoGrid
    h: SymTensorField
    residual: float
    iterations: int


def slice_decompose(
    g_base: MetricField,
    g: MetricField,
    tol: float = 1e-6,
    max_iter: int = 50,
    radius: float = 0.1,
) -> SliceDecomposition:
    """Invert the local product chart around g_base for a nearby metric g.

    Iteration: pull g back to the base gauge, take the geodesic log, split off
    the orbit component to update the gauge map, then drive the reconstruction
    residual pullback(phi, exp(h)) - g to zero by projecting the pulled-back
    residual.  Gauss-Newton steps are damped by 1/2 whenever the residual fails
    to decrease.
    """
    spec = g_base.spec
    if relative_distance(g_base, g) > radius:
        raise NoConvergence(f"target outside the documented working radius {radius}")
    norm_g = max(ebin_norm(g_base, g.g), 1e-300)
    base_stack = g_base.as_stack()

    def sym(stack: np.ndarray) -> SymTensorField:
        return SymTensorField.from_stack(spec, stack)

    def reconstruction(phi: DiffeoGrid, hs: np.ndarray) -> MetricField:
        end = MetricField.from_stack(spec, _geodesic(base_stack, hs, 1.0))
        return pullback(phi, end)

    phi = identity_diffeo(spec)
    hs = np.zeros((3, spec.n, spec.n))
    residual = relative_distance(g_base, g)

    for it in range(1, max_iter + 1):
        if it == 1:
            pulled = pullback(invert(phi), g)
            s_log = ebin_log(g_base, pulled, tol=min(1e-8, tol))
            split = _project_unchecked(g_base, s_log.as_stack())
            new_hs = split.h.as_stack()
        else:
            recon = reconstruction(phi, hs)
            residual = ebin_norm(g_base, g.g - recon.g) / norm_g
            r_pulled = pullback(invert(phi), g.g - recon.g)
            split = _project_unchecked(g_base, r_pulled.as_stack())
            new_hs = hs + split.h.as_stack()

        # the pending correction measures how far the gauge is from converged
        gauge = ebin_norm(g_base, sym(_lie_stack(g_base, split.x.as_stack()))) / norm_g
        if residual <= tol and gauge <= tol:
            return SliceDecomposition(phi, sym(hs), residual, it)

        lam = 1.0
        for _ in range(8):
            trial_hs = hs + lam * (new_hs - hs)
            trial_phi = compose(phi, flow_exp(split.x, -lam))
            trial_res = (
                ebin_norm(g_base, g.g - reconstruction(trial_phi, trial_hs).g) / norm_g
            )
            if trial_res < residual:
                phi, hs, residual = trial_phi, trial_hs, trial_res
                break
            lam *= 0.5
        else:
            break  # no damped step improves: stalled at the attainable floor

    if residual <= tol:
        return SliceDecomposition(phi, sym(hs), residual, max_iter)
    raise NoConvergence(
        f"slice decomposition stalled at residual {residual:.3e} (tol {tol:.1e})"
    )


# ---------------------------------------------------------------------------
# horizontal lifting


@dataclass(frozen=True)
class MetricPath:
    """Uniformly sampled path of metrics on [a, b]."""

    times: tuple
    points: tuple

    def __post_init__(self):
        if len(self.times) != len(self.points) or len(self.times) < 2:
            raise ValueError("path needs matching times and points, at least two samples")


def horizontal_lift(path: MetricPath, tol: float = 1e-6, max_iter: int = 50):
    """Lift a path so every discrete velocity is divergence-free at its point.

    Returns the lifted path (same start point) and the accumulated gauge maps:
    pullback(gauges[k], lifted[k]) reproduces path[k] within the step residual.
    """
    lifted = [path.points[0]]
    gauges = [identity_diffeo(path.points[0].spec)]
    for k in range(len(path.points) - 1):
        base = lifted[k]
        target = pullback(invert(gauges[k]), path.points[k + 1])
        try:
            dec = slice_decompose(base, target, tol=tol, max_iter=max_iter)
        except NoConvergence as e:
            raise NoConvergence(f"lift failed at step {k + 1}: {e}") from e
        lifted.append(ebin_exp(base, dec.h, 1.0, tol=min(1e-8, tol)).endpoint)
        gauges.append(compose(gauges[k], dec.phi))
    return MetricPath(path.times, tuple(lifted)), gauges


# ---------------------------------------------------------------------------
# the exact lattice candidate family


_FLIP_MATRICES = {
    "id": np.array([[1, 0], [0, 1]], dtype=float),
    "fx": np.array([[-1, 0], [0, 1]], dtype=float),
    "fy": np.array([[1, 0], [0, -1]], dtype=float),
    "swap": np.array([[0, 1], [1, 0]], dtype=float),
}


@dataclass(frozen=True)
class LatticeIsometry:
    """Candidate torus isometry x -> A x + b: flip part A, lattice shift b (cells)."""

    flip: str
    shift: tuple

    def __post_init__(self):
        if self.flip not in _FLIP_MATRICES:
            raise ValueError(f"unknown flip {self.flip!r}")

    @property
    def matrix(self) -> np.ndarray:
        return _FLIP_MATRICES[self.flip]

    def is_identity(self) -> bool:
        return self.flip == "id" and self.shift == (0, 0)

    def map_points(self, n: int, px: np.ndarray, py: np.ndarray):
        a = self.matrix
        bx, by = self.shift[0] / n, self.shift[1] / n
        qx = a[0, 0] * px + a[0, 1] * py + bx
        qy = a[1, 0] * px + a[1, 1] * py + by
        return qx % 1.0, qy % 1.0

    def as_diffeo(self, spec: GridSpec) -> DiffeoGrid:
        from .diffeos import translation

        if self.flip != "id":
            raise ValueError("only translation candidates embed as displacement maps")
        return translation(spec, (self.shift[0] / spec.n, self.shift[1] / spec.n))


def _source_indices(n: int, iso: LatticeIsometry):
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


def lattice_transport(iso: LatticeIsometry, field):
    """Left action of a lattice candidate by exact sample permutation."""
    if isinstance(field, MetricField):
        return MetricField(lattice_transport(iso, field.g))
    spec = field.spec
    si, sj = _source_indices(spec.n, iso)
    if isinstance(field, ScalarField):
        return ScalarField(spec, field.values[si, sj])
    a11 = field.s11.values[si, sj]
    a12 = field.s12.values[si, sj]
    a22 = field.s22.values[si, sj]
    if iso.flip in ("fx", "fy"):
        a12 = -a12
    elif iso.flip == "swap":
        a11, a22 = a22, a11
    return SymTensorField.from_arrays(spec, a11, a12, a22)


def candidate_family(n: int):
    """All 4 n^2 candidates: flips/swap composed with every lattice shift."""
    for flip in ("id", "fx", "fy", "swap"):
        for b1 in range(n):
            for b2 in range(n):
                yield LatticeIsometry(flip, (b1, b2))


def isometry_candidates(g: MetricField, tol: float = 1e-8) -> list:
    """Candidates whose exact permutation action reproduces g within tol (sigma-relative)."""
    n = g.spec.n
    norm_g = ebin_norm(g, g.g)
    found = []
    for iso in candidate_family(n):
        moved = lattice_transport(iso, g.g)
        if ebin_norm(g, moved - g.g) <= tol * norm_g:
            found.append(iso)
    return found


# ---------------------------------------------------------------------------
# isometry conjugation across a slice decomposition


@dataclass(frozen=True)
class ConjugationEntry:
    candidate: LatticeIsometry
    matched: LatticeIsometry | None
    deviation: float


@dataclass(frozen=True)
class ConjugationReport:
    entries: tuple
    inclusion_holds: bool
    max_deviation: float


def _torus_gap(a: np.ndarray, b: np.ndarray) -> float:
    d = (a - b + 0.5) % 1.0 - 0.5
    return float(np.max(np.abs(d)))


def conjugate_isometries(
    g_base: MetricField,
    g: MetricField,
    tol: float = 1e-6,
    decompose_tol: float | None = None,
    iso_tol: float = 1e-8,
):
    """Carry the candidate isometries of g back to those of g_base.

    f is the gauge factor of the slice decomposition of g; for each candidate
    isometry i of g the sampled map f^{-1} o i o f is matched against the
    candidate isometries of the base.  The report states whether every
    conjugated candidate lands on a base candidate within tol; the inner
    decomposition runs tighter than tol because map-space accuracy of f sits
    about two decades above the metric-space residual.
    """
    spec = g_base.spec
    n = spec.n
    if decompose_tol is None:
        decompose_tol = min(1e-2 * tol, 1e-6)
    dec = slice_decompose(g_base, g, tol=decompose_tol)
    f = dec.phi
    iso_g = isometry_candidates(g, iso_tol)
    iso_base = isometry_candidates(g_base, iso_tol)
    base_set = {(k.flip, k.shift) for k in iso_base}

    x, y = spec.cell_centers()
    fwd = f.points()  # f(x) at cell centers
    f_inv_u = f.v

    entries = []
    worst = 0.0
    for iota in iso_g:
        zx, zy = iota.map_points(n, fwd[0] % 1.0, fwd[1] % 1.0)
        qx = (zx + interpolate(f_inv_u.v1, zx, zy)) % 1.0
        qy = (zy + interpolate(f_inv_u.v2, zx, zy)) % 1.0

        # guess: conjugation preserves the flip part and perturbs the shift
        a = iota.matrix
        rx = qx - (a[0, 0] * x + a[0, 1] * y)
        ry = qy - (a[1, 0] * x + a[1, 1] * y)
        guess_shift = (
            int(np.round(np.mean((rx + 0.5) % 1.0 - 0.5) * n)) % n,
            int(np.round(np.mean((ry + 0.5) % 1.0 - 0.5) * n)) % n,
        )
        best: LatticeIsometry | None = None
        best_dev = math.inf
        guesses = [LatticeIsometry(iota.flip, guess_shift)]
        for kappa in guesses:
            if (kappa.flip, kappa.shift) not in base_set:
                continue
            kx, ky = kappa.map_points(n, x, y)
            dev = max(_torus_gap(qx, kx), _torus_gap(qy, ky))
            if dev < best_dev:
                best, best_dev = kappa, dev
        if best is None or best_dev > tol:
            for kappa in iso_base:
                kx, ky = kappa.map_points(n, x, y)
                dev = max(_torus_gap(qx, kx), _torus_gap(qy, ky))
                if dev < best_dev:
                    best, best_dev = kappa, dev
        entries.append(ConjugationEntry(iota, best, best_dev))
        worst = max(worst, best_dev)

    holds = all(e.matched is not None and e.deviation <= tol for e in entries)
    return f, ConjugationReport(tuple(entries), holds, worst)
