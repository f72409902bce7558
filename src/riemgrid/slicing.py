"""Orthogonal splitting, slice decomposition, path lifting, isometry probes.

The tangent space at a metric g splits sigma-orthogonally into the orbit
directions {L_X g} of the pullback action and the divergence-free tensors.
berger_ebin_project computes that splitting matrix-free, on every base by
conjugate gradients on the symmetric operator L^T W L, applied through one
6 x 6 table C^T W C per cell that is built once per base, and preconditioned
by one 2 x 2 Fourier multiplier per wavenumber, the inverse at the mean
metric whose zero mode carries the coarse solve on the two translations; on
a constant base it is the exact inverse, and one iteration solves;
slice_decompose inverts the local product chart, writing a nearby metric as
pullback(phi, exp_g(h)) with div-free h; horizontal_lift removes the orbit
component of a path's velocity step by step.  Isometry probing is
restricted to an explicit finite candidate family (lattice translations
composed with axis flips and the axis swap) that acts by exact sample
permutation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calculus import _divergence_stack, _lie_stack, _sharp_stack, _trace_pairing_values, _vector_inner_stack
from .calculus import _sigma_weight
from .diffeos import DiffeoGrid, compose, flow_exp, identity_diffeo, invert, pullback
from .errors import JacobianSignFlip, NoConvergence, SolverStall, StepFailure
from .geodesics import _exp_endpoint, _sym_inner, _sym_norm, ebin_log, ebin_norm, relative_distance
from .grid import MetricField, SymTensorField, VectorField, _flipped, _jet, _jet_adjoint, interpolate


# ---------------------------------------------------------------------------
# orthogonal splitting


@dataclass(frozen=True)
class SplitResult:
    """S = L_X g + h with h divergence-free; X is the gauge generator.

    X carries no stencil checkerboard, and no translation that is Killing
    (zero mean on a constant base) or near-Killing.  iterations counts the
    PCG steps; on a constant base, where the preconditioner is exact, one
    step solves.
    orthogonality_defect is |sigma(L_X g, h)| / |S|^2, which stays at roundoff
    also when S is almost all L_X g or almost all h.
    """

    x: VectorField
    h: SymTensorField
    orthogonality_defect: float
    iterations: int


# |div s| below this fraction of |s| is stencil roundoff
_DIV_ROUNDOFF = 1e-12
# a translation whose gain is below this fraction of the operator's smallest
# gain on smooth modes is near-Killing and is left out of the coarse solve.
# The ratio goes as the square of the base's variation: bases flat to 1e-9 ..
# 1e-6 (the lift and decompose bases of the tests) give 2e-19 .. 3e-13, and
# there a 1e-7 residual would buy a translation of many torus lengths.  Bases
# varying by 2e-3 give 5e-7, I + 1e-3 p gives 1e-6 and generic bases at least
# 2.5e-3, and their translations carry real content.  The cut sits between.
_NEAR_KILLING = 1e-10
# PCG: iteration cap, and the drop of sqrt(r^T M r) that ends the solve
_PCG_MAX = 60
_PCG_RTOL = 1e-13
# the solver of each live base; its closures hold no reference to g, so it goes with g
_SOLVERS = weakref.WeakKeyDictionary()


def _fourier_solver(n: int, g11: float, g12: float, g22: float) -> tuple:
    """The symbol of the exact inverse of div(L_X g) for the constant metric g.

    The stencil D acts on a wavenumber as i d, d_a = (8 sin t_a - sin 2t_a)/(6h),
    so the operator is the 2x2 symbol S = -((d^T g^-1 d) g + d d^T).  S is
    negative definite unless d = 0 (the constants and the checkerboards at
    t_a in {0, pi}); there the inverse is taken as zero, so X has zero mean
    and no checkerboard.  Returns (S^-1 on the rfft2 wavenumbers, smallest
    non-zero singular value of S), the gain on the smoothest modes, which
    converges under refinement.
    """

    def symbol(theta: np.ndarray) -> np.ndarray:
        d = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) * (n / 6.0)
        # exactly 0 at theta = 0, and at pi (index n // 2) for even n: sin(pi) is not 0 in floating point
        d[[0, n // 2] if n % 2 == 0 else [0]] = 0.0
        return d

    d1 = symbol(2.0 * np.pi * np.fft.fftfreq(n))[:, None]
    d2 = symbol(2.0 * np.pi * np.fft.rfftfreq(n))[None, :]
    q = (g22 * d1 * d1 - 2.0 * g12 * d1 * d2 + g11 * d2 * d2) / (g11 * g22 - g12 * g12)
    a, b, c = q * g11 + d1 * d1, q * g12 + d1 * d2, q * g22 + d2 * d2  # -S
    det = a * c - b * b
    scale = np.zeros_like(det)
    np.divide(-1.0, det, out=scale, where=det > 0.0)
    inverse = np.array([[c, -b], [-b, a]]) * scale  # S^-1
    return inverse, float(np.min((0.5 * (a + c) - np.hypot(0.5 * (a - c), b))[det > 0.0]))


def _solver(g: MetricField) -> tuple:
    """(K, M) of the split at the base g, as closures built once per base.

    K X = L^T W L X = -2 vol div(L_X g), symmetric positive semi-definite, is
    J^T A J with the 6 x 6 cell table A = C^T W C, as L = C J (calculus).

    M is a symmetric approximate inverse of K: one real symmetric 2 x 2
    Fourier multiplier per wavenumber.  Off the zero mode it inverts K at the
    mean metric, where K = -weight div L.  At the zero mode it is E^+, with
    E = Z^T K Z on the two unit translations Z (not Killing on a curved base),
    which makes it exactly the coarse solve Z E^+ Z^T.  Eigen-directions of E
    below _NEAR_KILLING of K's smallest gain on smooth modes are dropped.  The
    checkerboards have a zero symbol, so no iterate carries them.  On a
    constant base E = 0, and M is the exact inverse of K.
    """
    if g in _SOLVERS:
        return _SOLVERS[g]
    n, h = g.spec.n, g.spec.h
    table = np.einsum("qpij,qsij->psij", g._lie_table, np.einsum("qrij,rsij->qsij", _sigma_weight(g), g._lie_table))

    def apply_k(xs: np.ndarray) -> np.ndarray:
        return _jet_adjoint(np.einsum("psij,sij->pij", table, _jet(xs, h)), h)

    means = [float(np.mean(c)) for c in g.as_stack()]
    inverse, sigma_min = _fourier_solver(n, *means)
    weight = 2.0 * math.sqrt(means[0] * means[2] - means[1] * means[1])  # K = -2 vol div L there
    multiplier = inverse / -weight
    units = np.einsum("ab,xy->abxy", np.eye(2), np.full((n, n), 1.0 / n))  # unit-norm translations
    e = np.einsum("iaxy,jaxy->ij", units, [apply_k(zj) for zj in units])  # no BLAS
    gains, projectors = _sym_eigen2(e)
    keep = gains > _NEAR_KILLING * weight * sigma_min
    # Z^T r = rfft2(r)[:, 0, 0] / n, and the constant c / n has coefficient n c there
    multiplier[:, :, 0, 0] = np.einsum("k,kab->ab", 1.0 / gains[keep], projectors[keep])  # E^+

    def apply_m(r: np.ndarray) -> np.ndarray:
        # rfft2 and irfft2 as their two axis passes, which skips their argument handling
        rh = np.fft.fft(np.fft.rfft(r), axis=-2)
        return np.fft.irfft(np.fft.ifft(np.einsum("abij,bij->aij", multiplier, rh), axis=-2), n)

    _SOLVERS[g] = apply_k, apply_m
    return _SOLVERS[g]


def _sym_eigen2(e: np.ndarray) -> tuple:
    """Ascending eigenvalues mean -+ rad and spectral projectors (I -+ (e - mean I) / rad) / 2 (I / 2 each
    when rad = 0) of a symmetric 2x2 matrix, by hypot, sqrt and arithmetic, which round alike everywhere."""
    mean, rad = 0.5 * (e[0, 0] + e[1, 1]), math.hypot(0.5 * (e[0, 0] - e[1, 1]), e[0, 1])
    unit = (e - mean * np.eye(2)) / rad if rad else np.zeros((2, 2))
    return np.array([mean - rad, mean + rad]), 0.5 * np.array([np.eye(2) - unit, np.eye(2) + unit])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) over two (2, n, n) stacks by einsum, which calls no BLAS: the
    order of the sum, and so the split, does not depend on the thread count."""
    return float(np.einsum("aij,aij->", a, b))


def _pcg(apply_k, apply_m, c: np.ndarray) -> tuple:
    """Preconditioned CG from 0 for K x = c; returns (x, iterations).

    It stops when sqrt(r^T M r) has fallen to _PCG_RTOL of its start, or after
    _PCG_MAX iterations.  The part of r outside the range of M (checkerboards
    and near-Killing translations) does not enter that measure.
    """
    x = np.zeros_like(c)
    r = c.copy()
    p = apply_m(r)
    rz = _dot(r, p)
    stop = _PCG_RTOL * _PCG_RTOL * rz
    k = 0
    while k < _PCG_MAX and rz > stop:
        q = apply_k(p)
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        z = apply_m(r)
        rz, rz_old = _dot(r, z), rz
        p *= rz / rz_old
        p += z
        k += 1
    return x, k


def _one_form_norm(g: MetricField, ws: np.ndarray) -> float:
    xs = _sharp_stack(g, ws)
    return math.sqrt(max(_vector_inner_stack(g, xs, xs), 0.0))


def _split(g: MetricField, ss: np.ndarray) -> tuple:
    """Split the stack ss into L_X g + h; returns (SplitResult, div ss, sigma(ss, ss)).

    Solves div(L_X g) = div ss for X by PCG.  Nothing checks the divergence
    left in h.
    """
    b = _divergence_stack(g, ss)
    xs, iterations = _pcg(*_solver(g), -2.0 * g._volume * b)
    lie = _lie_stack(g, xs)
    hs = ss - lie
    ss_sq = _sym_inner(g, ss, ss)
    defect = abs(_sym_inner(g, lie, hs)) / max(ss_sq, 1e-300)
    return SplitResult(VectorField(g.spec, xs), SymTensorField(g.spec, hs), defect, iterations), b, ss_sq


def berger_ebin_project(g: MetricField, s: SymTensorField, tol: float = 1e-10) -> SplitResult:
    """Split s into an orbit-tangent part L_X g and a divergence-free part h.

    Solves div(L_X g) = div(s) for X.  div is the exact adjoint of L_X g, so
    K = -2 vol div L is symmetric, and PCG runs to a relative residual of
    1e-13 whatever tol is.  On a constant base its preconditioner is the exact
    inverse, so one iteration solves and X has zero mean.  The divergence left
    in h must be at most tol times that of s.  What no split can remove is the
    checkerboard content of div s (1e-3 of it on a generic base at n=16, 3e-7
    at n=32), which falls fast under refinement, and the content along a
    translation that is near-Killing (left out, as its solve would move X by
    an ill-determined shift).  A tol below that floor raises SolverStall
    (retry with higher resolution or a looser tolerance).
    """
    split, b, s_sq = _split(g, s.values)
    div_s_norm = _one_form_norm(g, b)
    achieved = _one_form_norm(g, _divergence_stack(g, split.h.values))
    # relative to div s, unless s is divergence-free to roundoff
    bound = tol * max(div_s_norm, _DIV_ROUNDOFF * math.sqrt(max(s_sq, 0.0)))
    if achieved > bound:
        if split.iterations == _PCG_MAX:
            stop = f"stopped at its {_PCG_MAX}-iteration cap"
        else:
            stop = f"stopped on its relative residual after {split.iterations} iterations, at the checkerboard floor"
        raise SolverStall(f"PCG left divergence {achieved:.3e} above bound {bound:.3e}: {stop}")
    return split


# ---------------------------------------------------------------------------
# slice membership and the chart inverse


def _divergence_defect(g: MetricField, s: SymTensorField) -> float:
    """|div s| / |s|, both in the g-weighted norms; 0 for s = 0."""
    div_norm = _one_form_norm(g, _divergence_stack(g, s.values))
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


# Gauss-Newton iteration cap of slice_decompose, and the relative distance
# |g - g_base| / |g_base| beyond which it refuses a target
_MAX_ITER = 50
_RADIUS = 0.1


def slice_decompose(g_base: MetricField, g: MetricField, tol: float = 1e-6) -> SliceDecomposition:
    """Invert the local product chart around g_base for a nearby metric g.

    Gauss-Newton on the miss g - pullback(phi, exp_base(h)), measured relative
    to |g|.  Each iteration splits the miss, pulled back to the base gauge, at
    the base (the first one splits the geodesic log of g): h takes on its
    divergence-free part and phi flows along its gauge generator.  A step of
    length lambda = 1, 1/2, ..., 1/128 is accepted only on sufficient
    decrease, |miss| < (1 - lambda/4) times the last; a step that gains less
    is halved, and so is one whose gauge flow or map inverse fails
    (StepFailure, JacobianSignFlip).  A full step can overshoot to a
    mirror-image miss of about the same size (the generator acts on
    exp_base(h), which varies more than the base), and a rule that accepted
    any decrease would then stall.  Returns when the miss and the pending
    gauge correction |L_X g| / |g| are both within tol.  Raises NoConvergence
    for a target farther than _RADIUS from the base, or when the miss is above
    tol after _MAX_ITER iterations or once no step decreases it enough.
    """
    spec = g_base.spec
    if relative_distance(g_base, g) > _RADIUS:
        raise NoConvergence(f"target outside the documented working radius {_RADIUS}")
    norm_g = max(ebin_norm(g_base, g.g), 1e-300)

    phi = identity_diffeo(spec)
    hs = np.zeros((3, spec.n, spec.n))
    pending = ebin_log(g_base, g, tol=min(1e-8, tol))  # the miss in the base gauge
    residual = ebin_norm(g_base, g.g - g_base.g) / norm_g

    for it in range(1, _MAX_ITER + 1):
        split = _split(g_base, pending.values)[0]
        new_hs = hs + split.h.values

        # the pending correction measures how far the gauge is from converged
        gauge = _sym_norm(g_base, _lie_stack(g_base, split.x.values)) / norm_g
        if residual <= tol and gauge <= tol:
            return SliceDecomposition(phi, SymTensorField(spec, hs), residual, it)

        lam = 1.0
        for _ in range(8):
            trial_hs = hs + lam * (new_hs - hs)
            try:
                trial_phi = compose(phi, flow_exp(split.x, -lam))
                trial_miss = g.g - pullback(trial_phi, _exp_endpoint(g_base, trial_hs)).g
                trial_res = ebin_norm(g_base, trial_miss) / norm_g
                if trial_res < (1.0 - 0.25 * lam) * residual:
                    pending = pullback(invert(trial_phi), trial_miss)
                    phi, hs, residual = trial_phi, trial_hs, trial_res
                    break
            except (StepFailure, JacobianSignFlip):
                pass  # a gauge step the maps cannot represent is rejected, as a weak one is
            lam *= 0.5
        else:
            break  # no damped step decreases enough: stalled at the attainable floor

    if residual <= tol:
        return SliceDecomposition(phi, SymTensorField(spec, hs), residual, it)
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


def horizontal_lift(path: MetricPath, tol: float = 1e-6):
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
            dec = slice_decompose(base, target, tol=tol)
        except NoConvergence as e:
            raise NoConvergence(f"lift failed at step {k + 1}: {e}") from e
        _SOLVERS.pop(base, None)  # no later step splits at base: free its 36 n^2 operator table
        lifted.append(_exp_endpoint(base, dec.h.values))
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

    def map_points(self, n: int, px: np.ndarray, py: np.ndarray):
        a = self.matrix
        bx, by = self.shift[0] / n, self.shift[1] / n
        qx = a[0, 0] * px + a[0, 1] * py + bx
        qy = a[1, 0] * px + a[1, 1] * py + by
        return qx % 1.0, qy % 1.0



def lattice_transport(iso: LatticeIsometry, field):
    """Left action of a lattice candidate by exact sample permutation."""
    if isinstance(field, MetricField):
        return MetricField(lattice_transport(iso, field.g))
    return type(field)(field.spec, np.roll(_flipped(field.values, iso.flip), iso.shift, axis=(-2, -1)))


def candidate_family(n: int):
    """All 4 n^2 candidates: flips/swap composed with every lattice shift."""
    for flip in _FLIP_MATRICES:
        for b1 in range(n):
            for b2 in range(n):
                yield LatticeIsometry(flip, (b1, b2))


# slack of the row bound over roundoff: the row sum and the exact test's
# full sum add the same non-negative cell terms in different orders
_ROW_MARGIN = 1e-10


def isometry_candidates(g: MetricField, tol: float = 1e-8) -> list:
    """Candidates whose exact permutation action reproduces g within tol (sigma-relative).

    The decision is the exact test |move(b) g - g|_sigma <= tol |g|_sigma of
    every candidate in candidate_family order; three stages skip most of
    its arithmetic without changing any verdict:

    1. Reject by a row lower bound.  The squared norm is a sum of per-cell
       terms tr(g^-1 d g^-1 d) vol h^2 >= 0, so the sum over cell row 0
       alone (_row_defects, all n^2 shifts of a flip in O(n^3)) bounds it
       from below.  A shift whose row sum exceeds (tol |g|)^2 by more than
       the relative margin _ROW_MARGIN, far above the roundoff between
       summation orders, fails the exact test and is dropped.
    2. Accept bitwise cosets.  The shifts that move a flip's samples onto g
       bitwise have defect exactly 0.  They form either nothing or a coset
       b0 + P of the period group P = {p : roll(g, p) == g}: roll(F, b0) == g
       gives roll(F, b0 + p) == roll(g, p) == g, and two hits differ by a
       period.  P starts as {0} and is closed under the offset of each
       bitwise hit outside the known coset, which at least doubles it; the
       id flip (b0 = 0) builds it, and every other flip needs one bitwise
       hit b0 and then accepts its coset by lookup.
    3. Decide every other surviving shift by the exact test.
    """
    n = g.spec.n
    gs = g.as_stack()
    bound = tol * ebin_norm(g, g.g)
    if not bound >= 0.0:
        return []  # no norm is below a negative or NaN bound
    period = np.zeros((n, n), dtype=bool)
    period[0, 0] = True
    found = []
    for flip in _FLIP_MATRICES:
        flipped = _flipped(gs, flip)
        survivors = _row_survivors(g, flipped, bound)
        coset = (0, 0) if flip == "id" else None  # a shift moving flipped onto g bitwise
        for shift in map(tuple, np.argwhere(survivors).tolist()):
            offset = None if coset is None else ((shift[0] - coset[0]) % n, (shift[1] - coset[1]) % n)
            if offset is not None and period[offset]:
                found.append(LatticeIsometry(flip, shift))
                continue
            moved = np.roll(flipped, shift, axis=(-2, -1))
            if np.array_equal(moved, gs):
                if coset is None:
                    coset = shift
                else:
                    period = _subgroup(period, offset)  # two bitwise hits differ by a period
            elif not _sym_norm(g, moved - gs) <= bound:
                continue
            found.append(LatticeIsometry(flip, shift))
    return found


def _row_survivors(g: MetricField, flipped: np.ndarray, bound) -> np.ndarray:
    """Mask of the shifts of flipped whose row lower bound does not exceed bound ** 2."""
    return _row_defects(g, flipped) * (1.0 - _ROW_MARGIN) <= bound ** 2


def _row_defects(g: MetricField, flipped: np.ndarray) -> np.ndarray:
    """Squared sigma defect of roll(flipped, b) against g over cell row 0, for every shift b.

    Entry [b1, b2] sums the exact test's cell terms of cells (0, j).  Those
    cells of roll(flipped, (b1, b2)) hold flipped[:, -b1, j - b2]: for each
    b1 every b2 is one window of the wrap-doubled row, so temporaries stay
    (3, n, n).
    """
    n = g.spec.n
    row_g = g.as_stack()[:, 0]
    row_inv = g._inverse[:, 0]
    row_weight = g.spec.h ** 2 * g._volume[0]
    out = np.empty((n, n))
    for b1 in range(n):
        row = flipped[:, -b1 % n]
        # window k holds row[(j + k) % n]; shift b2 reads window n - b2
        windows = sliding_window_view(np.concatenate([row, row], axis=1), n, axis=1)
        d = windows[:, n:0:-1] - row_g[:, None]
        out[b1] = _trace_pairing_values(row_inv, d, d) @ row_weight
    return out


def _subgroup(period: np.ndarray, step: tuple) -> np.ndarray:
    """Mask of the subgroup of Z_n^2 generated by the subgroup mask period and step."""
    n = len(period)
    grown = period.copy()
    k = step
    while not period[k]:
        grown |= np.roll(period, k, axis=(0, 1))
        k = ((k[0] + step[0]) % n, (k[1] + step[1]) % n)
    return grown


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
    """max |a - b| with each difference moved by whole torus lengths into [-1/2, 1/2)."""
    return float(np.max(np.abs((a - b + 0.5) % 1.0 - 0.5)))


# the largest map-space deviation at which a conjugated candidate matches
_CONJUGATION_TOL = 1e-6


def conjugate_isometries(g_base: MetricField, g: MetricField):
    """Carry the candidate isometries of g back to those of g_base.

    f is the gauge factor of the slice decomposition of g; for each candidate
    isometry i of g the sampled map f^{-1} o i o f is compared with one
    lattice candidate k: the flip of i, and the shift the map reads at cell 0.
    No other candidate can match: two distinct lattice candidates differ by
    at least 1/n at some cell centre, so a map within _CONJUGATION_TOL of one
    is far from every other, and f, a near-identity gauge, keeps the flip.
    deviation is the largest torus gap between the map and k over the cell
    centres; matched is k when k is a candidate isometry of the base, else
    None.  The report states whether every conjugated candidate lands on a
    base candidate within _CONJUGATION_TOL; the inner decomposition runs two
    decades tighter because map-space accuracy of f sits about two decades
    above the metric-space residual.
    """
    spec = g_base.spec
    n = spec.n
    dec = slice_decompose(g_base, g, tol=1e-2 * _CONJUGATION_TOL)
    f = dec.phi
    base_set = set(isometry_candidates(g_base))

    x, y = spec.cell_centers()
    fwd = f.points()  # f(x) at cell centers

    entries = []
    for iota in isometry_candidates(g):
        zx, zy = iota.map_points(n, fwd[0] % 1.0, fwd[1] % 1.0)
        qx, qy = (np.stack([zx, zy]) + interpolate(f.v, zx, zy)) % 1.0
        flip_only = LatticeIsometry(iota.flip, (0, 0)).map_points(n, x[0, 0], y[0, 0])
        shift = np.round((np.array([qx[0, 0], qy[0, 0]]) - flip_only) * n).astype(int) % n
        kappa = LatticeIsometry(iota.flip, tuple(shift.tolist()))
        kx, ky = kappa.map_points(n, x, y)
        deviation = max(_torus_gap(qx, kx), _torus_gap(qy, ky))
        entries.append(ConjugationEntry(iota, kappa if kappa in base_set else None, deviation))

    holds = all(e.matched is not None and e.deviation <= _CONJUGATION_TOL for e in entries)
    worst = max((e.deviation for e in entries), default=0.0)
    return f, ConjugationReport(tuple(entries), holds, worst)
