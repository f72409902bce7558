"""Command-line front end: reproducible runs of the library operations.

Subcommands operate on a directory of field files (see gen-examples for the
bundled inputs) and write field files, plus a deterministic text report.
Exit codes: 0 all requested checks passed, 1 a check failed its tolerance,
2 usage or input-format error, 3 numerical error (no convergence, positivity
loss, solver stall).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import convergence as conv
from . import spd_action as spd
from .calculus import divergence, lie_derivative_metric
from .diffeos import flow_exp, pullback
from .errors import FormatError, RiemgridError, ValidationError
from .fileio import Report, read_field, read_field_meta, write_field, write_report
from .geodesics import ebin_exp, ebin_log, ebin_norm
from .grid import GridSpec, identity_metric
from .sampling import divergence_free_tensor, random_sym_tensor, random_vector_field
from .slicing import (
    MetricPath,
    _divergence_defect,
    berger_ebin_project,
    horizontal_lift,
    isometry_candidates,
    slice_decompose,
)


@dataclass(frozen=True)
class RunConfig:
    grid: int
    seed: int
    tol_solver: float
    tol_decompose: float
    in_dir: Path | None
    out_dir: Path | None
    report_path: Path | None

    def __post_init__(self):
        if self.grid < 4:
            raise ValueError("grid resolution must be at least 4")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        for name in ("tol_solver", "tol_decompose"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name.replace('_', '-')} must be positive and finite")

    def need_in(self) -> Path:
        if self.in_dir is None:
            raise ValueError("this subcommand requires --in")
        return self.in_dir

    def need_out(self) -> Path:
        if self.out_dir is None:
            raise ValueError("this subcommand requires --out")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir


def _load(directory: Path, name: str):
    path = directory / name
    if not path.exists():
        raise FileNotFoundError(f"missing input file {path}")
    return read_field(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_examples(cfg: RunConfig):
    out = cfg.need_out()
    spec = GridSpec(cfg.grid)
    gamma = identity_metric(spec)
    norm_gamma = ebin_norm(gamma, gamma.g)

    s = random_sym_tensor(spec, cfg.seed, amplitude=0.05)
    x = random_vector_field(spec, cfg.seed + 1, amplitude=0.05)
    h0 = divergence_free_tensor(spec, cfg.seed + 2)
    h0 = h0 * (0.05 * norm_gamma / ebin_norm(gamma, h0))
    x_small = random_vector_field(spec, cfg.seed + 3, amplitude=0.002)
    g = pullback(flow_exp(x_small, 1.0), ebin_exp(gamma, h0, 1.0).endpoint)

    write_field(out / "gamma.rgf", gamma)
    write_field(out / "s.rgf", s)
    write_field(out / "x.rgf", x)
    write_field(out / "h0.rgf", h0)
    write_field(out / "g.rgf", g)

    # path fields are band-limited harder: lift quality is interpolation-limited
    h_path = divergence_free_tensor(spec, cfg.seed + 4, max_mode=2)
    h_path = h_path * (0.005 * norm_gamma / ebin_norm(gamma, h_path))
    x_path = random_vector_field(spec, cfg.seed + 5, max_mode=2, amplitude=0.002)
    n_steps = 5
    for k in range(n_steps + 1):
        t = k / n_steps
        point = pullback(flow_exp(x_path, t), ebin_exp(gamma, t * h_path, 1.0).endpoint)
        write_field(out / f"path_{k:02d}.rgf", point, meta={"t": repr(t)})

    report = Report("gen-examples")
    report.add("grid", cfg.grid).add("seed", cfg.seed).add("files", 11)
    return 0, report


def cmd_project(cfg: RunConfig):
    src = cfg.need_in()
    gamma = _load(src, "gamma.rgf")
    s = _load(src, "s.rgf")
    split = berger_ebin_project(gamma, s, tol=cfg.tol_solver)
    recon = lie_derivative_metric(gamma, split.x) + split.h - s
    recon_rel = ebin_norm(gamma, recon) / max(ebin_norm(gamma, s), 1e-300)
    div_rel = _divergence_defect(gamma, split.h) / max(_divergence_defect(gamma, s), 1e-300)
    if cfg.out_dir is not None:
        out = cfg.need_out()
        write_field(out / "x.rgf", split.x)
        write_field(out / "h.rgf", split.h)
    report = Report("project")
    report.add("solver", split.method)
    report.add("iterations", split.iterations)
    report.add("reconstruction_rel", recon_rel)
    report.add("divergence_rel", div_rel)
    report.add("orthogonality_defect", split.orthogonality_defect)
    ok = recon_rel <= 1e-8 and div_rel <= 1e-8
    report.add("pass", ok)
    return (0 if ok else 1), report


def cmd_exp(cfg: RunConfig):
    src = cfg.need_in()
    gamma = _load(src, "gamma.rgf")
    s = _load(src, "s.rgf")
    path = ebin_exp(gamma, s, 1.0)
    if cfg.out_dir is not None:
        out = cfg.need_out()
        write_field(out / "endpoint.rgf", path.endpoint)
    report = Report("exp")
    report.add("steps", path.steps)
    report.add("samples", len(path.samples))
    report.add("speed_drift", path.speed_drift)
    report.add("pass", True)
    return 0, report


def cmd_log(cfg: RunConfig):
    src = cfg.need_in()
    gamma = _load(src, "gamma.rgf")
    g = _load(src, "g.rgf")
    s = ebin_log(gamma, g, tol=cfg.tol_decompose)
    mismatch = ebin_norm(gamma, ebin_exp(gamma, s, 1.0).endpoint.g - g.g)
    rel = mismatch / max(ebin_norm(gamma, g.g), 1e-300)
    if cfg.out_dir is not None:
        out = cfg.need_out()
        write_field(out / "s_log.rgf", s)
    report = Report("log")
    report.add("endpoint_mismatch_rel", rel)
    ok = rel <= cfg.tol_decompose
    report.add("pass", ok)
    return (0 if ok else 1), report


def cmd_decompose(cfg: RunConfig):
    src = cfg.need_in()
    gamma = _load(src, "gamma.rgf")
    g = _load(src, "g.rgf")
    dec = slice_decompose(gamma, g, tol=cfg.tol_decompose)
    if cfg.out_dir is not None:
        out = cfg.need_out()
        write_field(out / "phi.rgf", dec.phi)
        write_field(out / "h.rgf", dec.h)
    report = Report("decompose")
    report.add("residual", dec.residual)
    report.add("iterations", dec.iterations)
    report.add("h_norm_rel", ebin_norm(gamma, dec.h) / ebin_norm(gamma, gamma.g))
    report.add("h_divergence_defect", _divergence_defect(gamma, dec.h))
    ok = dec.residual <= cfg.tol_decompose
    report.add("pass", ok)
    return (0 if ok else 1), report


def cmd_lift(cfg: RunConfig):
    src = cfg.need_in()
    entries = []
    for path_file in sorted(src.glob("path_*.rgf")):
        point, meta = read_field_meta(path_file)
        entries.append((float(meta.get("t", len(entries))), point))
    if len(entries) < 2:
        raise FileNotFoundError(f"need at least two path_*.rgf files in {src}")
    path = MetricPath(tuple(t for t, _ in entries), tuple(p for _, p in entries))

    lifted, gauges = horizontal_lift(path, tol=cfg.tol_decompose)
    rows = []
    max_gap = 0.0
    max_defect = 0.0
    max_input_defect = 0.0
    for k in range(len(lifted.points)):
        gap = ebin_norm(
            lifted.points[k], pullback(gauges[k], lifted.points[k]).g - path.points[k].g
        ) / ebin_norm(lifted.points[k], path.points[k].g)
        defect = 0.0
        if k > 0:
            vel = ebin_log(lifted.points[k - 1], lifted.points[k], tol=1e-8)
            defect = _divergence_defect(lifted.points[k - 1], vel)
            vel_in = ebin_log(path.points[k - 1], path.points[k], tol=1e-8)
            max_input_defect = max(max_input_defect, _divergence_defect(path.points[k - 1], vel_in))
        rows.append((k, gap, defect))
        max_gap = max(max_gap, gap)
        max_defect = max(max_defect, defect)
    if cfg.out_dir is not None:
        out = cfg.need_out()
        for k, point in enumerate(lifted.points):
            write_field(out / f"lifted_{k:02d}.rgf", point, meta={"t": repr(lifted.times[k])})
            write_field(out / f"gauge_{k:02d}.rgf", gauges[k])
    report = Report("lift")
    report.add("steps", len(lifted.points) - 1)
    report.add("max_gauge_consistency", max_gap)
    report.add("max_velocity_divergence", max_defect)
    report.add("max_input_divergence", max_input_defect)
    report.add_table("per_step", ("k", "gauge_consistency", "velocity_divergence"), rows)
    # the lift must track the path through its gauges and strip the orbit
    # content of the velocities down to the discretization floor
    ok = max_gap <= 100.0 * cfg.tol_decompose and (
        max_input_defect <= 10.0 * cfg.tol_decompose
        or max_defect <= 1e-2 * max_input_defect
    )
    report.add("pass", ok)
    return (0 if ok else 1), report


def cmd_isometries(cfg: RunConfig):
    src = cfg.need_in()
    gamma = _load(src, "gamma.rgf")
    found = isometry_candidates(gamma, tol=1e-8)
    by_flip = {"id": 0, "fx": 0, "fy": 0, "swap": 0}
    for iso in found:
        by_flip[iso.flip] += 1
    report = Report("isometries")
    report.add("candidates_checked", 4 * gamma.spec.n ** 2)
    report.add("passing", len(found))
    for flip, count in by_flip.items():
        report.add(f"passing_{flip}", count)
    report.add_table(
        "first_passing",
        ("flip", "shift_x", "shift_y"),
        [(iso.flip, iso.shift[0], iso.shift[1]) for iso in found[:64]],
    )
    report.add("pass", True)
    return 0, report


def _slice_distance(sl, q) -> float:
    """Distance from a point to the slice disk, in chart coordinates."""
    s1, s2 = sl.coords_of(q)
    p = q.chart - sl.base.chart
    out = p - s1 * np.asarray(sl.n1) - s2 * np.asarray(sl.n2)
    radial = math.hypot(s1, s2)
    excess = max(0.0, radial - sl.radius)
    return math.hypot(float(np.linalg.norm(out)), excess)


def cmd_finite_demo(cfg: RunConfig):
    base = spd.SpdPoint(2.0, 0.0, 1.0)
    sl = spd.slice_at(base, 0.1)
    report = Report("finite-demo")
    tol = 1e-12

    # chart roundtrips on seeded tube samples
    tube = spd.tube_quotient(sl, n_samples=1000, seed=cfg.seed, tol=tol)
    report.add("tube_samples", tube.samples)
    report.add("tube_violations", len(tube.violations))
    report.add("max_welldef_error", tube.max_welldef_error)
    report.add("max_roundtrip_error", tube.max_roundtrip_error)

    # slice property (i): conjugation by a half-turn fixes every slice point
    angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    max_fix = 0.0
    for s1 in (-0.05, 0.0, 0.05):
        for s2 in (-0.05, 0.0, 0.05):
            pt = sl.point(s1, s2)
            max_fix = max(max_fix, spd.act(spd.Rot(math.pi), pt).frobenius_distance(pt))
    report.add("isotropy_fixes_slice", max_fix)

    # slice property (ii): every other rotation moves every slice point off the slice
    min_escape = math.inf
    pt = sl.point(0.05, -0.03)
    for theta in angles:
        if min(abs(theta), abs(theta - math.pi), abs(theta - 2 * math.pi)) < 1e-9:
            continue
        moved = spd.act(spd.Rot(theta), pt)
        min_escape = min(min_escape, _slice_distance(sl, moved))
    report.add("min_escape_distance", min_escape)

    # invariant metric under conjugation
    other = spd.SpdPoint(1.5, 0.2, 0.9)
    max_metric_err = 0.0
    for theta in angles:
        r = spd.Rot(theta)
        d0 = base.frobenius_distance(other)
        d1 = spd.act(r, base).frobenius_distance(spd.act(r, other))
        max_metric_err = max(max_metric_err, abs(d1 - d0))
    report.add("invariant_metric_error", max_metric_err)

    ok = (
        tube.passed
        and max_fix <= tol
        and max_metric_err <= 1e-13
        and min_escape > 1e-6
    )
    report.add("pass", ok)
    return (0 if ok else 1), report


def cmd_convergence(cfg: RunConfig):
    resolutions = (16, 32, 64)
    adj = [conv.adjointness_defect(n) for n in resolutions]
    equi = [conv.equivariance_defect(n) for n in resolutions]
    inva = [conv.invariance_defect(n) for n in resolutions]
    report = Report("convergence")
    report.add_table(
        "defects",
        ("n", "adjointness", "equivariance", "invariance"),
        [(n, adj[k], equi[k], inva[k]) for k, n in enumerate(resolutions)],
    )
    order_equi = conv.measured_order(equi, resolutions)
    order_inva = conv.measured_order(inva, resolutions)
    report.add("adjointness_max", max(adj))
    report.add("order_equivariance", order_equi)
    report.add("order_invariance", order_inva)
    ok = max(adj) <= 1e-12 and order_equi >= 1.9 and order_inva >= 1.9
    report.add("pass", ok)
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemgrid",
        description="Desk-scale gauge geometry of Riemannian metrics on the discrete 2-torus.",
    )
    parser.add_argument("--grid", type=int, default=32, help="cells per axis (default 32)")
    parser.add_argument("--seed", type=int, default=1, help="64-bit seed for generated fields")
    parser.add_argument(
        "--tol-solver", type=float, default=1e-10, help="splitting tolerance: divergence left in h over that of s"
    )
    parser.add_argument("--tol-decompose", type=float, default=1e-6, help="decomposition tolerance")
    parser.add_argument("--in", dest="in_dir", type=Path, default=None, help="input directory")
    parser.add_argument("--out", dest="out_dir", type=Path, default=None, help="output directory")
    parser.add_argument("--report", dest="report_path", type=Path, default=None, help="report file")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("gen-examples", cmd_gen_examples),
        ("project", cmd_project),
        ("exp", cmd_exp),
        ("log", cmd_log),
        ("decompose", cmd_decompose),
        ("lift", cmd_lift),
        ("isometries", cmd_isometries),
        ("finite-demo", cmd_finite_demo),
        ("convergence", cmd_convergence),
    ):
        sp = sub.add_parser(name)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            grid=args.grid,
            seed=args.seed,
            tol_solver=args.tol_solver,
            tol_decompose=args.tol_decompose,
            in_dir=args.in_dir,
            out_dir=args.out_dir,
            report_path=args.report_path,
        )
        code, report = args.func(cfg)
    except (FormatError, ValidationError, FileNotFoundError, IsADirectoryError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except RiemgridError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if cfg.report_path is not None:
        write_report(cfg.report_path, report)
    sys.stdout.write(report.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
