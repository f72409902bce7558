"""The four benchmark workloads.

Each workload has three steps:

- ``setup(seed, workdir)`` builds the seeded inputs (untimed apart from setup_s);
- ``run(inputs)`` is one timed round through riemgrid's public API: it builds
  fresh library objects from the inputs, so no identity-keyed cache of one
  round serves the next, and records one latency per unit operation;
- ``check(inputs, raw)`` verifies the round's outputs after the clock stops.

Functions the checks use are bound here at import time, before any Tracer
rebinds the library's names, so checking never shows up in the trace.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import riemgrid as rg
import riemgrid.cli
from riemgrid.calculus import divergence, lie_derivative_metric, sharp, vector_inner
from riemgrid.errors import RiemgridError
from riemgrid.geodesics import ebin_norm

from .tracing import CLI_SUBCOMMANDS


@dataclass
class Outcome:
    """What the checks found in one round.

    An operation fails when it raises or misses a stated tolerance; it is
    wrong when its result contradicts an exact fact (a membership verdict, the
    set of isometries found, a CLI usage error).  Every wrong operation also
    counts as failed.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    margins: list = field(default_factory=list)  # log10(tolerance / error) per tolerance check

    def within(self, error: float, tol: float) -> bool:
        """Record a tolerance check; true when error <= tol."""
        if error > 0.0:
            self.margins.append(math.log10(tol / error))
        return error <= tol

    def record(self, ok: bool, exact: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += exact


def _timed(fn, *args, **kwargs):
    """(result or None, elapsed ms); a riemgrid error gives None, a failed operation."""
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except RiemgridError:
        out = None
    return out, 1e3 * (time.perf_counter() - start)


def _structured_base(n: int) -> np.ndarray:
    """Stack of the curved base 1 + 0.1 sin(2 pi x) dx^2 + dy^2."""
    x, _ = rg.GridSpec(n).cell_centers()
    return np.stack([1.0 + 0.1 * np.sin(2 * np.pi * x), np.zeros((n, n)), np.ones((n, n))])


def _metric(stack: np.ndarray) -> rg.MetricField:
    return rg.MetricField.from_stack(rg.GridSpec(stack.shape[-1]), stack)


# ---------------------------------------------------------------------------


class Pipeline:
    """The CLI chain at n=32, in process through riemgrid.cli.main with --report."""

    name = "pipeline-n32"
    n = 32
    min_rounds = 1
    # subcommand -> report key -> tolerance the subcommand applies to it (CLI defaults)
    TOLERANCES = {
        "project": {"reconstruction_rel": 1e-8, "divergence_rel": 1e-8},
        "log": {"endpoint_mismatch_rel": 1e-6},
        "decompose": {"residual": 1e-6},
        "lift": {"max_gauge_consistency": 1e-4},
    }

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"cli_seed": random.Random(seed).getrandbits(32), "dir": workdir, "round": 0}

    def _argv(self, inputs: dict, d: Path, sub: str) -> list:
        argv = ["--grid", str(self.n), "--seed", str(inputs["cli_seed"]), "--report", str(d / f"{sub}.txt")]
        if sub == "gen-examples":
            return argv + ["--out", str(d / "in"), sub]
        argv += ["--in", str(d / "in")]
        if sub in ("project", "exp", "decompose", "lift"):
            argv += ["--out", str(d / sub)]
        return argv + [sub]

    def run(self, inputs: dict) -> dict:
        inputs["round"] += 1
        d = inputs["dir"] / f"round-{inputs['round']}"
        codes = {}
        start = time.perf_counter()
        for sub in CLI_SUBCOMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[sub] = riemgrid.cli.main(self._argv(inputs, d, sub))
        return {"op_ms": [1e3 * (time.perf_counter() - start)], "codes": codes, "dir": d}

    def check(self, inputs: dict, raw: dict) -> Outcome:
        out = Outcome()
        reports = {}
        for sub, code in raw["codes"].items():
            path = raw["dir"] / f"{sub}.txt"
            reports[sub] = text = path.read_text() if path.exists() else ""
            values = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
            for key, tol in self.TOLERANCES.get(sub, {}).items():
                if key in values:
                    out.within(float(values[key]), tol)
            if code in (1, 3):  # a check missed its tolerance, or a numerical error
                out.record(False)
            elif sub == "gen-examples":
                out.record(code == 0 and values.get("files") == "11", exact=True)
            else:
                out.record(code == 0 and values.get("pass") == "true", exact=True)
        raw["reports"] = reports
        shutil.rmtree(raw["dir"], ignore_errors=True)
        return out


# ---------------------------------------------------------------------------


class Membership:
    """Slice membership of lattice-transported points on a structured curved base, n=16.

    A round splits one seeded tensor per slice point (the first split
    assembles the curved solver, the rest reuse it), moves it onto the slice
    with ebin_exp, and tests a seeded mix of isometry and non-isometry
    candidates per point; ebin_log inside slice_membership does the work.
    """

    name = "membership-n16"
    n = 16
    min_rounds = 2  # enough tests for a supported 90th percentile
    points = 8
    isometries, others = 2, 6  # candidates tested per point
    tol = 1e-6

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        spec = rg.GridSpec(self.n)
        base = _structured_base(self.n)
        iso_set = {(c.flip, c.shift) for c in rg.isometry_candidates(_metric(base), tol=1e-8)}
        family = list(rg.candidate_family(self.n))
        isos = [c for c in family if (c.flip, c.shift) in iso_set]
        others = [c for c in family if (c.flip, c.shift) not in iso_set]
        tests = []
        for _ in range(self.points):
            s = rg.random_sym_tensor(spec, rng.getrandbits(32), amplitude=0.05)
            chosen = rng.sample(isos, self.isometries) + rng.sample(others, self.others)
            rng.shuffle(chosen)
            tests.append((s, chosen))
        return {"base": base, "tests": tests, "iso_set": iso_set}

    def run(self, inputs: dict) -> dict:
        g = _metric(inputs["base"])
        verdicts, op_ms = [], []
        for s, candidates in inputs["tests"]:
            split, _ = _timed(rg.berger_ebin_project, g, s, tol=1e-4)
            if split is None:  # no slice point: check() fails this point's candidates
                verdicts.append(None)
                continue
            h1 = split.h * (0.02 * rg.ebin_norm(g, g.g) / rg.ebin_norm(g, split.h))
            point = rg.ebin_exp(g, h1, 1.0, tol=1e-10).endpoint
            results = []
            for cand in candidates:
                res, ms = _timed(lambda: rg.slice_membership(g, rg.lattice_transport(cand, point), tol=self.tol))
                results.append(res)
                op_ms.append(ms)
            verdicts.append(results)
        return {"op_ms": op_ms, "verdicts": verdicts}

    def check(self, inputs: dict, raw: dict) -> Outcome:
        out = Outcome()
        for (_, candidates), results in zip(inputs["tests"], raw["verdicts"]):
            for cand, res in zip(candidates, results or [None] * len(candidates)):
                if res is None:
                    out.record(False)
                    continue
                if res.member:
                    out.within(res.divergence_defect, self.tol)
                elif math.isfinite(res.divergence_defect):
                    out.margins.append(math.log10(res.divergence_defect / self.tol))
                out.record(res.member == ((cand.flip, cand.shift) in inputs["iso_set"]), exact=True)
        return out


# ---------------------------------------------------------------------------


class SplitMany:
    """Many right-hand sides per base through berger_ebin_project at one tolerance.

    A round solves on the structured curved base and on one of two generic
    seeded curved bases (alternating by round) at n=32, each first solve
    assembling the dense solver, and on the flat base at n=64 (conjugate
    gradients).  The solves of the three bases are interleaved so that each
    kind of solve samples the whole round.  Generic bases miss tol=1e-4
    (SolverStall, a known defect of the curved solver); those count as failed.
    """

    name = "split-many"
    min_rounds = 2  # enough solves for a supported 90th percentile
    tol = 1e-4
    # per round 2 first solves, 88 cached curved solves (85%) and 14 flat ones
    # (13%): p50 falls among the cached curved solves, p90 among the flat ones
    flat_n, flat_rhs = 64, 14
    curved_n, structured_rhs, generic_bases, generic_rhs = 32, 60, 2, 30

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        flat_spec, curved_spec = rg.GridSpec(self.flat_n), rg.GridSpec(self.curved_n)
        rhs32 = [rg.random_sym_tensor(curved_spec, rng.getrandbits(32), amplitude=0.05) for _ in range(self.structured_rhs)]
        rhs64 = [rg.random_sym_tensor(flat_spec, rng.getrandbits(32), amplitude=0.05) for _ in range(self.flat_rhs)]
        identity = rg.identity_metric(curved_spec).as_stack()
        generic = [
            identity + rg.random_sym_tensor(curved_spec, rng.getrandbits(32), amplitude=0.1).as_stack()
            for _ in range(self.generic_bases)
        ]
        return {
            "structured": (_structured_base(self.curved_n), rhs32),
            "generic": [(base, rhs32[: self.generic_rhs]) for base in generic],
            "flat": (rg.identity_metric(flat_spec).as_stack(), rhs64),
            "round": 0,
        }

    def run(self, inputs: dict) -> dict:
        groups = [inputs["structured"], inputs["generic"][inputs["round"] % self.generic_bases], inputs["flat"]]
        inputs["round"] += 1
        schedule = sorted(
            ((i + 0.5) / len(rhs), k, i) for k, (_, rhs) in enumerate(groups) for i in range(len(rhs))
        )
        bases = [_metric(base) for base, _ in groups]
        results, op_ms = [], []
        for _, k, i in schedule:
            g, s = bases[k], groups[k][1][i]
            split, ms = _timed(rg.berger_ebin_project, g, s, tol=self.tol)
            results.append((g, s, split))
            op_ms.append(ms)
        return {"op_ms": op_ms, "results": results}

    def check(self, inputs: dict, raw: dict) -> Outcome:
        out = Outcome()
        for g, s, split in raw["results"]:
            if split is None:
                out.record(False)  # SolverStall
                continue
            recon = ebin_norm(g, lie_derivative_metric(g, split.x) + split.h - s) / ebin_norm(g, s)
            ok = out.within(recon, self.tol)
            ok = out.within(_one_form_norm(g, split.h) / _one_form_norm(g, s), self.tol) and ok
            out.record(ok)
        raw["results"] = None
        return out


def _one_form_norm(g, s) -> float:
    """g-weighted norm of div s, raised to a vector field."""
    v = sharp(g, divergence(g, s))
    return math.sqrt(max(vector_inner(g, v, v), 0.0))


# ---------------------------------------------------------------------------


class Gauge:
    """One lattice isometry scan and seeded diffeomorphism rounds at n=64.

    The scan runs on the flat metric moved by a gauge tiled with period 32
    cells, so exactly the four half-torus translations survive; each gauge
    operation is flow_exp, invert, compose(phi, invert(phi)) and pullback.
    A 4 s scan and 0.3 s gauge operations are not alike, so, as for the CLI
    chain, the unit operation whose latency is reported is the whole round.
    """

    name = "gauge-n64"
    n = 64
    min_rounds = 2
    gauge_ops = 16
    half_torus = {("id", (0, 0)), ("id", (0, 32)), ("id", (32, 0)), ("id", (32, 32))}
    inverse_tol = 1e-10

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        spec = rg.GridSpec(self.n)
        fields = [rg.random_vector_field(spec, rng.getrandbits(32), amplitude=0.02) for _ in range(self.gauge_ops)]
        metric = rg.random_metric_near_identity(spec, rng.getrandbits(32), 0.1).as_stack()
        tiled = rg.random_vector_field(spec, rng.getrandbits(32), amplitude=0.004, max_mode=1, period_cells=32)
        return {"fields": fields, "metric": metric, "tiled": tiled}

    def run(self, inputs: dict) -> dict:
        spec = rg.GridSpec(self.n)
        flat, g = rg.identity_metric(spec), _metric(inputs["metric"])

        def scan():
            return rg.isometry_candidates(rg.pullback(rg.flow_exp(inputs["tiled"], 1.0), flat), tol=1e-8)

        def gauge_op(x):
            phi = rg.flow_exp(x, 1.0)
            composite = rg.compose(phi, rg.invert(phi))
            rg.pullback(phi, g)
            return composite

        start = time.perf_counter()
        found, _ = _timed(scan)
        composites = [_timed(gauge_op, x)[0] for x in inputs["fields"]]
        return {"op_ms": [1e3 * (time.perf_counter() - start)], "found": found, "composites": composites}

    def check(self, inputs: dict, raw: dict) -> Outcome:
        out = Outcome()
        found = raw["found"]
        if found is None:
            out.record(False)
        else:
            out.record(len(found) == 4 and {(c.flip, c.shift) for c in found} == self.half_torus, exact=True)
        for composite in raw["composites"]:
            ok = composite is not None and out.within(float(np.max(np.abs(composite.u.as_stack()))), self.inverse_tol)
            out.record(ok)
        raw["composites"] = None
        return out


WORKLOADS = {w.name: w for w in (Pipeline(), Membership(), SplitMany(), Gauge())}
