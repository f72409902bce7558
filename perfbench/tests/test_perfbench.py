"""Tests of the benchmark's own arithmetic and of the tracing determinism contract."""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import riemgrid.cli  # noqa: E402
from perfbench import run, stats  # noqa: E402
from perfbench.tracing import LAYERS, PER_LAYER_METRICS, Span, Tracer, covered, layer_unit, self_times  # noqa: E402


def _span(start, end, parent=-1, name="slicing.x"):
    return Span(name, start, end, parent, False, None)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([(1.0, 5.0), (2.0, 3.0)], 0.0, 10.0) == 4.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0.0, 10.0),  # root
        _span(1.0, 4.0, parent=0),
        _span(2.0, 3.0, parent=1),  # grandchild: charged to span 1, not to the root
        _span(5.0, 6.5, parent=0),
        _span(11.0, 12.0),  # second root
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5, 1.0]
    # self times of all spans add up to the time the roots cover
    assert sum(self_times(spans)) == covered([(0.0, 10.0), (11.0, 12.0)], 0.0, 20.0)


def test_supported_percentile_needs_ten_samples_beyond():
    assert stats.supported_percentile(1000) == 90  # never above the wanted percentile
    assert stats.supported_percentile(1000, wanted=99) == 99
    assert stats.supported_percentile(100) == 90  # exactly ten beyond the 90th
    assert stats.supported_percentile(99) == 75
    assert stats.supported_percentile(40) == 75
    assert stats.supported_percentile(39) == 50
    assert stats.supported_percentile(20) == 50
    assert stats.supported_percentile(3) == 50  # falls back to the median


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_benchmark_json_names_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER_METRICS)
    assert all(m["unit"] == layer_unit(m["name"]) for m in doc["per_layer"])


def _cli_chain(directory: Path) -> dict:
    """Run the CLI chain at n=16 in process; return each report's bytes."""
    chain = (
        ("gen-examples", ["--out", str(directory / "in")]),
        ("project", ["--in", str(directory / "in"), "--out", str(directory / "project")]),
        ("exp", ["--in", str(directory / "in")]),
        ("log", ["--in", str(directory / "in")]),
        ("decompose", ["--in", str(directory / "in")]),
        ("lift", ["--in", str(directory / "in"), "--out", str(directory / "lift")]),
        ("isometries", ["--in", str(directory / "in")]),
    )
    reports = {}
    for sub, args in chain:
        report = directory / f"{sub}.txt"
        with contextlib.redirect_stdout(io.StringIO()):
            code = riemgrid.cli.main(["--grid", "16", "--seed", "5", "--report", str(report), *args, sub])
        assert code == 0, sub
        reports[sub] = report.read_bytes()
    return reports


def test_tracing_changes_no_report_byte_and_accounts_for_the_wall(tmp_path):
    plain = _cli_chain(tmp_path / "plain")
    original = riemgrid.cli.cmd_lift
    with Tracer() as tracer:
        t0 = time.perf_counter()
        traced = _cli_chain(tmp_path / "traced")
        t1 = time.perf_counter()
        assert riemgrid.cli.cmd_lift is not original
    assert riemgrid.cli.cmd_lift is original  # every rebinding is undone
    assert traced == plain

    tracer.write(tmp_path / "spans.jsonl", t0)
    written = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [w["name"] for w in written] == [s.name for s in tracer.spans]

    metrics = tracer.layer_metrics(t0, t1)
    assert metrics["cli.lift.wall_s"] > 0.0
    assert metrics["slicing.slice_decompose.calls"] >= 5  # one per lifted step, nested under lift
    assert metrics["slicing.horizontal_lift.calls"] == 1
    assert metrics["fileio.bytes_written"] > 0
    assert metrics["geodesics.ebin_exp.steps"] >= metrics["geodesics.ebin_exp.calls"]
    # layer self times plus the time outside every span make up the traced wall time
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["driver.self_s"]
    assert abs(total - (t1 - t0)) <= 1e-9 * max(1.0, t1 - t0) + 1e-12
