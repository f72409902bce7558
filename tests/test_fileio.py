"""Field files and reports: bit-exact roundtrips, validation, determinism."""

import numpy as np
import pytest

from riemgrid.diffeos import flow_exp
from riemgrid.errors import FormatError, ValidationError
from riemgrid.fileio import Report, read_field, read_field_meta, write_field, write_report
from riemgrid.grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    identity_metric,
)
from riemgrid.sampling import random_sym_tensor, random_vector_field

SPEC = GridSpec(16)


def test_roundtrip_identity_metric(tmp_path):
    path = tmp_path / "gamma.rgf"
    write_field(path, identity_metric(SPEC))
    back = read_field(path)
    assert isinstance(back, MetricField)
    assert np.array_equal(back.as_stack(), identity_metric(SPEC).as_stack())


def test_roundtrip_random_symtensor_bitexact(tmp_path):
    s = random_sym_tensor(SPEC, 99, amplitude=0.7)
    path = tmp_path / "s.rgf"
    write_field(path, s)
    back = read_field(path)
    assert isinstance(back, SymTensorField)
    assert back.values[0].tobytes() == s.values[0].tobytes()
    assert back.values[1].tobytes() == s.values[1].tobytes()
    assert back.values[2].tobytes() == s.values[2].tobytes()


def test_roundtrip_vector_scalar_diffeo(tmp_path):
    v = random_vector_field(SPEC, 7, amplitude=0.1)
    write_field(tmp_path / "v.rgf", v)
    assert np.array_equal(read_field(tmp_path / "v.rgf").as_stack(), v.as_stack())

    f = ScalarField(SPEC, np.linspace(0, 1, 256).reshape(16, 16))
    write_field(tmp_path / "f.rgf", f)
    assert np.array_equal(read_field(tmp_path / "f.rgf").values, f.values)

    phi = flow_exp(random_vector_field(SPEC, 8, amplitude=0.02, max_mode=2), 1.0)
    write_field(tmp_path / "phi.rgf", phi)
    back = read_field(tmp_path / "phi.rgf")
    assert np.array_equal(back.u.as_stack(), phi.u.as_stack())
    # the inverse is recomputed on load, not stored
    assert np.max(np.abs(back.v.as_stack() - phi.v.as_stack())) <= 1e-11


def test_metric_kind_is_validated_on_load(tmp_path):
    s = SymTensorField.from_arrays(SPEC, np.full((16, 16), 1.0), np.zeros((16, 16)), np.ones((16, 16)))
    path = tmp_path / "bad.rgf"
    write_field(path, s)
    raw = path.read_bytes().replace(b"kind = symtensor", b"kind = metric")
    raw = raw.replace(b"components = s11 s12 s22", b"components = g11 g12 g22")
    # flip a sample of g11 to -1: header is ascii, payload little-endian f8
    head_end = raw.find(b"---\n") + 4
    bad = bytearray(raw)
    bad[head_end : head_end + 8] = np.float64(-1.0).tobytes()
    path.write_bytes(bytes(bad))
    with pytest.raises(ValidationError):
        read_field(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.rgf"
    path.write_bytes(b"not-a-field 1\n---\n")
    with pytest.raises(FormatError):
        read_field(path)


def test_newer_version_rejected(tmp_path):
    path = tmp_path / "future.rgf"
    write_field(path, identity_metric(SPEC))
    raw = path.read_bytes().replace(b"riemgrid-field 1", b"riemgrid-field 2")
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        read_field(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.rgf"
    write_field(path, identity_metric(SPEC))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValidationError):
        read_field(path)


@pytest.mark.parametrize("n", [-4, 2])
def test_resolution_below_four_rejected(tmp_path, n):
    # the payload holds 3 n^2 samples, so its size matches the header
    path = tmp_path / "tiny.rgf"
    header = f"riemgrid-field 1\nkind = metric\nn = {n}\ncomponents = g11 g12 g22\n---\n"
    path.write_bytes(header.encode("ascii") + np.repeat([1.0, 0.0, 1.0], n * n).astype("<f8").tobytes())
    with pytest.raises(FormatError, match="resolution"):
        read_field(path)


def _file(kind="metric", n="16", components="g11 g12 g22", payload=None) -> bytes:
    header = f"riemgrid-field 1\nkind = {kind}\nn = {n}\ncomponents = {components}\n---\n"
    if payload is None:
        payload = np.repeat([1.0, 0.0, 1.0], 16 * 16)
    return header.encode("ascii") + np.asarray(payload, dtype="<f8").tobytes()


def _folding_map_payload() -> np.ndarray:
    # u1 = 1.5 sin(2 pi x) / 2 pi gives det(I + Du) = 1 + 1.5 cos(2 pi x), negative near x = 1/2
    x, _ = SPEC.cell_centers()
    return np.stack([1.5 * np.sin(2 * np.pi * x) / (2 * np.pi), np.zeros_like(x)])


def test_hand_written_file_is_read(tmp_path):
    # the well-formed file that each case below breaks in one place
    path = tmp_path / "good.rgf"
    path.write_bytes(_file())
    assert np.array_equal(read_field(path).as_stack(), identity_metric(SPEC).as_stack())


@pytest.mark.parametrize(
    "raw, error, match",
    [
        (b"riemgrid-field 1\nkind = metric\n", FormatError, "missing header terminator"),
        (b"---\n", FormatError, "empty header"),
        (b"riemgrid-field x\n---\n", FormatError, "bad version"),
        (b"riemgrid-field 1\nkind=metric\n---\n", FormatError, "malformed header line"),
        (_file(kind="spinor"), FormatError, "unknown kind"),
        (_file(n="x"), FormatError, "bad resolution"),
        (_file(components="s11 s12 s22"), FormatError, "do not match kind"),
        (_file(payload=np.repeat([1.0, np.nan, 1.0], 16 * 16)), ValidationError, "non-finite"),
        (_file("diffeo", components="u1 u2", payload=_folding_map_payload()), ValidationError, "fails its invariants"),
    ],
    ids=["no-terminator", "empty-header", "bad-version", "no-separator", "unknown-kind", "bad-n", "components",
         "nan-payload", "folding-map"],
)
def test_malformed_file_rejected(tmp_path, raw, error, match):
    path = tmp_path / "bad.rgf"
    path.write_bytes(raw)
    with pytest.raises(error, match=match):
        read_field(path)


def test_meta_roundtrip(tmp_path):
    path = tmp_path / "p.rgf"
    write_field(path, identity_metric(SPEC), meta={"t": "0.25", "label": "start"})
    _, meta = read_field_meta(path)
    assert meta == {"t": "0.25", "label": "start"}


def test_report_empty_is_header_only(tmp_path):
    report = Report("empty")
    assert report.render() == "# empty\n"
    write_report(tmp_path / "r.txt", report)
    assert (tmp_path / "r.txt").read_text() == "# empty\n"


def test_report_schema_and_formatting():
    report = Report("decompose")
    report.add("residual", 1.25e-07).add("iterations", 4).add("passed", True)
    report.add_table("rows", ("k", "value"), [(0, 0.5), (1, 0.25)])
    text = report.render()
    assert "residual = 1.25e-07" in text
    assert "iterations = 4" in text
    assert "passed = true" in text
    assert "## rows" in text


def test_report_determinism():
    def build():
        r = Report("same")
        r.add("a", 0.1 + 0.2)
        r.add("b", np.float64(1.0) / 3.0)
        r.add_table("t", ("x",), [(np.float64(2.0) ** 0.5,)])
        return r.render()

    assert build() == build()


def test_written_fields_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.rgf", tmp_path / "b.rgf"
    write_field(a, random_sym_tensor(SPEC, 5, amplitude=0.3), meta={"seed": "5"})
    write_field(b, random_sym_tensor(SPEC, 5, amplitude=0.3), meta={"seed": "5"})
    assert a.read_bytes() == b.read_bytes()
