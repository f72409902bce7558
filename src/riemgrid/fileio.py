"""On-disk formats: binary field files with a text header, and text reports.

A field file is a short human-readable header followed by the raw samples as
row-major little-endian float64, one block per component, so roundtrips are
bit-exact.  Files with a higher major format version are rejected, never
misread.  Report files are plain deterministic text: identical inputs and
seeds produce byte-identical bytes.
"""

from __future__ import annotations

import io as _io
from pathlib import Path

import numpy as np

from .diffeos import DiffeoGrid, from_displacement
from .errors import FormatError, PositivityLoss, RiemgridError, ValidationError
from .grid import GridSpec, MetricField, ScalarField, SymTensorField, VectorField

_MAGIC = "riemgrid-field"
_VERSION = 1

_KIND_COMPONENTS = {
    "scalar": ("f",),
    "vector": ("v1", "v2"),
    "symtensor": ("s11", "s12", "s22"),
    "metric": ("g11", "g12", "g22"),
    "diffeo": ("u1", "u2"),
}

_KIND_TYPES = {
    "scalar": ScalarField,
    "vector": VectorField,
    "symtensor": SymTensorField,
    "metric": MetricField,
}


def _kind_and_stack(field):
    if isinstance(field, DiffeoGrid):  # the forward displacement; the inverse is solved on its first read
        return "diffeo", field.u.as_stack()
    for kind, cls in _KIND_TYPES.items():
        if isinstance(field, cls):
            return kind, field.as_stack()
    raise TypeError(f"cannot serialize {type(field).__name__}")


def _from_stack(kind: str, spec: GridSpec, data: np.ndarray):
    if kind == "scalar":
        return ScalarField(spec, data[0])
    if kind == "diffeo":
        return from_displacement(spec, VectorField(spec, data))
    return _KIND_TYPES[kind].from_stack(spec, data)


def write_field(path, field, meta: dict | None = None) -> None:
    """Write a field file; meta entries become extra `key = value` header lines."""
    kind, stack = _kind_and_stack(field)
    n = stack.shape[-1]
    header = _io.StringIO()
    header.write(f"{_MAGIC} {_VERSION}\n")
    header.write(f"kind = {kind}\n")
    header.write(f"n = {n}\n")
    header.write(f"components = {' '.join(_KIND_COMPONENTS[kind])}\n")
    for key in sorted(meta or {}):
        header.write(f"meta.{key} = {(meta or {})[key]}\n")
    header.write("---\n")
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("ascii"))
        fh.write(np.ascontiguousarray(stack, dtype="<f8").tobytes())


def _parse_header(raw: bytes, path) -> tuple:
    end = raw.find(b"---\n")
    if end < 0:
        raise FormatError(f"{path}: missing header terminator")
    lines = raw[:end].decode("ascii", errors="replace").splitlines()
    if not lines:
        raise FormatError(f"{path}: empty header")
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != _MAGIC:
        raise FormatError(f"{path}: bad magic line {lines[0]!r}")
    try:
        version = int(magic[1])
    except ValueError:
        raise FormatError(f"{path}: bad version {magic[1]!r}")
    if version > _VERSION:
        raise FormatError(f"{path}: format version {version} is newer than supported {_VERSION}")
    fields: dict[str, str] = {}
    meta: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise FormatError(f"{path}: malformed header line {line!r}")
        if key.startswith("meta."):
            meta[key[5:]] = value
        else:
            fields[key] = value
    return fields, meta, raw[end + 4 :]


def read_field_meta(path):
    """Read a field file, returning (field, meta dict)."""
    raw = Path(path).read_bytes()
    fields, meta, payload = _parse_header(raw, path)
    kind = fields.get("kind")
    if kind not in _KIND_COMPONENTS:
        raise FormatError(f"{path}: unknown kind {kind!r}")
    try:
        n = int(fields.get("n", ""))
    except ValueError:
        raise FormatError(f"{path}: bad resolution {fields.get('n')!r}")
    if n < 4:
        raise FormatError(f"{path}: resolution {n} is below 4")
    comps = _KIND_COMPONENTS[kind]
    declared = tuple(fields.get("components", "").split())
    if declared != comps:
        raise FormatError(f"{path}: components {declared} do not match kind {kind}")
    expected = len(comps) * n * n * 8
    if len(payload) != expected:
        raise ValidationError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<f8").reshape(len(comps), n, n)
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: payload contains non-finite samples")

    try:
        field = _from_stack(kind, GridSpec(n), data)
    except PositivityLoss as e:
        raise ValidationError(f"{path}: {e}") from e
    except RiemgridError as e:
        raise ValidationError(f"{path}: stored map fails its invariants: {e}") from e
    return field, meta


def read_field(path):
    """Read a field file; the payload roundtrips write_field bit-exactly."""
    return read_field_meta(path)[0]


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


class Report:
    """Ordered key/value pairs plus simple tables, rendered deterministically."""

    def __init__(self, title: str):
        self.title = title
        self._items: list[tuple[str, object]] = []
        self._tables: list[tuple[str, tuple, list]] = []

    def add(self, key: str, value) -> "Report":
        self._items.append((key, value))
        return self

    def add_table(self, name: str, columns, rows) -> "Report":
        self._tables.append((name, tuple(columns), [tuple(r) for r in rows]))
        return self

    def render(self) -> str:
        out = _io.StringIO()
        out.write(f"# {self.title}\n")
        for key, value in self._items:
            out.write(f"{key} = {_format_value(value)}\n")
        for name, columns, rows in self._tables:
            out.write(f"\n## {name}\n")
            out.write("\t".join(columns) + "\n")
            for row in rows:
                out.write("\t".join(_format_value(v) for v in row) + "\n")
        return out.getvalue()


def write_report(path, report: Report) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report.render())
