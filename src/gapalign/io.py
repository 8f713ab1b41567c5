"""Reading, writing, and streaming of embedding matrices plus statistics artifacts.

Two on-disk embedding formats are supported:

* ``emb1`` -- native binary: magic ``EMB1``, u32 version (=1), u32 dtype
  code (0 = float32, 1 = float64), u64 rows, u32 dims, u32 reserved (=0),
  followed by the row-major little-endian payload.  Bit-exact and
  seekable, so it can be streamed in fixed-size row batches.
* ``csv`` -- one row per line, comma-separated decimal floats; ``#``
  comments and blank lines are skipped.  Loading always promotes to
  float64.  Whole-file reads and streamed batches parse the same way:
  ``np.loadtxt`` over a fixed number of lines at a time.

Statistics artifacts (moment summaries, reference frames, calibrated
alignment operators) persist as a human-readable JSON key/value tree.
Floats are rendered with shortest round-trip precision, so float64
payloads survive a save/load cycle bit-exactly.

Every persisted type is a dataclass derived from ``Payload``, and one
codec reads its fields.  Encoding writes each ``init`` field: arrays as
nested lists, numpy scalars as Python scalars and nested payloads as
their own trees; derived non-init fields are not written.  Decoding
checks that the payload is a JSON object holding every field except
those that default to None, decodes nested payloads and hands the rest
to the constructor, whose ``__post_init__`` validates shapes,
finiteness and scalar types.  Every failure is a ``DataFormatError``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import stat
import struct
import tempfile
import typing
import warnings
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterator

import numpy as np

from .errors import ArtifactVersionError, DataFormatError

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sIIQII")  # magic, version, dtype code, rows, dims, reserved
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_OF_DTYPE = {np.dtype("float32"): 0, np.dtype("float64"): 1}

ARTIFACT_SCHEMA_VERSION = 1

# Rows per block for every row-blocked pass: finiteness checks here, the gap
# decomposition, and the realign and blockwise operators.  Blocking bounds
# each pass's temporaries to one block.  On 50k x 768 float32 rows (2-core
# host), realign apply took 1.0 s whole-array, 0.6 s at 1,024 rows and 0.8 s
# at 8,192; blockwise estimate/apply took 3.5/1.6 s at 1,024 rows and
# 3.6/1.9 s at 8,192, while 256 rows slowed the covariance GEMMs.
_ROW_BLOCK = 1024


def row_blocks(n: int) -> Iterator[slice]:
    """Slices of ``_ROW_BLOCK`` rows covering ``range(n)`` in order.

    A lone trailing row joins the block before it: numpy multiplies a
    one-row matrix as a matrix-vector product, whose rounding differs from
    the matrix product's.  Whether a blocked GEMM then rounds every row as
    the whole-array GEMM does depends on the shapes: it does for the
    shapes the tests pin and for the benchmark's 768 x 71 frame, but not
    for, for example, 3,000 x 64 rows times a 64 x 10 basis.
    """
    lo = 0
    while lo < n:
        hi = n if n - lo <= _ROW_BLOCK + 1 else lo + _ROW_BLOCK
        yield slice(lo, hi)
        lo = hi


@dataclass
class EmbeddingSet:
    """A set of N row embeddings in d dimensions.

    ``data`` is an (N, d) float32 or float64 array; every entry of a
    successfully loaded set is finite.  ``modality_tag`` is free-form
    caller metadata and is not persisted by the binary format.
    """

    data: np.ndarray
    modality_tag: str = ""

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data)
        if self.data.ndim != 2:
            raise DataFormatError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if self.data.dtype not in (np.float32, np.float64):
            raise DataFormatError(f"unsupported dtype {self.data.dtype}; use float32 or float64")
        if self.dims < 1:
            raise DataFormatError("embedding sets need at least one dimension")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        return self.data.shape[1]

    def validate_finite(self, row_offset: int = 0) -> None:
        """Raise ``DataFormatError`` naming the first non-finite row, if any."""
        for block in row_blocks(self.rows):
            good = np.isfinite(self.data[block]).all(axis=1)
            if not good.all():
                bad = block.start + int(np.argmin(good))
                raise DataFormatError(f"non-finite value in row {row_offset + bad}")


def as_matrix(obj) -> np.ndarray:
    """Return the (N, d) array behind an ``EmbeddingSet`` or array-like."""
    if isinstance(obj, EmbeddingSet):
        return obj.data
    arr = np.asarray(obj)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DataFormatError(f"expected a matrix of row embeddings, got shape {arr.shape}")
    return arr


def _checked(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape``.

    A ``None`` entry of ``shape`` matches any length >= 1.  An empty value
    takes an expected zero-size shape, since JSON stores a 0 x 0 matrix as
    ``[]``.  Every entry must be a number: strings and bools, which numpy
    would convert, are a ``DataFormatError`` naming the field, as are
    values numpy cannot convert (a dict, a ragged list).  A JSON null reads
    as NaN and fails the finiteness check.
    """
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
        odd = {k.__name__ for k in set(map(type, np.asarray(value, dtype=object).ravel().tolist()))
               if k is bool or not issubclass(k, (int, float, np.number, type(None)))}
        if odd:
            raise DataFormatError(f"{name} is not a numeric array (holds {', '.join(sorted(odd))})")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{name} is not a numeric array ({exc})") from exc
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)
    if arr.ndim != len(shape) or any(
        got != want if want is not None else got < 1 for got, want in zip(arr.shape, shape)
    ):
        want = str(shape).replace("None", "any")
        raise DataFormatError(f"{name} has shape {arr.shape}, expected {want}")
    if not np.isfinite(arr).all():
        raise DataFormatError(f"{name} contains non-finite entries")
    return arr


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ``DataFormatError`` unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DataFormatError(f"{name} must be an integer >= {minimum}, got {value!r}")


class Payload:
    """Base of the dataclasses persisted as artifact payloads.

    A subclass names its artifact kind once, as in ``class
    ModalityStats(Payload, kind="modality_stats")``, and gets
    ``to_payload`` and a static ``from_payload`` from the field-driven
    codec described in the module docstring.  ``from_payload`` is a
    staticmethod bound to each subclass, not a classmethod, so it can be
    wrapped per class as a plain function (``perfbench/tracer.py`` does).
    Nested payloads go through their own class's methods.
    """

    def __init_subclass__(cls, kind: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = kind

        def from_payload(payload):
            """Decode a JSON tree written by ``to_payload``; ``DataFormatError`` if malformed."""
            if not isinstance(payload, dict):
                raise DataFormatError(f"{kind} payload must be a JSON object, "
                                      f"got {type(payload).__name__}")
            for name, required, _ in _codec_fields(cls):
                if required and name not in payload:
                    raise DataFormatError(f"{kind} payload missing field {name!r}")
            return cls(**{name: nested.from_payload(payload[name]) if nested else payload[name]
                          for name, _, nested in _codec_fields(cls) if name in payload})

        cls.from_payload = staticmethod(from_payload)

    def to_payload(self) -> dict:
        """The JSON-compatible tree of every ``init`` field."""
        out = {}
        for name, _, nested in _codec_fields(type(self)):
            value = getattr(self, name)
            if nested:
                value = value.to_payload()
            elif isinstance(value, (np.ndarray, np.generic)):
                value = value.tolist()
            out[name] = value
        return out


@cache
def _codec_fields(cls) -> tuple:
    """(name, required, nested payload class or None) for each ``init`` field of ``cls``.

    Only a field whose default is None may be absent from a payload, and
    reads as None.  Any other field is required: the encoder always writes
    it, and a default such as ``floored=False`` would be a guess.
    """
    hints = typing.get_type_hints(cls)
    nested = {name: hint for name, hint in hints.items()
              if isinstance(hint, type) and issubclass(hint, Payload)}
    return tuple((f.name, f.default is not None, nested.get(f.name)) for f in fields(cls) if f.init)


def _infer_format(path: str, format: str | None) -> str:
    if format is not None:
        if format not in ("emb1", "csv"):
            raise DataFormatError(f"unknown embedding format {format!r}")
        return format
    if str(path).endswith(".csv"):
        return "csv"
    return "emb1"


def _atomic_write(path: str, write_fn) -> None:
    """Write through a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_header(fh, path: str):
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: file too short for header")
    magic, version, code, rows, dims, reserved = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    if code not in _DTYPE_CODES:
        raise DataFormatError(f"{path}: unknown dtype code {code}")
    if dims < 1:
        raise DataFormatError(f"{path}: header dims must be >= 1, got {dims}")
    if reserved != 0:
        raise DataFormatError(f"{path}: reserved header field must be 0")
    return _DTYPE_CODES[code], rows, dims


def _payload_size(fh) -> int | None:
    """Bytes after the header of a regular file; None for streams of unknown size.

    Called before any payload allocation, so a header claiming more rows
    or dims than the file holds is an error instead of a huge allocation.
    """
    st = os.fstat(fh.fileno())
    return st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else None


def _native(payload: np.ndarray) -> np.ndarray:
    return payload if payload.dtype.isnative else payload.astype(payload.dtype.newbyteorder("="))


def read_embeddings(path: str, format: str | None = None, modality_tag: str = "") -> EmbeddingSet:
    """Load a full embedding set, validating header consistency and finiteness.

    Parameters
    ----------
    path : str
        Input file.
    format : {"emb1", "csv", None}
        Explicit format; inferred from the extension when None.
    modality_tag : str
        Tag attached to the returned set.

    Raises
    ------
    DataFormatError
        Malformed header, truncated payload, or a non-finite value
        (the message names the offending row index).
    """
    fmt = _infer_format(path, format)
    if fmt == "csv":
        batches = [batch.data for batch in _iter_csv_batches(path, _ROW_BLOCK, modality_tag)]
        if not batches:
            raise DataFormatError(f"{path}: empty CSV has no dimension information")
        return EmbeddingSet(np.concatenate(batches), modality_tag)

    with open(path, "rb") as fh:
        dtype, rows, dims, payload = _read_emb1_payload(fh, path)
    out = EmbeddingSet(payload.reshape(rows, dims), modality_tag)
    out.validate_finite()
    return out


def _read_emb1_payload(fh, path: str):
    dtype, rows, dims = _read_header(fh, path)
    expected = rows * dims * dtype.itemsize
    size = _payload_size(fh)
    if size is not None and size != expected:
        raise DataFormatError(f"{path}: payload has {size} bytes, header implies {expected}")
    payload = np.empty((rows, dims), dtype=dtype)
    got = fh.readinto(payload)
    if got != expected or fh.read(1):
        raise DataFormatError(f"{path}: payload is not the {expected} bytes the header implies")
    return dtype, rows, dims, _native(payload)


def iter_embedding_batches(
    path: str, batch_rows: int, format: str | None = None, modality_tag: str = ""
) -> Iterator[EmbeddingSet]:
    """Stream an embedding file as batches of at most ``batch_rows`` rows.

    Visits every row exactly once, in file order, without materializing
    the full matrix.  Each batch is validated for finiteness; errors
    report the global row index.
    """
    if batch_rows < 1:
        raise ValueError("batch_rows must be >= 1")
    fmt = _infer_format(path, format)
    if fmt == "csv":
        yield from _iter_csv_batches(path, batch_rows, modality_tag)
        return

    with open(path, "rb") as fh:
        dtype, rows, dims = _read_header(fh, path)
        row_bytes = dims * dtype.itemsize
        size = _payload_size(fh)
        if size is not None and size < rows * row_bytes:
            whole_batches = size // row_bytes // batch_rows
            raise DataFormatError(f"{path}: truncated payload at row {whole_batches * batch_rows}")
        if size is not None and size > rows * row_bytes:
            raise DataFormatError(f"{path}: trailing bytes beyond declared payload")
        seen = 0
        while seen < rows:
            take = min(batch_rows, rows - seen)
            data = np.empty((take, dims), dtype=dtype)
            if fh.readinto(data) != take * row_bytes:
                raise DataFormatError(f"{path}: truncated payload at row {seen}")
            batch = EmbeddingSet(_native(data), modality_tag)
            batch.validate_finite(row_offset=seen)
            yield batch
            seen += take
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes beyond declared payload")


def _iter_csv_batches(path: str, batch_rows: int, modality_tag: str):
    """``np.loadtxt`` on ``batch_rows`` lines at a time; every row as wide as the first."""
    dims, row = None, 0
    with open(path, "rb") as fh:
        for first_line in itertools.count(1, batch_rows):
            lines = list(itertools.islice(fh, batch_rows))
            if not lines:
                return
            data = _parse_csv(lines)
            if data is None or (dims and data.size and data.shape[1] != dims):
                for number, line in enumerate(lines, first_line):
                    one = _parse_csv([line])
                    if one is None:
                        raise DataFormatError(f"{path}: malformed CSV at line {number}")
                    dims = dims or (one.shape[1] if one.size else None)
                    if one.size and one.shape[1] != dims:
                        raise DataFormatError(f"{path}: line {number} has {one.shape[1]} "
                                              f"columns, expected {dims}")
            if data.size:
                dims = data.shape[1]
                batch = EmbeddingSet(data, modality_tag)
                batch.validate_finite(row_offset=row)
                yield batch
                row += batch.rows


def _parse_csv(lines: list) -> np.ndarray | None:
    """``lines`` as a float64 matrix, or None if ``np.loadtxt`` rejects them."""
    with warnings.catch_warnings():  # lines holding only comments or blanks are no error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError:
            return None


def write_embeddings(embeddings: EmbeddingSet, path: str, format: str | None = None) -> None:
    """Write an embedding set; a re-read returns identical values.

    Binary writes are bit-exact.  CSV uses shortest round-trip decimal
    rendering, so float64 values also survive exactly and float32 values
    round-trip at float32 precision.
    """
    fmt = _infer_format(path, format)
    if fmt == "csv":
        def write_csv(fh):
            digits = 17 if embeddings.data.dtype == np.float64 else 9
            for row in embeddings.data:
                fh.write((",".join(f"{v:.{digits}g}" for v in row) + "\n").encode())
        _atomic_write(path, write_csv)
        return

    code = _CODE_OF_DTYPE[embeddings.data.dtype]
    header = _HEADER.pack(_MAGIC, 1, code, embeddings.rows, embeddings.dims, 0)
    payload = np.ascontiguousarray(embeddings.data, dtype=embeddings.data.dtype.newbyteorder("<"))

    def write_bin(fh):
        fh.write(header)
        fh.write(payload)  # straight from the array's buffer, without a bytes copy

    _atomic_write(path, write_bin)


@dataclass
class StatsArtifact:
    """A persisted statistics payload with schema version and provenance.

    ``kind`` names the payload type (for example ``modality_stats`` or
    ``reference_frame``), as the type's ``Payload.kind`` does; ``payload``
    is the JSON-compatible tree the shared codec builds from the type's
    dataclass fields (``to_payload``) and reads back (``from_payload``).
    """

    kind: str
    payload: dict
    provenance: dict = field(default_factory=dict)
    schema_version: int = ARTIFACT_SCHEMA_VERSION


def save_artifact(artifact: StatsArtifact, path: str) -> None:
    doc = {
        "schema_version": artifact.schema_version,
        "kind": artifact.kind,
        "payload": artifact.payload,
        "provenance": artifact.provenance,
    }
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    _atomic_write(path, lambda fh: fh.write(text.encode()))


def load_artifact(path: str) -> StatsArtifact:
    """Load an artifact; unknown schema versions are an explicit error."""
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise DataFormatError(f"{path}: corrupt artifact ({exc})") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise DataFormatError(f"{path}: not a statistics artifact")
    version = doc["schema_version"]
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactVersionError(
            f"{path}: schema_version {version} is not supported (expected {ARTIFACT_SCHEMA_VERSION})"
        )
    try:
        return StatsArtifact(
            kind=doc["kind"],
            payload=doc["payload"],
            provenance=doc.get("provenance", {}),
            schema_version=version,
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: artifact missing field {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write a text file through a temp file plus rename."""
    _atomic_write(path, lambda fh: fh.write(text.encode()))


def file_digest(path: str) -> str:
    """Hex SHA-256 of a file, for report provenance."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
