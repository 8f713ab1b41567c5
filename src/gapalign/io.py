"""Reading, writing, and streaming of embedding matrices plus statistics artifacts.

Two on-disk embedding formats are supported:

* ``emb1`` -- native binary: magic ``EMB1``, u32 version (=1), u32 dtype
  code (0 = float32, 1 = float64), u64 rows, u32 dims, u32 reserved (=0),
  followed by the row-major little-endian payload.  Bit-exact and
  seekable, so it can be streamed in fixed-size row batches.
* ``csv`` -- one row per line, comma-separated decimal floats.  Loading
  always promotes to float64.

Statistics artifacts (moment summaries, reference frames, calibrated
alignment operators) persist as a human-readable JSON key/value tree.
Floats are rendered with shortest round-trip precision, so float64
payloads survive a save/load cycle bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import struct
import tempfile
from dataclasses import dataclass, field
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
    """``value`` as a float64 array, which must have ``shape`` and be finite."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise DataFormatError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise DataFormatError(f"{name} contains non-finite entries")
    return arr


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
        try:
            data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed CSV ({exc})") from exc
        if data.size == 0:
            raise DataFormatError(f"{path}: empty CSV has no dimension information")
        out = EmbeddingSet(data, modality_tag)
        out.validate_finite()
        return out

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
    buf: list[np.ndarray] = []
    offset = 0
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                row = np.array([float(tok) for tok in line.split(",")], dtype=np.float64)
            except ValueError as exc:
                raise DataFormatError(f"{path}: malformed CSV at line {lineno + 1}") from exc
            buf.append(row)
            if len(buf) == batch_rows:
                yield _flush_csv_batch(path, buf, offset, modality_tag)
                offset += len(buf)
                buf = []
    if buf:
        yield _flush_csv_batch(path, buf, offset, modality_tag)


def _flush_csv_batch(path, buf, offset, modality_tag):
    dims = {len(r) for r in buf}
    if len(dims) != 1:
        raise DataFormatError(f"{path}: inconsistent column counts near row {offset}")
    batch = EmbeddingSet(np.vstack(buf), modality_tag)
    batch.validate_finite(row_offset=offset)
    return batch


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
    ``reference_frame``); ``payload`` is the type's own JSON-compatible
    tree built by its ``to_payload``/``from_payload`` pair.
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
    text = json.dumps(doc, indent=1, sort_keys=True)

    def write(fh):
        fh.write(text.encode())
        fh.write(b"\n")

    _atomic_write(path, write)


def load_artifact(path: str) -> StatsArtifact:
    """Load an artifact; unknown schema versions are an explicit error."""
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
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
