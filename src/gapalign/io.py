"""Reading, writing, and streaming of embedding matrices plus statistics artifacts.

Two on-disk embedding formats are supported, told apart by one rule: a
path ending in ``.csv`` is CSV, and every other path is emb1.

* ``emb1`` -- native binary: magic ``EMB1``, u32 version (=1), u32 dtype
  code (0 = float32, 1 = float64), u64 rows, u32 dims, u32 reserved (=0),
  followed by the row-major little-endian payload.  Bit-exact and
  seekable, so it can be streamed in fixed-size row batches, and
  ``read_embeddings(path, rows=slice(lo, hi))`` reads one row range.
* ``csv`` -- one row per line, comma-separated decimal floats; ``#``
  comments and empty lines are skipped, but a line holding only spaces
  or tabs is malformed.  Loading always promotes to
  float64.  Whole-file reads and streamed batches parse the same way:
  ``np.loadtxt`` over a fixed number of lines at a time.

Row-blocked passes read their inputs through a row source: anything
with ``shape``, ``ndim``, ``dtype`` and row-range slicing, sliced one
block at a time.  An in-memory array is one.  ``EmbeddingFile`` is one
over a regular emb1 file: each slice reads just those rows, so a pass
holds one block of the file however many rows it has.  Every read (a
whole file, a row range, a batch or a slice) returns a new array that
the caller owns.  ``row_source`` opens a path as one or the other, and
``RowMap`` maps a function over a source's row blocks.
``write_embeddings`` writes any row source one block at a time, so an
output computed block by block is written as it is computed and never
held whole.  Rows are plain arrays: ``EmbeddingSet`` is only a name for
``np.ascontiguousarray``, kept while the benchmark's fixture writer
(``perfbench/workloads.py``) still wraps its rows in it.

Statistics artifacts (moment summaries, reference frames, calibrated
alignment operators) persist as a JSON file plus the ``.npy`` sidecars
it names, in the same directory; they move together.  In schema v2 the
JSON holds every scalar and every 1-D array inline, floats in shortest
round-trip form.  Each non-empty 2-D array (a covariance, a frame basis,
an operator block) is a little-endian float64 ``.npy`` file named
``<json name>.<field path>.npy``.  The JSON holds a reference in its
place: ``{"npy": name, "shape": [...], "dtype": "<f8", "sha256": ...}``.
Saving writes the sidecars first, each atomically, and the JSON last.
Loading checks a reference's name, the file type and the file size
before it allocates, then the ``.npy`` header and the SHA-256 of the
whole file.  So a torn or mixed set of files is a ``DataFormatError``,
never another artifact's matrix.  Both forms are bit-exact.  v1
artifacts, one JSON file with every value inline, still load, and any
v2 field may also be given inline.

Every persisted type is a dataclass derived from ``Payload``, and one
codec reads its fields.  Encoding gives each ``init`` field: arrays as
arrays, numpy scalars as Python scalars and nested payloads as their
own trees; derived non-init fields are not written.  Decoding checks
that the payload is a JSON object holding every field except those that
default to None, decodes nested payloads and hands the rest to the
constructor, whose ``__post_init__`` validates shapes, finiteness and
scalar types.  Every failure is a ``DataFormatError``.  Each payload
array passes through ``_checked``, which holds it as C-order float64,
the layout of its sidecar: a fitted value and its loaded copy compute
the same bits.
"""

from __future__ import annotations

import contextlib
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

from .errors import ArtifactVersionError, DataFormatError, DegenerateInputError

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sIIQII")  # magic, version, dtype code, rows, dims, reserved
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_OF_DTYPE = {np.dtype("float32"): 0, np.dtype("float64"): 1}

ARTIFACT_SCHEMA_VERSION = 2
_SIDECAR_DTYPE = np.dtype("<f8")
_SIDECAR_KEYS = {"npy", "shape", "dtype", "sha256"}

# Rows per block by default (``row_blocks``): finiteness checks here, the gap
# decomposition, and the realign and blockwise operators.  Blocking bounds
# each pass's temporaries to one block.  On 50k x 768 float32 rows (2-core
# host), realign apply took 1.0 s whole-array, 0.6 s at 1,024 rows and 0.8 s
# at 8,192; blockwise estimate/apply took 3.5/1.6 s at 1,024 rows and
# 3.6/1.9 s at 8,192, while 256 rows slowed the covariance GEMMs.
_ROW_BLOCK = 1024
_MIN_TAIL = 3  # a trailing block narrower than this joins the one before it
_STREAM_CHUNK = 1 << 20  # bytes read from an emb1 stream at a time
_NORM_ROWS = 128  # rows whose squares ``_row_norms`` forms at a time


def row_blocks(n: int, size: int = _ROW_BLOCK) -> Iterator[slice]:
    """Slices of ``size`` rows covering ``range(n)`` in order; every blocked pass walks these.

    A trailing block narrower than ``_MIN_TAIL`` rows joins the one before
    it: BLAS multiplies operands 1 or 2 rows wide by other kernels (numpy
    takes one row as a matrix-vector product), whose rounding differs from
    the wide product's.  Whether a blocked GEMM then rounds every row as
    the whole-array GEMM does depends on the shapes: it does for the
    shapes the tests pin and for the benchmark's 768 x 71 frame, but not
    for, for example, 3,000 x 64 rows times a 64 x 10 basis.
    """
    lo = 0
    while lo < n:
        hi = n if n - lo < size + _MIN_TAIL else lo + size
        yield slice(lo, hi)
        lo = hi


def _widest_block(n: int, size: int = _ROW_BLOCK) -> int:
    """The most rows a block of ``row_blocks(n, size)`` holds."""
    return min(n, size + _MIN_TAIL - 1)


def _finite(rows, message: str, first_row: int = 0) -> np.ndarray:
    """``rows`` as a matrix; ``DataFormatError(message.format(i))`` if row i is non-finite.

    ``i`` is the first such row, counted from ``first_row``.
    """
    rows = as_matrix(rows)
    for block in row_blocks(rows.shape[0]):
        good = np.isfinite(rows[block]).all(axis=1)
        if not good.all():
            raise DataFormatError(message.format(first_row + block.start + int(np.argmin(good))))
    return rows


def _row_norms(rows, what: str, first_row: int = 0, floor: float = 0.0) -> np.ndarray:
    """Each row's float64 norm, its squares formed ``_NORM_ROWS`` rows at a time in one buffer.

    So float32 rows are widened a piece at a time, and a row's sum of squares
    is the same reduction whatever piece holds it.  A norm below ``floor``,
    zero, overflowed or NaN raises ``DegenerateInputError("<what>: norm ...
    at row i")``, i the first such row counted from ``first_row``.
    """
    n = rows.shape[0]
    norms, squares = np.empty(n), np.empty((_widest_block(n, _NORM_ROWS), rows.shape[1]))
    with np.errstate(over="ignore"):  # an infinite norm is refused below
        for piece in row_blocks(n, _NORM_ROWS):
            part = squares[:piece.stop - piece.start]
            np.copyto(part, rows[piece])
            np.sqrt(np.square(part, out=part).sum(axis=1), out=norms[piece])
    bad = ~(norms >= floor) | (norms == 0) | (norms == np.inf)  # a NaN fails ``>=``
    if bad.any():
        i = int(np.argmax(bad))
        how = ("is NaN" if np.isnan(norms[i]) else "overflowed" if norms[i] == np.inf
               else f"collapsed below {floor}" if floor else "is zero")
        raise DegenerateInputError(f"{what}: norm {how} at row {first_row + i}")
    return norms


def _on_sphere(rows, what: str, tol: float, first_row: int = 0):
    """``rows``; ``DataFormatError`` naming the first row whose norm is off 1 by more than ``tol``.

    The norms come from ``_row_norms``, which refuses a zero, overflowing or NaN one first.
    """
    norms = _row_norms(rows, what, first_row)
    off = np.abs(norms - 1.0) > tol
    if off.any():
        i = int(np.argmax(off))
        raise DataFormatError(f"{what}: norm {norms[i]:.9g} is off the unit sphere by more "
                              f"than {tol:g} at row {first_row + i}")
    return rows


# the benchmark's fixture writer still wraps its rows in this name (module docstring)
EmbeddingSet = np.ascontiguousarray


def as_matrix(obj) -> np.ndarray:
    """An array-like as an (N, d) matrix, one row as a (1, d) matrix; row sources as they are."""
    if isinstance(obj, (EmbeddingFile, RowMap)):
        return obj
    arr = np.asarray(obj)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DataFormatError(f"expected a matrix of row embeddings, got shape {arr.shape}")
    return arr


def _checked(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a finite, C-ordered float64 array of ``shape``.

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
        arr = np.asarray(value, dtype=np.float64, order="C")
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
            """Decode a ``to_payload`` or loaded tree; ``DataFormatError`` if malformed."""
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
        """The tree of every ``init`` field; ``save_artifact`` writes it."""
        out = {}
        for name, _, nested in _codec_fields(type(self)):
            value = getattr(self, name)
            if nested:
                value = value.to_payload()
            elif isinstance(value, np.generic):
                value = value.item()
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


def _is_csv(path: str) -> bool:
    """Whether ``path`` names a CSV file (it ends in ``.csv``); every other path is emb1."""
    return str(path).endswith(".csv")


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


def _read_emb1_header(fh, path: str):
    """(dtype, rows, dims, stream) from the header; ``stream``: ``fh`` is no regular file.

    A regular file's payload size is checked here, before anything of its size is allocated.
    """
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
    dtype = _DTYPE_CODES[code]
    expected = rows * dims * dtype.itemsize
    if expected > np.iinfo(np.intp).max:
        raise DataFormatError(f"{path}: header claims {rows} x {dims} values, more bytes "
                              f"than can be addressed")
    st = os.fstat(fh.fileno())
    stream, size = not stat.S_ISREG(st.st_mode), st.st_size - _HEADER.size
    if not stream and size != expected:
        raise DataFormatError(f"{path}: payload has {size} bytes, header implies {expected}")
    return dtype, rows, dims, stream


def _read_rows(fh, rows: int, dims: int, dtype, stream: bool) -> np.ndarray | None:
    """The next ``rows`` rows of ``fh`` as a new array; None if the file ends first.

    A regular file, whose size was checked against its header, is read
    into one allocation.  A stream is read ``_STREAM_CHUNK`` bytes at a
    time, so memory grows with the bytes that arrive, not with the rows
    its header claims.
    """
    if not stream:
        data = np.empty((rows, dims), dtype=dtype)
        return data if fh.readinto(data) == data.nbytes else None
    want, buf = rows * dims * dtype.itemsize, bytearray()
    while len(buf) < want:
        chunk = fh.read(min(_STREAM_CHUNK, want - len(buf)))
        if not chunk:
            return None
        buf += chunk
    return np.frombuffer(buf, dtype=dtype).reshape(rows, dims)


def _native(payload: np.ndarray) -> np.ndarray:
    return payload if payload.dtype.isnative else payload.astype(payload.dtype.newbyteorder("="))


def read_embeddings(path: str, rows: slice | None = None) -> np.ndarray:
    """Load a whole embedding file, or one row range of an emb1 file, as a new (N, d) array.

    The header, the payload size and finiteness are checked.

    Parameters
    ----------
    path : str
        Input file; CSV if it ends in ``.csv``, emb1 otherwise.
    rows : slice, optional
        Read only this contiguous row range of an emb1 file.  The header
        and the payload size are checked as for a whole read.

    Raises
    ------
    DataFormatError
        Malformed header, truncated payload, or a non-finite value
        (the message names the offending row's index in the whole file).
    """
    if _is_csv(path):
        if rows is not None:
            raise ValueError("row ranges are read from emb1 files only")
        batches = list(_iter_csv_batches(path, _ROW_BLOCK))
        if not batches:
            raise DataFormatError(f"{path}: empty CSV has no dimension information")
        return np.concatenate(batches)

    with open(path, "rb") as fh:
        dtype, n, dims, stream = _read_emb1_header(fh, path)
        lo, hi, step = (rows or slice(None)).indices(n)
        hi = max(lo, hi)
        if step != 1:
            raise ValueError("only contiguous row ranges can be read")
        if lo:
            fh.seek(lo * dims * dtype.itemsize, os.SEEK_CUR)
        data = _read_rows(fh, hi - lo, dims, dtype, stream)
        if data is None or (hi == n and fh.read(1)):
            raise _size_error(path, dtype, n, dims)
    return _finite(_native(data), "non-finite value in row {}", lo)


def _size_error(path: str, dtype, rows: int, dims: int) -> DataFormatError:
    """The error for a payload found shorter or longer than its header implies while read."""
    return DataFormatError(f"{path}: payload is not the {rows * dims * dtype.itemsize} bytes "
                           f"the header implies")


class EmbeddingFile:
    """The rows of a regular emb1 file, read on demand one row range at a time.

    A row source (see the module docstring) that stands in for a read-only
    (rows, dims) array: ``src[lo:hi]`` reads those rows through
    ``read_embeddings`` and checks them for finiteness, naming a bad row by
    its index in the whole file.  Opening checks the header and the payload
    size, so a truncated or oversized file fails before any pass reads a
    row.  Each read returns a new array that the caller owns, and the
    source holds no rows between reads.
    """

    ndim = 2

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            dtype, rows, dims, _ = _read_emb1_header(fh, path)
        self.path = path
        self.shape = (rows, dims)
        self.dtype = dtype.newbyteorder("=")

    def __getitem__(self, rows: slice) -> np.ndarray:
        return read_embeddings(self.path, rows=rows)


class RowMap:
    """A row source whose rows are a function of another source's rows.

    ``RowMap(source, fn)[lo:hi]`` is ``fn(source[lo:hi], lo)``: as many
    rows of the source's width, computed when sliced, float64 (``dtype``)
    unless ``fn`` passes the source's rows on as they are, as a check does.
    ``lo`` is the index of the range's first row in the whole source, for
    ``fn`` to name rows in its error messages.
    """

    ndim = 2
    dtype = np.dtype(np.float64)

    def __init__(self, source, fn):
        self.source = source
        self.fn = fn
        self.shape = source.shape

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.fn(self.source[rows], rows.indices(self.shape[0])[0])


def row_source(path: str):
    """The rows of an embedding file as a row source.

    A regular emb1 file opens as an ``EmbeddingFile``, whose header and
    payload size are checked now and whose rows are read when sliced.  A
    CSV file, or an emb1 stream such as a pipe, is read whole into an
    array, which slices the same way.
    """
    if not _is_csv(path) and stat.S_ISREG(os.stat(path).st_mode):
        return EmbeddingFile(path)
    return read_embeddings(path)


def iter_embedding_batches(path: str, batch_rows: int) -> Iterator[np.ndarray]:
    """Stream an embedding file in batches, in file order, never holding every row.

    An emb1 file's batches are the slices of ``row_blocks(n, batch_rows)``
    (the last up to ``batch_rows + 2`` rows): ``stats`` walks the moment
    kernel's blocks.  A CSV file's row count is unknown until read, so it
    comes in batches of ``batch_rows`` lines, and its ``stats`` is not
    bitwise ``stats_of``.  The header and a regular file's size are
    checked before the first batch; a non-finite row is named by its index.
    """
    if batch_rows < 1:
        raise ValueError("batch_rows must be >= 1")
    if _is_csv(path):
        yield from _iter_csv_batches(path, batch_rows)
        return

    with open(path, "rb") as fh:
        dtype, rows, dims, stream = _read_emb1_header(fh, path)
        for block in row_blocks(rows, batch_rows):
            data = _read_rows(fh, block.stop - block.start, dims, dtype, stream)
            if data is None:
                raise _size_error(path, dtype, rows, dims)
            yield _finite(_native(data), "non-finite value in row {}", block.start)
        if fh.read(1):
            raise _size_error(path, dtype, rows, dims)


def _iter_csv_batches(path: str, batch_rows: int):
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
                yield _finite(data, "non-finite value in row {}", row)
                row += data.shape[0]


def _parse_csv(lines: list) -> np.ndarray | None:
    """``lines`` as a float64 matrix, or None if ``np.loadtxt`` rejects them."""
    with warnings.catch_warnings():  # lines holding only comments or blanks are no error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError:
            return None


def write_embeddings(embeddings, path: str) -> None:
    """Write a float32 or float64 matrix or row source; a re-read returns identical values.

    ``embeddings`` is sliced and written one row block (``row_blocks``) at
    a time, so a ``RowMap`` is computed as it is written.  Binary writes
    are bit-exact.  CSV uses shortest round-trip decimal rendering, so
    float64 values also survive exactly and float32 values round-trip at
    float32 precision.  Rows of width 0, which no reader accepts, are a
    ``DataFormatError`` before any file is created.
    """
    rows = as_matrix(embeddings)
    (n, dims), dtype = rows.shape, np.dtype(rows.dtype).newbyteorder("=")
    if dtype not in _CODE_OF_DTYPE:
        raise DataFormatError(f"unsupported dtype {dtype}; use float32 or float64")
    if dims < 1:
        raise DataFormatError(f"{path}: rows need at least one dimension, got shape {rows.shape}")
    if _is_csv(path):
        digits = 17 if dtype == np.float64 else 9

        def write(fh):
            for block in row_blocks(n):
                for row in rows[block]:
                    fh.write((",".join(f"{v:.{digits}g}" for v in row) + "\n").encode())
    else:
        header = _HEADER.pack(_MAGIC, 1, _CODE_OF_DTYPE[dtype], n, dims, 0)

        def write(fh):
            fh.write(header)
            for block in row_blocks(n):
                # straight from the block's buffer, without a bytes copy
                fh.write(np.ascontiguousarray(rows[block], dtype=dtype.newbyteorder("<")))

    _atomic_write(path, write)


@dataclass
class StatsArtifact:
    """A persisted statistics payload with schema version and provenance.

    ``kind`` names the payload type (for example ``modality_stats`` or
    ``reference_frame``), as the type's ``Payload.kind`` does; ``payload``
    is the tree the shared codec builds from the type's dataclass fields
    (``to_payload``) and reads back (``from_payload``).  On disk it is the
    artifact's JSON file plus the ``.npy`` sidecars holding its matrices
    (see the module docstring); ``load_artifact`` returns those matrices
    as arrays, so ``payload`` never holds a sidecar reference.
    """

    kind: str
    payload: dict
    provenance: dict = field(default_factory=dict)
    schema_version: int = ARTIFACT_SCHEMA_VERSION


def _npy_header(shape) -> bytes:
    """The ``.npy`` v1.0 header ``np.save`` writes for a C-order ``<f8`` array of ``shape``."""
    from io import BytesIO  # the standard library's

    out = BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": _SIDECAR_DTYPE.str, "fortran_order": False, "shape": tuple(shape)})
    return out.getvalue()


def _sidecar_ref(path: str, matrix: np.ndarray) -> dict:
    """The JSON reference to the C-order float64 ``matrix`` saved as the ``.npy`` file ``path``."""
    digest = hashlib.sha256(_npy_header(matrix.shape))
    digest.update(matrix)
    return {"npy": os.path.basename(path), "shape": list(matrix.shape),
            "dtype": _SIDECAR_DTYPE.str, "sha256": digest.hexdigest()}


def _listed_sidecars(path: str) -> set:
    """Names of this artifact's own sidecars that the JSON now at ``path`` lists.

    Only names of the form ``<json name>.<...>.npy`` count.  A missing or
    unreadable JSON lists none, and nothing but a regular file is opened.
    """
    if not os.path.isfile(path):
        return set()
    try:
        with open(path, "r") as fh:
            stack = [json.load(fh)]
    except (OSError, ValueError, RecursionError):
        return set()
    names, own = set(), os.path.basename(path) + "."
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            name = value.get("npy")
            if (isinstance(name, str) and name.startswith(own) and name.endswith(".npy")
                    and os.path.basename(name) == name):
                names.add(name)
            stack.extend(value.values())
    return names


def save_artifact(artifact: StatsArtifact, path: str) -> None:
    """Write the payload's non-empty 2-D arrays as sidecars, then the JSON naming them.

    The JSON text is built first: a value it cannot hold, such as a NaN
    or an infinity, is a ``ValueError`` before any file is written.
    Sidecars that the JSON being replaced listed and the new one does not
    are deleted once the new JSON is in place.
    """
    replaced, sidecars = _listed_sidecars(path), {}

    def encode(value, stem):
        if isinstance(value, dict):
            return {key: encode(item, f"{stem}.{key}") for key, item in value.items()}
        if not isinstance(value, np.ndarray):
            return value
        if value.ndim == 2 and value.size:
            matrix = sidecars[f"{stem}.npy"] = np.ascontiguousarray(value, dtype=_SIDECAR_DTYPE)
            return _sidecar_ref(f"{stem}.npy", matrix)
        return value.tolist()

    doc = {
        "schema_version": artifact.schema_version,
        "kind": artifact.kind,
        "payload": encode(artifact.payload, path),
        "provenance": artifact.provenance,
    }
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"
    for sidecar, matrix in sidecars.items():  # the matrix straight from its buffer
        _atomic_write(sidecar, lambda fh, m=matrix: fh.writelines((_npy_header(m.shape), m)))
    atomic_write_text(path, text)
    for name in replaced - {os.path.basename(sidecar) for sidecar in sidecars}:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(os.path.dirname(path), name))


def _read_sidecar(path: str, field: str, ref: dict) -> np.ndarray:
    """The matrix that the reference ``ref`` in the artifact ``path`` names.

    Everything that bounds the read is checked before anything of the
    matrix's size is allocated: the reference, the file type, and the file
    size against the one the reference's shape implies.  Then the file must
    start with the ``.npy`` header ``np.save`` writes for that shape, and
    its SHA-256 must be the recorded one.  No byte of the file is parsed.
    """
    where = f"{path}: {field} sidecar"
    name, shape, sha256 = ref.get("npy"), ref.get("shape"), ref.get("sha256")
    if (set(ref) != _SIDECAR_KEYS or ref["dtype"] != _SIDECAR_DTYPE.str
            or not isinstance(shape, list) or len(shape) != 2
            or not all(type(k) is int and k >= 0 for k in shape)
            or not isinstance(sha256, str) or len(sha256) != 64):
        raise DataFormatError(f"{where}: malformed reference {json.dumps(ref)[:200]}")
    if (not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
            or os.path.basename(name) != name or (os.altsep and os.altsep in name)):
        raise DataFormatError(f"{where}: {name!r} is not a file name in the artifact's directory")
    header = _npy_header(shape)
    nonblocking = getattr(os, "O_NONBLOCK", 0)  # opening a FIFO must not wait for a writer
    try:
        fh = open(os.path.join(os.path.dirname(path), name), "rb",
                  opener=lambda file, flags: os.open(file, flags | nonblocking))
    except OSError as exc:
        raise DataFormatError(f"{where} {name!r}: cannot open ({exc.strerror})") from exc
    with fh:
        size = os.fstat(fh.fileno())
        if not stat.S_ISREG(size.st_mode):
            raise DataFormatError(f"{where} {name!r} is not a regular file")
        expected = len(header) + shape[0] * shape[1] * _SIDECAR_DTYPE.itemsize
        if size.st_size != expected:
            raise DataFormatError(f"{where} {name!r} has {size.st_size} bytes; a {shape[0]} x "
                                  f"{shape[1]} float64 .npy file has {expected}")
        raw = np.empty(expected, dtype=np.uint8)
        if fh.readinto(raw) != expected:
            raise DataFormatError(f"{where} {name!r} shrank while it was read")
    if raw[:len(header)].tobytes() != header:
        raise DataFormatError(f"{where} {name!r}: .npy header does not match the reference's "
                              f"C-order {shape[0]} x {shape[1]} <f8")
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise DataFormatError(f"{where} {name!r}: SHA-256 differs from the recorded one")
    return raw[len(header):].view(_SIDECAR_DTYPE).reshape(shape)


def _resolve_sidecars(value, path: str, field: str = "payload"):
    """``value`` with every sidecar reference in it, at any depth, read into an array."""
    if not isinstance(value, dict):
        return value
    if "npy" in value:
        return _read_sidecar(path, field, value)
    return {key: _resolve_sidecars(item, path, f"{field}.{key}") for key, item in value.items()}


def load_artifact(path: str) -> StatsArtifact:
    """Load an artifact and its sidecars; unknown schema versions are an explicit error."""
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise DataFormatError(f"{path}: corrupt artifact ({exc})") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise DataFormatError(f"{path}: not a statistics artifact")
    version = doc["schema_version"]
    if version not in (1, ARTIFACT_SCHEMA_VERSION):
        raise ArtifactVersionError(
            f"{path}: schema_version {version} is not supported (expected 1 or "
            f"{ARTIFACT_SCHEMA_VERSION})"
        )
    try:
        payload = doc["payload"]
        kind = doc["kind"]
    except KeyError as exc:
        raise DataFormatError(f"{path}: artifact missing field {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: payload must be a JSON object, "
                              f"got {type(payload).__name__}")
    try:
        payload = _resolve_sidecars(payload, path)
    except RecursionError as exc:
        raise DataFormatError(f"{path}: corrupt artifact (payload nested too deep)") from exc
    return StatsArtifact(kind=kind, payload=payload, provenance=doc.get("provenance", {}),
                         schema_version=version)


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
