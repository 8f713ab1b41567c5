import os
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from gapalign import (
    ArtifactVersionError,
    DataFormatError,
    EmbeddingSet,
    ModalityStats,
    StatsArtifact,
    iter_embedding_batches,
    load_artifact,
    read_embeddings,
    save_artifact,
    write_embeddings,
)
from gapalign.io import EmbeddingFile, RowMap, as_matrix, row_blocks, row_source


def test_read_identity_fixture(tmp_path):
    path = str(tmp_path / "two.emb")
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    write_embeddings(EmbeddingSet(rows), path)
    out = read_embeddings(path)
    assert out.rows == 2 and out.dims == 3
    npt.assert_array_equal(out.data, rows)


def test_empty_set_round_trip(tmp_path):
    path = str(tmp_path / "empty.emb")
    write_embeddings(EmbeddingSet(np.zeros((0, 4))), path)
    out = read_embeddings(path)
    assert out.rows == 0 and out.dims == 4


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "trunc.emb")
    write_embeddings(EmbeddingSet(np.random.default_rng(0).normal(size=(5, 3))), path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-8])
    with pytest.raises(DataFormatError):
        read_embeddings(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "extra.emb")
    write_embeddings(EmbeddingSet(np.ones((2, 2))), path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 4)
    with pytest.raises(DataFormatError):
        read_embeddings(path)


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "bad.emb")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 24)
    with pytest.raises(DataFormatError):
        read_embeddings(path)


def test_non_finite_reports_row(tmp_path):
    path = str(tmp_path / "nan.emb")
    rows = np.ones((4, 2))
    rows[2, 1] = np.nan
    # bypass validation by writing raw bytes through the writer's format
    header = struct.pack("<4sIIQII", b"EMB1", 1, 1, 4, 2, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rows.astype("<f8").tobytes())
    with pytest.raises(DataFormatError, match="row 2"):
        read_embeddings(path)


def test_round_trip_single_value_bitwise(tmp_path):
    path = str(tmp_path / "one.emb")
    write_embeddings(EmbeddingSet(np.array([[0.5]])), path)
    first = Path(path).read_bytes()
    out = read_embeddings(path)
    write_embeddings(out, path)
    assert Path(path).read_bytes() == first


def test_round_trip_random_f64(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(1000, 64))
    path = str(tmp_path / "big.emb")
    write_embeddings(EmbeddingSet(rows, "text"), path)
    out = read_embeddings(path, modality_tag="text")
    npt.assert_array_equal(out.data, rows)
    assert out.modality_tag == "text"


def test_round_trip_f32(tmp_path):
    rows = np.random.default_rng(1).normal(size=(10, 5)).astype(np.float32)
    path = str(tmp_path / "f32.emb")
    write_embeddings(EmbeddingSet(rows), path)
    out = read_embeddings(path)
    assert out.data.dtype == np.float32
    npt.assert_array_equal(out.data, rows)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(20, 4))
    path = str(tmp_path / "rows.csv")
    write_embeddings(EmbeddingSet(rows), path)
    out = read_embeddings(path)
    assert out.data.dtype == np.float64
    npt.assert_array_equal(out.data, rows)


def test_streaming_visits_rows_once_in_order(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(103, 6))
    path = str(tmp_path / "stream.emb")
    write_embeddings(EmbeddingSet(rows), path)
    got = [b.data for b in iter_embedding_batches(path, batch_rows=10)]
    assert [g.shape[0] for g in got] == [10] * 10 + [3]
    npt.assert_array_equal(np.vstack(got), rows)


@pytest.mark.parametrize("rows,dims", [(2**36, 4), (2**20, 2**31)])
def test_oversized_header_rejected_before_allocation(tmp_path, rows, dims):
    path = str(tmp_path / "huge.emb")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQII", b"EMB1", 1, 0, rows, dims, 0))
        fh.write(b"\x00" * 64)
    implied = rows * dims * 4
    with pytest.raises(DataFormatError, match=f"payload has 64 bytes, header implies {implied}"):
        read_embeddings(path)
    with pytest.raises(DataFormatError, match="truncated payload at row 0"):
        next(iter_embedding_batches(path, batch_rows=8))


def test_streaming_size_checked_before_first_batch(tmp_path):
    path = str(tmp_path / "stream.emb")
    write_embeddings(EmbeddingSet(np.ones((103, 6))), path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-8])
    batches = iter_embedding_batches(path, batch_rows=10)
    with pytest.raises(DataFormatError, match="truncated payload at row 100"):
        next(batches)
    Path(path).write_bytes(raw + b"\x00")
    with pytest.raises(DataFormatError, match="trailing bytes beyond declared payload"):
        next(iter_embedding_batches(path, batch_rows=10))


def test_non_finite_row_found_in_a_later_block(tmp_path):
    rows = np.ones((3000, 4))
    rows[2500, 3] = np.inf
    with pytest.raises(DataFormatError, match="row 2500"):
        EmbeddingSet(rows).validate_finite()
    with pytest.raises(DataFormatError, match="row 2507"):
        EmbeddingSet(rows).validate_finite(row_offset=7)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_peak_memory_under_one_block(tmp_path):
    rows = np.random.default_rng(2).normal(size=(20_000, 256))
    path = str(tmp_path / "big.emb")
    peak = _traced_peak(lambda: write_embeddings(EmbeddingSet(rows), path))
    assert peak < 1024 * 256 * 8
    npt.assert_array_equal(read_embeddings(path).data, rows)


def test_read_peak_memory_is_payload_plus_one_block(tmp_path):
    rows = np.random.default_rng(3).normal(size=(20_000, 256)).astype(np.float32)
    path = str(tmp_path / "big.emb")
    write_embeddings(EmbeddingSet(rows), path)
    peak = _traced_peak(lambda: read_embeddings(path))
    assert peak < rows.nbytes + 1025 * 256 * 8


# ------------------------------------------------------------------ row sources


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_file_slices_like_the_whole_array(tmp_path, dtype):
    rows = np.random.default_rng(4).normal(size=(3001, 5)).astype(dtype)
    path = str(tmp_path / "rows.emb")
    write_embeddings(EmbeddingSet(rows), path)
    src = EmbeddingFile(path)
    assert (src.shape, src.ndim, src.dtype) == (rows.shape, 2, rows.dtype)
    assert not hasattr(src, "data") and as_matrix(src) is src
    for lo, hi in [(0, 1024), (2048, 3001), (1000, 1000), (3000, 5000), (0, 3001), (17, 18)]:
        got = src[lo:hi]
        assert got.dtype == rows.dtype
        npt.assert_array_equal(got, rows[lo:hi])


def test_embedding_file_checks_size_on_open_and_names_rows_in_the_whole_file(tmp_path):
    rows = np.ones((3000, 4))
    rows[2500, 3] = np.nan
    path = tmp_path / "rows.emb"
    header = struct.pack("<4sIIQII", b"EMB1", 1, 1, 3000, 4, 0)
    path.write_bytes(header + rows.astype("<f8").tobytes())
    src = EmbeddingFile(str(path))
    npt.assert_array_equal(src[0:2048], rows[:2048])
    with pytest.raises(DataFormatError, match="non-finite value in row 2500"):
        src[2048:3000]
    for payload in (rows.astype("<f8").tobytes()[:-8], rows.astype("<f8").tobytes() + b"\0"):
        path.write_bytes(header + payload)
        with pytest.raises(DataFormatError, match="payload has"):
            EmbeddingFile(str(path))


def test_row_source_reads_csv_and_pipes_whole(tmp_path):
    rows = np.random.default_rng(5).normal(size=(40, 3))
    csv_path = str(tmp_path / "rows.csv")
    write_embeddings(EmbeddingSet(rows), csv_path)
    from_csv = row_source(csv_path)
    assert isinstance(from_csv, np.ndarray)
    npt.assert_array_equal(from_csv, rows)
    emb_path = str(tmp_path / "rows.emb")
    write_embeddings(EmbeddingSet(rows), emb_path)
    assert isinstance(row_source(emb_path), EmbeddingFile)
    fifo = str(tmp_path / "pipe.emb")
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: Path(fifo).write_bytes(Path(emb_path).read_bytes()),
                              daemon=True)
    writer.start()
    from_pipe = row_source(fifo)
    writer.join(timeout=10)
    assert isinstance(from_pipe, np.ndarray)
    npt.assert_array_equal(from_pipe, rows)


@pytest.mark.parametrize("n", [0, 1, 1025, 2049])
def test_write_row_sources_block_by_block(tmp_path, n):
    rows = np.random.default_rng(n).normal(size=(n, 6)).astype(np.float32)
    whole = tmp_path / "whole.emb"
    write_embeddings(EmbeddingSet(rows), str(whole))
    copy = tmp_path / "copy.emb"
    write_embeddings(EmbeddingFile(str(whole)), str(copy))
    assert copy.read_bytes() == whole.read_bytes()
    firsts = []

    def double(block, first_row):
        firsts.append(first_row)
        return 2.0 * block

    mapped = tmp_path / "mapped.emb"
    write_embeddings(RowMap(EmbeddingFile(str(whole)), double), str(mapped))
    expected = tmp_path / "expected.emb"
    write_embeddings(EmbeddingSet(2.0 * rows.astype(np.float64)), str(expected))
    assert mapped.read_bytes() == expected.read_bytes()
    assert firsts == [block.start for block in row_blocks(n)]


def test_row_source_passes_read_one_block_at_a_time(tmp_path):
    rows = np.random.default_rng(6).normal(size=(20_000, 256)).astype(np.float32)
    path = str(tmp_path / "big.emb")
    write_embeddings(EmbeddingSet(rows), path)
    out = str(tmp_path / "copy.emb")
    peak = _traced_peak(lambda: write_embeddings(EmbeddingFile(path), out))
    assert peak < 2 * 1025 * 256 * 8


def test_streaming_csv(tmp_path):
    rows = np.arange(12, dtype=np.float64).reshape(6, 2)
    path = str(tmp_path / "stream.csv")
    write_embeddings(EmbeddingSet(rows), path)
    got = np.vstack([b.data for b in iter_embedding_batches(path, batch_rows=4)])
    npt.assert_array_equal(got, rows)


# each file's rows, or the error both readers must raise
CSV_FILES = {
    "comment": ("# header\n1,2\n3,4 # trailing\n", [[1.0, 2.0], [3.0, 4.0]]),
    "blank-lines": ("\n1,2\n\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "whitespace-line": ("1,2\n  \n3,4\n", "malformed CSV at line 2"),
    "ragged-wide": ("1,2\n3,4\n5,6,7\n", "line 3 has 3 columns, expected 2"),
    "ragged-narrow": ("1,2\n# c\n3\n", "line 3 has 1 columns, expected 2"),
    "non-numeric": ("1,2\n\nx,4\n", "malformed CSV at line 3"),
    "non-finite": ("1,2\n3,nan\n", "non-finite value in row 1"),
    "empty": ("# nothing\n\n", "empty CSV"),
}


@pytest.mark.parametrize("batch_rows", [1, 2, 1024])
@pytest.mark.parametrize("name", list(CSV_FILES))
def test_csv_readers_agree(tmp_path, name, batch_rows):
    # read_embeddings once used np.loadtxt and streaming its own line parser:
    # a comment failed only the stream, and a ragged row between batches was
    # reported as a batch of another width
    text, expected = CSV_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(text)

    def outcome(read):
        try:
            return read()
        except DataFormatError as exc:
            return str(exc)

    whole = outcome(lambda: read_embeddings(str(path)).data)
    batches = outcome(lambda: [b.data for b in iter_embedding_batches(str(path), batch_rows)])
    if isinstance(expected, str):
        assert expected in whole
        assert batches == whole or (name == "empty" and batches == [])
    else:
        npt.assert_array_equal(whole, expected)
        npt.assert_array_equal(np.vstack(batches), whole)
        assert all(b.shape[0] <= batch_rows for b in batches)


def test_artifact_round_trip_modality_stats(tmp_path):
    stats = ModalityStats(mean=np.array([0.0, 0.0]), trace=1.0, n=10)
    art = StatsArtifact(kind="modality_stats", payload=stats.to_payload())
    path = str(tmp_path / "m.stats")
    save_artifact(art, path)
    loaded = load_artifact(path)
    back = ModalityStats.from_payload(loaded.payload)
    npt.assert_array_equal(back.mean, stats.mean)
    assert back.trace == stats.trace and back.n == 10


def test_artifact_preserves_f64_bit_exactly(tmp_path):
    rng = np.random.default_rng(11)
    stats = ModalityStats(
        mean=rng.normal(size=8) * 1e-7,
        trace=float(rng.normal() ** 2),
        n=12345,
        covariance=rng.normal(size=(8, 8)),
    )
    path = str(tmp_path / "exact.stats")
    save_artifact(StatsArtifact(kind="modality_stats", payload=stats.to_payload()), path)
    back = ModalityStats.from_payload(load_artifact(path).payload)
    npt.assert_array_equal(back.mean, stats.mean)
    npt.assert_array_equal(back.covariance, stats.covariance)
    assert back.trace == stats.trace


def test_future_schema_version_rejected(tmp_path):
    path = str(tmp_path / "future.stats")
    save_artifact(StatsArtifact(kind="x", payload={}, schema_version=999), path)
    with pytest.raises(ArtifactVersionError):
        load_artifact(path)


def test_corrupt_artifact_rejected(tmp_path):
    path = str(tmp_path / "corrupt.stats")
    with open(path, "w") as fh:
        fh.write("{ not json")
    with pytest.raises(DataFormatError):
        load_artifact(path)


@pytest.mark.parametrize("content", [
    b'{"schema_version": 1, "kind": "modality_stats", "payload": '
    + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"schema_version": 1, "kind": "\xff"}',
], ids=["nested-too-deep", "not-utf8"])
def test_undecodable_artifact_rejected(tmp_path, content):
    # deep nesting once escaped as RecursionError and bad UTF-8 as UnicodeDecodeError
    path = tmp_path / "bad.stats"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match="corrupt artifact"):
        load_artifact(str(path))
