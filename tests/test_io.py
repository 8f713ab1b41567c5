import collections
import contextlib
import os
import struct
import tempfile
import threading
import tracemalloc
import weakref
from io import StringIO
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_cli import fed_pipe

from gapalign import (
    ArtifactVersionError,
    DataFormatError,
    ModalityStats,
    StatsArtifact,
    iter_embedding_batches,
    load_artifact,
    read_embeddings,
    save_artifact,
    stats_of,
    write_embeddings,
)
from gapalign import io as io_module
from gapalign.cli import main
from gapalign.io import (EmbeddingFile, EmbeddingSet, RowMap, _finite, _widest_block, as_matrix,
                         row_blocks, row_source)


def test_read_identity_fixture(tmp_path):
    path = str(tmp_path / "two.emb")
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    write_embeddings(rows, path)
    out = read_embeddings(path)
    assert out.shape[0] == 2 and out.shape[1] == 3
    npt.assert_array_equal(out, rows)


def test_write_embeddings_takes_an_embedding_set_as_its_array(tmp_path):
    rows = np.arange(6.0).reshape(3, 2)
    write_embeddings(rows, str(tmp_path / "plain.emb"))
    write_embeddings(EmbeddingSet(rows), str(tmp_path / "wrapped.emb"))
    assert (tmp_path / "wrapped.emb").read_bytes() == (tmp_path / "plain.emb").read_bytes()


@pytest.mark.parametrize("name", ["z.emb1", "z.csv"])
def test_write_embeddings_refuses_rows_of_width_0_and_creates_no_file(tmp_path, name):
    # these once wrote a file every reader rejects: a bare emb1 header, or five blank lines
    with pytest.raises(DataFormatError, match="at least one dimension"):
        write_embeddings(np.zeros((5, 0)), str(tmp_path / name))
    assert os.listdir(tmp_path) == []


def test_empty_set_round_trip(tmp_path):
    path = str(tmp_path / "empty.emb")
    write_embeddings(np.zeros((0, 4)), path)
    out = read_embeddings(path)
    assert out.shape[0] == 0 and out.shape[1] == 4


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "trunc.emb")
    write_embeddings(np.random.default_rng(0).normal(size=(5, 3)), path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-8])
    with pytest.raises(DataFormatError):
        read_embeddings(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "extra.emb")
    write_embeddings(np.ones((2, 2)), path)
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
    write_embeddings(np.array([[0.5]]), path)
    first = Path(path).read_bytes()
    out = read_embeddings(path)
    write_embeddings(out, path)
    assert Path(path).read_bytes() == first


def test_round_trip_random_f64(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(1000, 64))
    path = str(tmp_path / "big.emb")
    write_embeddings(rows, path)
    out = read_embeddings(path)
    npt.assert_array_equal(out, rows)


def test_round_trip_f32(tmp_path):
    rows = np.random.default_rng(1).normal(size=(10, 5)).astype(np.float32)
    path = str(tmp_path / "f32.emb")
    write_embeddings(rows, path)
    out = read_embeddings(path)
    assert out.dtype == np.float32
    npt.assert_array_equal(out, rows)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(20, 4))
    path = str(tmp_path / "rows.csv")
    write_embeddings(rows, path)
    out = read_embeddings(path)
    assert out.dtype == np.float64
    npt.assert_array_equal(out, rows)


def test_streaming_visits_rows_once_in_order(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(103, 6))
    path = str(tmp_path / "stream.emb")
    write_embeddings(rows, path)
    got = [b for b in iter_embedding_batches(path, batch_rows=10)]
    assert [g.shape[0] for g in got] == [10] * 10 + [3]
    npt.assert_array_equal(np.vstack(got), rows)


@pytest.mark.parametrize("reader", ["iter_embedding_batches", "stats"])
@pytest.mark.parametrize("name", ["rows.emb1", "rows.csv"])
def test_no_batch_is_alive_when_the_next_read_starts(tmp_path, monkeypatch, name, reader):
    # so a reader holds one batch, not two, while it reads; `stats` reads 4,096-row batches
    path = str(tmp_path / name)
    write_embeddings(np.random.default_rng(6).normal(size=(2 * 4096 + 100, 4)), path)
    batches, stale = [], []

    def recorded(read):
        def wrapper(*args):
            stale.extend(ref for ref in batches if ref() is not None)
            data = read(*args)
            if data is not None:
                batches.append(weakref.ref(data))
            return data
        return wrapper

    for reads in ("_read_rows", "_parse_csv"):
        monkeypatch.setattr(io_module, reads, recorded(getattr(io_module, reads)))
    if reader == "stats":
        assert main(["stats", "--in", path, "--out", str(tmp_path / "rows.stats")]) == 0
    else:  # a consumer that drops each batch before asking for the next
        collections.deque(iter_embedding_batches(path, batch_rows=1000), maxlen=0)
    assert len(batches) > 2 and not stale


@pytest.mark.parametrize("rows,dims", [(2**36, 4), (2**20, 2**31)])
def test_oversized_header_rejected_before_allocation(tmp_path, rows, dims):
    path = str(tmp_path / "huge.emb")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQII", b"EMB1", 1, 0, rows, dims, 0))
        fh.write(b"\x00" * 64)
    implied = rows * dims * 4
    with pytest.raises(DataFormatError, match=f"payload has 64 bytes, header implies {implied}"):
        read_embeddings(path)
    with pytest.raises(DataFormatError, match=f"payload has 64 bytes, header implies {implied}"):
        next(iter_embedding_batches(path, batch_rows=8))


def test_streaming_size_checked_before_first_batch(tmp_path):
    path = str(tmp_path / "stream.emb")
    write_embeddings(np.ones((103, 6)), path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-8])
    batches = iter_embedding_batches(path, batch_rows=10)
    with pytest.raises(DataFormatError, match="payload has 4936 bytes, header implies 4944"):
        next(batches)
    Path(path).write_bytes(raw + b"\x00")
    with pytest.raises(DataFormatError, match="payload has 4945 bytes, header implies 4944"):
        next(iter_embedding_batches(path, batch_rows=10))


def test_non_finite_row_found_in_a_later_block(tmp_path):
    rows = np.ones((3000, 4))
    rows[2500, 3] = np.inf
    with pytest.raises(DataFormatError, match="row 2500"):
        _finite(rows, "non-finite value in row {}")
    with pytest.raises(DataFormatError, match="row 2507"):
        _finite(rows, "non-finite value in row {}", 7)


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
    peak = _traced_peak(lambda: write_embeddings(rows, path))
    assert peak < 1024 * 256 * 8
    npt.assert_array_equal(read_embeddings(path), rows)


def test_read_peak_memory_is_payload_plus_one_block(tmp_path):
    rows = np.random.default_rng(3).normal(size=(20_000, 256)).astype(np.float32)
    path = str(tmp_path / "big.emb")
    write_embeddings(rows, path)
    peak = _traced_peak(lambda: read_embeddings(path))
    assert peak < rows.nbytes + 1025 * 256 * 8


# ------------------------------------------------------------------ row sources


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_file_slices_like_the_whole_array(tmp_path, dtype):
    rows = np.random.default_rng(4).normal(size=(3001, 5)).astype(dtype)
    path = str(tmp_path / "rows.emb")
    write_embeddings(rows, path)
    src = EmbeddingFile(path)
    assert (src.shape, src.ndim, src.dtype) == (rows.shape, 2, rows.dtype)
    assert not hasattr(src, "data") and as_matrix(src) is src
    for lo, hi in [(0, 1024), (2048, 3001), (1000, 1000), (3000, 5000), (0, 3001), (17, 18)]:
        got = src[lo:hi]
        assert got.dtype == rows.dtype
        npt.assert_array_equal(got, rows[lo:hi])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slices_of_one_file_source_alive_together_hold_their_own_rows(tmp_path, dtype):
    # a file source once read every slice into one buffer it reused, so a
    # second, narrower read overwrote the first slice's leading rows
    rows = np.random.default_rng(6).normal(size=(40, 3)).astype(dtype)
    path = str(tmp_path / "rows.emb")
    write_embeddings(rows, path)
    src = EmbeddingFile(path)
    for source in (src, RowMap(src, lambda block, lo: block)):
        first, second = source[0:30], source[30:40]
        assert not np.shares_memory(first, second)
        npt.assert_array_equal(first, rows[0:30])
        npt.assert_array_equal(second, rows[30:40])


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
    write_embeddings(rows, csv_path)
    from_csv = row_source(csv_path)
    assert isinstance(from_csv, np.ndarray)
    npt.assert_array_equal(from_csv, rows)
    emb_path = str(tmp_path / "rows.emb")
    write_embeddings(rows, emb_path)
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


@pytest.mark.parametrize("n", [0, 1, 1025, 1026, 2049, 2050])
def test_write_row_sources_block_by_block(tmp_path, n):
    rows = np.random.default_rng(n).normal(size=(n, 6)).astype(np.float32)
    whole = tmp_path / "whole.emb"
    write_embeddings(rows, str(whole))
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
    write_embeddings(2.0 * rows.astype(np.float64), str(expected))
    assert mapped.read_bytes() == expected.read_bytes()
    assert firsts == [block.start for block in row_blocks(n)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 1100))
def test_row_blocks_cover_rows_in_order_with_no_narrow_tail(n, size):
    blocks = list(row_blocks(n, size))
    assert [row for block in blocks for row in range(n)[block]] == list(range(n))
    assert all(block.step is None and block.stop > block.start for block in blocks)
    widths = [block.stop - block.start for block in blocks]
    assert all(width <= _widest_block(n, size) for width in widths)
    # every block but the last is ``size`` rows, and the last is never 1 or 2 rows after another
    assert all(width == size for width in widths[:-1])
    assert len(widths) < 2 or widths[-1] >= 3
    assert n < 3 or size < 3 or min(widths) >= 3


def test_row_source_passes_read_one_block_at_a_time(tmp_path):
    rows = np.random.default_rng(6).normal(size=(20_000, 256)).astype(np.float32)
    path = str(tmp_path / "big.emb")
    write_embeddings(rows, path)
    out = str(tmp_path / "copy.emb")
    peak = _traced_peak(lambda: write_embeddings(EmbeddingFile(path), out))
    assert peak < 2 * 1025 * 256 * 8


def test_streaming_csv(tmp_path):
    rows = np.arange(12, dtype=np.float64).reshape(6, 2)
    path = str(tmp_path / "stream.csv")
    write_embeddings(rows, path)
    got = np.vstack([b for b in iter_embedding_batches(path, batch_rows=4)])
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

    whole = outcome(lambda: read_embeddings(str(path)))
    batches = outcome(lambda: [b for b in iter_embedding_batches(str(path), batch_rows)])
    if isinstance(expected, str):
        assert expected in whole
        assert batches == whole or (name == "empty" and batches == [])
    else:
        npt.assert_array_equal(whole, expected)
        npt.assert_array_equal(np.vstack(batches), whole)
        assert all(b.shape[0] <= batch_rows for b in batches)


def _csv_with_a_comment_and_a_blank_line(path, rows):
    write_embeddings(rows, str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("# rows\n" + "".join(lines[:3]) + "\n" + "".join(lines[3:]))


def test_whole_csv_read_holds_the_rows_once(tmp_path):
    # the reader once kept every batch in a list and concatenated them: 2.0 x the rows
    rows = np.random.default_rng(31).normal(size=(3000, 256))
    path = tmp_path / "rows.csv"
    _csv_with_a_comment_and_a_blank_line(path, rows)
    got = []
    peak = _traced_peak(lambda: got.append(read_embeddings(str(path))))
    npt.assert_array_equal(got[0], rows)
    assert peak < 1.5 * rows.nbytes


def test_batched_csv_read_holds_one_batch_without_its_text(tmp_path):
    # batches were once parsed from a list of their lines: 3.8 x one batch's rows
    rows = np.random.default_rng(32).normal(size=(3000, 256))
    path = tmp_path / "rows.csv"
    _csv_with_a_comment_and_a_blank_line(path, rows)
    sizes = []

    def walk():  # drops each batch before asking for the next
        for batch in iter_embedding_batches(str(path), batch_rows=1000):
            sizes.append(batch.shape[0])
            del batch

    peak = _traced_peak(walk)
    assert sizes == [1000, 1000, 1000]
    assert peak < 2 * 1000 * 256 * 8


@pytest.mark.parametrize("n", [8292, 12288])
def test_csv_stats_is_bitwise_stats_of_the_whole_read(tmp_path, n):
    # batches of 4,096 data rows, comment and blank lines not counted, are the
    # slices of row_blocks(n, 4096) here; batches of 4,096 lines were not
    path = tmp_path / "rows.csv"
    _csv_with_a_comment_and_a_blank_line(path, np.random.default_rng(n).normal(size=(n, 5)))
    out = str(tmp_path / "rows.stats")
    assert main(["stats", "--in", str(path), "--out", out]) == 0
    saved = ModalityStats.from_payload(load_artifact(out).payload)
    whole = stats_of(read_embeddings(str(path)), track_cov=True)
    assert saved.n == whole.n == n and saved.trace == whole.trace
    assert np.array_equal(saved.mean, whole.mean)
    assert np.array_equal(saved.covariance, whole.covariance)


def test_a_bad_csv_line_is_found_by_parsing_only_its_batch_again(tmp_path, monkeypatch):
    # the lines of the batches before it are counted, not parsed one by one
    path = tmp_path / "rows.csv"
    path.write_text("1,2\n" * 10 + "3,x\n")
    lines_parsed, parse = [], io_module._parse_csv

    def counted(source, *args):
        if isinstance(source, list):
            lines_parsed.extend(source)
        return parse(source, *args)

    monkeypatch.setattr(io_module, "_parse_csv", counted)
    with pytest.raises(DataFormatError, match="malformed CSV at line 11"):
        collections.deque(iter_embedding_batches(str(path), batch_rows=4), maxlen=0)
    assert lines_parsed == [b"1,2\n", b"1,2\n", b"3,x\n"]


@pytest.mark.parametrize("bad, message", [
    ("3,x\n", "malformed CSV at line 3002"),
    ("3,4,5\n", "line 3002 has 3 columns, expected 2"),
])
def test_a_failed_whole_csv_read_is_parsed_again_a_group_of_lines_at_a_time(
        tmp_path, monkeypatch, bad, message):
    # the whole read was once parsed again one line per call from its first line:
    # naming line 3,002 of this file took 3,003 calls
    path = tmp_path / "rows.csv"
    path.write_text("# rows\n" + "1,2\n" * 3000 + bad + "1,2\n" * 5)
    handle_calls, lines_parsed, parse = [], [], io_module._parse_csv

    def counted(source, *args):
        (lines_parsed if isinstance(source, list) else handle_calls).append(source)
        return parse(source, *args)

    monkeypatch.setattr(io_module, "_parse_csv", counted)
    with pytest.raises(DataFormatError, match=message):
        read_embeddings(str(path))
    # the whole read, then groups of 1,024 rows: lines 1-1025, 1026-2049 and the
    # failing one from line 2050, whose lines are then parsed one at a time
    assert len(handle_calls) == 1 + 3
    assert lines_parsed == [[b"1,2\n"]] * (3001 - 2049) + [[bad.encode()]]


def test_malformed_csv_fifo_is_refused_without_waiting_on_it(tmp_path, capsys):
    # a malformed regular file is read again to name the line; a FIFO cannot be,
    # and reopened it would wait for a writer that never comes
    fifo = str(tmp_path / "pipe.csv")
    os.mkfifo(fifo)
    codes = []
    reader = threading.Thread(daemon=True, target=lambda: codes.append(
        main(["stats", "--in", fifo, "--out", str(tmp_path / "pipe.stats")])))
    reader.start()
    Path(fifo).write_bytes(b"1,2\n3,x\n5,6\n")  # opens once the reader has opened it
    reader.join(timeout=30)
    if reader.is_alive():  # the writer a reopened FIFO waits for, so the thread ends
        Path(fifo).write_bytes(b"")
        reader.join(timeout=30)
        pytest.fail("the reader waited on the FIFO")
    assert codes == [2]
    assert capsys.readouterr().err.startswith(f"gapalign: {fifo}: malformed CSV")


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


def test_artifact_with_a_nan_is_refused_before_any_file_is_written(tmp_path):
    # NaN was once written as the non-JSON token NaN, after the covariance sidecar
    stats = ModalityStats(mean=np.zeros(2), trace=2.0, n=10, covariance=np.eye(2))
    art = StatsArtifact(kind="modality_stats", payload=stats.to_payload(),
                        provenance={"flags": {"shrink": float("nan")}})
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_artifact(art, str(tmp_path / "m.stats"))
    assert list(tmp_path.iterdir()) == []


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


# ----------------------------------------------------------- reader fuzzing
#
# Every embedding reader, fed arbitrary bytes as a regular file (and emb1 also
# through a pipe), gives the rows the file encodes or a DataFormatError; the
# CLI gives exit 0 or 2.  Nothing else: no other exception, no MemoryError
# from a header that claims more than arrives.

_EMB1 = struct.Struct("<4sIIQII")
_EMB1_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HOSTILE_FIELDS = [
    st.binary(min_size=4, max_size=4),  # magic
    st.sampled_from([0, 2, 2**32 - 1]),  # version
    st.sampled_from([2, 7, 2**32 - 1]),  # dtype code
    st.sampled_from([1, 7, 2**31, 2**40, 2**62, 2**63 - 1, 2**64 - 1]),  # rows
    st.sampled_from([0, 2, 9, 2**20, 2**31, 2**32 - 1]),  # dims
    st.sampled_from([1, 2**32 - 1]),  # reserved
]


@st.composite
def emb1_files(draw):
    """A valid emb1 file, maybe with one hostile header field, cut short, extended or noise."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=256))
    code = draw(st.sampled_from([0, 1]))
    rows, dims = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    values = draw(arrays(_EMB1_DTYPES[code], (rows, dims),
                         elements=st.floats(-1e3, 1e3, width=32 if code == 0 else 64)))
    if rows and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, rows - 1)), 0] = draw(st.sampled_from([np.nan, np.inf]))
    fields = [b"EMB1", 1, code, rows, dims, 0]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(fields) - 1))
        fields[at] = draw(_HOSTILE_FIELDS[at])
    content = _EMB1.pack(*fields) + values.tobytes()
    edit = draw(st.sampled_from(["none", "none", "truncate", "extend", "claim"]))
    if edit == "truncate":
        content = content[:draw(st.integers(0, max(len(content) - 1, 0)))]
    elif edit == "extend":
        content += draw(st.binary(min_size=1, max_size=16))
    elif edit == "claim":  # a few KiB of data under whatever the header claims
        content += bytes(4096)
    return content


def _encoded_rows(content: bytes):
    """The rows a well-formed emb1 ``content`` encodes, non-finite ones too; None if malformed."""
    if len(content) < _EMB1.size:
        return None
    magic, version, code, rows, dims, reserved = _EMB1.unpack_from(content)
    if magic != b"EMB1" or version != 1 or code not in _EMB1_DTYPES or dims < 1 or reserved:
        return None
    payload = content[_EMB1.size:]
    if len(payload) != rows * dims * _EMB1_DTYPES[code].itemsize:
        return None
    return np.frombuffer(payload, dtype=_EMB1_DTYPES[code]).reshape(rows, dims)


def _or_none(read):
    """``read()``, or None if it raised ``DataFormatError``."""
    try:
        return read()
    except DataFormatError:
        return None


def _assert_rows(got, want):
    """``got`` is ``want``'s values in native byte order, or both are None."""
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == want.dtype.newbyteorder("=")
        assert got.shape == want.shape and got.tobytes() == want.astype(got.dtype).tobytes()


def _batches(path, batch_rows):
    """An emb1 file's batches are the slices of ``row_blocks(n, batch_rows)``; CSV's, no wider."""
    batches = [batch for batch in iter_embedding_batches(path, batch_rows)]
    sizes = [batch.shape[0] for batch in batches]
    if path.endswith(".csv"):
        assert all(0 < size <= batch_rows for size in sizes)
    else:
        assert sizes == [b.stop - b.start for b in row_blocks(sum(sizes), batch_rows)]
    return batches


def _joined(batches, like):
    return np.concatenate(batches) if batches else np.empty((0, like.shape[1]), like.dtype)


def _stats_exit_code(path, out):
    with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()) as err:
        code = main(["stats", "--in", path, "--out", out])
    assert err.getvalue() == "" if code == 0 else err.getvalue().startswith("gapalign: ")
    return code


def _stats_exit_code_for(rows):
    """0 for two rows or more, 3 for one (a covariance needs two), 2 for none or a data error."""
    return 2 if rows is None or not rows.shape[0] else 3 if rows.shape[0] == 1 else 0


_READERS = st.sampled_from(["read", "iter", "stats"])


@settings(derandomize=True, max_examples=250, deadline=None)
@given(content=emb1_files(), batch_rows=st.integers(1, 4), lo=st.integers(-8, 8),
       hi=st.integers(-8, 8), reader=_READERS)
@example(content=_EMB1.pack(b"EMB1", 1, 0, 5, 2**32 - 1, 0) + bytes(4096), batch_rows=1,
         lo=0, hi=1, reader="read")
@example(content=_EMB1.pack(b"EMB1", 1, 0, 2**62, 2**20, 0) + bytes(4096), batch_rows=4,
         lo=0, hi=1, reader="iter")
@example(content=_EMB1.pack(b"EMB1", 1, 1, 0, 2**32 - 1, 0), batch_rows=1, lo=0, hi=1,
         reader="stats")
def test_emb1_readers_give_the_encoded_rows_or_a_data_format_error(content, batch_rows, lo, hi,
                                                                   reader):
    encoded = _encoded_rows(content)
    want = encoded if encoded is not None and np.isfinite(encoded).all() else None
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.emb1"), os.path.join(tmp, "stats.json")
        Path(path).write_bytes(content)
        _assert_rows(_or_none(lambda: read_embeddings(path)), want)
        batches = _or_none(lambda: _batches(path, batch_rows))
        _assert_rows(None if batches is None else _joined(batches, encoded), want)
        source = _or_none(lambda: row_source(path))
        assert (source is None) == (encoded is None)
        if source is not None:
            assert isinstance(source, EmbeddingFile) and source.shape == encoded.shape
            rows = slice(lo, hi)
            part = encoded[rows]
            _assert_rows(_or_none(lambda: source[rows].copy()),
                         part if np.isfinite(part).all() else None)
        assert _stats_exit_code(path, out) == _stats_exit_code_for(want)

        with fed_pipe(content) as pipe:
            if reader == "read":
                _assert_rows(_or_none(lambda: read_embeddings(pipe)), want)
            elif reader == "iter":
                batches = _or_none(lambda: _batches(pipe, batch_rows))
                _assert_rows(None if batches is None else _joined(batches, encoded), want)
            else:
                assert _stats_exit_code(pipe, out) == _stats_exit_code_for(want)


@st.composite
def csv_files(draw):
    """CSV rows with comments and blank lines, maybe corrupted or cut short; or noise.

    A line of spaces is a corruption: ``np.loadtxt`` reads it as one empty field.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=256)), None
    dims = draw(st.integers(1, 4))
    rows = draw(arrays(np.float64, (draw(st.integers(0, 6)), dims),
                       elements=st.floats(-1e3, 1e3)))
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note"])))
    edit = draw(st.sampled_from(["none", "none", "token", "ragged", "truncate"]))
    if edit == "none":
        return ("\n".join(lines) + "\n").encode(), rows
    if edit == "token":
        token = draw(st.sampled_from(["abc", "1.2.3", "", " ", "nan", "inf", "-inf", "0x10",
                                      "\xff"]))
        lines.insert(draw(st.integers(0, len(lines))), ",".join([token] * dims))
    elif edit == "ragged":
        lines.insert(draw(st.integers(0, len(lines))), ",".join(["1.0"] * (dims + 1)))
    content = ("\n".join(lines) + "\n").encode()
    if edit == "truncate":
        content = content[:draw(st.integers(0, len(content)))]
    return content, None


@settings(derandomize=True, max_examples=250, deadline=None)
@given(file=csv_files(), batch_rows=st.integers(1, 4))
@example(file=(b"1.0\n\n# note\n2.0 # end\n", np.array([[1.0], [2.0]])), batch_rows=1)
def test_csv_readers_give_the_rows_or_a_data_format_error(file, batch_rows):
    content, rows = file
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "stats.json")
        Path(path).write_bytes(content)
        whole = _or_none(lambda: read_embeddings(path))
        if rows is not None:  # uncorrupted: exactly the rows, unless there are none
            _assert_rows(whole, rows if rows.shape[0] else None)
        if whole is not None:
            assert whole.dtype == np.float64 and np.isfinite(whole).all()
        batches = _or_none(lambda: _batches(path, batch_rows))
        if whole is None:
            assert not batches
        else:
            _assert_rows(_joined(batches, whole), whole)
        assert _stats_exit_code(path, out) == _stats_exit_code_for(whole)
