import contextlib
import dataclasses
import json
import os
import re
import shutil
import struct
import tempfile
import threading
import tracemalloc
import weakref
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_moments import piece_sum_mean

from gapalign import (
    AlignmentStats,
    BlockwiseStats,
    C3Baseline,
    ReferenceFrame,
    StatsArtifact,
    apply_blockwise,
    cosine_histogram,
    js_divergence,
    knn_mixing_rate,
    knn_overlap,
    load_artifact,
    read_embeddings,
    save_artifact,
    stats_of,
    substitution_operator,
    write_embeddings,
)
from gapalign import cli as cli_module
from gapalign import diagnostics
from gapalign.cli import _write_csv, main
from gapalign.io import file_digest, row_source
from gapalign.moments import ModalityStats, MomentAccumulator

# a command that computes a NaN or overflows on valid input fails here, not only on stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    d = 8
    src = unit_rows(np.array([0.7] + [0.0] * (d - 1)) + 0.3 * rng.standard_normal((1500, d)))
    tgt = unit_rows(np.array([0.0, 0.8] + [0.0] * (d - 2)) + 0.25 * rng.standard_normal((1500, d)))
    write_embeddings(src, str(tmp_path / "src.emb"))
    write_embeddings(tgt, str(tmp_path / "tgt.emb"))
    return tmp_path


def test_stats_on_small_fixture(tmp_path):
    path = str(tmp_path / "two.emb")
    write_embeddings(np.array([[1.0, 0, 0], [0, 1.0, 0]]), path)
    out = str(tmp_path / "two.stats")
    assert main(["stats", "--in", path, "--out", out]) == 0
    artifact = load_artifact(out)
    stats = ModalityStats.from_payload(artifact.payload)
    npt.assert_allclose(stats.mean, [0.5, 0.5, 0.0])
    assert artifact.provenance["version"]
    assert path in artifact.provenance["input_digests"]


def test_full_frame_decompose_pipeline(workdir):
    sx = str(workdir / "src.stats")
    sy = str(workdir / "tgt.stats")
    assert main(["stats", "--in", str(workdir / "src.emb"), "--out", sx]) == 0
    assert main(["stats", "--in", str(workdir / "tgt.emb"), "--out", sy]) == 0
    frame_path = str(workdir / "frame.stats")
    assert main(["frame", "--x", sx, "--y", sy, "--energy", "0.9", "--out", frame_path]) == 0
    report = str(workdir / "dec.json")
    assert main([
        "decompose", "--x", str(workdir / "src.emb"), "--y", str(workdir / "tgt.emb"),
        "--frame", frame_path, "--report", report,
    ]) == 0
    doc = json.loads(Path(report).read_text())
    assert doc["max_reconstruction_error"] < 1e-10
    assert doc["mean_gap_norm"] > 0


def test_decompose_report_matches_whole_array_check(workdir):
    # rows past the first 1,024-row block are larger, so the largest rounding
    # error of the reconstruction lies outside the first block
    rng = np.random.default_rng(3)
    for side in ("src", "tgt"):
        rows = rng.normal(size=(2500, 8))
        rows[1024:] *= 100.0
        write_embeddings(rows, str(workdir / f"{side}.emb"))
        assert main(["stats", "--in", str(workdir / f"{side}.emb"),
                     "--out", str(workdir / f"{side}.stats")]) == 0
    frame_path = str(workdir / "frame.stats")
    assert main(["frame", "--x", str(workdir / "src.stats"), "--y", str(workdir / "tgt.stats"),
                 "--energy", "0.7", "--out", frame_path]) == 0
    report = str(workdir / "dec.json")
    assert main(["decompose", "--x", str(workdir / "src.emb"), "--y", str(workdir / "tgt.emb"),
                 "--frame", frame_path, "--report", report]) == 0
    doc = json.loads(Path(report).read_text())
    # the whole-array reconstruction check, with full-size temporaries
    frame = ReferenceFrame.from_payload(load_artifact(frame_path).payload)
    x = read_embeddings(str(workdir / "src.emb"))
    y = read_embeddings(str(workdir / "tgt.emb"))
    diffs = x - y
    mean_gap = diffs.mean(axis=0)
    bias_in = frame.coords(mean_gap)
    bias_out = mean_gap - frame.lift(bias_in)
    resid_in = frame.coords(diffs - mean_gap)
    resid_out = diffs - mean_gap - frame.lift(resid_in)
    rebuilt = frame.lift(bias_in) + bias_out + frame.lift(resid_in) + resid_out
    err = np.abs(rebuilt - diffs)
    assert np.argmax(err.max(axis=1)) >= 1024
    assert doc["max_reconstruction_error"] == float(err.max())
    assert doc["resid_out_trace"] == float(np.mean(np.sum(resid_out**2, axis=1)))
    assert doc["resid_in_trace"] == float(np.mean(np.sum(resid_in**2, axis=1)))


def decompose_report_oracle(x, y, frame):
    """Per-row reconstruction errors and every value of the decompose report, from whole arrays."""
    diffs = np.subtract(x, y, dtype=np.float64)
    mean_gap = piece_sum_mean(diffs)
    bias_in = frame.coords(mean_gap)
    bias_out = mean_gap - frame.lift(bias_in)
    resid_in = frame.coords(diffs - mean_gap)
    resid_out = diffs - mean_gap - frame.lift(resid_in)
    rebuilt = frame.lift(bias_in) + bias_out + frame.lift(resid_in) + resid_out
    row_err = np.abs(rebuilt - diffs).max(axis=1)
    return row_err, {
        "rows": x.shape[0],
        "rank": frame.rank,
        "mean_gap_norm": float(np.linalg.norm(mean_gap)),
        "bias_in_norm": float(np.linalg.norm(bias_in)),
        "bias_out_norm": float(np.linalg.norm(bias_out)),
        "resid_in_trace": float(np.mean(np.sum(resid_in**2, axis=1))),
        "resid_out_trace": float(np.mean(np.sum(resid_out**2, axis=1))),
        "mean_gap_leakage": float(np.linalg.norm(frame.project_complement(mean_gap))
                                  / np.linalg.norm(mean_gap)),
        "max_reconstruction_error": float(row_err.max()),
    }


def write_paired_fixture(workdir, n, d, seed, middle_scale=1.0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    mix = rng.normal(size=(d, d)) / np.sqrt(d)
    for side, offset in (("src", 0.4), ("tgt", -0.2)):
        rows = unit_rows(offset + rng.normal(size=(n, d)) @ mix).astype(dtype)
        rows[1024:2048] *= middle_scale
        write_embeddings(rows, str(workdir / f"{side}.emb"))
        assert main(["stats", "--in", str(workdir / f"{side}.emb"),
                     "--out", str(workdir / f"{side}.stats")]) == 0
    assert main(["frame", "--x", str(workdir / "src.stats"), "--y", str(workdir / "tgt.stats"),
                 "--energy", "0.8", "--out", str(workdir / "frame.stats")]) == 0
    return ["decompose", "--x", str(workdir / "src.emb"), "--y", str(workdir / "tgt.emb"),
            "--frame", str(workdir / "frame.stats"), "--report", str(workdir / "dec.json")]


def test_decompose_report_is_bitwise_the_whole_array_report(workdir):
    # float32 inputs and 3,001 rows: the report's passes cross two block
    # boundaries, and the larger rows of the middle block hold the largest
    # reconstruction error
    argv = write_paired_fixture(workdir, 3_001, 16, 4, middle_scale=100.0)
    assert main(argv) == 0
    doc = json.loads((workdir / "dec.json").read_text())
    doc.pop("provenance")
    frame = ReferenceFrame.from_payload(load_artifact(str(workdir / "frame.stats")).payload)
    x = read_embeddings(str(workdir / "src.emb"))
    y = read_embeddings(str(workdir / "tgt.emb"))
    row_err, expected = decompose_report_oracle(x, y, frame)
    assert 1024 <= np.argmax(row_err) < 2048
    assert doc == expected


def test_decompose_memory_is_inputs_plus_blocks(workdir):
    n, d = 20_000, 256
    argv = write_paired_fixture(workdir, n, d, 5)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two float32 inputs, a few float64 row blocks and two per-row
    # vectors; an N x d float64 array of differences would add 39 MiB
    inputs, block = 2 * n * d * 4, 1025 * d * 8
    assert peak < inputs + 8 * block + 2 * n * 8 + (2 << 20)


@pytest.mark.parametrize("command", ["stats", "diagnose"])
@pytest.mark.parametrize("rows,dims", [(2**36, 8), (2, 2**31)])
def test_oversized_header_is_a_data_error(workdir, capsys, command, rows, dims):
    path = str(workdir / "huge.emb")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQII", b"EMB1", 1, 0, rows, dims, 0))
        fh.write(b"\x00" * 64)
    if command == "stats":
        argv = ["stats", "--in", path, "--out", str(workdir / "huge.stats")]
    else:
        argv = ["diagnose", "--a", path, "--b", str(workdir / "tgt.emb"),
                "--report", str(workdir / "huge.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: ") and "huge.emb" in err and "Traceback" not in err


@contextlib.contextmanager
def fed_pipe(content: bytes):
    """A ``/dev/fd`` path to a pipe that one writer thread feeds ``content``.

    The writer is joined, then the read end closed, on exit.  ``content``
    must fit the pipe's buffer (64 KiB on Linux) unless the reader reads
    all of it, so the writer never waits on a reader that stopped early.
    """
    read_fd, write_fd = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), os.fdopen(write_fd, "wb") as fh:
            fh.write(content)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        writer.join(timeout=10)
        os.close(read_fd)
    assert not writer.is_alive()


@pytest.mark.parametrize("command,rows,dims", [
    ("stats", 5, 2**32 - 1), ("anchor-only", 5, 2**32 - 1),
    ("stats", 2**62, 2**20), ("realign", 2**62, 2**20),
])
def test_emb1_pipe_claiming_more_than_arrives_is_a_data_error(workdir, capsys, command, rows, dims):
    with fed_pipe(struct.pack("<4sIIQII", b"EMB1", 1, 0, rows, dims, 0) + b"\0" * 4096) as path:
        if command == "stats":
            argv = ["stats", "--in", path, "--out", str(workdir / "pipe.stats")]
        else:
            argv = ["align", "--method", command, "--in", path,
                    "--out", str(workdir / "pipe.emb"), "--calib-src", str(workdir / "src.emb"),
                    "--calib-tgt", str(workdir / "tgt.emb")]
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gapalign: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("no_cov", [[], ["--no-cov"]])
@pytest.mark.parametrize("shrink", ["nan", "-0.1", "5"])
def test_stats_rejects_a_shrink_outside_the_unit_interval_before_reading(
        workdir, capsys, monkeypatch, shrink, no_cov):
    # nan was once ignored and saved as the non-JSON token NaN; --no-cov --shrink 5 exited 0
    monkeypatch.setattr("gapalign.cli.iter_embedding_batches",
                        lambda *a, **k: pytest.fail("read the input"))
    out = workdir / "stats.json"
    assert main(["stats", "--in", str(workdir / "src.emb"), "--out", str(out),
                 f"--shrink={shrink}", *no_cov]) == 2
    assert capsys.readouterr().err.startswith(
        f"gapalign: shrink must be finite and in [0, 1], got {shrink} (--shrink)")
    assert not out.exists()


def test_stats_overwrite_without_covariance_leaves_no_covariance_sidecar(workdir):
    out = str(workdir / "s.json")
    assert main(["stats", "--in", str(workdir / "src.emb"), "--out", out]) == 0
    assert (workdir / "s.json.covariance.npy").is_file()
    assert main(["stats", "--no-cov", "--in", str(workdir / "src.emb"), "--out", out]) == 0
    assert sorted(p.name for p in workdir.glob("s.json*")) == ["s.json"]


@pytest.mark.parametrize("no_cov", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [8193, 8194, 12289, 16386])
def test_stats_artifact_is_bitwise_the_moments_of_one_walk(tmp_path, n, dtype, no_cov):
    # `stats` reads moments._BLOCK-row batches and each accumulate call continues the
    # walk that stats_of takes over the whole file: 2 to 4 blocks, the last 1 to 3 rows
    # wider, from a regular file and from a pipe
    path, out = str(tmp_path / "rows.emb"), str(tmp_path / "rows.stats")
    write_embeddings((np.random.default_rng(n).normal(size=(n, 8)) * 3.0 + 0.7).astype(dtype),
                     path)
    want = stats_of(row_source(path), track_cov=not no_cov)

    def assert_stats_of(source):
        assert main(["stats", "--in", source, "--out", out, *(["--no-cov"] * no_cov)]) == 0
        got = ModalityStats.from_payload(load_artifact(out).payload)
        assert got.n == n and got.trace == want.trace
        assert got.mean.tobytes() == want.mean.tobytes()
        assert (got.covariance is None) == no_cov
        assert no_cov or got.covariance.tobytes() == want.covariance.tobytes()

    assert_stats_of(path)
    with fed_pipe(Path(path).read_bytes()) as pipe:
        assert_stats_of(pipe)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [8193, 8194, 16386])
def test_frame_from_stats_artifacts_is_bitwise_the_frame_blockwise_align_builds(tmp_path, n,
                                                                                 dtype):
    # write_paired_fixture runs `stats` on both files and `frame --energy 0.8`
    write_paired_fixture(tmp_path, n, 8, 23, dtype=dtype)
    assert main(["align", "--method", "blockwise", "--in", str(tmp_path / "src.emb"),
                 "--out", str(tmp_path / "bw.emb"), "--calib-src", str(tmp_path / "src.emb"),
                 "--calib-tgt", str(tmp_path / "tgt.emb"), "--energy", "0.8",
                 "--save-stats", str(tmp_path / "bw.json")]) == 0
    assert ((tmp_path / "frame.stats.basis.npy").read_bytes()
            == (tmp_path / "bw.json.frame.basis.npy").read_bytes())


@pytest.mark.parametrize("method", ["realign", "blockwise"])
def test_align_calibrates_from_in_as_from_a_copy_of_it(workdir, method):
    src = str(workdir / "src.emb")
    copy = str(workdir / "src_copy.emb")
    shutil.copyfile(src, copy)
    outputs = []
    for calib_src in (src, copy):
        out = workdir / f"out_{len(outputs)}.emb"
        assert main(["align", "--method", method, "--in", src, "--out", str(out),
                     "--calib-src", calib_src, "--calib-tgt", str(workdir / "tgt.emb"),
                     "--energy", "0.7"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# ------------------------------------------------- streaming align and decompose

STREAM_DIMS = 8


@pytest.fixture(scope="module")
def saved_operators(tmp_path_factory):
    """Realign and blockwise artifacts calibrated by the CLI on 600 fixed rows."""
    workdir = tmp_path_factory.mktemp("operators")
    rng = np.random.default_rng(11)
    d = STREAM_DIMS
    for side, offset in (("src", 0.5), ("tgt", -0.3)):
        rows = unit_rows(offset + rng.normal(size=(600, d)))
        write_embeddings(rows, str(workdir / f"{side}.emb"))
    calib = ["--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb")]
    paths = {}
    for method in ("realign", "blockwise"):
        paths[method] = str(workdir / f"{method}.stats")
        assert main(["align", "--method", method, "--in", str(workdir / "src.emb"),
                     "--out", str(workdir / "out.emb"), *calib, "--energy", "0.7",
                     "--save-stats", paths[method]]) == 0
    return paths


def library_output(method, rows, paths):
    """What the whole-array library call gives for ``align --method method --stats ...``."""
    if method == "blockwise":
        return apply_blockwise(rows, BlockwiseStats.from_payload(load_artifact(paths[method]).payload))
    stats = AlignmentStats.from_payload(load_artifact(paths["realign"]).payload)
    if method == "realign":
        return substitution_operator(rows, stats)
    sigma = 0.05 if method == "c3" else 0.0
    return C3Baseline(stats.mu_src, stats.mu_tgt, sigma, 7).apply(rows)


def align_with_stats(method, in_path, out_path, paths):
    stats = paths["blockwise" if method == "blockwise" else "realign"]
    return main(["align", "--method", method, "--in", str(in_path), "--out", str(out_path),
                 "--stats", stats, "--sigma", "0.05", "--seed", "7"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 1023, 1024, 1025, 1026, 2049, 2050, 3001])
def test_streamed_cli_output_is_bitwise_the_whole_array_library_call(
        tmp_path, saved_operators, n, dtype):
    rng = np.random.default_rng(n)
    rows = unit_rows(0.5 + rng.normal(size=(n, STREAM_DIMS))).astype(dtype)
    in_path = tmp_path / "in.emb"
    write_embeddings(rows, str(in_path))
    for method in ("realign", "blockwise", "anchor-only", "c3"):
        out, expected = tmp_path / f"{method}.emb", tmp_path / f"{method}_whole.emb"
        assert align_with_stats(method, in_path, out, saved_operators) == 0
        whole = library_output(method, rows, saved_operators)
        write_embeddings(whole, str(expected))
        assert out.read_bytes() == expected.read_bytes(), method
    assert main(write_paired_fixture(tmp_path, n, 16, 4, dtype=dtype)) == 0
    doc = json.loads((tmp_path / "dec.json").read_text())
    doc.pop("provenance")
    frame = ReferenceFrame.from_payload(load_artifact(str(tmp_path / "frame.stats")).payload)
    x = read_embeddings(str(tmp_path / "src.emb"))
    y = read_embeddings(str(tmp_path / "tgt.emb"))
    assert doc == decompose_report_oracle(x, y, frame)[1]


def traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["realign", "blockwise", "c3", "anchor-only", "decompose"])
def test_align_and_decompose_memory_does_not_grow_with_rows(tmp_path, command):
    d = 32
    for n in (20_000, 80_000):
        argv = write_paired_fixture(tmp_path, n, d, 6)
        if command != "decompose":
            argv = ["align", "--method", command, "--in", argv[2], "--out",
                    str(tmp_path / "out.emb"), "--calib-src", argv[2], "--calib-tgt", argv[4]]
        # a few 4,096-row float64 blocks of the moment kernel, and for decompose
        # its two per-row float64 vectors; the n x d float64 output alone takes
        # 4.9 MiB at 20k rows and 19.5 MiB at 80k
        bound = 4 * 4096 * d * 8 + (2 * n * 8 if command == "decompose" else 0)
        assert traced_peak(argv) < bound, n


def test_blockwise_align_frees_the_source_covariance_before_the_anchored_pass(workdir,
                                                                              monkeypatch):
    # the anchored covariance pass reads the source's mean only, so the raw source
    # covariance the frame was built from is not held beside the pass's d x d arrays
    build_frame, accumulate_from = cli_module.build_frame, MomentAccumulator.accumulate_from
    source_cov, alive = [], []

    def recorded_build_frame(cov_a, cov_b, **kwargs):
        source_cov.append(weakref.ref(cov_a))
        return build_frame(cov_a, cov_b, **kwargs)

    def recorded_accumulate_from(self, n, fill):
        alive.extend(ref() is not None for ref in source_cov)
        return accumulate_from(self, n, fill)

    monkeypatch.setattr(cli_module, "build_frame", recorded_build_frame)
    monkeypatch.setattr(MomentAccumulator, "accumulate_from", recorded_accumulate_from)
    src, tgt = str(workdir / "src.emb"), str(workdir / "tgt.emb")
    assert main(["align", "--method", "blockwise", "--in", src, "--out",
                 str(workdir / "out.emb"), "--calib-src", src, "--calib-tgt", tgt]) == 0
    assert alive == [False]


def write_rows(path, rows):
    write_embeddings(rows, str(path))
    return str(path)


def test_align_non_finite_input_row_leaves_no_output(workdir, capsys):
    rows = read_embeddings(str(workdir / "src.emb"))
    rows = np.vstack([rows, rows[:500]])
    rows[1500, 3] = np.nan  # in the second row block, after the first was written
    bad = write_rows(workdir / "bad.emb", rows)
    out = workdir / "out.emb"
    assert main(["align", "--method", "realign", "--in", bad, "--out", str(out),
                 "--calib-src", str(workdir / "src.emb"),
                 "--calib-tgt", str(workdir / "tgt.emb")]) == 2
    assert "non-finite value in row 1500" in capsys.readouterr().err
    assert not out.exists()
    assert not list(workdir.glob(".tmp-*"))


@pytest.mark.parametrize("method", ["realign", "blockwise", "anchor-only"])
def test_align_collapse_names_row_in_whole_input(tmp_path, saved_operators, capsys, method):
    # the saved operator with its source mean moved to the unit row e1 and its target mean
    # to 0, so the affine or anchor step maps the unit input row e1 to 0
    kind = "blockwise" if method == "blockwise" else "realign"
    cls = BlockwiseStats if kind == "blockwise" else AlignmentStats
    e1 = np.eye(STREAM_DIMS)[0]
    stats = dataclasses.replace(cls.from_payload(load_artifact(saved_operators[kind]).payload),
                                mu_src=e1, mu_tgt=np.zeros(STREAM_DIMS))
    paths = {kind: str(tmp_path / "moved.stats")}
    save_artifact(StatsArtifact(stats.kind, stats.to_payload()), paths[kind])
    rows = unit_rows(np.random.default_rng(8).normal(size=(2000, STREAM_DIMS)))
    rows[1500] = e1
    out = tmp_path / "out.emb"
    assert align_with_stats(method, write_rows(tmp_path / "in.emb", rows), out, paths) == 3
    assert capsys.readouterr().err.rstrip().endswith("at row 1500")
    assert not out.exists()


@pytest.fixture(scope="module")
def scaled_by_10(tmp_path_factory):
    """A 3,000 x 16 float32 unit pair, ``src.emb`` and ``tgt.emb``, and both times 10."""
    workdir = tmp_path_factory.mktemp("scaled")
    rng = np.random.default_rng(12)
    for side, offset in (("src", 0.4), ("tgt", -0.2)):
        rows = unit_rows(offset + rng.normal(size=(3000, 16))).astype(np.float32)
        write_embeddings(rows, str(workdir / f"{side}.emb"))
        write_embeddings(rows * np.float32(10), str(workdir / f"{side}10.emb"))
    return workdir


@pytest.mark.parametrize("case", ["calib-tgt", "every input"])
@pytest.mark.parametrize("method", ["realign", "blockwise", "c3", "anchor-only"])
def test_align_refuses_rows_off_the_unit_sphere(scaled_by_10, capsys, method, case):
    # each exited 0 once, with outputs at JS ln 2 from the unit target: step 3 adds the
    # target mean at the rows' scale, so every output turned toward it
    names = ("src.emb", "src.emb", "tgt10.emb") if case == "calib-tgt" else (
        "src10.emb", "src10.emb", "tgt10.emb")
    in_path, calib_src, calib_tgt = (str(scaled_by_10 / name) for name in names)
    out = scaled_by_10 / "out.emb"
    assert main(["align", "--method", method, "--in", in_path, "--out", str(out),
                 "--calib-src", calib_src, "--calib-tgt", calib_tgt]) == 2
    # the calibration files are read first, the source before the target
    first = calib_tgt if case == "calib-tgt" else calib_src
    err = capsys.readouterr().err  # the norm of a float32 unit row times 10 is near 10
    assert re.fullmatch(rf"gapalign: {re.escape(first)}: norm 10\.?\d* is off the unit sphere "
                        r"by more than 0\.0001 at row 0\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("side", ["src", "tgt"])
def test_sample_curve_refuses_rows_off_the_unit_sphere(scaled_by_10, capsys, side):
    paths = {name: str(scaled_by_10 / (f"{name}10.emb" if name == side else f"{name}.emb"))
             for name in ("src", "tgt")}
    out = scaled_by_10 / "curve.csv"
    assert main(["sample-curve", "--src", paths["src"], "--tgt", paths["tgt"], "--sizes", "50,100",
                 "--out", str(out)]) == 2
    assert re.search(rf"{re.escape(paths[side])}: norm 10\.?\d* is off the unit sphere",
                     capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("field", ["mu_src", "mu_tgt"])
@pytest.mark.parametrize("method", ["realign", "blockwise", "anchor-only"])
def test_align_refuses_a_saved_operator_whose_means_are_longer_than_1(
        tmp_path, saved_operators, capsys, method, field):
    # the constructor refuses such a mean, so the x 10 is written into the saved payload
    kind = "blockwise" if method == "blockwise" else "realign"
    artifact = load_artifact(saved_operators[kind])
    payload = {**artifact.payload, field: [10.0 * v for v in artifact.payload[field]]}
    paths = {kind: str(tmp_path / "long.stats")}
    save_artifact(StatsArtifact(artifact.kind, payload), paths[kind])
    in_path = write_rows(tmp_path / "in.emb", unit_rows(np.ones((4, STREAM_DIMS))))
    assert align_with_stats(method, in_path, tmp_path / "out.emb", paths) == 2
    err = capsys.readouterr().err
    assert f"{paths[kind]}: {field} has length" in err and "longer than 1 + 0.0001" in err
    assert not (tmp_path / "out.emb").exists()


@pytest.mark.parametrize("method, stage", [("realign", "affine-stage"), ("blockwise", "anchor"),
                                           ("anchor-only", "anchor"), ("c3", "noise-stage")])
def test_align_norm_overflow_exits_3_with_no_output(workdir, capsys, method, stage):
    # each once exited 0: c3 --sigma 1e300 and anchor-only wrote all-zero rows and realign
    # identical ones, because every row was divided by an infinite norm.  Rows x 1e200 are
    # now refused as `--in` is read, by the unit-sphere rule, before any stage; the stages'
    # own overflow is pinned on the library operators in test_realign.py
    rows = read_embeddings(str(workdir / "src.emb"))
    huge = write_rows(workdir / "huge.emb", rows if method == "c3" else rows * 1e200)
    out = workdir / "out.emb"
    assert main(["align", "--method", method, "--in", huge, "--out", str(out),
                 "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
                 "--sigma", "1e300"]) == 3
    where = f"{stage} normalization" if method == "c3" else huge
    assert capsys.readouterr().err.rstrip().endswith(f"{where}: norm overflowed at row 0")
    assert not out.exists()


def test_align_dims_mismatch_with_saved_stats_leaves_no_output(workdir, saved_operators, capsys):
    bad = write_rows(workdir / "wide.emb", np.ones((3000, STREAM_DIMS + 1)))
    out = workdir / "out.emb"
    assert main(["align", "--method", "realign", "--in", bad, "--out", str(out),
                 "--stats", saved_operators["realign"]]) == 2
    assert "dims" in capsys.readouterr().err
    assert not out.exists()
    assert not list(workdir.glob(".tmp-*"))


@pytest.mark.parametrize("method", ["realign", "blockwise", "c3"])
def test_align_out_may_be_in(workdir, saved_operators, method):
    in_path = workdir / "in.emb"
    shutil.copyfile(workdir / "src.emb", in_path)
    assert align_with_stats(method, workdir / "src.emb", workdir / "apart.emb",
                            saved_operators) == 0
    assert align_with_stats(method, in_path, in_path, saved_operators) == 0
    assert in_path.read_bytes() == (workdir / "apart.emb").read_bytes()


def test_align_zero_row_input_writes_zero_row_output(tmp_path, saved_operators):
    empty = write_rows(tmp_path / "empty.emb", np.empty((0, STREAM_DIMS), dtype=np.float32))
    out = tmp_path / "out.emb"
    assert align_with_stats("realign", empty, out, saved_operators) == 0
    moved = read_embeddings(str(out))
    assert moved.shape == (0, STREAM_DIMS) and moved.dtype == np.float64


def test_align_csv_input_matches_emb1_input(tmp_path, saved_operators):
    rows = unit_rows(np.random.default_rng(2).normal(size=(1100, STREAM_DIMS)))
    csv_path, emb_path = write_rows(tmp_path / "in.csv", rows), write_rows(tmp_path / "in.emb", rows)
    for method in ("realign", "blockwise", "c3"):
        from_csv, from_emb = tmp_path / f"{method}_csv.emb", tmp_path / f"{method}_emb.emb"
        assert align_with_stats(method, csv_path, from_csv, saved_operators) == 0
        assert align_with_stats(method, emb_path, from_emb, saved_operators) == 0
        assert from_csv.read_bytes() == from_emb.read_bytes(), method


@pytest.mark.parametrize("method", ["realign", "anchor-only", "c3", "blockwise"])
def test_align_methods_produce_unit_rows(workdir, method):
    out = str(workdir / f"{method}.emb")
    code = main([
        "align", "--method", method,
        "--in", str(workdir / "src.emb"), "--out", out,
        "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
        "--energy", "0.7",
    ])
    assert code == 0
    moved = read_embeddings(out)
    npt.assert_allclose(np.linalg.norm(moved, axis=1), np.ones(moved.shape[0]), atol=1e-9)


def test_align_reduces_gap_via_saved_stats(workdir):
    stats_path = str(workdir / "align.stats")
    out = str(workdir / "aligned.emb")
    assert main([
        "align", "--method", "realign",
        "--in", str(workdir / "src.emb"), "--out", out,
        "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
        "--save-stats", stats_path,
    ]) == 0
    again = str(workdir / "aligned2.emb")
    assert main([
        "align", "--method", "realign",
        "--in", str(workdir / "src.emb"), "--out", again, "--stats", stats_path,
    ]) == 0
    npt.assert_array_equal(read_embeddings(out), read_embeddings(again))
    src = read_embeddings(str(workdir / "src.emb"))
    tgt = read_embeddings(str(workdir / "tgt.emb"))
    moved = read_embeddings(out)
    before = np.linalg.norm(src.mean(axis=0) - tgt.mean(axis=0))
    after = np.linalg.norm(moved.mean(axis=0) - tgt.mean(axis=0))
    assert after < 0.05 * before


def test_full_rank_blockwise_stats_apply_from_artifact(workdir):
    # energy 1.0 gives a rank-d frame, so t_out is 0 x 0 and saved as []; 0.7 gives a
    # partial rank, whose frame is built in process and loaded with the same layout
    for energy in ("1.0", "0.7"):
        stats_path = str(workdir / "full.stats")
        out = str(workdir / "full.emb")
        assert main([
            "align", "--method", "blockwise",
            "--in", str(workdir / "src.emb"), "--out", out,
            "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
            "--energy", energy, "--save-stats", stats_path,
        ]) == 0
        t_out = load_artifact(stats_path).payload["t_out"]
        assert t_out == [] if energy == "1.0" else t_out.shape[0] > 0
        again = str(workdir / "full2.emb")
        assert main([
            "align", "--method", "blockwise",
            "--in", str(workdir / "src.emb"), "--out", again, "--stats", stats_path,
        ]) == 0
        npt.assert_array_equal(read_embeddings(out), read_embeddings(again))


@pytest.mark.parametrize("method, field", [("realign", "mu_tgt"), ("blockwise", "mu_drift")])
def test_align_rejects_non_finite_saved_stats(workdir, method, field):
    # before validation on load, a NaN here gave exit 0 and non-finite output rows
    stats_path = str(workdir / f"{method}.stats")
    assert main([
        "align", "--method", method,
        "--in", str(workdir / "src.emb"), "--out", str(workdir / "first.emb"),
        "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
        "--energy", "0.7", "--save-stats", stats_path,
    ]) == 0
    doc = json.loads(Path(stats_path).read_text())
    doc["payload"][field][3] = float("nan")
    with open(stats_path, "w") as fh:
        json.dump(doc, fh)
    out = workdir / "from_corrupt.emb"
    code = main([
        "align", "--method", method,
        "--in", str(workdir / "src.emb"), "--out", str(out), "--stats", stats_path,
    ])
    assert code == 2
    assert not out.exists()


# explicit ids (the names pytest generated, frozen): editing a message renames no test
@pytest.mark.parametrize("field, value, named", [
    ("mean", [0.1, 0.2, 0.3, 0.4], "covariance has shape (8, 8), expected (4, 4)"),
    ("mean", [[0.1] * 8], "mean has shape (1, 8)"),
    ("mean", [0.1] * 7 + [float("nan")], "mean contains non-finite"),
    ("trace", float("nan"), "trace contains non-finite"),
    ("trace", -0.5, "trace -0.5 is negative"),
    ("trace", None, "trace contains non-finite"),
    ("n", 0, "n must be an integer >= 1"),
    ("n", 2.5, "n must be an integer >= 1"),
    ("covariance", [[0.0] * 7] * 8, "covariance has shape (8, 7)"),
    ("covariance", [[float("inf")] * 8] * 8, "covariance contains non-finite"),
    # numpy converts these, so they loaded as 1000.0, 1.0 and [1.0, 0.1, ...]
    ("trace", "1e3", "trace is not a numeric array (holds str)"),
    ("trace", True, "trace is not a numeric array (holds bool)"),
    ("mean", [True] + [0.1] * 7, "mean is not a numeric array (holds bool)"),
], ids=[
    "mean-value0-covariance has shape (8, 8), expected (4, 4)",
    "mean-value1-mean has shape (1, 8)",
    "mean-value2-mean contains non-finite",
    "trace-nan-trace contains non-finite",
    "trace--0.5-trace -0.5 is negative",
    "trace-None-trace contains non-finite",
    "n-0-n must be an integer >= 1",
    "n-2.5-n must be an integer >= 1",
    "covariance-value8-covariance has shape (8, 7)",
    "covariance-value9-covariance contains non-finite",
    "trace-1e3-trace is not a numeric array (holds str)",
    "trace-True-trace is not a numeric array (holds bool)",
    "mean-value12-mean is not a numeric array (holds bool)",
])
def test_frame_rejects_malformed_stats_artifact(workdir, capsys, field, value, named):
    # before validation on load, a 4-entry mean with an 8 x 8 covariance or a
    # NaN trace loaded, and frame exited 0
    stats_path = str(workdir / "src.stats")
    assert main(["stats", "--in", str(workdir / "src.emb"), "--out", stats_path]) == 0
    assert main(["stats", "--in", str(workdir / "tgt.emb"), "--out", str(workdir / "tgt.stats")]) == 0
    doc = json.loads(Path(stats_path).read_text())
    doc["payload"][field] = value
    with open(stats_path, "w") as fh:
        json.dump(doc, fh)
    out = workdir / "frame.stats"
    code = main(["frame", "--x", stats_path, "--y", str(workdir / "tgt.stats"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: ") and named in err and "Traceback" not in err
    assert not out.exists()


def test_frame_rejects_torn_stats_sidecar(workdir, capsys):
    # the covariance is a .npy file beside the JSON; a shorter one must not load
    stats_path = str(workdir / "src.stats")
    assert main(["stats", "--in", str(workdir / "src.emb"), "--out", stats_path]) == 0
    assert main(["stats", "--in", str(workdir / "tgt.emb"), "--out", str(workdir / "tgt.stats")]) == 0
    sidecar = Path(stats_path + ".covariance.npy")
    sidecar.write_bytes(sidecar.read_bytes()[:-8])
    out = workdir / "frame.stats"
    code = main(["frame", "--x", stats_path, "--y", str(workdir / "tgt.stats"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: ") and "covariance sidecar" in err and "Traceback" not in err
    assert not out.exists()


def test_provenance_records_numpy_blas_and_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    path = str(tmp_path / "two.emb")
    write_embeddings(np.array([[1.0, 0, 0], [0, 1.0, 0]]), path)
    runs = []
    for name in ("one", "two"):
        out = str(tmp_path / f"{name}.stats")
        assert main(["stats", "--in", path, "--out", out]) == 0
        runs.append(load_artifact(out).provenance)
    first, second = runs
    assert [first[k] for k in ("numpy", "blas", "threads")] == [
        second[k] for k in ("numpy", "blas", "threads")]
    assert first["numpy"] == np.__version__
    assert set(first["blas"]) == {"name", "version"}
    threads = first["threads"]
    assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                            "cpu_affinity"}
    assert threads["OMP_NUM_THREADS"] == "3" and threads["MKL_NUM_THREADS"] is None
    assert threads["cpu_affinity"] >= 1


def test_frame_rejects_stats_artifact_missing_a_field(workdir, capsys):
    stats_path = str(workdir / "src.stats")
    assert main(["stats", "--in", str(workdir / "src.emb"), "--out", stats_path]) == 0
    doc = json.loads(Path(stats_path).read_text())
    del doc["payload"]["trace"]
    with open(stats_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["frame", "--x", stats_path, "--y", stats_path,
                 "--out", str(workdir / "frame.stats")]) == 2
    assert "missing field 'trace'" in capsys.readouterr().err


def _drop(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _set(key, value, nested=None):
    def mutate(payload):
        holder = payload[nested] if nested else payload
        holder[key] = value
        return payload
    return mutate


@pytest.mark.parametrize("artifact, mutate", [
    ("realign", _drop("mu_drift")),
    ("blockwise", _drop("mu_drift")),
    ("blockwise", _drop("floored")),
    ("frame", _drop("basis")),
    ("realign", _set("calib_n", None)),
    ("blockwise", _set("calib_n", None)),
    ("frame", _set("energy_threshold", None)),
    ("blockwise", _set("energy_threshold", None, nested="frame")),
    ("realign", lambda payload: [payload]),
    ("blockwise", _set("floored", "no")),
    ("realign", _set("calib_n", 2.5)),
    ("frame", _set("created_at_step", "abc")),
], ids=["realign-no-mu_drift", "blockwise-no-mu_drift", "blockwise-no-floored", "frame-no-basis",
        "realign-null-calib_n", "blockwise-null-calib_n", "frame-null-energy_threshold",
        "blockwise-frame-null-energy_threshold", "realign-list-payload", "blockwise-floored-no",
        "realign-fractional-calib_n", "frame-string-created_at_step"])
def test_malformed_artifact_field_exits_2(workdir, capsys, artifact, mutate):
    # each of these once raised KeyError or TypeError, or loaded a wrong value and exited 0
    path = str(workdir / f"{artifact}.json")
    calib = ["--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb")]
    if artifact == "frame":
        for side in ("src", "tgt"):
            assert main(["stats", "--in", str(workdir / f"{side}.emb"),
                         "--out", str(workdir / f"{side}.stats")]) == 0
        assert main(["frame", "--x", str(workdir / "src.stats"), "--y", str(workdir / "tgt.stats"),
                     "--out", path]) == 0
        out = workdir / "decompose.json"
        consume = ["decompose", "--x", str(workdir / "src.emb"), "--y", str(workdir / "tgt.emb"),
                   "--frame", path, "--report", str(out)]
    else:
        assert main(["align", "--method", artifact, "--in", str(workdir / "src.emb"),
                     "--out", str(workdir / "first.emb"), *calib, "--save-stats", path]) == 0
        out = workdir / "from_artifact.emb"
        consume = ["align", "--method", artifact, "--in", str(workdir / "src.emb"),
                   "--out", str(out), "--stats", path]
    doc = json.loads(Path(path).read_text())
    doc["payload"] = mutate(doc["payload"])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(consume) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["normalize_outputs = on", "shared_encoder = flase"])
def test_simulate_rejects_unknown_boolean_spelling(tmp_path, capsys, line):
    config = tmp_path / "sim.cfg"
    config.write_text(f"steps = 40\n{line}\n")
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--trace", str(out)]) == 2
    assert capsys.readouterr().err.startswith("gapalign: ")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
def test_align_c3_rejects_a_sigma_that_is_not_finite_and_non_negative(workdir, capsys, sigma):
    # nan once wrote the anchor-only output and inf an all-NaN one, both with exit 0
    out = workdir / "c3.emb"
    assert main(["align", "--method", "c3", "--in", str(workdir / "src.emb"), "--out", str(out),
                 "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
                 f"--sigma={sigma}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: sigma must be finite") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "-1"), ("--eig-floor", "-1"),
                                         ("--eig-floor", "inf")])
def test_align_rejects_an_eps_or_eig_floor_out_of_range(workdir, capsys, flag, value):
    # --eig-floor -1 once ran with exit 0, and --eps nan failed on the saved mu_drift
    out = workdir / "out.emb"
    method = "realign" if flag == "--eps" else "blockwise"
    assert main(["align", "--method", method, "--in", str(workdir / "src.emb"), "--out", str(out),
                 "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
                 f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gapalign: {flag[2:].replace('-', '_')} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "-1"), ("--eig-floor", "-1"),
                                         ("--eig-floor", "1.5")])
def test_align_rejects_an_eps_or_eig_floor_before_reading(workdir, capsys, monkeypatch, flag,
                                                          value):
    # --eps nan once ran stats_of over both calibration files before estimate_realign refused it
    monkeypatch.setattr("gapalign.cli.stats_of", lambda *a, **k: pytest.fail("read an input"))
    out = workdir / "out.emb"
    method = "realign" if flag == "--eps" else "blockwise"
    assert main(["align", "--method", method, "--in", str(workdir / "src.emb"), "--out", str(out),
                 "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
                 f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"got {value} ({flag})" in err and "Traceback" not in err
    assert not out.exists()


def _command_line(command, workdir, out):
    """A valid command line for ``command`` on the fixture pair, writing ``out``."""
    src, tgt = str(workdir / "src.emb"), str(workdir / "tgt.emb")
    return {
        "stats": ["stats", "--in", src, "--out", out],
        "frame": ["frame", "--x", src, "--y", tgt, "--out", out],
        "align": ["align", "--method", "c3", "--in", src, "--out", out, "--calib-src", src,
                  "--calib-tgt", tgt],
        "bench": ["bench", "--sizes", "10000", "--dims", "8", "--out", out],
        "diagnose": ["diagnose", "--a", src, "--b", tgt, "--report", out],
        "sample-curve": ["sample-curve", "--src", src, "--tgt", tgt, "--sizes", "50",
                         "--out", out],
        "simulate": ["simulate", "--ablation", "--ablation-report", out],
        "verify": ["verify"],
    }[command]


@pytest.mark.parametrize("command, flag, value", [
    ("bench", "--dims", "100000000"),  # once a numpy MemoryError traceback
    ("bench", "--dims", "0"),
    ("bench", "--sizes", "10000,1e15"),  # once 10^11 timed accumulate calls
    ("bench", "--sizes", "10000,inf"),  # once an OverflowError traceback
    ("sample-curve", "--trials", "100000000000"),  # once one loop pass per trial
    ("simulate", "--seeds", "0,-1"),  # once four trainings of seed 0 first
    ("align", "--sigma", "-1"),
    ("align", "--seed", "-1"),  # once refused by Philox after both inputs were read
    ("align", "--seed", str(2**128)),
    ("bench", "--seed", "-1"),
    ("diagnose", "--seed", "-1"),
    ("sample-curve", "--seed", "-1"),
    ("verify", "--seed", "-1"),
    # these were checked in command bodies, in the library after reading, or not at all
    ("stats", "--shrink", "inf"),
    ("frame", "--energy", "0"),
    ("frame", "--energy", "nan"),
    ("align", "--energy", "1.5"),  # blockwise once read both calibration files first
    ("diagnose", "--pairs", "0"),
    ("diagnose", "--bins", "7"),
    ("diagnose", "--k-mix", "0"),  # once refused after both inputs were read
    ("diagnose", "--k-overlap", "-1"),
    ("sample-curve", "--trials", "0"),
    ("sample-curve", "--holdout", "1"),
    ("sample-curve", "--sizes", "50,0"),
    ("sample-curve", "--sizes", "60,50"),  # once refused only after both inputs were read
    ("bench", "--sizes", "9999"),
    ("bench", "--sizes", "20000,10000"),  # once refused in the command's body
    ("simulate", "--seeds", "-1"),
])
def test_absurd_sizes_and_negative_seeds_exit_2_before_any_work(workdir, capsys, monkeypatch,
                                                                command, flag, value):
    for name in ("cli.read_embeddings", "cli.row_source", "cli.iter_embedding_batches",
                 "cli.load_artifact", "cli.MomentAccumulator", "cli.run_toy_training",
                 "simulator.run_toy_training"):
        monkeypatch.setattr(f"gapalign.{name}", lambda *a, **k: pytest.fail("work started"))
    before = sorted(os.listdir(workdir))
    argv = _command_line(command, workdir, str(workdir / "out"))
    assert main([*argv, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: ") and f"({flag})" in err and "Traceback" not in err
    # one message style for every flag: the parameter, its rule, the bad entry, the flag
    param, entry = flag[2:].replace("-", "_"), value.split(",")[-1]
    assert re.fullmatch(rf"gapalign: {param} must be .+, got {re.escape(entry)} \({flag}\)\n", err)
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("command, flag, value", [
    ("sample-curve", "--sizes", "abc"),  # once exit 2 with int()'s message, naming no flag
    ("sample-curve", "--sizes", "50,,60"),
    ("bench", "--sizes", "abc"),  # once exit 2 with float()'s message
    ("simulate", "--seeds", "x"),
    ("diagnose", "--pairs", "abc"),
    ("frame", "--energy", "abc"),
])
def test_an_unparsable_flag_value_is_a_usage_error_naming_the_flag(workdir, capsys, command,
                                                                   flag, value):
    before = sorted(os.listdir(workdir))
    assert main([*_command_line(command, workdir, str(workdir / "out")), f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid" in err and "Traceback" not in err
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("method, field, value", [("realign", "eps", -0.5),
                                                  ("blockwise", "eig_floor", -3.0),
                                                  ("blockwise", "eig_floor", 1.5)])
def test_align_rejects_a_saved_operator_fitted_outside_the_fit_ranges(workdir, capsys, method,
                                                                       field, value):
    # these artifacts once loaded; eps -0.5 then failed only as an inconsistent scale
    path = str(workdir / f"{method}.stats")
    assert main(["align", "--method", method, "--in", str(workdir / "src.emb"),
                 "--out", str(workdir / "first.emb"), "--calib-src", str(workdir / "src.emb"),
                 "--calib-tgt", str(workdir / "tgt.emb"), "--save-stats", path]) == 0
    doc = json.loads(Path(path).read_text())
    doc["payload"][field] = value
    Path(path).write_text(json.dumps(doc))
    capsys.readouterr()
    out = workdir / "from_artifact.emb"
    assert main(["align", "--method", method, "--in", str(workdir / "src.emb"), "--out", str(out),
                 "--stats", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gapalign: {path}: {field} must be") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["c3", "anchor-only"])
def test_align_save_stats_is_an_error_for_methods_that_fit_nothing(workdir, capsys, monkeypatch,
                                                                  method):
    monkeypatch.setattr("gapalign.cli.row_source", lambda *a: pytest.fail("read an input"))
    out, saved = workdir / "out.emb", workdir / "saved.stats"
    assert main(["align", "--method", method, "--in", str(workdir / "src.emb"), "--out", str(out),
                 "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
                 "--save-stats", str(saved)]) == 2
    assert "--save-stats" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()


@pytest.mark.parametrize("method", ["c3", "anchor-only"])
def test_align_c3_from_calibration_files_uses_their_means_and_no_realign_fit(
        workdir, monkeypatch, method):
    calib = ["--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb")]
    fitted = workdir / "realign.stats"
    assert main(["align", "--method", "realign", "--in", str(workdir / "src.emb"),
                 "--out", str(workdir / "realign.emb"), *calib, "--save-stats", str(fitted)]) == 0
    via_stats, via_calib = workdir / "via_stats.emb", workdir / "via_calib.emb"
    common = ["align", "--method", method, "--in", str(workdir / "src.emb"), "--seed", "3"]
    assert main([*common, "--out", str(via_stats), "--stats", str(fitted)]) == 0
    monkeypatch.setattr("gapalign.cli.estimate_realign", lambda *a, **k: pytest.fail("fitted"))
    assert main([*common, "--out", str(via_calib), *calib]) == 0
    assert via_calib.read_bytes() == via_stats.read_bytes()


@pytest.mark.parametrize("method", ["c3", "anchor-only"])
def test_align_c3_from_an_empty_calibration_file_exits_3(workdir, capsys, method):
    empty = write_rows(workdir / "empty.emb", np.empty((0, 8)))
    out = workdir / "out.emb"
    assert main(["align", "--method", method, "--in", str(workdir / "src.emb"), "--out", str(out),
                 "--calib-src", empty, "--calib-tgt", str(workdir / "tgt.emb")]) == 3
    err = capsys.readouterr().err
    assert err == "gapalign: numerical degeneracy: cannot take the mean of 0 rows\n"
    assert not out.exists()


def test_align_resaved_artifact_records_the_artifact_it_came_from(workdir, saved_operators):
    # the digests once covered only the calibration files, which this path has none of
    resaved = str(workdir / "resaved.stats")
    assert main(["align", "--method", "realign", "--in", str(workdir / "src.emb"),
                 "--out", str(workdir / "out.emb"), "--stats", saved_operators["realign"],
                 "--save-stats", resaved]) == 0
    digests = load_artifact(resaved).provenance["input_digests"]
    assert digests == {saved_operators["realign"]: file_digest(saved_operators["realign"])}


def test_align_dimension_mismatch_exit_code(workdir, tmp_path):
    bad = str(tmp_path / "bad.emb")
    write_embeddings(np.ones((5, 3)), bad)
    code = main([
        "align", "--method", "realign",
        "--in", bad, "--out", str(tmp_path / "out.emb"),
        "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
    ])
    assert code == 2


def test_usage_error_exit_code():
    assert main(["align", "--bogus-flag"]) == 1
    assert main(["no-such-command"]) == 1


def test_diagnose_report_and_series(workdir):
    report = str(workdir / "diag.json")
    plots = str(workdir / "plots")
    code = main([
        "diagnose", "--a", str(workdir / "src.emb"), "--b", str(workdir / "tgt.emb"),
        "--report", report, "--plots-dir", plots, "--pairs", "20000", "--seed", "3",
    ])
    assert code == 0
    doc = json.loads(Path(report).read_text())
    assert doc["modality_gap"] > 0
    assert 0 <= doc["js_divergence_nats"] <= np.log(2) + 1e-12
    hist = Path(f"{plots}/cosine_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_center,mass_a,mass_b"
    assert len(hist) == 202
    assert Path(f"{plots}/pca_coords.csv").read_text().splitlines()[0] == "pc1,pc2,set"


def test_diagnose_zero_pairs_exit_code(workdir):
    code = main([
        "diagnose", "--a", str(workdir / "src.emb"), "--b", str(workdir / "tgt.emb"),
        "--report", str(workdir / "diag.json"), "--pairs", "0",
    ])
    assert code == 2
    assert not (workdir / "diag.json").exists()


def test_diagnose_deterministic_given_seed(workdir):
    reports = []
    for name in ("d1.json", "d2.json"):
        path = str(workdir / name)
        assert main([
            "diagnose", "--a", str(workdir / "src.emb"), "--b", str(workdir / "tgt.emb"),
            "--report", path, "--pairs", "5000", "--seed", "11",
        ]) == 0
        doc = json.loads(Path(path).read_text())
        doc.pop("provenance")
        reports.append(doc)
    assert reports[0] == reports[1]


def test_diagnose_is_bitwise_the_standalone_library_calls(tmp_path):
    # the command reads its three inputs as row sources; the library calls take arrays
    rng = np.random.default_rng(12)
    a = unit_rows(rng.standard_normal((700, 12)) + 0.2).astype(np.float32)
    b = unit_rows(rng.standard_normal((650, 12))).astype(np.float32)
    a[10:20], a[30:35] = a[:10], -a[40:45]
    b[:8], b[50:54] = b[100:108], -b[60:64]
    after = unit_rows(a + 0.3 * rng.standard_normal(a.shape)).astype(np.float32)
    for dtype in (np.float32, np.float64):  # of --a
        paths = [str(tmp_path / name) for name in ("a.emb", "b.emb", "after.emb")]
        for rows, path in zip((a.astype(dtype), b, after), paths):
            write_embeddings(rows, path)
        plots = tmp_path / "plots"
        with pytest.warns(UserWarning, match="duplicate rows in the 'before' set"):
            assert main(["diagnose", "--a", paths[0], "--b", paths[1], "--overlap-with", paths[2],
                         "--report", str(tmp_path / "r.json"), "--plots-dir", str(plots),
                         "--pairs", "20000", "--seed", "3"]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        hist_a = cosine_histogram(a.astype(dtype), num_pairs=20000, seed=3)
        hist_b = cosine_histogram(b, num_pairs=20000, seed=4)
        assert doc["js_divergence_nats"] == js_divergence(hist_a, hist_b)
        assert doc["knn_mixing_rate"] == knn_mixing_rate(a.astype(dtype), b, k=20)
        with pytest.warns(UserWarning, match="duplicate rows in the 'before' set"):
            assert doc["knn_overlap"] == knn_overlap(a.astype(dtype), after, k=10)
        mids = 0.5 * (hist_a.bin_edges[:-1] + hist_a.bin_edges[1:])
        expected = str(tmp_path / "expected.csv")
        _write_csv(expected, ["bin_center", "mass_a", "mass_b"],
                   list(zip(mids.tolist(), hist_a.masses.tolist(), hist_b.masses.tolist())))
        assert (plots / "cosine_hist.csv").read_bytes() == Path(expected).read_bytes()


def test_diagnose_memory_is_inputs_plus_tile_buffers(tmp_path):
    # float64 inputs of 2,000 x 512: holding --a and --b, and --overlap-with beside
    # them for the overlap passes, peaked at 43 MiB; streaming them, at 34 MiB
    n, d = 2000, 512
    rng = np.random.default_rng(13)
    paths = [str(tmp_path / f"{name}.emb") for name in ("a", "b", "after")]
    for shift, path in zip((0.2, 0.0, 0.2), paths):
        write_embeddings(unit_rows(rng.standard_normal((n, d)) + shift), path)
    peak = traced_peak(["diagnose", "--a", paths[0], "--b", paths[1], "--overlap-with", paths[2],
                        "--pairs", "20000", "--report", str(tmp_path / "r.json")])
    inputs, tiles = 3 * n * d * 8, 2 * diagnostics._TILE**2 * 8
    assert peak < inputs + tiles


def test_diagnose_refuses_an_overlap_set_of_another_row_count_before_any_pass(
        workdir, capsys, monkeypatch):
    # the row counts were once compared only after the pooled kNN pass
    short = write_rows(workdir / "short.emb", read_embeddings(str(workdir / "src.emb"))[:-1])
    monkeypatch.setattr(diagnostics, "_neighbor_indices", lambda *a, **k: pytest.fail("kNN pass"))
    monkeypatch.setattr(cli_module, "cosine_histogram", lambda *a, **k: pytest.fail("pair sample"))
    report = workdir / "diag.json"
    assert main(["diagnose", "--a", str(workdir / "src.emb"), "--b", str(workdir / "tgt.emb"),
                 "--overlap-with", short, "--report", str(report)]) == 2
    assert "--overlap-with has 1499 rows and --a has 1500" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("value", [str(2**40), "0", "-1"])
@pytest.mark.parametrize("flag", ["--pairs", "--bins"])
def test_diagnose_rejects_sizes_out_of_range_before_reading(workdir, capsys, monkeypatch, flag,
                                                            value):
    # 10^13 pairs or 10^14 bins once raised a numpy _ArrayMemoryError traceback, exit 1
    monkeypatch.setattr("gapalign.cli.row_source", lambda *a, **k: pytest.fail("read"))
    report = workdir / "diag.json"
    assert main(["diagnose", "--a", str(workdir / "src.emb"), "--b", str(workdir / "tgt.emb"),
                 "--report", str(report), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: ") and flag[2:] in err and "Traceback" not in err
    assert not report.exists()


# explicit ids (the names pytest generated, frozen): editing a message renames no test
@pytest.mark.parametrize("extra,code,message", [
    (["--bins", "4"], 2, "bins must be an integer in [8, 1000000], got 4 (--bins)"),
    (["--pairs", "-1"], 2, "pairs must be an integer in [1, 100000000], got -1 (--pairs)"),
    (["--k-mix", "0"], 2, "k_mix must be an integer >= 1, got 0 (--k-mix)"),
    (["--k-mix", "3000"], 2, "k=3000 must be positive and smaller than the pooled size 3000"),
    (["zero-norm"], 3, "numerical degeneracy: cosine histogram: norm is zero at row 4"),
    (["non-finite"], 2, "non-finite value in row 9"),
    (["other-dims"], 2, "centroids have mismatched shapes"),
], ids=[
    "extra0-2-bins must be an integer in [8, 1000000], got 4 (--bins)",
    "extra1-2-pairs must be an integer in [1, 100000000], got -1 (--pairs)",
    "extra2-2-k_mix must be an integer >= 1, got 0 (--k-mix)",
    "extra3-2-k=3000 must be positive and smaller than the pooled size 3000",
    "extra4-3-numerical degeneracy: cosine histogram: norm is zero at row 4",
    "extra5-2-non-finite value in row 9",
    "extra6-2-centroids have mismatched shapes",
])
def test_diagnose_errors_before_the_kNN_pass(workdir, capsys, monkeypatch, extra, code, message):
    if message.endswith(f"({extra[0]})"):  # refused while the command line is parsed
        monkeypatch.setattr("gapalign.cli.row_source", lambda *a, **k: pytest.fail("read"))
    a = str(workdir / "src.emb")
    if extra[0] in ("zero-norm", "non-finite", "other-dims"):
        rows = read_embeddings(a).copy()
        if extra[0] == "other-dims":
            rows = rows[:, :5]
        else:
            rows[4 if extra[0] == "zero-norm" else 9] = 0.0 if extra[0] == "zero-norm" else np.inf
        a, extra = str(workdir / "bad.emb"), []
        write_embeddings(rows, a)
    report = workdir / "diag.json"
    assert main(["diagnose", "--a", a, "--b", str(workdir / "tgt.emb"),
                 "--report", str(report), *extra]) == code
    assert message in capsys.readouterr().err
    assert not report.exists()


def test_simulate_writes_trace(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "embed_dim = 16\ninput_dim = 48\nlatent_dim = 6\nbatch_size = 32\n"
        "steps = 100\nprobe_size = 256\nlog_every = 20\n# comment line\n"
    )
    trace = str(tmp_path / "trace.csv")
    assert main(["simulate", "--config", str(cfg), "--trace", trace]) == 0
    lines = Path(trace).read_text().splitlines()
    assert lines[0].startswith("# gapalign")
    assert lines[1].split(",")[0] == "steps"
    assert len(lines) > 2


def test_ablation_ratio_is_null_when_the_shared_encoder_mean_is_zero(tmp_path, monkeypatch):
    # the ratio was once inf, which the report held as the non-JSON token Infinity
    monkeypatch.setattr("gapalign.simulator.run_toy_training", lambda cfg: SimpleNamespace(
        gamma_norm=[0.0 if cfg.shared_encoder else 1.0]))
    report = tmp_path / "ablation.json"
    assert main(["simulate", "--ablation", "--seeds", "0", "--ablation-report", str(report)]) == 0
    assert json.loads(report.read_text())["baseline_over_shared"] is None


def test_simulate_unknown_config_key(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("not_a_field = 3\n")
    assert main(["simulate", "--config", str(cfg), "--trace", str(tmp_path / "t.csv")]) == 2


# explicit ids (the names pytest generated, frozen): editing a message renames no test
@pytest.mark.parametrize("config, key", [
    ("steps = 10\nlog_every = 20", "log_every"),  # once an IndexError traceback
    ("input_dim = 100000000000", "input_dim"),  # once an _ArrayMemoryError traceback
    ("log_every = 0", "log_every"),  # once range()'s "arg 3 must not be zero"
    ("noise_rank = -1", "noise_rank"),  # once numpy's "Number of samples, -1, ..."
    ("energy = 2", "energy"),  # once refused at the freeze step, 40% into the run
    ("steps = 1e3", "steps"),  # once int()'s "invalid literal", naming no key
    ("latent_dim = 0", "latent_dim"),
    ("temperature = nan", "temperature"),
    ("white_noise = inf", "white_noise"),
    ("batch_size = 20000", "batch_size"),  # 4 x 10^8 batch logits
], ids=[
    "steps = 10\nlog_every = 20-log_every",
    "input_dim = 100000000000-input_dim",
    "log_every = 0-log_every",
    "noise_rank = -1-noise_rank",
    "energy = 2-energy",
    "steps = 1e3-steps",
    "latent_dim = 0-latent_dim",
    "temperature = nan-temperature",
    "white_noise = inf-white_noise",
    "batch_size = 20000-batch_size",
])
def test_simulate_config_out_of_range_exits_2_naming_the_key_before_any_draw(
        tmp_path, capsys, monkeypatch, config, key):
    monkeypatch.setattr("gapalign.simulator.PairedDataGenerator",
                        lambda *a, **k: pytest.fail("drew"))
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"{config}\n")
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(cfg), "--trace", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: simulator config ") and key in err and "Traceback" not in err
    assert not out.exists()


def test_verify_suites_pass():
    assert main(["verify", "--suite", "gradients"]) == 0
    assert main(["verify", "--suite", "span"]) == 0
    assert main(["verify", "--suite", "bounds"]) == 0
    assert main(["verify", "--suite", "coupling"]) == 0


def test_sample_curve_csv(workdir):
    out = str(workdir / "curve.csv")
    code = main([
        "sample-curve", "--src", str(workdir / "src.emb"), "--tgt", str(workdir / "tgt.emb"),
        "--sizes", "50,200", "--trials", "3", "--seed", "0", "--out", out,
    ])
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "size,gap_mean,gap_std,trial_0,trial_1,trial_2"
    assert len(lines) == 3


@pytest.mark.parametrize("flag", ["--trials=0", "--trials=-1", "--sizes=0"])
def test_sample_curve_rejects_no_trials_and_empty_sizes(workdir, capsys, monkeypatch, flag):
    # trials 0 once wrote gap_mean nan with exit 0, and a size of 0 exited 3
    monkeypatch.setattr("gapalign.cli.read_embeddings", lambda *a, **k: pytest.fail("read"))
    out = workdir / "curve.csv"
    assert main(["sample-curve", "--src", str(workdir / "src.emb"),
                 "--tgt", str(workdir / "tgt.emb"), "--sizes", "50", flag, "--out", str(out)]) == 2
    name, value = flag[2:].split("=")
    rule = "in [1, 10000]" if name == "trials" else ">= 1"
    assert capsys.readouterr().err.startswith(
        f"gapalign: {name} must be an integer {rule}, got {value} (--{name})")
    assert not out.exists()


@pytest.mark.parametrize("holdout, left", [(299, 1), (2**40, 0)])
def test_sample_curve_holdout_leaving_too_few_rows_names_the_holdout(workdir, capsys, holdout,
                                                                    left):
    # once "largest size 10 exceeds the calibration pool (1 rows)", which names no holdout
    paths = []
    for side in ("src", "tgt"):
        rows = read_embeddings(str(workdir / f"{side}.emb"))[:300]
        paths.append(write_rows(workdir / f"{side}300.emb", rows))
    out = workdir / "curve.csv"
    assert main(["sample-curve", "--src", paths[0], "--tgt", paths[1], "--sizes", "10",
                 "--holdout", str(holdout), "--out", str(out)]) == 2
    message = f"holdout {holdout} leaves {left} of 300 rows for calibration, fewer than the largest"
    assert capsys.readouterr().err.rstrip().endswith(f"{message} size 10")
    assert not out.exists()


def test_bench_rejects_sizes_below_one_timed_chunk(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gapalign.cli.MomentAccumulator", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "5000", "--dims", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapalign: sizes must be finite and in [10000, 1e+08], got 5000 "
                          "(--sizes)") and "Traceback" not in err
    assert not out.exists()


def test_bench_sees_a_per_row_cost_that_grows_with_the_rows(tmp_path, monkeypatch):
    # every accumulate call also folds the batch once more per 10k rows already held,
    # so the time per row grows with n whatever the host's speed; the best-of-3
    # passes must not hide that
    class Growing(MomentAccumulator):
        def accumulate(self, batch):
            for _ in range(self.n // 10_000):
                MomentAccumulator(self.dims).accumulate(batch)
            return super().accumulate(batch)

    monkeypatch.setattr("gapalign.cli.MomentAccumulator", Growing)
    report = tmp_path / "bench.json"
    assert main(["bench", "--sizes", "1e4,1e5", "--dims", "8", "--out",
                 str(tmp_path / "bench.csv"), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["per_row_spread"] > 1.25


def test_bench_reports_covariance_precision_at_large_offset(tmp_path, capsys):
    report = str(tmp_path / "bench.json")
    assert main(["bench", "--sizes", "1e4,2e4", "--dims", "16", "--out",
                 str(tmp_path / "bench.csv"), "--report", report]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines() if "offset" in ln]
    assert len(line) == 1 and "two-pass long-double oracle" in line[0]
    doc = json.loads(Path(report).read_text())
    assert doc["offset"] == 1e4 and doc["offset_rows"] == 20_000
    # raw moments gave about 1e-6 here
    assert 0 <= doc["offset_cov_rel_error"] < 1e-10


# ------------------------------------------------------------ main under drawn flag values

_COMMANDS = ["stats", "frame", "decompose", "align", "diagnose", "simulate", "verify",
             "sample-curve", "bench"]
# small valid values of each numeric flag; every flag also draws the boundary and absurd ones
_VALID = {
    "stats": {"--shrink": ["0.25", "1"]},
    "frame": {"--energy": ["0.5", "1"]},
    "decompose": {},
    "align": {"--eps": ["1e-8"], "--energy": ["0.5", "1"], "--eig-floor": ["1e-6", "1"],
              "--sigma": ["0.1"], "--seed": ["3"]},
    "diagnose": {"--pairs": ["1", "500"], "--bins": ["8", "50"], "--k-mix": ["1", "5"],
                 "--k-overlap": ["1", "5"], "--seed": ["3"]},
    "simulate": {"--seeds": ["0", "1,2"]},
    "verify": {"--seed": ["3"]},
    "sample-curve": {"--sizes": ["10", "10,20"], "--trials": ["1", "2"],
                     "--holdout": ["2", "30"], "--seed": ["3"]},
    "bench": {"--sizes": ["1e4", "10000,20000"], "--dims": ["1", "4"], "--seed": ["3"]},
}
_BOUNDARY = ["0", "-1", "nan", "inf", "-inf"]
_ABSURD = [str(2**40), str(2**64)]


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A 300 x 8 pair, its stats artifacts and frame, and a simulator config of a few steps."""
    inputs = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(5)
    for name, shift in (("src", 0.5), ("tgt", -0.5)):
        rows = str(inputs / f"{name}.emb1")
        write_embeddings(unit_rows(rng.standard_normal((300, 8)) + shift), rows)
        with contextlib.redirect_stdout(StringIO()):
            assert main(["stats", "--in", rows, "--out", str(inputs / f"{name}.json")]) == 0
    with contextlib.redirect_stdout(StringIO()):
        assert main(["frame", "--x", str(inputs / "src.json"), "--y", str(inputs / "tgt.json"),
                     "--out", str(inputs / "frame.json")]) == 0
    (inputs / "sim.cfg").write_text("embed_dim = 8\ninput_dim = 16\nlatent_dim = 4\n"
                                    "batch_size = 16\nsteps = 20\nlog_every = 10\n"
                                    "probe_size = 64\nnoise_rank = 2\n")
    return inputs


def _valid_line(command, inputs, out, method, ablation):
    src, tgt = str(inputs / "src.emb1"), str(inputs / "tgt.emb1")
    return {
        "stats": ["stats", "--in", src, "--out", f"{out}/s.json"],
        "frame": ["frame", "--x", str(inputs / "src.json"), "--y", str(inputs / "tgt.json"),
                  "--out", f"{out}/f.json"],
        "decompose": ["decompose", "--x", src, "--y", tgt, "--frame", str(inputs / "frame.json"),
                      "--report", f"{out}/d.json"],
        "align": ["align", "--method", method, "--in", src, "--out", f"{out}/a.emb1",
                  "--calib-src", src, "--calib-tgt", tgt],
        "diagnose": ["diagnose", "--a", src, "--b", tgt, "--overlap-with", tgt, "--pairs", "2000",
                     "--plots-dir", f"{out}/plots", "--report", f"{out}/r.json"],
        "simulate": ["simulate", "--config", str(inputs / "sim.cfg"), "--trace", f"{out}/t.csv",
                     *(["--ablation", "--ablation-report", f"{out}/ab.json"] if ablation else [])],
        "verify": ["verify", "--suite", "span"],
        "sample-curve": ["sample-curve", "--src", src, "--tgt", tgt, "--sizes", "10,20",
                         "--out", f"{out}/c.csv"],
        "bench": ["bench", "--sizes", "1e4", "--dims", "4", "--out", f"{out}/b.csv",
                  "--report", f"{out}/b.json"],
    }[command]


@st.composite
def command_lines(draw):
    """(command, flags): a few of the command's numeric flags, or ``--help``."""
    command = draw(st.sampled_from(_COMMANDS))
    if draw(st.integers(0, 9)) == 0:
        return command, ["--help"]
    flags = []
    for flag, valid in _VALID[command].items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(valid + _BOUNDARY + _ABSURD))
            if flag in ("--sizes", "--seeds") and draw(st.booleans()):
                value = f"{valid[0]},{value}"  # a bad entry after a good one
            flags.append(f"{flag}={value}")
    return command, flags


def _finite_outputs(out):
    """Every number in every file under ``out`` is finite; JSON holds no NaN or Infinity token."""
    for path in Path(out).rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))
        elif path.suffix == ".csv":
            rows = [line.split(",") for line in path.read_text().splitlines()
                    if not line.startswith("#")][1:]
            assert all(np.isfinite(float(v)) for row in rows for v in row), path
        elif path.suffix in (".emb1", ".npy"):
            data = read_embeddings(str(path)) if path.suffix == ".emb1" else np.load(path)
            assert np.isfinite(data).all(), path


@settings(derandomize=True, max_examples=300, deadline=None)
@given(line=command_lines(), method=st.sampled_from(["realign", "blockwise", "c3", "anchor-only"]),
       ablation=st.booleans())
@example(line=("simulate", ["--seeds=0,-1"]), method="c3", ablation=True)
@example(line=("align", ["--energy=0"]), method="blockwise", ablation=False)
def test_main_exits_0_with_finite_outputs_or_1_2_3_with_no_output(small_inputs, line, method,
                                                                  ablation):
    command, flags = line
    with tempfile.TemporaryDirectory() as out:
        argv = (_valid_line(command, small_inputs, out, method, ablation) if flags != ["--help"]
                else [command])
        with contextlib.redirect_stdout(StringIO()) as stdout, \
                contextlib.redirect_stderr(StringIO()) as stderr:
            code = main([*argv, *flags])
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 0:
            assert flags != ["--help"] or stdout.getvalue().startswith("usage:")
            _finite_outputs(out)
        else:
            assert err.startswith("usage:" if code == 1 else "gapalign: "), err
            assert os.listdir(out) == []
