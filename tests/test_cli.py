import json
import shutil
import struct

import numpy as np
import numpy.testing as npt
import pytest

from gapalign import EmbeddingSet, ReferenceFrame, load_artifact, read_embeddings, write_embeddings
from gapalign import cli
from gapalign.cli import main
from gapalign.moments import ModalityStats


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    d = 8
    src = unit_rows(np.array([0.7] + [0.0] * (d - 1)) + 0.3 * rng.standard_normal((1500, d)))
    tgt = unit_rows(np.array([0.0, 0.8] + [0.0] * (d - 2)) + 0.25 * rng.standard_normal((1500, d)))
    write_embeddings(EmbeddingSet(src, "src"), str(tmp_path / "src.emb"))
    write_embeddings(EmbeddingSet(tgt, "tgt"), str(tmp_path / "tgt.emb"))
    return tmp_path


def test_stats_on_small_fixture(tmp_path):
    path = str(tmp_path / "two.emb")
    write_embeddings(EmbeddingSet(np.array([[1.0, 0, 0], [0, 1.0, 0]])), path)
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
    doc = json.loads(open(report).read())
    assert doc["max_reconstruction_error"] < 1e-10
    assert doc["mean_gap_norm"] > 0


def test_decompose_report_matches_whole_array_check(workdir):
    # rows past the first 1,024-row block are larger, so the largest rounding
    # error of the reconstruction lies outside the first block
    rng = np.random.default_rng(3)
    for side in ("src", "tgt"):
        rows = rng.normal(size=(2500, 8))
        rows[1024:] *= 100.0
        write_embeddings(EmbeddingSet(rows), str(workdir / f"{side}.emb"))
        assert main(["stats", "--in", str(workdir / f"{side}.emb"),
                     "--out", str(workdir / f"{side}.stats")]) == 0
    frame_path = str(workdir / "frame.stats")
    assert main(["frame", "--x", str(workdir / "src.stats"), "--y", str(workdir / "tgt.stats"),
                 "--energy", "0.7", "--out", frame_path]) == 0
    report = str(workdir / "dec.json")
    assert main(["decompose", "--x", str(workdir / "src.emb"), "--y", str(workdir / "tgt.emb"),
                 "--frame", frame_path, "--report", report]) == 0
    doc = json.loads(open(report).read())
    # the whole-array reconstruction check, with full-size temporaries
    frame = ReferenceFrame.from_payload(load_artifact(frame_path).payload)
    x = read_embeddings(str(workdir / "src.emb")).data
    y = read_embeddings(str(workdir / "tgt.emb")).data
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


@pytest.mark.parametrize("method", ["realign", "blockwise"])
def test_align_reads_input_once_when_it_is_the_calibration_source(workdir, monkeypatch, method):
    calls = []

    def counting_read(path, *args, **kwargs):
        calls.append(path)
        return read_embeddings(path, *args, **kwargs)

    monkeypatch.setattr(cli, "read_embeddings", counting_read)
    src = str(workdir / "src.emb")
    copy = str(workdir / "src_copy.emb")
    shutil.copyfile(src, copy)
    outputs = {}
    for calib_src in (src, copy):
        calls.clear()
        out = str(workdir / f"out_{len(outputs)}.emb")
        assert main(["align", "--method", method, "--in", src, "--out", out,
                     "--calib-src", calib_src, "--calib-tgt", str(workdir / "tgt.emb"),
                     "--energy", "0.7"]) == 0
        outputs[calib_src] = (list(calls), open(out, "rb").read())
    assert len(outputs[src][0]) == 2
    assert len(outputs[copy][0]) == 3
    assert outputs[src][1] == outputs[copy][1]


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
    npt.assert_allclose(np.linalg.norm(moved.data, axis=1), np.ones(moved.rows), atol=1e-9)


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
    npt.assert_array_equal(read_embeddings(out).data, read_embeddings(again).data)
    src = read_embeddings(str(workdir / "src.emb")).data
    tgt = read_embeddings(str(workdir / "tgt.emb")).data
    moved = read_embeddings(out).data
    before = np.linalg.norm(src.mean(axis=0) - tgt.mean(axis=0))
    after = np.linalg.norm(moved.mean(axis=0) - tgt.mean(axis=0))
    assert after < 0.05 * before


def test_full_rank_blockwise_stats_apply_from_artifact(workdir):
    # energy 1.0 gives a rank-d frame, so t_out is 0 x 0 and saved as []
    stats_path = str(workdir / "full.stats")
    out = str(workdir / "full.emb")
    assert main([
        "align", "--method", "blockwise",
        "--in", str(workdir / "src.emb"), "--out", out,
        "--calib-src", str(workdir / "src.emb"), "--calib-tgt", str(workdir / "tgt.emb"),
        "--energy", "1.0", "--save-stats", stats_path,
    ]) == 0
    assert load_artifact(stats_path).payload["t_out"] == []
    again = str(workdir / "full2.emb")
    assert main([
        "align", "--method", "blockwise",
        "--in", str(workdir / "src.emb"), "--out", again, "--stats", stats_path,
    ]) == 0
    npt.assert_array_equal(read_embeddings(out).data, read_embeddings(again).data)


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
    doc = json.loads(open(stats_path).read())
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


def test_align_dimension_mismatch_exit_code(workdir, tmp_path):
    bad = str(tmp_path / "bad.emb")
    write_embeddings(EmbeddingSet(np.ones((5, 3))), bad)
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
    doc = json.loads(open(report).read())
    assert doc["modality_gap"] > 0
    assert 0 <= doc["js_divergence_nats"] <= np.log(2) + 1e-12
    hist = open(f"{plots}/cosine_hist.csv").read().splitlines()
    assert hist[0] == "bin_center,mass_a,mass_b"
    assert len(hist) == 202
    assert open(f"{plots}/pca_coords.csv").read().splitlines()[0] == "pc1,pc2,set"


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
        doc = json.loads(open(path).read())
        doc.pop("provenance")
        reports.append(doc)
    assert reports[0] == reports[1]


def test_simulate_writes_trace(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "embed_dim = 16\ninput_dim = 48\nlatent_dim = 6\nbatch_size = 32\n"
        "steps = 100\nprobe_size = 256\nlog_every = 20\n# comment line\n"
    )
    trace = str(tmp_path / "trace.csv")
    assert main(["simulate", "--config", str(cfg), "--trace", trace]) == 0
    lines = open(trace).read().splitlines()
    assert lines[0].startswith("# gapalign")
    assert lines[1].split(",")[0] == "steps"
    assert len(lines) > 2


def test_simulate_unknown_config_key(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("not_a_field = 3\n")
    assert main(["simulate", "--config", str(cfg), "--trace", str(tmp_path / "t.csv")]) == 2


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
    lines = open(out).read().splitlines()
    assert lines[0] == "size,gap_mean,gap_std,trial_0,trial_1,trial_2"
    assert len(lines) == 3


def test_bench_state_bytes_constant(tmp_path):
    out = str(tmp_path / "bench.csv")
    report = str(tmp_path / "bench.json")
    code = main([
        "bench", "--sizes", "20000,40000", "--dims", "8", "--out", out, "--report", report,
    ])
    assert code == 0
    doc = json.loads(open(report).read())
    sizes = {entry["state_bytes"] for entry in doc["timing"]}
    assert len(sizes) == 1
    assert doc["f32_replay_error"] >= 1e3 * doc["f64_error"]
