"""Row scale: a power of two scales the moments exactly and leaves scale-free outputs
bitwise unchanged, and moments or row norms that overflow float64 on finite rows exit 3
naming the overflow, with no output file and no numpy ``RuntimeWarning`` (an error
here).  ``align`` refuses a row scaled off the unit sphere, naming it, with exit 2, and
the library operators refuse a mean longer than any mean of unit rows.
"""

import contextlib
import json
import os
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapalign import (C3Baseline, ContrastiveBatch, DataFormatError, DegenerateInputError,
                      build_frame, cosine_histogram, estimate_blockwise, estimate_realign,
                      js_divergence, knn_mixing_rate, phantom_drift, read_embeddings, stats_of,
                      sym_eig, tyler_shape, write_embeddings)
from gapalign.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def pair(seed, n=300, d=8):
    """Two sets of n unit rows of width d with different means."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d)) + 0.5
    return tuple(x / np.linalg.norm(x, axis=1, keepdims=True) for x in (a, b))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-200, 150))
def test_moments_scale_by_the_power_and_the_frame_not_at_all(seed, e):
    stats, scaled = ([stats_of(np.ldexp(x, k), track_cov=True) for x in pair(seed)]
                     for k in (0, e))
    for base, big in zip(stats, scaled):
        assert np.array_equal(big.mean, np.ldexp(base.mean, e))
        assert big.trace == np.ldexp(base.trace, 2 * e)
        assert np.array_equal(big.covariance, np.ldexp(base.covariance, 2 * e))
    assert np.array_equal(build_frame(*(s.covariance for s in scaled)).basis,
                          build_frame(*(s.covariance for s in stats)).basis)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(20, 500), sign=st.sampled_from([-1, 1]))
def test_knn_mixing_and_js_ignore_the_scale(seed, e, sign):
    def metrics(a, b):
        hists = [cosine_histogram(x, num_pairs=2_000, bins=41, seed=1) for x in (a, b)]
        return knn_mixing_rate(a, b, k=10), js_divergence(*hists)

    a, b = pair(seed)
    assert metrics(np.ldexp(a, sign * e), np.ldexp(b, sign * e)) == metrics(a, b)


def test_symmetry_check_survives_entries_whose_squares_overflow():
    # the squares of these entries overflow, and rtol * inf would pass any matrix
    with pytest.raises(DataFormatError, match="not symmetric"):
        sym_eig(np.array([[1e200, 1e200], [2e200, 1e200]]))
    big = np.ldexp(np.array([[2.0, 1.0], [1.0, 2.0]]), 1000)
    np.testing.assert_allclose(sym_eig(big).eigenvalues, np.ldexp([3.0, 1.0], 1000), rtol=1e-14)


@pytest.fixture
def scaled_pair(tmp_path, monkeypatch):
    """A work directory with ``src<s>.emb`` and ``tgt<s>.emb``: ``pair(0)`` times s."""
    monkeypatch.chdir(tmp_path)
    for name, s in {"1": 1.0, "2^332": 2.0**332, "1e160": 1e160, "1e200": 1e200}.items():
        for side, rows in zip(("src", "tgt"), pair(0)):
            write_embeddings(rows * s, f"{side}{name}.emb")


ALIGN = "align --in src{s}.emb --calib-src src{s}.emb --calib-tgt tgt{s}.emb --method "


@pytest.mark.usefixtures("scaled_pair")
@pytest.mark.parametrize("scale", ["1e160", "1e200"])
@pytest.mark.parametrize("line, message", [
    ("stats --in src{s}.emb", "moments of 300 rows overflow"),
    (ALIGN + "realign", "src{s}.emb: norm overflowed at row 0"),
    (ALIGN + "blockwise", "src{s}.emb: norm overflowed at row 0"),
    ("sample-curve --src src{s}.emb --tgt tgt{s}.emb --sizes 10,50",
     "src{s}.emb: norm overflowed at row 0"),
    (ALIGN + "c3", "src{s}.emb: norm overflowed at row 0"),
    (ALIGN + "anchor-only", "src{s}.emb: norm overflowed at row 0"),
], ids=["stats", "realign", "blockwise", "sample-curve", "c3", "anchor-only"])
def test_moments_that_overflow_exit_3_naming_it(capsys, scale, line, message):
    # finite rows whose squares overflow: a numerical degeneracy, not malformed data.
    # align and sample-curve take each row's norm (the unit-sphere rule) before its moments
    message = message.format(s=scale)
    assert main([*line.format(s=scale).split(), "--out", "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gapalign: numerical degeneracy: ") and message in err
    assert "Warning" not in err and not list(Path(".").glob("out*"))


@pytest.mark.usefixtures("scaled_pair")
def test_frame_blockwise_and_diagnose_work_where_covariance_squares_overflow(capsys):
    # covariance entries near 1e200, whose squares overflow in a Frobenius norm
    for s in ("1", "2^332"):
        for line in ("stats --in src{s}.emb --out src{s}.stats",
                     "stats --in tgt{s}.emb --out tgt{s}.stats",
                     "frame --x src{s}.stats --y tgt{s}.stats --out frame{s}.json",
                     "diagnose --a src{s}.emb --b tgt{s}.emb --pairs 2000 --report diag{s}.json"):
            assert main(line.format(s=s).split()) == 0
    # `align` takes unit rows only, and the blockwise fit refuses the mean of such rows
    assert main((ALIGN + "blockwise --out blockwise{s}.emb").format(s="1").split()) == 0
    assert main((ALIGN + "blockwise --out blockwise{s}.emb").format(s="2^332").split()) == 2
    assert "src2^332.emb: norm 8.749" in capsys.readouterr().err
    src, tgt = (read_embeddings(f"{side}2^332.emb") for side in ("src", "tgt"))
    stats = [stats_of(rows, track_cov=True) for rows in (src, tgt)]
    frame = build_frame(stats[0].covariance, stats[1].covariance)
    with pytest.raises(DataFormatError, match="^mu_src has length"):
        estimate_blockwise(frame, *stats, src)
    # LAPACK rescales a matrix this large by a factor that is not a power of two
    np.testing.assert_allclose(np.load("frame2^332.json.basis.npy"),
                               np.load("frame1.json.basis.npy"), atol=1e-12)
    unit, big = (json.loads(Path(f"diag{s}.json").read_text()) for s in ("1", "2^332"))
    for key in ("js_divergence_nats", "knn_mixing_rate"):
        assert big[key] == unit[key]


@pytest.mark.usefixtures("scaled_pair")
def test_diagnose_refuses_a_row_norm_that_overflows_naming_the_row(capsys):
    # the squares of 1e160 overflow in the pair sample's row norms
    assert main("diagnose --a src1e160.emb --b src1e160.emb --report r.json --pairs 1000"
                .split()) == 3
    err = capsys.readouterr().err
    assert err.startswith("gapalign: numerical degeneracy: ")
    assert "norm overflowed at row 0" in err and "Warning" not in err
    assert not Path("r.json").exists()


def test_stats_whose_batches_overflow_only_when_merged_exits_3(tmp_path, capsys, monkeypatch):
    # each 4,096-row batch is constant, so its own moments are 0; the merge term overflows
    monkeypatch.chdir(tmp_path)
    write_embeddings(np.repeat([[2e153], [-2e153]], 8192, axis=0) * np.ones(8), "big.emb")
    assert main("stats --in big.emb --out big.json".split()) == 3
    err = capsys.readouterr().err
    assert "moments of 12288 rows overflow float64" in err and "Warning" not in err
    assert not list(Path(".").glob("big.json*"))


def _one_huge_row(unit=False, scale=1e200):
    """Twelve rows of width 4 (unit ones if ``unit``); row 7 is scaled by ``scale``."""
    rows = np.random.default_rng(3).normal(size=(12, 4))
    if unit:
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[7] *= scale
    return rows


# each once printed numpy's overflow warning: tyler_shape then raised "matrix contains
# non-finite entries" (exit 2), phantom_drift returned a drift norm as if the row were absent;
# a NaN row passed all three (the ContrastiveBatch "all unit-norm")
@pytest.mark.parametrize("call, message, scale, how", [
    pytest.param(call, message, scale, how, id=name + suffix)
    for name, call, message in (
        ("tyler_shape", lambda scale: tyler_shape(_one_huge_row(scale=scale)), "samples"),
        ("phantom_drift", lambda scale: phantom_drift(np.ones(4), _one_huge_row(scale=scale)),
         "noise samples"),
        ("ContrastiveBatch", lambda scale: ContrastiveBatch(
            _one_huge_row(unit=True, scale=scale), np.eye(4)[np.arange(12) % 4],
            temperature=0.1), "anchors"))
    for scale, how, suffix in ((1e200, "overflowed", ""), (np.nan, "is NaN", "-NaN"))])
def test_a_row_whose_squares_overflow_is_refused_naming_it(call, message, scale, how):
    with pytest.raises(DegenerateInputError, match=f"^{message}: norm {how} at row 7$"):
        call(scale)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-400, 500))
def test_tyler_shape_is_bitwise_unchanged_by_a_power_of_two(seed, e):
    rows = np.random.default_rng(seed).normal(size=(200, 4))
    base, scaled = tyler_shape(rows), tyler_shape(np.ldexp(rows, e))
    assert np.array_equal(scaled.sigma_hat, base.sigma_hat)
    assert scaled.iterations == base.iterations


def _library_align(method, src, tgt):
    """What ``align --in src --calib-src src --calib-tgt tgt`` maps, through the library."""
    cov = method == "blockwise"
    s, t = stats_of(src, track_cov=cov), stats_of(tgt, track_cov=cov)
    if method == "realign":
        return estimate_realign(s, t, src).apply(src)
    if method == "blockwise":
        return estimate_blockwise(build_frame(s.covariance, t.covariance), s, t, src).apply(src)
    return C3Baseline(s.mean, t.mean, 0.04 if method == "c3" else 0.0).apply(src)


@pytest.mark.parametrize("side, field", [("src", "mu_src"), ("tgt", "mu_tgt")])
@pytest.mark.parametrize("method", ["realign", "blockwise", "c3"])
def test_the_library_refuses_an_operator_fitted_to_rows_times_10(method, side, field):
    # each once fitted without a word. |mean| is about 0.37 for src and 0.20 for tgt, so
    # times 10 it is no mean of unit rows
    rng = np.random.default_rng(12)
    rows = {name: offset + rng.normal(size=(3000, 16)) for name, offset in (("src", 0.4),
                                                                           ("tgt", -0.2))}
    rows = {name: (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
            for name, x in rows.items()}
    rows[side] = rows[side] * np.float32(10)
    with pytest.raises(DataFormatError, match=f"^{field} has length"):
        _library_align(method, rows["src"], rows["tgt"])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(method=st.sampled_from(["realign", "blockwise", "c3", "anchor-only"]),
       role=st.sampled_from(["in", "calib-src", "calib-tgt"]),
       row=st.integers(0, 299), e=st.integers(-400, 500))
@example(method="realign", role="in", row=0, e=0)
@example(method="blockwise", role="calib-src", row=299, e=0)
@example(method="c3", role="calib-tgt", row=5, e=0)
@example(method="anchor-only", role="in", row=17, e=0)
def test_align_refuses_a_row_scaled_off_the_sphere_and_maps_unit_rows_as_the_library(
        method, role, row, e):
    src, tgt = pair(0)
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, rows in (("in", src), ("calib-src", src), ("calib-tgt", tgt)):
            rows = rows.copy()
            if name == role:
                rows[row] = np.ldexp(rows[row], e)
            paths[name] = os.path.join(work, f"{name}.emb")
            write_embeddings(rows, paths[name])
        out = os.path.join(work, "out.emb")
        with contextlib.redirect_stdout(StringIO()), \
                contextlib.redirect_stderr(StringIO()) as stderr:
            code = main(["align", "--method", method, "--out", out,
                         *(arg for name, path in paths.items() for arg in (f"--{name}", path))])
        if e == 0:
            assert code == 0
            assert np.array_equal(read_embeddings(out), _library_align(method, src, tgt))
        else:
            assert code == 2 and not os.path.exists(out)
            assert stderr.getvalue() == (
                f"gapalign: {paths[role]}: norm {2.0**e:.9g} is off the unit sphere by more "
                f"than 0.0001 at row {row}\n")
