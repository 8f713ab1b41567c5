"""Row scale: a power of two scales the moments exactly and leaves scale-free outputs
bitwise unchanged, and moments that overflow float64 on finite rows exit 3 naming
the overflow, with no output file and no numpy ``RuntimeWarning`` (an error here).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapalign import (DataFormatError, build_frame, cosine_histogram, js_divergence,
                      knn_mixing_rate, stats_of, sym_eig, write_embeddings)
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
    (ALIGN + "realign", "moments of 300 rows overflow"),
    (ALIGN + "blockwise", "moments of 300 rows overflow"),
    ("sample-curve --src src{s}.emb --tgt tgt{s}.emb --sizes 10,50", "moments of 10 rows overflow"),
    (ALIGN + "c3", "noise-stage normalization: norm overflowed at row 0"),
    (ALIGN + "anchor-only", "anchor normalization: norm overflowed at row 0"),
], ids=["stats", "realign", "blockwise", "sample-curve", "c3", "anchor-only"])
def test_moments_that_overflow_exit_3_naming_it(capsys, scale, line, message):
    # finite rows whose squares overflow: a numerical degeneracy, not malformed data
    assert main([*line.format(s=scale).split(), "--out", "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gapalign: numerical degeneracy: ") and message in err
    assert "Warning" not in err and not list(Path(".").glob("out*"))


@pytest.mark.usefixtures("scaled_pair")
def test_frame_blockwise_and_diagnose_work_where_covariance_squares_overflow():
    # covariance entries near 1e200, whose squares overflow in a Frobenius norm
    for s in ("1", "2^332"):
        for line in ("stats --in src{s}.emb --out src{s}.stats",
                     "stats --in tgt{s}.emb --out tgt{s}.stats",
                     "frame --x src{s}.stats --y tgt{s}.stats --out frame{s}.json",
                     ALIGN + "blockwise --out blockwise{s}.emb",
                     "diagnose --a src{s}.emb --b tgt{s}.emb --pairs 2000 --report diag{s}.json"):
            assert main(line.format(s=s).split()) == 0
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
    # each 8,192-row batch is constant, so its own moments are 0; the merge term overflows
    monkeypatch.chdir(tmp_path)
    write_embeddings(np.repeat([[2e153], [-2e153]], 8192, axis=0) * np.ones(8), "big.emb")
    assert main("stats --in big.emb --out big.json".split()) == 3
    err = capsys.readouterr().err
    assert "moments of 16384 rows overflow float64" in err and "Warning" not in err
    assert not list(Path(".").glob("big.json*"))
