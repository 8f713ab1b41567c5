"""The three workloads: inputs, CLI command sequences and output checks.

Commands are written with paths relative to the run's work directory
(inputs under ``in/``, outputs under ``out/``), so the traced and the
untraced sequence write byte-identical reports, provenance included.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fixtures import FixtureSpec, paired_fixture

_HEADER = struct.Struct("<4sIIQII")  # the emb1 header, read here without the library
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def read_emb1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, _, code, rows, dims, _ = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != b"EMB1":
            raise ValueError(f"{path}: not an emb1 file")
        return np.fromfile(fh, dtype=_DTYPES[code]).reshape(rows, dims)


def write_pair(directory: Path, seed: int, spec: FixtureSpec) -> None:
    from gapalign.io import EmbeddingSet, write_embeddings

    src, tgt = paired_fixture(seed, spec)
    directory.mkdir(parents=True, exist_ok=True)
    write_embeddings(EmbeddingSet(src), str(directory / "src.emb1"))
    write_embeddings(EmbeddingSet(tgt), str(directory / "tgt.emb1"))


def _unit_rows(name, rows, expected_rows, tol=1e-12):
    finite = bool(np.isfinite(rows).all())
    dev = float(np.abs(np.linalg.norm(rows, axis=1) - 1.0).max()) if finite else math.inf
    ok = finite and rows.shape[0] == expected_rows and dev <= tol
    return (f"{name} rows finite and unit-norm", ok,
            f"{rows.shape[0]} rows, max |norm - 1| {dev:.3g} (<= {tol:g})")


def _gap(a, b) -> float:
    return float(np.linalg.norm(a.mean(axis=0, dtype=np.float64)
                                - b.mean(axis=0, dtype=np.float64)))


def _near(name, value, reference, tol):
    ok = value is not None and abs(value - reference) <= tol
    return (f"{name} matches the benchmark's reference", ok,
            f"report {value!r} vs reference {reference:.10g} (tol {tol:g})")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def setup(self, inputs: Path, seed: int, smoke: bool) -> None:
        raise NotImplementedError

    def commands(self, smoke: bool) -> list[tuple[str, list[str]]]:
        """(group, gapalign arguments) in order; groups name the cmd.* metrics."""
        raise NotImplementedError

    def check(self, work: Path, smoke: bool) -> list[tuple[str, bool, str]]:
        """(name, passed, reading) for every check of the sequence's outputs."""
        raise NotImplementedError


class Align(Workload):
    """The training-free pipeline: stats, frame, decompose, realign, blockwise."""

    def spec(self, smoke):
        return FixtureSpec(rows=600, dims=48, latent=16) if smoke else FixtureSpec(rows=50_000)

    def setup(self, inputs, seed, smoke):
        write_pair(inputs, seed, self.spec(smoke))

    def commands(self, smoke):
        calib = ["--calib-src", "in/src.emb1", "--calib-tgt", "in/tgt.emb1"]
        return [
            ("frame_build", ["stats", "--in", "in/src.emb1", "--out", "out/src_stats.json"]),
            ("frame_build", ["stats", "--in", "in/tgt.emb1", "--out", "out/tgt_stats.json"]),
            ("frame_build", ["frame", "--x", "out/src_stats.json", "--y", "out/tgt_stats.json",
                             "--out", "out/frame.json"]),
            ("decompose", ["decompose", "--x", "in/src.emb1", "--y", "in/tgt.emb1",
                           "--frame", "out/frame.json", "--report", "out/decompose.json"]),
            ("align_realign", ["align", "--method", "realign", "--in", "in/src.emb1",
                               "--out", "out/realign.emb1", *calib,
                               "--save-stats", "out/realign_stats.json"]),
            ("apply_realign", ["align", "--method", "realign", "--in", "in/src.emb1",
                               "--out", "out/realign_applied.emb1",
                               "--stats", "out/realign_stats.json"]),
            ("align_blockwise", ["align", "--method", "blockwise", "--in", "in/src.emb1",
                                 "--out", "out/blockwise.emb1", *calib]),
        ]

    def check(self, work, smoke):
        spec = self.spec(smoke)
        out = work / "out"
        checks = []
        for side in ("src", "tgt"):
            stats = json.loads((out / f"{side}_stats.json").read_text())["payload"]
            n, dims = stats["n"], len(stats["mean"])
            checks.append((f"{side} stats count every row and dimension",
                           (n, dims) == (spec.rows, spec.dims), f"n={n} dims={dims}"))
        report = json.loads((out / "decompose.json").read_text())
        err = report["max_reconstruction_error"]
        checks.append(("decompose reconstruction error below 1e-10", err < 1e-10, f"{err:.3g}"))
        src, tgt = read_emb1(work / "in/src.emb1"), read_emb1(work / "in/tgt.emb1")
        raw_gap = _gap(src, tgt)
        for name in ("realign", "blockwise"):
            rows = read_emb1(out / f"{name}.emb1")
            checks.append(_unit_rows(name, rows, spec.rows))
            gap = _gap(rows, tgt)
            checks.append((f"{name} centroid gap below the raw gap", gap < raw_gap,
                           f"{gap:.6g} < {raw_gap:.6g}"))
        same = (out / "realign.emb1").read_bytes() == (out / "realign_applied.emb1").read_bytes()
        checks.append(("apply from artifact is byte-identical to calibrate-and-apply", same, ""))
        return checks


def knn_reference(points: np.ndarray, k: int, chunk: int = 1024) -> np.ndarray:
    """Exact k nearest neighbours, lower index first among equal distances.

    Partitions each distance row and sorts only the k candidates by
    (distance, index); a row whose k-th distance is tied re-sorts every
    candidate at that distance.  It shares no code with the library's
    full-sort implementation.
    """
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (points[start:stop] @ points.T)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        vals = np.take_along_axis(d2, part, axis=1)
        block = np.take_along_axis(part, np.lexsort((part, vals)), axis=1)
        kth = vals.max(axis=1)
        for row in np.flatnonzero((d2 <= kth[:, None]).sum(axis=1) > k):
            cand = np.flatnonzero(d2[row] <= kth[row])
            block[row] = cand[np.lexsort((cand, d2[row, cand]))][:k]
        out[start:stop] = block
    return out


def _mixing_reference(a, b, k):
    pool = np.vstack([a, b]).astype(np.float64)
    labels = np.repeat([0, 1], [a.shape[0], b.shape[0]])
    return float((labels[knn_reference(pool, k)] != labels[:, None]).mean())


def _overlap_reference(before, after, k):
    nb = knn_reference(before.astype(np.float64), k)
    na = knn_reference(after.astype(np.float64), k)
    return float(np.mean([np.intersect1d(x, y).size for x, y in zip(nb, na)]) / k)


def _cosine_masses(rows, num_pairs, bins, seed):
    """Histogram of the report's seeded pair sample, read off the Gram matrix.

    The pairs are drawn exactly as the report draws them; the cosines come
    from a GEMM instead of per-pair dot products, so a pair may land in a
    neighbouring bin only if its cosine is within round-off of an edge.
    """
    x = rows.astype(np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=num_pairs)
    j = (i + rng.integers(1, n, size=num_pairs)) % n
    norms = np.linalg.norm(x, axis=1)
    cos = np.clip((x @ x.T)[i, j] / (norms[i] * norms[j]), -1.0, 1.0)
    return np.histogram(cos, bins=np.linspace(-1.0, 1.0, bins + 1))[0] / float(num_pairs)


def _js_reference(a, b, num_pairs=200_000, bins=201, seed=0):
    p, q = _cosine_masses(a, num_pairs, bins, seed), _cosine_masses(b, num_pairs, bins, seed + 1)
    m = 0.5 * (p + q)
    kl = lambda x: float(np.sum(x[x > 0] * np.log(x[x > 0] / m[x > 0])))
    return max(0.0, 0.5 * kl(p) + 0.5 * kl(q))


def _spectrum_reference(rows):
    x = rows.astype(np.float64)
    centered = x - x.mean(axis=0)
    lam = np.clip(np.linalg.eigvalsh(centered.T @ centered / x.shape[0]), 0.0, None)
    p = lam[lam > 0] / lam.sum()
    return float(np.mean(np.sum(centered**2, axis=1))), float(np.exp(-np.sum(p * np.log(p))))


class Diagnose(Workload):
    """Alignment quality before and after realign, with exact duplicate rows."""

    def spec(self, smoke):
        if smoke:
            return FixtureSpec(rows=300, dims=48, latent=16, duplicates=0.01)
        return FixtureSpec(rows=4_000, duplicates=0.01)

    def setup(self, inputs, seed, smoke):
        write_pair(inputs, seed, self.spec(smoke))

    def commands(self, smoke):
        return [
            ("diagnose", ["align", "--method", "realign", "--in", "in/src.emb1",
                          "--out", "out/aligned.emb1", "--calib-src", "in/src.emb1",
                          "--calib-tgt", "in/tgt.emb1"]),
            ("diagnose", ["diagnose", "--a", "in/src.emb1", "--b", "in/tgt.emb1",
                          "--overlap-with", "out/aligned.emb1", "--plots-dir", "out/plots",
                          "--report", "out/before.json"]),
            ("diagnose", ["diagnose", "--a", "out/aligned.emb1", "--b", "in/tgt.emb1",
                          "--report", "out/after.json"]),
        ]

    def check(self, work, smoke):
        spec = self.spec(smoke)
        out = work / "out"
        before = json.loads((out / "before.json").read_text())
        after = json.loads((out / "after.json").read_text())
        src, tgt = read_emb1(work / "in/src.emb1"), read_emb1(work / "in/tgt.emb1")
        aligned = read_emb1(out / "aligned.emb1")
        mix_before, mix_after = before["knn_mixing_rate"], after["knn_mixing_rate"]
        checks = [("kNN mixing rises after alignment", mix_after > mix_before,
                   f"{mix_before:.4f} -> {mix_after:.4f}")]
        for label, rep, a in (("before", before, src), ("after", after, aligned)):
            rows_ok = rep["rows_a"] == spec.rows and rep["rows_b"] == spec.rows
            checks.append((f"{label}: row counts", rows_ok, f"{rep['rows_a']}, {rep['rows_b']}"))
            # Tolerances: float64 round-off for the gap and the spectrum; 1e-3
            # for kNN rates, where near-equal distances may order differently
            # under another GEMM blocking; 1e-5 nats for JS, about one pair
            # moving to a neighbouring bin.
            checks.append(_near(f"{label}: modality_gap", rep["modality_gap"], _gap(a, tgt), 1e-9))
            checks.append(_near(f"{label}: knn_mixing_rate", rep["knn_mixing_rate"],
                                _mixing_reference(a, tgt, 20), 1e-3))
            checks.append(_near(f"{label}: js_divergence_nats", rep["js_divergence_nats"],
                                _js_reference(a, tgt), 1e-5))
            trace, erank = _spectrum_reference(a)
            checks.append(_near(f"{label}: spectrum_a trace", rep["spectrum_a"]["trace"],
                                trace, 1e-9 * trace))
            checks.append(_near(f"{label}: spectrum_a effective_rank",
                                rep["spectrum_a"]["effective_rank"], erank, 1e-6 * erank))
        checks.append(_near("knn_overlap", before["knn_overlap"],
                            _overlap_reference(src, aligned, 10), 1e-3))
        with open(out / "plots/pca_coords.csv") as fh:
            pca_rows = sum(1 for _ in csv.reader(fh)) - 1
        checks.append(("pooled PCA has one row per input row", pca_rows == 2 * spec.rows,
                       f"{pca_rows}"))
        return checks


class Simulate(Workload):
    """The toy contrastive training run at the default SimulatorConfig."""

    # Smoke runs a short config.  The default run's values: freeze step and
    # rank as measured, row count from steps/log_every, and the properties
    # of acceptance criterion 12.
    SMOKE_CONFIG = "steps = 200\nprobe_size = 512\n"
    EXPECT = {False: {"rows": 61, "freeze_step": 800, "rank": 19},
              True: {"rows": 7, "freeze_step": 80, "rank": 20}}

    def setup(self, inputs, seed, smoke):
        inputs.mkdir(parents=True, exist_ok=True)
        if smoke:
            (inputs / "sim.cfg").write_text(self.SMOKE_CONFIG)

    def commands(self, smoke):
        config = ["--config", "in/sim.cfg"] if smoke else []
        return [("simulate", ["simulate", *config, "--trace", "out/trace.csv"])]

    def check(self, work, smoke):
        expect = self.EXPECT[smoke]
        with open(work / "out/trace.csv") as fh:
            header = fh.readline().split()
            rows = list(csv.DictReader(fh))
        fields = dict(token.split("=", 1) for token in header if "=" in token)
        series = {key: np.array([float(r[key]) for r in rows]) for key in rows[0]} if rows else {}
        finite = all(np.isfinite(v).all() for v in series.values())
        checks = [
            ("simulate logs the expected finite rows", len(rows) == expect["rows"] and finite,
             f"{len(rows)} rows, finite={finite}"),
            ("freeze step and frame rank", fields.get("freeze_step") == str(expect["freeze_step"])
             and fields.get("rank") == str(expect["rank"]), " ".join(header)),
        ]
        if not smoke and rows:
            quartile = max(1, len(rows) // 4)
            rho_min = float(series["rho_align"][-quartile:].min())
            bound = float((series["leak_ref"] <= series["sin_theta"] + series["coupling_norm"]
                           + 1e-6).mean())
            cos_med = float(np.median(series["cos_stability"][1:]))
            ku, kv = series["kappa_u"][-1], series["kappa_v"][-1]
            ok = rho_min > 0.9 and bound >= 0.99 and cos_med > 0.95 and ku > kv > 1.0
            checks.append(("criterion-12 properties hold", bool(ok),
                           f"rho min {rho_min:.3f}, bound {bound:.1%}, cos median {cos_med:.3f}, "
                           f"kappa_u {ku:.1f} > kappa_v {kv:.1f} > 1"))
        return checks


WORKLOADS = {
    w.name: w
    for w in (
        Align("align", "paired 50k x 768 stats, frame, decompose, realign and blockwise: io, "
                       "moments, spectral, frame and realign at d=768, no kNN, no simulator"),
        Diagnose("diagnose", "4k x 768 per side with 1% duplicate rows: exact kNN, cosine "
                             "histograms and pooled PCA dominate; io and moments do little"),
        Simulate("simulate", "default toy training: no file I/O, no large GEMM, thousands of "
                             "small calls into moments, spectral and frame at d=64"),
    )
}


def main(argv) -> int:
    """``setup|check <workload> <seed> <smoke 0|1>``, run in the work directory.

    ``run.py`` runs set-up and checks in children of their own, so its own
    memory stays small: a child can inherit its parent's peak RSS in
    ``ru_maxrss``, which would hide the commands' own.
    """
    task, name, seed, smoke = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    workload = WORKLOADS[name]
    if task == "setup":
        workload.setup(Path("in"), seed, smoke)
    else:
        print(json.dumps(workload.check(Path("."), smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
