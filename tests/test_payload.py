"""The field-driven artifact codec and its files: exact round trips, bad input fails cleanly."""

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapalign.io
from gapalign import (
    DataFormatError,
    ReferenceFrame,
    StatsArtifact,
    build_frame,
    decompose_gap,
    load_artifact,
    save_artifact,
)
from gapalign.moments import ModalityStats, stats_of
from gapalign.realign import AlignmentStats, BlockwiseStats, estimate_blockwise, estimate_realign


def _json_payload(obj) -> dict:
    """The encoded payload after a JSON trip, with every array inline as in a v1 artifact."""
    return json.loads(json.dumps(obj.to_payload(), default=np.ndarray.tolist))


def _objects() -> dict:
    rng = np.random.default_rng(41)
    d = 6
    src = rng.normal(size=(400, d)) + np.linspace(0.5, 1.0, d)
    tgt = rng.normal(size=(400, d)) * np.linspace(1.0, 0.3, d)
    src /= np.linalg.norm(src, axis=1, keepdims=True)
    tgt /= np.linalg.norm(tgt, axis=1, keepdims=True)
    stats_src, stats_tgt = stats_of(src, track_cov=True), stats_of(tgt, track_cov=True)
    frame = build_frame(stats_src.covariance, stats_tgt.covariance, energy=0.8, created_at_step=7)
    full = ReferenceFrame(basis=np.linalg.qr(rng.normal(size=(d, d)))[0], energy_threshold=1.0)
    return {
        "modality_stats": stats_src,
        "modality_stats_no_cov": stats_of(tgt),
        "reference_frame": frame,
        "alignment_stats": estimate_realign(stats_src, stats_tgt, src),
        "blockwise_stats": estimate_blockwise(frame, stats_of(src),
                                              stats_of(tgt, track_cov=True), src),
        "blockwise_stats_rank_d": estimate_blockwise(full, stats_of(src),
                                                     stats_of(tgt, track_cov=True), src),
    }


OBJECTS = _objects()  # as fitted in process
SAMPLES = {name: (type(obj), _json_payload(obj)) for name, obj in OBJECTS.items()}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_round_trip_is_exact(name):
    cls, payload = SAMPLES[name]
    back = cls.from_payload(payload)
    assert isinstance(back, cls)
    assert json.dumps(_json_payload(back), sort_keys=True) == json.dumps(payload, sort_keys=True)


def test_every_class_names_its_kind_and_skips_derived_fields():
    kinds = {cls.kind for cls in (ModalityStats, ReferenceFrame, AlignmentStats, BlockwiseStats)}
    assert kinds == {"modality_stats", "reference_frame", "alignment_stats", "blockwise_stats"}
    assert "operator" not in SAMPLES["blockwise_stats"][1]


def test_only_fields_defaulting_to_none_may_be_absent():
    _, payload = SAMPLES["modality_stats"]
    assert ModalityStats.from_payload({k: v for k, v in payload.items() if k != "covariance"}
                                      ).covariance is None
    _, payload = SAMPLES["reference_frame"]
    frame = ReferenceFrame.from_payload({k: v for k, v in payload.items() if k != "created_at_step"})
    assert frame.created_at_step is None
    _, payload = SAMPLES["blockwise_stats"]
    with pytest.raises(DataFormatError, match="missing field 'floored'"):
        BlockwiseStats.from_payload({k: v for k, v in payload.items() if k != "floored"})


def _paths(payload: dict) -> list:
    """Every field, with the nested frame's fields as ("frame", key) pairs."""
    out = []
    for key, value in payload.items():
        out.append((key,))
        if isinstance(value, dict):
            out.extend((key, inner) for inner in value)
    return out


_DROP = object()
_MUTATIONS = st.one_of(
    st.sampled_from([_DROP, None, "abc", True, False, {"a": 1.0}, [[1.0], [1.0, 2.0]],
                     float("nan"), float("inf"), [], [None], 10 ** 400, 2.5, -1, 0]),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=3),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_payloads_load_or_raise_data_format_error(data):
    cls, payload = SAMPLES[data.draw(st.sampled_from(sorted(SAMPLES)))]
    payload = json.loads(json.dumps(payload))
    path = data.draw(st.sampled_from([()] + _paths(payload)))
    if not path:  # the whole payload becomes a list
        payload = list(payload.values())
    else:
        holder = payload
        for key in path[:-1]:
            holder = holder[key]
        value = data.draw(_MUTATIONS)
        if value is _DROP:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    try:
        cls.from_payload(payload)
    except DataFormatError:
        pass


# ------------------------------------------------------------ schema-v2 files

DATA = Path(__file__).parent / "data"


def _assert_same_bits(got, want):
    """Equal trees whose arrays have the same shape and the same float64 bits."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.asarray(got, dtype=np.float64).tobytes() == want.tobytes()
    else:
        assert type(got) is type(want) and got == want


def _save(obj, path) -> str:
    save_artifact(StatsArtifact(obj.kind, obj.to_payload()), str(path))
    return str(path)


def _load(cls, path):
    return cls.from_payload(load_artifact(str(path)).payload)


def _refs(tree: dict, at=()) -> list:
    """(key path, reference) of every sidecar reference in a JSON payload tree."""
    out = []
    for key, value in tree.items():
        if isinstance(value, dict):
            out.extend([(at + (key,), value)] if "npy" in value else _refs(value, at + (key,)))
    return out


# the fields each sample keeps in .npy sidecars: every non-empty matrix
SIDECARS = {
    "modality_stats": ["covariance"],
    "modality_stats_no_cov": [],
    "reference_frame": ["basis"],
    "alignment_stats": [],
    "blockwise_stats": ["basis_out", "frame.basis", "t_in", "t_out"],
    "blockwise_stats_rank_d": ["frame.basis", "t_in"],  # basis_out is 6 x 0, t_out 0 x 0
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_v2_files_round_trip_bitwise(tmp_path, name):
    cls, payload = SAMPLES[name]
    obj = cls.from_payload(payload)
    path = _save(obj, tmp_path / "a.json")
    doc = json.loads(Path(path).read_text())
    assert doc["schema_version"] == 2
    assert sorted(".".join(at) for at, _ in _refs(doc["payload"])) == SIDECARS[name]
    assert sorted(os.listdir(tmp_path)) == ["a.json"] + [f"a.json.{f}.npy" for f in SIDECARS[name]]
    _assert_same_bits(_load(cls, path).to_payload(), obj.to_payload())


def _arrays(obj, at=()):
    """(field path, array) of every array a payload holds, derived and nested ones too."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, gapalign.io.Payload):
            yield from _arrays(value, at + (f.name,))
        elif isinstance(value, np.ndarray):
            yield ".".join(at + (f.name,)), value


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_every_payload_array_is_c_ordered_float64_on_construction(name):
    # a built frame once held its basis in F order, and its loaded copy in C order
    arrays = dict(_arrays(OBJECTS[name]))
    assert arrays
    for path, value in arrays.items():
        assert value.dtype == np.float64 and value.flags.c_contiguous, path


@pytest.mark.parametrize("name", ["reference_frame", "alignment_stats", "blockwise_stats",
                                  "blockwise_stats_rank_d"])
def test_a_saved_and_loaded_copy_computes_the_bits_of_the_fitted_value(tmp_path, name):
    # decompose_gap through a built frame and through its loaded copy once differed in bits
    obj = OBJECTS[name]
    back = _load(type(obj), _save(obj, tmp_path / "a.json"))
    rows = np.random.default_rng(43).normal(size=(2, 300, obj.dims))
    a, b = rows / np.linalg.norm(rows, axis=2, keepdims=True)
    if name == "reference_frame":
        _assert_same_bits(vars(decompose_gap(a, b, back)), vars(decompose_gap(a, b, obj)))
    else:
        _assert_same_bits(back.apply(a), obj.apply(a))


@pytest.mark.parametrize("fixture, cls", [("v1_modality_stats.json", ModalityStats),
                                          ("v1_blockwise_stats_rank_d.json", BlockwiseStats)])
def test_committed_v1_artifacts_decode_as_their_v2_round_trip(tmp_path, fixture, cls):
    # the fixtures are v1 files as an earlier build wrote them, every value inline
    v1 = load_artifact(str(DATA / fixture))
    assert v1.schema_version == 1 and v1.kind == cls.kind
    obj = cls.from_payload(v1.payload)
    back = _load(cls, _save(obj, tmp_path / "v2.json"))
    _assert_same_bits(back.to_payload(), obj.to_payload())
    if cls is BlockwiseStats:
        assert v1.payload["t_out"] == [] and back.t_out.shape == (0, 0)
        assert back.frame.basis[2, 1] == -0.8990868101087716
    else:
        assert back.covariance[0, 1] == 0.002249701102566848


def test_interrupted_overwrite_never_mixes_two_artifacts(tmp_path, monkeypatch):
    cls, payload = SAMPLES["modality_stats"]
    a = cls.from_payload(payload)
    b = ModalityStats(mean=a.mean, trace=2 * a.trace, n=a.n, covariance=2 * a.covariance)
    path = _save(a, tmp_path / "a.json")
    atomic_write = gapalign.io._atomic_write

    def crash_before_json(target, write_fn):
        if target == path:
            raise OSError("interrupted")
        atomic_write(target, write_fn)

    monkeypatch.setattr(gapalign.io, "_atomic_write", crash_before_json)
    with pytest.raises(OSError, match="interrupted"):
        _save(b, path)
    monkeypatch.undo()
    # A's JSON now names B's covariance file, of the same shape and dtype: only
    # the recorded SHA-256 tells them apart
    np.testing.assert_array_equal(np.load(path + ".covariance.npy"), b.covariance)
    with pytest.raises(DataFormatError, match="SHA-256"):
        _load(cls, path)
    _assert_same_bits(_load(cls, _save(b, path)).to_payload(), b.to_payload())


def test_overwrite_deletes_only_the_listed_sidecars_it_no_longer_names(tmp_path):
    cls, payload = SAMPLES["modality_stats"]
    full = cls.from_payload(payload)
    path = _save(full, tmp_path / "a.json")
    # files beside the artifact that its JSON does not list, or that are not its own
    (tmp_path / "a.json.spare.npy").write_bytes(b"x")
    (tmp_path / "b.json.covariance.npy").write_bytes(b"x")
    doc = json.loads(Path(path).read_text())
    doc["payload"]["stray"] = {"npy": "b.json.covariance.npy"}
    Path(path).write_text(json.dumps(doc))
    _save(ModalityStats(mean=full.mean, trace=full.trace, n=full.n), path)
    assert sorted(os.listdir(tmp_path)) == ["a.json", "a.json.spare.npy", "b.json.covariance.npy"]
    _save(full, path)
    Path(path).write_text("{not json")
    _save(ModalityStats(mean=full.mean, trace=full.trace, n=full.n), path)
    assert "a.json.covariance.npy" in os.listdir(tmp_path)


def _write_npy(path, array, **header):
    """``array``'s bytes under a v1.0 header that may claim another shape or dtype."""
    fields = np.lib.format.header_data_from_array_1_0(array)
    fields.update(header)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, fields)
        fh.write(array.tobytes())


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _set_ref(path, **changes):
    doc = json.loads(Path(path).read_text())
    doc["payload"]["covariance"].update(changes)
    Path(path).write_text(json.dumps(doc))


def _moved_to_subdirectory(absolute):
    """Move the sidecar into ``sub/`` and name it there, so only the name check can refuse it."""
    def attack(path):
        sub = os.path.join(os.path.dirname(path), "sub")
        os.mkdir(sub)
        os.replace(path + ".covariance.npy", os.path.join(sub, "c.npy"))
        _set_ref(path, npy=os.path.join(sub if absolute else "sub", "c.npy"))
    return attack


def _huge_header(path):
    # np.load of this file raises MemoryError, asking for 8 TiB before it reads anything
    file = path + ".covariance.npy"
    _write_npy(file, np.zeros(4), shape=(2 ** 20, 2 ** 20))
    _set_ref(path, shape=[2 ** 20, 2 ** 20], sha256=_sha256(file))


def _retyped(dtype, shape):
    def attack(path):
        file = path + ".covariance.npy"
        cov = np.load(file)
        _write_npy(file, cov, descr=dtype, shape=shape(cov.shape))
        _set_ref(path, sha256=_sha256(file))
    return attack


def _pickled(path):
    file = path + ".covariance.npy"
    shape = np.load(file).shape
    np.save(file, np.full(shape, {"not": "a float"}, dtype=object), allow_pickle=True)
    _set_ref(path, sha256=_sha256(file))


def _replace_file(make):
    def attack(path):
        file = path + ".covariance.npy"
        os.remove(file)
        make(file)
    return attack


def _edit_bytes(edit):
    def attack(path):
        file = Path(path + ".covariance.npy")
        file.write_bytes(edit(file.read_bytes()))
    return attack


@pytest.mark.parametrize("attack, named", [
    (_moved_to_subdirectory(absolute=False), "not a file name"),
    (_moved_to_subdirectory(absolute=True), "not a file name"),
    (lambda p: _set_ref(p, npy=".."), "not a file name"),
    (lambda p: _set_ref(p, npy="../" + os.path.basename(p) + ".covariance.npy"), "not a file name"),
    (_replace_file(lambda f: None), "cannot open"),
    (_replace_file(os.mkdir), "Is a directory"),
    (_replace_file(os.mkfifo), "not a regular file"),
    (_edit_bytes(lambda raw: raw + b"\0" * 8), "bytes; a"),
    (_edit_bytes(lambda raw: raw[:-8]), "bytes; a"),
    (_huge_header, "bytes; a"),
    (_edit_bytes(lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])), "SHA-256"),
    (_retyped("<f8", lambda s: (s[1], s[0] // 2, 2)), "does not match"),
    (_retyped("<f8", lambda s: (s[0] * s[1],)), "does not match"),
    (_retyped(">f8", lambda s: s), "does not match"),
    (_retyped("<i8", lambda s: s), "does not match"),
    (_retyped("|O", lambda s: s), "does not match"),
    (_pickled, "bytes; a"),
    (lambda p: _set_ref(p, dtype="|O"), "malformed reference"),
    (lambda p: _set_ref(p, shape=[6, 6.0]), "malformed reference"),
    (lambda p: _set_ref(p, extra=1), "malformed reference"),
], ids=["subdirectory", "absolute", "dotdot", "parent-path", "missing", "directory", "fifo",
        "longer", "shorter", "huge-header", "flipped-bit", "header-shape-3d", "header-shape-1d",
        "big-endian", "integer-dtype", "object-header", "pickled-object", "reference-dtype",
        "reference-float-shape", "reference-extra-key"])
def test_hostile_sidecar_is_data_format_error(tmp_path, attack, named):
    cls, payload = SAMPLES["modality_stats"]
    path = _save(cls.from_payload(payload), tmp_path / "a.json")
    attack(path)
    with pytest.raises(DataFormatError, match=named):
        load_artifact(path)


def test_non_dict_payload_is_data_format_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps({"schema_version": 2, "kind": "modality_stats", "payload": [1]}))
    with pytest.raises(DataFormatError, match="payload must be a JSON object"):
        load_artifact(str(path))


_HOSTILE_NAMES = st.sampled_from(["", ".", "..", "../a.json", "/etc/passwd", "sub/x.npy",
                                  "x\0.npy", "missing.npy", "a.json"])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_sidecars_load_bitwise_or_raise_data_format_error(data):
    cls, payload = SAMPLES[data.draw(st.sampled_from([k for k, v in SIDECARS.items() if v]))]
    original = cls.from_payload(payload)
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(original, Path(tmp) / "a.json")
        doc = json.loads(Path(path).read_text())
        refs = _refs(doc["payload"])
        _, ref = data.draw(st.sampled_from(refs))
        file = Path(tmp) / ref["npy"]
        raw = file.read_bytes()
        attack = data.draw(st.sampled_from(["truncate", "flip", "swap", "delete", "pickle",
                                            "reference"]))
        if attack == "truncate":
            file.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        elif attack == "flip":
            at = data.draw(st.integers(0, len(raw) - 1))
            flipped = raw[at] ^ data.draw(st.integers(1, 255))
            file.write_bytes(raw[:at] + bytes([flipped]) + raw[at + 1:])
        elif attack == "swap":  # with itself, too, which changes nothing
            other = Path(tmp) / data.draw(st.sampled_from(refs))[1]["npy"]
            file.write_bytes(other.read_bytes())
            other.write_bytes(raw)
        elif attack == "delete":
            file.unlink()
        elif attack == "pickle":
            np.save(file, np.full(ref["shape"], {"a": 1.0}, dtype=object), allow_pickle=True)
            if data.draw(st.booleans()):
                ref["sha256"] = _sha256(file)
        else:
            value = data.draw(st.one_of(_MUTATIONS, _HOSTILE_NAMES,
                                        st.sampled_from([r["npy"] for _, r in refs])))
            key = data.draw(st.sampled_from(sorted(ref) + ["extra"]))
            if value is _DROP:
                ref.pop(key, None)
            else:
                ref[key] = value
        Path(path).write_text(json.dumps(doc))
        try:
            back = _load(cls, path)
        except DataFormatError:
            return
    _assert_same_bits(back.to_payload(), original.to_payload())
