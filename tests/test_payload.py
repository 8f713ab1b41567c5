"""The field-driven artifact codec: exact round trips, and malformed payloads fail cleanly."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapalign import DataFormatError, ReferenceFrame, build_frame
from gapalign.moments import ModalityStats, stats_of
from gapalign.realign import AlignmentStats, BlockwiseStats, estimate_blockwise, estimate_realign


def _json_payload(obj) -> dict:
    """What ``load_artifact`` hands the decoder: the encoded payload after a JSON trip."""
    return json.loads(json.dumps(obj.to_payload()))


def _samples() -> dict:
    rng = np.random.default_rng(41)
    d = 6
    src = rng.normal(size=(400, d)) + np.linspace(0.5, 1.0, d)
    tgt = rng.normal(size=(400, d)) * np.linspace(1.0, 0.3, d)
    src /= np.linalg.norm(src, axis=1, keepdims=True)
    tgt /= np.linalg.norm(tgt, axis=1, keepdims=True)
    stats_src, stats_tgt = stats_of(src, track_cov=True), stats_of(tgt, track_cov=True)
    frame = build_frame(stats_src.covariance, stats_tgt.covariance, energy=0.8, created_at_step=7)
    full = ReferenceFrame(basis=np.linalg.qr(rng.normal(size=(d, d)))[0], energy_threshold=1.0)
    objects = {
        "modality_stats": stats_src,
        "modality_stats_no_cov": stats_of(tgt),
        "reference_frame": frame,
        "alignment_stats": estimate_realign(stats_src, stats_tgt, src),
        "blockwise_stats": estimate_blockwise(frame, src, tgt),
        "blockwise_stats_rank_d": estimate_blockwise(full, src, tgt),
    }
    return {name: (type(obj), _json_payload(obj)) for name, obj in objects.items()}


SAMPLES = _samples()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_round_trip_is_exact(name):
    cls, payload = SAMPLES[name]
    back = cls.from_payload(payload)
    assert isinstance(back, cls)
    assert json.dumps(back.to_payload(), sort_keys=True) == json.dumps(payload, sort_keys=True)


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
