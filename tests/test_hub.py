import struct

import numpy as np
import pytest

import latentwire.wire as wire
from latentwire.device import HubSink, WireClientSink
from latentwire.errors import (
    HeterogeneousShapeError,
    NoClassifierError,
    ShapeMismatchError,
    SinkFailure,
)
from latentwire.hub import Hub, HubServer, serve_stream
from latentwire.train import TrainConfig
from latentwire.wire import (
    ACK_ACCEPTED,
    ACK_BAD_CRC,
    ACK_DUPLICATE,
    UNLABELED,
    LatentRecord,
    OversizeRecordError,
    encode_record,
)


def make_record(record=0, device=1, label=3, seed=0):
    payload = np.random.default_rng(seed).random(6).astype("<f4")
    return LatentRecord(device, record, label, (2, 3), payload)


def test_ingest_accepts_then_flags_duplicate():
    hub = Hub()
    rec = make_record()
    assert hub.ingest(rec, "train") == ACK_ACCEPTED
    assert hub.ingest(make_record(seed=1), "test") == ACK_DUPLICATE
    assert hub.store == [(rec, "train")]


def test_serve_stream_decodes_each_frame_once(monkeypatch):
    calls = []
    decode = wire.decode_frame_at

    def counting(buf, offset=0):
        calls.append(offset)
        return decode(buf, offset)

    monkeypatch.setattr(wire, "decode_frame_at", counting)
    recs = [make_record(record=i, seed=i) for i in range(5)]
    hub = Hub()
    accepted, rejected = serve_stream(
        hub, [b"".join(encode_record(r) for r in recs)], "train")
    assert (accepted, rejected) == (5, 0)
    assert len(calls) == len(recs)
    assert hub.records("train") == recs


def test_serve_stream_ack_sequence():
    bad = bytearray(encode_record(make_record(record=1)))
    bad[-1] ^= 0xFF
    first, last = encode_record(make_record(record=0)), encode_record(make_record(record=2))
    acks = bytearray()
    hub = Hub()
    stream = first + first + bytes(bad) + last
    counts = serve_stream(hub, [stream[i:i + 9] for i in range(0, len(stream), 9)],
                          "train", ack_writer=acks.extend)
    assert bytes(acks) == bytes([ACK_ACCEPTED, ACK_DUPLICATE, ACK_BAD_CRC, ACK_ACCEPTED])
    assert counts == (2, 2)
    assert [r.record_id for r in hub.records("train")] == [0, 2]


def test_serve_stream_acks_frames_behind_oversize_header():
    stall = struct.pack("<4sBBI", b"LTNT", 1, 0, 50 * 1024 * 1024)
    recs = [LatentRecord(1, i, 0, (8, 8, 3), np.full(192, i, "<f4")) for i in range(5)]
    acks = bytearray()
    counts = serve_stream(Hub(), [stall + b"".join(encode_record(r) for r in recs)],
                          "train", ack_writer=acks.extend)
    assert bytes(acks) == bytes([ACK_ACCEPTED] * 5)
    assert counts == (5, 0)


def test_hub_sink_round_trips_through_codec():
    hub = Hub()
    sink = HubSink(hub, "test")
    rec = make_record()
    sink.push(rec)
    stored = hub.records("test")
    assert stored == [rec] and stored[0] is not rec
    with pytest.raises(SinkFailure, match="0x06"):
        sink.push(rec)
    with pytest.raises(OversizeRecordError):
        sink.push(make_record(record=1, label=0x10000))


def test_wire_client_pushes_over_loopback():
    recs = [make_record(record=i, seed=i) for i in range(3)]
    hub = Hub()
    with HubServer(hub, split="test") as server, WireClientSink(*server.address) as sink:
        for rec in recs:
            sink.push(rec)
        assert hub.records("test") == recs
        with pytest.raises(SinkFailure, match="0x06"):
            sink.push(recs[1])
    assert hub.records("test") == recs


def test_evaluate_empty_split_scores_zero():
    hub = Hub()
    r = np.random.default_rng(0)
    for i in range(8):
        payload = r.random(32).astype("<f4")
        hub.ingest(LatentRecord(1, i, i % 2, (4, 4, 2), payload), "train")
    hub.train_classifier("A", TrainConfig(epochs=1, batch_size=4))
    assert hub.evaluate("test")[0] == 0.0


def test_assemble_rejects_mixed_latent_shapes():
    hub = Hub()
    hub.ingest(make_record(record=0), "train")
    hub.ingest(LatentRecord(1, 1, 0, (3, 2), np.zeros(6, "<f4")), "train")
    hub.ingest(make_record(record=2), "test")
    with pytest.raises(HeterogeneousShapeError):
        hub.assemble("train")
    assert len(hub.assemble("test")) == 1


def test_assemble_rejects_unlabeled_record():
    hub = Hub()
    hub.ingest(make_record(record=0), "train")
    hub.ingest(make_record(record=1, label=UNLABELED), "train")
    with pytest.raises(ShapeMismatchError, match="unlabeled"):
        hub.assemble("train")


def test_no_classifier_until_trained():
    hub = Hub()
    with pytest.raises(NoClassifierError):
        hub.predict(make_record())
    with pytest.raises(NoClassifierError):
        hub.evaluate("test")
    hub.ingest(make_record(), "test")
    with pytest.raises(NoClassifierError):
        hub.train_classifier("A", TrainConfig(epochs=1))
    assert hub.classifier is None
