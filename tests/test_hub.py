import socket
import struct
import threading
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentwire.wire as wire
from latentwire import ops
from latentwire.data import LabeledDataset
from latentwire.device import DeviceNode, HubSink, WireClientSink
from latentwire.errors import LatentWireError, SinkFailure
from latentwire.hub import Hub, HubServer, _Handler, serve_stream
from latentwire.network import Network
from latentwire.train import TrainConfig
from latentwire.wire import (
    ACK_ACCEPTED,
    ACK_BAD_CRC,
    ACK_DUPLICATE,
    ACK_SHAPE_MISMATCH,
    ACK_TRUNCATED,
    MAX_FRAME_BYTES,
    UNLABELED,
    LatentRecord,
    encode_record,
)
from latentwire.zoo import build_vanilla_classifier

from test_wire import BAD_SHAPE_BODIES, CRC_LEN, HEADER_LEN, frame_around


def make_record(record=0, device=1, label=3, seed=0):
    payload = np.random.default_rng(seed).random(6).astype("<f4")
    return LatentRecord(device, record, label, (2, 3), payload)


def test_ingest_accepts_then_flags_duplicate():
    hub = Hub()
    rec = make_record()
    assert hub.ingest(rec, "train") == ACK_ACCEPTED
    assert hub.ingest(make_record(seed=1), "train") == ACK_DUPLICATE  # another payload
    assert hub.ingest(make_record(), "test") == ACK_DUPLICATE  # another split
    # an identical re-send, as after a lost ack, is acked and stores nothing
    assert hub.ingest(make_record(), "train") == ACK_ACCEPTED
    assert hub.store == {(1, 0): (rec, "train")} and hub.store[1, 0][0] is rec


def counting_decodes(monkeypatch):
    """Patch wire.decode_frame_at to log each call: the frame length of a
    decode, or the error it raised."""
    calls = []
    decode = wire.decode_frame_at

    def counting(buf, start, end):
        try:
            record = decode(buf, start, end)
        except wire.WireDecodeError as err:
            calls.append(err)
            raise
        calls.append(end - start)
        return record

    monkeypatch.setattr(wire, "decode_frame_at", counting)
    return calls


def test_serve_stream_decodes_each_frame_once(monkeypatch):
    calls = counting_decodes(monkeypatch)
    recs = [make_record(record=i, seed=i) for i in range(5)]
    stream = b"".join(encode_record(r) for r in recs)
    frame_bytes = [len(encode_record(r)) for r in recs]
    hub, acks = Hub(), bytearray()
    accepted, rejected = serve_stream(hub, [stream], "train", acks.extend)
    assert (accepted, rejected) == (5, 0) and bytes(acks) == bytes([ACK_ACCEPTED] * 5)
    assert calls == frame_bytes
    assert hub.records("train") == recs

    # frames that span chunks are decoded once too, never retried as truncated
    rng = np.random.default_rng(0)
    cuts = np.cumsum(rng.integers(1, 8, len(stream)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], cuts) if a < len(stream)]
    assert {len(c) for c in chunks[:-1]} == set(range(1, 8))
    calls.clear()
    hub, acks = Hub(), bytearray()
    assert serve_stream(hub, chunks, "train", acks.extend) == (5, 0)
    assert bytes(acks) == bytes([ACK_ACCEPTED] * 5)
    assert calls == frame_bytes
    assert hub.records("train") == recs


def test_serve_stream_ack_sequence():
    bad = bytearray(encode_record(make_record(record=1)))
    bad[-1] ^= 0xFF
    first, last = encode_record(make_record(record=0)), encode_record(make_record(record=2))
    clash = encode_record(make_record(record=0, seed=1))  # first's key, another payload
    acks = bytearray()
    hub = Hub()
    stream = first + clash + bytes(bad) + last + first
    counts = serve_stream(hub, [stream[i:i + 9] for i in range(0, len(stream), 9)],
                          "train", ack_writer=acks.extend)
    assert bytes(acks) == bytes([ACK_ACCEPTED, ACK_DUPLICATE, ACK_BAD_CRC, ACK_ACCEPTED,
                                 ACK_ACCEPTED])
    assert counts == (3, 2)
    assert [r.record_id for r in hub.records("train")] == [0, 2]


def test_serve_stream_acks_frames_behind_oversize_header():
    stall = forged_header(50 * 1024 * 1024)
    recs = [LatentRecord(1, i, 0, (8, 8, 3), np.full(192, i, "<f4")) for i in range(5)]
    acks = bytearray()
    counts = serve_stream(Hub(), [stall + b"".join(encode_record(r) for r in recs)],
                          "train", ack_writer=acks.extend)
    assert bytes(acks) == bytes([ACK_ACCEPTED] * 5)
    assert counts == (5, 0)


def damaged_frame(kind, frame):
    """`frame` with one kind of damage; "intact" leaves it whole."""
    b = bytearray(frame)
    if kind == "crc":
        b[-1] ^= 0xFF
    elif kind == "version":
        b[4] += 1
    elif kind == "truncated":  # its declared body runs into what follows
        del b[-16:]
    elif kind == "magic":
        b[3] = ord("X")
    elif kind == "oversize":
        b[6:10] = struct.pack("<I", MAX_FRAME_BYTES + 1)
    return bytes(b)


STREAM_PARTS = st.lists(
    st.one_of(st.tuples(st.sampled_from(["intact", "crc", "version", "truncated",
                                         "magic", "oversize"]), st.integers(1, 40)),
              st.tuples(st.just("garbage"), st.binary(min_size=1, max_size=60)),
              st.tuples(st.just("forged"), st.integers(0, 600))),
    max_size=12)


def forged_header(length):
    """A sound 10-byte header (LTNT, v1, flags 0) declaring a body of `length`
    bytes, with no frame behind it."""
    return struct.pack("<4sBBI", b"LTNT", 1, 0, length)


def build_stream(parts):
    """Frames of (n,)-shaped records, damaged or not, forged headers and
    garbage runs."""
    out = []
    for i, (kind, arg) in enumerate(parts):
        if kind == "garbage":
            out.append(arg)
        elif kind == "forged":
            out.append(forged_header(arg))
        else:
            rec = LatentRecord(2, i, i % 7, (arg,), np.arange(arg, dtype="<f4") * (i + 1))
            out.append(damaged_frame(kind, encode_record(rec)))
    return b"".join(out)


@given(STREAM_PARTS, st.lists(st.integers(1, 64), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_serve_stream_is_the_same_in_any_chunking(parts, sizes):
    stream = build_stream(parts)
    chunks, at = [], 0
    while at < len(stream):
        size = sizes[len(chunks) % len(sizes)]
        chunks.append(stream[at:at + size])
        at += size
    pending = []
    feed = wire.FrameScanner.feed

    def recording_feed(scanner, chunk):
        items = feed(scanner, chunk)
        pending.append(scanner.pending)
        return items

    results = []
    with mock.patch.object(wire.FrameScanner, "feed", recording_feed):
        for source in ([stream], chunks):
            hub, acks = Hub(), bytearray()
            counts = serve_stream(hub, source, "train", acks.extend)
            assert counts == (acks.count(ACK_ACCEPTED), len(acks) - acks.count(ACK_ACCEPTED))
            results.append((bytes(acks), hub.records("train")))
    assert results[0] == results[1]
    # the scanner decodes only at a magic it found, so no frame draws 0x01 (bad
    # magic, reserved), and a sound header waits for its body, so none draws truncated
    assert {0x01, ACK_TRUNCATED}.isdisjoint(results[0][0])
    assert max(pending, default=0) <= HEADER_LEN + MAX_FRAME_BYTES + CRC_LEN


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_forged_header_is_refused_if_its_frame_fits_and_stalls_the_stream_if_not(size):
    # the known limit in FrameScanner's docstring: a sound header waits for its body
    frames = b"".join(encode_record(LatentRecord(1, i, 0, (8, 8, 3), np.full(192, i, "<f4")))
                      for i in range(5))
    fits = [ACK_BAD_CRC] + [ACK_ACCEPTED] * 5
    for length, expected, counts in ((100, fits, (5, 1)), (len(frames), [], (0, 0))):
        stream = forged_header(length) + frames
        acks = bytearray()
        assert serve_stream(Hub(), [stream[i:i + size] for i in range(0, len(stream), size)],
                            "train", ack_writer=acks.extend) == counts
        assert bytes(acks) == bytes(expected)


@pytest.mark.parametrize("body", BAD_SHAPE_BODIES.values(), ids=BAD_SHAPE_BODIES.keys())
def test_serve_stream_acks_bad_shape_and_stores_nothing(body):
    acks = bytearray()
    hub = Hub()
    counts = serve_stream(hub, [frame_around(body)], "train", ack_writer=acks.extend)
    assert bytes(acks) == bytes([ACK_SHAPE_MISMATCH]) == b"\x05"
    assert counts == (0, 1)
    assert hub.store == {}


def test_hub_sink_round_trips_through_codec():
    hub = Hub()
    sink = HubSink(hub, "test")
    rec = make_record()
    sink.push(rec)
    stored = hub.records("test")
    assert stored == [rec] and stored[0] is not rec
    sink.push(rec)  # an identical re-send is acked and stores nothing
    assert hub.records("test") == [rec] and hub.records("test")[0] is stored[0]
    with pytest.raises(SinkFailure, match="0x06"):
        sink.push(make_record(seed=1))
    with pytest.raises(LatentWireError, match="^label 65536 exceeds u16$"):
        sink.push(make_record(record=1, label=0x10000))


def test_hub_sink_push_runs_the_server_loop(monkeypatch):
    feeds = []
    feed = wire.FrameScanner.feed

    def counting_feed(scanner, chunk):
        feeds.append(len(chunk))
        return feed(scanner, chunk)

    monkeypatch.setattr(wire.FrameScanner, "feed", counting_feed)
    decodes = counting_decodes(monkeypatch)
    recs = [make_record(record=i, seed=i) for i in range(4)]
    hub = Hub()
    sink = HubSink(hub, "train")
    for rec in recs:
        sink.push(rec)
        assert sink._scanner.pending == 0
    frame_bytes = [len(encode_record(r)) for r in recs]
    assert feeds == frame_bytes and decodes == frame_bytes
    assert hub.records("train") == recs


def test_wire_client_pushes_over_loopback():
    recs = [make_record(record=i, seed=i) for i in range(3)]
    hub = Hub()
    with HubServer(hub, split="test") as server, WireClientSink(*server.address) as sink:
        for rec in recs:
            sink.push(rec)
        assert hub.records("test") == recs
        sink.push(recs[1])  # an identical re-send is acked and stores nothing
        with pytest.raises(SinkFailure, match="0x06"):
            sink.push(make_record(record=1, seed=9))
    assert hub.records("test") == recs


def test_wire_client_fails_when_the_server_closes_before_acking():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with WireClientSink(*listener.getsockname()) as sink:
            conn, _ = listener.accept()
            conn.close()
            with pytest.raises(SinkFailure, match="closed before ack"):
                sink.push(make_record())


class _AckPipeBroken:
    """A connection that delivers `chunks`, then closes, and whose peer is
    gone before the hub acks."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def recv_into(self, buf):
        chunk = self.chunks.pop(0) if self.chunks else b""
        buf[:len(chunk)] = chunk
        return len(chunk)

    def sendall(self, data):
        raise BrokenPipeError("peer closed")


def test_handler_keeps_the_record_when_the_ack_pipe_breaks():
    recs = [make_record(record=i, seed=i) for i in range(2)]
    hub = Hub()
    # BaseRequestHandler runs handle() from its constructor
    _Handler(_AckPipeBroken(encode_record(recs[0])), ("127.0.0.1", 0),
             SimpleNamespace(hub=hub, split="train"))
    assert hub.records("train") == recs[:1]
    with HubServer(hub, split="train") as server:
        _Handler(_AckPipeBroken(encode_record(recs[1])), ("127.0.0.1", 0), server)
        with WireClientSink(*server.address) as sink:
            sink.push(make_record(record=2))
    assert [r.record_id for r in hub.records("train")] == [0, 1, 2]


def test_stop_without_start_returns_and_closes_the_socket():
    # shutdown() waits for a serve_forever loop, and an unstarted server has none
    server = HubServer(Hub())
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    assert server.fileno() == -1


def test_stop_of_a_started_server_returns_promptly():
    # serve_forever sees the shutdown request only between polls
    server = HubServer(Hub()).start()
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 0.2
    assert not server._thread.is_alive() and server.fileno() == -1


def test_an_empty_split_is_refused_where_it_is_assembled():
    hub = Hub()
    with pytest.raises(LatentWireError, match="^no train-split latents ingested$"):
        hub.assemble("train", num_classes=2)
    with pytest.raises(LatentWireError, match="^no train-split latents ingested$"):
        hub.train_classifier("A", TrainConfig(epochs=1), num_classes=2)
    r = np.random.default_rng(0)
    for i in range(8):
        payload = r.random(32).astype("<f4")
        hub.ingest(LatentRecord(1, i, i % 2, (4, 4, 2), payload), "train")
    hub.train_classifier("A", TrainConfig(epochs=1, batch_size=4), num_classes=2)
    for refused in (hub.assemble, hub.evaluate):
        with pytest.raises(LatentWireError, match="^no test-split latents ingested$"):
            refused("test", num_classes=2)


def test_predict_matches_the_bulk_forward_of_a_trained_classifier():
    hub = Hub()
    r = np.random.default_rng(0)
    for record in range(32):  # records 0-23 train, 24-31 test; class 1 sits higher
        label = record % 2
        payload = (0.2 * r.random(32) + 0.8 * label).astype("<f4")
        hub.ingest(LatentRecord(1, record, label, (4, 4, 2), payload),
                   "train" if record < 24 else "test")
    hub.train_classifier("A", TrainConfig(epochs=10, batch_size=4), num_classes=2)
    test = hub.assemble("test", num_classes=2)
    bulk = hub.classifier.infer(test.images).argmax(axis=-1)
    assert [hub.predict(rec) for rec in hub.records("test")] == bulk.tolist()
    assert bulk.tolist() == test.labels.tolist()  # both classes, so not a constant answer


def test_inference_builds_no_cache_and_matches_a_caching_forward(monkeypatch):
    # a device's export and encode and the hub's predict and bulk inference
    # run forwards without caches: no op builds a LayerCache, and each output
    # holds the bytes a caching forward of the same input returns
    built = []

    class CountedCache(ops.LayerCache):
        __slots__ = ()

        def __init__(self, kind, **data):
            built.append(kind)
            super().__init__(kind, **data)

    r = np.random.default_rng(0)
    images = r.random((40, 16, 16, 3)).astype(np.float32)  # two inference batches
    data = LabeledDataset(images, np.arange(40) % 2, 2)
    dev = DeviceNode(1, data, data)
    dev.fit_autoencoder(4, TrainConfig(epochs=1, seed=0))
    forward, calls = Network.forward, []

    def recorded(net, x, rng=None, caches=None):
        y = forward(net, x, rng=rng, caches=caches)
        calls.append((net, x, y))
        return y

    monkeypatch.setattr(Network, "forward", recorded)
    monkeypatch.setattr(ops, "LayerCache", CountedCache)
    hub = Hub()
    dev.export_latents("test", HubSink(hub, "test"))
    records = [dev.encode(image, 0) for image in images[:3]]
    latents = hub.assemble("test", num_classes=2)
    for family in ("A", "B"):  # B has dropout layers
        hub.classifier = Network(build_vanilla_classifier(latents.sample_shape, family, 2),
                                 rng=np.random.default_rng(1))
        hub.classifier.infer(latents.images)
        for rec in records:
            hub.predict(rec)
    assert built == [] and len({id(net) for net, _, _ in calls}) == 3 and len(calls) == 15
    for net, x, y in calls:
        want = forward(net, x, caches=[None] * len(net.spec.layers))
        assert want.tobytes() == y.tobytes()
    assert len(built) == sum(len(net.spec.layers) for net, _, _ in calls)


def test_assemble_rejects_mixed_latent_shapes():
    hub = Hub()
    hub.ingest(make_record(record=0), "train")
    hub.ingest(LatentRecord(1, 1, 0, (3, 2), np.zeros(6, "<f4")), "train")
    hub.ingest(make_record(record=2), "test")
    with pytest.raises(LatentWireError,
                       match=r"^latents of shape \(3, 2\) and \(2, 3\) in split 'train'$"):
        hub.assemble("train", num_classes=4)
    assert len(hub.assemble("test", num_classes=4)) == 1


def test_assemble_rejects_unlabeled_record():
    # UNLABELED (0xFFFF) lies outside any class count the grid passes
    hub = Hub()
    hub.ingest(make_record(record=0), "train")
    hub.ingest(make_record(record=1, label=UNLABELED), "train")
    with pytest.raises(LatentWireError, match="labels must lie in"):
        hub.assemble("train", num_classes=4)


def test_no_classifier_until_trained():
    hub = Hub()
    with pytest.raises(LatentWireError, match="^train a classifier before predicting$"):
        hub.predict(make_record())
    with pytest.raises(LatentWireError, match="^train a classifier before evaluating$"):
        hub.evaluate("test", num_classes=4)
    hub.ingest(make_record(), "test")
    with pytest.raises(LatentWireError, match="^no train-split latents ingested$"):
        hub.train_classifier("A", TrainConfig(epochs=1), num_classes=4)
    assert hub.classifier is None
