"""Server side: framed ingestion, latent aggregation, and classifier training
and serving.

Every record reaches a Hub through ingest_chunk: a FrameScanner splits the
bytes into frames, decodes each frame once, and Hub.ingest decides its ack.
A (device id, record id) key is stored once: an identical re-send (same
payload and split), as after a lost ack, is ACCEPTED and stores nothing,
and anything else under a held key is DUPLICATE. serve_stream, HubServer's
loop per connection, runs ingest_chunk over its chunks and writes each ack;
the in-process HubSink runs it over one frame per record, with one scanner
for the sink's whole life.

The hub only ever holds latents; a device's decoder arrays die inside its
fit. At CR=1 the autoencoder has no layers, so each record is the image
itself as f32. For CR > 1 what the design provides is that the decoder never
leaves the device; that does not make the latents impossible to invert.
"""

from __future__ import annotations

import socketserver
import threading

import numpy as np

from .data import LabeledDataset
from .errors import LatentWireError
from .train import evaluate, train_classifier
from .wire import ACK_ACCEPTED, ACK_DUPLICATE, FrameScanner, WireDecodeError
from .zoo import build_vanilla_classifier


class Hub:
    """Aggregation point. The latent store is append-only during ingestion
    and guarded by a lock, so concurrent connections cannot lose or
    duplicate records."""

    def __init__(self):
        self._lock = threading.Lock()
        self.store = {}  # (device_id, record_id) -> (LatentRecord, split), ingestion order
        self.classifier = None

    def ingest(self, record, split) -> int:
        """ACCEPTED for a new (device id, record id) key, which is stored, or an
        identical re-send of the held (record, split); else DUPLICATE."""
        entry = (record, split)
        with self._lock:
            held = self.store.setdefault((record.device_id, record.record_id), entry)
        return ACK_ACCEPTED if held is entry or held == entry else ACK_DUPLICATE

    def records(self, split):
        with self._lock:
            return [rec for rec, s in self.store.values() if s == split]

    def assemble(self, split, num_classes) -> LabeledDataset:
        """One split's latents as a dataset, in ingestion order; an empty split is refused."""
        records = self.records(split)
        if not records:
            raise LatentWireError(f"no {split}-split latents ingested")
        shape = records[0].shape
        for rec in records:
            if rec.shape != shape:
                raise LatentWireError(
                    f"latents of shape {rec.shape} and {shape} in split {split!r}")
        images = np.stack([rec.tensor for rec in records])
        labels = np.array([rec.label for rec in records], dtype=np.int64)
        return LabeledDataset(images, labels, num_classes)

    def train_classifier(self, family, cfg, num_classes):
        """Fit a classifier of `family` ("A"/"B") on the assembled train split."""
        data = self.assemble("train", num_classes)
        spec = build_vanilla_classifier(data.sample_shape, family, num_classes)
        net, history = train_classifier(spec, data, cfg)
        self.classifier = net
        return history

    def predict(self, record) -> int:
        if self.classifier is None:
            raise LatentWireError("train a classifier before predicting")
        return int(self.classifier.forward(record.tensor[None]).argmax())

    def evaluate(self, split, num_classes):
        """Accuracy of the stored classifier over one assembled split."""
        if self.classifier is None:
            raise LatentWireError("train a classifier before evaluating")
        return evaluate(self.classifier, self.assemble(split, num_classes))


def ingest_chunk(hub, scanner, chunk, split):
    """The one ingestion step: feed a stream's next chunk to its `scanner`
    and ingest each record it yields. Returns one ack code per frame
    attempt, in stream order; garbage between frames draws none."""
    return [item.ack if isinstance(item, WireDecodeError) else hub.ingest(item, split)
            for item in scanner.feed(chunk)]


_ACK_BYTES = [bytes([code]) for code in range(256)]


def serve_stream(hub, chunks, split, ack_writer):
    """Ingest an ordered byte source, such as a TCP connection's chunks,
    with one scanner, and pass one ack byte per frame attempt to
    `ack_writer`. Returns (accepted, rejected) counts.
    """
    scanner = FrameScanner()
    accepted = rejected = 0
    for chunk in chunks:
        for ack in ingest_chunk(hub, scanner, chunk, split):
            if ack == ACK_ACCEPTED:
                accepted += 1
            else:
                rejected += 1
            ack_writer(_ACK_BYTES[ack])
    return accepted, rejected


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        def chunks():
            # one receive buffer per connection; the scanner copies out of it
            buf = bytearray(65536)
            view = memoryview(buf)
            while True:
                n = self.request.recv_into(buf)
                if not n:
                    return
                yield view[:n]

        try:
            serve_stream(self.server.hub, chunks(), self.server.split,
                         ack_writer=self.request.sendall)
        except OSError:  # a reset or broken pipe ends that connection only
            pass


# serve_forever checks for a shutdown request once per poll, so stop() waits
# up to this long
_POLL_S = 0.02


class HubServer(socketserver.ThreadingTCPServer):
    """TCP front end; each connection feeds frames for one split of `hub`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, hub, split="train", host="127.0.0.1", port=0):
        super().__init__((host, port), _Handler)
        self.hub = hub
        self.split = split
        self._thread = None

    @property
    def address(self):
        return self.server_address

    def start(self):
        self._thread = threading.Thread(target=self.serve_forever, args=(_POLL_S,),
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self):
        """Stop serving and close the socket; shutdown waits for a
        serve_forever loop, so only a started server runs it."""
        if self._thread:
            self.shutdown()
            self._thread.join()
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
