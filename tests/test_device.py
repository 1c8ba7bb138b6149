import copy
import gc
import weakref

import numpy as np
import pytest

from latentwire import train
from latentwire.data import LabeledDataset
from latentwire.device import DeviceNode, make_devices
from latentwire.errors import LatentWireError, SinkFailure
from latentwire.train import TrainConfig
from latentwire.wire import UNLABELED, decode_record, encode_record


class ListSink:
    def __init__(self, fail_at=None):
        self.records = []
        self.fail_at = fail_at

    def push(self, record):
        if len(self.records) + 1 == self.fail_at:
            raise OSError("sink down")
        self.records.append(record)


def fitted_device(cr, n=70):
    # 70 samples: two full inference batches and a partial one
    r = np.random.default_rng(0)
    data = LabeledDataset(r.random((n, 8, 8, 3)).astype(np.float32), np.arange(n) % 2, 2)
    dev = DeviceNode(3, data, data)
    dev.fit_autoencoder(cr, TrainConfig(epochs=1, seed=0))
    return dev


def test_no_decoder_array_outlives_the_fit(monkeypatch):
    # the chain's arrays are seen only through weak references, so what
    # stays alive after the fit is what the device itself holds
    refs = []
    fit = train._fit

    def weakly_seen_fit(*args):
        net, hist = fit(*args)
        refs.append([[weakref.ref(a) for a in layer.values()] for layer in net.params])
        return net, hist

    monkeypatch.setattr(train, "_fit", weakly_seen_fit)
    dev = fitted_device(4)
    gc.collect()
    (layers,) = refs
    k = len(dev._encoder.spec.layers)
    decoder = [r for layer in layers[k:] for r in layer]
    assert decoder and all(r() is None for r in decoder)
    encoder = [r() for layer in layers[:k] for r in layer]
    held = [a for layer in dev._encoder.params for a in layer.values()]
    assert encoder and len(encoder) == len(held)
    assert all(a is b for a, b in zip(encoder, held))


@pytest.mark.parametrize("cr", [1, 4])
def test_export_latents_matches_per_sample_encode(cr):
    dev = fitted_device(cr)
    single = copy.deepcopy(dev)
    sink = ListSink()
    assert dev.export_latents("train", sink) == 70
    data = single.data["train"]
    expected = [single.encode(x, int(y)) for x, y in zip(data.images, data.labels)]
    assert [r.record_id for r in sink.records] == list(range(70))
    assert sink.records == expected


@pytest.mark.parametrize("call", [
    lambda dev: dev.encode(dev.data["train"].images[0]),
    lambda dev: dev.export_latents("train", ListSink()),
], ids=["encode", "export_latents"])
def test_unfitted_device_raises_not_fitted(call):
    dev = DeviceNode(3, _indexed(4), _indexed(2))
    with pytest.raises(LatentWireError, match="device 3 is not fitted"):
        call(dev)


def test_encode_without_label_is_unlabeled_through_the_codec():
    dev = fitted_device(4, n=10)
    rec = dev.encode(dev.data["train"].images[0])
    assert rec.label == UNLABELED
    assert (rec.device_id, rec.record_id, rec.shape) == (3, 0, (4, 4, 3))
    back = decode_record(encode_record(rec))
    assert back == rec and back.label == UNLABELED


def test_sink_failure_reports_emitted_count():
    dev = fitted_device(4, n=10)
    sink = ListSink(fail_at=5)
    with pytest.raises(SinkFailure) as info:
        dev.export_latents("test", sink)
    assert info.value.emitted == 4
    assert len(sink.records) == 4


def _indexed(n):
    """A dataset whose sample i holds the value i, so shards show which
    samples they took."""
    return LabeledDataset(np.arange(n, dtype=np.float32)[:, None], np.arange(n) % 2, 2)


def test_make_devices_shards_are_disjoint_covering_and_even():
    devices = make_devices(_indexed(23), _indexed(10), 4, "iid", np.random.default_rng(0))
    assert [dev.device_id for dev in devices] == [0, 1, 2, 3]
    for split, n in (("train", 23), ("test", 10)):
        shards = [dev.data[split].images[:, 0].astype(int) for dev in devices]
        assert sorted(np.concatenate(shards).tolist()) == list(range(n))
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("mode", ["label-shard", "IID", None])
def test_make_devices_accepts_only_iid(mode):
    with pytest.raises(ValueError, match="partition mode"):
        make_devices(_indexed(8), _indexed(4), 2, mode, np.random.default_rng(0))
