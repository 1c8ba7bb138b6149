import hashlib
import tracemalloc

import numpy as np
import pytest

from latentwire.data import (
    CIFAR_RECORD,
    LabeledDataset,
    SyntheticSpec,
    cifar10_subset,
    gen_synthetic,
    load_cifar10,
)
from latentwire.errors import LatentWireError

from oracles import nearest_centroid_accuracy


# --- synthetic generator ------------------------------------------------------

def test_default_split_sizes():
    train, test = gen_synthetic(SyntheticSpec(), seed=0)
    assert len(train) == 500 and len(test) == 100
    assert train.sample_shape == (32, 32, 3)


def test_exact_class_balance():
    train, test = gen_synthetic(SyntheticSpec(), seed=1)
    for data, per_class in [(train, 125), (test, 25)]:
        counts = np.bincount(data.labels, minlength=4)
        assert counts.tolist() == [per_class] * 4


def test_deterministic_for_seed():
    a_train, a_test = gen_synthetic(SyntheticSpec(), seed=5)
    b_train, b_test = gen_synthetic(SyntheticSpec(), seed=5)
    assert a_train.images.tobytes() == b_train.images.tobytes()
    assert a_test.labels.tobytes() == b_test.labels.tobytes()
    c_train, _ = gen_synthetic(SyntheticSpec(), seed=6)
    assert a_train.images.tobytes() != c_train.images.tobytes()


@pytest.mark.parametrize("spec, digest", [
    (SyntheticSpec(), "6776a52ce44c5cb91443c7c86c03303da4159d11edfb3cd8c3a61be9109a91d6"),
    (SyntheticSpec(image_size=(8, 12, 3), num_classes=8, samples_per_class=6, noise=0.0),
     "1466c8811a0da6261bd474fbdd58a4aa6985a20b046e8222b65de346430bd2ca"),
], ids=["default", "8x12-8-classes-noiseless"])
def test_generated_bytes_are_pinned(spec, digest):
    # a reordered draw keeps every seed deterministic but changes these bytes
    train, test = gen_synthetic(spec, seed=0)
    h = hashlib.sha256()
    for a in (train.images, train.labels, test.images, test.labels):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_values_in_unit_interval():
    train, _ = gen_synthetic(SyntheticSpec(samples_per_class=12), seed=2)
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0
    assert train.images.dtype == np.float32


def test_nearest_centroid_oracle_learns_it():
    train, test = gen_synthetic(SyntheticSpec(), seed=0)
    assert nearest_centroid_accuracy(train, test) > 0.9


def test_ratio_must_divide():
    with pytest.raises(ValueError):
        SyntheticSpec(samples_per_class=100)  # 100 % (5 + 1) != 0


def test_labels_validated():
    with pytest.raises(LatentWireError, match=r"^labels must lie in \[0,3\)$"):
        LabeledDataset(np.zeros((2, 4), np.float32), [0, 5], 3)


# --- CIFAR-10 binary loader ------------------------------------------------------

def _batch_bytes(records):
    return b"".join(bytes([label]) + pixel_bytes for label, pixel_bytes in records)


def _write_batch(path, records):
    path.write_bytes(_batch_bytes(records))


def _write_archive(directory, probe_name, probe):
    """A miniature archive in `directory`: each batch file holds one zero
    record, but the file `probe_name` holds the bytes `probe`, or is left
    out when `probe` is None."""
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        if name != probe_name:
            _write_batch(directory / name, [(0, bytes(3072))])
        elif probe is not None:
            (directory / name).write_bytes(probe)


def test_single_record_batch(tmp_path):
    _write_archive(tmp_path, "test_batch.bin", _batch_bytes([(7, bytes([255]) * 3072)]))
    _, test = load_cifar10(tmp_path)
    assert test.labels.tolist() == [7]
    assert test.images.shape == (1, 32, 32, 3)
    assert np.all(test.images == 1.0)


def test_planar_to_interleaved_layout(tmp_path):
    # first channel plane red=255, others zero: pixel (0,0) must be (1,0,0)
    _write_archive(tmp_path, "data_batch_1.bin",
                   _batch_bytes([(0, bytes([255]) * 1024 + bytes(2048))]))
    train, _ = load_cifar10(tmp_path)
    assert train.images[0, 0, 0].tolist() == [1.0, 0.0, 0.0]
    assert train.images[0, 31, 31].tolist() == [1.0, 0.0, 0.0]


def test_missing_file(tmp_path):
    with pytest.raises(LatentWireError, match="^missing batch file .*data_batch_1.bin$"):
        load_cifar10(tmp_path)
    _write_archive(tmp_path, "test_batch.bin", None)
    with pytest.raises(LatentWireError, match="^missing batch file .*test_batch.bin$"):
        load_cifar10(tmp_path)


def test_short_read(tmp_path):
    _write_archive(tmp_path, "test_batch.bin", bytes(100))
    with pytest.raises(LatentWireError,
                       match="100 bytes is not a whole number of 3073-byte records$"):
        load_cifar10(tmp_path)


def test_label_out_of_range(tmp_path):
    _write_archive(tmp_path, "data_batch_1.bin", _batch_bytes([(11, bytes(3072))]))
    with pytest.raises(LatentWireError, match=r"label 11 out of range 0\.\.9$"):
        load_cifar10(tmp_path)


def test_full_directory_counts(tmp_path):
    rng = np.random.default_rng(0)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        recs = [(int(rng.integers(0, 10)), bytes(rng.integers(0, 256, 3072, dtype=np.uint8)))
                for _ in range(20)]
        _write_batch(tmp_path / name, recs)
    train, test = load_cifar10(tmp_path)
    assert len(train) == 100 and len(test) == 20
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0


def test_archive_decodes_into_one_array(tmp_path):
    # the five train batches are divided straight into one float32 array:
    # no per-batch float copies beside it and no concatenated copy after it
    rng = np.random.default_rng(2)
    refs = {}
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = rng.integers(0, 256, (400, CIFAR_RECORD), dtype=np.uint8)
        records[:, 0] %= 10
        (tmp_path / name).write_bytes(records.tobytes())
        pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        refs[name] = (pixels.astype(np.float32) / 255.0, records[:, 0])
    tracemalloc.start()
    try:
        train, test = load_cifar10(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (train.images.nbytes + test.images.nbytes)
    want = [refs[f"data_batch_{i}.bin"] for i in range(1, 6)]
    assert train.images.tobytes() == np.concatenate([i for i, _ in want]).tobytes()
    assert train.labels.tolist() == np.concatenate([l for _, l in want]).tolist()
    assert test.images.tobytes() == refs["test_batch.bin"][0].tobytes()
    assert test.labels.tolist() == refs["test_batch.bin"][1].tolist()


def test_subset_selection(tmp_path):
    rng = np.random.default_rng(1)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        recs = [(i % 10, bytes(rng.integers(0, 256, 3072, dtype=np.uint8)))
                for i in range(40)]
        _write_batch(tmp_path / name, recs)
    train, test = load_cifar10(tmp_path)
    sub_train, sub_test = cifar10_subset(train, test, 2, 10)
    assert len(sub_train) == 20
    assert set(sub_train.labels.tolist()) == {0, 1}
    assert sub_train.num_classes == 2
    assert len(sub_test) == 4  # 10//5 per class
