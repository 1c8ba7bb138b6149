import numpy as np
import pytest

from latentwire.data import (
    CIFAR_RECORD,
    LabeledDataset,
    SyntheticSpec,
    cifar10_subset,
    gen_synthetic,
    load_cifar10,
    load_cifar10_batch,
    load_dataset,
    save_dataset,
)
from latentwire.errors import DatasetFormatError, LabelRangeError

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
    with pytest.raises(LabelRangeError):
        LabeledDataset(np.zeros((2, 4), np.float32), [0, 5], 3)


# --- CIFAR-10 binary loader ------------------------------------------------------

def _write_batch(path, records):
    blob = bytearray()
    for label, pixel_bytes in records:
        blob.append(label)
        blob += pixel_bytes
    path.write_bytes(bytes(blob))


def test_single_record_batch(tmp_path):
    path = tmp_path / "data_batch_1.bin"
    _write_batch(path, [(7, bytes([255]) * 3072)])
    images, labels = load_cifar10_batch(path)
    assert labels.tolist() == [7]
    assert images.shape == (1, 32, 32, 3)
    assert np.all(images == 1.0)


def test_planar_to_interleaved_layout(tmp_path):
    # first channel plane red=255, others zero: pixel (0,0) must be (1,0,0)
    path = tmp_path / "b.bin"
    _write_batch(path, [(0, bytes([255]) * 1024 + bytes(2048))])
    images, _ = load_cifar10_batch(path)
    assert images[0, 0, 0].tolist() == [1.0, 0.0, 0.0]
    assert images[0, 31, 31].tolist() == [1.0, 0.0, 0.0]


def test_missing_file(tmp_path):
    with pytest.raises(DatasetFormatError):
        load_cifar10_batch(tmp_path / "nope.bin")
    with pytest.raises(DatasetFormatError):
        load_cifar10(tmp_path)


def test_short_read(tmp_path):
    path = tmp_path / "data_batch_1.bin"
    path.write_bytes(bytes(100))
    with pytest.raises(DatasetFormatError):
        load_cifar10_batch(path)


def test_label_out_of_range(tmp_path):
    path = tmp_path / "data_batch_1.bin"
    _write_batch(path, [(11, bytes(3072))])
    with pytest.raises(DatasetFormatError):
        load_cifar10_batch(path)


def test_full_directory_counts(tmp_path):
    rng = np.random.default_rng(0)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        recs = [(int(rng.integers(0, 10)), bytes(rng.integers(0, 256, 3072, dtype=np.uint8)))
                for _ in range(20)]
        _write_batch(tmp_path / name, recs)
    train, test = load_cifar10(tmp_path)
    assert len(train) == 100 and len(test) == 20
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0


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


# --- npz round trip ------------------------------------------------------------

def test_dataset_file_roundtrip(tmp_path):
    train, test = gen_synthetic(SyntheticSpec(samples_per_class=12), seed=0)
    path = tmp_path / "data.npz"
    save_dataset(train, test, path)
    t2, e2 = load_dataset(path)
    assert t2.images.tobytes() == train.images.tobytes()
    assert e2.labels.tolist() == test.labels.tolist()
    assert t2.num_classes == 4
