import numpy as np
import pytest

from latentwire.data import CIFAR_RECORD, CIFAR_TEST_FILE, CIFAR_TRAIN_FILES


@pytest.fixture
def cifar_dir(tmp_path):
    """A CIFAR-10 binary archive in miniature: each of the five train batches
    and the test batch holds ten records, labelled 0 to 9 in order, with
    random pixels."""
    rng = np.random.default_rng(0)
    directory = tmp_path / "cifar"
    directory.mkdir()
    for name in CIFAR_TRAIN_FILES + [CIFAR_TEST_FILE]:
        records = rng.integers(0, 256, (10, CIFAR_RECORD), dtype=np.uint8)
        records[:, 0] = np.arange(10)
        (directory / name).write_bytes(records.tobytes())
    return directory
