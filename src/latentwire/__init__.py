"""latentwire: train autoencoders at simulated edge devices, ship only
latent vectors over a checksummed binary protocol, and train/serve an image
classifier at the hub."""

from .data import LabeledDataset, SyntheticSpec, gen_synthetic, load_cifar10
from .device import DeviceNode, HubSink, WireClientSink, make_devices, partition_dataset
from .experiment import ExperimentConfig, ExperimentReport, run_experiment
from .hub import Hub, HubServer
from .losses import LossResult, cross_entropy_loss, mse_loss
from .network import Network
from .optim import OptimizerState, make_optimizer, optimizer_step
from .train import (
    TrainConfig,
    TrainHistory,
    evaluate,
    train_autoencoder,
    train_classifier,
)
from .wire import FrameScanner, LatentRecord, decode_record, encode_record
from .zoo import (
    AutoencoderPair,
    LayerSpec,
    ModelSpec,
    build_autoencoder,
    build_vanilla_classifier,
    infer_shapes,
)

__version__ = "0.1.0"
