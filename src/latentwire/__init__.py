"""latentwire: train autoencoders at simulated edge devices, ship only
latent vectors over a checksummed binary protocol, and train/serve an image
classifier at the hub."""

from .data import SyntheticSpec, gen_synthetic
from .device import HubSink, WireClientSink, make_devices
from .experiment import ExperimentConfig, run_experiment
from .hub import Hub, HubServer
from .train import TrainConfig
from .wire import LatentRecord, encode_record
from .zoo import build_autoencoder
