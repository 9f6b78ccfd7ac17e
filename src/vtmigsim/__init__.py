"""Road-network trajectory synthesis and split-policy multi-agent RL for
edge task pre-migration."""

from .roadnet import (
    Projection,
    RoadNetwork,
    load_network,
    map_match,
    shortest_path,
)
from .trajgen import (
    GenConfig,
    KdeModel,
    MobilityProfile,
    Trajectory,
    build_profile,
    clean_and_segment,
    generate_dataset,
    interpolate,
)
from .envsim import (
    ChannelParams,
    EnvConfig,
    PremigrationEnv,
    StepResult,
    build_env,
)
from .neuralcore import Adam, Critic, DenseNet, SplitActor
from .msrl import PolicyBundle, SwitchController, TrainConfig, train

__all__ = [
    "Projection", "RoadNetwork",
    "load_network", "map_match", "shortest_path",
    "GenConfig", "KdeModel", "MobilityProfile", "Trajectory",
    "build_profile", "clean_and_segment", "generate_dataset", "interpolate",
    "ChannelParams", "EnvConfig", "PremigrationEnv", "StepResult", "build_env",
    "Adam", "Critic", "DenseNet", "SplitActor",
    "PolicyBundle", "SwitchController", "TrainConfig", "train",
]

__version__ = "0.1.0"
