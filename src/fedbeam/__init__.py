"""LIDAR-aided mmWave beam selection at desk scale.

Synthetic V2I scenes with a geometric multipath channel, occupancy-grid
preprocessing, a compact from-scratch CNN classifier, centralized and
federated (FedAvg) training loops, and the beam-search metrics (top-K
accuracy, throughput ratio, communication overhead) used to compare them.
"""

from .channel import (
    BeamCodebook,
    ChannelSet,
    beam_powers,
    dft_codebook,
    optimal_beam,
    throughput_ratio,
    topk,
    topk_accuracy,
)
from .dataset import (
    Dataset,
    DatasetMeta,
    IngestSpec,
    Sample,
    SynthConfig,
    export_exchange,
    generate_synthetic,
    ingest_external,
    load_dataset,
    partition_uniform,
    save_dataset,
    synthesize_scene,
)
from .errors import (
    FedBeamError,
    FormatError,
    IngestError,
    IntegrityError,
    MetricUnavailableError,
    NumericError,
)
from .evaluation import (
    REFERENCE_RESULTS,
    CentralTrainConfig,
    EvalReport,
    evaluate,
    monte_carlo,
    train_centralized,
)
from .fedavg import (
    ClientState,
    FedConfig,
    RoundLog,
    aggregate,
    local_round,
    rounds_to_accuracy,
    run_federated,
    write_round_csv,
)
from .nn import (
    AdamState,
    ArchitectureSpec,
    BatchNormState,
    ConvSpec,
    adam_step,
    count_flops,
    count_params,
    default_architecture,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    sgd_step,
)
from .preprocess import GridConfig, default_grid, lidar_to_grid

__version__ = "0.1.0"
