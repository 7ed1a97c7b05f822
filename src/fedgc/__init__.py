"""Federated embedding training with private per-client classifier heads.

Clients share a feature-extractor backbone but keep their class-embedding
columns local; the server optionally applies a gradient-correction step on
the stacked embedding matrix to push different clients' classes apart.
"""

from .data import (
    ClientData,
    Dataset,
    PartitionSpec,
    SyntheticSpec,
    VerificationPairs,
    generate,
    partition_balanced,
    partition_lognormal,
    partition_shared,
)
from .evaluation import (
    RoundMetrics,
    best_threshold_accuracy,
    embedding_similarity_stats,
    mean_anchor_feature_distance,
    verification_accuracy,
)
from .experiments import (
    Cell,
    CellResult,
    ExperimentSpec,
    default_spec,
    parse_config,
    run_cell,
    run_experiment,
    validate_config,
)
from .federation import (
    FederationConfig,
    ServerState,
    aggregate_theta,
    build_centralized,
    build_federation,
    centralized_round,
    client_update,
    combined_objective,
    correction_step,
    load_checkpoint,
    merge_shared_identities,
    run_round,
    save_checkpoint,
)
from .losses import (
    LossGrad,
    LossSpec,
    NonFiniteError,
    batch_loss_and_grad,
)
from .nn import (
    BackboneParams,
    SgdState,
    backward,
    forward,
    init_backbone,
    read_tensors,
    write_tensors,
)
from .regularizers import (
    RegGrad,
    StackedEmbeddings,
    cosine_reg,
    softmax_reg,
)

__all__ = [name for name in dir() if not name.startswith("_")]
