"""Cotangent-margin angular losses and a small face-authentication toolkit."""

from .angular import (
    AngularBatch,
    LossConfig,
    NormOverflowError,
    SingularityError,
    ZeroVectorError,
    angles_from_features,
    cot_via_identity,
    cot_via_theta,
    elastic_sample,
    l2_normalize,
)
from .losses import (
    ANGULAR_LOSSES,
    LossOutput,
    double_loss,
    margin_sigmoid_ce,
    softmax_loss,
)
from .metrics import (
    RankedQuery,
    ScoredPairs,
    auc,
    eer,
    far_frr_sweep,
    gap,
    histogram,
    map_at_100,
    pca2,
)
from .train import (
    ConfigError,
    GradcheckReport,
    MlpModel,
    SynthSpec,
    TrainReport,
    TrainingDivergedError,
    backward,
    backward_scores,
    forward,
    forward_scores,
    gradcheck,
    init_embedding_model,
    init_score_model,
    load_model,
    save_model,
    sgd_step,
    synth_dataset,
    train_loop,
)

__version__ = "0.1.0"
