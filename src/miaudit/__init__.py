"""miaudit: membership-inference privacy audits for small classifiers.

Train a target MLP, mount threshold and trained membership attacks
(among them the adversarial distance: that of the closest misclassified
iterate of a loss-maximising APGD run, epsilon when none is found and 0
when the row is already misclassified, an upper bound on the distance to
the nearest adversarial example), and evaluate them under reproducible
protocols.
"""

from .adversarial import (
    AdversarialOutcome,
    ApgdTrace,
    AttackConfig,
    find_adversarial,
    find_adversarial_rows,
    lp_norm,
    project_lp_box,
)
from .attack_models import (
    MinMaxScaler,
    TrainedAttacker,
    build_and_train_ensemble,
    extract_grad_w_stats,
    extract_grad_x_stats,
    extract_intermediate_outputs,
    extract_wb_features,
    fit_logistic_attacker,
    fit_mlp_attacker,
    gradient_statistics,
)
from .errors import (
    AuditError,
    ConfigError,
    DataError,
    EvaluationError,
    InvalidInputError,
    ShapeError,
    TrainingError,
)
from .evaluation import (
    EvalReport,
    ROCCurve,
    auroc,
    averaged_roc_on_grid,
    best_threshold_accuracy,
    holdout_threshold_eval,
    ratio_robustness_experiment,
    repeated_subset_experiment,
    roc_curve,
    score_histogram,
)
from .nn_core import (
    MLPClassifier,
    TrainConfig,
    backward_gradients,
    build_mlp,
    cross_entropy_loss,
    empirical_risk,
    forward_predict,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train,
)
from .scores import (
    THRESHOLD_STRATEGIES,
    adv_dist_score,
    compute_score,
    grad_w_norm_score,
    grad_x_norm_score,
    loss_score,
    membership_decision,
    mentr_score,
    modified_entropy,
    softmax_response,
)
from .cli_runner.data import generate_synthetic_dataset, load_dataset, save_dataset

__version__ = "0.1.0"
