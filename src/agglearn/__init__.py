"""agglearn: classifiers trained from aggregate group observations.

Supervision arrives per group of instances -- a similarity bit, a triplet
comparison, class counts, a bag label, or an order bit -- never per
instance. Training weighs every (instance, class) pair by its posterior
probability given the group's label, which makes the resulting empirical
risk an unbiased estimate of the fully supervised classification risk.
"""

from .data import (
    Dataset,
    GroupObservation,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_observations,
    sample_groups,
    save_csv,
    save_observations,
)
from .evaluation import (
    accuracy,
    apply_permutation,
    confusion_counts,
    group_accuracy_mil,
    matched_accuracy,
    modified_accuracy,
)
from .losses import (
    DegenerateGroupError,
    aggregate_loss,
    compute_weights,
    em_lower_bound,
    estep_omega,
    loglik_loss,
)
from .models import AdamState, Classifier, adam_step
from .posteriors import (
    GroupPosterior,
    brute_force_posterior,
    group_posterior,
    posterior_llp,
    posterior_mil,
    posterior_ordinal_triplet,
    posterior_pairwise,
    posterior_rank,
    posterior_triplet,
    to_cumulative,
)
from .tasks import TASKS, Task, TaskSpec, aggregate_label, consistent_tuples, enumerate_z
from .training import (
    EpochRecord,
    TrainConfig,
    TrainResult,
    TrainingAbortError,
    default_flags,
    observed_likelihood,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Classifier",
    "Dataset",
    "DegenerateGroupError",
    "EpochRecord",
    "GroupObservation",
    "GroupPosterior",
    "SyntheticSpec",
    "TASKS",
    "Task",
    "TaskSpec",
    "TrainConfig",
    "TrainResult",
    "TrainingAbortError",
    "accuracy",
    "adam_step",
    "aggregate_label",
    "aggregate_loss",
    "apply_permutation",
    "brute_force_posterior",
    "compute_weights",
    "confusion_counts",
    "consistent_tuples",
    "default_flags",
    "em_lower_bound",
    "enumerate_z",
    "estep_omega",
    "generate_synthetic",
    "group_accuracy_mil",
    "group_posterior",
    "load_csv",
    "load_observations",
    "loglik_loss",
    "matched_accuracy",
    "modified_accuracy",
    "observed_likelihood",
    "posterior_llp",
    "posterior_mil",
    "posterior_ordinal_triplet",
    "posterior_pairwise",
    "posterior_rank",
    "posterior_triplet",
    "sample_groups",
    "save_csv",
    "save_observations",
    "to_cumulative",
    "train",
]
