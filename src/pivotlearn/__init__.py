"""pivotlearn: query-efficient learning from pairwise labels.

Estimate the regret landscape around a pivot hypothesis from a small biased
sample of labeled pairs, minimize the estimate, and repeat.  Hypothesis
classes: total orders (ranking), k-clusterings, explicit finite label
classes, and planar linearly-induced orders.
"""

__version__ = "0.1.0"

from .clustering import (
    Clustering,
    build_clustering_estimator,
    random_clustering,
    sample_size_q,
)
from .core import (
    ErmFailedError,
    Params,
    Pool,
    PoolMismatchError,
    RegretEstimator,
    Trajectory,
    TrajectoryRow,
    distance,
    regret,
    run_erm_iteration,
    true_error,
)
from .generic import (
    FiniteClass,
    build_generic_estimator,
    disagreement_coefficient,
    disagreement_region,
    intervals_class,
    sample_size_m,
    thresholds_class,
    uniform_disagreement_coefficient,
    vc_dimension,
)
from .geometric import (
    FeatureSet,
    enumerate_orders_2d,
    geometric_erm_2d,
    induced_permutation,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    run,
    run_experiment,
    sweep,
    write_run,
)
from .oracles import (
    BudgetExceededError,
    InstanceOracle,
    LabelOracle,
    NoiseSpec,
    PairInstanceOracle,
    QueryCounters,
    load_oracle,
    make_clustering_oracle,
    make_ranking_oracle,
    save_oracle,
)
from .ranking import (
    Permutation,
    build_ranking_estimator,
    footrule_distance,
    kendall_distance,
    random_permutation,
    sample_size_p,
)
from .seeding import derive_rng, pair_uniform

__all__ = [
    "__version__",
    # core
    "Pool",
    "Params",
    "RegretEstimator",
    "Trajectory",
    "TrajectoryRow",
    "ErmFailedError",
    "PoolMismatchError",
    "distance",
    "true_error",
    "regret",
    "run_erm_iteration",
    # oracles
    "NoiseSpec",
    "QueryCounters",
    "LabelOracle",
    "InstanceOracle",
    "PairInstanceOracle",
    "BudgetExceededError",
    "make_ranking_oracle",
    "make_clustering_oracle",
    "save_oracle",
    "load_oracle",
    # ranking
    "Permutation",
    "random_permutation",
    "kendall_distance",
    "footrule_distance",
    "sample_size_p",
    "build_ranking_estimator",
    # clustering
    "Clustering",
    "random_clustering",
    "sample_size_q",
    "build_clustering_estimator",
    # generic
    "FiniteClass",
    "thresholds_class",
    "intervals_class",
    "disagreement_region",
    "disagreement_coefficient",
    "uniform_disagreement_coefficient",
    "vc_dimension",
    "sample_size_m",
    "build_generic_estimator",
    # geometric
    "FeatureSet",
    "induced_permutation",
    "enumerate_orders_2d",
    "geometric_erm_2d",
    # harness
    "ExperimentConfig",
    "RunRecord",
    "ConfigError",
    "run",
    "run_experiment",
    "write_run",
    "sweep",
    # seeding
    "derive_rng",
    "pair_uniform",
]
