"""Count-min style sketches of order-aware moments of weighted event streams."""

from .dual import (
    LinearFunctional,
    infiltration_product,
    pairing,
    shuffle_product,
)
from .features import EventMapKind, features_from_arrays
from .hashing import (
    AffineHash,
    HashFamilySpec,
    eval_hash_array,
    sample_hashes,
    smallest_prime_geq,
)
from .sketch import (
    CandidateCapError,
    HeavyPatternResult,
    OrderSketch,
    dense_pullback,
    mine_heavy_patterns,
)
from .experiments import (
    ErrorReport,
    ExperimentOneConfig,
    ExperimentTwoConfig,
    LogisticModel,
    MarkovExperimentConfig,
    StreamClass,
    error_metric,
    gen_heavy_tail_stream,
    gen_markov_stream,
    run_experiment_1,
    run_experiment_2,
    train_linear_classifier,
)
from .tensor import (
    Event,
    GradedTensor,
    Stream,
    l1_level_norm,
    truncated_product,
    word_from_index,
    word_from_text,
    word_index,
    word_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "AffineHash",
    "CandidateCapError",
    "ErrorReport",
    "Event",
    "EventMapKind",
    "ExperimentOneConfig",
    "ExperimentTwoConfig",
    "GradedTensor",
    "HashFamilySpec",
    "HeavyPatternResult",
    "LinearFunctional",
    "LogisticModel",
    "MarkovExperimentConfig",
    "OrderSketch",
    "Stream",
    "StreamClass",
    "dense_pullback",
    "error_metric",
    "eval_hash_array",
    "features_from_arrays",
    "gen_heavy_tail_stream",
    "gen_markov_stream",
    "infiltration_product",
    "l1_level_norm",
    "mine_heavy_patterns",
    "pairing",
    "run_experiment_1",
    "run_experiment_2",
    "sample_hashes",
    "shuffle_product",
    "smallest_prime_geq",
    "train_linear_classifier",
    "truncated_product",
    "word_from_index",
    "word_from_text",
    "word_index",
    "word_to_text",
]
