"""Consistency-regularized weighted matrix factorization for hashtag adoption.

The pipeline: generate or ingest adoption records (dataio), bin them into a
binary user-time matrix (linalg), mask held-out positives and build the
indicator/attenuation masks (masks, harness), fit the factorization or a
baseline (factorization, baselines), score by RMSE (harness), and test the
consistency hypothesis (stats).
"""

from .baselines import (
    ArModel,
    TransitionModel,
    fit_ar,
    fit_markov,
    predict_ar,
    predict_markov,
    random_predict,
)
from .dataio import (
    AdoptionRecords,
    SynthConfig,
    bin_records,
    cumulative_counts,
    generate_corpus,
    generate_synthetic,
    load_matrix_csv,
    parse_records,
    save_cumulative_csv,
    save_matrix_csv,
    write_records,
)
from .factorization import (
    FactorPair,
    TrainConfig,
    TrainTrace,
    grad_u,
    grad_v,
    objective,
    predict,
    train,
)
from .harness import (
    METHODS,
    ResultRow,
    ResultsTable,
    SplitSpec,
    rmse,
    run_sweep,
    split_mask,
)
from .linalg import (
    DenseMatrix,
    SparseBinaryMatrix,
    low_rank_product,
)
from .masks import HeldOutSet, MaskPair, build_attenuation, build_indicator, build_masks
from .stats import (
    ConsistencyVectors,
    TTestResult,
    build_consistency_vectors,
    regularized_incomplete_beta,
    student_t_upper_tail,
    welch_ttest_one_sided,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "AdoptionRecords",
    "ArModel",
    "ConsistencyVectors",
    "DenseMatrix",
    "FactorPair",
    "HeldOutSet",
    "MaskPair",
    "ResultRow",
    "ResultsTable",
    "SparseBinaryMatrix",
    "SplitSpec",
    "SynthConfig",
    "TTestResult",
    "TrainConfig",
    "TrainTrace",
    "TransitionModel",
    "bin_records",
    "build_attenuation",
    "build_consistency_vectors",
    "build_indicator",
    "build_masks",
    "cumulative_counts",
    "fit_ar",
    "fit_markov",
    "generate_corpus",
    "generate_synthetic",
    "grad_u",
    "grad_v",
    "load_matrix_csv",
    "low_rank_product",
    "objective",
    "parse_records",
    "predict",
    "predict_ar",
    "predict_markov",
    "random_predict",
    "regularized_incomplete_beta",
    "rmse",
    "run_sweep",
    "save_cumulative_csv",
    "save_matrix_csv",
    "split_mask",
    "student_t_upper_tail",
    "train",
    "welch_ttest_one_sided",
    "write_records",
]
