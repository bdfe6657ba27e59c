"""Mixture clustering of variable-length count vectors with penalized
selection of the number of components."""

import os

# Before the first numpy import: numpy's OpenBLAS otherwise starts one
# thread per spare core, each of which busy-waits ~0.1 s of CPU after
# start-up. docmix never needs them: its products are scipy's sparse
# kernels, and its one BLAS call is selection._ols_slope's np.dot of two
# ladder-length vectors. One thread also keeps every reduction
# independent of the core count. A caller's own setting wins, and an
# interpreter that imported numpy before docmix keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .corpus import (
    Corpus,
    Vocabulary,
    dump_bag_of_words,
    load_corpus,
    load_year_sidecar,
    loads_corpus,
    parse_bag_of_words,
    prune_vocabulary,
    save_corpus,
)
from .em import (
    EmConfig,
    FitResult,
    e_step,
    m_step,
    random_init,
    robust_em,
    run_em,
    water_fill_project,
)
from .errors import (
    ConfigError,
    DegenerateFitError,
    DegenerateRegressionError,
    DocmixError,
    EmptyVocabularyError,
    FormatError,
    InfeasibleFloorError,
    InsufficientDataError,
    NumericalError,
    OracleInfeasibleError,
    ParseError,
)
from .mixture import (
    IdentifiabilityWarning,
    MixtureModel,
    default_floor,
    kl_categorical,
    load_model,
    log_likelihood,
    map_assign,
    per_doc_log_density,
    save_model,
    weighted_kl_risk,
)
from .selection import (
    SelectionReport,
    SlopeDiagnostics,
    SweepEntry,
    SweepResult,
    load_sweep,
    penalty_rate,
    run_sweep,
    save_sweep,
    select_from_sweep,
    select_model,
    slope_heuristics,
    sweep_from_csv,
    sweep_to_csv,
    theoretical_penalty,
    varying_vocab_penalty,
)
from .synth import (
    EvalReport,
    PlantedCorpus,
    PlantedMixture,
    brute_force_loglik,
    evaluate_run,
    generate_corpus,
    planted_mixture,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Corpus",
    "DegenerateFitError",
    "DegenerateRegressionError",
    "DocmixError",
    "EmConfig",
    "EmptyVocabularyError",
    "EvalReport",
    "FitResult",
    "FormatError",
    "IdentifiabilityWarning",
    "InfeasibleFloorError",
    "InsufficientDataError",
    "MixtureModel",
    "NumericalError",
    "OracleInfeasibleError",
    "ParseError",
    "PlantedCorpus",
    "PlantedMixture",
    "SelectionReport",
    "SlopeDiagnostics",
    "SweepEntry",
    "SweepResult",
    "Vocabulary",
    "brute_force_loglik",
    "default_floor",
    "dump_bag_of_words",
    "e_step",
    "evaluate_run",
    "generate_corpus",
    "kl_categorical",
    "load_corpus",
    "load_model",
    "load_sweep",
    "load_year_sidecar",
    "loads_corpus",
    "log_likelihood",
    "m_step",
    "map_assign",
    "parse_bag_of_words",
    "penalty_rate",
    "per_doc_log_density",
    "planted_mixture",
    "prune_vocabulary",
    "random_init",
    "robust_em",
    "run_em",
    "run_sweep",
    "save_corpus",
    "save_model",
    "save_sweep",
    "select_from_sweep",
    "select_model",
    "slope_heuristics",
    "sweep_from_csv",
    "sweep_to_csv",
    "theoretical_penalty",
    "varying_vocab_penalty",
    "water_fill_project",
]
