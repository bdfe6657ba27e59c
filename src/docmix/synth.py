"""Planted mixtures, corpus generation, and independent evaluation oracles.

Everything here exists to check the estimator from the outside: corpora
drawn from known parameters, a literal per-token likelihood evaluated in
50-digit arithmetic that never touches the log-sum-exp code path, and a
risk/agreement report against the planted truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment

from .corpus import Corpus, Vocabulary
from .em import FitResult
from .errors import OracleInfeasibleError
from .mixture import MixtureModel, kl_categorical, map_assign, weighted_kl_risk

ORACLE_DPS = 50
# exp(-600) is comfortably inside mpmath's range at 50 digits; longer
# documents would make the literal product meaningless to compare.
ORACLE_MAX_LOG_RANGE = 600.0


@dataclass(frozen=True)
class PlantedMixture:
    weights: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        densities = np.asarray(self.densities, dtype=np.float64)
        if weights.ndim != 1 or densities.ndim != 2 or densities.shape[0] != weights.size:
            raise ValueError("weights and density rows must align")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must lie on the simplex")
        if np.any(densities < 0) or np.abs(densities.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("density rows must lie on the simplex")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "densities", densities)

    @property
    def num_components(self) -> int:
        return self.weights.size

    @property
    def num_words(self) -> int:
        return self.densities.shape[1]

    @property
    def separation(self) -> float:
        """Smallest KL divergence over ordered pairs of distinct rows."""
        if self.num_components < 2:
            return math.inf
        return min(
            kl_categorical(self.densities[i], self.densities[j])
            for i in range(self.num_components)
            for j in range(self.num_components)
            if i != j
        )


@dataclass(frozen=True)
class PlantedCorpus:
    corpus: Corpus
    labels_true: np.ndarray
    true_densities: np.ndarray
    mixture: PlantedMixture


def planted_mixture(num_comps: int, num_words: int, seed,
                    min_pairwise_kl: float = 0.0,
                    weights=None, concentration: float = 1.0,
                    max_tries: int = 1000) -> PlantedMixture:
    """Dirichlet-sampled component densities, redrawn until separated.

    Weights default to uniform. Separation is the smallest ordered-pair
    KL divergence between rows; rejection keeps redrawing all rows until
    it reaches min_pairwise_kl.
    """
    if num_comps < 1:
        raise ValueError("need at least one component")
    if weights is None:
        weights = np.full(num_comps, 1.0 / num_comps)
    rng = np.random.default_rng(seed)
    alpha = np.full(num_words, concentration)
    for _ in range(max_tries):
        densities = rng.dirichlet(alpha, size=num_comps)
        mix = PlantedMixture(weights=np.asarray(weights, dtype=np.float64),
                             densities=densities)
        if num_comps < 2 or mix.separation >= min_pairwise_kl:
            return mix
    raise ValueError(
        f"no draw reached pairwise KL {min_pairwise_kl} in {max_tries} tries"
    )


def generate_corpus(mix: PlantedMixture, num_docs: int,
                    length_range: tuple[int, int], seed) -> PlantedCorpus:
    """Sample documents: component from the weights, length uniform in the
    inclusive range, then that many i.i.d. word draws from the component."""
    low, high = length_range
    if num_docs < 1:
        raise ValueError("need at least one document")
    if low < 1 or high < low:
        raise ValueError(f"bad length range {length_range}")
    rng = np.random.default_rng(seed)
    labels = rng.choice(mix.num_components, size=num_docs, p=mix.weights)
    lengths = rng.integers(low, high + 1, size=num_docs)
    indices, counts = [], []
    for l in range(num_docs):
        draw = rng.multinomial(lengths[l], mix.densities[labels[l]])
        words = np.flatnonzero(draw)
        indices.append(words)
        counts.append(draw[words])
    indptr = np.cumsum([0] + [words.size for words in indices])
    matrix = sparse.csr_matrix(
        (np.concatenate(counts).astype(np.float64), np.concatenate(indices), indptr),
        shape=(num_docs, mix.num_words),
    )
    vocab = Vocabulary(tuple(f"w{b:04d}" for b in range(mix.num_words)))
    corpus = Corpus(vocab=vocab, counts=matrix, doc_ids=list(range(1, num_docs + 1)))
    return PlantedCorpus(
        corpus=corpus,
        labels_true=labels,
        true_densities=mix.densities[labels],
        mixture=mix,
    )


def brute_force_loglik(corpus: Corpus, model: MixtureModel) -> float:
    """Literal mixture likelihood: per-token products at 50 digits.

    Multiplies the token probabilities one factor at a time per
    component, with no log-sum-exp and no shared code with the fast
    path. Infeasible when any document is long enough that the product
    could leave the supported range.
    """
    tau = model.tau
    if max(corpus.doc_lengths) * tau > ORACLE_MAX_LOG_RANGE:
        raise OracleInfeasibleError(
            f"document of {max(corpus.doc_lengths)} tokens at floor exponent "
            f"{tau:.2f} exceeds the oracle's range"
        )
    matrix = corpus.csr()
    bounds = matrix.indptr.tolist()
    words, counts = matrix.indices.tolist(), matrix.data.astype(np.int64).tolist()
    with mpmath.workdps(ORACLE_DPS):
        weights = [mpmath.mpf(p) for p in model.pi.tolist()]
        densities = [
            [mpmath.exp(mpmath.mpf(v)) for v in row]
            for row in model.log_f.tolist()
        ]
        total = mpmath.mpf(0)
        for start, end in zip(bounds, bounds[1:]):
            doc_density = mpmath.mpf(0)
            for k in range(model.num_components):
                product = weights[k]
                for b, count in zip(words[start:end], counts[start:end]):
                    for _ in range(count):
                        product *= densities[k][b]
                doc_density += product
            total += mpmath.log(doc_density)
        return float(total)


@dataclass(frozen=True)
class EvalReport:
    risk: float
    agreement: float
    matching: tuple[tuple[int, int], ...]


def _best_matching(true_labels: np.ndarray, fit_labels: np.ndarray,
                   k_true: int, k_fit: int) -> tuple[int, list[tuple[int, int]]]:
    table = np.zeros((k_true, k_fit), dtype=np.int64)
    for t, f in zip(true_labels, fit_labels):
        table[t, f] += 1
    rows, cols = linear_sum_assignment(table, maximize=True)
    return int(table[rows, cols].sum()), list(zip(rows.tolist(), cols.tolist()))


def evaluate_run(planted: PlantedCorpus, fit: FitResult) -> EvalReport:
    """Risk and best-permutation label agreement of a fit against the truth.

    Component counts may differ; the matching is the best injective map
    between the two label sets and documents outside it count as errors.
    """
    corpus = planted.corpus
    if fit.model.num_words != corpus.num_words:
        raise ValueError("fitted model and planted corpus disagree on B")
    assignment = map_assign(corpus, fit.model)
    risk = weighted_kl_risk(planted.true_densities, fit.model, assignment,
                            corpus.doc_lengths, corpus.total_tokens)
    matched, matching = _best_matching(
        planted.labels_true, assignment.labels,
        planted.mixture.num_components, fit.model.num_components,
    )
    return EvalReport(
        risk=risk,
        agreement=matched / corpus.num_docs,
        matching=tuple(matching),
    )
