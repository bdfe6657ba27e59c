"""Floor-constrained multinomial mixtures.

A model is (pi, f) with K weights on the simplex and K categorical
densities over B words, every density entry at least epsilon (default
1/n for a corpus with n tokens, so tau = -log epsilon = log n). All
density math runs in log space: a document of counts c scores
a_k = log pi_k + sum_b c_b log f_k(b) under component k and its log
density is the log-sum-exp over k.

Bit-reproducibility contract: the score matrix is one sparse product of
the count matrix with the K log-density rows, in which column k reads
only component k and accumulates each document's terms in the same order
for every column, and the log-sum-exp sums exponentials in sorted order,
so permuting components leaves log_likelihood bit-identical. Every
consumer, the E-step included, scores the corpus in one such pass; one
document is the one-row slice ``corpus.csr()[l:l+1]``. The same holds
for a stack of several models' components, which the EM loop scores in
one pass: each model's columns come out as if it were scored alone.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import Corpus, atomic_write_text
from .errors import FormatError

MODEL_FORMAT = "docmix.model"
MODEL_VERSION = 1

WEIGHT_SUM_TOL = 1e-12
DENSITY_SUM_TOL = 1e-10
FLOOR_SLACK = 1e-15


class IdentifiabilityWarning(UserWarning):
    """Raised when B < 2K - 1, where mixture parameters need not be unique."""


def default_floor(total_tokens: int) -> float:
    """Default probability floor for a corpus with n tokens: 1/n."""
    if total_tokens < 1:
        raise ValueError("corpus must contain at least one token")
    return 1.0 / total_tokens


def log_weights(pi: np.ndarray) -> np.ndarray:
    """log pi with log(0) = -inf and no warning; zero-weight comps drop out."""
    with np.errstate(divide="ignore"):
        return np.log(pi)


def _validate_block(pi: np.ndarray, log_f: np.ndarray, epsilon: float) -> None:
    """Check S models of K components at once: weights ``pi`` (S, K), log
    densities ``log_f`` (S*K, B), model s owning rows s*K .. s*K + K - 1.

    Each model's weights are nonnegative with one positive and sum to 1;
    every log density is finite and at most 0, every density at least the
    floor and every density row sums to 1. Log densities are range-checked
    before they are exponentiated, so no input can overflow.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"floor must be in (0, 1), got {epsilon}")
    if np.any(pi < 0):
        raise ValueError("mixture weights must be nonnegative")
    if not np.all(np.any(pi > 0, axis=1)):
        raise ValueError("at least one mixture weight must be positive")
    sums = pi.sum(axis=1)
    off = np.abs(sums - 1.0) > WEIGHT_SUM_TOL
    if np.any(off):
        raise ValueError(f"mixture weights sum to {sums[off][0]!r}, not 1")
    if not np.all(np.isfinite(log_f)):
        raise ValueError("log densities must be finite")
    if np.any(log_f > 0):
        raise ValueError(f"log density {log_f.max()!r} above 0: a density entry exceeds 1")
    f = np.exp(log_f)
    if f.min() < epsilon - FLOOR_SLACK:
        raise ValueError(
            f"density entry {f.min()!r} below floor {epsilon!r}"
        )
    row_err = np.abs(f.sum(axis=1) - 1.0).max()
    if row_err > DENSITY_SUM_TOL:
        raise ValueError(f"density rows sum to 1 within {row_err!r} only")


@dataclass(frozen=True)
class MixtureModel:
    pi: np.ndarray
    log_f: np.ndarray
    epsilon: float

    def __post_init__(self):
        pi = np.ascontiguousarray(np.asarray(self.pi, dtype=np.float64))
        log_f = np.ascontiguousarray(np.asarray(self.log_f, dtype=np.float64))
        if pi.ndim != 1 or log_f.ndim != 2 or log_f.shape[0] != pi.shape[0]:
            raise ValueError(
                f"shape mismatch: pi {pi.shape}, log_f {log_f.shape}"
            )
        pi.flags.writeable = False
        log_f.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "log_f", log_f)
        self.validate()
        if self.num_words < 2 * self.num_components - 1:
            warnings.warn(
                f"B={self.num_words} < 2K-1={2 * self.num_components - 1}: "
                "mixture parameters may not be identifiable",
                IdentifiabilityWarning,
                stacklevel=2,
            )

    @property
    def num_components(self) -> int:
        return self.pi.shape[0]

    @property
    def num_words(self) -> int:
        return self.log_f.shape[1]

    @property
    def tau(self) -> float:
        return -math.log(self.epsilon)

    @property
    def densities(self) -> np.ndarray:
        return np.exp(self.log_f)

    def validate(self) -> None:
        _validate_block(self.pi[None], self.log_f, self.epsilon)

    def permuted(self, order) -> "MixtureModel":
        """New model whose component j is this model's component order[j]."""
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(self.num_components)):
            raise ValueError(f"not a permutation of 0..{self.num_components - 1}: {order}")
        return MixtureModel(pi=self.pi[order].copy(), log_f=self.log_f[order].copy(),
                            epsilon=self.epsilon)


@dataclass(frozen=True)
class Assignment:
    labels: np.ndarray


def score_matrix(counts: sparse.csr_matrix, model: MixtureModel) -> np.ndarray:
    """L x K matrix of a_k scores; column k never reads component j != k."""
    return _scores(counts, model.pi, model.log_f)


def _scores(counts: sparse.csr_matrix, pi: np.ndarray, log_f: np.ndarray) -> np.ndarray:
    """Scores of any stack of components, weights ``pi`` and log densities
    ``log_f`` row for row; column j of the product reads only row j."""
    if counts.shape[1] != log_f.shape[1]:
        raise ValueError(
            f"corpus has {counts.shape[1]} words but model has {log_f.shape[1]}"
        )
    scores = counts @ log_f.T
    scores += log_weights(pi)
    return scores


def _log_sum_exp(scores: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis; -inf where that axis has no finite maximum.

    Summing exp in ascending order keeps the reduction identical under
    any permutation of the components, and the same for every leading
    shape, so an (L, S, K) stack of S models gives each model's (L, K)
    result bit for bit.
    """
    top = scores.max(axis=-1)
    finite = np.isfinite(top)
    out = np.full(top.shape, -np.inf)
    if np.any(finite):
        shifted = scores[finite]
        shifted -= top[finite, None]
        np.exp(shifted, out=shifted)
        shifted.sort(axis=-1)
        out[finite] = top[finite] + np.log(shifted.sum(axis=-1))
    return out


def per_doc_log_density(corpus: Corpus, model: MixtureModel) -> np.ndarray:
    return _log_sum_exp(score_matrix(corpus.csr(), model))


def log_likelihood(corpus: Corpus, model: MixtureModel) -> float:
    """Total log-likelihood of the corpus; the negated empirical contrast."""
    return float(np.add.reduce(per_doc_log_density(corpus, model)))


def map_assign(corpus: Corpus, model: MixtureModel) -> Assignment:
    """Most probable component per document, ties to the lowest index."""
    scores = score_matrix(corpus.csr(), model)
    return Assignment(labels=np.argmax(scores, axis=1))


def kl_categorical(s, t) -> float:
    """KL divergence between categorical densities; inf when t lacks s's support."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 1:
        raise ValueError(f"shape mismatch: {s.shape} vs {t.shape}")
    for name, v in (("s", s), ("t", t)):
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-8:
            raise ValueError(f"{name} is not a probability vector (sum {v.sum()!r})")
    support = s > 0
    if np.any(t[support] == 0):
        return float("inf")
    return float(np.add.reduce(s[support] * np.log(s[support] / t[support])))


def weighted_kl_risk(true_densities, model: MixtureModel, assignment: Assignment,
                     doc_lengths, total_tokens: int) -> float:
    """Length-weighted KL risk of assigned component densities vs the truth."""
    true_densities = np.asarray(true_densities, dtype=np.float64)
    lengths = np.asarray(doc_lengths, dtype=np.float64)
    labels = assignment.labels
    if not (len(true_densities) == len(lengths) == len(labels)):
        raise ValueError("true_densities, doc_lengths and labels must align")
    fitted = model.densities
    risk = 0.0
    for l in range(len(labels)):
        term = kl_categorical(true_densities[l], fitted[labels[l]])
        if math.isinf(term):
            return float("inf")
        risk += lengths[l] / total_tokens * term
    return risk


def dumps_model(model: MixtureModel) -> str:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "K": model.num_components,
        "B": model.num_words,
        "epsilon_n": model.epsilon,
        "pi": model.pi.tolist(),
        "log_f": model.log_f.tolist(),
    }
    return json.dumps(payload, separators=(",", ":"))


def loads_model(text: str) -> MixtureModel:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"model payload is not valid JSON (truncated?): {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise FormatError("payload is not a docmix model container")
    if payload.get("version") != MODEL_VERSION:
        raise FormatError(
            f"unsupported model version {payload.get('version')!r}, expected {MODEL_VERSION}"
        )
    try:
        model = MixtureModel(
            pi=np.asarray(payload["pi"], dtype=np.float64),
            log_f=np.asarray(payload["log_f"], dtype=np.float64),
            epsilon=float(payload["epsilon_n"]),
        )
        if model.num_components != payload["K"] or model.num_words != payload["B"]:
            raise FormatError("declared K/B do not match the stored arrays")
        return model
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"model payload is structurally invalid: {exc}") from exc


def save_model(model: MixtureModel, path: str | os.PathLike) -> None:
    atomic_write_text(path, dumps_model(model))


def load_model(path: str | os.PathLike) -> MixtureModel:
    with open(path, encoding="utf-8") as handle:
        return loads_model(handle.read())
