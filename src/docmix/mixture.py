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

With long documents most components' scores sit hundreds of nats below
the best, so most exponentials of the log-sum-exp underflow to +0.0;
_exp_in_place computes them off numpy's slow path, bit for bit.

The sorted exponentials are summed in numpy's pairwise order, that of
np.add.reduce over a contiguous last axis. A row of one or two terms is
summed unsorted: its sum is the same in either order. At small K a per-row
reduction costs far more per row than its arithmetic, so there the
log-sum-exp takes the row maxima and this sum as column passes, one
numpy call per component, and _sum_last_axis rebuilds the pairwise
order from them. test_sum_is_numpys_pairwise_order in
tests/test_mixture.py is the guard that fails first if numpy changes it.

A fit is evaluated from labels: map_assign returns the label array, and
weighted_kl_risk takes the planted rows and both label vectors.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, atomic_write_text, dumps_document, loads_document
from .errors import FormatError

WEIGHT_SUM_TOL = 1e-12
DENSITY_SUM_TOL = 1e-10
FLOOR_SLACK = 1e-15

# np.exp is +0.0 below about -745.1332, so below this cutoff its result
# is known without calling it.
_EXP_ZERO_BELOW = -746.0
# Share of such inputs from which skipping them beats one plain np.exp.
_EXP_SKIP_SHARE = 1 / 8
# Below this many components the log-sum-exp takes its max and sum over
# the last axis as one numpy call per component, a column pass over all
# rows: a per-row reduction pays some 20-50 ns per row, which dominates
# at small K, and from here on is the cheaper of the two again (numpy
# 2.4 on an x86-64 Xeon; scripts/kernel_probe.py measures both).
_COLUMN_PASSES_BELOW = 16


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
    if (pi < 0).any():
        raise ValueError("mixture weights must be nonnegative")
    if not (pi > 0).any(axis=1).all():
        raise ValueError("at least one mixture weight must be positive")
    sums = pi.sum(axis=1)
    off = np.abs(sums - 1.0) > WEIGHT_SUM_TOL
    if off.any():
        raise ValueError(f"mixture weights sum to {sums[off][0]!r}, not 1")
    if not np.isfinite(log_f).all():
        raise ValueError("log densities must be finite")
    if (log_f > 0).any():
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
                stacklevel=3,
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


def score_matrix(counts, model: MixtureModel) -> np.ndarray:
    """L x K a_k scores of ``counts = corpus.csr()``; column k never reads component j != k."""
    return _scores(counts, model.pi, model.log_f)


def _scores(counts, pi: np.ndarray, log_f: np.ndarray) -> np.ndarray:
    """Scores of any stack of components, weights ``pi`` and log densities
    ``log_f`` row for row; column j of the product reads only row j."""
    if counts.shape[1] != log_f.shape[1]:
        raise ValueError(
            f"corpus has {counts.shape[1]} words but model has {log_f.shape[1]}"
        )
    scores = counts @ log_f.T
    scores += log_weights(pi)
    return scores


def _exp_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite ``a`` (any strides) with np.exp(a), bit for bit, and return it.

    np.exp returns +0.0 for every input below about -745.1332, but takes
    a slow path to get there: some 16x the cost of a normal output (numpy
    2.4 on an x86-64 Xeon). When
    enough of ``a`` lies below _EXP_ZERO_BELOW, those entries are set to
    +0.0 without calling exp on them, which is exactly what exp would
    have returned. Otherwise the mask costs more than it saves, so ``a``
    goes to np.exp whole.
    """
    low = a < _EXP_ZERO_BELOW
    if np.count_nonzero(low) < a.size * _EXP_SKIP_SHARE:
        return np.exp(a, out=a)
    np.putmask(a, low, 0.0)  # exp(0.0) is on the fast path
    np.exp(a, out=a)
    np.putmask(a, low, 0.0)
    return a


def _sum_last_axis(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=-1) bit for bit, for a C-contiguous ``a``.

    Below _COLUMN_PASSES_BELOW, numpy's pairwise order is rebuilt from
    column passes: for fewer than 8 columns it adds them in order; for
    8 to 15 it adds ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), then the rest
    in order.
    """
    k = a.shape[-1]
    if k >= _COLUMN_PASSES_BELOW:
        return np.add.reduce(a, axis=-1)
    if k < 8:
        total, start = a[..., 0].copy(), 1
    else:
        c = [a[..., j] for j in range(8)]
        total, start = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])), 8
    for j in range(start, k):
        total += a[..., j]
    return total


def _log_sum_exp(scores: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis; -inf where that axis has no finite maximum.

    Summing exp in ascending order keeps the reduction identical under
    any permutation of the components, and the same for every leading
    shape, so an (L, S, K) stack of S models gives each model's (L, K)
    result bit for bit. A row without a finite maximum is shifted by
    NaN, which passes quietly through exp, sort, sum and log, and comes
    out -inf.
    """
    k = scores.shape[-1]
    if k < _COLUMN_PASSES_BELOW:
        top = scores[..., 0].copy()
        for j in range(1, k):
            np.maximum(top, scores[..., j], out=top)
    else:
        top = scores.max(axis=-1)
    finite = np.isfinite(top)
    # C order: numpy sums a row pairwise only along a contiguous last axis
    shifted = np.subtract(scores, np.where(finite, top, np.nan)[..., None], order="C")
    _exp_in_place(shifted)
    if k > 2:  # a sum of one or two terms is the same in any order: a + b == b + a
        shifted.sort(axis=-1)
    return np.where(finite, top + np.log(_sum_last_axis(shifted)), -np.inf)


def per_doc_log_density(corpus: Corpus, model: MixtureModel) -> np.ndarray:
    return _log_sum_exp(score_matrix(corpus.csr(), model))


def log_likelihood(corpus: Corpus, model: MixtureModel) -> float:
    """Total log-likelihood of the corpus; the negated empirical contrast."""
    return float(np.add.reduce(per_doc_log_density(corpus, model)))


def map_assign(corpus: Corpus, model: MixtureModel) -> np.ndarray:
    """Label array: the most probable component per document, ties to the lowest index."""
    return np.argmax(score_matrix(corpus.csr(), model), axis=1)


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


def weighted_kl_risk(true_densities, true_labels, model: MixtureModel, fit_labels,
                     doc_lengths, total_tokens: int) -> float:
    """Sum over documents l of n_l / n * KL(true_densities[true_labels[l]] ||
    f[fit_labels[l]]): one KL per (true, fitted) label pair that occurs, the
    terms added in document order, bit for bit as a loop over documents."""
    true_labels, fit_labels = np.asarray(true_labels), np.asarray(fit_labels)
    lengths = np.asarray(doc_lengths, dtype=np.float64)
    k_fit = model.num_components
    if not (lengths.ndim == 1 and true_labels.shape == fit_labels.shape == lengths.shape):
        raise ValueError("true_labels, fit_labels and doc_lengths must align")
    if np.any(np.minimum(true_labels, fit_labels) < 0) or np.any(fit_labels >= k_fit):
        raise ValueError(f"labels must be nonnegative and fitted ones below K = {k_fit}")
    pairs, pair_of_doc = np.unique(true_labels * k_fit + fit_labels, return_inverse=True)
    fitted = model.densities
    kl = np.array([kl_categorical(true_densities[p // k_fit], fitted[p % k_fit])
                   for p in pairs.tolist()])
    if np.isinf(kl).any():
        return float("inf")
    terms = lengths / total_tokens * kl[pair_of_doc]
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])  # the loop's sum, from 0.0


def dumps_model(model: MixtureModel) -> str:
    return dumps_document("model", {
        "K": model.num_components,
        "B": model.num_words,
        "epsilon_n": model.epsilon,
        "pi": model.pi.tolist(),
        "log_f": model.log_f.tolist(),
    })


def _model_from_payload(payload: dict) -> MixtureModel:
    model = MixtureModel(
        pi=np.asarray(payload["pi"], dtype=np.float64),
        log_f=np.asarray(payload["log_f"], dtype=np.float64),
        epsilon=float(payload["epsilon_n"]),
    )
    if model.num_components != payload["K"] or model.num_words != payload["B"]:
        raise FormatError("declared K/B do not match the stored arrays")
    return model


def loads_model(text: str) -> MixtureModel:
    return loads_document(text, "model", _model_from_payload)


def save_model(model: MixtureModel, path: str | os.PathLike) -> None:
    atomic_write_text(path, dumps_model(model))


def load_model(path: str | os.PathLike) -> MixtureModel:
    with open(path, encoding="utf-8") as handle:
        return loads_model(handle.read())
