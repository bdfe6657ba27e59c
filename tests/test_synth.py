import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docmix.em as em
from docmix.em import EmConfig, run_em, water_fill_project
from docmix.errors import OracleInfeasibleError
from docmix.mixture import MixtureModel, log_likelihood
from docmix.synth import (
    EvalReport,
    PlantedMixture,
    _best_matching,
    brute_force_loglik,
    evaluate_run,
    generate_corpus,
    planted_mixture,
)

from conftest import doc_rows, random_corpus, random_model


class TestPlantedMixture:
    def test_rows_are_densities(self):
        mix = planted_mixture(4, 9, seed=1)
        assert mix.densities.shape == (4, 9)
        np.testing.assert_allclose(mix.densities.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(mix.weights, 0.25, atol=1e-15)

    def test_separation_respected(self):
        mix = planted_mixture(3, 20, seed=2, min_pairwise_kl=0.7)
        assert mix.separation >= 0.7

    def test_separation_single_component_infinite(self):
        mix = planted_mixture(1, 5, seed=3)
        assert mix.separation == float("inf")

    def test_custom_weights(self):
        mix = planted_mixture(2, 6, seed=4, weights=[0.9, 0.1])
        np.testing.assert_allclose(mix.weights, [0.9, 0.1])

    def test_deterministic(self):
        a = planted_mixture(3, 8, seed=11)
        b = planted_mixture(3, 8, seed=11)
        assert np.array_equal(a.densities, b.densities)

    def test_unreachable_separation(self):
        with pytest.raises(ValueError):
            planted_mixture(2, 3, seed=5, min_pairwise_kl=1e6, max_tries=5)

    def test_non_simplex_weights_rejected(self):
        with pytest.raises(ValueError):
            PlantedMixture(weights=np.array([0.7, 0.7]),
                           densities=np.full((2, 4), 0.25))


def per_document_draw(mix, num_docs, length_range, rng):
    """Reference draw: one multinomial call per document, CSR built by hand."""
    labels = rng.choice(mix.num_components, size=num_docs, p=mix.weights)
    lengths = rng.integers(length_range[0], length_range[1] + 1, size=num_docs)
    indices, counts = [], []
    for l in range(num_docs):
        draw = rng.multinomial(lengths[l], mix.densities[labels[l]])
        indices.append(np.flatnonzero(draw))
        counts.append(draw[indices[-1]])
    indptr = np.cumsum([0] + [words.size for words in indices])
    return labels, indptr, np.concatenate(indices), np.concatenate(counts)


class TestGenerateCorpus:
    @pytest.mark.parametrize("num_comps,num_words,concentration,num_docs,length_range", [
        (1, 7, 1.0, 30, (2, 40)),
        (4, 12, 1.0, 1, (5, 60)),
        (3, 20, 1.0, 25, (9, 9)),
        (6, 50, 0.1, 80, (1, 300)),
    ])
    def test_matches_per_document_draw(self, num_comps, num_words, concentration,
                                       num_docs, length_range):
        mix = planted_mixture(num_comps, num_words, seed=num_docs,
                              concentration=concentration)
        rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
        planted = generate_corpus(mix, num_docs, length_range, seed=rng)
        labels, indptr, indices, counts = per_document_draw(
            mix, num_docs, length_range, reference_rng)
        matrix = planted.corpus.counts
        assert np.array_equal(planted.labels_true, labels)
        assert np.array_equal(matrix.indptr, indptr)
        assert np.array_equal(matrix.indices, indices)
        assert matrix.data.dtype == np.float64
        assert np.array_equal(matrix.data, counts)
        assert rng.random() == reference_rng.random()

    def test_shapes_and_lengths(self):
        mix = planted_mixture(3, 10, seed=6)
        planted = generate_corpus(mix, 25, (5, 9), seed=7)
        assert planted.corpus.num_docs == 25
        assert all(5 <= n <= 9 for n in planted.corpus.doc_lengths)
        assert planted.labels_true.shape == (25,)

    def test_deterministic(self):
        mix = planted_mixture(2, 6, seed=8)
        a = generate_corpus(mix, 10, (4, 12), seed=9)
        b = generate_corpus(mix, 10, (4, 12), seed=9)
        assert doc_rows(a.corpus) == doc_rows(b.corpus)
        assert np.array_equal(a.labels_true, b.labels_true)

    def test_degenerate_length_range(self):
        mix = planted_mixture(2, 6, seed=8)
        planted = generate_corpus(mix, 5, (7, 7), seed=10)
        assert planted.corpus.doc_lengths == [7] * 5

    def test_bad_length_range(self):
        mix = planted_mixture(2, 6, seed=8)
        with pytest.raises(ValueError):
            generate_corpus(mix, 5, (9, 7), seed=10)


class TestBruteForce:
    def test_single_component_closed_form(self):
        corpus = random_corpus(4, 5, 12, seed=13)
        f = water_fill_project(np.array([0.4, 0.25, 0.2, 0.1, 0.05]), 1e-3)
        model = MixtureModel(pi=np.array([1.0]),
                             log_f=np.log(f)[None, :], epsilon=1e-3)
        want = sum(c * math.log(f[b])
                   for doc in doc_rows(corpus) for b, c in doc.items())
        got = brute_force_loglik(corpus, model)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_matches_fast_path(self):
        for trial in range(10):
            k = 2 + trial % 3
            b = 2 * k + trial % 3
            corpus = random_corpus(5, b, 15, seed=300 + trial)
            model = random_model(k, b, 400, seed=400 + trial)
            fast = log_likelihood(corpus, model)
            slow = brute_force_loglik(corpus, model)
            assert abs(fast - slow) <= 1e-10 * abs(slow)

    def test_infeasible_range_rejected(self):
        # tau * max document length beyond the guard must refuse rather
        # than silently lose precision
        corpus = random_corpus(2, 4, 30, seed=14)
        model = random_model(2, 4, 10**12, seed=15)
        assert max(corpus.doc_lengths) * model.tau > 600
        with pytest.raises(OracleInfeasibleError):
            brute_force_loglik(corpus, model)


class TestMatching:
    def test_identity(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert _best_matching(labels, labels, 3, 3) == 6

    def test_permuted_labels_fully_match(self):
        rng = np.random.default_rng(16)
        true = rng.integers(0, 4, size=40)
        perm = np.array([2, 3, 1, 0])
        fitted = perm[true]
        assert _best_matching(true, fitted, 4, 4) == 40

    def test_unequal_component_counts(self):
        true = np.array([0, 0, 0, 1, 1, 1])
        fitted = np.array([0, 0, 1, 2, 2, 2])
        # one true label splits over two fitted ones, and only one can match it
        assert _best_matching(true, fitted, 2, 3) == 5

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_agrees_with_assignment_solver(self, seed):
        rng = np.random.default_rng(seed)
        k_true = int(rng.integers(2, 5))
        k_fit = int(rng.integers(2, 5))
        true = rng.integers(0, k_true, size=30)
        fitted = rng.integers(0, k_fit, size=30)
        matched = _best_matching(true, fitted, k_true, k_fit)
        table = np.zeros((k_true, k_fit), dtype=np.int64)
        for t, f in zip(true, fitted):
            table[t, f] += 1
        # reference: every injection of the smaller label set into the larger
        tall = table if k_fit <= k_true else table.T
        exhaustive = max(sum(tall[perm[j], j] for j in range(tall.shape[1]))
                         for perm in itertools.permutations(range(tall.shape[0]),
                                                            tall.shape[1]))
        assert matched == exhaustive


class TestEvaluateRun:
    def test_true_model_has_zero_risk(self, monkeypatch):
        mix = planted_mixture(3, 15, seed=17, min_pairwise_kl=1.0)
        planted = generate_corpus(mix, 50, (40, 80), seed=18)
        eps = 1.0 / planted.corpus.total_tokens
        log_f = np.log(np.stack([
            water_fill_project(row, eps) for row in mix.densities
        ]))
        truth = MixtureModel(pi=mix.weights, log_f=log_f, epsilon=eps)
        monkeypatch.setattr(em, "_MAX_ITERS", 1)
        monkeypatch.setattr(em, "_REL_TOL", 1e30)
        fit = run_em(planted.corpus, truth, EmConfig())
        report = evaluate_run(planted, fit)
        assert isinstance(report, EvalReport)
        # the floor projection moves the planted rows by at most the floor
        # mass, so risk stays near zero and labels nearly all recover
        assert report.risk < 0.05
        assert report.agreement >= 0.9

    def test_vocabulary_mismatch_rejected(self, monkeypatch):
        mix = planted_mixture(2, 6, seed=19)
        planted = generate_corpus(mix, 8, (10, 20), seed=20)
        model = random_model(2, 7, 100, seed=21)
        monkeypatch.setattr(em, "_MAX_ITERS", 1)
        monkeypatch.setattr(em, "_REL_TOL", 1e30)
        fit = run_em(random_corpus(4, 7, 10, seed=22), model, EmConfig())
        with pytest.raises(ValueError):
            evaluate_run(planted, fit)
