import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docmix.corpus import Corpus, Vocabulary
import docmix.em as em
from docmix.em import EmConfig, random_init, run_em
from docmix.errors import FormatError
import docmix.mixture as mixture
from docmix.mixture import (
    IdentifiabilityWarning,
    MixtureModel,
    default_floor,
    dumps_model,
    kl_categorical,
    load_model,
    loads_model,
    log_likelihood,
    log_weights,
    map_assign,
    per_doc_log_density,
    save_model,
    score_matrix,
    weighted_kl_risk,
)

from docmix.synth import generate_corpus, planted_mixture

from conftest import random_corpus, random_model


def two_component_model():
    pi = np.array([0.6, 0.4])
    f = np.array([[0.5, 0.3, 0.2], [0.05, 0.05, 0.9]])
    return MixtureModel(pi=pi, log_f=np.log(f), epsilon=0.05)


def three_word_corpus():
    vocab = Vocabulary(words=("a", "b", "c"))
    return Corpus.from_docs(vocab, [{0: 2, 1: 1}, {2: 3, 0: 1}], doc_ids=[1, 2])


class TestScoring:
    def test_frozen_value(self):
        # independently computed with 40-digit arithmetic:
        # log(0.6*0.5^2*0.3 + 0.4*0.05^2*0.05)
        #   + log(0.6*0.5*0.2^3 + 0.4*0.05*0.9^3)
        model = two_component_model()
        corpus = three_word_corpus()
        value = log_likelihood(corpus, model)
        assert abs(value - (-7.175701393026726)) < 1e-13

    def test_score_matrix_equals_independent_columns(self):
        # the one sparse product must equal K separate matvecs bit for bit:
        # that is what keeps scores invariant under component permutation
        rng = np.random.default_rng(3)
        for trial in range(24):
            k = int(rng.integers(1, 31))
            b = 2 * k - 1 + int(rng.integers(0, 20))
            model = random_model(k, b, 1000, seed=300 + trial)
            if trial % 3 == 0 and k > 1:
                pi = model.pi.copy()
                pi[rng.integers(0, k)] = 0.0
                model = MixtureModel(pi=pi / pi.sum(), log_f=model.log_f,
                                     epsilon=model.epsilon)
            counts = random_corpus(int(rng.integers(1, 80)), b, 300,
                                   seed=400 + trial).csr()
            log_pi = log_weights(model.pi)
            expected = np.empty((counts.shape[0], k))
            for j in range(k):
                expected[:, j] = counts.dot(model.log_f[j]) + log_pi[j]
            assert np.array_equal(score_matrix(counts, model), expected)
            if trial % 3 == 0 and k > 1:
                assert np.isneginf(expected).any()

    def test_log_likelihood_is_ordered_sum(self):
        model = random_model(3, 6, 100, seed=0)
        corpus = random_corpus(12, 6, 30, seed=1)
        dens = per_doc_log_density(corpus, model)
        assert log_likelihood(corpus, model) == np.add.reduce(dens)

    def test_zero_weight_component_is_skipped(self):
        pi = np.array([1.0, 0.0])
        f = np.array([[0.5, 0.3, 0.2], [0.05, 0.05, 0.9]])
        model = MixtureModel(pi=pi, log_f=np.log(f), epsilon=0.05)
        corpus = three_word_corpus()
        value = log_likelihood(corpus, model)
        expected = math.log(0.5**2 * 0.3) + math.log(0.5 * 0.2**3)
        assert abs(value - expected) < 1e-12
        assert np.isfinite(value)


class TestPermutation:
    def test_bit_identity_and_label_mapping(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            b = 2 * k - 1 + int(rng.integers(0, 3))
            model = random_model(k, b, 200, seed=100 + trial)
            corpus = random_corpus(15, b, 40, seed=200 + trial)
            order = rng.permutation(k)
            permuted = model.permuted(order)
            assert log_likelihood(corpus, permuted) == log_likelihood(corpus, model)
            base = map_assign(corpus, model)
            moved = map_assign(corpus, permuted)
            assert np.array_equal(np.asarray(order)[moved], base)

    def test_map_tie_takes_lowest_index(self):
        f = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
        model = MixtureModel(pi=np.array([0.5, 0.5]), log_f=np.log(f), epsilon=0.05)
        corpus = three_word_corpus()
        assert np.array_equal(map_assign(corpus, model), [0, 0])


class TestKl:
    def test_frozen_value(self):
        got = kl_categorical([0.5, 0.5], [0.25, 0.75])
        assert abs(got - 0.14384103622589045) < 1e-15

    def test_zero_on_equal(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_categorical(p, p) == 0.0

    def test_support_violation_is_inf(self):
        assert kl_categorical([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]) == float("inf")

    def test_zero_in_first_argument_is_fine(self):
        got = kl_categorical([1.0, 0.0], [0.5, 0.5])
        assert abs(got - math.log(2.0)) < 1e-15

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            kl_categorical([0.5, 0.6], [0.5, 0.5])

    def test_weighted_risk_weights_by_length(self):
        model = two_component_model()
        truth = np.array([[0.4, 0.4, 0.2], [0.1, 0.1, 0.8]])
        risk = weighted_kl_risk(truth, [0, 1], model, [0, 1], [3, 4], 7)
        expected = (3 / 7) * kl_categorical(truth[0], model.densities[0]) \
            + (4 / 7) * kl_categorical(truth[1], model.densities[1])
        assert abs(risk - expected) < 1e-14


def per_document_risk(true_densities, model, labels, doc_lengths, total_tokens):
    """The per-document loop weighted_kl_risk replaced, kept as its reference:
    one KL per document against that document's (L, B) truth row."""
    lengths = np.asarray(doc_lengths, dtype=np.float64)
    fitted = model.densities
    risk = 0.0
    for l in range(len(labels)):
        term = kl_categorical(true_densities[l], fitted[labels[l]])
        if math.isinf(term):
            return float("inf")
        risk += lengths[l] / total_tokens * term
    return risk


def planted_fit(monkeypatch, k_true, num_words, num_docs, k_fit, seed):
    """A planted corpus and a 15-step EM fit of k_fit components to it."""
    monkeypatch.setattr(em, "_MAX_ITERS", 15)
    mix = planted_mixture(k_true, num_words, seed=seed, concentration=0.5)
    planted = generate_corpus(mix, num_docs, (20, 120), seed=seed + 1)
    corpus = planted.corpus
    init = random_init(corpus, k_fit, seed + 2, default_floor(corpus.total_tokens))
    return planted, run_em(corpus, init, EmConfig()).model


class TestWeightedRisk:
    @pytest.mark.parametrize("k_true,num_words,num_docs,k_fit", [
        (3, 20, 200, 4), (4, 50, 300, 3), (3, 12, 150, 3), (1, 8, 40, 2),
    ])
    def test_equals_per_document_loop(self, monkeypatch, k_true, num_words, num_docs, k_fit):
        planted, model = planted_fit(monkeypatch, k_true, num_words, num_docs, k_fit,
                                     seed=10 * k_fit + k_true)
        corpus, truth = planted.corpus, planted.mixture.densities
        labels = map_assign(corpus, model)
        got = weighted_kl_risk(truth, planted.labels_true, model, labels,
                               corpus.doc_lengths, corpus.total_tokens)
        expected = per_document_risk(truth[planted.labels_true], model, labels,
                                     corpus.doc_lengths, corpus.total_tokens)
        assert type(got) is float and 0 < got < math.inf
        assert repr(got) == repr(float(expected))

    def test_fit_with_an_unused_component(self, monkeypatch):
        planted, model = planted_fit(monkeypatch, 3, 20, 200, 4, seed=7)
        pi = model.pi.copy()
        pi[2] = 0.0  # a zero-weight component is never the MAP label
        model = MixtureModel(pi=pi / pi.sum(), log_f=model.log_f, epsilon=model.epsilon)
        corpus, truth = planted.corpus, planted.mixture.densities
        labels = map_assign(corpus, model)
        assert 2 not in labels and len(set(labels.tolist())) == 3
        got = weighted_kl_risk(truth, planted.labels_true, model, labels,
                               corpus.doc_lengths, corpus.total_tokens)
        expected = per_document_risk(truth[planted.labels_true], model, labels,
                                     corpus.doc_lengths, corpus.total_tokens)
        assert repr(got) == repr(float(expected))

    @pytest.mark.parametrize("true_labels,fit_labels,lengths", [
        ([0, 1], [0, 1, 1], [3, 4, 5]),
        ([0, 1, 1], [0, 1], [3, 4, 5]),
        ([0, 1, 1], [0, 1, 1], [3, 4]),
        ([[0, 1, 1]], [[0, 1, 1]], [[3, 4, 5]]),
        ([0, 1, 1], [0, 1, 2], [3, 4, 5]),
        ([0, 1, 1], [0, -1, 1], [3, 4, 5]),
        ([0, -1, 1], [0, 1, 1], [3, 4, 5]),
    ], ids=["short-true", "short-fit", "short-lengths", "two-d", "fit-label-too-big",
            "negative-fit-label", "negative-true-label"])
    def test_misaligned_or_out_of_range_labels_raise(self, true_labels, fit_labels, lengths):
        truth = np.array([[0.4, 0.4, 0.2], [0.1, 0.1, 0.8]])
        with pytest.raises(ValueError):
            weighted_kl_risk(truth, true_labels, two_component_model(), fit_labels,
                             lengths, 12)


class TestModelValidation:
    def test_floor_violation(self):
        f = np.array([[0.5, 0.3, 0.2], [0.01, 0.09, 0.9]])
        with pytest.raises(ValueError):
            MixtureModel(pi=np.array([0.5, 0.5]), log_f=np.log(f), epsilon=0.05)

    def test_row_sum_violation(self):
        f = np.array([[0.5, 0.3, 0.3]])
        with pytest.raises(ValueError):
            MixtureModel(pi=np.array([1.0]), log_f=np.log(f), epsilon=0.05)

    def test_negative_weight(self):
        f = np.array([[0.5, 0.3, 0.2], [0.05, 0.05, 0.9]])
        with pytest.raises(ValueError):
            MixtureModel(pi=np.array([1.2, -0.2]), log_f=np.log(f), epsilon=0.05)

    def test_identifiability_warning(self):
        rng = np.random.default_rng(0)
        k, b = 4, 5  # 5 < 2*4-1
        f = rng.dirichlet(np.ones(b) * 50, size=k)
        with pytest.warns(IdentifiabilityWarning) as record:
            MixtureModel(pi=np.full(k, 0.25), log_f=np.log(f), epsilon=1e-4)
        # the warning names the caller's line, not the dataclass __init__
        [warning] = record
        assert warning.filename == __file__

    def test_arrays_read_only(self):
        model = two_component_model()
        with pytest.raises(ValueError):
            model.pi[0] = 0.9

    def test_default_floor(self):
        assert default_floor(10000) == 1e-4

    def test_log_weights_zero(self):
        lw = log_weights(np.array([1.0, 0.0]))
        assert lw[0] == 0.0
        assert lw[1] == -np.inf


class TestPersistence:
    def test_round_trip_bit_exact(self):
        model = random_model(3, 7, 500, seed=42)
        back = loads_model(dumps_model(model))
        assert np.array_equal(back.pi, model.pi)
        assert np.array_equal(back.log_f, model.log_f)
        assert back.epsilon == model.epsilon

    def test_epsilon_key_name(self):
        blob = json.loads(dumps_model(two_component_model()))
        assert "epsilon_n" in blob
        assert blob["K"] == 2
        assert blob["B"] == 3

    def test_save_load(self, tmp_path):
        model = two_component_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.log_f, model.log_f)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_bare_constant_is_not_json(self, constant):
        blob = json.loads(dumps_model(two_component_model()))
        blob["log_f"][0][0] = float(constant)
        with pytest.raises(FormatError, match=f"not valid JSON .*: bare {constant} "):
            loads_model(json.dumps(blob))

    def test_bad_format(self):
        blob = json.loads(dumps_model(two_component_model()))
        blob["format"] = "nope"
        with pytest.raises(FormatError):
            loads_model(json.dumps(blob))

    def test_shape_mismatch(self):
        blob = json.loads(dumps_model(two_component_model()))
        blob["K"] = 3
        with pytest.raises(FormatError):
            loads_model(json.dumps(blob))

    def test_density_above_one_rejected_before_exp(self):
        # exp(800) would overflow; the range check must come first
        blob = {"format": "docmix.model", "version": 1, "K": 1, "B": 2,
                "epsilon_n": 0.01, "pi": [1.0], "log_f": [[800.0, -800.0]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="exceeds 1"):
                loads_model(json.dumps(blob))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_models_score_finitely(seed):
    k = 2 + seed % 3
    b = 2 * k - 1 + seed % 3
    model = random_model(k, b, 300, seed=seed)
    corpus = random_corpus(6, b, 25, seed=seed + 1)
    dens = per_doc_log_density(corpus, model)
    assert np.all(np.isfinite(dens))
    labels = map_assign(corpus, model)
    assert labels.min() >= 0
    assert labels.max() < model.num_components


# the least input whose exp is nonzero (the least subnormal); below it exp is +0.0
EXP_UNDERFLOW = -745.1332191019411


def steps_from(x, towards, count):
    """``count`` consecutive doubles after ``x`` in the direction of ``towards``."""
    out = [x]
    for _ in range(count):
        out.append(np.nextafter(out[-1], towards))
    return out[1:]


class TestExpInPlace:
    """mixture._exp_in_place is np.exp byte for byte on both sides of its gate."""

    EDGES = np.array([
        -np.inf, np.nan, -746.0, *steps_from(-746.0, 0.0, 3), *steps_from(-746.0, -np.inf, 3),
        EXP_UNDERFLOW, *steps_from(EXP_UNDERFLOW, 0.0, 4),
        *steps_from(EXP_UNDERFLOW, -np.inf, 4),
        *np.linspace(-745.0, -708.5, 200),  # subnormal outputs
        -708.3, -1e308, -1.0, -0.0, 0.0,
    ])

    def check(self, values, skips):
        low_share = np.count_nonzero(values < mixture._EXP_ZERO_BELOW) / values.size
        assert (low_share >= mixture._EXP_SKIP_SHARE) == skips
        expected = np.exp(values)
        out = values.copy()
        assert mixture._exp_in_place(out) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("skips", [False, True])
    def test_edges(self, skips):
        rng = np.random.default_rng(3)
        fill = rng.uniform(-2000.0, -746.5, 4000) if skips else rng.uniform(-50.0, 0.0, 4000)
        self.check(rng.permutation(np.concatenate([self.EDGES, fill])), skips)

    @pytest.mark.parametrize("skips", [False, True])
    def test_strided_views(self, skips):
        # an (L, n, k) view of some columns of a wider buffer, as a
        # lockstep block with several runs of K passes to the E-step
        rng = np.random.default_rng(4)
        base = rng.uniform(-1200.0, 0.0, (50, 30)) if skips else rng.uniform(-800.0, 0.0, (50, 30))
        base[::7, ::5] = np.nan
        base[3::11, 2::9] = -np.inf
        view = base[:, 6:18].reshape(50, 3, 4)[:, ::2]
        assert not view.flags.c_contiguous
        before = base.copy()
        expected = np.exp(view)
        low_share = np.count_nonzero(view < mixture._EXP_ZERO_BELOW) / view.size
        assert (low_share >= mixture._EXP_SKIP_SHARE) == skips
        mixture._exp_in_place(view)
        assert view.tobytes() == expected.tobytes()
        untouched = np.ones(base.shape, dtype=bool)
        untouched[:, 6:18].reshape(50, 3, 4)[:, ::2] = False
        assert base[untouched].tobytes() == before[untouched].tobytes()

    def test_numpy_exp_is_plus_zero_below_the_cutoff(self):
        # what the skip writes without calling exp
        below = np.concatenate([
            np.linspace(-5000.0, mixture._EXP_ZERO_BELOW, 1_000_001),
            steps_from(mixture._EXP_ZERO_BELOW, -np.inf, 10_000),
            [-1e308, -np.finfo(np.float64).max, -np.inf],
        ])
        out = np.exp(below)
        assert not out.any() and not np.signbit(out).any()
        assert np.exp(np.nextafter(EXP_UNDERFLOW, -np.inf)) == 0.0 < np.exp(EXP_UNDERFLOW)


def reference_log_sum_exp(scores):
    """mixture._log_sum_exp as it was before its max and sum became column
    passes: per-row reductions and a boolean select of the finite rows."""
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


def score_stack(shape, scale, seed):
    """Scores of an (L, S, K) stack at ``scale`` nats of spread, with rows
    whose maximum is -inf, +inf or NaN, and zero-weight components."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, scale, shape)
    scores[0, 0] = -np.inf
    scores[1, -1, -1] = np.inf
    scores[2, 0, 0] = np.nan
    scores[3, -1, :-1] = np.nan  # NaN beside a finite maximum
    scores[4::5, :, 0] = -np.inf
    scores[5, 0, -1] = np.inf
    scores[5, 0, 0] = -np.inf
    return scores


class TestLogSumExp:
    """mixture._log_sum_exp is the per-row reference bit for bit."""

    @pytest.mark.parametrize("k", range(1, 301))
    def test_sum_is_numpys_pairwise_order(self, k):
        # the guard that fails first if numpy changes how it sums a row
        rng = np.random.default_rng(k)
        rows = np.sort(np.exp(rng.uniform(-760.0, 0.0, (40, 3, k))), axis=-1)
        rows[..., -1] = 1.0
        rows[:20] = np.sort(rng.random((20, 3, k)), axis=-1)
        rows[0, 0] = 0.0
        assert mixture._sum_last_axis(rows).tobytes() == np.add.reduce(rows, axis=-1).tobytes()

    @pytest.mark.parametrize("k", [*range(1, 33), 100, 129, 300])
    @pytest.mark.parametrize("scale", [3.0, 1000.0])  # without and with underflow
    def test_matches_reference(self, k, scale):
        scores = score_stack((60, 4, k), scale, seed=k)
        before = scores.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mixture._log_sum_exp(scores)
        assert out.tobytes() == reference_log_sum_exp(scores).tobytes()
        assert scores.tobytes() == before.tobytes()
        assert np.all(out[[0, 1, 2, 5, 3], [0, 3, 0, 0, 3]][:4 + (k > 1)] == -np.inf)
        assert not np.isnan(out).any()

    @pytest.mark.parametrize("k", [3, 9, 20])
    def test_strided_views(self, k):
        # an (L, n, k) view of some columns of a wider buffer, as the E-step
        # passes a lockstep block with several runs of K
        base = score_stack((50, 3, 4 * k), 3.0, seed=k).reshape(50, 12 * k)
        view = base[:, 2 * k:8 * k].reshape(50, 6, k)[:, ::2]
        assert not view.flags.c_contiguous
        for scores in (view, np.asfortranarray(view)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = mixture._log_sum_exp(scores)
            assert out.tobytes() == reference_log_sum_exp(view).tobytes()
