import heapq
import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docmix as dm
import docmix.em as em
from docmix.em import (
    EmConfig,
    _annihilate,
    dumps_run_log,
    e_step,
    m_step,
    random_init,
    robust_em,
    run_em,
    water_fill_project,
)
from docmix.errors import (
    ConfigError,
    DegenerateFitError,
    InfeasibleFloorError,
    NumericalError,
)
from docmix.mixture import FLOOR_SLACK, MixtureModel, default_floor, log_likelihood

from conftest import random_corpus


def floored_objective(weights, f):
    w = np.asarray(weights, dtype=np.float64)
    mask = w > 0
    return float(np.dot(w[mask], np.log(f[mask])))


def best_grid_objective(weights, epsilon, units=1000):
    """Exact best grid point of the floored simplex at resolution 1/units.

    The objective is separable and concave in each integer coordinate, so
    allocating leftover units one at a time to the largest marginal gain
    is optimal (greedy exchange argument). Independent of the sort-based
    solver under test.
    """
    w = np.asarray(weights, dtype=np.float64)
    floor_units = math.ceil(round(epsilon * units, 9))
    m = np.full(len(w), floor_units, dtype=np.int64)
    remaining = units - floor_units * len(w)
    if remaining < 0:
        raise ValueError("floor infeasible on this grid")
    heap = [(-w[b] * (math.log(m[b] + 1) - math.log(m[b])), b)
            for b in range(len(w)) if w[b] > 0]
    heapq.heapify(heap)
    for _ in range(remaining):
        _, b = heapq.heappop(heap)
        m[b] += 1
        heapq.heappush(heap, (-w[b] * (math.log(m[b] + 1) - math.log(m[b])), b))
    return floored_objective(w, m / units)


class TestWaterFill:
    def test_zero_weight_coordinates_pinned(self):
        f = water_fill_project(np.array([1.0, 0.0, 0.0]), 0.1)
        np.testing.assert_allclose(f, [0.8, 0.1, 0.1], atol=1e-15)

    def test_equal_weights_uniform(self):
        f = water_fill_project(np.full(4, 3.7), 0.05)
        np.testing.assert_allclose(f, 0.25, atol=1e-15)

    def test_unconstrained_when_floor_slack(self):
        w = np.array([5.0, 3.0, 2.0])
        f = water_fill_project(w, 0.01)
        np.testing.assert_allclose(f, w / w.sum(), atol=1e-15)

    def test_matches_greedy_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            b = int(rng.integers(2, 7))
            w = rng.exponential(size=b) * rng.choice([1.0, 10.0])
            if rng.random() < 0.3:
                w[rng.integers(0, b)] = 0.0
            if w.sum() == 0:
                continue
            eps = int(rng.integers(1, max(2, int(0.8 / b * 1000)))) / 1000
            f = water_fill_project(w, eps)
            assert floored_objective(w, f) >= best_grid_objective(w, eps) - 1e-6

    def test_infeasible_floor(self):
        with pytest.raises(InfeasibleFloorError):
            water_fill_project(np.ones(3), 0.4)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            water_fill_project(np.array([1.0, -0.1]), 0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            water_fill_project(np.zeros(3), 0.1)


def reference_water_fill(w, epsilon):
    """The water-fill of one row, scanning pin counts one at a time."""
    w = np.asarray(w, dtype=np.float64)
    w = w / w.max()
    w = w / w.sum()
    ws = np.sort(w)
    suffix = np.cumsum(ws[::-1])[::-1]
    for pinned in range(w.size):
        denom = 1.0 - pinned * epsilon
        if ws[pinned] * denom >= suffix[pinned] * epsilon:
            return np.maximum(epsilon, w * (denom / suffix[pinned]))
    raise AssertionError("no water level")


class TestWaterFillRows:
    """em._water_fill_rows, the M-step's water-fill over all rows at once,
    against the one-row reference, bit for bit."""

    def check(self, rows, epsilon):
        expected = np.array([reference_water_fill(row, epsilon) for row in rows])
        assert np.array_equal(em._water_fill_rows(rows, epsilon), expected)
        for row, want in zip(rows, expected):
            assert np.array_equal(water_fill_project(row, epsilon), want)

    def test_random_rows(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            num = int(rng.integers(1, 400))
            rows = rng.exponential(size=(int(rng.integers(1, 30)), num))
            rows *= 10.0 ** rng.uniform(-5, 5, size=(rows.shape[0], 1))
            self.check(rows, float(rng.uniform(0.01, 1.0)) / num)

    def test_f_ordered_input(self):
        # X.T @ resp transposed is F-ordered; its row sums must still be
        # the pairwise sums a single contiguous row gets
        rng = np.random.default_rng(22)
        rows = np.asfortranarray(rng.exponential(size=(40, 300)))
        assert not rows.flags.c_contiguous
        self.check(rows, 1e-4)

    def test_rows_with_zeros(self):
        rng = np.random.default_rng(23)
        rows = rng.exponential(size=(12, 50))
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[:, 0] += 1.0
        self.check(rows, 0.015)

    def test_all_but_one_pinned(self):
        rows = np.array([[1.0, 1e-9, 0.0, 2e-9],
                         [0.0, 0.0, 5.0, 0.0],
                         [1.0, 1.0, 1.0, 1.0]])
        out = em._water_fill_rows(rows, 0.2)
        np.testing.assert_allclose(out[0], [0.4, 0.2, 0.2, 0.2], atol=1e-15)
        np.testing.assert_allclose(out[1], [0.2, 0.2, 0.4, 0.2], atol=1e-15)
        self.check(rows, 0.2)

    def test_per_row_errors(self):
        good = np.ones((3, 4))
        negative = good.copy()
        negative[1, 2] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            em._water_fill_rows(negative, 0.1)
        zero = good.copy()
        zero[2] = 0.0
        with pytest.raises(ValueError, match="positive total"):
            em._water_fill_rows(zero, 0.1)
        with pytest.raises(InfeasibleFloorError):
            em._water_fill_rows(good, 0.3)


@given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8),
       st.integers(1, 100))
@settings(max_examples=80, deadline=None)
def test_water_fill_kkt(w_list, eps_thousandths):
    w = np.array(w_list)
    if w.sum() <= 0:
        return
    eps = eps_thousandths / 1000 / len(w)
    f = water_fill_project(w, eps)
    assert abs(f.sum() - 1.0) < 1e-9
    assert np.all(f >= eps - 1e-12)
    free = f > eps * (1 + 1e-9)
    if free.any():
        ratios = w[free] / f[free]
        lam = ratios.mean()
        # free coordinates share one multiplier
        assert np.allclose(ratios, lam, rtol=1e-6)
        # pinned coordinates would want to shrink below the floor
        pinned = ~free
        assert np.all(w[pinned] / eps <= lam * (1 + 1e-6))


class TestSteps:
    def test_e_step_rows_are_posteriors(self, tiny_corpus, tiny_model):
        resp, loglik = e_step(tiny_corpus, tiny_model)
        assert resp.shape == (6, 2)
        assert np.all(resp >= 0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert abs(loglik - log_likelihood(tiny_corpus, tiny_model)) < 1e-12

    def test_m_step_k1_is_water_filled_totals(self, tiny_corpus):
        eps = default_floor(tiny_corpus.total_tokens)
        resp = np.ones((tiny_corpus.num_docs, 1))
        model = m_step(tiny_corpus, resp, eps)
        expected = water_fill_project(
            tiny_corpus.word_totals().astype(float), eps)
        np.testing.assert_allclose(model.densities[0], expected, atol=1e-14)
        assert model.pi[0] == 1.0

    def test_m_step_zero_column(self, tiny_corpus):
        eps = default_floor(tiny_corpus.total_tokens)
        resp = np.zeros((tiny_corpus.num_docs, 2))
        resp[:, 0] = 1.0
        model = m_step(tiny_corpus, resp, eps)
        assert model.pi[1] == 0.0
        np.testing.assert_allclose(model.densities[1], 1 / 5, atol=1e-15)

    def test_m_step_improves_loglik(self, tiny_corpus, tiny_model):
        resp, before = e_step(tiny_corpus, tiny_model)
        updated = m_step(tiny_corpus, resp, tiny_model.epsilon)
        after = log_likelihood(tiny_corpus, updated)
        assert after >= before - 1e-9


class TestRunEm:
    def test_monotone_and_convergence(self, tiny_corpus, tiny_model):
        fit = run_em(tiny_corpus, tiny_model, EmConfig(rng_seed=0))
        trace = np.asarray(fit.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
        assert fit.converged
        assert fit.eta_effective <= 1e-6
        fit.model.validate()

    def test_max_iters_respected(self, tiny_corpus, tiny_model):
        config = EmConfig(max_iters=2, rel_tol=1e-300)
        fit = run_em(tiny_corpus, tiny_model, config)
        assert len(fit.loglik_trace) <= 3
        assert not fit.converged


def short_start(corpus, num_comps, seed, short_iters, weight_offset=0.0):
    """One random start advanced exactly short_iters iterations, as robust_em runs it."""
    init = random_init(corpus, num_comps, seed, default_floor(corpus.total_tokens))
    [fit] = em._em_loop(corpus, init.pi[None], init.log_f, init.epsilon, [seed],
                        short_iters, 0.0, weight_offset)
    return fit


class TestShortEm:
    def test_deterministic(self, tiny_corpus):
        a = short_start(tiny_corpus, 3, seed=5, short_iters=4)
        b = short_start(tiny_corpus, 3, seed=5, short_iters=4)
        assert a.loglik_trace == b.loglik_trace
        assert np.array_equal(a.model.log_f, b.model.log_f)

    def test_seed_changes_start(self, tiny_corpus):
        a = short_start(tiny_corpus, 3, seed=5, short_iters=4)
        b = short_start(tiny_corpus, 3, seed=6, short_iters=4)
        assert not np.array_equal(a.model.log_f, b.model.log_f)

    def test_stalled_start_runs_every_iteration(self, tiny_corpus):
        # K=1 sits at its fixed point after one step (eta == 0), yet the
        # start still runs all short_iters iterations; the long run then
        # converges at once and adds one value
        fit = robust_em(tiny_corpus, 1, EmConfig(rng_seed=3, short_iters=6))
        assert fit.loglik_trace[2:] == [fit.loglik_trace[1]] * 6
        assert len(fit.loglik_trace) == 6 + 2

    def test_init_respects_floor(self, tiny_corpus):
        eps = default_floor(tiny_corpus.total_tokens)
        init = random_init(tiny_corpus, 3, 9, eps, noise_scale=3.0)
        assert np.all(init.densities >= eps - FLOOR_SLACK)
        np.testing.assert_allclose(init.densities.sum(axis=1), 1.0, atol=1e-9)


class TestAnnihilate:
    def build(self, pi):
        k = len(pi)
        f = np.full((k, 12), 1 / 12)
        return MixtureModel(pi=np.asarray(pi), log_f=np.log(f), epsilon=1e-3)

    def test_removes_all_below_in_one_sweep(self):
        model = self.build([0.5, 0.4985, 0.0005, 0.001])
        pruned, removed = _annihilate(model, 100.0)
        # threshold 1/(100*4) = 0.0025 catches both small components
        assert removed == [2, 3]
        assert pruned.num_components == 2
        assert abs(pruned.pi.sum() - 1.0) < 1e-12

    def test_no_removal_below_divisor(self):
        model = self.build([0.7, 0.29, 0.01])
        pruned, removed = _annihilate(model, 100.0)
        assert removed == []
        assert pruned is model

    def test_all_removed_raises(self):
        # the guard is defensive: with any divisor > 1 the largest weight
        # exceeds 1/(divisor*K), so only a sub-unit divisor can trip it
        model = self.build([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(DegenerateFitError):
            _annihilate(model, 0.9)


class TestRobustEm:
    def test_k_max_one_plain_em(self, tiny_corpus):
        fit = robust_em(tiny_corpus, 1, EmConfig(rng_seed=3))
        assert fit.k_initial == 1
        assert fit.k_final == 1
        assert fit.annihilation_events == []

    def test_annihilation_event_recorded(self):
        mix = dm.planted_mixture(2, 12, seed=np.random.SeedSequence((1, 21)),
                                 min_pairwise_kl=1.0)
        planted = dm.generate_corpus(mix, 12, (20, 60),
                                     seed=np.random.SeedSequence((1, 22)))
        config = EmConfig(rng_seed=1, init_noise_scale=4.0, n_starts=5)
        fit = robust_em(planted.corpus, 6, config)
        assert fit.k_final == 5
        assert fit.annihilation_events == [(11, [5])]
        assert fit.converged
        fit.model.validate()

    def test_event_index_is_post_short_phase(self):
        # the first sweep happens on the multistart winner, whose trace
        # holds short_iters + 1 values
        mix = dm.planted_mixture(2, 12, seed=np.random.SeedSequence((1, 21)),
                                 min_pairwise_kl=1.0)
        planted = dm.generate_corpus(mix, 12, (20, 60),
                                     seed=np.random.SeedSequence((1, 22)))
        config = EmConfig(rng_seed=1, init_noise_scale=4.0, n_starts=5,
                          short_iters=7)
        fit = robust_em(planted.corpus, 6, config)
        assert fit.annihilation_events == [(8, [4])]

    def test_determinism(self, tiny_corpus):
        a = robust_em(tiny_corpus, 3, EmConfig(rng_seed=12))
        b = robust_em(tiny_corpus, 3, EmConfig(rng_seed=12))
        assert np.array_equal(a.model.log_f, b.model.log_f)
        assert np.array_equal(a.model.pi, b.model.pi)
        assert a.loglik_trace == b.loglik_trace

    def test_threads_do_not_change_result(self):
        corpus = random_corpus(30, 8, 50, seed=77)
        serial = robust_em(corpus, 4, EmConfig(rng_seed=8), threads=1)
        parallel = robust_em(corpus, 4, EmConfig(rng_seed=8), threads=4)
        assert np.array_equal(serial.model.log_f, parallel.model.log_f)
        assert serial.loglik_trace == parallel.loglik_trace

    def test_infeasible_floor(self, tiny_corpus):
        with pytest.raises(InfeasibleFloorError):
            robust_em(tiny_corpus, 2, EmConfig(rng_seed=0), epsilon=0.5)


class TestThreads:
    @pytest.mark.parametrize("threads", [0, -3])
    def test_below_one_rejected(self, tiny_corpus, threads):
        with pytest.raises(ValueError, match="threads"):
            robust_em(tiny_corpus, 2, EmConfig(rng_seed=0), threads=threads)


def planted_corpus(seed):
    mix = dm.planted_mixture(3, 12, seed=np.random.SeedSequence((seed, 41)),
                             min_pairwise_kl=0.5)
    return dm.generate_corpus(mix, 80, (30, 80),
                              seed=np.random.SeedSequence((seed, 42))).corpus


def recorded_fit(monkeypatch, corpus, k_max, config):
    """robust_em with one start, plus the weights behind each trace value.

    The EM loop's E-step kernel is observed: with one start, each call
    scores one model. The start's trace is followed by the long run's,
    whose first value re-scores the start's model and is left out of the
    fit's trace.
    """
    assert config.n_starts == 1
    calls = []
    block_e_step = em._e_step_block

    def recording_e_step(counts, pi, log_f, runs):
        resp, logliks = block_e_step(counts, pi, log_f, runs)
        [loglik] = logliks.tolist()
        calls.append((loglik, pi.copy()))
        return resp, logliks

    monkeypatch.setattr(em, "_e_step_block", recording_e_step)
    fit = robust_em(corpus, k_max, config)
    head = config.short_iters + 1
    calls = calls[:head] + calls[head + 1:]
    assert fit.loglik_trace == [loglik for loglik, _ in calls]
    return fit, [pi for _, pi in calls]


class TestMmlAnnihilation:
    """The opt-in rule EmConfig(annihilation="mml"), test_03's invariants
    restated for it: the log-likelihood may fall, the MML objective
    loglik - (N/2) sum_k log pi_k may not between annihilation events."""

    MML = EmConfig(annihilation="mml")

    def test_weight_offset_is_half_the_density_parameters(self):
        assert EmConfig().weight_offset(20) == 0.0
        assert self.MML.weight_offset(20) == 9.5

    def test_m_step_weight_update(self, tiny_corpus):
        resp = np.zeros((6, 3))
        resp[:4, 0] = 1.0
        resp[4:, 1] = 0.5
        resp[4:, 2] = 0.5
        resp[5, 1] = 1.0
        resp[5, 2] = 0.0
        # masses 4, 1.5, 0.5 against N/2 = 1
        model = m_step(tiny_corpus, resp, 0.01, weight_offset=1.0)
        np.testing.assert_allclose(model.pi, [3 / 3.5, 0.5 / 3.5, 0.0], atol=1e-15)

    def test_every_mass_at_most_half_n_is_degenerate(self, tiny_corpus):
        resp = np.full((6, 3), 1 / 3)
        with pytest.raises(DegenerateFitError):
            m_step(tiny_corpus, resp, 0.01, weight_offset=2.0)
        # fewer documents than N/2 = 5.5: no component can hold enough
        corpus = random_corpus(5, 12, 40, seed=3)
        with pytest.raises(DegenerateFitError):
            robust_em(corpus, 2, self.MML)
        sweep, failures = dm.run_sweep(corpus, [1, 2], self.MML)
        assert sweep.entries == ()
        assert [k for k, _ in failures] == [1, 2]

    def test_message_length(self):
        # (3/2)*2*log(24*0.5/12) + (2/2)*log(24/12) + 2*(3+1)/2 + 100
        got = em.message_length(-100.0, [0.5, 0.0, 0.5], 24, 3)
        assert got == pytest.approx(104.0 + math.log(2.0), rel=1e-15)

    def test_objective_monotone_between_events(self, monkeypatch):
        events_seen = 0
        for seed in range(10):
            corpus = planted_corpus(seed)
            config = EmConfig(rng_seed=seed, n_starts=1, annihilation="mml")
            fit, pis = recorded_fit(monkeypatch, corpus, 6, config)
            half_n = (corpus.num_words - 1) / 2
            objective = [loglik - half_n * np.log(pi).sum()
                         for loglik, pi in zip(fit.loglik_trace, pis)]
            breaks = {i for i, _ in fit.annihilation_events}
            events_seen += len(breaks)
            for t in range(1, len(objective)):
                if t not in breaks:
                    assert objective[t] >= objective[t - 1] - 1e-9 * abs(objective[t - 1])
        assert events_seen > 0

    def test_event_indices_mark_the_first_value_without_the_component(self, monkeypatch):
        for seed in range(10):
            corpus = planted_corpus(seed)
            config = EmConfig(rng_seed=seed, n_starts=1, annihilation="mml")
            fit, pis = recorded_fit(monkeypatch, corpus, 6, config)
            removed_at = dict(fit.annihilation_events)
            assert len(removed_at) == len(fit.annihilation_events)
            for t in range(1, len(pis)):
                assert len(pis[t - 1]) - len(pis[t]) == len(removed_at.get(t, []))
            assert fit.k_final == len(pis[-1]) == 6 - sum(map(len, removed_at.values()))

    def test_models_valid(self):
        for seed in range(10):
            fit = robust_em(planted_corpus(seed), 6,
                            EmConfig(rng_seed=seed, annihilation="mml"))
            model = fit.model
            f = np.exp(model.log_f)
            assert f.min() >= model.epsilon - 1e-12
            assert np.abs(f.sum(axis=1) - 1.0).max() <= 1e-9
            assert model.pi.min() > 0.0
            assert abs(model.pi.sum() - 1.0) <= 1e-9
            assert fit.converged

    def test_best_start_has_shortest_message_length(self):
        corpus = planted_corpus(10)
        config = EmConfig(rng_seed=10, n_starts=6, annihilation="mml")
        fit = robust_em(corpus, 6, config)
        starts = [short_start(corpus, 6, config.rng_seed + i, config.short_iters,
                              weight_offset=config.weight_offset(corpus.num_words))
                  for i in range(config.n_starts)]
        lengths = [em.message_length(s.loglik_trace[-1], s.model.pi,
                                     corpus.num_docs, corpus.num_words - 1)
                   for s in starts]
        by_loglik = max(starts, key=lambda s: s.loglik_trace[-1])
        best = starts[int(np.argmin(lengths))]
        # here the highest log-likelihood start keeps a fourth component
        assert best is not by_loglik
        assert fit.loglik_trace[:config.short_iters + 1] == best.loglik_trace

    def test_threads_do_not_change_result(self):
        corpus = planted_corpus(7)
        config = EmConfig(rng_seed=7, n_starts=6, annihilation="mml")
        runs = [robust_em(corpus, 6, config, threads=t) for t in (1, 1, 2)]
        for other in runs[1:]:
            assert other.loglik_trace == runs[0].loglik_trace
            assert other.annihilation_events == runs[0].annihilation_events
            assert np.array_equal(other.model.log_f, runs[0].model.log_f)
            assert np.array_equal(other.model.pi, runs[0].model.pi)
        assert runs[0].annihilation_events

    def test_run_log_names_the_rule_only_when_not_default(self):
        fit = robust_em(planted_corpus(0), 3, EmConfig(rng_seed=0))
        default = json.loads(dumps_run_log(fit, EmConfig()))["config"]
        assert list(default) == ["n_starts", "short_iters", "max_iters", "rel_tol",
                                 "annihilation_divisor", "rng_seed",
                                 "init_noise_scale"]
        mml = json.loads(dumps_run_log(fit, self.MML))["config"]
        assert mml == {**default, "annihilation": "mml"}


def short_phase(monkeypatch, corpus, k_max, config, threads=1):
    """The per-start fits of robust_em's short phase, in seed order."""
    seen = []
    loop = em._em_loop

    def recording_loop(*args):
        fits = loop(*args)
        if args[6] == 0.0:
            seen.append(fits)
        return fits

    monkeypatch.setattr(em, "_em_loop", recording_loop)
    robust_em(corpus, k_max, config, threads=threads)
    monkeypatch.setattr(em, "_em_loop", loop)
    return [fit for fits in sorted(seen, key=lambda fits: fits[0].seed) for fit in fits]


class TestLockstep:
    """Every start of a lockstep block ends exactly where it ends alone."""

    CASES = {
        # K >= 8 under the threshold rule: wide log-sum-exp rows
        "threshold": (lambda: random_corpus(60, 24, 80, seed=5), 9),
        # MML: starts drop components inside the block, so K turns ragged
        "mml": (lambda: planted_corpus(10), 6),
    }

    @pytest.mark.parametrize("rule", ["threshold", "mml"])
    @pytest.mark.parametrize("threads,block_bytes", [
        (1, None), (2, None), (3, None),   # the default grouping
        (1, 1), (2, 1),                    # one start per group
        (1, 1 << 40),                      # every start in one group
    ])
    def test_each_start_equals_its_run_alone(self, monkeypatch, rule, threads,
                                             block_bytes):
        make_corpus, k_max = self.CASES[rule]
        corpus = make_corpus()
        config = EmConfig(rng_seed=40, n_starts=7, annihilation=rule)
        if block_bytes is not None:
            monkeypatch.setattr(em, "_BLOCK_BYTES", block_bytes)
        block = short_phase(monkeypatch, corpus, k_max, config, threads)
        assert [fit.seed for fit in block] == list(range(40, 47))
        for i, fit in enumerate(block):
            alone_config = replace(config, rng_seed=40 + i, n_starts=1)
            [alone] = short_phase(monkeypatch, corpus, k_max, alone_config)
            assert fit.loglik_trace == alone.loglik_trace
            assert fit.annihilation_events == alone.annihilation_events
            assert np.array_equal(fit.model.pi, alone.model.pi)
            assert np.array_equal(fit.model.log_f, alone.model.log_f)
            assert (fit.k_final, fit.converged, fit.eta_effective) == (
                alone.k_final, alone.converged, alone.eta_effective)
        if rule == "mml":
            # the block held starts of different sizes at some iteration
            sizes = [[fit.k_initial - sum(len(gone) for at, gone in fit.annihilation_events
                                          if at <= t)
                      for fit in block] for t in range(config.short_iters + 1)]
            assert any(len(set(at_t)) > 1 for at_t in sizes)

    def test_run_em_is_the_loop_for_one_model(self, tiny_corpus, tiny_model):
        fit = run_em(tiny_corpus, tiny_model, EmConfig())
        model, trace = tiny_model, []
        resp, loglik = e_step(tiny_corpus, model)
        trace.append(loglik)
        for _ in range(len(fit.loglik_trace) - 1):
            model = m_step(tiny_corpus, resp, model.epsilon)
            resp, loglik = e_step(tiny_corpus, model)
            trace.append(loglik)
        assert fit.loglik_trace == trace
        assert np.array_equal(fit.model.log_f, model.log_f)

    @pytest.mark.parametrize("threads,block_bytes", [
        (1, None), (2, None), (1, 1), (2, 1), (1, 1 << 40),
    ])
    def test_failure_is_the_lowest_failing_seeds(self, tiny_corpus, monkeypatch,
                                                 threads, block_bytes):
        # seed -> iteration at which that start's log-likelihood turns NaN;
        # the higher seed fails at the earlier iteration
        poison = {41: 5, 43: 2}
        local = threading.local()
        loop, block_e_step = em._em_loop, em._e_step_block

        def loop_with_seeds(corpus, pi, log_f, epsilon, seeds, *args):
            local.seeds, local.iteration = seeds, 0
            return loop(corpus, pi, log_f, epsilon, seeds, *args)

        def poisoned(*args):
            resp, logliks = block_e_step(*args)
            for j, seed in enumerate(local.seeds):
                if poison.get(seed) == local.iteration:
                    logliks[j] = np.nan
            local.iteration += 1
            return resp, logliks

        monkeypatch.setattr(em, "_em_loop", loop_with_seeds)
        monkeypatch.setattr(em, "_e_step_block", poisoned)
        if block_bytes is not None:
            monkeypatch.setattr(em, "_BLOCK_BYTES", block_bytes)
        with pytest.raises(NumericalError) as info:
            robust_em(tiny_corpus, 2, EmConfig(rng_seed=40, n_starts=4),
                      threads=threads)
        assert str(info.value) == "non-finite log-likelihood nan (iteration 5)"


class TestBlockStop:
    def test_block_stops_when_its_last_model_stalls(self):
        corpus = random_corpus(60, 24, 80, seed=5)
        eps = default_floor(corpus.total_tokens)
        seeds = [40, 42]
        pi, log_f = em._random_init_block(corpus, 3, seeds, eps, 1.0)
        alone = [em._em_loop(corpus, pi[s:s + 1], log_f[3 * s:3 * s + 3], eps,
                             [seed], 500, 1e-6)[0]
                 for s, seed in enumerate(seeds)]
        # alone, the two starts stall at different iterations
        assert len(alone[0].loglik_trace) < len(alone[1].loglik_trace)
        block = em._em_loop(corpus, pi, log_f, eps, seeds, 500, 1e-6)
        for fit, solo in zip(block, alone):
            assert len(fit.loglik_trace) == len(alone[1].loglik_trace)
            assert fit.loglik_trace[:len(solo.loglik_trace)] == solo.loglik_trace
            assert fit.converged
        assert np.array_equal(block[1].model.log_f, alone[1].model.log_f)
        assert block[1].eta_effective == alone[1].eta_effective


class TestConfig:
    @pytest.mark.parametrize("field,value", [
        ("n_starts", 0),
        ("short_iters", 0),
        ("max_iters", 0),
        ("rel_tol", 0.0),
        ("annihilation_divisor", 1.0),
        ("init_noise_scale", -0.5),
        ("annihilation", "bogus"),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            EmConfig(**{field: value})
