import json
import math

import mpmath as mp
import numpy as np
import pytest

import docmix as dm
import docmix.cli as cli
from docmix.corpus import save_corpus
from docmix.em import EmConfig
from docmix.errors import (
    DegenerateRegressionError,
    FormatError,
    InsufficientDataError,
    ParseError,
)
from docmix.selection import (
    MODES,
    SweepEntry,
    SweepResult,
    derive_seed,
    dumps_selection_report,
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

from conftest import sized_corpus


def reference_rate(n):
    tau = mp.log(n)
    return 2 * (mp.sqrt(mp.log(2 * tau)) + mp.sqrt(mp.pi)) ** 2 + 1 + tau


class TestPenaltyRate:
    def test_frozen_value_at_ten_thousand(self):
        value = penalty_rate(10_000)
        assert abs(value - 34.42200973650576) < 1e-12
        assert round(value, 2) == 34.42

    def test_matches_extended_precision(self):
        with mp.workdps(50):
            for n in (2, 10, 353, 10_000, 2_674_183):
                want = float(reference_rate(n))
                assert abs(penalty_rate(n) - want) <= 1e-12 * abs(want)

    def test_monotone_in_n(self):
        values = [penalty_rate(n) for n in (10, 100, 1000, 10_000)]
        assert values == sorted(values)

    def test_too_few_tokens(self):
        with pytest.raises(ValueError):
            penalty_rate(1)


class TestPenalties:
    grid = [(1, 50, 1000, 10), (2, 50, 1000, 10), (3, 200, 26000, 20),
            (7, 5804, 1_000_000, 300), (31, 5804, 2_674_183, 300)]

    def test_theoretical_matches_extended_precision(self):
        with mp.workdps(50):
            for k, L, n, b in self.grid:
                want = float(reference_rate(n) * k * b + L * mp.log(k)
                             + k * mp.log(2))
                got = theoretical_penalty(k, L, n, b, multiplier=1.0)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_multiplier_scales_linearly(self):
        base = theoretical_penalty(3, 100, 5000, 20, multiplier=1.0)
        assert abs(theoretical_penalty(3, 100, 5000, 20, multiplier=2.5)
                   - 2.5 * base) < 1e-9

    def test_varying_vocab_matches_extended_precision(self):
        with mp.workdps(50):
            for k, L, n, b in self.grid:
                want = float(reference_rate(n) * k * (b + 1) + L * mp.log(k)
                             + k * b * mp.log(2))
                got = varying_vocab_penalty(k, b, L, n, multiplier=1.0)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_varying_vocab_collection_domain(self):
        varying_vocab_penalty(1, 1, 10, 100, multiplier=1.0)
        varying_vocab_penalty(1, 2, 10, 100, multiplier=1.0)
        varying_vocab_penalty(4, 2, 10, 100, multiplier=1.0)
        with pytest.raises(ValueError):
            varying_vocab_penalty(2, 1, 10, 100, multiplier=1.0)


def linear_sweep_points(lam, num_points=10, width=20, offset=5000.0):
    return [(width * k, offset - lam * width * k) for k in range(1, num_points + 1)]


class TestSlopeHeuristics:
    @pytest.mark.parametrize("lam", [0.5, 15.0, 100.0])
    def test_exact_line(self, lam):
        lambda_min, diag = slope_heuristics(linear_sweep_points(lam))
        assert abs(lambda_min - lam) <= 1e-10 * max(lam, 1.0)
        assert diag.stable
        assert diag.chosen_window == 10

    def test_kinked_tail(self):
        # steep drop for the first three points, exact slope 2 afterwards;
        # the plateau should stop growing before the kink
        pts = []
        value = 10_000.0
        dims = [10 * k for k in range(1, 11)]
        for i, d in enumerate(dims):
            pts.append((d, value))
            value -= 500.0 if i < 2 else 2.0 * 10
        lambda_min, diag = slope_heuristics(pts)
        assert abs(lambda_min - 2.0) < 1e-9
        assert diag.stable
        assert diag.chosen_window == 8

    def test_noisy_line_within_three_standard_errors(self):
        lam, width, sigma = 15.0, 25.0, 2.0
        rng = np.random.default_rng(2024)
        for _ in range(50):
            pts = [(width * k, 40_000.0 - lam * width * k
                    + sigma * rng.standard_normal())
                   for k in range(1, 13)]
            lambda_min, diag = slope_heuristics(pts)
            dims = np.array([p[0] for p in pts])
            window = dims[-diag.chosen_window:]
            se = sigma / math.sqrt(((window - window.mean()) ** 2).sum())
            assert abs(lambda_min - lam) <= 3.0 * se

    def test_unstable_curvature_flagged(self):
        pts = [(10 * k, 5000.0 / k) for k in range(1, 9)]
        lambda_min, diag = slope_heuristics(pts)
        assert not diag.stable
        assert lambda_min > 0

    def test_too_few_distinct_dimensions(self):
        with pytest.raises(InsufficientDataError):
            slope_heuristics([(10, 5.0), (20, 4.0), (30, 3.0)])

    def test_single_dimension_degenerate(self):
        with pytest.raises(DegenerateRegressionError):
            slope_heuristics([(10, 5.0), (10, 4.0), (10, 3.0)])

    def test_window_with_nan_change_never_chosen(self):
        # the last four points share D=40: the 3- and 4-point windows have no
        # slope, so their changes and the 5-point window's change are NaN
        pts = list(zip([10, 20, 30, 40, 40, 40, 40],
                       [1000.0, 900.0, 850.0, 820.0, 815.0, 812.0, 811.0]))
        lambda_min, diag = slope_heuristics(pts)
        assert [math.isnan(r) for r in diag.rel_changes] == [True, True, True, False, False]
        assert diag.chosen_window in (6, 7)
        assert math.isfinite(lambda_min)

    def test_no_defined_change_is_degenerate(self):
        # contrasts near the float maximum overflow every window's mean, so
        # every slope, and with it every change, is NaN
        pts = [(10 * k, 1.7e308) for k in range(1, 8)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateRegressionError):
                slope_heuristics(pts)


def toy_sweep():
    entries = tuple(
        SweepEntry(num_comps=k, dimension=20 * k, min_contrast=1000.0 - 50.0 * k)
        for k in range(1, 6)
    )
    return SweepResult(entries=entries)


class TestSelectModel:
    def test_argmin(self):
        sweep = toy_sweep()
        # contrast falls 50 per K; penalty rises 60 per K past K=3
        penalty = [0.0, 0.0, 0.0, 110.0, 220.0]
        report = select_model(sweep, penalty)
        assert report.k_hat == 3

    def test_tie_goes_to_smaller_k(self):
        sweep = toy_sweep()
        penalty = [50.0 * k for k in range(1, 6)]
        report = select_model(sweep, penalty)
        assert report.k_hat == 1
        values = [v for _, v in report.criteria]
        assert max(values) - min(values) < 1e-9

    def test_constant_shift_invariance(self):
        sweep = toy_sweep()
        penalty = [7.0 * k * k for k in range(1, 6)]
        shifted = [v + 1234.5 for v in penalty]
        assert select_model(sweep, penalty).k_hat \
            == select_model(sweep, shifted).k_hat

    def test_sequence_penalty(self):
        # test_argmin passes a list; any aligned sequence selects the same K
        sweep = toy_sweep()
        penalty = (0.0, 0.0, 0.0, 110.0, 220.0)
        assert select_model(sweep, penalty).k_hat == 3
        assert select_model(sweep, np.array(penalty)).k_hat == 3

    def test_misaligned_sequence_rejected(self):
        sweep = toy_sweep()
        with pytest.raises(ValueError):
            select_model(sweep, [0.0, 1.0])

    def test_non_finite_criterion_rejected(self):
        sweep = toy_sweep()
        with pytest.raises(ValueError, match="criterion for K=2 is not finite"):
            select_model(sweep, [0.0, math.nan, 0.0, math.inf, 0.0])
        with pytest.raises(ValueError, match="criterion for K=4 is not finite"):
            select_model(sweep, [0.0, 0.0, 0.0, math.inf, 0.0])


class TestSelectFromSweep:
    def synthetic(self, lam=4.0, num=8, width=30):
        entries = tuple(
            SweepEntry(num_comps=k, dimension=width * k,
                       min_contrast=90_000.0 - lam * width * k)
            for k in range(1, num + 1)
        )
        return SweepResult(entries=entries)

    def test_slope_mode_penalizes_twice_lambda(self):
        sweep = self.synthetic(lam=4.0)
        report = select_from_sweep(sweep, "slope", total_tokens=50_000, num_docs=400)
        assert report.mode == "slope"
        assert abs(report.lambda_min - 4.0) < 1e-9
        # penalty(K) = 2*lam*D exceeds the linear gain lam*D, so the smallest
        # K wins on an exactly linear table
        assert report.k_hat == 1

    def test_aic_bic_modes(self):
        sweep = self.synthetic(lam=0.1)
        aic_report = select_from_sweep(sweep, "aic", total_tokens=50_000, num_docs=400)
        bic_report = select_from_sweep(sweep, "bic", total_tokens=50_000, num_docs=400)
        # per unit of dimension the contrast gain 0.1 is below AIC's 1.0
        # and far below BIC's log(n)/2
        assert aic_report.k_hat == 1
        assert bic_report.k_hat == 1

    def test_aic_bic_criteria_are_contrast_plus_penalty(self):
        rng = np.random.default_rng(3)
        n = 50_021
        entries = tuple(SweepEntry(num_comps=k, dimension=30 * k,
                                   min_contrast=float(rng.uniform(1e3, 1e7)))
                        for k in range(1, 9))
        sweep = SweepResult(entries=entries)
        aic = select_from_sweep(sweep, "aic", total_tokens=n, num_docs=400)
        bic = select_from_sweep(sweep, "bic", total_tokens=n, num_docs=400)
        assert aic.criteria == tuple((e.num_comps, e.min_contrast + e.dimension)
                                     for e in entries)
        assert bic.criteria == tuple(
            (e.num_comps, e.min_contrast + e.dimension * math.log(n) / 2) for e in entries)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_needs_two_tokens(self, mode):
        with pytest.raises(ValueError, match="^need at least 2 tokens, got 1$"):
            select_from_sweep(self.synthetic(), mode, total_tokens=1, num_docs=400)

    def test_theoretical_mode_needs_counts(self):
        sweep = self.synthetic()
        with pytest.raises(TypeError, match="num_docs"):
            select_from_sweep(sweep, "theoretical", total_tokens=50_000)

    def test_dimension_not_multiple_of_k(self):
        sweep = SweepResult(entries=(SweepEntry(1, 20, 1000.0), SweepEntry(2, 41, 900.0)))
        with pytest.raises(ValueError, match="^dimension 41 is not a multiple of K=2$"):
            select_from_sweep(sweep, "theoretical", total_tokens=5000, num_docs=100)

    def test_unknown_mode(self):
        sweep = self.synthetic()
        with pytest.raises(ValueError):
            select_from_sweep(sweep, "magic", total_tokens=50_000, num_docs=400)

    def kinked(self):
        # contrast falls steeply up to K=3, then by 4 per dimension
        return SweepResult(entries=tuple(
            SweepEntry(num_comps=k, dimension=30 * k,
                       min_contrast=90_000.0 - 3_000.0 * min(k, 3) - 4.0 * 30 * k)
            for k in range(1, 9)
        ))

    def test_slope_theoretical_shape(self):
        sweep, n, num_docs = self.kinked(), 50_000, 400
        report = select_from_sweep(sweep, "slope-theoretical", total_tokens=n,
                                   num_docs=num_docs)
        assert report.mode == "slope-theoretical"
        assert report.penalty_multiplier == 2 * report.lambda_min / penalty_rate(n)
        assert report.criteria == tuple(
            (e.num_comps, e.min_contrast + theoretical_penalty(
                e.num_comps, num_docs, n, 30, report.penalty_multiplier))
            for e in sweep.entries
        )

    def test_slope_theoretical_shape_through_cli(self, tmp_path, capsys):
        sweep_path, out = tmp_path / "sweep.csv", tmp_path / "selection.json"
        save_sweep(self.kinked(), sweep_path)
        corpus_path = tmp_path / "corpus.json"
        save_corpus(sized_corpus(400, 30, 50_000), corpus_path)
        assert cli.run(["select", str(sweep_path), "--out", str(out),
                        "--mode", "slope-theoretical", "--corpus", str(corpus_path)]) == 0
        report = select_from_sweep(self.kinked(), "slope-theoretical", total_tokens=50_000,
                                   num_docs=400)
        assert json.loads(out.read_text())["mode"] == "slope-theoretical"
        assert out.read_text() == dumps_selection_report(report)
        assert capsys.readouterr().out == (
            f"K_hat={report.k_hat} (mode=slope-theoretical, "
            f"lambda_min={report.lambda_min:.6g})\n")


class TestSweepCsv:
    def test_round_trip_exact(self):
        sweep = toy_sweep()
        text = sweep_to_csv(sweep)
        back = sweep_from_csv(text)
        assert back.points() == sweep.points()
        assert [e.num_comps for e in back.entries] \
            == [e.num_comps for e in sweep.entries]

    def test_header_exact(self):
        assert sweep_to_csv(toy_sweep()).splitlines()[0] == "K,D_K,min_contrast"

    def test_float_precision_preserved(self):
        entry = SweepEntry(num_comps=2, dimension=40,
                           min_contrast=12345.678901234567)
        text = sweep_to_csv(SweepResult(entries=(entry,)))
        back = sweep_from_csv(text)
        assert back.entries[0].min_contrast == 12345.678901234567

    def test_wrong_header(self):
        with pytest.raises(FormatError):
            sweep_from_csv("K,D,contrast\n1,20,5.0\n")

    def test_bad_row_has_line_number(self):
        # a quoted field spanning two lines moves the bad row to line 4
        oops = "could not convert string to float: 'oops'"
        for text, line, message in [
                ("K,D_K,min_contrast\n1,20,5.0\n2,40,oops\n", 3, oops),
                ('K,D_K,min_contrast\n"1\n",20,5.0\n2,40,oops\n', 4, oops),
                ("K,D_K,min_contrast\n2,40,4.0\n1,20,5.0\n2,40,3.0\n", 4,
                 "K=2 repeats line 2"),
                (f"K,D_K,min_contrast\n1,30,5.0\n{10**307},{30 * 10**307},4.0\n", 3,
                 f"dimension {30 * 10**307} is not below 2**53")]:
            with pytest.raises(ParseError) as err:
                sweep_from_csv(text)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: {message}"

    def test_save_load(self, tmp_path):
        path = tmp_path / "sweep.csv"
        save_sweep(toy_sweep(), path)
        assert load_sweep(path).points() == toy_sweep().points()


class TestRunSweep:
    def test_ladder_and_dedup(self):
        mix = dm.planted_mixture(2, 10, seed=np.random.SeedSequence((3, 31)),
                                 min_pairwise_kl=1.0)
        planted = dm.generate_corpus(mix, 40, (20, 60),
                                     seed=np.random.SeedSequence((3, 32)))
        sweep, failures = run_sweep(planted.corpus, [1, 2, 3, 2],
                                    EmConfig(rng_seed=0))
        assert failures == []
        ks = [e.num_comps for e in sweep.entries]
        assert ks == sorted(set(ks))
        assert all(e.dimension == e.num_comps * 10 for e in sweep.entries)
        assert all(e.fit is not None for e in sweep.entries)

    def test_contrast_decreases_with_k(self):
        mix = dm.planted_mixture(3, 12, seed=np.random.SeedSequence((4, 31)),
                                 min_pairwise_kl=1.0)
        planted = dm.generate_corpus(mix, 60, (30, 80),
                                     seed=np.random.SeedSequence((4, 32)))
        sweep, _ = run_sweep(planted.corpus, [1, 2, 3], EmConfig(rng_seed=1))
        contrasts = [e.min_contrast for e in sweep.entries]
        assert contrasts == sorted(contrasts, reverse=True)

    def test_empty_ladder(self, tiny_corpus):
        with pytest.raises(ValueError):
            run_sweep(tiny_corpus, [], EmConfig())

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one(self, tiny_corpus, threads):
        with pytest.raises(ValueError, match="threads"):
            run_sweep(tiny_corpus, [1, 2], EmConfig(), threads=threads)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)
    assert derive_seed(8, 3) != derive_seed(7, 3)
    assert 0 <= derive_seed(0, 1) < 2**32
