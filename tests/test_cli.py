import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import docmix.cli as cli
import docmix.selection as selection
from docmix.corpus import load_corpus, save_corpus
from docmix.errors import DegenerateFitError, NumericalError
from docmix.mixture import load_model
from docmix.selection import MODES
from docmix.synth import generate_corpus, planted_mixture

from conftest import sized_corpus


@pytest.fixture
def planted_setup(tmp_path):
    mix = planted_mixture(2, 10, seed=np.random.SeedSequence((5, 31)),
                          min_pairwise_kl=1.0)
    planted = generate_corpus(mix, 40, (20, 60),
                              seed=np.random.SeedSequence((5, 32)))
    corpus_path = tmp_path / "corpus.json"
    save_corpus(planted.corpus, corpus_path)
    return planted, corpus_path


@pytest.fixture
def fitted_setup(planted_setup, tmp_path):
    """planted_setup's corpus, its K=1,2 sweep CSV and the K=2 model file."""
    _, corpus_path = planted_setup
    sweep_path = tmp_path / "fitted_sweep.csv"
    fits_dir = tmp_path / "fits"
    assert cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                    "--ladder", "1,2", "--starts", "3", "--fits-dir",
                    str(fits_dir)]) == 0
    return corpus_path, sweep_path, fits_dir / "fit_K2.model.json"


def corpus_file(tmp_path, num_words, num_docs=100, total_tokens=5000):
    """A saved corpus of exactly these sizes, for select to price a sweep with."""
    path = tmp_path / f"corpus_B{num_words}.json"
    save_corpus(sized_corpus(num_docs, num_words, total_tokens), path)
    return path


def test_cli_starts_without_oracle_and_matching_imports():
    # scipy.optimize and mpmath serve only label matching and the 50-digit oracle
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import docmix.cli, sys; "
            "print([m for m in ('scipy.optimize', 'mpmath') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_only_sweep_imports_scipy(uci_files, fitted_setup, tmp_path):
    # ingest and select read a corpus as plain arrays; the sparse products need scipy
    docword, vocab = uci_files
    corpus_path, sweep_path, _ = fitted_setup
    steps = [["ingest", str(docword), str(vocab), "--out", str(tmp_path / "c.json")],
             ["select", str(sweep_path), "--corpus", str(corpus_path), "--mode", "bic",
              "--out", str(tmp_path / "s.json")],
             ["sweep", str(tmp_path / "c.json"), "--ladder", "1", "--starts", "1",
              "--out", str(tmp_path / "w.csv")]]
    code = ("import json, sys, docmix.cli as cli; print([(cli.run(argv), 'scipy' in sys.modules)"
            " for argv in json.loads(sys.argv[1])], file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(steps)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True)
    assert out.stderr == "[(0, False), (0, False), (0, True)]\n"


class TestIngest:
    def test_end_to_end(self, uci_files, tmp_path, capsys):
        docword, vocab = uci_files
        out = tmp_path / "corpus.json"
        code = cli.run(["ingest", str(docword), str(vocab), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == (
            "ingested 3 docs, 4 words, 10 tokens (0 docs emptied by pruning)\n")
        corpus = load_corpus(out)
        assert corpus.num_docs == 3
        assert corpus.num_words == 4  # the fifth word occurs in no document

    def test_prune_flags(self, uci_files, tmp_path, capsys):
        docword, vocab = uci_files
        out = tmp_path / "corpus.json"
        # "alpha" appears in 2 of 3 docs; a 0.5 ceiling removes it
        code = cli.run(["ingest", str(docword), str(vocab), "--out", str(out),
                        "--max-doc-fraction", "0.5", "--top-b", "2"])
        assert code == 0
        assert capsys.readouterr().out == (
            "ingested 1 docs, 2 words, 3 tokens (2 docs emptied by pruning)\n")
        corpus = load_corpus(out)
        assert "alpha" not in corpus.vocab.words
        assert corpus.num_words == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = cli.run(["ingest", str(tmp_path / "nope.txt"),
                        str(tmp_path / "alsono.txt"),
                        "--out", str(tmp_path / "out.json")])
        assert code == 2

    def test_malformed_docword_is_data_error(self, tmp_path):
        bad = tmp_path / "docword.txt"
        bad.write_text("not\na\nheader\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        code = cli.run(["ingest", str(bad), str(vocab),
                        "--out", str(tmp_path / "out.json")])
        assert code == 2

    @pytest.mark.parametrize("docword_text,vocab_text,message", [
        ("1\n-3\n1\n1 1 1\n", "a\n", "line 2: header value must be nonnegative, got -3"),
        ("1\n2\n1\n1 1 1\n", "a\n\n", "line 2: empty vocabulary token"),
        ("1\n3\n1\n1 1 1\n", "a\nb\na\n", "line 3: vocabulary token 'a' repeats line 1"),
    ], ids=["negative-header", "empty-vocab-token", "repeated-vocab-token"])
    def test_bad_input_line_is_data_error(self, tmp_path, capsys, docword_text,
                                          vocab_text, message):
        docword, vocab = tmp_path / "docword.txt", tmp_path / "vocab.txt"
        docword.write_text(docword_text)
        vocab.write_text(vocab_text)
        out = tmp_path / "out.json"
        assert cli.run(["ingest", str(docword), str(vocab), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_word_id_out_of_range_is_data_error(self, tmp_path, capsys):
        docword = tmp_path / "docword.txt"
        docword.write_text("1\n2\n1\n1 3 1\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        code = cli.run(["ingest", str(docword), str(vocab),
                        "--out", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSweepSelect:
    def test_pipeline(self, planted_setup, tmp_path, capsys):
        _, corpus_path = planted_setup
        sweep_path = tmp_path / "sweep.csv"
        fits_dir = tmp_path / "fits"
        code = cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                        "--kmax", "5", "--starts", "5", "--fits-dir",
                        str(fits_dir)])
        assert code == 0
        with open(sweep_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["K", "D_K", "min_contrast"]
        ks = [int(r[0]) for r in rows[1:]]
        assert ks == sorted(set(ks))
        assert capsys.readouterr().out == (
            f"swept 5 rungs into {len(ks)} distinct K (0 failures)\n")
        for k in ks:
            model_path = fits_dir / f"fit_K{k}.model.json"
            runlog_path = fits_dir / f"fit_K{k}.runlog.json"
            assert model_path.exists() and runlog_path.exists()
            assert load_model(model_path).num_components == k
            log = json.loads(runlog_path.read_text())
            assert log["format"] == "docmix.runlog"
            assert log["k_final"] == k

        report_path = tmp_path / "report.json"
        code = cli.run(["select", str(sweep_path), "--out", str(report_path),
                        "--mode", "slope", "--corpus", str(corpus_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["mode"] == "slope"
        assert report["K_hat"] in ks
        assert report["lambda_min"] > 0
        assert len(report["criteria"]) == len(ks)
        assert capsys.readouterr().out == (
            f"K_hat={report['K_hat']} (mode=slope, lambda_min={report['lambda_min']:.6g})\n")

    def test_ladder_flag(self, planted_setup, tmp_path):
        _, corpus_path = planted_setup
        sweep_path = tmp_path / "sweep.csv"
        code = cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                        "--ladder", "1,2,3", "--starts", "3"])
        assert code == 0
        with open(sweep_path) as handle:
            assert len(list(csv.reader(handle))) <= 4

    def test_kmax_with_ladder_is_a_usage_error(self, planted_setup, tmp_path, capsys):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "3",
                        "--ladder", "1,2"])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "sweep: error: argument --ladder: not allowed with argument --kmax\n")
        assert not (tmp_path / "s.csv").exists()

    def test_repeated_rung_is_fitted_once(self, planted_setup, tmp_path, capsys,
                                          monkeypatch):
        _, corpus_path = planted_setup
        fit, rungs = selection.robust_em, []

        def recorded(corpus, k_max, *args, **kwargs):
            rungs.append(k_max)
            return fit(corpus, k_max, *args, **kwargs)

        monkeypatch.setattr(selection, "robust_em", recorded)
        assert cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                        "--ladder", "2,1,2,2", "--starts", "2"]) == 0
        assert rungs == [2, 1]
        assert capsys.readouterr().out.startswith("swept 2 rungs into ")
        assert cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "r.csv"),
                        "--ladder", "2,1", "--starts", "2"]) == 0
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()

    def test_select_aic_needs_tokens(self, planted_setup, tmp_path, capsys):
        _, corpus_path = planted_setup
        sweep_path = tmp_path / "sweep.csv"
        cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                 "--ladder", "1,2,3,4", "--starts", "3"])
        capsys.readouterr()
        code = cli.run(["select", str(sweep_path), "--out",
                        str(tmp_path / "r.json"), "--mode", "aic"])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: --corpus\n")
        code = cli.run(["select", str(sweep_path), "--out",
                        str(tmp_path / "r.json"), "--mode", "aic",
                        "--corpus", str(corpus_path)])
        assert code == 0

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_bad_threads_flag(self, planted_setup, tmp_path, threads, capsys):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "2",
                        "--threads", threads])
        assert code == 1
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flags,named", [
        (["--kmax", "0"], "--kmax"),
        (["--kmax", "2", "--starts", "0"], "--starts"),
        (["--kmax", "2.5"], "--kmax"),
        (["--kmax", "2", "--seed", "x"], "--seed"),
        (["--ladder", "0,1"], "--ladder"),
        ([], "--kmax"),
        (["--kmax", "2", "--seed", "-1"], "--seed"),
    ])
    def test_bad_count_flag_is_a_usage_error(self, planted_setup, tmp_path, flags,
                                             named, capsys):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                        *flags])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flags,k", [
        (["--kmax", "41"], 41),
        (["--kmax", str(10**30)], 10**30),  # far too long a range() to list
        (["--ladder", "2,41,3"], 41),
    ], ids=["kmax", "huge-kmax", "ladder"])
    def test_rung_above_num_docs_is_data_error(self, planted_setup, tmp_path, capsys,
                                               flags, k):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                        *flags, "--starts", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: rung K={k} exceeds num_docs = 40\n"
        assert not (tmp_path / "s.csv").exists()

    def test_bad_epsilon_flag(self, planted_setup, tmp_path, capsys):
        # the floor is always 1/n for n tokens, so no flag sets it
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "2",
                        "--epsilon", "0.01"])
        assert code == 1
        assert "unrecognized arguments: --epsilon 0.01" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--ladder", "a,b", "argument --ladder: expected comma-separated integers, "
                            "got 'a,b'"),
        ("--ladder", ",", "argument --ladder: ladder is empty"),
    ], ids=["ladder-text", "ladder-empty"])
    def test_bad_flag_text_is_a_usage_error(self, planted_setup, tmp_path, capsys,
                                            flag, value, message):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                        "--kmax", "2", flag, value])
        assert code == 1
        assert capsys.readouterr().err.endswith(f"sweep: error: {message}\n")
        assert not (tmp_path / "s.csv").exists()

    def test_failed_rung_is_reported_and_skipped(self, planted_setup, tmp_path, capsys,
                                                 failing_rung_2):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                        "--ladder", "1,2,3", "--starts", "3",
                        "--fits-dir", str(tmp_path / "fits")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "rung 2 failed: synthetic collapse\n"
        assert captured.out.endswith("(1 failures)\n")
        failing_rung_2.undo()
        # rung seeds depend only on (seed, K), so the other rungs match a 1,3 sweep
        assert cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "r.csv"),
                        "--ladder", "1,3", "--starts", "3",
                        "--fits-dir", str(tmp_path / "ref")]) == 0
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
        names = sorted(p.name for p in (tmp_path / "ref").iterdir())
        assert sorted(p.name for p in (tmp_path / "fits").iterdir()) == names
        for name in names:
            assert (tmp_path / "fits" / name).read_bytes() \
                == (tmp_path / "ref" / name).read_bytes()

    def test_numerical_failure_exit_code(self, planted_setup, tmp_path,
                                         monkeypatch):
        _, corpus_path = planted_setup

        def boom(*args, **kwargs):
            raise NumericalError("synthetic blowup", iteration=3)

        monkeypatch.setattr(cli, "run_sweep", boom)
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "2"])
        assert code == 3


    def test_word_index_out_of_range_is_data_error(self, planted_setup, tmp_path, capsys):
        _, corpus_path = planted_setup
        blob = json.loads(corpus_path.read_text())
        blob["words"] = blob["words"][:2]
        blob["docs"] = [[[0, 9], [1, 2]]]
        blob["doc_ids"] = [1]
        corpus_path.write_text(json.dumps(blob))
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["K,D_K,min_contrast\n1,2\r0,3.5\n",
                                      "K,D_K,min_contrast\n" + "9" * 200_000 + ",2,3.5\n",
                                      "K,D_K,min_contrast\n0,20,1.0\n",
                                      "K,D_K,min_contrast\n1,20,nan\n",
                                      "K,D_K,min_contrast\n1,20,inf\n"],
                             ids=["bare-cr", "huge-field", "zero-k", "nan-contrast",
                                  "inf-contrast"])
    def test_malformed_sweep_csv_is_data_error(self, tmp_path, capsys, text):
        sweep_path = tmp_path / "sweep.csv"
        sweep_path.write_bytes(text.encode())
        code = cli.run(["select", str(sweep_path), "--out", str(tmp_path / "r.json"),
                        "--mode", "bic", "--corpus", str(corpus_file(tmp_path, 20))])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1


    def test_slope_report_never_holds_nan(self, tmp_path, capsys):
        def no_constant(name):
            raise AssertionError(f"bare {name} in the selection report")

        def sweep_text(dims, contrasts):
            return "K,D_K,min_contrast\n" + "".join(
                f"{k},{d},{c}\n" for k, (d, c) in enumerate(zip(dims, contrasts), start=1))

        # in the first curve the last four rungs share D=40, so the smallest
        # windows have no slope; no sweep of one corpus has such rows, so
        # the library prices it
        shared = selection.sweep_from_csv(sweep_text([10, 20, 30, 40, 40, 40, 40],
                                                     [1000, 900, 850, 820, 815, 812, 811]))
        first = selection.select_from_sweep(shared, "slope", total_tokens=5000, num_docs=100)
        # in the second the smallest window's slope is 0, so the next
        # window's relative slope change is infinite
        sweep_path, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep_path.write_text(sweep_text([10, 20, 30, 40, 50, 60], [9e12, 5e12, 1e12, 0, 0, 0]))
        assert cli.run(["select", str(sweep_path), "--out", str(out),
                        "--corpus", str(corpus_file(tmp_path, 10))]) == 0
        reports = [json.loads(text, parse_constant=no_constant)
                   for text in (selection.dumps_selection_report(first), out.read_text())]
        assert reports[0]["lambda_min"] > 0
        assert reports[0]["diagnostics"]["slopes"][:2] == [None, None]
        assert reports[1]["diagnostics"]["slopes"][0] == 0.0
        assert reports[1]["diagnostics"]["rel_changes"][:2] == [None, None]
        assert "lambda_min=nan" not in capsys.readouterr().out

    def test_non_finite_criterion_is_data_error(self, tmp_path, capsys):
        # slope's 2 * lambda_min * D_K lifts a contrast near the float range to inf,
        # though every row parses
        k0 = 2 * 10**14
        sweep_path, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep_path.write_text("K,D_K,min_contrast\n" + "".join(
            f"{k0 + i},{20 * (k0 + i)},{1e296 - i * 1e294!r}\n" for i in range(4)))
        assert cli.run(["select", str(sweep_path), "--out", str(out), "--mode", "slope",
                        "--corpus", str(corpus_file(tmp_path, 20))]) == 2
        assert capsys.readouterr().err == f"error: criterion for K={k0} is not finite: inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", MODES)
    def test_dimension_past_exact_floats_is_data_error(self, tmp_path, capsys, mode):
        # no float holds every integer from 2**53 on, so such a D_K is not read
        k = 10**307
        sweep_path, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep_path.write_text(f"K,D_K,min_contrast\n1,30,1000\n{k},{30 * k},900\n")
        assert cli.run(["select", str(sweep_path), "--out", str(out), "--mode", mode,
                        "--corpus", str(corpus_file(tmp_path, 30))]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: dimension {30 * k} is not below 2**53\n")
        assert not out.exists()

    def test_dimension_not_multiple_of_k_is_data_error(self, tmp_path, capsys):
        sweep_path, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep_path.write_text("K,D_K,min_contrast\n1,20,1000\n2,41,900\n")
        assert cli.run(["select", str(sweep_path), "--out", str(out), "--mode",
                        "theoretical", "--corpus", str(corpus_file(tmp_path, 20))]) == 2
        assert capsys.readouterr().err == (
            "error: sweep row K=2 has D_K = 41, not K x B = 40 for this corpus\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", MODES)
    def test_sweep_of_another_vocabulary_is_data_error(self, tmp_path, capsys, mode):
        # a B=20 sweep priced with a B=30 corpus
        sweep_path, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep_path.write_text("K,D_K,min_contrast\n" + "".join(
            f"{k},{20 * k},{1000 - 50 * k}\n" for k in range(1, 7)))
        assert cli.run(["select", str(sweep_path), "--out", str(out), "--mode", mode,
                        "--corpus", str(corpus_file(tmp_path, 30))]) == 2
        assert capsys.readouterr().err == (
            "error: sweep row K=1 has D_K = 20, not K x B = 30 for this corpus\n")
        assert not out.exists()

    def test_corpus_with_years_is_data_error(self, planted_setup, tmp_path, capsys):
        # years reach report only through --metadata
        _, corpus_path = planted_setup
        blob = json.loads(corpus_path.read_text())
        assert blob["doc_years"] is None
        blob["doc_years"] = [[1, 1990]]
        corpus_path.write_text(json.dumps(blob))
        out = tmp_path / "s.csv"
        assert cli.run(["sweep", str(corpus_path), "--out", str(out), "--kmax", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: doc_years must be null: give years to report --metadata\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--slope-shape", "theoretical"],
                                       ["--multiplier", "2"]])
    def test_penalty_knob_flags_are_gone(self, tmp_path, capsys, flags):
        # --mode names the whole penalty; no second flag reshapes or rescales it
        sweep_path, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        sweep_path.write_text("K,D_K,min_contrast\n" + "".join(
            f"{k},{20 * k},{1000 - 50 * k}\n" for k in range(1, 7)))
        assert cli.run(["select", str(sweep_path), "--out", str(out),
                        "--corpus", str(corpus_file(tmp_path, 20)), *flags]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--short-iters", "5"], ["--max-iters", "5"],
                                       ["--rel-tol", "1e-3"]])
    def test_em_schedule_flags_are_gone(self, planted_setup, tmp_path, capsys, flags):
        # the short iterations, the M-step cap and the stall tolerance are constants
        _, corpus_path = planted_setup
        out = tmp_path / "s.csv"
        assert cli.run(["sweep", str(corpus_path), "--out", str(out), "--kmax", "2",
                        *flags]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert not out.exists()


class TestUsageErrors:
    def test_no_subcommand(self):
        assert cli.run([]) == 1

    def test_unknown_subcommand(self):
        assert cli.run(["frobnicate"]) == 1

    def test_missing_required_flag(self, uci_files):
        docword, vocab = uci_files
        assert cli.run(["ingest", str(docword), str(vocab)]) == 1

    @pytest.mark.parametrize("command,flag,value", [
        ("ingest", "--top-b", "0"),
        ("report", "--top-m", "0"),
        ("report", "--top-m", "-298"),
    ])
    def test_bad_top_flag(self, uci_files, fitted_setup, tmp_path, capsys,
                          command, flag, value):
        docword, vocab = uci_files
        corpus_path, _, model_path = fitted_setup
        out = tmp_path / "out"
        argv = {"ingest": ["ingest", str(docword), str(vocab), "--out", str(out)],
                "report": ["report", str(corpus_path), str(model_path),
                           "--out-dir", str(out)]}[command]
        capsys.readouterr()
        assert cli.run([*argv, flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["0", "-0.5", "1.5", "nan", "abc"])
    def test_bad_max_doc_fraction(self, tmp_path, capsys, value):
        # neither input file exists: the flag is rejected before either is opened
        out = tmp_path / "corpus.json"
        assert cli.run(["ingest", str(tmp_path / "docword.txt"), str(tmp_path / "vocab.txt"),
                        "--out", str(out), "--max-doc-fraction", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: docmix ingest ")
        assert "error: argument --max-doc-fraction: " in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--tokens", "1"], ["--docs", "5"],
                                       ["--tokens", "1", "--docs", "5"]])
    def test_select_corpus_with_counts(self, fitted_setup, tmp_path, capsys, flags):
        # n and L come only from --corpus
        corpus_path, sweep_path, _ = fitted_setup
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.run(["select", str(sweep_path), "--out", str(out), "--mode", "bic",
                        *flags, "--corpus", str(corpus_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: docmix ")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert not out.exists()

    def test_select_without_corpus_takes_no_counts(self, fitted_setup, tmp_path, capsys):
        # counts in place of the corpus: the parser asks for the corpus
        _, sweep_path, _ = fitted_setup
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.run(["select", str(sweep_path), "--out", str(out), "--mode", "theoretical",
                        "--tokens", "5000"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: --corpus\n")
        assert not out.exists()

    def test_sweep_needs_kmax_or_ladder(self, fitted_setup, tmp_path, capsys):
        corpus_path, _, _ = fitted_setup
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert cli.run(["sweep", str(corpus_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: docmix sweep ")
        assert err.endswith("error: one of the arguments --kmax --ladder is required\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        ("ingest", "--seed"), ("ingest", "--threads"), ("select", "--seed"),
        ("select", "--threads"), ("report", "--seed"), ("report", "--threads"),
        ("synth", "--seed"),
    ])
    def test_seed_and_threads_only_where_read(self, uci_files, fitted_setup, tmp_path,
                                              capsys, command, flag):
        docword, vocab = uci_files
        corpus_path, sweep_path, model_path = fitted_setup
        out = tmp_path / "out"
        argv = {"ingest": ["ingest", str(docword), str(vocab), "--out", str(out)],
                "select": ["select", str(sweep_path), "--out", str(out), "--mode", "bic",
                           "--corpus", str(corpus_path)],
                "report": ["report", str(corpus_path), str(model_path),
                           "--out-dir", str(out)],
                "synth": ["synth", str(synth_config(tmp_path)), "--out-dir", str(out)],
                }[command]
        capsys.readouterr()
        assert cli.run([*argv, flag, "1"]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "sweep", "select", "report"])
def test_run_calls_the_module_level_cmd(command, uci_files, fitted_setup, tmp_path,
                                        monkeypatch):
    # benches/tracing.py times each step by replacing cli.cmd_<name> on the module
    docword, vocab = uci_files
    corpus_path, sweep_path, model_path = fitted_setup
    argv = {
        "ingest": ["ingest", str(docword), str(vocab), "--out", str(tmp_path / "c.json")],
        "sweep": ["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                  "--ladder", "1", "--starts", "1"],
        "select": ["select", str(sweep_path), "--out", str(tmp_path / "r.json"),
                   "--mode", "bic", "--corpus", str(corpus_path)],
        "report": ["report", str(corpus_path), str(model_path),
                   "--out-dir", str(tmp_path / "report")],
    }[command]
    original = getattr(cli, f"cmd_{command}")
    calls = []

    def recorder(*args, **kwargs):
        calls.append(command)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, f"cmd_{command}", recorder)
    assert cli.run(argv) == 0
    assert calls == [command]


class TestReport:
    def test_outputs(self, planted_setup, tmp_path, capsys):
        _, corpus_path = planted_setup
        sweep_path = tmp_path / "sweep.csv"
        fits_dir = tmp_path / "fits"
        cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                 "--ladder", "2", "--starts", "3", "--fits-dir",
                 str(fits_dir)])
        model_path = fits_dir / "fit_K2.model.json"
        out_dir = tmp_path / "report"
        meta = tmp_path / "years.csv"
        corpus = load_corpus(corpus_path)
        meta.write_text("doc_id,year\n" + "".join(
            f"{doc_id},{1990 + doc_id % 5}\n" for doc_id in corpus.doc_ids))
        capsys.readouterr()
        code = cli.run(["report", str(corpus_path), str(model_path),
                        "--out-dir", str(out_dir), "--metadata", str(meta),
                        "--top-m", "4"])
        assert code == 0
        assert capsys.readouterr().out == f"wrote reports for 2 clusters to {out_dir}\n"

        with open(out_dir / "topwords.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["cluster", "rank", "word", "probability"]
        by_cluster = {}
        for cluster, rank, word, prob in rows[1:]:
            by_cluster.setdefault(int(cluster), []).append(float(prob))
        for probs in by_cluster.values():
            assert len(probs) == 4
            assert probs == sorted(probs, reverse=True)

        with open(out_dir / "clusters.csv") as handle:
            rows = list(csv.reader(handle))
        weights = [float(r[1]) for r in rows[1:]]
        assert abs(sum(weights) - 1.0) < 1e-9

        with open(out_dir / "assignments.csv") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + corpus.num_docs

        text = (out_dir / "evolution.csv").read_text()
        assert text.startswith("#")
        lines = text.splitlines()
        assert lines[1] == "year,cluster,mean_posterior"
        years = {int(r.split(",")[0]) for r in lines[2:]}
        assert years == set(1990 + d % 5 for d in corpus.doc_ids)

    def test_no_years_no_evolution(self, planted_setup, tmp_path):
        _, corpus_path = planted_setup
        sweep_path = tmp_path / "sweep.csv"
        fits_dir = tmp_path / "fits"
        cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                 "--ladder", "2", "--starts", "3", "--fits-dir",
                 str(fits_dir)])
        out_dir = tmp_path / "report"
        code = cli.run(["report", str(corpus_path),
                        str(fits_dir / "fit_K2.model.json"),
                        "--out-dir", str(out_dir)])
        assert code == 0
        assert not (out_dir / "evolution.csv").exists()

    def test_missing_year_is_noted(self, fitted_setup, tmp_path, capsys):
        corpus_path, _, model_path = fitted_setup
        corpus = load_corpus(corpus_path)
        meta = tmp_path / "years.csv"
        meta.write_text("doc_id,year\n" + "".join(
            f"{doc_id},1990\n" for doc_id in corpus.doc_ids[1:]))
        out_dir = tmp_path / "report"
        capsys.readouterr()
        code = cli.run(["report", str(corpus_path), str(model_path),
                        "--out-dir", str(out_dir), "--metadata", str(meta)])
        assert code == 0
        assert capsys.readouterr().out == (
            f"wrote reports for 2 clusters to {out_dir} (1 docs had no year)\n")
        assert (out_dir / "evolution.csv").exists()

    def test_mismatched_model_is_data_error(self, planted_setup, uci_files,
                                            tmp_path):
        _, corpus_path = planted_setup
        docword, vocab = uci_files
        other_corpus = tmp_path / "other.json"
        cli.run(["ingest", str(docword), str(vocab), "--out",
                 str(other_corpus), "--max-doc-fraction", "1.0",
                 "--top-b", "5"])
        fits_dir = tmp_path / "fits"
        cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                 "--ladder", "2", "--starts", "3", "--fits-dir",
                 str(fits_dir)])
        code = cli.run(["report", str(other_corpus),
                        str(fits_dir / "fit_K2.model.json"),
                        "--out-dir", str(tmp_path / "r")])
        assert code == 2


@pytest.fixture
def failing_rung_2(monkeypatch):
    """robust_em, as run_sweep calls it, raising DegenerateFitError at rung 2."""
    fit = selection.robust_em

    def flaky(corpus, k_max, *args, **kwargs):
        if k_max == 2:
            raise DegenerateFitError("synthetic collapse")
        return fit(corpus, k_max, *args, **kwargs)

    monkeypatch.setattr(selection, "robust_em", flaky)
    return monkeypatch


def synth_config(tmp_path, **overrides):
    config = {
        "schema_version": 1,
        "k_true": 2,
        "num_words": 10,
        "num_docs": 30,
        "length_range": [20, 50],
        "min_pairwise_kl": 1.0,
        "seeds": [0, 1],
        "ladder": [1, 2, 3, 4],
        "em": {"n_starts": 4},
    }
    config.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(config))
    return path


class TestSynth:
    def test_summary_written(self, tmp_path, capsys):
        path = synth_config(tmp_path)
        out_dir = tmp_path / "out"
        code = cli.run(["synth", str(path), "--out-dir", str(out_dir)])
        assert code == 0
        assert capsys.readouterr().out == (
            f"ran 2 seeds; summary in {out_dir / 'summary.csv'}\n")
        with open(out_dir / "summary.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["seed", "mode", "K_hat", "risk", "agreement"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            assert 0.0 <= float(row[4]) <= 1.0

    def test_every_listed_mode_matches_its_single_mode_run(self, tmp_path):
        def summary(mode, name):
            path = synth_config(tmp_path, mode=mode)
            assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / name)]) == 0
            with open(tmp_path / name / "summary.csv") as handle:
                return list(csv.reader(handle))[1:]

        rows = summary(list(MODES), "all")
        assert [(r[0], r[1]) for r in rows] == [(seed, mode) for seed in ("0", "1")
                                                for mode in MODES]
        for mode in MODES:
            assert summary(mode, mode) == [r for r in rows if r[1] == mode]

    def test_slope_theoretical_mode(self, tmp_path):
        path = synth_config(tmp_path, mode="slope-theoretical")
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "summary.csv") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [(r[0], r[1]) for r in rows] == [("0", "slope-theoretical"),
                                                ("1", "slope-theoretical")]

    @pytest.mark.parametrize("mode", ["nope", [], ["slope", "slope"], ["slope", 3],
                                      [["slope"]], {}],
                             ids=["unknown", "empty", "repeated", "number", "nested", "object"])
    def test_bad_mode_is_config_error(self, tmp_path, capsys, mode):
        path = synth_config(tmp_path, mode=mode)
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: config field 'mode'")
        assert not (tmp_path / "o").exists()

    def test_study_config_loads(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                            "compare_selection_modes.json")
        config = cli.load_synth_config(path)
        assert config["modes"] == list(MODES)
        assert config["seeds"] == list(range(10))
        assert config["ladder"] == range(1, 11)

    def test_deterministic_bytes(self, tmp_path):
        path = synth_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.run(["synth", str(path), "--out-dir", str(out_a)]) == 0
        assert cli.run(["synth", str(path), "--out-dir", str(out_b)]) == 0
        assert (out_a / "summary.csv").read_bytes() \
            == (out_b / "summary.csv").read_bytes()

    def test_k_max_expands_to_ladder(self, tmp_path):
        # bic mode: a 3-rung ladder is too short for the slope fit
        path = synth_config(tmp_path, seeds=[0], mode="bic")
        config = json.loads(path.read_text())
        del config["ladder"]
        config["k_max"] = 3
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert cli.run(["synth", str(path), "--out-dir", str(out_dir)]) == 0

    @pytest.mark.parametrize("k_max", [0, 31, 10**30])
    def test_k_max_outside_num_docs_is_config_error(self, tmp_path, capsys, k_max):
        # 10**30 is too long a range() to list
        path = synth_config(tmp_path, k_max=k_max)
        config = json.loads(path.read_text())
        del config["ladder"]
        path.write_text(json.dumps(config))
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: config field 'k_max'")

    @pytest.mark.parametrize("ladder", [[0], [31]], ids=["0", "31"])
    def test_ladder_outside_num_docs_is_config_error(self, tmp_path, capsys, ladder):
        path = synth_config(tmp_path, ladder=ladder)
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: config field 'ladder'")
        assert not (tmp_path / "o" / "summary.csv").exists()

    def test_failed_rung_is_reported(self, tmp_path, capsys, failing_rung_2):
        path = synth_config(tmp_path, seeds=[0], mode="bic")
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == "seed 0: rung 2 failed: synthetic collapse\n"
        assert (tmp_path / "o" / "summary.csv").exists()

    @pytest.mark.parametrize("field,literal", [
        ("length_range", "[50, 20]"), ("length_range", "[0, 0]"), ("k_true", "0"),
        ("num_words", "0"), ("concentration", "0"), ("concentration", "-1"),
        ("concentration", "1e400"), ("min_pairwise_kl", "1e400"), ("min_pairwise_kl", "1e6"),
        ("num_docs", "0"), ("seeds", "[]"),
    ], ids=["length-reversed", "length-zero", "k-true-zero", "num-words-zero",
            "concentration-zero", "concentration-negative", "concentration-overflow",
            "kl-overflow-literal", "kl-unreachable", "num-docs-zero", "seeds-empty"])
    def test_value_out_of_range_is_config_error(self, tmp_path, capsys, field, literal):
        # 1e400 is a valid JSON number that parses to inf
        path = synth_config(tmp_path, **{field: "VALUE"})
        path.write_text(path.read_text().replace('"VALUE"', literal))
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config field '{field}'")
        assert not (tmp_path / "o").exists()

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        path.write_text("[]")
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config field '(file)': top level must be an object\n")

    def test_ladder_or_k_max_required(self, tmp_path, capsys):
        path = synth_config(tmp_path)
        config = json.loads(path.read_text())
        del config["ladder"]
        path.write_text(json.dumps(config))
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'ladder': missing (provide ladder or k_max)\n")

    def test_bad_schema_version(self, tmp_path):
        path = synth_config(tmp_path, schema_version=2)
        assert cli.run(["synth", str(path), "--out-dir",
                        str(tmp_path / "o")]) == 2

    def test_missing_key(self, tmp_path):
        path = synth_config(tmp_path)
        config = json.loads(path.read_text())
        del config["k_true"]
        path.write_text(json.dumps(config))
        assert cli.run(["synth", str(path), "--out-dir",
                        str(tmp_path / "o")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "synth.json"
        for text in ["{broken", "[" * 100_000]:  # the second one nests too deeply
            path.write_text(text)
            assert cli.run(["synth", str(path), "--out-dir",
                            str(tmp_path / "o")]) == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        path = synth_config(tmp_path, seeds=[0, -1])
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'seeds': expected a nonempty list of integers >= 0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"min_pairwise_kll": 1e6}, "config field 'min_pairwise_kll': unknown field"),
        ({"epsilon": 0.01}, "config field 'epsilon': unknown field"),
        ({"k_max": 99999}, "config field 'k_max': give ladder or k_max, not both"),
        ({"em": 5}, "config field 'em': expected an object of EmConfig overrides"),
        ({"em": {"rng_seed": 7}},
         "config field 'em.rng_seed': not a field here: each entry of seeds sets it"),
        ({"em": {"init_noise_scale": 4.0}}, "config field 'em.init_noise_scale': unknown field"),
        ({"em": {"n_starts": 0}}, "config field 'em.n_starts': must be >= 1"),
        ({"em": {"short_iters": 5}}, "config field 'em.short_iters': unknown field"),
        ({"em": {"max_iters": 5}}, "config field 'em.max_iters': unknown field"),
        ({"em": {"rel_tol": 1e-3}}, "config field 'em.rel_tol': unknown field"),
    ], ids=["typo", "epsilon", "ladder-and-k-max", "em-not-object", "em-rng-seed",
            "em-noise-scale", "em-starts-zero", "em-short-iters", "em-max-iters",
            "em-rel-tol"])
    def test_field_rejected_before_any_output(self, tmp_path, capsys, overrides, message):
        # a field the loader would not read, or would read without checking
        path = synth_config(tmp_path, **overrides)
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_bad_em_override(self, tmp_path, capsys):
        path = synth_config(tmp_path, em={"bogus_knob": 1})
        assert cli.run(["synth", str(path), "--out-dir",
                        str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'em.bogus_knob': unknown field\n")

    @pytest.mark.parametrize("field,value", [
        ("min_pairwise_kl", [1]), ("concentration", None), ("min_pairwise_kl", 10**400),
        ("epsilon", "x"), ("epsilon", 1.5), ("em", {"n_starts": 2.5}),
    ], ids=["kl-list", "concentration-null", "kl-overflow", "epsilon-text", "epsilon-range",
            "em-starts-float"])
    def test_bad_number_is_config_error(self, tmp_path, capsys, field, value):
        path = synth_config(tmp_path, **{field: value})
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config field '{field}")

    @pytest.mark.parametrize("field,value,name", [
        ("em", {"n_starts": math.inf}, "Infinity"),
        ("min_pairwise_kl", math.nan, "NaN"), ("concentration", math.inf, "Infinity"),
    ], ids=["em-infinity", "kl-nan", "concentration-infinity"])
    def test_non_finite_constant_is_config_error(self, tmp_path, capsys, field, value, name):
        path = synth_config(tmp_path, **{field: value})
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: config field '(file)': not valid JSON: bare {name} is not JSON\n")

    def test_slope_mode_names_dimensions_and_way_out(self, tmp_path, capsys):
        # MML rungs of the 1..4 ladder collapse onto two realized dimensions
        path = synth_config(tmp_path, seeds=[0], em={"n_starts": 4, "annihilation": "mml"})
        assert cli.run(["synth", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.search(r"at least 4 distinct dimensions, got 2 \(D_K = \d+, \d+\)", err)
        assert "use --mode aic|bic|theoretical or a wider ladder" in err

    def test_annihilation_rule_reaches_em(self, tmp_path):
        # bic mode: MML rungs collapse onto fewer realized K than the
        # slope fit needs
        path = synth_config(tmp_path, seeds=[0], mode="bic",
                            em={"annihilation": "mml"})
        assert cli.load_synth_config(path)["em"].annihilation == "mml"
        assert cli.run(["synth", str(path), "--out-dir",
                        str(tmp_path / "o")]) == 0
        path = synth_config(tmp_path, em={"annihilation": "bogus"})
        assert cli.run(["synth", str(path), "--out-dir",
                        str(tmp_path / "o2")]) == 2


def documented_commands() -> list[list[str]]:
    """Each ``docmix ...`` line of README's sh blocks and scripts/nips_pipeline.sh,
    continuations joined and every $VAR or ${VAR} replaced by 1."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        texts = re.findall(r"^```sh\n(.*?)^```", handle.read(), re.M | re.S)
    with open(os.path.join(root, "scripts", "nips_pipeline.sh"), encoding="utf-8") as handle:
        texts.append(handle.read())
    commands = []
    for text in texts:
        for line in text.replace("\\\n", " ").splitlines():
            line = re.sub(r"\$\{[^}]*\}|\$\w+", "1", line).strip()
            if line.startswith("docmix "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_documented_command_lines_parse():
    # a flag deleted from the parser must not live on in the docs
    commands = documented_commands()
    assert {argv[0] for argv in commands} == {"ingest", "sweep", "select", "report"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"documented command does not parse: docmix {shlex.join(argv)}")


def test_documented_flags_exist():
    # a flag deleted from the parser must not live on in README's prose either
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    flag = r"(?<![\w-])--[a-z][a-z0-9-]*"
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        spans = re.findall(r"(?<!`)`([^`\n]+)`(?!`)", handle.read())
    with open(os.path.join(root, "scripts", "nips_pipeline.sh"), encoding="utf-8") as handle:
        named = set(re.findall(flag, handle.read()))
    named.update(name for span in spans for name in re.findall(flag, span))
    assert "--corpus" in named and sorted(named - parser_options()) == []


def test_every_flag_is_documented():
    # the converse: no option of any subcommand goes unnamed in README.md
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    missing = [option for option in sorted(parser_options() - {"-h", "--help"})
               if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)]
    assert missing == []


def parser_options() -> set[str]:
    """Every option string of every subcommand of cli.build_parser()."""
    [subcommands] = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return {option for parser in subcommands.choices.values()
            for action in parser._actions for option in action.option_strings}


def test_documented_modes_match():
    # README's "Selection modes" bullets name the modes select accepts, in order
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        [bullets] = re.findall(r"^Selection modes:\n\n(.*?)\n\n", handle.read(), re.M | re.S)
    assert tuple(re.findall(r"^- `([^`]+)`", bullets, re.M)) == MODES
