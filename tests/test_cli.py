import csv
import json
import os

import numpy as np
import pytest

import docmix.cli as cli
from docmix.corpus import load_corpus, save_corpus
from docmix.em import EmConfig
from docmix.errors import NumericalError
from docmix.mixture import load_model
from docmix.synth import generate_corpus, planted_mixture


@pytest.fixture
def planted_setup(tmp_path):
    mix = planted_mixture(2, 10, seed=np.random.SeedSequence((5, 31)),
                          min_pairwise_kl=1.0)
    planted = generate_corpus(mix, 40, (20, 60),
                              seed=np.random.SeedSequence((5, 32)))
    corpus_path = tmp_path / "corpus.json"
    save_corpus(planted.corpus, corpus_path)
    return planted, corpus_path


class TestIngest:
    def test_end_to_end(self, uci_files, tmp_path):
        docword, vocab = uci_files
        out = tmp_path / "corpus.json"
        code = cli.run(["ingest", str(docword), str(vocab), "--out", str(out)])
        assert code == 0
        corpus = load_corpus(out)
        assert corpus.num_docs == 3
        assert corpus.num_words == 5

    def test_prune_flags(self, uci_files, tmp_path):
        docword, vocab = uci_files
        out = tmp_path / "corpus.json"
        # "alpha" appears in 2 of 3 docs; a 0.5 ceiling removes it
        code = cli.run(["ingest", str(docword), str(vocab), "--out", str(out),
                        "--max-doc-fraction", "0.5", "--top-b", "2"])
        assert code == 0
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
    def test_pipeline(self, planted_setup, tmp_path):
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

    def test_ladder_flag(self, planted_setup, tmp_path):
        _, corpus_path = planted_setup
        sweep_path = tmp_path / "sweep.csv"
        code = cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                        "--ladder", "1,2,3", "--starts", "3"])
        assert code == 0
        with open(sweep_path) as handle:
            assert len(list(csv.reader(handle))) <= 4

    def test_ladder_overrides_kmax(self, planted_setup, tmp_path, capsys):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "3",
                        "--ladder", "1,2"])
        assert code == 0
        # two rungs, not three: the explicit ladder wins
        assert "swept 2 rungs" in capsys.readouterr().out

    def test_select_aic_needs_tokens(self, planted_setup, tmp_path):
        _, corpus_path = planted_setup
        sweep_path = tmp_path / "sweep.csv"
        cli.run(["sweep", str(corpus_path), "--out", str(sweep_path),
                 "--ladder", "1,2,3,4", "--starts", "3"])
        code = cli.run(["select", str(sweep_path), "--out",
                        str(tmp_path / "r.json"), "--mode", "aic"])
        assert code == 2
        code = cli.run(["select", str(sweep_path), "--out",
                        str(tmp_path / "r.json"), "--mode", "aic",
                        "--tokens", "100000"])
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
        (["--kmax", "2", "--short-iters", "0"], "--short-iters"),
        (["--kmax", "2", "--max-iters", "-1"], "--max-iters"),
        (["--ladder", "0,1"], "--ladder"),
        ([], "--kmax"),
    ])
    def test_bad_count_flag_is_a_usage_error(self, planted_setup, tmp_path, flags,
                                             named, capsys):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out", str(tmp_path / "s.csv"),
                        *flags])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_bad_epsilon_flag(self, planted_setup, tmp_path):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "2",
                        "--epsilon", "1.5"])
        assert code == 1

    def test_epsilon_default_token(self, planted_setup, tmp_path):
        _, corpus_path = planted_setup
        code = cli.run(["sweep", str(corpus_path), "--out",
                        str(tmp_path / "s.csv"), "--kmax", "2",
                        "--starts", "3", "--epsilon", "1/n"])
        assert code == 0

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


class TestUsageErrors:
    def test_no_subcommand(self):
        assert cli.run([]) == 1

    def test_unknown_subcommand(self):
        assert cli.run(["frobnicate"]) == 1

    def test_missing_required_flag(self, uci_files):
        docword, vocab = uci_files
        assert cli.run(["ingest", str(docword), str(vocab)]) == 1


class TestReport:
    def test_outputs(self, planted_setup, tmp_path):
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
        code = cli.run(["report", str(corpus_path), str(model_path),
                        "--out-dir", str(out_dir), "--metadata", str(meta),
                        "--top-m", "4"])
        assert code == 0

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
    def test_summary_written(self, tmp_path):
        path = synth_config(tmp_path)
        out_dir = tmp_path / "out"
        code = cli.run(["synth", str(path), "--out-dir", str(out_dir)])
        assert code == 0
        with open(out_dir / "summary.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["seed", "K_hat", "risk", "agreement"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            assert 0.0 <= float(row[3]) <= 1.0

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
        path.write_text("{broken")
        assert cli.run(["synth", str(path), "--out-dir",
                        str(tmp_path / "o")]) == 2

    def test_bad_em_override(self, tmp_path):
        path = synth_config(tmp_path, em={"bogus_knob": 1})
        assert cli.run(["synth", str(path), "--out-dir",
                        str(tmp_path / "o")]) == 2

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
