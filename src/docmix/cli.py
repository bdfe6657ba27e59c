"""Command-line pipeline: ingest, sweep, select, report, synth.

Every command is deterministic given its flags and --seed. Exit codes:
0 success, 1 usage, 2 data error, 3 numerical failure. All files are
written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .corpus import (
    Corpus,
    atomic_write_text,
    load_corpus,
    load_year_sidecar,
    parse_bag_of_words,
    prune_vocabulary,
    save_corpus,
)
from .em import EmConfig, e_step, save_fit
from .errors import (
    ConfigError,
    DegenerateFitError,
    DocmixError,
    NumericalError,
)
from .mixture import MixtureModel, load_model, map_assign
from .selection import (
    SelectionReport,
    SweepResult,
    derive_seed,
    dumps_selection_report,
    load_sweep,
    run_sweep,
    save_sweep,
    select_from_sweep,
)
from .synth import evaluate_run, generate_corpus, planted_mixture

SYNTH_SCHEMA_VERSION = 1


def cmd_ingest(docword_path, vocab_path, max_doc_fraction: float, top_b: int,
               out_path) -> Corpus:
    with open(docword_path, encoding="utf-8") as docword:
        with open(vocab_path, encoding="utf-8") as vocab:
            corpus = parse_bag_of_words(docword, vocab)
    pruned = prune_vocabulary(corpus, max_doc_fraction, top_b)
    save_corpus(pruned, out_path)
    return pruned


def cmd_sweep(corpus_path, k_ladder, config: EmConfig, out_path,
              epsilon: float | None = None, threads: int = 1,
              fits_dir=None) -> tuple[SweepResult, list[tuple[int, str]]]:
    corpus = load_corpus(corpus_path)
    sweep, failures = run_sweep(corpus, k_ladder, config,
                                epsilon=epsilon, threads=threads)
    save_sweep(sweep, out_path)
    if fits_dir is not None:
        os.makedirs(fits_dir, exist_ok=True)
        for entry in sweep.entries:
            if entry.fit is None:
                continue
            stem = os.path.join(fits_dir, f"fit_K{entry.num_comps}")
            save_fit(entry.fit, stem + ".model.json", stem + ".runlog.json", config)
    return sweep, failures


def cmd_select(sweep_csv_path, mode: str, out_path, *,
               total_tokens: int | None = None, num_docs: int | None = None,
               corpus_path=None, multiplier: float = 1.0,
               plateau_tol: float = 0.05,
               slope_shape: str = "dimension") -> SelectionReport:
    sweep = load_sweep(sweep_csv_path)
    if corpus_path is not None:
        corpus = load_corpus(corpus_path)
        total_tokens = corpus.total_tokens
        num_docs = corpus.num_docs
    report = select_from_sweep(sweep, mode, total_tokens=total_tokens,
                               num_docs=num_docs, multiplier=multiplier,
                               plateau_tol=plateau_tol, slope_shape=slope_shape)
    atomic_write_text(out_path, dumps_selection_report(report))
    return report


@dataclass(frozen=True)
class TopicReport:
    top_words: tuple[tuple[tuple[str, float], ...], ...]
    cluster_weights: tuple[float, ...]
    yearly: tuple[tuple[int, tuple[float, ...]], ...] | None
    docs_without_year: int


def build_topic_report(corpus: Corpus, model: MixtureModel,
                       years: dict[int, int] | None, top_m: int) -> TopicReport:
    densities = model.densities
    top_words = []
    for k in range(model.num_components):
        order = np.argsort(-densities[k], kind="stable")[:top_m]
        top_words.append(tuple(
            (corpus.vocab[int(b)], float(densities[k][b])) for b in order
        ))

    yearly = None
    missing = 0
    if years is not None:
        resp, _ = e_step(corpus, model)
        by_year: dict[int, list[int]] = {}
        for row, doc_id in enumerate(corpus.doc_ids):
            year = years.get(doc_id)
            if year is None:
                missing += 1
            else:
                by_year.setdefault(year, []).append(row)
        yearly = tuple(
            (year, tuple(resp[rows].mean(axis=0).tolist()))
            for year, rows in sorted(by_year.items())
        )
    return TopicReport(
        top_words=tuple(top_words),
        cluster_weights=tuple(model.pi.tolist()),
        yearly=yearly,
        docs_without_year=missing,
    )


def cmd_report(corpus_path, model_path, out_dir, metadata_path=None,
               top_m: int = 12) -> TopicReport:
    corpus = load_corpus(corpus_path)
    model = load_model(model_path)
    if model.num_words != corpus.num_words:
        raise ValueError(
            f"model has {model.num_words} words but corpus has {corpus.num_words}"
        )
    years = None
    if metadata_path is not None:
        years = load_year_sidecar(metadata_path)
    elif corpus.doc_years is not None:
        years = corpus.doc_years
    report = build_topic_report(corpus, model, years, top_m)

    os.makedirs(out_dir, exist_ok=True)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["cluster", "rank", "word", "probability"])
    for k, words in enumerate(report.top_words):
        for rank, (word, prob) in enumerate(words, start=1):
            writer.writerow([k, rank, word, repr(prob)])
    atomic_write_text(os.path.join(out_dir, "topwords.csv"), buffer.getvalue())

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["cluster", "weight"])
    for k, weight in enumerate(report.cluster_weights):
        writer.writerow([k, repr(weight)])
    atomic_write_text(os.path.join(out_dir, "clusters.csv"), buffer.getvalue())

    labels = map_assign(corpus, model).labels
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["doc_id", "cluster"])
    for doc_id, label in zip(corpus.doc_ids, labels.tolist()):
        writer.writerow([doc_id, label])
    atomic_write_text(os.path.join(out_dir, "assignments.csv"), buffer.getvalue())

    if report.yearly is not None:
        buffer = io.StringIO()
        buffer.write("# per-year mean of per-document posteriors;"
                     " documents are unweighted by length\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["year", "cluster", "mean_posterior"])
        for year, means in report.yearly:
            for k, mean in enumerate(means):
                writer.writerow([year, k, repr(mean)])
        atomic_write_text(os.path.join(out_dir, "evolution.csv"), buffer.getvalue())
    return report


def _require(config: dict, key: str, kind, where: str = ""):
    if key not in config:
        raise ConfigError("missing", field=where + key)
    value = config[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}",
                          field=where + key)
    return value


def load_synth_config(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}", field="(file)") from exc
    if not isinstance(config, dict):
        raise ConfigError("top level must be an object", field="(file)")
    if config.get("schema_version") != SYNTH_SCHEMA_VERSION:
        raise ConfigError(f"must be {SYNTH_SCHEMA_VERSION}", field="schema_version")
    out = {
        "k_true": _require(config, "k_true", int),
        "num_words": _require(config, "num_words", int),
        "num_docs": _require(config, "num_docs", int),
        "seeds": _require(config, "seeds", list),
        "min_pairwise_kl": float(config.get("min_pairwise_kl", 0.0)),
        "mode": config.get("mode", "slope"),
        "concentration": float(config.get("concentration", 1.0)),
        "epsilon": config.get("epsilon"),
    }
    length_range = _require(config, "length_range", list)
    if (len(length_range) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in length_range)):
        raise ConfigError("expected [min, max] integers", field="length_range")
    out["length_range"] = (length_range[0], length_range[1])
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in out["seeds"]):
        raise ConfigError("expected a list of integers", field="seeds")
    if "ladder" in config:
        ladder = config["ladder"]
        if (not isinstance(ladder, list) or not ladder
                or not all(isinstance(k, int) and not isinstance(k, bool) for k in ladder)):
            raise ConfigError("expected a nonempty list of integers", field="ladder")
        out["ladder"] = list(ladder)
    elif "k_max" in config:
        k_max = _require(config, "k_max", int)
        if k_max < 1:
            raise ConfigError("must be >= 1", field="k_max")
        out["ladder"] = list(range(1, k_max + 1))
    else:
        raise ConfigError("missing (provide ladder or k_max)", field="ladder")
    em_overrides = config.get("em", {})
    if not isinstance(em_overrides, dict):
        raise ConfigError("expected an object of EmConfig overrides", field="em")
    try:
        out["em"] = EmConfig(**em_overrides)
    except TypeError as exc:
        raise ConfigError(str(exc), field="em") from exc
    if out["mode"] not in ("slope", "theoretical", "aic", "bic"):
        raise ConfigError(f"unknown mode {out['mode']!r}", field="mode")
    return out


def cmd_synth(config_path, out_dir, threads: int = 1) -> list[dict]:
    """Generate, sweep, select, and evaluate once per seed; write summary.csv."""
    config = load_synth_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for seed in config["seeds"]:
        mixture = planted_mixture(
            config["k_true"], config["num_words"],
            seed=np.random.SeedSequence((seed, 1)),
            min_pairwise_kl=config["min_pairwise_kl"],
            concentration=config["concentration"],
        )
        planted = generate_corpus(mixture, config["num_docs"],
                                  config["length_range"],
                                  seed=np.random.SeedSequence((seed, 2)))
        em_config = replace(config["em"], rng_seed=derive_seed(seed, 3))
        sweep, failures = run_sweep(planted.corpus, config["ladder"], em_config,
                                    epsilon=config["epsilon"], threads=threads)
        for k_max, message in failures:
            print(f"seed {seed}: rung {k_max} failed: {message}", file=sys.stderr)
        report = select_from_sweep(sweep, config["mode"],
                                   total_tokens=planted.corpus.total_tokens,
                                   num_docs=planted.corpus.num_docs)
        chosen = next(e for e in sweep.entries if e.num_comps == report.k_hat)
        evaluation = evaluate_run(planted, chosen.fit)
        rows.append({
            "seed": seed,
            "K_hat": report.k_hat,
            "risk": float(evaluation.risk),
            "agreement": float(evaluation.agreement),
        })
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["seed", "K_hat", "risk", "agreement"])
    for row in rows:
        writer.writerow([row["seed"], row["K_hat"],
                         repr(row["risk"]), repr(row["agreement"])])
    atomic_write_text(os.path.join(out_dir, "summary.csv"), buffer.getvalue())
    return rows


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _epsilon_flag(value: str):
    if value == "1/n":
        return None
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected '1/n' or a float in (0, 1), got {value!r}"
        ) from None
    if not 0 < parsed < 1:
        raise argparse.ArgumentTypeError(f"floor must be in (0, 1), got {parsed}")
    return parsed


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {parsed}")
    return parsed


def _ladder_flag(value: str) -> list[int]:
    try:
        ladder = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None
    if not ladder:
        raise argparse.ArgumentTypeError("ladder is empty")
    if min(ladder) < 1:
        raise argparse.ArgumentTypeError(
            f"ladder entries must be at least 1, got {value!r}")
    return ladder


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads for each rung's short starts, which "
                             "run in lockstep groups (at least one per thread); "
                             "results do not depend on it (default 1)")

    em_flags = _Parser(add_help=False)
    em_flags.add_argument("--starts", type=_positive_int, default=15,
                          help="number of short-EM starts (default 15)")
    em_flags.add_argument("--short-iters", type=_positive_int, default=10,
                          help="iterations per short run (default 10)")
    em_flags.add_argument("--max-iters", type=_positive_int, default=500,
                          help="cap on full-EM iterations (default 500)")
    em_flags.add_argument("--rel-tol", type=float, default=1e-6,
                          help="relative loglik stall tolerance (default 1e-6)")
    em_flags.add_argument("--noise-scale", type=float, default=1.0,
                          help="lognormal sigma of the random-start densities")
    em_flags.add_argument("--epsilon", type=_epsilon_flag, default=None,
                          help="density floor: '1/n' (default) or a float in (0,1)")

    parser = _Parser(prog="docmix",
                     description="Mixture clustering of count vectors with "
                                 "penalized selection of the component count")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse and prune a bag-of-words corpus")
    p.add_argument("docword", help="docword file: D, W, NNZ headers then triples")
    p.add_argument("vocab", help="vocabulary file, one token per line")
    p.add_argument("--out", required=True, help="output corpus path")
    p.add_argument("--max-doc-fraction", type=float, default=0.8,
                   help="drop words in more than this fraction of docs (default 0.8)")
    p.add_argument("--top-b", type=int, default=300,
                   help="keep this many most frequent words (default 300)")
    p.set_defaults(func=_run_ingest)

    p = sub.add_parser("sweep", parents=[common, em_flags],
                       help="fit a ladder of component counts")
    p.add_argument("corpus", help="corpus file from ingest")
    p.add_argument("--out", required=True, help="output sweep CSV path")
    p.add_argument("--kmax", type=_positive_int, default=None,
                   help="run the ladder 1..kmax")
    p.add_argument("--ladder", type=_ladder_flag, default=None,
                   help="explicit comma-separated ladder (overrides --kmax)")
    p.add_argument("--fits-dir", default=None,
                   help="also save per-K model and run-log files here")
    p.set_defaults(func=_run_sweep)

    p = sub.add_parser("select", parents=[common],
                       help="pick the component count from a sweep CSV")
    p.add_argument("sweep", help="sweep CSV from the sweep command")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--mode", choices=["slope", "theoretical", "aic", "bic"],
                   default="slope")
    p.add_argument("--corpus", default=None,
                   help="corpus file, read for token/doc counts")
    p.add_argument("--tokens", type=int, default=None,
                   help="total token count when no corpus file is given")
    p.add_argument("--docs", type=int, default=None,
                   help="document count when no corpus file is given")
    p.add_argument("--multiplier", type=float, default=1.0,
                   help="penalty multiplier for theoretical mode")
    p.add_argument("--plateau-tol", type=float, default=0.05,
                   help="relative slope-change tolerance (default 0.05)")
    p.add_argument("--slope-shape", choices=["dimension", "theoretical"],
                   default="dimension",
                   help="penalty shape used by slope mode")
    p.set_defaults(func=_run_select)

    p = sub.add_parser("report", parents=[common],
                       help="top words, assignments, and yearly evolution")
    p.add_argument("corpus", help="corpus file from ingest")
    p.add_argument("model", help="model file from sweep --fits-dir")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--metadata", default=None, help="doc_id,year CSV sidecar")
    p.add_argument("--top-m", type=int, default=12,
                   help="words listed per cluster (default 12)")
    p.set_defaults(func=_run_report)

    p = sub.add_parser("synth", parents=[common],
                       help="planted-mixture experiment from a config file")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_run_synth)
    return parser


def _run_ingest(args) -> None:
    corpus = cmd_ingest(args.docword, args.vocab, args.max_doc_fraction,
                        args.top_b, args.out)
    print(f"ingested {corpus.num_docs} docs, {corpus.num_words} words, "
          f"{corpus.total_tokens} tokens "
          f"({len(corpus.dropped_doc_ids)} docs emptied by pruning)")


def _em_config_from(args) -> EmConfig:
    return EmConfig(
        n_starts=args.starts,
        short_iters=args.short_iters,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        rng_seed=args.seed,
        init_noise_scale=args.noise_scale,
    )


def _run_sweep(args) -> None:
    ladder = args.ladder if args.ladder is not None else list(range(1, args.kmax + 1))
    sweep, failures = cmd_sweep(args.corpus, ladder, _em_config_from(args),
                                args.out, epsilon=args.epsilon,
                                threads=args.threads, fits_dir=args.fits_dir)
    for k_max, message in failures:
        print(f"rung {k_max} failed: {message}", file=sys.stderr)
    print(f"swept {len(ladder)} rungs into {len(sweep)} distinct K "
          f"({len(failures)} failures)")


def _run_select(args) -> None:
    report = cmd_select(args.sweep, args.mode, args.out,
                        total_tokens=args.tokens, num_docs=args.docs,
                        corpus_path=args.corpus, multiplier=args.multiplier,
                        plateau_tol=args.plateau_tol,
                        slope_shape=args.slope_shape)
    lam = "" if report.lambda_min is None else f", lambda_min={report.lambda_min:.6g}"
    print(f"K_hat={report.k_hat} (mode={report.mode}{lam})")


def _run_report(args) -> None:
    report = cmd_report(args.corpus, args.model, args.out_dir,
                        metadata_path=args.metadata, top_m=args.top_m)
    note = ""
    if report.yearly is not None and report.docs_without_year:
        note = f" ({report.docs_without_year} docs had no year)"
    print(f"wrote reports for {len(report.cluster_weights)} clusters "
          f"to {args.out_dir}{note}")


def _run_synth(args) -> None:
    rows = cmd_synth(args.config, args.out_dir, threads=args.threads)
    print(f"ran {len(rows)} seeds; summary in "
          f"{os.path.join(args.out_dir, 'summary.csv')}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.kmax is None and args.ladder is None:
        parser.error("sweep needs --kmax or --ladder")
    try:
        args.func(args)
    except (NumericalError, DegenerateFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DocmixError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run(argv=None) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(run())
