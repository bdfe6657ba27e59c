"""Command-line pipeline: ingest, sweep, select, report, synth.

Every command is deterministic given its inputs and flags. Exit codes:
0 success, 1 usage, 2 data error, 3 numerical failure. All files are
written atomically (temp file + rename). Each subcommand is one
``cmd_<name>(args)``, looked up when ``build_parser`` runs; the parser
owns every flag rule. Each input has one way in: every fit's floor is
1/n for n tokens, ``select`` reads n and L only from its required
``--corpus`` and its rule only from ``--mode``, which names the whole
penalty, and document years come only from ``report --metadata``. The
EM schedule (10 short iterations, 500 M-steps, stall tolerance 1e-6),
the random starts' noise, the threshold rule's divisor and slope mode's
plateau tolerance are constants: no flag or config field sets them.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .corpus import (
    atomic_write_text,
    load_corpus,
    load_year_sidecar,
    loads_strict_json,
    parse_bag_of_words,
    prune_vocabulary,
    save_corpus,
)
from .em import EmConfig, dumps_run_log, e_step
from .errors import (
    ConfigError,
    DegenerateFitError,
    DocmixError,
    NumericalError,
)
from .mixture import load_model, map_assign, save_model
from .selection import (
    MODES,
    derive_seed,
    dumps_selection_report,
    load_sweep,
    run_sweep,
    save_sweep,
    select_from_sweep,
)
from .synth import evaluate_run, generate_corpus, planted_mixture

SYNTH_SCHEMA_VERSION = 1
SYNTH_FIELDS = ("schema_version", "k_true", "num_words", "num_docs", "seeds", "min_pairwise_kl",
                "concentration", "length_range", "ladder", "k_max", "em", "mode")


def cmd_ingest(args) -> None:
    with open(args.docword, encoding="utf-8") as docword:
        with open(args.vocab, encoding="utf-8") as vocab:
            corpus = parse_bag_of_words(docword, vocab)
    pruned = prune_vocabulary(corpus, args.max_doc_fraction, args.top_b)
    save_corpus(pruned, args.out)
    print(f"ingested {pruned.num_docs} docs, {pruned.num_words} words, "
          f"{pruned.total_tokens} tokens "
          f"({len(pruned.dropped_doc_ids)} docs emptied by pruning)")


def cmd_sweep(args) -> None:
    # --kmax stays a range: an oversized one is rejected below, never listed
    ladder = args.ladder or range(1, args.kmax + 1)
    config = EmConfig(n_starts=args.starts, rng_seed=args.seed)
    corpus = load_corpus(args.corpus)
    k_top = max(args.ladder) if args.ladder else args.kmax
    if k_top > corpus.num_docs:
        raise ValueError(f"rung K={k_top} exceeds num_docs = {corpus.num_docs}")
    sweep, failures = run_sweep(corpus, ladder, config, threads=args.threads)
    save_sweep(sweep, args.out)
    if args.fits_dir is not None:
        os.makedirs(args.fits_dir, exist_ok=True)
        for entry in sweep.entries:
            stem = os.path.join(args.fits_dir, f"fit_K{entry.num_comps}")
            save_model(entry.fit.model, stem + ".model.json")
            atomic_write_text(stem + ".runlog.json", dumps_run_log(entry.fit, config))
    for k_max, message in failures:
        print(f"rung {k_max} failed: {message}", file=sys.stderr)
    print(f"swept {len(set(ladder))} rungs into {len(sweep)} distinct K "
          f"({len(failures)} failures)")


def cmd_select(args) -> None:
    sweep = load_sweep(args.sweep)
    corpus = load_corpus(args.corpus)
    for e in sweep.entries:
        if e.dimension != e.num_comps * corpus.num_words:
            raise ValueError(f"sweep row K={e.num_comps} has D_K = {e.dimension}, not "
                             f"K x B = {e.num_comps * corpus.num_words} for this corpus")
    report = select_from_sweep(sweep, args.mode, total_tokens=corpus.total_tokens,
                               num_docs=corpus.num_docs)
    atomic_write_text(args.out, dumps_selection_report(report))
    lam = "" if report.lambda_min is None else f", lambda_min={report.lambda_min:.6g}"
    print(f"K_hat={report.k_hat} (mode={report.mode}{lam})")


def cmd_report(args) -> None:
    corpus = load_corpus(args.corpus)
    model = load_model(args.model)
    if model.num_words != corpus.num_words:
        raise ValueError(
            f"model has {model.num_words} words but corpus has {corpus.num_words}"
        )
    years = None if args.metadata is None else load_year_sidecar(args.metadata)

    # everything that can fail runs before the first file is written
    densities = model.densities
    top_words = []
    for k in range(model.num_components):
        order = np.argsort(-densities[k], kind="stable")[:args.top_m]
        top_words.extend([k, rank, corpus.vocab[int(b)], repr(float(densities[k][b]))]
                         for rank, b in enumerate(order, start=1))
    evolution = None
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
        evolution = [[year, k, repr(mean)] for year, rows in sorted(by_year.items())
                     for k, mean in enumerate(resp[rows].mean(axis=0).tolist())]
    labels = map_assign(corpus, model)

    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(os.path.join(args.out_dir, "topwords.csv"),
               ["cluster", "rank", "word", "probability"], top_words)
    _write_csv(os.path.join(args.out_dir, "clusters.csv"), ["cluster", "weight"],
               ([k, repr(weight)] for k, weight in enumerate(model.pi.tolist())))
    _write_csv(os.path.join(args.out_dir, "assignments.csv"), ["doc_id", "cluster"],
               zip(corpus.doc_ids, labels.tolist()))
    if evolution is not None:
        _write_csv(os.path.join(args.out_dir, "evolution.csv"),
                   ["year", "cluster", "mean_posterior"], evolution,
                   preamble="# per-year mean of per-document posteriors;"
                            " documents are unweighted by length\n")
    note = f" ({missing} docs had no year)" if missing else ""
    print(f"wrote reports for {model.num_components} clusters "
          f"to {args.out_dir}{note}")


def _write_csv(path, header: list[str], rows, preamble: str = "") -> None:
    buffer = io.StringIO()
    buffer.write(preamble)
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    atomic_write_text(path, buffer.getvalue())


def _require(config: dict, key: str, kind, where: str = ""):
    if key not in config:
        raise ConfigError("missing", field=where + key)
    value = config[key]
    allowed = (int, float) if kind is float else kind  # a JSON integer is a float too
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}",
                          field=where + key)
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError("out of range for a float", field=where + key) from None
    return value


def _optional(config: dict, key: str, kind, default):
    return _require(config, key, kind) if key in config else default


def load_synth_config(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            config = loads_strict_json(handle.read())
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ConfigError(f"not valid JSON: {exc}", field="(file)") from exc
    if not isinstance(config, dict):
        raise ConfigError("top level must be an object", field="(file)")
    if config.get("schema_version") != SYNTH_SCHEMA_VERSION:
        raise ConfigError(f"must be {SYNTH_SCHEMA_VERSION}", field="schema_version")
    if unknown := [key for key in config if key not in SYNTH_FIELDS]:
        raise ConfigError("unknown field", field=unknown[0])
    out = {
        "k_true": _require(config, "k_true", int),
        "num_words": _require(config, "num_words", int),
        "num_docs": _require(config, "num_docs", int),
        "seeds": _require(config, "seeds", list),
        "min_pairwise_kl": _optional(config, "min_pairwise_kl", float, 0.0),
        "concentration": _optional(config, "concentration", float, 1.0),
    }
    for key in ("k_true", "num_words", "num_docs"):
        if out[key] < 1:
            raise ConfigError("must be >= 1", field=key)
    if not 0 < out["concentration"] < math.inf:
        raise ConfigError("must be finite and > 0", field="concentration")
    if not math.isfinite(out["min_pairwise_kl"]):
        raise ConfigError("must be finite", field="min_pairwise_kl")
    length_range = _require(config, "length_range", list)
    if (len(length_range) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in length_range)
            or not 1 <= length_range[0] <= length_range[1]):
        raise ConfigError("expected [min, max] integers with 1 <= min <= max",
                          field="length_range")
    out["length_range"] = (length_range[0], length_range[1])
    if not out["seeds"] or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                                   for s in out["seeds"]):
        raise ConfigError("expected a nonempty list of integers >= 0", field="seeds")
    if "ladder" in config and "k_max" in config:
        raise ConfigError("give ladder or k_max, not both", field="k_max")
    if "ladder" in config:
        ladder = config["ladder"]
        if (not isinstance(ladder, list) or not ladder
                or not all(isinstance(k, int) and not isinstance(k, bool) for k in ladder)):
            raise ConfigError("expected a nonempty list of integers", field="ladder")
        if not all(1 <= k <= out["num_docs"] for k in ladder):
            raise ConfigError(f"entries must be in 1..num_docs = {out['num_docs']}",
                              field="ladder")
        out["ladder"] = list(ladder)
    elif "k_max" in config:
        k_max = _require(config, "k_max", int)
        if not 1 <= k_max <= out["num_docs"]:
            raise ConfigError(f"must be in 1..num_docs = {out['num_docs']}", field="k_max")
        out["ladder"] = range(1, k_max + 1)  # no list, however large num_docs is
    else:
        raise ConfigError("missing (provide ladder or k_max)", field="ladder")
    em_overrides = config.get("em", {})
    if not isinstance(em_overrides, dict):
        raise ConfigError("expected an object of EmConfig overrides", field="em")
    if "rng_seed" in em_overrides:
        raise ConfigError("not a field here: each entry of seeds sets it", field="em.rng_seed")
    em_kinds = {known.name: type(known.default) for known in fields(EmConfig)}
    if unknown := [key for key in em_overrides if key not in em_kinds]:
        raise ConfigError("unknown field", field="em." + unknown[0])
    em_values = {key: _require(em_overrides, key, em_kinds[key], where="em.")
                 for key in em_overrides}
    try:
        out["em"] = EmConfig(**em_values)
    except ConfigError as exc:  # EmConfig names its bare field
        raise ConfigError(exc.reason, field="em." + exc.field) from None
    modes = config.get("mode", "slope")
    modes = [modes] if isinstance(modes, str) else modes
    if (not isinstance(modes, list) or not modes or not all(m in MODES for m in modes)
            or len(set(modes)) < len(modes)):  # only strings are in MODES, so hashable
        raise ConfigError(f"expected one of {'|'.join(MODES)} or a nonempty list of "
                          f"distinct ones, got {config.get('mode')!r}", field="mode")
    out["modes"] = modes
    return out


def cmd_synth(args) -> None:
    """Per seed: generate, sweep once, then select and evaluate in each listed mode."""
    config = load_synth_config(args.config)
    rows = []
    for seed in config["seeds"]:
        try:
            mixture = planted_mixture(config["k_true"], config["num_words"],
                                      seed=np.random.SeedSequence((seed, 1)),
                                      min_pairwise_kl=config["min_pairwise_kl"],
                                      concentration=config["concentration"])
        except ValueError as exc:  # the config checks leave only the separation to fail
            raise ConfigError(f"seed {seed}: {exc}", field="min_pairwise_kl") from exc
        planted = generate_corpus(mixture, config["num_docs"],
                                  config["length_range"],
                                  seed=np.random.SeedSequence((seed, 2)))
        em_config = replace(config["em"], rng_seed=derive_seed(seed, 3))
        sweep, failures = run_sweep(planted.corpus, config["ladder"], em_config,
                                    threads=args.threads)
        for k_max, message in failures:
            print(f"seed {seed}: rung {k_max} failed: {message}", file=sys.stderr)
        for mode in config["modes"]:
            report = select_from_sweep(sweep, mode,
                                       total_tokens=planted.corpus.total_tokens,
                                       num_docs=planted.corpus.num_docs)
            chosen = next(e for e in sweep.entries if e.num_comps == report.k_hat)
            evaluation = evaluate_run(planted, chosen.fit)
            rows.append([seed, mode, report.k_hat, repr(float(evaluation.risk)),
                         repr(float(evaluation.agreement))])
    os.makedirs(args.out_dir, exist_ok=True)
    summary_path = os.path.join(args.out_dir, "summary.csv")
    _write_csv(summary_path, ["seed", "mode", "K_hat", "risk", "agreement"], rows)
    print(f"ran {len(config['seeds'])} seeds; summary in {summary_path}")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number_flag(kind, accept, rule: str):
    """An argparse type: the flag's text as a ``kind`` for which ``accept`` holds."""
    def parse(value: str):
        try:
            parsed = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {rule}, got {value!r}") from None
        if not accept(parsed):  # a NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be {rule}, got {parsed}")
        return parsed
    return parse


_positive_int = _number_flag(int, lambda n: n >= 1, "an integer >= 1")
_nonnegative_int = _number_flag(int, lambda n: n >= 0, "an integer >= 0")
_fraction = _number_flag(float, lambda x: 0 < x <= 1, "a number in (0, 1]")


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
    parser = _Parser(prog="docmix",
                     description="Mixture clustering of count vectors with "
                                 "penalized selection of the component count")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    threads_help = ("worker threads for each rung's short starts, which run in "
                    "lockstep groups sized by memory; results do not depend on it "
                    "(default %(default)s)")

    p = sub.add_parser("ingest", help="parse and prune a bag-of-words corpus")
    p.add_argument("docword", help="docword file: D, W, NNZ headers then triples")
    p.add_argument("vocab", help="vocabulary file, one token per line")
    p.add_argument("--out", required=True, help="output corpus path")
    p.add_argument("--max-doc-fraction", type=_fraction, default=0.8,
                   help="drop words in more than this fraction of docs (default 0.8)")
    p.add_argument("--top-b", type=_positive_int, default=300,
                   help="keep this many most frequent words (default 300)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("sweep", help="fit a ladder of component counts")
    p.add_argument("corpus", help="corpus file from ingest")
    p.add_argument("--out", required=True, help="output sweep CSV path")
    rungs = p.add_mutually_exclusive_group(required=True)
    rungs.add_argument("--kmax", type=_positive_int, help="run the ladder 1..kmax")
    rungs.add_argument("--ladder", type=_ladder_flag,
                       help="explicit comma-separated ladder; a repeated entry is fitted once")
    p.add_argument("--fits-dir", default=None,
                   help="also save per-K model and run-log files here")
    p.add_argument("--seed", type=_nonnegative_int, default=EmConfig.rng_seed,
                   help="base RNG seed (default %(default)s)")
    p.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
    p.add_argument("--starts", type=_positive_int, default=EmConfig.n_starts,
                   help="number of short-EM starts (default %(default)s)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("select", help="pick the component count from a sweep CSV")
    p.add_argument("sweep", help="sweep CSV from the sweep command")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--mode", choices=MODES, default="slope",
                   help="the whole penalty: slope 2 lambda_min K B, lambda_min by slope "
                        "heuristics; slope-theoretical the risk bound scaled the same way; "
                        "theoretical the risk bound rate(n) K B + L log K + K log 2; "
                        "aic K B; bic K B log(n)/2 (default %(default)s)")
    p.add_argument("--corpus", required=True,
                   help="the swept corpus: its token and document counts price the "
                        "penalty, and each D_K must be K times its word count")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("report", help="top words, assignments, and yearly evolution")
    p.add_argument("corpus", help="corpus file from ingest")
    p.add_argument("model", help="model file from sweep --fits-dir")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--metadata", default=None, help="doc_id,year CSV sidecar")
    p.add_argument("--top-m", type=_positive_int, default=12,
                   help="words listed per cluster (default 12)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="planted-mixture experiment from a config file")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
    p.set_defaults(func=cmd_synth)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # from argparse: 0 after --help, 1 on a usage error
        return exc.code
    except (DocmixError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (NumericalError, DegenerateFitError)) else 2
    return 0


if __name__ == "__main__":
    sys.exit(run())
