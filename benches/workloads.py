"""The benchmark's three workloads.

A workload turns a case number into inputs (``setup``), runs its timed
operation on them (``run``), and reduces what came out to one record per
operation (``records``). Records hold the sweep CSV, the final
log-likelihood of every sweep entry, a hash of every trace, K_hat and,
for the CLI, hashes of every file the pipeline wrote; ``check`` compares
a record bit for bit with the one stored at the baseline commit
(``golden.json``) and checks that each trace is monotone.

docmix functions are always looked up on their module at call time, so
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

from docmix import corpus as corpus_mod
from docmix import em, selection, synth

CASES = 10
SCALES = ("full", "smoke")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# test_03 in tests/test_acceptance.py allows a step to drop by this share
# of the previous value; annihilation breaks are exempt.
MONOTONE_TOL = 1e-9


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_problems(trace, breaks) -> list[str]:
    problems = []
    for t in range(1, len(trace)):
        if t not in breaks and trace[t] < trace[t - 1] - MONOTONE_TOL * abs(trace[t - 1]):
            problems.append(f"trace drops at step {t}: {trace[t - 1]!r} -> {trace[t]!r}")
    return problems


def sweep_record(sweep, failures) -> tuple[dict, list[str]]:
    """Record of one run_sweep result, and the monotonicity problems."""
    traces = [entry.fit.loglik_trace for entry in sweep.entries]
    problems = []
    for entry in sweep.entries:
        breaks = {i for i, _ in entry.fit.annihilation_events}
        problems += [f"K={entry.num_comps}: {p}"
                     for p in trace_problems(entry.fit.loglik_trace, breaks)]
    problems += [f"rung {k} failed: {message}" for k, message in failures]
    record = {
        "sweep_csv": selection.sweep_to_csv(sweep),
        "final_logliks": [repr(t[-1]) for t in traces],
        "traces_sha256": _sha256(repr(traces).encode()),
    }
    return record, problems


def check(record: dict, golden: dict | None) -> list[str]:
    if golden is None:
        return ["no golden record for this case"]
    return [f"{key} differs from the golden record"
            for key in sorted(set(golden) | set(record))
            if record.get(key) != golden.get(key)]


class InProcessSweep:
    """Shared shape of the two in-process workloads: generate corpora with
    synth, save and load them as ingest output would be, then sweep."""

    in_process = True

    def corpus_specs(self, case):
        """[(corpus seed, planted_mixture kwargs, generate_corpus kwargs)]"""
        raise NotImplementedError

    def setup(self, case: int, work_dir: str):
        inputs = []
        for i, (seed, mix_args, gen_args) in enumerate(self.corpus_specs(case)):
            mix = synth.planted_mixture(seed=np.random.SeedSequence((seed, 1)), **mix_args)
            planted = synth.generate_corpus(mix, seed=np.random.SeedSequence((seed, 2)),
                                            **gen_args)
            path = os.path.join(work_dir, f"corpus{i}.json")
            corpus_mod.save_corpus(planted.corpus, path)
            inputs.append((seed, corpus_mod.load_corpus(path)))
        return inputs

    def sweep_one(self, seed, corpus):
        raise NotImplementedError

    def run(self, inputs, work_dir: str, trace_spans=None):
        return [self.sweep_one(seed, corpus) for seed, corpus in inputs]

    def records(self, outputs) -> list[tuple[dict, list[str]]]:
        out = []
        for sweep, failures, report in outputs:
            record, problems = sweep_record(sweep, failures)
            if report is not None:
                record["k_hat"] = report.k_hat
            out.append((record, problems))
        return out


class SmallLadder(InProcessSweep):
    """test_06's acceptance corpora: K_true=3, B=20, L=200, lengths 50-200,
    a 1..10 ladder with the default EmConfig, then slope selection."""

    name = "small-ladder"

    def __init__(self, scale: str):
        self.num_corpora = 10 if scale == "full" else 2
        self.ladder = range(1, 11) if scale == "full" else range(1, 6)

    def corpus_specs(self, case):
        # case 0 is exactly test_06's seeds 0..9
        return [(10 * case + i,
                 {"num_comps": 3, "num_words": 20, "min_pairwise_kl": 0.5},
                 {"num_docs": 200, "length_range": (50, 200)})
                for i in range(self.num_corpora)]

    def sweep_one(self, seed, corpus):
        config = em.EmConfig(rng_seed=selection.derive_seed(seed, 3))
        sweep, failures = selection.run_sweep(corpus, self.ladder, config, threads=1)
        report = selection.select_from_sweep(sweep, "slope",
                                             total_tokens=corpus.total_tokens,
                                             num_docs=corpus.num_docs)
        return sweep, failures, report


class NipsSweep(InProcessSweep):
    """A NIPS-shaped corpus (L=5804, B=300, lengths 100-900) swept over
    {10, 20} with the default EmConfig at threads=2."""

    name = "nips-sweep"

    def __init__(self, scale: str, ladder=None, threads: int = 2):
        full = scale == "full"
        self.mix_args = {"num_comps": 20 if full else 5, "num_words": 300 if full else 50,
                         "concentration": 0.1}
        self.gen_args = {"num_docs": 5804 if full else 300,
                         "length_range": (100, 900) if full else (100, 300)}
        self.ladder = ladder or ([10, 20] if full else [3, 5])
        self.threads = threads

    def corpus_specs(self, case):
        return [(case, self.mix_args, self.gen_args)]

    def sweep_one(self, seed, corpus):
        config = em.EmConfig(rng_seed=selection.derive_seed(seed, 3))
        sweep, failures = selection.run_sweep(corpus, self.ladder, config,
                                              threads=self.threads)
        return sweep, failures, None


def zipf_bag_of_words(seed: int, num_docs: int, vocab_size: int,
                      length_range: tuple[int, int], num_topics: int) -> tuple[str, str]:
    """UCI docword and vocab text: each document draws a topic, a length
    and i.i.d. tokens from that topic, a Zipf(1.07) law over the
    vocabulary tilted per topic by lognormal noise."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4)))
    ranks = rng.permutation(vocab_size)
    zipf = 1.0 / (ranks + 1.0) ** 1.07
    topics = zipf * np.exp(rng.standard_normal((num_topics, vocab_size)))
    cdf = np.cumsum(topics / topics.sum(axis=1, keepdims=True), axis=1)
    labels = rng.integers(num_topics, size=num_docs)
    lengths = rng.integers(length_range[0], length_range[1] + 1, size=num_docs)
    doc_of_token = np.repeat(np.arange(num_docs), lengths)
    uniform = rng.random(doc_of_token.size)
    words = np.empty(doc_of_token.size, dtype=np.int64)
    token_topic = labels[doc_of_token]
    for k in range(num_topics):
        mask = token_topic == k
        words[mask] = np.searchsorted(cdf[k], uniform[mask], side="right")
    np.minimum(words, vocab_size - 1, out=words)
    keys, counts = np.unique(doc_of_token * vocab_size + words, return_counts=True)
    lines = map("{} {} {}".format, (keys // vocab_size + 1).tolist(),
                (keys % vocab_size + 1).tolist(), counts.tolist())
    docword = f"{num_docs}\n{vocab_size}\n{keys.size}\n" + "\n".join(lines) + "\n"
    vocab = "".join(f"w{b:05d}\n" for b in range(vocab_size))
    return docword, vocab


def _hash_tree(root: str) -> dict[str, str]:
    hashes = {}
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                hashes[os.path.relpath(path, root).replace(os.sep, "/")] = _sha256(handle.read())
    return dict(sorted(hashes.items()))


class CliPipeline:
    """A UCI docword/vocab dump through ``python -m docmix.cli``, one
    subprocess per step: ingest -> sweep -> select -> report."""

    name = "cli-pipeline"
    in_process = False
    STEPS = ("ingest", "sweep", "select", "report")

    def __init__(self, scale: str, src_dir: str):
        full = scale == "full"
        self.docs = 5804 if full else 200
        self.vocab_size = 11500 if full else 500
        self.length_range = (100, 900) if full else (50, 150)
        self.top_b = 300 if full else 50
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def setup(self, case: int, work_dir: str):
        docword, vocab = zipf_bag_of_words(case, self.docs, self.vocab_size,
                                           self.length_range, num_topics=20)
        paths = {}
        for name, text in (("docword.txt", docword), ("vocab.txt", vocab)):
            paths[name] = os.path.join(work_dir, name)
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        return case, paths

    def _argv(self, step: str, case: int, work: str, out: str) -> list[str]:
        if step == "ingest":
            return ["ingest", os.path.join(work, "docword.txt"), os.path.join(work, "vocab.txt"),
                    "--top-b", str(self.top_b), "--out", os.path.join(out, "corpus.json")]
        if step == "sweep":
            return ["sweep", os.path.join(out, "corpus.json"), "--ladder", "1,2,3,4",
                    "--starts", "3", "--threads", "2", "--seed", str(case),
                    "--fits-dir", os.path.join(out, "fits"),
                    "--out", os.path.join(out, "sweep.csv")]
        if step == "select":
            return ["select", os.path.join(out, "sweep.csv"), "--mode", "slope",
                    "--corpus", os.path.join(out, "corpus.json"),
                    "--out", os.path.join(out, "selection.json")]
        with open(os.path.join(out, "selection.json"), encoding="utf-8") as handle:
            k_hat = json.load(handle)["K_hat"]
        return ["report", os.path.join(out, "corpus.json"),
                os.path.join(out, "fits", f"fit_K{k_hat}.model.json"),
                "--out-dir", os.path.join(out, "report")]

    def run(self, inputs, work_dir: str, trace_spans=None):
        """Run the four steps; with ``trace_spans`` (a list) each step runs
        under the tracing shim and its spans are appended to the list."""
        case, _ = inputs
        out = os.path.join(work_dir, "out")
        os.makedirs(out, exist_ok=True)
        results = []
        for step in self.STEPS:
            try:
                argv = self._argv(step, case, work_dir, out)
            except (OSError, ValueError, KeyError) as exc:
                results.append((step, None, f"could not build argv: {exc}"))
                continue
            if trace_spans is None:
                cmd = [sys.executable, "-m", "docmix.cli", *argv]
            else:
                spans_path = os.path.join(work_dir, f"spans-{step}.json")
                cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                       spans_path, *argv]
            proc = subprocess.run(cmd, env=self.env, cwd=work_dir, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, check=False)
            if trace_spans is not None and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    trace_spans.append([tuple(s) for s in json.load(handle)])
                os.unlink(spans_path)
            results.append((step, proc.returncode, proc.stderr.strip()))
        return out, results

    def records(self, outputs) -> list[tuple[dict, list[str]]]:
        out, results = outputs
        files = _hash_tree(out)
        by_step = {
            "ingest": lambda p: p == "corpus.json",
            "sweep": lambda p: p == "sweep.csv" or p.startswith("fits/"),
            "select": lambda p: p == "selection.json",
            "report": lambda p: p.startswith("report/"),
        }
        records = []
        for step, code, stderr in results:
            problems = [] if code == 0 else [f"{step} exited with {code}: {stderr[-500:]}"]
            record = {"exit_code": code,
                      "files": {p: h for p, h in files.items() if by_step[step](p)}}
            if step == "sweep" and code == 0:
                record.update(self._sweep_record(out, problems))
            if step == "select" and code == 0:
                with open(os.path.join(out, "selection.json"), encoding="utf-8") as handle:
                    record["k_hat"] = json.load(handle)["K_hat"]
            records.append((record, problems))
        return records

    @staticmethod
    def _sweep_record(out: str, problems: list[str]) -> dict:
        with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as handle:
            sweep_csv = handle.read()
        finals = []
        fits = os.path.join(out, "fits")
        for name in sorted(os.listdir(fits)):
            if not name.endswith(".runlog.json"):
                continue
            with open(os.path.join(fits, name), encoding="utf-8") as handle:
                log = json.load(handle)
            breaks = {i for i, _ in log["annihilation_events"]}
            problems += [f"{name}: {p}" for p in trace_problems(log["loglik_trace"], breaks)]
            finals.append(repr(float(log["loglik_trace"][-1])))
        return {"sweep_csv": sweep_csv, "final_logliks": finals}


def make(name: str, scale: str, src_dir: str):
    if name == SmallLadder.name:
        return SmallLadder(scale)
    if name == NipsSweep.name:
        return NipsSweep(scale)
    if name == CliPipeline.name:
        return CliPipeline(scale, src_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (SmallLadder.name, NipsSweep.name, CliPipeline.name)
