"""Self-tests of the benchmark.

usage: python3 -m pytest benches/test_bench.py

Smoke-scale runs of every workload must emit exactly the metrics
BENCHMARK.json names, with their units, and pass their checks; the
NIPS-shaped sweep must not depend on the thread count; the tracer must
reach calls made inside the package and put everything back; and the
benchmark must fail without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import BENCH_DIR, ROOT, SRC, import_package

import_package()

import workloads  # noqa: E402
from tracing import Tracer, collect, layer_metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "benches", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert "fail_ratio" in proc.stdout


def test_nips_sweep_csv_does_not_depend_on_threads():
    work_dir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        csvs = []
        for threads in (1, 2):
            workload = workloads.NipsSweep("full", ladder=[10], threads=threads)
            [(sweep, failures, _)] = workload.run(workload.setup(0, work_dir), work_dir)
            assert not failures
            csvs.append(workloads.selection.sweep_to_csv(sweep))
        assert csvs[0] == csvs[1]
    finally:
        shutil.rmtree(work_dir)


def test_tracer_sees_calls_inside_the_package_and_uninstalls():
    import docmix
    from docmix import em, mixture
    originals = (em.score_matrix, mixture.score_matrix, docmix.run_sweep,
                 mixture.MixtureModel.__dict__["validate"],
                 docmix.Corpus.__dict__["from_docs"])
    tracer = Tracer()
    tracer.install()
    try:
        assert em.score_matrix is mixture.score_matrix is not originals[0]
        workload = workloads.SmallLadder("smoke")
        with tracer.span("bench.round"):
            corpus = workloads.synth.generate_corpus(
                workloads.synth.planted_mixture(3, 20, seed=0), 50, (20, 40), seed=1).corpus
            workload.sweep_one(0, corpus)
            em.robust_em(corpus, 3, em.EmConfig(n_starts=4), threads=2)
    finally:
        tracer.uninstall()
    assert (em.score_matrix, mixture.score_matrix, docmix.run_sweep,
            mixture.MixtureModel.__dict__["validate"],
            docmix.Corpus.__dict__["from_docs"]) == originals
    metrics = layer_metrics(collect([tracer.spans]))
    assert metrics["mixture.score_matrix.calls_per_e_step"][0] == 2.0
    assert metrics["em.e_step.calls"][0] > 0
    assert metrics["mixture.MixtureModel.validate.calls"][0] > 0
    assert metrics["corpus.Corpus.csr.s"][0] > 0
    by_id = {s[1]: s for s in tracer.spans}
    for name, _, parent, *_ in tracer.spans:
        if name != "bench.round":
            assert parent in by_id, f"{name} has no parent"
    for name, _, parent, *_ in tracer.spans:
        if name == "em.short_em":
            assert by_id[parent][0] == "em.robust_em"


def test_fails_without_the_package_sources():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benches"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "--workload", "small-ladder", "--seed", "0", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
        assert not os.path.exists(SRC.replace(ROOT, bare))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
