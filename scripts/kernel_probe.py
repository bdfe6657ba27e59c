#!/usr/bin/env python3
"""Time the numpy and scipy kernels under the EM loop on a NIPS-shaped corpus.

Re-checks, after a numpy or scipy upgrade or on a new machine, the costs
that the E- and M-step kernels in src/docmix are built around:

- np.exp per element when its outputs are normal, +0.0 (inputs below
  about -745.13) or subnormal; _exp_in_place skips the +0.0 ones;
- mixture._exp_in_place against plain np.exp on the E-step's own first
  slice, for both of its exps (shifted scores and log responsibilities),
  and the np.putmask it runs against a multiply by a 0/1 mask;
- X.T @ resp on real responsibilities, with their subnormals, with them
  flushed to 0, and scaled by 2**64 as _m_step_block computes it;
- the log-sum-exp's max and sum over the last axis (K components) as one
  per-row reduction against K column passes, and the per-row sort, at
  small-ladder's (200, 15, K) and a nips-sweep slice's (819, 2, K);
  mixture._COLUMN_PASSES_BELOW sits where the column passes stop winning;
- the speed-up of two threads running a kernel at once over one thread
  running it twice, which bounds what a thread pool over starts or
  rungs can gain from each kernel;
- start-up: the median CPU and wall seconds of fresh
  ``python -c "import docmix"`` interpreters, under the package's
  OPENBLAS_NUM_THREADS=1 pin and with the variable preset to the core
  count, so the CPU that OpenBLAS's idle threads spin away is re-measured.

The corpus is nips-sweep's (L=5804, B=300, 20 planted topics,
concentration 0.1, lengths 100-900); the responsibilities come from a
K=20 block of two starts after four EM iterations.

    PYTHONPATH=src python scripts/kernel_probe.py
"""

import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from docmix import em, generate_corpus, mixture, planted_mixture

REPEATS = 20
# Fresh interpreters per setting in the start-up section.
STARTS = 12


def best_ms(op, setup=lambda: None, repeats=REPEATS) -> float:
    """Fastest of ``repeats`` timed calls of op(setup()), in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        op(arg)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def two_thread_speedup(op, seconds=1.0, trials=3) -> float:
    """Time of 2n calls on one thread over the same calls split across two
    threads that run at once, n chosen so the single thread takes about
    ``seconds``; the median of ``trials`` such ratios."""
    start = time.perf_counter()
    op()
    calls = max(REPEATS, int(seconds / 2 / (time.perf_counter() - start)))
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait()
        for _ in range(calls):
            op()

    ratios = []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(2 * calls):
            op()
        alone = time.perf_counter() - start
        threads = [threading.Thread(target=worker) for _ in range(2)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ratios.append(alone / (time.perf_counter() - start))
    return sorted(ratios)[trials // 2]


def start_up_table(starts=STARTS):
    """Median CPU and wall of ``starts`` fresh interpreters that import
    docmix, per OpenBLAS setting, the settings interleaved."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(em.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    settings = {"pinned to 1 (default)": env,
                f"preset to {os.cpu_count()}": {**env, "OPENBLAS_NUM_THREADS": str(os.cpu_count())}}
    samples = {label: ([], []) for label in settings}
    for _ in range(starts):
        for label, child_env in settings.items():
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import docmix"], env=child_env, check=True)
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            samples[label][0].append(after.ru_utime + after.ru_stime
                                     - before.ru_utime - before.ru_stime)
            samples[label][1].append(wall)
    print(f'start-up of python -c "import docmix", s (median of {starts}, '
          f"{os.cpu_count()} cores):")
    print(f"  {'OPENBLAS_NUM_THREADS':22s} {'cpu':>6s} {'wall':>6s}")
    for label, (cpus, walls) in samples.items():
        print(f"  {label:22s} {statistics.median(cpus):6.3f} {statistics.median(walls):6.3f}")


def column_max(a):
    top = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(top, a[..., j], out=top)
    return top


def column_sum(a):
    """K - 1 column passes, the work of mixture._sum_last_axis below its cut."""
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def log_sum_exp_table():
    print(f"\nlog-sum-exp over the last axis, us per call (best of {REPEATS}); "
          f"column passes below K={mixture._COLUMN_PASSES_BELOW}:")
    print(f"  {'shape':15s} {'max rows':>9s} {'max cols':>9s} {'sum rows':>9s} "
          f"{'sum cols':>9s} {'sort':>9s} {'lse':>9s}")
    rng = np.random.default_rng(1)
    for shape in [(200, 15, 2), (200, 15, 5), (200, 15, 10), (819, 2, 10), (819, 2, 20)]:
        scores = rng.normal(-3000.0, 20.0, shape)
        exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
        rows = np.sort(exps, axis=-1)
        times = [best_ms(op, setup) * 1e3 for op, setup in [
            (lambda a: a.max(axis=-1), lambda: scores), (column_max, lambda: scores),
            (lambda a: np.add.reduce(a, axis=-1), lambda: rows), (column_sum, lambda: rows),
            (lambda a: a.sort(axis=-1), exps.copy), (mixture._log_sum_exp, lambda: scores)]]
        print(f"  {str(shape):15s}" + "".join(f" {t:9.0f}" for t in times))


def exp_slice_table(counts, pi, log_f, k):
    """The inputs of both exps on the first slice that em._e_step_block
    hands to mixture._log_sum_exp, timed through _exp_in_place and np.exp."""
    scores = mixture._scores(counts, pi, log_f)
    view = scores.reshape(scores.shape[0], -1, k)
    part = view[:max(1, em._SORT_BYTES // (8 * scores.shape[1]))]
    shifted = part - part.max(axis=-1, keepdims=True)
    log_resp = part - mixture._log_sum_exp(part)[..., None]
    print(f"\nE-step slice {part.shape}, ns per element (best of {REPEATS}):")
    print(f"  {'input':17s} {'below -746':>10s} {'_exp_in_place':>13s} {'np.exp':>8s} "
          f"{'putmask':>8s} {'* 0/1 mask':>10s}")
    for label, values in [("shifted scores", shifted), ("log resp", log_resp)]:
        low = values < mixture._EXP_ZERO_BELOW
        keep = (~low).astype(np.float64)
        times = [best_ms(op, values.copy) * 1e6 / values.size for op in [
            mixture._exp_in_place, lambda a: np.exp(a, out=a),
            lambda a: np.putmask(a, low, 0.0), lambda a: np.multiply(a, keep, out=a)]]
        print(f"  {label:17s} {np.mean(low):10.1%} {times[0]:13.2f} {times[1]:8.2f} "
              f"{times[2]:8.2f} {times[3]:10.2f}")


def main():
    start_up_table()
    mix = planted_mixture(20, 300, seed=np.random.SeedSequence((0, 1)), concentration=0.1)
    corpus = generate_corpus(mix, 5804, (100, 900), seed=np.random.SeedSequence((0, 2))).corpus
    counts = corpus.csr()
    epsilon = mixture.default_floor(corpus.total_tokens)
    pi, log_f = em._random_init_block(corpus, 20, [0, 1], epsilon)
    pi = pi.ravel()
    for _ in range(4):
        resp, _ = em._e_step_block(counts, pi, log_f, 20)
        pi, log_f = em._m_step_block(counts.T, resp, 20, epsilon, 0.0)
    resp, _ = em._e_step_block(counts, pi, log_f, 20)
    print(f"\ncorpus: L={corpus.num_docs}, B={corpus.num_words}, nnz={counts.nnz}; "
          f"block of 2 starts at K=20, resp {resp.shape}")

    size = resp.size
    rng = np.random.default_rng(0)
    print(f"\nnp.exp, ns per element ({size} elements, best of {REPEATS}):")
    for label, low, high in [("normal output", -700.0, 0.0),
                             ("+0.0 output", -2000.0, -746.0),
                             ("subnormal output", -745.0, -709.0)]:
        values = rng.uniform(low, high, size)
        ms = best_ms(lambda a: np.exp(a, out=a), values.copy)
        print(f"  {label:17s} {ms * 1e6 / size:8.2f}")

    exp_slice_table(counts, pi, log_f, 20)

    subnormal = (resp > 0) & (resp < np.finfo(np.float64).smallest_normal)
    print(f"\nX.T @ resp, ms (zeros {np.mean(resp == 0):.1%}, "
          f"subnormal {np.mean(subnormal):.2%} of entries):")
    flushed = np.where(subnormal, 0.0, resp)
    scaled = resp * em._RESP_SCALE
    print(f"  as is            {best_ms(lambda r: counts.T.dot(r), lambda: resp):8.2f}")
    print(f"  subnormals -> 0  {best_ms(lambda r: counts.T.dot(r), lambda: flushed):8.2f}")
    print(f"  scaled by 2**64  {best_ms(lambda r: counts.T.dot(r), lambda: scaled):8.2f}")

    log_sum_exp_table()

    print("\ntwo threads over one (2.0 = perfect):")
    scores = counts @ log_f.T
    for label, op in [("X @ log_f.T", lambda: counts @ log_f.T),
                      ("X.T @ resp", lambda: counts.T.dot(scaled)),
                      ("np.exp", lambda: np.exp(scores))]:
        print(f"  {label:17s} {two_thread_speedup(op):8.2f}x")


if __name__ == "__main__":
    main()
