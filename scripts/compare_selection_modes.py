#!/usr/bin/env python3
"""Score every selection mode on the same planted-mixture sweeps.

One sweep per seed is fitted once and then scored by every mode, so the
comparison isolates the selection rule from EM noise. Prints a per-mode
hit table and writes the raw rows as CSV.
"""

import argparse
import csv
import sys
import time

import numpy as np

from docmix import (
    EmConfig,
    evaluate_run,
    generate_corpus,
    planted_mixture,
    run_sweep,
    select_from_sweep,
)
from docmix.selection import MODES, derive_seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-true", type=int, default=3)
    parser.add_argument("--num-words", type=int, default=20)
    parser.add_argument("--num-docs", type=int, default=200)
    parser.add_argument("--lengths", type=int, nargs=2, default=(50, 200),
                        metavar=("LOW", "HIGH"))
    parser.add_argument("--separation", type=float, default=0.5,
                        help="smallest pairwise KL between planted rows")
    parser.add_argument("--kmax", type=int, default=10)
    parser.add_argument("--num-seeds", type=int, default=10)
    parser.add_argument("--starts", type=int, default=15)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=None, help="raw per-seed CSV")
    args = parser.parse_args(argv)

    rows = []
    start = time.perf_counter()
    for seed in range(args.num_seeds):
        mix = planted_mixture(args.k_true, args.num_words,
                              seed=np.random.SeedSequence((seed, 1)),
                              min_pairwise_kl=args.separation)
        planted = generate_corpus(mix, args.num_docs, tuple(args.lengths),
                                  seed=np.random.SeedSequence((seed, 2)))
        config = EmConfig(n_starts=args.starts, rng_seed=derive_seed(seed, 3))
        sweep, failures = run_sweep(planted.corpus, range(1, args.kmax + 1),
                                    config, threads=args.threads)
        for rung, message in failures:
            print(f"seed {seed}: rung {rung} failed: {message}",
                  file=sys.stderr)
        for mode in MODES:
            report = select_from_sweep(
                sweep, mode,
                total_tokens=planted.corpus.total_tokens,
                num_docs=planted.corpus.num_docs,
            )
            chosen = next(e for e in sweep.entries
                          if e.num_comps == report.k_hat)
            scored = evaluate_run(planted, chosen.fit)
            rows.append({
                "seed": seed, "mode": mode, "K_hat": report.k_hat,
                "risk": float(scored.risk),
                "agreement": float(scored.agreement),
            })
        print(f"seed {seed}: " + "  ".join(
            f"{r['mode']}={r['K_hat']}" for r in rows[-len(MODES):]))

    print(f"\n{args.num_seeds} seeds, K_true={args.k_true}, "
          f"{time.perf_counter() - start:.1f}s")
    print(f"{'mode':>12}  {'hits':>7}  {'mean risk':>10}  {'mean agr':>8}")
    for mode in MODES:
        picks = [r for r in rows if r["mode"] == mode]
        hits = sum(r["K_hat"] == args.k_true for r in picks)
        risk = sum(r["risk"] for r in picks) / len(picks)
        agr = sum(r["agreement"] for r in picks) / len(picks)
        print(f"{mode:>12}  {hits:>4}/{len(picks)}  {risk:>10.4f}  {agr:>8.3f}")

    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=["seed", "mode", "K_hat", "risk", "agreement"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
