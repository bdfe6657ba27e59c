#!/usr/bin/env python3
"""docmix benchmark: the model-selection sweep, end to end and per layer.

usage: python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1
       [--scale full|smoke]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Workloads (see README.md):
``small-ladder``, ``nips-sweep``, ``cli-pipeline``. ``--seed`` selects
one of the recorded input cases (seed mod 10). Each round sets up fresh
inputs (timed as setup_s) and runs the workload's operation on them
(timed as wall_s); rounds repeat while another one fits in ``--seconds``.
Every operation's output is checked against ``golden.json`` and for
monotone traces.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` rounds alternate untraced and traced, and it reports
the per-layer metrics of the traced rounds plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_SETUPS = 3


def import_package():
    """Import docmix from this checkout's src/ or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "docmix", "__init__.py")):
        sys.exit(f"error: no docmix package under {SRC}")
    sys.path.insert(0, SRC)
    import docmix
    if not os.path.abspath(docmix.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: docmix was imported from {docmix.__file__}, not {SRC}")


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_workload(workload, case: int, seconds: float, trace: bool, work_root: str,
                 golden_ops) -> dict:
    """Run rounds for ``seconds``; return raw samples and check results."""
    from tracing import Tracer, collect, layer_metrics
    from workloads import check

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    tracer = Tracer() if trace else None
    setups, walls, cpus, traced_walls, layers = [], [], [], [], []
    attempted = failed = 0
    problems_seen: list[str] = []
    longest = 0.0
    start = time.perf_counter()
    round_index = 0
    while True:
        # in a traced run, rounds alternate untraced / traced
        traced = trace and round_index % 2 == 1
        work_dir = os.path.join(work_root, f"round{round_index}")
        os.makedirs(work_dir)
        gc.collect()
        child_spans: list = []
        mark = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        try:
            span = tracer.span if traced else (lambda name: contextlib.nullcontext())
            t0 = time.perf_counter()
            with span("bench.setup"):
                inputs = workload.setup(case, work_dir)
            t1 = time.perf_counter()
            usage0 = resource.getrusage(who)
            t2 = time.perf_counter()
            with span("bench.round"):
                outputs = workload.run(inputs, work_dir,
                                       trace_spans=child_spans if traced else None)
            t3 = time.perf_counter()
            usage1 = resource.getrusage(who)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(t3 - t2)
            round_spans = tracer.spans[mark:]
            layers.append(layer_metrics(collect([round_spans, *child_spans])))
            layers[-1]["trace.spans"] = (
                float(len(round_spans) + sum(len(s) for s in child_spans)), "count")
            del tracer.spans[mark:]
        else:
            setups.append(t1 - t0)
            walls.append(t3 - t2)
            cpus.append(_cpu_seconds(usage1) - _cpu_seconds(usage0))

        records = workload.records(outputs)
        if golden_ops is not None and len(golden_ops) != len(records):
            problems_seen.append(f"{len(records)} operations, golden has {len(golden_ops)}")
            golden_ops = None
        for i, (record, problems) in enumerate(records):
            attempted += 1
            problems = problems + check(record, golden_ops[i] if golden_ops else None)
            if problems:
                failed += 1
                problems_seen.extend(f"round {round_index} op {i}: {p}" for p in problems)
        del inputs, outputs, records
        shutil.rmtree(work_dir)
        round_index += 1
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = round_index >= (2 if trace else 1)
        if enough and elapsed + longest > seconds:
            break

    if not trace:
        # set-up is cheap next to a round; repeat it so its median has samples
        while len(setups) < MIN_SETUPS:
            work_dir = os.path.join(work_root, f"setup{len(setups)}")
            os.makedirs(work_dir)
            gc.collect()
            t0 = time.perf_counter()
            inputs = workload.setup(case, work_dir)
            setups.append(time.perf_counter() - t0)
            del inputs
            shutil.rmtree(work_dir)

    return {
        "rounds": round_index,
        "setups": setups,
        "walls": walls,
        "cpus": cpus,
        "traced_walls": traced_walls,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen,
    }


def end_to_end(raw: dict) -> dict:
    values = {
        "setup_s": statistics.median(raw["setups"]),
        "wall_s": statistics.median(raw["walls"]),
        "cpu_s": statistics.median(raw["cpus"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(raw: dict) -> dict:
    out = {}
    for name, (_, unit) in raw["layers"][0].items():
        out[name] = {"value": statistics.median(layer[name][0] for layer in raw["layers"]),
                     "unit": unit}
    overhead = statistics.median(raw["traced_walls"]) - statistics.median(raw["walls"])
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload for the self-tests")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}")
    case = args.seed % workloads.CASES
    work_root = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_root)
    # keep every temporary file of this process and its children in the checkout
    os.environ["TMPDIR"] = work_root
    try:
        workload = workloads.make(args.workload, args.scale, SRC)
        golden = load_golden().get(args.workload, {}).get(args.scale, {}).get(str(case))
        raw = run_workload(workload, case, args.seconds, bool(args.trace), work_root, golden)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_root))

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    for problem in raw["problems"][:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} (scale {args.scale}, case {case}), "
          f"{raw['rounds']} rounds, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':45s} {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']}/{raw['attempted']})")
    for key in ("setups", "walls", "cpus", "traced_walls"):
        if raw[key]:
            print(f"  {key} per round: {' '.join(f'{v:.4f}' for v in raw[key])}")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
