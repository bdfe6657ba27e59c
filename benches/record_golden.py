#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

usage: python3 benches/record_golden.py [WORKLOAD ...]

Runs every workload once per input case at both scales and writes the
per-operation records to golden.json. Run it only on the commit that
defines the reference: every later commit must reproduce these records
bit for bit.
"""

import json
import os
import shutil
import sys
import time

from run import GOLDEN_PATH, ROOT, SRC, import_package


def main(names) -> int:
    import_package()
    import workloads

    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
    work_root = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    os.environ["TMPDIR"] = work_root
    try:
        for name in names or workloads.NAMES:
            for scale in workloads.SCALES:
                workload = workloads.make(name, scale, SRC)
                cases = {}
                for case in range(workloads.CASES):
                    work_dir = os.path.join(work_root, f"{name}-{scale}-{case}")
                    os.makedirs(work_dir)
                    start = time.perf_counter()
                    inputs = workload.setup(case, work_dir)
                    outputs = workload.run(inputs, work_dir)
                    records = workload.records(outputs)
                    problems = [p for _, ps in records for p in ps]
                    if problems:
                        raise SystemExit(f"{name} {scale} case {case}: {problems}")
                    cases[str(case)] = [record for record, _ in records]
                    print(f"{name} {scale} case {case}: {len(records)} operations, "
                          f"{time.perf_counter() - start:.2f}s", flush=True)
                    shutil.rmtree(work_dir)
                golden.setdefault(name, {})[scale] = cases
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
