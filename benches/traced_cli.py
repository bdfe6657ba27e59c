"""``python -m docmix.cli`` under the benchmark's tracer.

usage: python traced_cli.py SPANS_JSON CLI_ARGS...

Times ``import docmix.cli`` as the span ``cli.import``, installs the
tracer, runs the command and writes every span to SPANS_JSON. Exits with
the command's exit code.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import docmix.cli
    tracer = Tracer()
    tracer.spans.append(("cli.import", 0, None, start, time.perf_counter(), None))
    tracer.install()
    try:
        code = docmix.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
