"""Run one `coxkit` command line with the per-layer tracer installed.

    python3 perfbench/traced_cli.py blowup-analyze --weights 12,13,17 ...

Imports coxkit from the checkout's `src`, times that import, installs the
wrappers of `layer_trace`, calls `coxkit.cli.main` with the arguments and
writes the trace snapshot as the last line of stderr, after the marker
`PERFBENCH_TRACE`.  If PERFBENCH_SPANS names a file, the spans go there.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARKER = "PERFBENCH_TRACE "


def main(argv):
    t0 = time.perf_counter()
    import coxkit.cli

    import_s = time.perf_counter() - t0
    from layer_trace import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = os.environ.get("PERFBENCH_OP")
    code = coxkit.cli.main(argv)
    snap = tracer.snapshot()
    snap["extra_s"] = {"cli.import_s": import_s}
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if spans_path:
        with open(spans_path, "a") as fh:
            tracer.dump_spans(fh)
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(snap) + "\n")
    return code


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main(sys.argv[1:]))
