"""coxkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; coxkit is imported from its `src`.
The run prints machine information, then repeats whole passes over the
workload's operations for about `--seconds` (at least one pass), checks
every output against the oracles, and prints one JSON object as the last
line: `correct`, `attempted`, `failed` and the metrics named in
BENCHMARK.json (end-to-end with `--trace 0`, per-layer with `--trace 1`).
Each run also writes a record under perfbench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("flagship", "exact-rank", "geometry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="import coxkit, build the inputs and exit (one setup_s sample)")
    return p.parse_args(argv)


def machine_info():
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def import_coxkit():
    """Import coxkit from the checkout; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "coxkit", "__init__.py")):
        raise ImportError(f"no coxkit sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import coxkit  # noqa: F401
    import coxkit.cli  # noqa: F401

    return time.perf_counter() - t0


def setup_seconds(args):
    """Median wall time of fresh interpreters that import coxkit and build
    the workload's inputs: the time before a first operation can start."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError("setup probe failed: " + done.stderr.decode()[-500:])
    return statistics.median(samples)


def run_cli(argv, traced):
    """Run one coxkit process from the checkout to its end.

    Returns (exit code, stdout, stderr, peak RSS in MB).  stderr goes to an
    unlinked file, so neither pipe can fill and block the child.
    """
    script = [os.path.join(HERE, "traced_cli.py")] if traced else ["-m", "coxkit.cli"]
    env = {k: v for k, v in os.environ.items() if k != "COXKIT_PRIMES"}
    env["PYTHONPATH"] = SRC
    with tempfile.TemporaryFile(dir=RUNS) as err:
        proc = subprocess.Popen([sys.executable, *script, *argv], stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), usage.ru_maxrss / 1024


class Runner:
    """Runs passes of one workload and collects timings and failures."""

    def __init__(self, workload, tracer=None, spans_path=None):
        self.wl = workload
        self.tracer = tracer
        self.spans_path = spans_path
        self.pass_s, self.child_rss = [], []
        self.latencies = [[] for _ in workload.ops]  # per operation, per pass
        self.snapshots = []
        self.attempted = self.failed = self.mismatched = 0
        self.problems = []

    def _cli(self, argv, pass_rss, pass_snaps, first):
        if first and self.spans_path:
            os.environ["PERFBENCH_SPANS"] = self.spans_path
        os.environ["PERFBENCH_OP"] = argv[0]
        try:
            code, out, err, rss = run_cli(argv, traced=self.tracer is not None)
        finally:
            os.environ.pop("PERFBENCH_SPANS", None)
            os.environ.pop("PERFBENCH_OP", None)
        pass_rss.append(rss)
        if self.tracer is not None:
            lines = err.decode(errors="replace").splitlines()
            marked = [ln for ln in lines if ln.startswith("PERFBENCH_TRACE ")]
            if marked:
                pass_snaps.append(json.loads(marked[-1].split(" ", 1)[1]))
        return code, out, err

    def one_pass(self, first):
        from oracles import Mismatch

        for cache in self.wl.caches:
            cache.cache_clear()
        gc.collect()
        if self.tracer is not None and self.wl.in_process:
            self.tracer.reset()
        ctx, outputs, errors = {}, [], []
        pass_rss, pass_snaps = [], []
        ctx["cli"] = lambda argv: self._cli(argv, pass_rss, pass_snaps, first)
        clock = time.perf_counter
        start = clock()
        for op, lat in zip(self.wl.ops, self.latencies):
            if self.tracer is not None:
                self.tracer.op = op.name
            t0 = clock()
            try:
                out, err = op.run(ctx), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t0)
            if op.key is not None:
                ctx[op.key] = out
            outputs.append(out)
            errors.append(err)
        self.pass_s.append(clock() - start)
        if self.tracer is not None:
            if self.wl.in_process:
                self.snapshots.append(self.tracer.snapshot())
                if first and self.spans_path:
                    with gzip.open(self.spans_path, "wt") as fh:
                        self.tracer.dump_spans(fh)
            else:
                from layer_trace import merge

                self.snapshots.append(merge(pass_snaps))
        if pass_rss:
            self.child_rss.append(max(pass_rss))
        for op, out, err in zip(self.wl.ops, outputs, errors):
            self.attempted += 1
            if err is None and op.check is not None:
                try:
                    op.check(out, ctx)
                except Mismatch as exc:
                    self.mismatched += 1
                    err = f"wrong output: {exc}"
                except Exception as exc:  # a check that cannot run is a failure too
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op.name}: {err}")

    def run(self, seconds):
        """Whole passes until the run is as close to `seconds` as whole
        passes allow: another pass starts only if it would end nearer to
        `seconds` than stopping now."""
        t0 = time.perf_counter()
        self.one_pass(True)
        while time.perf_counter() - t0 + self.pass_s[-1] / 2 < seconds:
            self.one_pass(False)

    def end_to_end(self, setup_s):
        """Times are medians over the run's passes: every pass repeats the
        same work on cleared caches, and on a shared host the median moves
        less with other tenants' load than the fastest pass does."""
        if self.child_rss:
            rss = statistics.median(self.child_rss)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(self.pass_s), "s"),
            "peak_rss_mb": (rss, "MB"),
        }


def main(argv):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        import_s = import_coxkit()
    except ImportError as exc:
        print(f"error: cannot import coxkit: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.probe_setup:
        workloads.build(args.workload, args.seed)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    info = machine_info()
    print(f"machine: nproc={info['nproc']} python={info['python']} numpy={info['numpy']} "
          f"gmpy2={'yes' if info['gmpy2'] else 'no'} "
          + " ".join(f"{k}={v}" for k, v in info["threads"].items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    os.makedirs(RUNS, exist_ok=True)

    setup_s = setup_seconds(args) if not args.trace else None
    wl = workloads.build(args.workload, args.seed)
    tracer = spans_path = None
    if args.trace:
        from layer_trace import Tracer

        tracer = Tracer()
        if wl.in_process:
            tracer.install()
        spans_path = os.path.join(
            RUNS, f"{args.workload}-seed{args.seed}-spans.tsv" + (".gz" if wl.in_process else ""))
        if os.path.exists(spans_path):
            os.remove(spans_path)
    runner = Runner(wl, tracer, spans_path)
    runner.run(args.seconds)

    if args.trace:
        from layer_trace import per_layer_metrics

        if wl.in_process:
            for snap in runner.snapshots:
                snap["extra_s"] = {"cli.import_s": import_s}
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer_metrics(names, runner.snapshots)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in names}
    else:
        values = runner.end_to_end(setup_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    print(f"passes={len(runner.pass_s)} ops_per_pass={len(wl.ops)} "
          f"pass_s={' '.join(f'{x:.3f}' for x in runner.pass_s)}")
    print(f"operations: workload={args.workload} attempted={runner.attempted} "
          f"failed={runner.failed}")
    for line in runner.problems:
        print(f"failed: {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "pass_s": runner.pass_s,
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems, "metrics": metrics,
        "latencies": {op.name: lat for op, lat in zip(wl.ops, runner.latencies)},
    }
    if args.trace:
        record["layers"] = runner.snapshots[0]
    with open(os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({
        "correct": runner.mismatched == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
