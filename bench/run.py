"""hjmech benchmark: one workload, one client, closed loop.

    python3 bench/run.py --workload {ladder,verdicts,flows} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The benchmark writes the workload's
seeded model files under bench/_work/, runs untimed warm-up ops, then
runs four whole passes over the workload's ops; S caps the run, so no
pass starts once S seconds are spent (always at least one pass).  An op
is one ``hjmech.cli.main(argv)`` call in a child forked from the warm
benchmark process, with sympy's global cache cleared, so that every op
costs what a fresh CLI invocation costs and no state carries from one op
to the next.  Every op's exit code, stdout and CSV are checked by
bench/oracles.py, against tests/goldens/, against the digests recorded
in bench/digests.json for the recorded seed, and against the first pass
for bit-reproducibility.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the functions of every layer are wrapped (bench/tracing.py) and
it reports the per-layer metrics instead.  Any failed op makes the
command exit 1.  ``--record`` runs one pass at the default seed and
stores its digests.
"""

import sys
import time

SCRIPT_START = time.perf_counter()
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DIGESTS = os.path.join(BENCH, "digests.json")
# Each op is timed at its median over the passes of a run, which removes
# slow spells of the machine shorter than a run.  --seconds caps the run:
# no pass starts once it is spent.
PASSES = 4
# setup_s is the median of this process's set-up and of two fresh
# interpreters' after each pass: nine samples, spread over the run as
# the passes are
FRESH_SETUPS = 2
SETUP_SAMPLES = 1 + FRESH_SETUPS * PASSES
REQUIRED = ("src/hjmech/cli.py", "tests/goldens", "tests/models", "models")


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    p.add_argument("--record", action="store_true",
                   help="store the digests of one pass at the default seed")
    return p


def _sha(text):
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs ops, checks them, and keeps their times and failures.

    Every timed op runs in a child forked from this process after the
    warm-up, so it starts from the same warm state (imports done, sympy's
    cache empty) and nothing one op leaves behind in hjmech or sympy
    reaches another op or a later pass.  Only one process runs an op at
    a time; the child sends its time, digests, verdict and spans back
    through a pipe and exits.
    """

    def __init__(self, main, clear_cache, recorded):
        self.main = main
        self.clear_cache = clear_cache
        self.recorded = recorded  # key -> [stdout sha, csv sha], or {}
        self.first = {}           # digests seen in the first pass
        self.passes = []
        self.failures = []
        self.tracer = None
        self.op_id = 0
        self.peak_rss_kb = 0

    def _execute(self, op):
        """Run and check one op here; returns (seconds, digest, reason)."""
        self.clear_cache()
        if op.csv is not None and os.path.exists(op.csv):
            os.remove(op.csv)
        out, err = io.StringIO(), io.StringIO()
        argv = list(op.argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    code = self.tracer.call(self.op_id, self.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an op that raises is a failed op, not a crash
                code = "raised: " + traceback.format_exc().strip().split("\n")[-1]
            elapsed = time.perf_counter() - start
        csv = None
        if op.csv is not None and os.path.exists(op.csv):
            with open(op.csv, encoding="utf-8") as f:
                csv = f.read()
        stdout = out.getvalue()
        digest = [_sha(stdout), _sha(csv)]
        return elapsed, digest, self._verify(op, code, stdout, csv,
                                             err.getvalue(), digest)

    def _verify(self, op, code, stdout, csv, stderr, digest):
        if not isinstance(code, int):
            return code
        try:
            reason = oracles.check(op, code, stdout, csv, stderr)
        except (ValueError, IndexError, TypeError) as exc:
            reason = "unreadable output: %s" % exc
        if reason is not None:
            return reason
        want = self.recorded.get(op.key)
        if want is not None and want != digest:
            return "output differs from the recorded digest"
        return None

    def _child(self, op, write_fd):
        spans = 0
        if self.tracer is not None:
            spans = len(self.tracer.spans)
            self.tracer.counts = Counter()
        result = self._execute(op)
        if self.tracer is not None:
            result += (self.tracer.spans[spans:], self.tracer.counts)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with os.fdopen(write_fd, "wb") as f:
            pickle.dump(result + (rss,), f)

    def run_warmup(self, op):
        """One untimed op in this process; False if it failed."""
        return self._execute(op)[2] is None

    def run(self, op):
        """One timed op in a forked child; returns its timed seconds."""
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            status = 1
            try:
                self._child(op, write_fd)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as f:
            data = f.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.op_id += 1
        if not data or status != 0:
            self.failures.append("%s: op process ended with status %d"
                                 % (op.key, status))
            return 0.0
        result = pickle.loads(data)
        elapsed, digest, reason = result[:3]
        if self.tracer is not None:
            self.tracer.spans.extend(result[3])
            self.tracer.counts.update(result[4])
        self.peak_rss_kb = max(self.peak_rss_kb, result[-1])
        if reason is None and self.first.setdefault(op.key, digest) != digest:
            reason = "output differs from the first pass"
        if reason is not None:
            self.failures.append("%s: %s" % (op.key, reason))
        return elapsed

    def run_pass(self, ops):
        elapsed = [self.run(op) for op in ops]
        self.passes.append(elapsed)

    def op_medians(self):
        """Each op's median time over the passes, so that a slow spell of
        the machine during one pass does not count in wall_s."""
        return [statistics.median(t) for t in zip(*self.passes)]


def _recorded(workload, seed, ops):
    """Recorded digests that apply at this seed: every op's at the
    recorded seed, only the seed-independent ops' otherwise."""
    if not os.path.exists(DIGESTS):
        return {}, False
    with open(DIGESTS, encoding="utf-8") as f:
        data = json.load(f)
    table = data["workloads"].get(workload, {})
    if seed == data["seed"]:
        return table, True
    unseeded = {op.key for op in ops if not op.seeded}
    return {k: v for k, v in table.items() if k in unseeded}, False


def _tail(times, per_pass):
    """The highest percentile with at least ten ops of one pass beyond it,
    and the op time there (nearest rank over every op of the run).  The
    percentile is fixed by the pass, so it does not move with the number
    of passes a run makes."""
    pct = max(50, math.floor(100 * (1 - 10 / per_pass))) if per_pass > 10 else 50
    ordered = sorted(times)
    return pct, ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def _fresh_setup(args):
    """The set-up time of a fresh interpreter (``--setup-only``)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up run failed: %s" % proc.stderr.strip())
    return float(proc.stdout.strip().split("\n")[-1])


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    args = _parser().parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("bench: not a hjmech checkout, missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    if args.record and args.seed != workloads.DEFAULT_SEED:
        print("bench: --record stores the default seed only", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hjmech.cli
    import numpy
    import sympy
    from sympy.core.cache import clear_cache

    workdir = os.path.join("bench", "_work", args.workload)
    ops = workloads.build(args.workload, args.seed, workdir)
    recorded, at_recorded_seed = _recorded(args.workload, args.seed, ops)
    runner = Runner(hjmech.cli.main, clear_cache,
                    {} if args.record else recorded)
    for op in workloads.warmup(args.workload, workdir):
        if not runner.run_warmup(op):
            print("bench: warm-up op %s failed" % op.key, file=sys.stderr)
            return 1
    setup = time.perf_counter() - SCRIPT_START
    if args.setup_only:
        print(repr(setup))
        return 0

    if args.trace:
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
    clear_cache()
    # the warm state is shared with every op's child; frozen, the
    # collector in a child leaves it alone instead of copying its pages
    gc.collect()
    gc.freeze()

    setups = [setup]
    measured = 0.0
    for _ in range(1 if args.record else PASSES):
        started = time.perf_counter()
        runner.run_pass(ops)
        measured += time.perf_counter() - started
        if not args.trace:
            setups.extend(_fresh_setup(args) for _ in range(FRESH_SETUPS))
        if measured >= args.seconds:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(_fresh_setup(args))

    attempted = sum(len(p) for p in runner.passes)
    failed = len(runner.failures)
    times = [t for p in runner.passes for t in p]
    wall_s = sum(runner.op_medians())
    pct, tail = _tail(times, len(ops))
    context = {
        "workload": args.workload, "seed": args.seed,
        "recorded_digests": ("none (recording)" if args.record else
                             "all ops" if at_recorded_seed else "unseeded ops"),
        "passes": len(runner.passes), "ops_per_pass": len(ops),
        "op_tail_percentile": pct, "ops": attempted,
        "python": platform.python_version(), "sympy": sympy.__version__,
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "commit": _commit(),
        "pass_s": " ".join("%.3f" % sum(p) for p in runner.passes),
        "setup_samples_s": " ".join("%.3f" % t for t in setups),
    }
    if args.trace:
        metrics = tracing.layer_metrics(runner.tracer, len(runner.passes), wall_s)
        runner.tracer.write(os.path.join(workdir, "spans.tsv"))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (max(runner.peak_rss_kb, resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss) / 1024.0, "MB"),
        }
    if args.record and failed == 0:
        _store_digests(args.workload, runner.first, ops)

    for key, value in context.items():
        print("context %s = %s" % (key, value))
    print("metric failed_share = %r ratio (%d of %d ops)"
          % (failed / attempted, failed, attempted))
    # printed, not gated: its spread over seeds exceeds the largest bound
    # BENCHMARK.json allows (see bench/README.md)
    print("metric op_tail_ms = %r ms (p%d over %d ops)"
          % (tail * 1e3, pct, attempted))
    for name, (value, unit) in metrics.items():
        print("metric %s = %r %s" % (name, value, unit))
    for line in runner.failures[:20]:
        print("failed %s" % line, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _store_digests(workload, digests, ops):
    data = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as f:
            data = json.load(f)
    data["workloads"][workload] = {op.key: digests[op.key] for op in ops}
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
