"""Outside-in benchmark of the paleyscope CLI suites.

Run from the root of a checkout::

    python3 bench/run.py --workload lp-gate --seed 1 --seconds 30 --trace 0

Workloads: ``lp-gate``, ``sharp-ladder``, ``mc-moments`` (see README.md in
this directory).  The package is imported from ``src/`` of the checkout.
Each workload is a closed loop with one client: passes run back to back in
this process.  The first pass warms caches and is the reference every later
pass's report bytes must equal; it is checked but not timed.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced passes with passes in which every public
function of every package module is wrapped in a span, then runs one pass
under ``tracemalloc``; it reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run's record (environment, pass counts, problems found).  Exit status is
0 when a result was printed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc

from tracer import Target, Tracer, exported_targets, summarize
from workloads import WORKLOADS

LAYERS = ("cli", "corpus", "symbols", "spectral", "squarefn", "maximal",
          "spde", "assumptions")
SETUP_PROBES = 7
TAIL_BEYOND = 10
ROTATE_S = 0.05
PROBE = ("import sys, numpy, scipy, paleyscope.cli as cli; "
         "cli.load_config(sys.argv[1]); print('ready', flush=True)")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# -- layers and their metrics ----------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_draw(tracer, args, kwargs):
    spec, path = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "path")
    tracer.distinct("spde.draw_keys", (spec.seed, int(path)))


def _count_bytes(tracer, args, kwargs):
    data = _arg(args, kwargs, 1, "data")
    tracer.add("cli.emit.bytes", len(data if isinstance(data, bytes) else data.encode()))


def _module_target(name, observe=None):
    layer, attr = name.split(".")
    return Target(name, "paleyscope." + layer, attr, observe=observe)


# Targets the per-layer metrics read.  One that no longer resolves makes its
# metrics read "missing".
REQUIRED = [
    *(_module_target(n) for n in (
        "cli.run_experiment", "corpus.make_corpus",
        "assumptions.verify_assumption1", "spectral.to_frequency",
        "spectral.cumulative_symbol_integrals", "squarefn.square_function",
        "squarefn.lp_space_time_norm", "maximal.maximal_space",
        "maximal.verify_sharp_bound", "maximal.fefferman_stein_check",
        "spde.simulate_ensemble", "spde.ito_isometry_check",
        "spde.moment_bound_check")),
    _module_target("spde.sample_brownian_increments", observe=_count_draw),
    Target("cli.emit_csv", "paleyscope.cli", "emit_csv"),
    Target("cli.emit_json", "paleyscope.cli", "emit_json"),
    Target("cli.emit.write", "paleyscope.cli", "_atomic_write", observe=_count_bytes),
    Target("cli.pool.task", "paleyscope.cli", "ThreadPoolExecutor", kind="pool"),
    Target("symbols.piecewise_values", "paleyscope.symbols", "piecewise_values",
           owner="_TimeSymbol"),
    Target("maximal.maximum_filter", "paleyscope.maximal", "maximum_filter"),
    Target("spectral.fft", "numpy.fft", "fftn", kind="fft"),
    Target("spectral.fft", "numpy.fft", "ifftn", kind="fft"),
]
ALLOC_TARGET = Target("squarefn.square_function", "paleyscope.squarefn",
                      "square_function", kind="alloc")


def span_targets():
    """REQUIRED plus a span for every other function a layer exports."""
    named = {t.name for t in REQUIRED}
    return REQUIRED + [t for t in exported_targets(LAYERS) if t.name not in named]


def _calls(name):
    return ([name], lambda s, c, k, w: s.get(name, (0, 0.0, 0.0))[0])


def _self(*names):
    return (list(names), lambda s, c, k, w: sum(s.get(n, (0, 0.0, 0.0))[1] for n in names))


def _layer_self(layer):
    prefix = layer + "."
    return ([], lambda s, c, k, w: sum(v[1] for n, v in s.items() if n.startswith(prefix)))


def _per_entry(s, c, k, w):
    return s.get("squarefn.square_function", (0,))[0] / w.entries


def _draws_per_path(s, c, k, w):
    keys = len(k.get("spde.draw_keys", ()))
    return s.get("spde.sample_brownian_increments", (0,))[0] / keys if keys else 0.0


def _utilization(s, c, k, w):
    wall = s.get("cli.run_experiment", (0, 0.0, 0.0))[2]
    busy = s.get("cli.pool.task", (0, 0.0, 0.0))[2]
    return busy / (wall * w.threads) if wall else 0.0


# metric name -> (unit, (span names it reads, value from one traced pass)).
# A value function takes the pass's span summary, counts, distinct-key sets
# and the workload.
PER_PASS = {
    "squarefn.square_function.calls": ("count", _calls("squarefn.square_function")),
    "squarefn.square_function.self_s": ("s", _self("squarefn.square_function")),
    "squarefn.square_function.per_entry": (
        "ratio", (["squarefn.square_function"], _per_entry)),
    "squarefn.lp_space_time_norm.self_s": ("s", _self("squarefn.lp_space_time_norm")),
    "spectral.fft.calls": ("count", _calls("spectral.fft")),
    "spectral.fft.points": (
        "count", (["spectral.fft"], lambda s, c, k, w: c.get("spectral.fft.points", 0))),
    "spectral.fft.self_s": ("s", _self("spectral.fft")),
    "spectral.cumulative_symbol_integrals.self_s": (
        "s", _self("spectral.cumulative_symbol_integrals")),
    "symbols.piecewise_values.self_s": ("s", _self("symbols.piecewise_values")),
    "spectral.to_frequency.self_s": ("s", _self("spectral.to_frequency")),
    "corpus.make_corpus.self_s": ("s", _self("corpus.make_corpus")),
    "assumptions.verify_assumption1.self_s": ("s", _self("assumptions.verify_assumption1")),
    "maximal.maximal_space.calls": ("count", _calls("maximal.maximal_space")),
    "maximal.maximal_space.self_s": ("s", _self("maximal.maximal_space")),
    "maximal.verify_sharp_bound.self_s": ("s", _self("maximal.verify_sharp_bound")),
    "maximal.fefferman_stein_check.self_s": ("s", _self("maximal.fefferman_stein_check")),
    "maximal.maximum_filter.self_s": ("s", _self("maximal.maximum_filter")),
    "spde.sample_brownian_increments.calls": (
        "count", _calls("spde.sample_brownian_increments")),
    "spde.sample_brownian_increments.self_s": (
        "s", _self("spde.sample_brownian_increments")),
    "spde.draws_per_path": (
        "ratio", (["spde.sample_brownian_increments"], _draws_per_path)),
    "spde.simulate_ensemble.self_s": ("s", _self("spde.simulate_ensemble")),
    "spde.ito_isometry_check.self_s": ("s", _self("spde.ito_isometry_check")),
    "spde.moment_bound_check.self_s": ("s", _self("spde.moment_bound_check")),
    "cli.pool.utilization": (
        "ratio", (["cli.run_experiment", "cli.pool.task"], _utilization)),
    "cli.emit.self_s": ("s", _self("cli.emit_csv", "cli.emit_json", "cli.emit.write")),
    "cli.emit.bytes": (
        "count", (["cli.emit.write"], lambda s, c, k, w: c.get("cli.emit.bytes", 0))),
    **{f"{layer}.self_s": ("s", _layer_self(layer)) for layer in LAYERS},
}
PER_RUN = {
    "squarefn.square_function.peak_alloc_mb": "MB",
    "trace.overhead_s": "s",
}
END_TO_END = {"setup_s": "s", "pass_s.p50": "s", "pass_s.tail": "s",
              "items_per_s": "1/s", "peak_rss_mb": "MB"}


# -- running ---------------------------------------------------------------

@contextlib.contextmanager
def _spread_over_cpus():
    """Move this thread to the next CPU of its set every ROTATE_S inside the block.

    A single-threaded pass otherwise stays for minutes on one CPU, and on a
    shared host one CPU's speed drifts apart from another's for tens of
    seconds at a time: a run would time whichever CPU it landed on.  Moved
    often, each pass runs at the CPUs' average speed.  Each move pins the
    thread and at once restores its full set, so the pass and the pool and
    BLAS threads still use every CPU; the mover has stopped when the block
    ends, so no process is started while the thread is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        k = 0
        while not stop.wait(ROTATE_S):
            k += 1
            os.sched_setaffinity(tid, {cpus[k % len(cpus)]})
            os.sched_setaffinity(tid, cpus)

    mover = threading.Thread(target=rotate, daemon=True)
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()


class Run:
    """Passes of one workload, with the checks every pass must meet."""

    def __init__(self, workload):
        self.wl = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, threads=None):
        """Wall seconds of one checked pass; failures are counted, not raised."""
        self.attempted += 1
        with _spread_over_cpus():
            start = time.perf_counter()
            try:
                data, problems = self.wl.run_pass(threads)
            except (Exception, SystemExit) as e:
                data, problems = None, [f"raised {type(e).__name__}: {e}"]
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
        if data is not None:
            if self.reference is None:
                self.reference = data
            elif data != self.reference:
                problems.append("report bytes differ from the first pass")
        if problems:
            self.failed += 1
            self.problems.extend(f"pass {self.attempted}: {p}" for p in problems)
        return elapsed


def _tail(times):
    """(value, rank) of the slowest pass that has TAIL_BEYOND passes slower than it.

    The rank never drops below the upper median: with 2 * TAIL_BEYOND passes
    or fewer no percentile above the median has ten passes beyond it.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, len(ordered) // 2 + 1)
    return ordered[rank - 1], rank


def _setup_probe(env, config_path):
    """Seconds from interpreter start to imports done and config built."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, config_path],
                          stdout=subprocess.PIPE, env=env) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return ready - start


def _git_commit(root):
    """HEAD commit of ``root`` read from .git, or None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _measure(run, seconds, probe):
    """Untraced pass times within ``seconds``, and set-up samples spread over them.

    Set-up is sampled SETUP_PROBES times at even steps of the run, so that its
    median sees the same machine as the passes; probe time extends the run.
    """
    times, setups = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not times or time.perf_counter() < deadline:
        due = start + len(setups) * seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() >= due:
            begun = time.perf_counter()
            setups.append(probe())
            deadline += time.perf_counter() - begun
            start += time.perf_counter() - begun
        times.append(run.one_pass())
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return times, setups


def _measure_traced(run, seconds, tracer, targets):
    """Alternate untraced and traced passes; per-pass layer values of the latter."""
    plain, traced, layer_values = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run.one_pass())
        tracer.reset()
        tracer.install(targets)
        try:
            traced.append(run.one_pass())
        finally:
            tracer.uninstall()
        summary = summarize(tracer.spans)
        layer_values.append({
            name: fn(summary, tracer.counts, tracer.sets, run.wl)
            for name, (_, (_, fn)) in PER_PASS.items()})
    return plain, traced, layer_values


def _alloc_peak_mb(run):
    """Peak traced allocation of one square_function call, in a pass at one thread."""
    tracer = Tracer()
    tracemalloc.start()
    tracer.install([ALLOC_TARGET])
    try:
        run.one_pass(threads=1)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    if ALLOC_TARGET.name in tracer.missing:
        return "missing"
    return tracer.counts.get(ALLOC_TARGET.name + ".peak_alloc", 0) / 2 ** 20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    nproc = len(os.sched_getaffinity(0))
    parser.add_argument("--threads", type=int, default=nproc,
                        help="CLI --threads and BLAS thread cap (default: nproc)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "paleyscope", "__init__.py")):
        print(f"error: no paleyscope package under {src}", file=sys.stderr)
        return 2
    if not 1 <= args.threads <= nproc:
        print(f"error: --threads {args.threads} outside 1..nproc ({nproc})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # The BLAS pool reads its size when numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = str(args.threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)

    scratch = os.path.join(root, ".bench_out")
    out_dir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        return _bench(args, root, out_dir, nproc)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass   # another run still uses it


def _bench(args, root, out_dir, nproc):
    seed = args.seed % 2 ** 63
    wl = WORKLOADS[args.workload](seed, out_dir, args.threads)
    import numpy
    import scipy

    import paleyscope
    import paleyscope.cli  # noqa: F401  (binds the submodule attributes)

    wl.prepare(paleyscope)
    run = Run(wl)
    run.one_pass()   # warm-up and reference bytes

    metrics = {}
    record = {}
    if args.trace:
        targets = span_targets()
        tracer = Tracer()
        plain, traced, layer_values = _measure_traced(run, args.seconds, tracer, targets)
        missing = set(tracer.missing)
        for name, (unit, (reads, _)) in PER_PASS.items():
            middle = statistics.median_low if unit == "count" else statistics.median
            value = ("missing" if missing.intersection(reads)
                     else middle(v[name] for v in layer_values))
            metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(traced) - statistics.median(plain)
        for name, value in (("squarefn.square_function.peak_alloc_mb", _alloc_peak_mb(run)),
                            ("trace.overhead_s", overhead)):
            metrics[name] = {"value": value, "unit": PER_RUN[name]}
        record.update(passes=len(plain), traced_passes=len(traced),
                      missing=sorted(missing))
    else:
        env = dict(os.environ)
        times, setups = _measure(run, args.seconds,
                                 lambda: _setup_probe(env, wl.config_path))
        tail, rank = _tail(times)
        values = {
            "setup_s": statistics.median(setups),
            "pass_s.p50": statistics.median(times),
            "pass_s.tail": tail,
            "items_per_s": wl.items * len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record.update(passes=len(times), tail_rank=rank,
                      pass_s=[round(t, 4) for t in times])

    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        items_per_pass=wl.items, attempted=run.attempted, failed=run.failed,
        failed_ratio=run.failed / run.attempted, mc_gate_exit1=wl.gate_exits,
        problems=run.problems[:20], nproc=nproc, cpu_count=os.cpu_count(),
        threads=args.threads, blas_threads=int(os.environ[BLAS_VARS[0]]),
        python=platform.python_version(), numpy=numpy.__version__,
        scipy=scipy.__version__, git_commit=_git_commit(root))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
