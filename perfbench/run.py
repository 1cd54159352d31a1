"""advwave benchmark: one closed-loop client running a workload's ops in passes.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is loaded from ``src/`` next to this directory,
so the checkout needs no install.  The client runs the workload's ops back to
back (the next op starts when the previous one returns), checks every output,
and repeats whole passes while the next one would still end within ``--seconds``.

Each pass and each set-up probe runs pinned to the CPU that is fastest when
it starts, and its time is scaled by a short reference computation timed on
that CPU right before and after it, because the vCPUs of a shared host drift
in speed; the README has the measurements.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs untraced passes for half the time and traced passes (``tracing.Tracer``)
for the other half, and reports per-layer self time and counts plus the
tracing overhead.  Both print a human-readable report, then, as the last line
of standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of each run (inputs, environment,
every sample, failures) goes to ``.perfbench/records/``; scratch output goes
to a temporary directory under ``.perfbench/`` that is removed at exit.

Exit codes: 0 when a result was printed (check ``correct``), 2 when the
benchmark cannot run here (no ``src/advwave``, bad arguments).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# Nominal duration of _reference_s: about its time on an unloaded vCPU of a
# 2-vCPU VM on a 2.0 GHz Xeon.  Scaled times are seconds at that speed; the
# constant cancels when two commits are compared.
REFERENCE_S = 0.003
SETUP_SAMPLES = 5     # fresh-interpreter probes per run; setup_s is their median
MIN_PASSES = 2        # timed passes per run even when one pass outlasts --seconds
PROBE_TIMEOUT_S = 120

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "ADVWAVE_THREADS")

# Gated end-to-end metrics.  setup_s and wall_s are scaled to the nominal CPU
# speed (see _reference_s).  The report also prints their raw values, the raw
# time per pass of each op family the workload runs (corr_s, detect_s,
# figure_s, posdisp_s) and error_rate; see the README for why those are not
# gated.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Per traced pass (means over the traced passes), except the maxima
# oracle.sector_dim, oracle.norm_residual and kinetics.posdisp_err.
PER_LAYER = (
    ("cli.self_s", "s"), ("cli.errors", "count"),
    ("core.events", "count"), ("core.self_s", "s"), ("core.errors", "count"),
    ("correlations.calls", "count"), ("correlations.self_s", "s"),
    ("correlations.nonzero_frac", "ratio"), ("correlations.errors", "count"),
    ("fieldcoeffs.calls", "count"), ("fieldcoeffs.self_s", "s"), ("fieldcoeffs.errors", "count"),
    ("atomdyn.calls", "count"), ("atomdyn.self_s", "s"), ("atomdyn.errors", "count"),
    ("photodetect.calls", "count"), ("photodetect.self_s", "s"), ("photodetect.errors", "count"),
    ("quad.calls", "count"), ("quad.nodes", "count"), ("quad.self_s", "s"), ("quad.errors", "count"),
    ("kinetics.self_s", "s"), ("kinetics.grid_points", "count"), ("kinetics.kernel_evals", "count"),
    ("kinetics.posdisp_err", "ratio"), ("kinetics.errors", "count"),
    ("report.self_s", "s"), ("report.bytes", "B"), ("report.errors", "count"),
    ("oracle.self_s", "s"), ("oracle.propagate_calls", "count"), ("oracle.propagate_s", "s"),
    ("oracle.sector_dim", "count"), ("oracle.norm_residual", "ratio"),
    ("oracle.markov_s", "s"), ("oracle.angular_s", "s"), ("oracle.errors", "count"),
    ("radiometry.calls", "count"), ("radiometry.self_s", "s"), ("radiometry.errors", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.spans", "count"),
)


def _spin(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def _pin_fastest_cpu(cpus):
    """Pin this thread to the allowed CPU that runs a fixed loop fastest now.

    The vCPUs of a shared host change speed independently, by up to 40 % for
    seconds at a time, so each pass and each set-up probe (which inherits the
    pinning) runs on the CPU that is currently least slowed.
    """
    best, best_time = None, float("inf")
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        start = perf_counter()
        _spin(100_000)
        elapsed = perf_counter() - start
        if elapsed < best_time:
            best, best_time = cpu, elapsed
    os.sched_setaffinity(0, {best})


def _reference_s():
    """Best of three runs of a fixed Python-plus-numpy computation.

    Timed on the pinned CPU right before and right after each pass and each
    set-up probe, it tracks how fast that CPU is at the time.  A time t taken
    next to a reference time r is reported as t * REFERENCE_S / r: the time
    the same work takes on a CPU that runs the reference in REFERENCE_S.
    """
    import numpy

    x = numpy.linspace(0.0, 1.0, 100_000)
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _spin(40_000)
        numpy.exp(x).sum()
        best = min(best, perf_counter() - start)
    return best


def _parse(argv):
    ap = argparse.ArgumentParser(description="advwave benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0.0:
        ap.error("--seconds must be positive")
    return args


def _environment(nthreads):
    import numpy
    import scipy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "advwave")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": nthreads,
        "thread_cap": nthreads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Client:
    """The single closed-loop client: runs the ops, checks them, counts failures."""

    def __init__(self, workloads, args, ops, out, cpus):
        self.workloads = workloads
        self.args = args
        self.ops = ops
        self.out = out
        self.cpus = cpus
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.posdisp_err = []

    def record(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {reason}")
            print(f"perfbench: FAILED {label}: {reason}", file=sys.stderr)

    def setup_samples(self):
        """(wall time, reference time) of fresh interpreters that import advwave
        and call each op once, each pinned like a pass."""
        cmd = [sys.executable, os.path.join(HERE, "probe.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--out", os.path.join(self.out, "probe")]
        samples = []
        for _ in range(SETUP_SAMPLES):
            _pin_fastest_cpu(self.cpus)
            before = _reference_s()
            start = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=PROBE_TIMEOUT_S)
                reason = None if proc.returncode == 0 else (
                    f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            except subprocess.TimeoutExpired:
                reason = f"timed out after {PROBE_TIMEOUT_S} s"
            elapsed = perf_counter() - start
            samples.append((elapsed, 0.5 * (before + _reference_s())))
            self.record("setup probe", reason)
        return samples

    def warm_up(self):
        """In-process first calls on the probe's inputs, so timed passes are warm."""
        for op in self.workloads.probe_ops(self.args.workload, self.args.seed):
            try:
                self.workloads.execute(op, self.out)
            except Exception:
                traceback.print_exc()

    def run_pass(self):
        """One pass: time each op, then check its output.  Returns (wall, family times)."""
        wl = self.workloads
        gc.collect()
        times = dict.fromkeys(wl.FAMILIES, 0.0)
        wall = 0.0
        for op in self.ops:
            start = perf_counter()
            try:
                rc, value = wl.execute(op, self.out)
            except Exception as exc:
                elapsed = perf_counter() - start
                traceback.print_exc()
                value, reason = None, f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = perf_counter() - start
                try:
                    reason = wl.check(op, self.out, rc, value)
                except Exception as exc:
                    reason = f"output check raised {type(exc).__name__}: {exc}"
            wall += elapsed
            if op.family is not None:
                times[op.family] += elapsed
            if op.expect is not None and value is not None:
                self.posdisp_err.append(wl.posdisp_error(op, value))
            self.record(op.label, reason)
        return wall, times

    def run_passes(self, seconds, min_passes):
        """Passes until another would end after ``seconds`` (at least ``min_passes``).

        Each pass runs pinned to the CPU that is fastest when it starts, between
        two reference timings on that CPU.  Returns (wall, family times, ref)
        per pass, where ref is the mean of the two reference times.
        """
        passes = []
        start = perf_counter()
        while True:
            _pin_fastest_cpu(self.cpus)
            before = _reference_s()
            wall, times = self.run_pass()
            passes.append((wall, times, 0.5 * (before + _reference_s())))
            elapsed = perf_counter() - start
            if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes


def _end_to_end(setup, passes):
    """Setup and pass times at the nominal CPU speed, and their raw medians."""
    return {
        "setup_s": statistics.median([t * REFERENCE_S / ref for t, ref in setup]),
        "wall_s": statistics.median([w * REFERENCE_S / ref for w, _, ref in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_setup_s": statistics.median([t for t, _ in setup]),
        "raw_wall_s": statistics.median([w for w, _, _ in passes]),
    }


def _family_times(ops, passes):
    """Median time per pass of each op family the workload runs."""
    families = {op.family for op in ops} - {None}
    return {f"{f}_s": (statistics.median([p[1][f] for p in passes]), "s")
            for f in sorted(families)}


def _per_layer(tracing, tracer, untraced, traced, posdisp_err):
    """Per-layer values per traced pass, from the spans and boundary counters."""
    n = len(traced)
    self_s, calls, errors, inclusive = tracer.layer_totals()
    counts, maxima = tracer.counts, tracer.maxima
    m = {}
    for layer in tracing.LAYERS.values():
        m[f"{layer}.self_s"] = self_s[layer] / n
        m[f"{layer}.errors"] = errors[layer] / n
        m[f"{layer}.calls"] = calls[layer] / n
    tensors = counts["correlations.tensors"]
    m["correlations.nonzero_frac"] = counts["correlations.nonzero"] / tensors if tensors else 0.0
    m["core.events"] = calls["core.Event.__post_init__"] / n
    for name in ("quad.nodes", "kinetics.grid_points", "kinetics.kernel_evals", "report.bytes"):
        m[name] = counts[name] / n
    m["kinetics.posdisp_err"] = max(posdisp_err) if posdisp_err else 0.0
    m["oracle.propagate_calls"] = calls["oracle.propagate"] / n
    m["oracle.propagate_s"] = inclusive["oracle.propagate"] / n
    m["oracle.sector_dim"] = maxima["oracle.sector_dim"]
    m["oracle.norm_residual"] = maxima["oracle.norm_residual"]
    m["oracle.markov_s"] = inclusive["oracle.markov_kernel_check"] / n
    m["oracle.angular_s"] = inclusive["oracle.angular_reduction_check"] / n
    traced_wall = statistics.fmean(wall for wall, _, _ in traced)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = statistics.fmean(wall for wall, _, _ in untraced)
    # compared at the nominal CPU speed, like wall_s
    m["trace.overhead_s"] = REFERENCE_S * (statistics.fmean(w / r for w, _, r in traced)
                                           - statistics.fmean(w / r for w, _, r in untraced))
    m["trace.unattributed_s"] = traced_wall - sum(self_s.values()) / n
    m["trace.spans"] = len(tracer.spans) / n
    return m


def _report(client, inputs, env, metrics, extra, samples):
    args = client.args
    print(f"advwave benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("inputs  " + "  ".join(f"{k}={v!r}" for k, v in inputs.items()))
    print("env     " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<26} {value:>16.6g} {unit:<6} {samples.get(name, '')}")
    print(f"  {'error_rate':<26} {client.failed / client.attempted:>16.6g} {'ratio':<6} "
          f"{client.failed} of {client.attempted} ops failed")


def _measure_end_to_end(client, tracing):
    setup = client.setup_samples()
    client.warm_up()
    passes = client.run_passes(client.args.seconds, MIN_PASSES)
    values = _end_to_end(setup, passes)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    extra = {name: (values[name], "s") for name in ("raw_setup_s", "raw_wall_s")}
    extra.update(_family_times(client.ops, passes))
    samples = {name: f"median of {len(passes)} passes" for name in [*values, *extra]}
    samples["setup_s"] = f"median of {len(setup)} fresh interpreters, at nominal speed"
    samples["wall_s"] = f"median of {len(passes)} passes, at nominal speed"
    samples["raw_setup_s"] = f"median of {len(setup)} fresh interpreters"
    samples["peak_rss_mb"] = "max resident set of this process"
    return metrics, extra, samples, {"setup_s": setup, "passes": passes}, None


def _measure_layers(client, tracing):
    client.warm_up()
    half = client.args.seconds / 2.0
    untraced = client.run_passes(half, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = client.run_passes(half, 1)
    finally:
        tracer.uninstall()
    values = _per_layer(tracing, tracer, untraced, traced, client.posdisp_err)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    samples = {name: f"per pass, {len(traced)} traced passes" for name in values}
    samples["trace.untraced_wall_s"] = f"per pass, {len(untraced)} untraced passes"
    samples["kinetics.posdisp_err"] = "max over all passes"
    for name in ("oracle.sector_dim", "oracle.norm_residual"):
        samples[name] = "max over the traced passes"
    raw = {"untraced_passes": untraced, "traced_passes": traced,
           "hook_failures": tracer.hook_failures}
    return metrics, {}, samples, raw, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "advwave", "__init__.py")):
        print(f"perfbench: no advwave package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    for var in _THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(len(cpus))
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    try:
        ops = workloads.ops(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    r0_gamma, _ = workloads.inputs(args.seed)
    inputs = {"r0_gamma": r0_gamma, "ops": [op.label for op in ops]}

    # turn SIGTERM into SystemExit, so a probe in flight is killed and the
    # scratch directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)
    out = tempfile.mkdtemp(prefix="run-", dir=WORK)
    client = Client(workloads, args, ops, out, cpus)
    try:
        env = _environment(len(cpus))
        measure = _measure_layers if args.trace else _measure_end_to_end
        metrics, extra, samples, raw, tracer = measure(client, tracing)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    _report(client, inputs, env, metrics, extra, samples)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "inputs": inputs, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "error_rate": client.failed / client.attempted,
        "attempted": client.attempted, "failed": client.failed,
        "failures": client.failures, "samples": raw,
    }
    with open(os.path.join(records, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(os.path.join(records, stem + ".spans.csv.gz"))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
