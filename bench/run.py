"""pdsplit benchmark: time to tolerance and per-layer cost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: tv_chain, tiny_psum, wide_noisy, dense_grid (see workloads.py).
A run generates its inputs from the seed, solves the four built-in demos
against their oracles, makes one untimed warm-up solve of every instance,
then solves pass after pass (a pass solves every instance once) for the
given seconds, checking every result against an independent reference.
Between solves it also times bursts of set-ups.

Every time is measured on a shared host and normalised to a reference
host speed with a kernel timed next to it (see HostSpeed).

End-to-end metrics (--trace 0):
  solve_s      wall time of one solve, from a ready problem to the result
               in hand: per instance, the median of its time outside the
               iteration loop plus its iterations times its iteration time;
               median over the instances, in s.  tv_chain solves include
               writing the trace and summary.
  iters        iterations to tolerance summed over one pass
  us_per_iter  iteration time, iteration-weighted over the instances, in
               microseconds.  An instance's iteration time is the median,
               over windows of ITER_WINDOW consecutive iterations, of the
               window's mean iteration time, so it counts work done only
               every few iterations and garbage-collection passes.
  setup_s      median set-up time, from generated input to solvable
               problem, in s
  peak_rss_mb  peak resident memory of a child process that generates the
               inputs, sets up every instance and solves the instance with
               the most iterations once (memprobe.py), in MiB; the
               references run in this process and do not count
The lines before the JSON result also print the measured solve times
(fastest and median), the tail (solve_s_tail, when more than ten solves
ran), fail_rate, the lambda slack and the run environment.

With --trace 1 the run spends half its time untraced and half with the
tracer installed, and the JSON result carries the per-layer metrics
instead, per pass: one set-up plus one solve of every instance.  The
traced phase ends only at a pass boundary.

The package is imported from ../src of this file only; without it the run
exits with a nonzero status and prints no result.  BLAS is pinned to one
thread before numpy loads.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("blocks", "operators", "fbf", "system", "reductions", "probfile",
           "cli", "demos")
WARMUP_ITERS = 5
TAIL_BEYOND = 10
ITER_WINDOW = 64
KERNEL_EVERY_S = 0.05
SETUP_EVERY_S = 0.5
SETUP_BURST_S = 0.02
TRACED_SETUPS = 5

perf = time.perf_counter


def import_pdsplit():
    if not (SRC / "pdsplit" / "__init__.py").is_file():
        sys.exit(f"error: no pdsplit package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("pdsplit")
    if Path(pkg.__file__).resolve().parent != SRC / "pdsplit":
        sys.exit(f"error: imported pdsplit from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"pdsplit.{name}") for name in MODULES}
    return mods


# ---------------------------------------------------------------------------
# run environment


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, seed):
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "cpu_features": cfg["SIMD Extensions"].get("found", []),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# timed passes


class HostSpeed:
    """Times a fixed kernel, which uses no pdsplit code, next to the work
    it normalises.

    On a shared host other tenants slow a run by up to 2x, in spells of
    seconds to minutes, and no two runs see the same spells.  A kernel
    timed within milliseconds of the measured work sees the same spell, so
    the work's time scaled by REFERENCE_S over the kernel's median time
    next to it, the time the work would take at the reference speed,
    varies far less from run to run than the time itself, provided the
    kernel is held up by what holds up the workload; each workload names
    its kind (``speed_kernel``).  ``python`` mixes small-array numpy calls
    with a pure-Python loop, for the interpreter-bound workloads (a memory
    stream left tv_chain and tiny_psum as unsteady as their raw times);
    ``lapack`` adds a dense solve, which slows down under load unlike the
    Python parts; ``stream`` draws normals and streams over an array larger
    than L2, for the memory-bound wide_noisy, which the python kernel made
    18% slower, with a quartile spread of 0.26, over ten seeds in a spell
    when the interpreter ran 40% faster.
    """

    # about the median kernel times on a 2-vCPU Xeon (AVX512_SPR, 2 MiB
    # L2); they only set the unit
    REFERENCE_S = {"python": 6.0e-4, "lapack": 8.5e-4, "stream": 1.7e-3}

    def __init__(self, np, kind):
        rng = np.random.default_rng(0)
        self.np = np
        self.kind = kind
        self.reference = self.REFERENCE_S[kind]
        self.rng = rng
        self.small = [rng.standard_normal(4) for _ in range(3)]
        self.system = (rng.standard_normal((120, 120)) + 12.0 * np.eye(120),
                       rng.standard_normal(120))
        self.big = rng.standard_normal(300_000)
        self.out = np.empty_like(self.big)
        self.draw = np.empty(50_000)

    def time_kernel(self):
        np = self.np
        t0 = perf()
        if self.kind == "stream":
            self.rng.standard_normal(out=self.draw)
            np.multiply(self.big, 0.5, out=self.out)
            np.add(self.out, self.big, out=self.out)
            return perf() - t0
        a, b, c = self.small
        for _ in range(60):
            float(np.clip(a - 0.5 * b, -1.0, 1.0) @ c)
        table, acc = {}, 0.0
        for i in range(1000):
            table[i & 63] = acc
            acc += i * 0.5
        if self.kind == "lapack":
            np.linalg.solve(*self.system)
        return perf() - t0

    def factor(self, kernel_times):
        """Scale from measured to reference-speed seconds."""
        return self.reference / statistics.median(kernel_times)

    def iteration_time(self, durations, kernels):
        """Reference-speed time of one iteration: the median over windows
        of ITER_WINDOW consecutive iterations of the window's mean, each
        window normalised by the kernel samples taken in it, or else by the
        last one before it.  ``kernels`` holds (iteration index, time)."""
        size = min(ITER_WINDOW, len(durations))
        if not size:
            return 0.0
        means = []
        for start in range(0, len(durations) - size + 1, size):
            near = ([k for i, k in kernels if start <= i < start + size]
                    or [k for i, k in kernels if i < start][-1:])
            means.append(sum(durations[start:start + size]) / size * self.factor(near))
        return statistics.median(means)


class IterationClock:
    """Timestamps every iteration of every solve and times the host-speed
    kernel inside the solve.

    Every engine calls ``fbf.gamma_for`` once at the top of each iteration
    (``system`` and ``reductions`` through their own imported name), so a
    wrapper that records ``perf_counter()`` and calls through is an
    iteration clock.  At the first iteration of a solve and then at most
    every KERNEL_EVERY_S the wrapper also times the kernel; that time is
    taken out of the iteration times and reported by ``take`` so that the
    caller takes it out of the solve's wall time as well.  When the tracer
    is installed it wraps this wrapper, so the kernel's time also lands in
    the ``fbf.gamma_for`` span, and the caller takes it out of that.
    """

    def __init__(self, mods, speed):
        self.mods = mods
        self.speed = speed
        self.stamps = []
        self.kernel_times = []
        self.paused = 0.0
        self._last_kernel = -math.inf
        self._patched = []

    def __enter__(self):
        original = self.mods["fbf"].gamma_for
        stamps, kernel_times = self.stamps, self.kernel_times

        def gamma_for(*args, **kwargs):
            now = perf()
            if not stamps or now - self._last_kernel >= KERNEL_EVERY_S:
                kernel_times.append((len(stamps), self.speed.time_kernel()))
                self._last_kernel = perf()
                self.paused += self._last_kernel - now
            stamps.append(perf() - self.paused)
            return original(*args, **kwargs)

        for name in ("fbf", "system", "reductions"):
            mod = self.mods[name]
            if mod.__dict__.get("gamma_for") is original:
                self._patched.append((mod, original))
                mod.gamma_for = gamma_for
        return self

    def __exit__(self, *exc):
        for mod, original in self._patched:
            mod.gamma_for = original
        self._patched.clear()

    def take(self):
        """(iteration durations, kernel samples, kernel seconds) since the
        last call.  The durations leave out the last iteration, which ends
        inside the solver; a kernel sample is (index of the iteration it
        ran before, time)."""
        durations = [b - a for a, b in zip(self.stamps, self.stamps[1:])]
        out = durations, list(self.kernel_times), self.paused
        self.stamps.clear()
        self.kernel_times.clear()
        self.paused = 0.0
        return out


class Phase:
    """Samples of one timed phase.  Per instance: the durations of all
    its timed iterations in order, the kernel samples taken among them,
    and each solve's reference-speed time outside them.  For the whole
    phase: reference-speed set-up times, measured solve walls, kernel
    times, and the kernel's time inside the solves."""

    def __init__(self, n_instances):
        self.iter_times = [[] for _ in range(n_instances)]
        self.iter_kernels = [[] for _ in range(n_instances)]
        self.outside = [[] for _ in range(n_instances)]
        self.loop_iters = [0] * n_instances
        self.setups = []
        self.measured = []
        self.kernel_times = []
        self.kernel_seconds = 0.0
        self.attempted = 0
        self.failures = []
        self.passes = 0

    def solve_metrics(self, speed):
        """(solve_s, us_per_iter) over the instances solved so far."""
        solve, loop, iters = [], 0.0, 0
        for j, outside in enumerate(self.outside):
            if not outside:
                continue
            per_iter = speed.iteration_time(self.iter_times[j], self.iter_kernels[j])
            solve.append(statistics.median(outside) + self.loop_iters[j] * per_iter)
            loop += self.loop_iters[j] * per_iter
            iters += self.loop_iters[j]
        return statistics.median(solve), 1e6 * loop / max(1, iters)


def run_passes(wl, ready, seconds, first_iters, phase, clock, speed, traced=False):
    """Solve every instance once per pass until ``seconds`` have elapsed;
    the first pass always completes, and a ``traced`` phase ends only at a
    pass boundary.  The host-speed kernel is timed inside every solve
    (IterationClock); an untraced phase also times, between solves at most
    every SETUP_EVERY_S, a burst of set-ups with the kernel around it.
    ``first_iters`` collects each instance's iteration count; later passes
    must reproduce it."""
    t_end = perf() + seconds
    last_setups = -math.inf
    while True:
        if phase.passes and perf() >= t_end:
            return phase
        for j in range(wl.n_instances):
            if phase.passes and not traced and perf() >= t_end:
                return phase
            if not traced and perf() - last_setups >= SETUP_EVERY_S:
                kernel = [speed.time_kernel()]
                times = time_setups(wl, budget=SETUP_BURST_S)[0]
                kernel.append(speed.time_kernel())
                phase.setups += [t * speed.factor(kernel) for t in times]
                phase.kernel_times += kernel
                last_setups = perf()
            phase.attempted += 1
            clock.take()
            t0 = perf()
            try:
                report = wl.solve(ready, j)
            except Exception as exc:  # a raising solve is a failed solve
                phase.failures.append(f"instance {j}: {type(exc).__name__}: {exc}")
                continue
            wall = perf() - t0
            durations, kernel, paused = clock.take()
            wall -= paused
            if not kernel:  # a solve that never reached an iteration
                kernel = [(0, speed.time_kernel())]
            n = report.trace.iterations
            if not report.converged:
                problem = f"not converged after {n} iterations"
            elif first_iters.setdefault(j, n) != n:
                problem = f"{n} iterations, {first_iters[j]} in the first pass"
            else:
                problem = wl.check(j, report)
            if problem:
                phase.failures.append(f"instance {j}: {problem}")
            times = [k for _, k in kernel]
            base = len(phase.iter_times[j])
            phase.iter_kernels[j] += [(base + i, k) for i, k in kernel]
            phase.iter_times[j] += durations
            phase.outside[j].append((wall - sum(durations)) * speed.factor(times))
            phase.loop_iters[j] = len(durations)
            phase.measured.append(wall)
            phase.kernel_times += times
            phase.kernel_seconds += paused
        phase.passes += 1


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND samples above it
    (nearest rank), or None when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(pct / 100 * n)
    while n - rank < TAIL_BEYOND:
        pct -= 1
        rank = math.ceil(pct / 100 * n)
    return pct, sorted(values)[rank - 1], n - rank


def start_memprobe(workload, seed, workdir):
    """Start memprobe.py; it sets up the workload and waits for an
    instance index."""
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("memprobe.py")),
         workload, str(seed), str(workdir / "memprobe")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def wait_ready(probe):
    if probe.stdout.readline().strip() != "ready":
        raise RuntimeError(f"memprobe failed (exit status {probe.wait()})")


def peak_rss_mib(probe, instance):
    """Peak resident memory of the memprobe.py child once it has solved
    ``instance``, in MiB."""
    out, _ = probe.communicate(f"{instance}\n", timeout=120)
    if probe.returncode:
        raise RuntimeError(f"memprobe failed (exit status {probe.returncode})")
    return int(out.split()[-1]) / 1024.0


def time_setups(wl, reps=1, budget=0.0):
    """Time ``reps`` set-ups, or more until ``budget`` seconds have passed."""
    times, ready = [], None
    t_end = perf() + budget
    while len(times) < reps or perf() < t_end:
        t0 = perf()
        ready = wl.setup()
        times.append(perf() - t0)
    return times, ready


# ---------------------------------------------------------------------------
# per-layer readout


def layer_metrics(setup_snap, n_setups, solve_snap, n_passes):
    """Per-layer figures per pass: one set-up plus one solve of every
    instance."""
    def per(name, field):
        a = getattr(setup_snap["totals"].get(name), field, 0)
        b = getattr(solve_snap["totals"].get(name), field, 0)
        return a / n_setups + b / n_passes

    def count(key):
        return setup_snap["counters"][key] / n_setups + solve_snap["counters"][key] / n_passes

    out = {}
    for name in ("blocks.apply_block", "blocks.apply_adjoint", "blocks.entry_apply",
                 "operators.lipschitz", "fbf.error_draw", "fbf.gamma_for"):
        out[f"{name}.calls"] = (per(name, "calls"), "count")
        out[f"{name}.s"] = (per(name, "seconds"), "s")
    cells = setup_snap["counters"]["cells"] + solve_snap["counters"]["cells"]
    nnz = setup_snap["counters"]["nnz"] + solve_snap["counters"]["nnz"]
    out["blocks.nnz_ratio"] = (nnz / cells if cells else 0.0, "ratio")
    out["blocks.lambda.s"] = (per("blocks.lambda", "seconds"), "s")
    out["operators.resolvent.calls"] = (
        per("operators.resolvent", "calls") + per("operators.resolvent_affine", "calls"),
        "count")
    out["operators.resolvent.s"] = (
        per("operators.resolvent", "seconds") + per("operators.resolvent_affine", "seconds"),
        "s")
    out["operators.resolvent_affine.s"] = (per("operators.resolvent_affine", "seconds"), "s")
    out["fbf.error_draw.mb"] = (count("error_bytes") / 1e6, "MB")
    out["system.solve.self_s"] = (per("system.solve", "self_seconds"), "s")
    out["system.kkt.s"] = (per("system.kkt", "seconds"), "s")
    out["system.beta.s"] = (per("system.beta", "seconds"), "s")
    out["reductions.parallel_sum.self_s"] = (per("reductions.parallel_sum", "self_seconds"), "s")
    out["reductions.lift.s"] = (per("reductions.lift", "seconds"), "s")
    out["reductions.objectives.s"] = (per("reductions.objectives", "seconds"), "s")
    out["probfile.parse.s"] = (per("probfile.parse", "seconds"), "s")
    out["probfile.build.s"] = (per("probfile.build", "seconds"), "s")
    out["cli.write_outputs.s"] = (per("cli.write_outputs", "seconds"), "s")
    out["cli.trace_rows"] = (count("trace_rows"), "count")
    out["cli.bytes_written"] = (count("bytes_written"), "bytes")
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # started before numpy loads here, so that its peak is its own
    probe = None if args.trace else start_memprobe(args.workload, args.seed, workdir)
    try:
        result = run(args, parser, probe, workdir)
    finally:
        if probe is not None and probe.poll() is None:
            probe.kill()
            probe.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def run(args, parser, probe, workdir):
    mods = import_pdsplit()
    import numpy as np

    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    pd = SimpleNamespace(**mods)
    env = environment(np, args.seed)
    print("env " + json.dumps(env), flush=True)
    wl = workloads.WORKLOADS[args.workload](pd, args.seed, workdir)
    problems = []

    demos = workloads.demo_smoke(pd)
    for name, ok, detail in demos:
        print(f"demo {name} {'ok' if ok else 'FAIL'}: {detail}")
        if not ok:
            problems.append(f"demo {name}: {detail}")

    # warm-up: first-call costs (imports, BLAS, allocator) stay out of setup_s
    ready = wl.setup()
    for j in range(wl.n_instances):
        wl.solve(ready, j, max_iters=WARMUP_ITERS)

    lambda_pairs = wl.lambda_pairs(ready)
    slacks = [bound / exact for bound, exact in lambda_pairs]
    for bound, exact in lambda_pairs:
        # the SVD itself is exact only to rounding, and some bounds are tight
        if bound < exact * (1.0 - 1e-12):
            problems.append(f"lambda bound {bound!r} below the exact ||L||^2 {exact!r}")

    if probe is not None:
        wait_ready(probe)  # its set-up stays out of the timed phase
    first_iters = {}
    seconds = args.seconds / 2 if args.trace else args.seconds
    speed = HostSpeed(np, wl.speed_kernel)
    with IterationClock(mods, speed) as clock:
        main_phase = run_passes(wl, ready, seconds, first_iters, Phase(wl.n_instances),
                                clock, speed)
        solve_s, us_per_iter = main_phase.solve_metrics(speed)
        phases = [main_phase]

        if args.trace:
            with tracer_mod.Tracer(mods) as tr:
                traced_setups, traced_ready = time_setups(wl, TRACED_SETUPS)
                setup_snap = tr.snapshot()
                traced = run_passes(wl, traced_ready, seconds, first_iters,
                                    Phase(wl.n_instances), clock, speed, traced=True)
                solve_snap = tr.snapshot()
            gamma = solve_snap["totals"]["fbf.gamma_for"]
            gamma.seconds -= traced.kernel_seconds
            gamma.self_seconds -= traced.kernel_seconds
            solve_snap["root_seconds"] -= traced.kernel_seconds
            phases.append(traced)
            factor = speed.factor(traced.kernel_times)
            layers = layer_metrics(setup_snap, len(traced_setups), solve_snap, traced.passes)
            layers = {name: (value * factor if unit == "s" else value, unit)
                      for name, (value, unit) in layers.items()}
            layers["blocks.lambda_slack"] = (statistics.median(slacks), "ratio")
            layers["trace.overhead"] = (traced.solve_metrics(speed)[1] / us_per_iter - 1.0, "ratio")
            layers["trace.coverage"] = (solve_snap["root_seconds"] / sum(traced.measured),
                                        "ratio")

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    for f in failures[:20]:
        print(f"failed solve: {f}")
    for p in problems[:20]:
        print(f"check failed: {p}")

    e2e = {
        "solve_s": (solve_s, "s"),
        "iters": (sum(first_iters.values()), "count"),
        "us_per_iter": (us_per_iter, "us"),
        "setup_s": (statistics.median(main_phase.setups), "s"),
    }
    if probe is not None:
        largest = max(first_iters, key=first_iters.get)
        e2e["peak_rss_mb"] = (peak_rss_mib(probe, largest), "MiB")
    measured = main_phase.measured
    print(f"workload {wl.name} seed {args.seed}: {main_phase.passes} passes of "
          f"{wl.n_instances} instance(s), {len(measured)} timed solves in {seconds:g} s, "
          f"{len(main_phase.setups)} timed set-ups")
    print(f"host speed: kernel median {statistics.median(main_phase.kernel_times):.6g} s "
          f"over {len(main_phase.kernel_times)} samples, reference {speed.reference:g} s")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"solve_s_measured median {statistics.median(measured):.6g} s over "
          f"{len(measured)} solves, not normalised")
    tail_row = tail(measured)
    if tail_row is None:
        print(f"solve_s_tail omitted: {len(measured)} solves, the tail needs "
              f"more than {TAIL_BEYOND}")
    else:
        pct, value, beyond = tail_row
        print(f"solve_s_tail p{pct} {value:.6g} s ({beyond} of {len(measured)} solves "
              f"beyond), not normalised")
    print(f"fail_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} solves)")
    print(f"lambda_slack median {statistics.median(slacks):.6g} "
          f"(min {min(slacks):.6g}) over {len(slacks)} grid(s)")

    reported = e2e
    if args.trace:
        reported = layers
        for name, (value, unit) in sorted(layers.items()):
            print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
