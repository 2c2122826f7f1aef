#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a repro checkout::

    python3 perfbench/run.py --workload fig3_matmul --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20    # every workload, both modes

With ``--trace 0`` it repeats passes over the workload's cells for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
makes one untraced pass for the exact counts and one pass under
cProfile for the per-layer split.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` system runs,
and ``metrics``, each a ``{"value", "unit"}`` pair.  See README.md.
"""

import argparse
import heapq
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up is timed this many times per run, each in a fresh process.
SETUP_SAMPLES = 7
#: Upper bound on one child process (set-up or RSS probe), seconds.
CHILD_TIMEOUT = 120

#: The speed probe: every PROBE_PERIOD_S of a timed cell, PROBE_STEPS
#: steps of a fixed event loop, and the host seconds one step takes on
#: the reference host (see README.md, "Host-speed calibration").
PROBE_PERIOD_S = 0.01
PROBE_STEPS = 300
PROBE_REF_STEP_S = 1e-6


def parse_args(argv):
    from workloads import DEFAULT_SEED, SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="paper",
                        help="problem sizes; 'tiny' is for the self-test")
    # Internal: one timed set-up, or one run of the RSS probe cell.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def locate_program():
    """Put the checkout's ``src`` first on the path; fail without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("perfbench: src/repro not found; run from the root of "
                 "a repro checkout")
    sys.path.insert(0, src)
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    if package_dir != os.path.join(src, "repro"):
        sys.exit(f"perfbench: imported repro from {package_dir}, "
                 f"not from {src}")
    return package_dir


class SpeedProbe:
    """Samples the host's speed while a cell runs.

    On entry, and then from a ``SIGALRM`` handler every
    :data:`PROBE_PERIOD_S`, it times :data:`PROBE_STEPS` steps of a
    fixed pure-Python event loop (a heap agenda driving generator
    processes, the kind of work the simulator does).
    """

    def __init__(self):
        def process(k):
            now = 0.0
            while True:
                now = yield now + 1.0 + (k % 7) * 0.5

        self._procs = [process(k) for k in range(64)]
        self._heap = [(next(p), k) for k, p in enumerate(self._procs)]
        heapq.heapify(self._heap)
        self.speeds = []
        self.cost = 0.0

    def _speed(self):
        heap, procs = self._heap, self._procs
        push, pop = heapq.heappush, heapq.heappop
        start = time.perf_counter()
        for _ in range(PROBE_STEPS):
            now, k = pop(heap)
            push(heap, (procs[k].send(now), k))
        return PROBE_STEPS / (time.perf_counter() - start)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.speeds.append(self._speed())
        self.cost += time.perf_counter() - start

    def __enter__(self):
        self.speeds = [self._speed()]
        self.cost = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, seconds):
        """``seconds`` of the probed cell, less the probe's own time,
        at the reference host speed."""
        return ((seconds - self.cost) * statistics.fmean(self.speeds)
                * PROBE_REF_STEP_S)


class Measurements:
    """Cell executions of one or more passes."""

    def __init__(self):
        self.seconds = {}
        self.scaled = {}
        self.attempted = 0
        self.failed = 0
        self.outputs = {}

    def add(self, cell, outcome, scaled=None):
        self.seconds.setdefault(cell.name, []).append(outcome.seconds)
        if scaled is not None:
            self.scaled.setdefault(cell.name, []).append(scaled)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.outputs.setdefault(cell.name, outcome.outputs)

    def wall(self, scaled=False):
        """Sum over cells of each cell's median host seconds, as
        measured or rescaled to the reference host speed."""
        times = self.scaled if scaled else self.seconds
        return sum(statistics.median(v) for v in times.values())


def run_pass(workload, index, acc, probe=None):
    """One pass over the cells; each timed under ``probe`` if given."""
    for cell in workload.order(index):
        outcome = workload.execute(cell, monitor=probe)
        acc.add(cell, outcome,
                probe.calibrated(outcome.seconds) if probe else None)


def time_setups(args):
    """Median host seconds from spawning a fresh benchmark process to
    its first simulation call (imports and input generation)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - start
            p.stdout.read()
            p.wait(timeout=CHILD_TIMEOUT)
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed: {p.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


def rss_per_job(args):
    """KB of peak RSS per job between two lengths of the open
    time-sharing cell, each run in a fresh process; and failures."""
    from workloads import RSS_PROBE_DURATIONS

    points, failed = [], 0
    for duration in RSS_PROBE_DURATIONS[args.size]:
        cmd = [sys.executable, os.path.abspath(__file__), "--rss-probe",
               str(duration), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT, check=True).stdout
        probe = json.loads(out.splitlines()[-1])
        points.append((probe["jobs"], probe["rss_kb"]))
        failed += probe["failed"]
    (j1, r1), (j2, r2) = points
    return (r2 - r1) / (j2 - j1), len(points), failed


def peak_rss_kb():
    """Peak resident set size of this process's own address space.

    ``ru_maxrss`` would also count the parent's resident set, which a
    process started by fork and exec inherits as its starting peak;
    ``VmHWM`` belongs to the address space made by exec.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, args, setup_s):
    acc = Measurements()
    probe = SpeedProbe()
    start = now = time.perf_counter()
    index = 0
    # Another pass starts only if half of it fits in the time left.
    while index == 0 or (now - start) * (1 + 0.5 / index) < args.seconds:
        run_pass(workload, index, acc, probe)
        index += 1
        now = time.perf_counter()
    metrics = {
        "wall_s": metric(acc.wall(scaled=True), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_kb() / 1024.0, "MB"),
    }
    print(f"passes {index}, uncalibrated wall {acc.wall():.4f} s",
          file=sys.stderr)
    return metrics, acc.attempted, acc.failed


def per_layer(workload, args, package_dir):
    import cProfile

    import layers
    from workloads import COUNT_FIELDS

    untraced = Measurements()
    run_pass(workload, 0, untraced)
    traced = Measurements()
    profiler = cProfile.Profile()
    for cell in workload.order(1):
        traced.add(cell, workload.execute(cell, monitor=profiler))
    split = layers.split(profiler, layers.LayerMap(package_dir))
    total = sum(s for s, _ in split.values())

    metrics = {}
    for layer, (self_s, calls) in split.items():
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.share"] = metric(self_s / total, "ratio")
        metrics[f"{layer}.calls"] = metric(calls, "count")
    metrics["trace.overhead"] = metric(
        traced.wall() / untraced.wall(), "ratio")

    c = {field: sum(out.get(field, 0) for out in untraced.outputs.values())
         for field in COUNT_FIELDS + ("trace_events", "decisions")}
    metrics.update({
        "sim.events": metric(c["events"], "count"),
        "sim.handoffs": metric(c["handoffs"], "count"),
        "sim.events_per_s": metric(c["events"] / untraced.wall(),
                                   "1/s"),
        "transputer.cpu.dispatches": metric(c["dispatches"], "count"),
        "transputer.cpu.preemptions": metric(c["preemptions"], "count"),
        "transputer.cpu.busy_sim_s": metric(c["busy_sim_s"], "sim_s"),
        "transputer.memory.wait_sim_s": metric(c["memory_wait_sim_s"],
                                               "sim_s"),
        "transputer.memory.buffer_wait_sim_s": metric(
            c["buffer_wait_sim_s"], "sim_s"),
        "transputer.link.queue_sim_s": metric(c["link_queue_sim_s"],
                                              "sim_s"),
        "comm.messages": metric(c["messages"], "count"),
        "comm.bytes": metric(c["bytes"], "B"),
        "core.jobs": metric(c["jobs"], "count"),
        "core.mean_rt_sim_s": metric(c["rt_sum_sim_s"] / c["jobs"],
                                     "sim_s"),
        "obs.trace_events": metric(c["trace_events"], "count"),
        "obs.decisions": metric(c["decisions"], "count"),
        "obs.windows": metric(c["windows"], "count"),
    })
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    rss = 0.0
    if workload.name == "open_stream":
        rss, probe_runs, probe_failed = rss_per_job(args)
        attempted += probe_runs
        failed += probe_failed
    metrics["sim.stores.rss_kb_per_job"] = metric(rss, "KB/job")
    return metrics, attempted, failed


def run_all(args):
    """Every workload, untraced and then traced, each in a fresh
    process, printing their metric lines.  Returns 1 if any failed."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None):
    sys.path.insert(0, _HERE)
    args = parse_args(sys.argv[1:] if argv is None else argv)
    package_dir = locate_program()
    if args.workload is None:
        return run_all(args)
    from workloads import Workload, run_rss_probe

    if args.rss_probe is not None:
        jobs, failed = run_rss_probe(args.size, args.seed, args.rss_probe)
        print(json.dumps({"jobs": jobs, "rss_kb": peak_rss_kb(),
                          "failed": failed}))
        return 0
    workload = Workload(args.workload, args.size, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    if args.trace:
        metrics, attempted, failed = per_layer(workload, args, package_dir)
    else:
        metrics, attempted, failed = end_to_end(workload, args,
                                                time_setups(args))
    for name, m in metrics.items():
        print(f"{args.workload:14} {name:38} {m['value']:>16.6g} "
              f"{m['unit']}")
    print(f"{args.workload:14} {'fail_frac':38} "
          f"{failed / attempted:>16.6g} ratio  (ops {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
