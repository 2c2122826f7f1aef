"""Command-line entry point: regenerate figures and ablations.

Examples::

    python -m repro.experiments --figure 3
    python -m repro.experiments --figure all --scale smoke
    python -m repro.experiments --figure all --jobs 0   # all cores
    python -m repro.experiments --ablation variance
    python -m repro.experiments --figure 4 --csv fig4.csv
    python -m repro.experiments --figure 3 --trace-out run.perfetto.json \
        --metrics-out metrics.json
    python -m repro.experiments profile --figure 4 --scale smoke \
        --attrib-out attrib.json --flame-out profile.collapsed
    python -m repro.experiments hotspots --figure 4 --scale smoke \
        --kernelprof-out hotspots.json --flame-out kernel.collapsed
    python -m repro.experiments decisions --figure 4 --scale smoke \
        --decisions-out decisions.jsonl --perfetto-out decisions.trace.json
    python -m repro.experiments --figure all --jobs 0 \
        --sweep-log sweep.jsonl --heartbeat
    python -m repro.experiments diff baseline/ candidate/ \
        --report-out diff.txt --json-out diff.json --fail-on-regression
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.experiments.config import ExperimentScale, figure_spec
from repro.experiments.report import (
    format_ablation,
    format_attribution_summary,
    format_grid,
    format_telemetry_summary,
    grid_to_csv,
)

# Only the two modules above load with the CLI.  Each handler imports
# the rest of what its run uses, so a figure run never loads numpy, the
# process pool or a recorder it does not enable.

#: The ``--ablation`` names: the keys of
#: ``repro.experiments.ablations.ALL_ABLATIONS``, spelled out so that
#: parsing the command line (``--help`` included) loads no model.
ABLATION_NAMES = ("discipline", "gang", "host", "memory", "placement",
                  "quantum", "routing", "rrprocess", "treedist",
                  "variance", "wormhole")

#: The ``steady --policies`` names: the keys of
#: ``repro.experiments.steady.POLICIES``, spelled out for the same reason.
STEADY_POLICIES = ("static", "ts")

#: ``--sample-every`` default: ``repro.obs.kernelprof.DEFAULT_SAMPLE_EVERY``.
DEFAULT_SAMPLE_EVERY = 64


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures and ablations of Chan, "
                    "Dandamudi & Majumdar (IPPS 1997).",
    )
    parser.add_argument(
        "command", nargs="?",
        choices=("profile", "diff", "steady", "hotspots", "decisions"),
        default=None,
        help="'profile' runs the causal profiler over the selected "
             "figures: wait-state attribution per policy, critical "
             "paths, and optional flame/attribution exports; 'diff' "
             "compares two recorded runs (BENCH json / --metrics-out / "
             "--attrib-out documents, or directories of them) and "
             "localises significant regressions to wait-state buckets; "
             "'steady' sweeps an open-system arrival stream over "
             "offered loads with O(1)-memory streaming statistics, "
             "MSER warm-up truncation, and batch-means CIs; 'hotspots' "
             "runs the selected figures under the kernel self-profiler "
             "and prints where the *simulator engine* spent its "
             "wall-clock (per-event-type breakdown, agenda pressure, "
             "callback sites); 'decisions' replays the selected "
             "figures with the scheduler decision ledger on and prints "
             "per-policy why-tables (placements, sizings, deferrals, "
             "quantum-expiry vs block-yield), checking that each job's "
             "queued time decomposes exactly over its deferrals",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="(diff) the baseline and candidate runs: each a recorded "
             "JSON document or a directory containing them",
    )
    parser.add_argument(
        "--figure", help="figure number 3-6, or 'all'", default=None
    )
    parser.add_argument(
        "--ablation",
        help=f"one of {list(ABLATION_NAMES)}, or 'all'",
        default=None,
    )
    parser.add_argument(
        "--scale", choices=("paper", "smoke"), default="paper",
        help="problem-size scaling (default: paper)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the figure sweep and validation "
             "battery (default 1 = serial; 0 = one per CPU core); "
             "results are cell-for-cell identical to a serial run",
    )
    parser.add_argument(
        "--csv", default=None, help="also write the grid as CSV to this path"
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record telemetry and write the last cell's run as a "
             "Chrome-trace/Perfetto JSON (open at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="record telemetry and write per-cell metric summaries as JSON",
    )
    parser.add_argument(
        "--attrib-out", default=None, metavar="PATH",
        help="(profile) write the full per-job wait-state attribution "
             "and critical paths as JSON",
    )
    parser.add_argument(
        "--flame-out", default=None, metavar="PATH",
        help="(profile/hotspots) write critical paths (profile) or the "
             "kernel hot-path breakdown (hotspots) as a collapsed-stack "
             "file (open with speedscope or flamegraph.pl)",
    )
    parser.add_argument(
        "--kernelprof-out", default=None, metavar="PATH",
        help="(hotspots) write the full repro-kernelprof/1 document "
             "(per-event-type breakdown, agenda depth percentiles, "
             "events/sec timeline, counters) as JSON",
    )
    parser.add_argument(
        "--sample-every", type=int,
        default=DEFAULT_SAMPLE_EVERY, metavar="N",
        help="(hotspots) read host clocks on roughly one event in N — "
             "step timing and callback timing each get a ~1-in-N "
             "stream with randomised gaps (default "
             f"{DEFAULT_SAMPLE_EVERY}; smaller = finer "
             "attribution, more overhead)",
    )
    parser.add_argument(
        "--memory", action="store_true",
        help="(hotspots) also attribute allocations with sampled "
             "tracemalloc+gc snapshots (roughly doubles allocation "
             "cost; off by default)",
    )
    parser.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="(hotspots) rows per ranked table (default 12)",
    )
    parser.add_argument(
        "--decisions-out", default=None, metavar="PATH",
        help="(decisions) write every run's ledger as consecutive "
             "repro-decisions/1 JSONL segments",
    )
    parser.add_argument(
        "--perfetto-out", default=None, metavar="PATH",
        help="(decisions) write the last cell's trace — scheduler "
             "decision instants on per-scheduler tracks, interleaved "
             "with the ordinary telemetry events — as a Chrome-trace/"
             "Perfetto JSON (open at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--sweep-log", default=None, metavar="PATH",
        help="write the sweep's lifecycle (cell start/finish/retry/"
             "error with wall-clock, worker id, events/sec) as a "
             "repro-sweep/1 JSONL stream",
    )
    parser.add_argument(
        "--heartbeat", dest="heartbeat", action="store_true",
        default=None,
        help="force the live stderr progress line (completed/total "
             "cells, rate, ETA) on; default: on when stderr is a "
             "terminal",
    )
    parser.add_argument(
        "--no-heartbeat", dest="heartbeat", action="store_false",
        help="force the live stderr progress line off",
    )
    parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="(diff) also write the human-readable diff report here",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="(diff) write the structured repro-diff/1 document here",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="(diff) exit 1 when a significant regression or any "
             "simulated drift (bench mean RT, counters) is found, "
             "3 when an attribution profile is truncated (unsound)",
    )
    parser.add_argument(
        "--min-effect", type=float, default=None, metavar="FRAC",
        help="(diff) smallest relative mean-RT change that counts as "
             "significant (default 0.01)",
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=None, metavar="FRAC",
        help="(diff) allowed fractional wall-clock regression "
             "(default 0.20, calibration-normalised when possible)",
    )
    parser.add_argument(
        "--resamples", type=int, default=None, metavar="N",
        help="(diff) bootstrap resamples per cell (default 2000)",
    )
    parser.add_argument(
        "--rho", default=None, metavar="R1,R2,...",
        help="(steady) offered loads to sweep as a comma list "
             "(default 0.3,0.5,0.7,0.85)",
    )
    parser.add_argument(
        "--duration", type=float, default=200.0, metavar="SECONDS",
        help="(steady) simulated seconds of arrivals per cell "
             "(default 200; jobs in flight still finish)",
    )
    parser.add_argument(
        "--nodes", type=int, default=4, metavar="N",
        help="(steady) machine size per cell (default 4)",
    )
    parser.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="(steady) time-series window width (default: duration/50)",
    )
    parser.add_argument(
        "--arrival", choices=("poisson", "bursty"), default="poisson",
        help="(steady) arrival discipline (bursty = Markov-modulated "
             "on/off at the same offered load)",
    )
    parser.add_argument(
        "--policies", default="static,ts", metavar="P1,P2",
        help="(steady) comma list of policies to sweep "
             "(default static,ts)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, metavar="N",
        help="(steady) arrival/demand stream seed (default 7)",
    )
    parser.add_argument(
        "--steady-out", default=None, metavar="PATH",
        help="(steady) write every cell's windowed time series and "
             "summary as consecutive repro-steady/1 JSONL segments",
    )
    parser.add_argument(
        "--decisions", action="store_true",
        help="(steady) run with the scheduler decision ledger on: "
             "every streamed window then carries O(1)-memory "
             "decisions/deferrals rate columns",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also render figures as ASCII bar charts",
    )
    parser.add_argument(
        "--sensitivity", action="store_true",
        help="run the calibration-sensitivity sweep (slow)",
    )
    parser.add_argument(
        "--topologies", action="store_true",
        help="print the topology property table",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="run the closed-form validation report",
    )
    args = parser.parse_args(argv)
    if args.command in ("profile", "hotspots", "decisions") and \
            args.figure is None:
        args.figure = "4"  # the paper's central comparison
    if args.command == "diff":
        if len(args.paths) != 2:
            parser.error("diff takes exactly two run paths: "
                         "diff <baseline> <candidate>")
    elif args.paths:
        parser.error(f"unexpected positional arguments {args.paths}")
    if args.command == "hotspots" and args.sample_every < 1:
        parser.error("--sample-every must be >= 1")
    if args.ablation not in (None, "all", *ABLATION_NAMES):
        parser.error(f"unknown ablation {args.ablation!r}; choose from "
                     f"{list(ABLATION_NAMES)} or 'all'")
    if args.command == "steady":
        _check_steady_args(parser, args)
    if args.command not in ("diff", "steady", "hotspots", "decisions") \
            and not (args.figure or args.ablation or args.sensitivity
                     or args.topologies or args.validate):
        parser.error("pass a command (profile, diff, steady, hotspots, "
                     "decisions), --figure, --ablation, --sensitivity, "
                     "--topologies and/or --validate")
    return args


def _check_steady_args(parser, args):
    """Reject bad ``steady`` arguments before any cell runs.

    Leaves ``args.rho`` (``None`` for the default loads) and
    ``args.policies`` as parsed tuples.  The bounds are written so that
    NaN fails them.  An offered load of 1 or more is allowed: the
    stream still ends, and the queue's growth is the result.
    """
    if args.rho is not None:
        rhos = []
        for text in args.rho.split(","):
            try:
                rho = float(text)
            except ValueError:
                parser.error(f"--rho: {text.strip()!r} is not a number")
            if not 0 < rho < math.inf:
                parser.error(f"--rho: offered loads must be positive and "
                             f"finite, got {text.strip()!r}")
            rhos.append(rho)
        args.rho = tuple(rhos)
    policies = tuple(p.strip() for p in args.policies.split(",")
                     if p.strip())
    if not policies:
        parser.error(f"--policies: name at least one of "
                     f"{list(STEADY_POLICIES)}")
    for policy in policies:
        if policy not in STEADY_POLICIES:
            parser.error(f"unknown policy {policy!r}; choose from "
                         f"{list(STEADY_POLICIES)}")
    args.policies = policies
    if not 0 < args.duration < math.inf:
        parser.error(f"--duration must be positive and finite, "
                     f"got {args.duration!r}")
    if args.nodes < 1:
        parser.error(f"--nodes must be >= 1, got {args.nodes}")
    if args.window is not None and not 0 < args.window < math.inf:
        parser.error(f"--window must be positive and finite, "
                     f"got {args.window!r}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")


def _sweep_observer(args):
    """Build the sweep observer from ``--sweep-log``/``--heartbeat``.

    Returns ``None`` when neither is active — the executors then skip
    every hook, so an unobserved sweep is byte-identical to the old
    behaviour.  The heartbeat defaults to "on when stderr is a
    terminal" and writes only to stderr, never stdout.
    """
    heartbeat = args.heartbeat
    if heartbeat is None:
        heartbeat = sys.stderr.isatty()
    if not (args.sweep_log or heartbeat):
        return None
    from repro.obs.sweeplog import Heartbeat, MultiObserver, SweepLog

    observers = []
    if args.sweep_log:
        observers.append(SweepLog(args.sweep_log))
    if heartbeat:
        observers.append(Heartbeat())
    return observers[0] if len(observers) == 1 else MultiObserver(observers)


def _artifact(out, path, schema, detail=""):
    """One line per written artifact: path, schema id, optional detail.

    Every subcommand that writes a document reports it through here so
    the terminal output always says *what* was written, not just where
    — ``schema`` is a registry id like ``repro-metrics/1`` for JSON/
    JSONL documents, or a plain format name (``csv``, ``chrome-trace``,
    ``collapsed-stacks``, ``text``) for unversioned formats.
    """
    tail = f"; {detail}" if detail else ""
    print(f"wrote {path} [{schema}{tail}]", file=out)


def _run_figures(args, out=None):
    """Run the selected figures; returns the number of failed cells."""
    from repro.experiments.parallel import resolve_jobs

    out = out or sys.stdout
    scale = (ExperimentScale.paper() if args.scale == "paper"
             else ExperimentScale.smoke())
    numbers = [3, 4, 5, 6] if args.figure == "all" else [int(args.figure)]
    profiling = (args.command == "profile" or args.attrib_out
                 or args.flame_out)
    telemetry_wanted = bool(args.trace_out or args.metrics_out or profiling)
    jobs = resolve_jobs(args.jobs)
    observer = _sweep_observer(args)
    try:
        return _run_figure_sweep(args, numbers, scale, jobs, observer,
                                 telemetry_wanted, profiling, out)
    finally:
        # One observer watches every figure's sweep; its resources
        # (the sweep-log stream) outlive any single sweep.
        if observer is not None:
            observer.close()


def _run_figure_sweep(args, numbers, scale, jobs, observer,
                      telemetry_wanted, profiling, out):
    from repro.experiments.parallel import run_figure_parallel
    from repro.experiments.runner import run_figure

    all_cells = []
    all_telemetry = []  # (figure, label, policy, Telemetry)
    all_errors = []
    for number in numbers:
        spec = figure_spec(number)
        start = time.time()
        sink = [] if telemetry_wanted else None

        def progress(cell):
            print(f"  {cell.label:>4} {cell.policy:<12} "
                  f"rt={cell.mean_response_time:9.3f}s", file=out)

        print(f"=== Figure {number}: {spec.title} [{scale.name}]", file=out)
        if jobs > 1:
            errors = []
            cells = run_figure_parallel(spec, scale, jobs=jobs,
                                        progress=progress,
                                        telemetry_sink=sink, errors=errors,
                                        observer=observer)
            for err in errors:
                print(f"  {err.describe()}", file=out)
            all_errors.extend(errors)
        else:
            cells = run_figure(spec, scale, progress=progress,
                               telemetry_sink=sink, observer=observer)
        if cells:
            print(format_grid(cells,
                              title=f"Figure {number} ({spec.title})"),
                  file=out)
        else:
            print(f"Figure {number} ({spec.title}): no cells succeeded",
                  file=out)
        if sink:
            print(format_telemetry_summary(sink), file=out)
            if profiling:
                print(format_attribution_summary(sink), file=out)
            all_telemetry.extend((number, label, policy, tel)
                                 for label, policy, tel in sink)
        if args.chart:
            from repro.trace import render_series

            series = {}
            for cell in cells:
                series.setdefault(cell.policy, {})[cell.label] = (
                    cell.mean_response_time
                )
            print(render_series(series), file=out)
        print(f"  ({time.time() - start:.1f}s)", file=out)
        all_cells.extend(cells)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(grid_to_csv(all_cells))
        _artifact(out, args.csv, "csv", f"{len(all_cells)} grid cells")
    if args.sweep_log:
        # Observers must not perturb stdout (it is byte-identical with
        # and without them), so this artifact line goes to stderr.
        _artifact(sys.stderr, args.sweep_log, "repro-sweep/1")
    if telemetry_wanted:
        _write_telemetry(args, all_telemetry, out)
    if profiling and (args.attrib_out or args.flame_out):
        _write_profile(args, all_telemetry, out)
    if all_errors:
        # Structured failure summary: emitted whether the sweep failed
        # wholesale or only partially, so partial successes never read
        # as clean runs.
        print(f"=== {len(all_errors)} cell(s) FAILED "
              f"({len(all_cells)} succeeded)", file=out)
        for err in all_errors:
            print(f"  {err.describe()}", file=out)
    return len(all_errors)


def _write_telemetry(args, entries, out):
    """Export recorded telemetry (Perfetto trace + metrics JSON).

    ``entries`` is the figure-tagged sweep telemetry:
    ``(figure, label, policy, Telemetry)`` tuples.
    """
    if not entries:
        print("no telemetry recorded", file=out)
        return
    if args.trace_out:
        from repro.obs import write_perfetto

        figure, label, policy, tel = entries[-1]
        n = write_perfetto(tel, args.trace_out)
        summary = tel.summary()
        _artifact(out, args.trace_out, "chrome-trace",
                  f"{n} trace events from cell {label} ({policy}); "
                  f"{summary['events']} recorded, "
                  f"{summary['dropped']} dropped")
    if args.metrics_out:
        from repro.experiments.parallel import merged_metrics

        doc = {
            "schema": "repro-metrics/1",
            "cells": [
                {
                    "figure": figure,
                    "label": label,
                    "policy": policy,
                    "summary": tel.summary(),
                    "metrics": tel.metrics.to_dict(),
                }
                for figure, label, policy, tel in entries
            ],
            # Sweep-wide aggregate: counters add, histograms merge
            # exactly (identical whether cells ran serially or on a
            # worker pool).
            "combined": merged_metrics(
                [(label, policy, tel)
                 for _fig, label, policy, tel in entries]
            ).to_dict(),
        }
        with open(args.metrics_out, "w") as fh:
            json.dump(doc, fh, indent=1)
        dropped = sum(c["summary"]["dropped"] for c in doc["cells"])
        _artifact(out, args.metrics_out, "repro-metrics/1",
                  f"{len(doc['cells'])} cells, "
                  f"{dropped} events dropped overall")


def _write_profile(args, entries, out):
    """Export the causal profile (attribution JSON + collapsed stacks).

    Every attribution cell carries its figure and the recorder's
    dropped-event count: the run differ refuses to trust bucket deltas
    built from a truncated trace, so the evidence of truncation must
    travel with the profile.
    """
    from repro.obs import collapsed_lines, profile_run

    if not entries:
        print("no telemetry recorded to profile", file=out)
        return
    profiles = [(figure, label, policy, profile_run(tel),
                 tel.recorder.dropped)
                for figure, label, policy, tel in entries]
    if args.attrib_out:
        doc = {
            "schema": "repro-profile/1",
            "cells": [
                {"figure": figure, "label": label, "policy": policy,
                 "dropped": dropped, **prof.to_dict()}
                for figure, label, policy, prof, dropped in profiles
            ],
        }
        with open(args.attrib_out, "w") as fh:
            json.dump(doc, fh, indent=1)
        jobs = sum(len(p.jobs) for _f, _l, _p, p, _d in profiles)
        _artifact(out, args.attrib_out, "repro-profile/1",
                  f"{len(profiles)} cells, {jobs} jobs attributed")
    if args.flame_out:
        lines = []
        for _figure, label, policy, prof, _dropped in profiles:
            lines.extend(
                collapsed_lines(prof.paths, prefix=f"{label}:{policy}")
            )
        with open(args.flame_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            if lines:
                fh.write("\n")
        _artifact(out, args.flame_out, "collapsed-stacks",
                  f"{len(lines)} stacks; open with speedscope "
                  f"or flamegraph.pl")


def _run_diff(args, out=None):
    """``diff <baseline> <candidate>``: the run-diff regression explainer.

    Returns the process exit code: 0 clean, 1 significant regression
    or any simulated drift (with ``--fail-on-regression``), 3 when an
    attribution profile was built from a truncated trace — those deltas
    are unsound and must not pass a gate silently.
    """
    out = out or sys.stdout
    from repro.obs.diff import (
        DEFAULT_MIN_EFFECT,
        DEFAULT_RESAMPLES,
        DEFAULT_WALL_TOLERANCE,
        diff_runs,
        format_diff_report,
        load_run_bundle,
    )

    base_path, cand_path = args.paths
    try:
        baseline = load_run_bundle(base_path)
        candidate = load_run_bundle(cand_path)
    except (OSError, ValueError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    result = diff_runs(
        baseline, candidate,
        min_effect=(args.min_effect if args.min_effect is not None
                    else DEFAULT_MIN_EFFECT),
        resamples=(args.resamples if args.resamples is not None
                   else DEFAULT_RESAMPLES),
        wall_tolerance=(args.wall_tolerance
                        if args.wall_tolerance is not None
                        else DEFAULT_WALL_TOLERANCE),
    )
    report = format_diff_report(result)
    print(report, end="", file=out)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(report)
        _artifact(out, args.report_out, "text", "human-readable report")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=1)
        _artifact(out, args.json_out, "repro-diff/1",
                  f"{len(result.cells)} cells")
    return result.exit_code(fail_on_regression=args.fail_on_regression)


def _run_hotspots(args, out=None):
    """``hotspots``: profile the simulation engine itself.

    Runs the selected figures serially under the kernel self-profiler
    (parallel workers would profile only the parent process, so
    ``--jobs`` is ignored here) and prints the ranked hot-path report:
    which event types the engine spent its wall-clock on, agenda
    pressure, sampled callback sites, and the model-layer counters.
    ``--kernelprof-out`` writes the validated ``repro-kernelprof/1``
    document; ``--flame-out`` writes the breakdown as collapsed stacks
    for speedscope/FlameGraph.  Returns the process exit code.
    """
    out = out or sys.stdout
    from repro.experiments.runner import run_figure
    from repro.obs.kernelprof import (
        format_kernelprof,
        kernel_collapsed_lines,
        kernel_profile,
        validate_kernelprof,
        write_kernelprof,
    )
    from repro.obs.profile import write_collapsed_lines

    scale = (ExperimentScale.paper() if args.scale == "paper"
             else ExperimentScale.smoke())
    numbers = [3, 4, 5, 6] if args.figure == "all" else [int(args.figure)]
    start = time.time()
    with kernel_profile(sample_every=args.sample_every,
                        memory=args.memory) as kp:
        for number in numbers:
            spec = figure_spec(number)
            print(f"=== Hotspots: figure {number} ({spec.title}) "
                  f"[{scale.name}]", file=out)
            run_figure(spec, scale)
    doc = kp.document()
    validate_kernelprof(doc)
    print(format_kernelprof(doc, top=args.top), file=out)
    if args.kernelprof_out:
        write_kernelprof(doc, args.kernelprof_out)
        _artifact(out, args.kernelprof_out, "repro-kernelprof/1",
                  f"{doc['events']} events profiled")
    if args.flame_out:
        lines = kernel_collapsed_lines(doc)
        write_collapsed_lines(args.flame_out, lines)
        _artifact(out, args.flame_out, "collapsed-stacks",
                  f"{len(lines)} stacks; open with speedscope "
                  f"or flamegraph.pl")
    print(f"  ({time.time() - start:.1f}s)", file=out)
    return 0


def _run_decisions(args, out=None):
    """``decisions``: replay figures with the scheduler decision ledger.

    Runs the selected figures serially with both telemetry and the
    decision ledger enabled, prints the per-policy decision table
    (placements, sizings, deferral depths, quantum-expiry vs
    block-yield ratios), and checks the linkage invariant on every
    run: each job's profiled ``queued`` bucket must decompose exactly
    over the super-scheduler deferral decisions that explain it.
    ``--decisions-out`` streams every run's ledger as consecutive
    ``repro-decisions/1`` segments; ``--perfetto-out`` exports the last
    cell's trace with decision instants on per-scheduler tracks.
    Returns the process exit code (2 when a linkage check fails).
    """
    out = out or sys.stdout
    from repro.experiments.runner import run_figure
    from repro.obs import (
        DecisionsLog,
        check_decomposition,
        decision_table,
        format_decision_table,
        profile_run,
        queued_decomposition,
        write_perfetto,
    )

    scale = (ExperimentScale.paper() if args.scale == "paper"
             else ExperimentScale.smoke())
    numbers = [3, 4, 5, 6] if args.figure == "all" else [int(args.figure)]
    start = time.time()
    all_cells = []
    entries = []      # (figure, label, policy, DecisionLedger)
    tel_entries = []  # (figure, label, policy, Telemetry), same order
    for number in numbers:
        spec = figure_spec(number)
        print(f"=== Decisions: figure {number} ({spec.title}) "
              f"[{scale.name}]", file=out)
        sink, dsink = [], []
        cells = run_figure(spec, scale, telemetry_sink=sink,
                           decisions_sink=dsink)
        all_cells.extend(cells)
        tel_entries.extend((number, label, policy, tel)
                           for label, policy, tel in sink)
        entries.extend((number, label, policy, led)
                       for label, policy, led in dsink)
    print(format_decision_table(
        decision_table([(label, policy, led)
                        for _f, label, policy, led in entries])), file=out)
    # Linkage invariant: the ledger and the causal profiler agree on
    # where queued time went, run by run and to the last float.
    checked = queued_jobs = failures = 0
    for (figure, label, _p, led), (_f, _l, _p2, tel) in zip(entries,
                                                            tel_entries):
        # The shared recorder carries both the job.* lifecycle marks
        # and the ledger's decision records — the decomposition needs
        # both.
        decomp = queued_decomposition(led.recorder)
        try:
            check_decomposition(decomp, profile_run(tel))
        except ValueError as exc:
            failures += 1
            print(f"  LINKAGE FAILED figure {figure} cell {label}: {exc}",
                  file=out)
        checked += 1
        queued_jobs += len(decomp)
    print(f"linkage: queued-bucket decomposition exact on "
          f"{checked - failures}/{checked} runs "
          f"({queued_jobs} queued jobs)", file=out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(grid_to_csv(all_cells))
        _artifact(out, args.csv, "csv", f"{len(all_cells)} grid cells")
    if args.decisions_out:
        log = DecisionsLog(args.decisions_out)
        try:
            for figure, label, policy, led in entries:
                log.write_segment(led, figure=figure, label=label,
                                  policy=policy)
        finally:
            log.close()
        total = sum(led.total for _f, _l, _p, led in entries)
        _artifact(out, args.decisions_out, "repro-decisions/1",
                  f"{len(entries)} segments, {total} decisions")
    if args.perfetto_out:
        figure, label, policy, tel = tel_entries[-1]
        n = write_perfetto(tel, args.perfetto_out)
        _artifact(out, args.perfetto_out, "chrome-trace",
                  f"{n} events incl. decision instants from cell "
                  f"{label} ({policy})")
    print(f"  ({time.time() - start:.1f}s)", file=out)
    return 2 if failures else 0


def _run_steady(args, out=None):
    """``steady``: open-system rate sweep with streaming statistics.

    Every cell runs ``run_open(collect_jobs=False)`` — O(1) memory in
    the job count — and reports the MSER-truncated mean response time
    with a batch-means 95% CI.  ``--steady-out`` streams each cell's
    windowed time series as consecutive ``repro-steady/1`` segments.
    Returns 1 when any cell's CI failed its soundness checks (warm-up
    not converged or macro-batches too autocorrelated), else 0.
    """
    out = out or sys.stdout
    from repro.experiments.steady import (
        DEFAULT_RHOS,
        format_steady_table,
        run_steady_sweep,
    )

    rhos = args.rho or DEFAULT_RHOS
    log = None
    if args.steady_out:
        from repro.obs.steadylog import SteadyLog

        log = SteadyLog(args.steady_out)
    start = time.time()

    def progress(row):
        print(f"  {row['policy']:>8} rho={row['rho']:<5g} "
              f"{row['jobs']:>8d} jobs  "
              f"rt={row['steady_rt']:.3f}±{row['ci95']:.3f}s"
              f"{'' if row['sound'] else '  [UNSOUND]'}", file=out)

    print(f"=== Steady-state sweep: {args.arrival} arrivals, "
          f"{args.nodes} nodes, {args.duration:g}s per cell", file=out)
    try:
        rows = run_steady_sweep(
            rhos, args.policies, duration=args.duration, nodes=args.nodes,
            window=args.window, seed=args.seed, log=log,
            arrival=args.arrival, progress=progress,
            decisions=args.decisions,
        )
    finally:
        if log is not None:
            log.close()
    print(format_steady_table(rows), file=out)
    if args.steady_out:
        _artifact(out, args.steady_out, "repro-steady/1",
                  f"{len(rows)} cell segments")
    print(f"  ({time.time() - start:.1f}s)", file=out)
    unsound = [r for r in rows if not r["sound"]]
    if unsound:
        print(f"{len(unsound)} cell(s) with unsound CIs — lengthen "
              f"--duration for steady-state claims", file=out)
        return 1
    return 0


def _run_ablations(args, out=None):
    from repro.experiments.ablations import ALL_ABLATIONS

    out = out or sys.stdout
    names = (sorted(ALL_ABLATIONS) if args.ablation == "all"
             else [args.ablation])
    for name in names:
        start = time.time()
        rows, columns = ALL_ABLATIONS[name]()
        print(format_ablation(rows, columns, title=f"=== Ablation: {name}"),
              file=out)
        print(f"  ({time.time() - start:.1f}s)", file=out)


def _run_sensitivity(out=None):
    out = out or sys.stdout
    from repro.experiments.sensitivity import (
        fraction_preserving_finding,
        sensitivity_sweep,
    )

    start = time.time()
    rows, columns = sensitivity_sweep()
    print(format_ablation(rows, columns,
                          title="=== Calibration sensitivity "
                                "(ts/static @ 16L, matmul fixed)"),
          file=out)
    frac = fraction_preserving_finding(rows)
    print(f"finding preserved at {frac:.0%} of perturbed configurations",
          file=out)
    print(f"  ({time.time() - start:.1f}s)", file=out)


def _run_topology_table(out=None):
    out = out or sys.stdout
    from repro.topology import (
        compare_topologies,
        hypercube,
        linear_array,
        mesh,
        ring,
        torus,
    )

    topologies = [
        linear_array(range(16)), ring(range(16)), mesh(range(16)),
        hypercube(range(8)), torus(range(16)),
    ]
    rows = compare_topologies(topologies)
    columns = ["label", "links", "max_degree", "diameter", "avg_distance",
               "bisection"]
    print(format_ablation(rows, columns, title="=== Topology properties"),
          file=out)


def _run_validation(out=None, jobs=1):
    out = out or sys.stdout
    from repro.experiments.validation import all_checks_pass, validation_report

    rows, columns = validation_report(jobs=jobs)
    for row in rows:
        for key in ("simulated", "predicted", "rel_error", "tolerance"):
            row[key] = float(row[key])
    print(format_ablation(rows, columns,
                          title="=== Validation vs closed forms"), file=out)
    ok = all_checks_pass(rows)
    print("all checks passed" if ok else "SOME CHECKS FAILED", file=out)
    return ok


def main(argv=None):
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.command == "diff":
        return _run_diff(args)
    if args.command == "steady":
        return _run_steady(args)
    if args.command == "hotspots":
        return _run_hotspots(args)
    if args.command == "decisions":
        return _run_decisions(args)
    if args.validate:
        if not _run_validation(jobs=args.jobs):
            return 1
    if args.topologies:
        _run_topology_table()
    if args.figure:
        if _run_figures(args):
            return 1
    if args.ablation:
        _run_ablations(args)
    if args.sensitivity:
        _run_sensitivity()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
