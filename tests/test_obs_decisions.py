"""Tests for the scheduler decision ledger: zero-cost-when-off, the
queued-bucket linkage invariant, exact counters under ring truncation,
the repro-decisions/1 stream, and the decisions CLI."""

import json
import time

import pytest

from repro.core import (
    DynamicSpaceSharing,
    GangScheduling,
    HybridPolicy,
    MulticomputerSystem,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
)
from repro.experiments import ExperimentScale, figure_spec
from repro.experiments.cli import main as cli_main
from repro.experiments.report import grid_to_csv
from repro.experiments.runner import enumerate_cells, run_cell, run_figure
from repro.obs import (
    DecisionsLog,
    check_decomposition,
    decision_table,
    format_decision_table,
    job_spans,
    profile_run,
    queued_decomposition,
    read_decisions_log,
    to_perfetto,
)
from repro.obs.decisions import CATEGORY, DecisionLedger
from repro.trace import TraceRecorder
from repro.workload import standard_batch

from tests.conftest import ideal_transputer


def run_system(policy, *, nodes=8, telemetry=True, decisions=True,
               capacity=None, ordering=None, **batch_kw):
    cfg = SystemConfig(num_nodes=nodes, topology="linear",
                       transputer=ideal_transputer(), telemetry=telemetry,
                       decisions=decisions, decisions_capacity=capacity)
    system = MulticomputerSystem(cfg, policy)
    kw = dict(num_small=6, num_large=2, small_size=16, large_size=32)
    kw.update(batch_kw)
    batch = standard_batch("matmul", architecture="adaptive", **kw)
    if ordering is not None:
        batch = batch.ordered(ordering)
    result = system.run_batch(batch)
    return system, result


# -- zero-cost-when-off ---------------------------------------------------
def test_ledger_off_by_default():
    system, _ = run_system(StaticSpaceSharing(4), telemetry=False,
                           decisions=False)
    assert system.decisions is None
    assert system.env.decisions is None


def test_ledger_does_not_perturb_results():
    """On or off, the simulated trajectory is identical — recording
    never creates simulation events."""
    _, plain = run_system(StaticSpaceSharing(4), telemetry=False,
                          decisions=False)
    _, ledgered = run_system(StaticSpaceSharing(4), telemetry=False,
                             decisions=True)
    _, again = run_system(StaticSpaceSharing(4), telemetry=False,
                          decisions=False)
    assert plain.mean_response_time == again.mean_response_time
    assert plain.mean_response_time == ledgered.mean_response_time
    assert plain.makespan == ledgered.makespan
    assert plain.snapshot == ledgered.snapshot


def test_figure_csv_byte_identical_with_and_without_ledger():
    """The acceptance criterion: figure output is byte-identical whether
    the ledger ran or not."""
    spec = figure_spec(6)
    scale = ExperimentScale.smoke()
    plain = grid_to_csv(run_figure(spec, scale))
    ledgered = grid_to_csv(run_figure(spec, scale, decisions_sink=[]))
    assert plain == ledgered


def test_overhead_under_ceiling():
    """Ledger overhead < 5 % on the smoke Figure 6 sweep.

    Each attempt runs every cell of the sweep with the ledger off and
    on, back to back, four times over, each arm first in two of the
    four, and compares the summed host CPU seconds of the two arms.  A
    cell's two runs are milliseconds apart, so both arms see the same
    host-speed states and drift cancels without a calibration run.  The
    verdict is on the *minimum* over attempts: a noisy attempt is
    retried, and one attempt under the ceiling bounds the intrinsic
    overhead.
    """
    scale = ExperimentScale.smoke()
    tasks = enumerate_cells(figure_spec(6), scale)

    def run(task, ledgered):
        start = time.process_time()
        run_cell(scale=scale, decisions_sink=[] if ledgered else None,
                 **task)
        return time.process_time() - start

    for task in tasks:  # warm caches both ways
        run(task, False)
        run(task, True)
    ratios = []
    for _ in range(5):
        seconds = {False: 0.0, True: 0.0}
        for rep in range(4):
            for i, task in enumerate(tasks):
                for ledgered in ((False, True) if (i + rep) % 2
                                 else (True, False)):
                    seconds[ledgered] += run(task, ledgered)
        ratios.append(seconds[True] / seconds[False])
        if ratios[-1] - 1.0 < 0.05:
            break  # a clean attempt bounds the intrinsic overhead
    overhead = min(ratios) - 1.0
    assert overhead < 0.05, (
        f"decision-ledger overhead {overhead:.1%} exceeds the 5% "
        f"ceiling in every one of {len(ratios)} attempts "
        f"(ratios={ratios})"
    )


# -- the queued-bucket linkage invariant ----------------------------------
POLICY_CASES = [
    ("static-fcfs-best", lambda: StaticSpaceSharing(4), "best"),
    ("static-fcfs-worst", lambda: StaticSpaceSharing(4), "worst"),
    ("static-sjf", lambda: StaticSpaceSharing(4, discipline="sjf"), None),
    ("static-ljf", lambda: StaticSpaceSharing(4, discipline="ljf"), None),
    ("timesharing", TimeSharing, None),
    ("hybrid", lambda: HybridPolicy(4), None),
    ("gang", lambda: GangScheduling(4), None),
    ("dynamic", DynamicSpaceSharing, None),
]


@pytest.mark.parametrize("name,make,ordering",
                         POLICY_CASES, ids=[c[0] for c in POLICY_CASES])
def test_queued_bucket_decomposes_exactly(name, make, ordering):
    """Every job's profiled ``queued`` bucket is exactly covered by the
    super-scheduler deferral decisions that explain it — same floats,
    no unattributed mass — across every policy family and both static
    orderings."""
    system, _ = run_system(make(), ordering=ordering)
    decomp = queued_decomposition(system.telemetry.recorder)
    prof = profile_run(system.telemetry)
    checked = check_decomposition(decomp, prof)
    assert checked == len(prof.jobs) == len(decomp)
    # Any job that actually waited must be explained by >= 1 deferral.
    for entry in decomp.values():
        if entry["total"] > 0.0:
            assert entry["deferrals"] >= 1
            assert entry["by_reason"]
            assert "unattributed" not in entry["by_reason"]


def test_static_runs_actually_queue():
    """The property test above has teeth: the static cell queues."""
    system, _ = run_system(StaticSpaceSharing(4))
    decomp = queued_decomposition(system.telemetry.recorder)
    queued = [e for e in decomp.values() if e["total"] > 0.0]
    assert queued, "expected contention with 8 jobs on 2 partitions"
    assert system.decisions.deferrals > 0
    reasons = {r for e in queued for r in e["by_reason"]}
    assert reasons == {"no_free_partition"}


def test_dynamic_deferrals_name_the_pool_state():
    system, _ = run_system(DynamicSpaceSharing())
    led = system.decisions
    reasons = {r for (layer, _k, r), _n in led.counts.items()
               if layer == "super"}
    assert "policy" in reasons or "no_free_nodes" in reasons
    decomp = queued_decomposition(system.telemetry.recorder)
    check_decomposition(decomp, profile_run(system.telemetry))


# -- ledger internals -----------------------------------------------------
def test_summary_totals_are_consistent():
    system, _ = run_system(StaticSpaceSharing(4))
    led = system.decisions
    s = led.summary()
    assert s["decisions"] == led.total == sum(led.counts.values())
    assert s["deferrals"] == led.deferrals
    assert s["deferral_depth"]["count"] == led.deferrals
    assert sum(row[3] for row in s["counts"]) == s["decisions"]
    # Slice outcomes were tallied (counter tier), launches recorded.
    kinds = {k for (_l, k, _r) in led.counts}
    assert {"slice", "arm", "launch", "dispatch"} <= kinds


def test_exact_counters_survive_ring_truncation():
    """The counter tier is immune to ring eviction: a tiny ring drops
    record events but every count stays exact."""
    full_sys, _ = run_system(StaticSpaceSharing(4), telemetry=False)
    tiny_sys, _ = run_system(StaticSpaceSharing(4), telemetry=False,
                             capacity=16)
    full, tiny = full_sys.decisions, tiny_sys.decisions
    assert tiny.summary()["dropped"] > 0
    assert len(tiny.decision_events()) <= 16
    assert tiny.counts == full.counts
    assert tiny.total == full.total
    assert tiny.deferrals == full.deferrals


def test_decision_table_aggregates_by_policy():
    entries = []
    for name, make, ordering in (POLICY_CASES[0], POLICY_CASES[4]):
        system, _ = run_system(make(), ordering=ordering)
        entries.append((name, make().name, system.decisions))
    rows = decision_table(entries)
    assert [r["policy"] for r in rows] == sorted(r["policy"] for r in rows)
    for row in rows:
        assert row["decisions"] > 0
        assert row["launches"] > 0
        assert 0.0 <= row["expiry_ratio"] <= 1.0
    text = format_decision_table(rows)
    assert "policy" in text and "expiry" in text


# -- repro-decisions/1 stream ---------------------------------------------
def test_decisions_log_round_trip(tmp_path):
    path = tmp_path / "decisions.jsonl"
    log = DecisionsLog(path)
    ledgers = []
    for label, (name, make, ordering) in zip(
            ("a", "b"), (POLICY_CASES[0], POLICY_CASES[7])):
        system, _ = run_system(make(), ordering=ordering)
        log.write_segment(system.decisions, label=label, policy=name)
        ledgers.append(system.decisions)
    log.close()
    segments = read_decisions_log(path)
    assert [s["meta"]["label"] for s in segments] == ["a", "b"]
    for seg, led in zip(segments, ledgers):
        assert seg["finish"]["decisions"] == led.total
        assert seg["finish"]["deferrals"] == led.deferrals
        assert len(seg["decisions"]) == len(led.decision_events())
        ts = [d["t"] for d in seg["decisions"]]
        assert ts == sorted(ts)
        for d in seg["decisions"]:
            assert isinstance(d["layer"], str)
            assert isinstance(d["kind"], str)
            assert isinstance(d["reason"], str)


def test_decisions_log_rejects_malformed(tmp_path):
    def write(lines):
        p = tmp_path / "bad.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in lines))
        return p

    start = {"ev": "decisions.start", "schema": "repro-decisions/1"}
    finish = {"ev": "decisions.finish", "decisions": 0, "deferrals": 0,
              "dropped": 0, "counts": []}
    dec = {"ev": "decision", "t": 1.0, "layer": "super", "kind": "defer",
           "reason": "x", "subject": "super"}

    with pytest.raises(ValueError, match="empty"):
        read_decisions_log(write([]))
    with pytest.raises(ValueError, match="expected decisions.start"):
        read_decisions_log(write([dec]))
    with pytest.raises(ValueError, match="unsupported decisions log schema"):
        read_decisions_log(write([dict(start, schema="bogus/1")]))
    with pytest.raises(ValueError, match="mid-segment"):
        read_decisions_log(write([start, dec]))
    with pytest.raises(ValueError, match="regresses"):
        read_decisions_log(write(
            [start, dict(dec, t=2.0), dict(dec, t=1.0), finish]))
    with pytest.raises(ValueError, match="missing 'reason'"):
        bad = {k: v for k, v in dec.items() if k != "reason"}
        read_decisions_log(write([start, bad, finish]))
    with pytest.raises(ValueError, match="counts sum"):
        read_decisions_log(write([start, dict(
            finish, counts=[["super", "defer", "x", 3]])]))
    with pytest.raises(ValueError, match="streamed"):
        read_decisions_log(write([start, dec, finish]))


# -- steady-state windows -------------------------------------------------
def test_steady_windows_carry_decision_columns():
    import io

    from repro.experiments.steady import steady_cell
    from repro.obs.steadylog import SteadyLog, read_steady_log

    def windows(**kw):
        buf = io.StringIO()
        steady_cell("static", 4.0, 30.0, nodes=4, log=SteadyLog(buf), **kw)
        return [e for e in read_steady_log(buf.getvalue().splitlines())
                if e["ev"] == "window"]

    on = windows(decisions=True)
    off = windows()
    assert all(isinstance(w["decisions"], int)
               and isinstance(w["deferrals"], int) for w in on)
    assert sum(w["decisions"] for w in on) > 0
    # Ledger-off stream: no decision keys, every other byte identical.
    assert all("decisions" not in w and "deferrals" not in w for w in off)
    assert [{k: v for k, v in a.items()
             if k not in ("decisions", "deferrals")} for a in on] == off


# -- perfetto export ------------------------------------------------------
def test_perfetto_decision_instants_on_scheduler_tracks():
    system, _ = run_system(StaticSpaceSharing(4))
    doc = to_perfetto(system.telemetry)
    events = doc["traceEvents"]
    instants = [e for e in events
                if e.get("cat") == CATEGORY and e.get("ph") == "i"]
    assert instants, "decision instants missing from the trace"
    tracks = {
        e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
        and str(e["args"].get("name", "")).startswith("decisions:")
    }
    assert "decisions:super" in tracks
    assert any(t.startswith("decisions:part") for t in tracks)
    assert any(e["name"].startswith("defer:") for e in instants)


# -- shared ring: decisions interleave with trace events (satellite 3) ----
def test_shared_ring_interleaves_decisions_with_trace():
    system, _ = run_system(StaticSpaceSharing(4))
    tel = system.telemetry
    assert system.decisions.recorder is tel.recorder
    cats = tel.recorder.categories()
    assert CATEGORY in cats
    assert "job.submitted" in cats and "job.dispatched" in cats


def test_ring_overflow_with_mixed_categories_counts_exactly():
    rec = TraceRecorder(capacity=8)
    for i in range(20):
        if i % 3 == 0:
            rec.record(float(i), CATEGORY, "super", layer="super",
                       kind="defer", reason="x")
        else:
            rec.record(float(i), "job.submitted", f"j{i}", job=i)
    assert len(rec) == 8
    assert rec.dropped == 12
    assert [e.time for e in rec] == [float(t) for t in range(12, 20)]


def test_job_spans_tolerate_decision_heavy_truncated_log():
    """A ring full of interleaved decision records evicts early job
    marks; span derivation degrades to the complete pairs instead of
    crashing or misattributing."""
    rec = TraceRecorder(capacity=10)
    rec.record(0.0, "job.submitted", "early", job=0)
    for i in range(20):  # flood: evicts job 0's submit mark
        rec.record(1.0 + i, CATEGORY, "super", layer="super",
                   kind="defer", reason="flood")
    rec.record(30.0, "job.submitted", "late", job=1)
    rec.record(31.0, "job.dispatched", "late", job=1)
    rec.record(32.0, "job.started", "late", job=1)
    rec.record(40.0, "job.completed", "late", job=1)
    rec.record(50.0, "job.dispatched", "early", job=0)  # orphan end mark
    spans = job_spans(rec)
    tracks = {s.track for s in spans}
    assert tracks == {"late"}
    assert {s.name for s in spans} >= {"queued"}
    # The decomposition is equally tolerant: job 0 has no complete
    # window, job 1's zero/positive windows still decompose.
    decomp = queued_decomposition(rec)
    assert set(decomp) == {1}
    assert decomp[1]["total"] == 31.0 - 30.0


# -- CLI ------------------------------------------------------------------
def test_cli_decisions_smoke(capsys, tmp_path):
    dec_path = tmp_path / "decisions.jsonl"
    trace_path = tmp_path / "decisions.trace.json"
    assert cli_main(["decisions", "--figure", "6", "--scale", "smoke",
                     "--no-heartbeat",
                     "--decisions-out", str(dec_path),
                     "--perfetto-out", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "policy" in out and "defers" in out
    assert "linkage: queued-bucket decomposition exact" in out
    assert "LINKAGE FAILED" not in out
    # Satellite: every artifact line names its path and schema id.
    assert f"wrote {dec_path} [repro-decisions/1" in out
    assert f"wrote {trace_path} [chrome-trace" in out
    segments = read_decisions_log(dec_path)
    assert segments and all(s["finish"] is not None for s in segments)
    trace = json.loads(trace_path.read_text())
    assert any(e.get("cat") == CATEGORY for e in trace["traceEvents"])


def test_cli_artifact_lines_name_schema_ids(capsys, tmp_path):
    """Every subcommand that writes a document says what it wrote."""
    metrics = tmp_path / "m.json"
    csv = tmp_path / "g.csv"
    assert cli_main(["--figure", "6", "--scale", "smoke", "--no-heartbeat",
                     "--csv", str(csv), "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {csv} [csv" in out
    assert f"wrote {metrics} [repro-metrics/1" in out
