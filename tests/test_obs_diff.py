"""Tests for the run differ: bundle loading, bootstrap statistics,
cell alignment, bucket localisation, and the gate exit codes."""

import json

import pytest

from repro.experiments import ExperimentScale, run_cell
from repro.obs import (
    bootstrap_mean_delta,
    diff_runs,
    format_diff_report,
    load_run_bundle,
    profile_run,
)
from repro.obs.diff import (
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_TRUNCATED,
    RunBundle,
    SCHEMA,
    _cell_seed,
    _grid_label,
    _parse_grid_label,
    bootstrap_paired_delta,
    sniff_document,
)
from repro.transputer.config import TransputerConfig


# -- synthetic attribution documents -------------------------------------
def attrib_cell(label, policy, rts, figure=4, dropped=0, skipped=(),
                bucket="executing"):
    """One repro-profile/1 cell whose jobs spend all their RT in one
    bucket (so bucket deltas are trivially checkable)."""
    return {
        "figure": figure, "label": label, "policy": policy,
        "dropped": dropped, "skipped_jobs": list(skipped),
        "jobs": [{"job_id": i, "response_time": rt, "buckets": {bucket: rt}}
                 for i, rt in enumerate(rts)],
    }


def attrib_doc(*cells):
    return {"schema": "repro-profile/1", "cells": list(cells)}


def bundle(attrib=None, metrics=None, path="mem"):
    return RunBundle(path=path, attrib=attrib, metrics=metrics)


BASE_RTS = [1.0, 2.0, 3.0, 10.0]

#: The schema tag of a benchmark record the differ does not read.
RETIRED_SCHEMA = "repro-benchmark-record/1"


# -- document sniffing and bundle loading --------------------------------
def test_sniff_document_by_schema():
    assert sniff_document({"schema": "repro-metrics/1"}) == "metrics"
    assert sniff_document({"schema": "repro-profile/1"}) == "attrib"
    # Pre-schema metrics snapshots: recognised structurally.
    assert sniff_document({"cells": [], "combined": {}}) == "metrics"
    assert sniff_document({"whatever": 1}) is None
    assert sniff_document([1, 2]) is None
    # Documents of any other schema (benchmark records, say) are not
    # run evidence.
    assert sniff_document({"schema": RETIRED_SCHEMA}) is None


def test_load_run_bundle_single_file(tmp_path):
    path = tmp_path / "attrib.json"
    path.write_text(json.dumps(attrib_doc(attrib_cell("4L", "static",
                                                      BASE_RTS))))
    b = load_run_bundle(path)
    assert b.attrib["cells"][0]["label"] == "4L"
    assert b.metrics is None
    assert b.label == "attrib.json"


def test_load_run_bundle_rejects_unknown_document(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError, match="unrecognised"):
        load_run_bundle(path)


def test_load_run_bundle_rejects_empty_directory(tmp_path):
    with pytest.raises(ValueError, match="no metrics or attribution"):
        load_run_bundle(tmp_path)


def test_load_run_bundle_directory_collects_all_documents(tmp_path):
    (tmp_path / "BENCH_a.json").write_text(
        json.dumps({"schema": RETIRED_SCHEMA, "scenarios": []}))
    (tmp_path / "attrib.json").write_text(
        json.dumps(attrib_doc(attrib_cell("4L", "static", BASE_RTS))))
    (tmp_path / "metrics.json").write_text(
        json.dumps({"schema": "repro-metrics/1", "cells": [],
                    "combined": {}}))
    (tmp_path / "notes.json").write_text("not even json")
    b = load_run_bundle(tmp_path)
    assert b.attrib is not None and b.metrics is not None
    assert b.label == tmp_path.name


# -- bootstrap statistics ------------------------------------------------
def test_bootstrap_mean_delta_deterministic_and_covers_point():
    base = [1.0, 1.1, 0.9, 1.05]
    cand = [2.0, 2.1, 1.9, 2.05]
    first = bootstrap_mean_delta(base, cand, seed=42)
    again = bootstrap_mean_delta(base, cand, seed=42)
    assert first == again
    delta, lo, hi = first
    assert delta == pytest.approx(1.0)
    assert lo <= delta <= hi
    assert lo > 0  # a full shift of the distribution excludes zero
    # The point estimate never depends on the seed.
    assert bootstrap_mean_delta(base, cand, seed=43)[0] == delta


def test_bootstrap_paired_delta_sees_uniform_shift():
    """Bimodal samples drown a 10% shift unpaired; paired nails it."""
    base = [1.0, 1.1, 10.0, 10.5]
    cand = [v * 1.1 for v in base]
    _d, lo_u, _hi = bootstrap_mean_delta(base, cand, seed=7)
    diffs = [c - b for b, c in zip(base, cand)]
    delta, lo_p, hi_p = bootstrap_paired_delta(diffs, seed=7)
    assert delta == pytest.approx(sum(diffs) / len(diffs))
    assert lo_u <= 0 < lo_p  # unpaired ambiguous, paired significant
    assert lo_p <= delta <= hi_p


def test_bootstrap_handles_degenerate_inputs():
    assert bootstrap_mean_delta([], [1.0]) == (1.0, 1.0, 1.0)
    assert bootstrap_paired_delta([]) == (0.0, 0.0, 0.0)
    d, lo, hi = bootstrap_paired_delta([0.5])
    assert d == lo == hi == 0.5


@pytest.mark.parametrize("resamples", [0, -3, float("nan")])
def test_bootstrap_refuses_fewer_than_one_resample(resamples):
    with pytest.raises(ValueError, match="resamples"):
        bootstrap_mean_delta([1.0, 2.0], [1.5, 2.5], resamples=resamples)
    with pytest.raises(ValueError, match="resamples"):
        bootstrap_paired_delta([0.5, 0.5], resamples=resamples)


@pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.2, float("nan")])
def test_bootstrap_refuses_a_confidence_outside_the_unit_interval(
        confidence):
    """At 1 or more the interval was silently the widest one, at 0 or
    less a zero-width one at the point estimate, which never includes
    zero, and NaN failed inside the percentile lookup."""
    with pytest.raises(ValueError, match="confidence"):
        bootstrap_paired_delta([0.5, 0.2, -0.1, 0.3], confidence=confidence)
    with pytest.raises(ValueError, match="confidence"):
        bootstrap_mean_delta([1.0, 2.0], [1.5, 2.5], confidence=confidence)


@pytest.mark.parametrize("kwargs", [
    {"resamples": 0}, {"resamples": -3},
    {"min_effect": float("nan")}, {"min_effect": float("inf")},
    {"min_effect": -0.01},
    {"confidence": 1.5}, {"confidence": 0.0}, {"confidence": -0.2},
    {"confidence": float("nan")},
], ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
def test_diff_runs_refuses_arguments_that_break_the_gate(kwargs):
    """The library path refuses what the CLI refuses at parsing: no
    resamples leave no interval, a NaN effect bound makes no cell
    significant, silently disarming the gate, and so does a confidence
    of 0 or less (every interval shrinks to its point) or of 1 or
    more."""
    base = attrib_doc(attrib_cell("4L", "static", BASE_RTS))
    cand = attrib_doc(attrib_cell("4L", "static",
                                  [v * 1.5 for v in BASE_RTS]))
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        diff_runs(bundle(attrib=base), bundle(attrib=cand), **kwargs)
    with pytest.raises(ValueError, match=name):
        diff_runs(bundle(), bundle(), **kwargs)  # no cells to bootstrap


def test_cell_seed_is_stable_identity_hash():
    assert _cell_seed((4, "4L", "static")) == _cell_seed((4, "4L", "static"))
    assert _cell_seed((4, "4L", "static")) != _cell_seed((4, "8L", "static"))


# -- label parsing -------------------------------------------------------
def test_grid_label_parsing():
    assert _grid_label("8L:static:best") == "8L"
    assert _grid_label("8L:timesharing") == "8L"
    assert _grid_label("8L") == "8L"
    assert _parse_grid_label("8L") == (8, "L")
    assert _parse_grid_label("16M") == (16, "M")
    assert _parse_grid_label("weird") == (None, "weird")


# -- diffing synthetic runs ----------------------------------------------
def test_identical_attrib_docs_produce_zero_significant_deltas():
    doc = attrib_doc(
        attrib_cell("4L:static:best", "static", BASE_RTS),
        attrib_cell("4L:static:worst", "static", [v * 1.2 for v in BASE_RTS]),
        attrib_cell("4L:timesharing", "timesharing", BASE_RTS),
    )
    result = diff_runs(bundle(attrib=doc), bundle(attrib=doc))
    # Static orderings pool into one aligned cell per policy.
    assert [(c.label, c.policy) for c in result.cells] == [
        ("4L", "static"), ("4L", "timesharing")]
    assert all(c.paired for c in result.cells)
    assert all(not c.significant for c in result.cells)
    assert not result.regressed
    assert result.exit_code(fail_on_regression=True) == EXIT_OK


def test_uniform_slowdown_is_flagged_and_localised():
    base = attrib_doc(
        attrib_cell("4L", "timesharing", BASE_RTS, bucket="transfer"),
        attrib_cell("8L", "timesharing", BASE_RTS, bucket="executing"),
    )
    cand = attrib_doc(
        attrib_cell("4L", "timesharing", [v * 1.1 for v in BASE_RTS],
                    bucket="transfer"),
        attrib_cell("8L", "timesharing", BASE_RTS, bucket="executing"),
    )
    result = diff_runs(bundle(attrib=base), bundle(attrib=cand))
    sig = [c for c in result.cells if c.significant]
    assert [(c.label, c.policy) for c in sig] == [("4L", "timesharing")]
    (c,) = sig
    assert c.paired and c.regression and not c.improvement
    assert c.partition_size == 4 and c.topology == "L"
    assert c.rel == pytest.approx(0.1)
    # All of the delta lives in the bucket the synthetic jobs use...
    assert c.top_buckets()[0][0] == "transfer"
    # ...and the bucket deltas sum to the cell's mean-RT delta.
    assert sum(c.bucket_deltas.values()) == pytest.approx(c.delta)
    assert result.exit_code(fail_on_regression=True) == EXIT_REGRESSION
    assert result.exit_code(fail_on_regression=False) == EXIT_OK


def test_improvement_is_significant_but_not_a_regression():
    base = attrib_doc(attrib_cell("4L", "static", BASE_RTS))
    cand = attrib_doc(attrib_cell("4L", "static",
                                  [v * 0.8 for v in BASE_RTS]))
    result = diff_runs(bundle(attrib=base), bundle(attrib=cand))
    (c,) = result.cells
    assert c.significant and c.improvement and not c.regression
    # Sign-aware ranking: the largest *negative* movers lead.
    assert c.top_buckets()[0][1] < 0
    assert not result.regressed
    assert result.exit_code(fail_on_regression=True) == EXIT_OK


def test_sub_min_effect_delta_is_not_significant():
    base = attrib_doc(attrib_cell("4L", "static", BASE_RTS))
    cand = attrib_doc(attrib_cell("4L", "static",
                                  [v * 1.001 for v in BASE_RTS]))
    result = diff_runs(bundle(attrib=base), bundle(attrib=cand),
                       min_effect=0.01)
    assert not result.cells[0].significant
    # Lowering the practical threshold flips the verdict.
    strict = diff_runs(bundle(attrib=base), bundle(attrib=cand),
                       min_effect=0.0001)
    assert strict.cells[0].significant


def test_misaligned_job_sets_fall_back_to_unpaired():
    base = attrib_doc(attrib_cell("4L", "static", BASE_RTS))
    cand = attrib_doc(attrib_cell("4L", "static", [2.0, 4.0, 6.0]))
    result = diff_runs(bundle(attrib=base), bundle(attrib=cand))
    (c,) = result.cells
    assert not c.paired
    assert c.n_base == 4 and c.n_cand == 3


def test_truncated_attrib_is_unsound_and_trumps_regression():
    base = attrib_doc(attrib_cell("4L", "static", BASE_RTS))
    cand = attrib_doc(attrib_cell("4L", "static",
                                  [v * 2 for v in BASE_RTS], dropped=17))
    result = diff_runs(bundle(attrib=base), bundle(attrib=cand))
    assert result.regressed  # the delta itself is still reported
    assert result.unsound
    assert result.exit_code(fail_on_regression=True) == EXIT_TRUNCATED
    assert result.exit_code(fail_on_regression=False) == EXIT_OK
    assert "UNSOUND" in format_diff_report(result)
    # skipped_jobs is the other truncation signal.
    skipped = attrib_doc(attrib_cell("4L", "static", BASE_RTS,
                                     skipped=[3]))
    assert bundle(attrib=skipped).attrib_truncated()


def test_counter_deltas_from_metrics_snapshots():
    def metrics(msgs, lat):
        return {"schema": "repro-metrics/1", "cells": [], "combined": {
            "net.messages": {"type": "counter", "value": msgs},
            "net.msg_latency": {"type": "histogram", "mean": lat},
            "cpu.busy": {"type": "counter", "value": 7},
        }}

    result = diff_runs(bundle(metrics=metrics(100, 0.5)),
                       bundle(metrics=metrics(150, 0.5)))
    assert [d["name"] for d in result.counters] == ["net.messages"]
    assert result.counters[0]["delta"] == 50
    assert result.counters[0]["rel"] == pytest.approx(0.5)


def test_counter_drift_gates_only_with_metrics_on_both_sides():
    def metrics(msgs):
        return {"schema": "repro-metrics/1", "cells": [], "combined": {
            "net.messages": {"type": "counter", "value": msgs}}}

    drifted = diff_runs(bundle(metrics=metrics(100)),
                        bundle(metrics=metrics(101)))
    assert drifted.drifted and drifted.regressed
    assert drifted.exit_code(fail_on_regression=True) == EXIT_REGRESSION
    assert "1 counter drift" in format_diff_report(drifted)
    same = diff_runs(bundle(metrics=metrics(100)),
                     bundle(metrics=metrics(100)))
    assert same.exit_code(fail_on_regression=True) == EXIT_OK
    one_sided = diff_runs(bundle(), bundle(metrics=metrics(101)))
    assert one_sided.exit_code(fail_on_regression=True) == EXIT_OK


def test_diff_to_dict_round_trips_as_json():
    base = attrib_doc(attrib_cell("4L", "static", BASE_RTS))
    cand = attrib_doc(attrib_cell("4L", "static",
                                  [v * 1.5 for v in BASE_RTS]))
    result = diff_runs(bundle(attrib=base), bundle(attrib=cand))
    doc = json.loads(json.dumps(result.to_dict()))
    assert doc["schema"] == SCHEMA
    assert doc["regressed"] is True and doc["unsound"] is False
    assert doc["significant_regressions"] == 1
    (cell,) = doc["cells"]
    assert cell["paired"] is True
    assert cell["top_buckets"][0][0] == "executing"
    assert doc["config"] == {"min_effect": result.min_effect,
                             "confidence": result.confidence}
    assert not {"wall", "rt_drift_notes", "trajectory"} & set(doc)


# -- the CLI refuses what would crash the differ or disarm its gate --------
def _scaled_pair(tmp_path, factor):
    """Baseline and candidate profile files, candidate RTs x ``factor``."""
    paths = []
    for name, scale in (("base.json", 1.0), ("cand.json", factor)):
        doc = attrib_doc(*(attrib_cell(f"{p}L", "static",
                                       [v * scale for v in BASE_RTS])
                           for p in (1, 2, 4, 8, 16)))
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def test_cli_gate_fails_on_scaled_response_times(tmp_path, capsys):
    from repro.experiments.cli import main as cli_main

    base, cand = _scaled_pair(tmp_path, 1.5)
    assert cli_main(["diff", base, cand,
                     "--fail-on-regression"]) == EXIT_REGRESSION
    assert "verdict: REGRESSED (5 cell(s)" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--resamples", "0"), ("--resamples", "-3"),
    ("--min-effect", "nan"), ("--min-effect", "inf"),
    ("--min-effect", "-0.01"),
])
def test_cli_rejects_arguments_that_break_the_gate(tmp_path, capsys,
                                                   flag, value):
    from repro.experiments.cli import main as cli_main

    base, cand = _scaled_pair(tmp_path, 1.5)
    with pytest.raises(SystemExit) as exc:
        cli_main(["diff", base, cand, "--fail-on-regression", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_cli_refuses_a_benchmark_trajectory_document(tmp_path, capsys):
    from repro.experiments.cli import main as cli_main

    bench = tmp_path / "BENCH_old.json"
    bench.write_text(json.dumps({"schema": RETIRED_SCHEMA,
                                 "scenarios": []}))
    base, _cand = _scaled_pair(tmp_path, 1.0)
    assert cli_main(["diff", str(bench), base]) == 2
    assert "unrecognised document" in capsys.readouterr().err


# -- the real thing: injected slowdown on a live simulation --------------
INJECTED = ("4L", "timesharing")

_REAL = {}


def _real_attrib(inject):
    """Figure-3 cells at p=4; optionally slow the links of one cell."""
    if inject in _REAL:
        return _REAL[inject]
    scale = ExperimentScale("tiny", 4, 2, 24, 48, 512, 1024,
                            partition_sizes=(4,), topologies=("linear",))
    slow = TransputerConfig(link_bandwidth=1.7e6 / 8)
    cells = []
    for policy in ("static", "timesharing"):
        tp = slow if (inject and policy == INJECTED[1]) else None
        sink = []
        run_cell(3, "matmul", "fixed", 4, "linear", policy, scale,
                 transputer=tp, telemetry_sink=sink)
        for label, pol, tel in sink:
            prof = profile_run(tel)
            cells.append({"figure": 3, "label": label, "policy": pol,
                          "dropped": tel.recorder.dropped,
                          **prof.to_dict()})
    doc = attrib_doc(*cells)
    _REAL[inject] = doc
    return doc


def test_identical_simulated_runs_diff_clean():
    """Determinism end-to-end: re-profiling the same cells yields
    exactly zero significant deltas."""
    base = _real_attrib(inject=False)
    again = json.loads(json.dumps(_real_attrib(inject=False)))
    result = diff_runs(bundle(attrib=base), bundle(attrib=again))
    assert len(result.cells) == 2
    assert all(c.paired for c in result.cells)
    assert all(c.delta == 0.0 for c in result.cells)
    assert all(not c.significant for c in result.cells)
    assert result.exit_code(fail_on_regression=True) == EXIT_OK


def test_injected_link_slowdown_attributed_to_transfer():
    """The acceptance scenario: slow one cell's links 8x; the diff must
    flag exactly that cell and blame the transfer bucket."""
    result = diff_runs(bundle(attrib=_real_attrib(inject=False)),
                       bundle(attrib=_real_attrib(inject=True)))
    sig = [c for c in result.cells if c.significant]
    assert [(c.label, c.policy) for c in sig] == [INJECTED]
    (c,) = sig
    assert c.paired and c.regression
    assert c.top_buckets()[0][0] == "transfer"
    # Exhaustive attribution: buckets explain the whole delta.
    assert sum(c.bucket_deltas.values()) == pytest.approx(c.delta,
                                                          rel=1e-6)
    assert result.exit_code(fail_on_regression=True) == EXIT_REGRESSION
    report = format_diff_report(result)
    assert "REGRESSION" in report
    assert "attributed to: transfer" in report
    assert "verdict: REGRESSED" in report
