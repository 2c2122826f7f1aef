"""Tests for the experiment harness: grids, reports, CLI."""

import io
import json

import pytest

from repro.experiments import (
    ExperimentScale,
    figure_spec,
    format_grid,
    grid_to_csv,
    run_cell,
    run_figure,
)
from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.cli import main as cli_main
from repro.experiments.report import format_ablation
from repro.experiments.runner import GridCell, _policy_for


def tiny_scale():
    """Very small problem sizes so harness tests run in milliseconds."""
    return ExperimentScale(
        "tiny", num_small=2, num_large=1,
        matmul_small=16, matmul_large=32,
        sort_small=256, sort_large=512,
        partition_sizes=(1, 4), topologies=("linear",),
    )


def test_figure_specs():
    for number, app, arch in [(3, "matmul", "fixed"), (4, "matmul", "adaptive"),
                              (5, "sort", "fixed"), (6, "sort", "adaptive")]:
        spec = figure_spec(number)
        assert spec.app == app
        assert spec.architecture == arch
    with pytest.raises(ValueError):
        figure_spec(7)


def test_policy_factory():
    assert _policy_for("static", 4, 16).partition_size(16) == 4
    assert _policy_for("timesharing", 16, 16).name == "timesharing"
    assert _policy_for("timesharing", 4, 16).name == "hybrid"
    with pytest.raises(ValueError):
        _policy_for("gang", 4, 16)


def test_run_cell_static_and_ts():
    scale = tiny_scale()
    for policy in ("static", "timesharing"):
        cell = run_cell(3, "matmul", "fixed", 4, "linear", policy, scale)
        assert isinstance(cell, GridCell)
        assert cell.mean_response_time > 0
        assert cell.label == "4L"
        assert cell.row() == ("4L", policy, cell.mean_response_time)


def test_run_figure_skips_16_hypercube():
    scale = ExperimentScale(
        "tiny", 2, 1, 16, 32, 256, 512,
        partition_sizes=(16,), topologies=("hypercube",),
    )
    cells = run_figure(figure_spec(3), scale)
    assert cells == []


def test_run_figure_p1_single_topology():
    scale = ExperimentScale(
        "tiny", 2, 1, 16, 32, 256, 512,
        partition_sizes=(1,), topologies=("linear", "mesh"),
    )
    cells = run_figure(figure_spec(4), scale)
    # p=1 has no links: one topology, two policies.
    assert len(cells) == 2


def test_run_figure_produces_grid_and_progress():
    seen = []
    cells = run_figure(figure_spec(4), tiny_scale(), progress=seen.append)
    assert len(cells) == len(seen) == 4  # 2 partition sizes x 2 policies
    labels = {c.label for c in cells}
    assert labels == {"1L", "4L"}


def test_format_grid_contains_ratio():
    cells = run_figure(figure_spec(4), tiny_scale())
    text = format_grid(cells, title="demo")
    assert "demo" in text
    assert "ts/static" in text
    assert "4L" in text


def test_grid_to_csv_roundtrip():
    cells = run_figure(figure_spec(4), tiny_scale())
    csv = grid_to_csv(cells)
    lines = csv.strip().splitlines()
    assert len(lines) == len(cells) + 1
    assert lines[0].startswith("figure,app,architecture")


def test_format_ablation_alignment():
    rows = [{"a": 1.0, "b": "x"}, {"a": 2.5, "b": "y"}]
    text = format_ablation(rows, ["a", "b"], title="T")
    assert "T" in text and "2.500" in text and "y" in text


def test_ablation_registry_complete():
    assert {"variance", "wormhole", "memory", "rrprocess", "quantum",
            "placement", "host"} <= set(ALL_ABLATIONS)


def test_scales():
    paper = ExperimentScale.paper()
    assert paper.num_small == 12 and paper.num_large == 4
    assert paper.batch_kwargs("matmul")["small_size"] == 55
    assert paper.batch_kwargs("sort")["large_size"] == 14_000
    with pytest.raises(ValueError):
        paper.batch_kwargs("fft")
    smoke = ExperimentScale.smoke()
    assert smoke.matmul_large < paper.matmul_large


def test_fraction_preserving_finding():
    from repro.experiments.sensitivity import fraction_preserving_finding

    rows = [{"ts/static": 1.2}, {"ts/static": 0.9}, {"ts/static": 1.05},
            {"ts/static": 1.0}]
    assert fraction_preserving_finding(rows) == pytest.approx(0.5)
    assert fraction_preserving_finding([]) == 0.0


def test_sensitivity_knob_table_complete():
    from repro.experiments.sensitivity import DEFAULT_KNOBS
    from repro.transputer import TransputerConfig
    import dataclasses

    fields = {f.name for f in dataclasses.fields(TransputerConfig)}
    assert set(DEFAULT_KNOBS) <= fields


def test_cli_requires_some_work(capsys):
    with pytest.raises(SystemExit):
        cli_main([])


def test_cli_smoke_figure(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    assert cli_main(["--figure", "4", "--scale", "smoke",
                     "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert csv_path.exists()
    assert "figure,app" in csv_path.read_text()


def test_cli_telemetry_exports(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert cli_main(["--figure", "4", "--scale", "smoke",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "=== Telemetry (per policy)" in out
    assert f"wrote {trace_path}" in out
    assert f"wrote {metrics_path}" in out
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    metrics = json.loads(metrics_path.read_text())
    assert metrics["cells"]
    for cell in metrics["cells"]:
        assert {"label", "policy", "summary", "metrics"} <= set(cell)


def test_cli_unknown_ablation():
    with pytest.raises(SystemExit):
        cli_main(["--ablation", "nonexistent"])


def test_cli_unknown_ablation_rejected_before_other_work(capsys):
    """A mistyped ablation fails at argument parsing (exit 2), before
    the validation report or any figure runs."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["--validate", "--ablation", "typo"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown ablation 'typo'" in captured.err


@pytest.mark.parametrize("argv", [
    ["--figure", "9"],
    ["hotspots", "--figure", "x"],
    ["--validate", "--figure", "9"],
])
def test_cli_unknown_figure_rejected_at_parsing(capsys, argv):
    """An unknown figure fails at argument parsing (exit 2), before the
    validation report or any figure runs."""
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--figure" in captured.err


def test_cli_jobs_parallel_produces_identical_csv(tmp_path):
    serial_csv = tmp_path / "serial.csv"
    parallel_csv = tmp_path / "parallel.csv"
    assert cli_main(["--figure", "6", "--scale", "smoke",
                     "--csv", str(serial_csv)]) == 0
    assert cli_main(["--figure", "6", "--scale", "smoke", "--jobs", "2",
                     "--csv", str(parallel_csv)]) == 0
    assert serial_csv.read_text() == parallel_csv.read_text()


def test_cli_partial_failure_summarised_and_nonzero(capsys, monkeypatch):
    """A partially failed --jobs sweep must exit nonzero with a
    structured error summary, even though some cells succeeded.

    Regression: a partial success used to read as a clean run."""
    import repro.experiments.parallel as parallel_mod
    from repro.experiments.parallel import CellError

    real = parallel_mod.run_figure_parallel

    def flaky(spec, scale, *, errors=None, **kwargs):
        cells = real(spec, scale, errors=errors, **kwargs)
        errors.append(CellError(
            figure=spec.number, app=spec.app,
            architecture=spec.architecture, partition_size=16,
            topology="mesh", policy="static", label="16M",
            error="RuntimeError('worker died')", attempts=2))
        return cells

    monkeypatch.setattr(parallel_mod, "run_figure_parallel", flaky)
    assert cli_main(["--figure", "6", "--scale", "smoke",
                     "--jobs", "2", "--no-heartbeat"]) == 1
    out = capsys.readouterr().out
    assert "Figure 6" in out  # the successful cells still render
    assert "=== 1 cell(s) FAILED (10 succeeded)" in out
    assert ("cell 16M [static] figure 6 FAILED after 2 attempts: "
            "RuntimeError('worker died')") in out


def test_cli_all_cells_failed_still_summarises(capsys, monkeypatch):
    """Total failure: no grid table, but the summary and exit code
    survive (format_grid used to crash on an empty cell list)."""
    import repro.experiments.parallel as parallel_mod
    from repro.experiments.parallel import CellError

    def broken(spec, scale, *, errors=None, **kwargs):
        errors.append(CellError(
            figure=spec.number, app=spec.app,
            architecture=spec.architecture, partition_size=1,
            topology="linear", policy="static", label="1L",
            error="RuntimeError('boom')", attempts=2))
        return []

    monkeypatch.setattr(parallel_mod, "run_figure_parallel", broken)
    assert cli_main(["--figure", "6", "--scale", "smoke",
                     "--jobs", "2", "--no-heartbeat"]) == 1
    out = capsys.readouterr().out
    assert "no cells succeeded" in out
    assert "=== 1 cell(s) FAILED (0 succeeded)" in out


def test_format_grid_empty():
    assert "(no cells)" in format_grid([], title="empty")


# -- the diff subcommand -------------------------------------------------
def _attrib_file(tmp_path, name, rts, dropped=0):
    doc = {"schema": "repro-profile/1", "cells": [{
        "figure": 4, "label": "4L", "policy": "static",
        "dropped": dropped,
        "jobs": [{"job_id": i, "response_time": rt,
                  "buckets": {"executing": rt}}
                 for i, rt in enumerate(rts)],
    }]}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_diff_argument_validation(capsys):
    with pytest.raises(SystemExit):
        cli_main(["diff", "only-one-path"])
    with pytest.raises(SystemExit):
        cli_main(["--figure", "4", "stray-positional"])


def test_cli_diff_load_error_exits_2(capsys):
    assert cli_main(["diff", "/nonexistent/a", "/nonexistent/b"]) == 2
    assert "diff:" in capsys.readouterr().err


def test_cli_diff_clean_and_regressed(capsys, tmp_path):
    base = _attrib_file(tmp_path, "base.json", [1.0, 2.0, 3.0])
    same = _attrib_file(tmp_path, "same.json", [1.0, 2.0, 3.0])
    slow = _attrib_file(tmp_path, "slow.json", [1.5, 3.0, 4.5])

    assert cli_main(["diff", base, same, "--fail-on-regression"]) == 0
    out = capsys.readouterr().out
    assert "verdict: OK" in out

    report = tmp_path / "diff.txt"
    doc_out = tmp_path / "diff.json"
    assert cli_main(["diff", base, slow, "--fail-on-regression",
                     "--report-out", str(report),
                     "--json-out", str(doc_out)]) == 1
    out = capsys.readouterr().out
    assert "verdict: REGRESSED" in out
    assert "attributed to: executing" in out
    assert "verdict: REGRESSED" in report.read_text()
    doc = json.loads(doc_out.read_text())
    assert doc["schema"] == "repro-diff/2"
    assert doc["regressed"] is True
    # Without the gate flag the regression is reported but exits 0.
    assert cli_main(["diff", base, slow]) == 0


def test_cli_diff_truncated_trace_exits_3(capsys, tmp_path):
    base = _attrib_file(tmp_path, "base.json", [1.0, 2.0, 3.0])
    trunc = _attrib_file(tmp_path, "trunc.json", [1.5, 3.0, 4.5],
                         dropped=9)
    assert cli_main(["diff", base, trunc, "--fail-on-regression"]) == 3
    assert "UNSOUND" in capsys.readouterr().out


def test_cli_diff_min_effect_override(capsys, tmp_path):
    base = _attrib_file(tmp_path, "base.json", [1.0, 2.0, 3.0])
    slight = _attrib_file(tmp_path, "slight.json", [1.05, 2.1, 3.15])
    assert cli_main(["diff", base, slight, "--fail-on-regression",
                     "--min-effect", "0.20"]) == 0
    assert cli_main(["diff", base, slight, "--fail-on-regression",
                     "--min-effect", "0.01"]) == 1
    capsys.readouterr()
