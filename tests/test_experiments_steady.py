"""Tests for the steady-state sweep engine and its CLI subcommand."""

import io
import json

import pytest

from repro.experiments.cli import main
from repro.experiments.steady import (
    POLICIES,
    format_steady_table,
    run_steady_sweep,
    steady_cell,
    steady_cell_bursty,
)
from repro.obs.steadylog import SCHEMA, read_steady_log


def test_steady_cell_runs_and_summarises():
    result = steady_cell("static", rate=4.0, duration=30.0, nodes=4,
                         mean_ops=1.65e5, seed=3)
    assert result.jobs_completed > 50
    steady = result.steady
    assert steady["mean"] > 0
    assert 0 <= steady["warmup_jobs"] < result.jobs_completed
    assert result.percentile_response(99) >= result.percentile_response(50)


def test_steady_cell_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown policy"):
        steady_cell("fifo", rate=1.0, duration=5.0)


@pytest.mark.parametrize("entry", [steady_cell, steady_cell_bursty])
def test_steady_entry_points_share_policy_lookup(entry):
    """Both entry points name the choices in a ``ValueError``; the
    bursty one used to leak a bare ``KeyError``."""
    with pytest.raises(ValueError,
                       match=r"unknown policy 'nope'; choose from "
                             r"\['static', 'ts'\]"):
        entry("nope", rate=1.0, duration=5.0)


def test_steady_cell_bursty_runs():
    result = steady_cell_bursty("ts", rate=3.0, duration=30.0, nodes=4,
                                seed=3, mean_on=1.0, mean_off=1.0)
    assert result.jobs_completed > 20


@pytest.mark.parametrize("entry", [steady_cell, steady_cell_bursty])
@pytest.mark.parametrize("window", [0.0, float("nan")])
def test_steady_entry_points_reject_a_bad_window(entry, window):
    """An explicit width reaches the sink as given: ``window=0`` used to
    become the default width, and a NaN width emitted no window."""
    with pytest.raises(ValueError, match="window must be finite and "
                                         "positive"):
        entry("static", rate=1.0, duration=5.0, window=window)


@pytest.mark.parametrize("entry", [steady_cell, steady_cell_bursty])
def test_steady_entry_points_default_window_is_a_fiftieth(entry):
    assert entry("static", rate=2.0, duration=5.0).sink.window == 0.1
    assert entry("static", rate=2.0, duration=5.0,
                 window=0.5).sink.window == 0.5


def test_run_steady_sweep_rows():
    rows = run_steady_sweep((0.4,), ("static", "ts"), duration=25.0,
                            nodes=4, seed=5)
    assert len(rows) == 2
    by_policy = {r["policy"]: r for r in rows}
    assert set(by_policy) == set(POLICIES)
    static = by_policy["static"]
    assert "mmc_rt" in static and static["mmc_rt"] > 0
    assert "mmc_rt" not in by_policy["ts"]  # anchor only where M/M/c applies
    for row in rows:
        assert row["jobs"] > 0
        assert row["ci95"] >= 0
        assert 0.0 <= row["util"] <= 1.0
        assert row["p99"] >= row["p50"] > 0


def test_run_steady_sweep_rejects_unknown_arrival():
    with pytest.raises(ValueError, match="arrival"):
        run_steady_sweep((0.4,), ("static",), duration=5.0,
                         arrival="hyperexp")


def test_format_steady_table():
    rows = run_steady_sweep((0.4,), ("static",), duration=25.0, seed=5)
    table = format_steady_table(rows)
    assert "steady rt" in table and "M/M/c" in table
    assert "static" in table
    # One data line per row plus header material.
    assert table.count("static") >= 1


def test_cli_steady_smoke(tmp_path, capsys):
    out_path = tmp_path / "steady.jsonl"
    code = main([
        "steady", "--rho", "0.4", "--policies", "static",
        "--duration", "25", "--seed", "5",
        "--steady-out", str(out_path),
    ])
    assert code in (0, 1)  # 1 = unsound CI at this short duration; still ran
    captured = capsys.readouterr().out
    assert "Steady-state sweep" in captured
    assert "static" in captured
    events = read_steady_log(out_path)
    assert events[0]["ev"] == "steady.start"
    assert events[0]["schema"] == SCHEMA
    windows = [e for e in events if e["ev"] == "window"]
    assert windows
    finish = [e for e in events if e["ev"] == "steady.finish"]
    assert len(finish) == 1 and finish[0]["completed"] > 0
    # Stream is line-delimited JSON throughout.
    for line in out_path.read_text().splitlines():
        json.loads(line)


def test_cli_steady_rejects_unknown_policy(tmp_path):
    with pytest.raises(SystemExit):
        main(["steady", "--policies", "nope", "--duration", "5"])


def test_cli_policy_names_match_the_engine():
    """The parser's spelled-out policy names are the engine's keys."""
    from repro.experiments import cli

    assert cli.STEADY_POLICIES == tuple(sorted(POLICIES))


_BAD_STEADY_ARGS = [
    (["--rho", "abc"], "--rho: 'abc' is not a number"),
    (["--rho", "0.5,0"], "offered loads must be positive and finite"),
    (["--rho", "nan"], "offered loads must be positive and finite"),
    (["--rho", "inf"], "offered loads must be positive and finite"),
    (["--duration", "0"], "--duration must be positive and finite"),
    (["--duration", "nan"], "--duration must be positive and finite"),
    (["--nodes", "0"], "--nodes must be >= 1"),
    (["--window", "-1"], "--window must be positive and finite"),
    (["--window", "nan"], "--window must be positive and finite"),
    (["--policies", "nope"], "unknown policy 'nope'"),
    (["--policies", "static,nope"], "unknown policy 'nope'"),
    (["--policies", ","], "--policies: name at least one of"),
    (["--seed", "-1"], "--seed must be >= 0"),
]


@pytest.mark.parametrize("argv, message", _BAD_STEADY_ARGS,
                         ids=["=".join(argv) for argv, _ in _BAD_STEADY_ARGS])
def test_cli_steady_rejects_bad_arguments_before_any_cell(argv, message,
                                                         capsys):
    """Each bad argument fails at parsing, exit 2 with nothing on
    stdout; before, some raised from inside the model after earlier
    cells had run, and ``--rho abc`` ended in a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["steady", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_steady_overloaded_static_cell_has_no_mmc_column(capsys):
    """At rho >= 1 the M/M/c queue is unstable: the static cell still
    runs and the prediction column reads "—" instead of crashing the
    sweep after the cell."""
    rows = run_steady_sweep((1.5,), ("static",), duration=5.0, nodes=4,
                            seed=5)
    assert rows[0]["jobs"] > 0 and "mmc_rt" not in rows[0]
    assert main(["steady", "--rho", "1.5", "--policies", "static",
                 "--duration", "5"]) in (0, 1)
    table_line = [line for line in capsys.readouterr().out.splitlines()
                  if line.strip().startswith("static")][-1]
    assert "—" in table_line
