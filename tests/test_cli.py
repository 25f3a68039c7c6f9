"""Tests for the `paraverser` command-line interface."""

import argparse
import ast
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import main, parse_checkers


def _usage_error(capsys, monkeypatch, argv):
    """``argv`` fails at parse time: exit 2, nothing on stdout, and one
    stderr line (returned).  No command may run: the command table is
    emptied, so getting past the parser would raise KeyError."""
    monkeypatch.setattr(cli, "_COMMANDS", {})
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err.strip()


class TestParseCheckers:
    def test_single_group(self):
        checkers = parse_checkers("4xA510@2.0")
        assert len(checkers) == 4
        assert all(c.config.name == "A510" for c in checkers)
        assert all(c.freq_ghz == 2.0 for c in checkers)

    def test_mixed_pool(self):
        checkers = parse_checkers("2xX2@1.5,1xA510@2.0")
        assert len(checkers) == 3
        assert checkers[0].config.name == "X2"
        assert checkers[2].config.name == "A510"

    def test_bad_format_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_checkers("A510")

    def test_unknown_core_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_checkers("1xM1@3.0")

    def test_out_of_range_frequency_rejected(self):
        with pytest.raises(ValueError):
            parse_checkers("1xA510@9.9")


class TestCommands:
    def test_workloads_lists_profiles(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "bwaves" in out and "bfs" in out and "canneal" in out

    def test_workloads_suite_filter(self, capsys):
        main(["workloads", "--suite", "gap"])
        out = capsys.readouterr().out
        assert "bfs" in out
        assert "bwaves" not in out

    def test_run_reports_overheads(self, capsys):
        code = main(["run", "-w", "exchange2", "-c", "1xA510@2.0",
                     "-n", "6000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "coverage" in out
        assert "energy overhead" in out

    def test_run_opportunistic_mode(self, capsys):
        main(["run", "-w", "exchange2", "-c", "1xA510@0.5",
              "-m", "opportunistic", "-n", "6000"])
        out = capsys.readouterr().out
        assert "opportunistic" in out

    def test_run_hash_slow_noc(self, capsys):
        main(["run", "-w", "exchange2", "-c", "1xX2@3.0",
              "--hash", "--slow-noc", "-n", "6000"])
        out = capsys.readouterr().out
        assert "hash" in out

    def test_inject_campaign(self, capsys):
        """The stuck-at injection campaign is `campaign --fault-kinds
        stuck_at`."""
        code = main(["campaign", "-w", "exchange2", "-t", "5", "-n", "6000",
                     "-j", "1", "--fault-kinds", "stuck_at"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trials:                  5" in out
        assert "stuck_at        injected    5" in out
        assert "detection" in out

    def test_campaign_runs_serially(self, capsys):
        code = main(["campaign", "-w", "exchange2", "-t", "4",
                     "-n", "6000", "-j", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trials:" in out
        assert "detection" in out

    def test_campaign_json_row(self, capsys):
        code = main(["campaign", "-w", "exchange2", "-t", "4",
                     "-n", "6000", "-j", "1", "--json"])
        assert code == 0
        import json
        row = json.loads(capsys.readouterr().out)
        assert row["trials"] == 4
        assert row["detected"] + row["masked"] + row["missed"] == 4

    def test_campaign_resume_round_trip(self, capsys, tmp_path):
        args = ["campaign", "-w", "exchange2", "-n", "6000", "-j", "1",
                "--campaign-dir", str(tmp_path)]
        assert main([*args, "-t", "2"]) == 0
        capsys.readouterr()
        assert main([*args, "-t", "4", "--resume"]) == 0
        assert "resumed from shards:     2" in capsys.readouterr().out

    def test_campaign_rejects_unknown_fault_kind(self, capsys,
                                                 monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["campaign", "-w", "exchange2",
                             "--fault-kinds", "cosmic_ray"])
        assert "--fault-kinds" in line
        assert "unknown fault kind 'cosmic_ray'" in line

    def test_campaign_resume_requires_dir(self, capsys):
        code = main(["campaign", "-w", "exchange2", "--resume"])
        assert code == 2
        assert "--campaign-dir" in capsys.readouterr().err

    def test_campaign_stats_json(self, capsys, tmp_path):
        stats_path = tmp_path / "stats.json"
        code = main(["campaign", "-w", "exchange2", "-t", "2",
                     "-n", "6000", "-j", "1",
                     "--stats-json", str(stats_path)])
        assert code == 0
        import json
        tree = json.loads(stats_path.read_text())
        assert tree["faults"]["injected"] == 2

    def test_campaign_telemetry_jsonl(self, capsys, tmp_path):
        import json
        jsonl_path = tmp_path / "faults.jsonl"
        code = main(["campaign", "-w", "exchange2", "-t", "8",
                     "-n", "6000", "-j", "1",
                     "--telemetry-jsonl", str(jsonl_path)])
        assert code == 0
        lines = jsonl_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert all(r["label"] == "faults.exchange2" for r in records)
        assert [r["epoch"] for r in records] == list(range(1, len(records) + 1))
        final = records[-1]["stats"]["campaign"]
        assert final["trials"] == 8
        assert 0 <= final["detected"] <= 8

    def test_campaign_chunked_matches_serial(self, capsys):
        import json
        base = ["campaign", "-w", "exchange2", "-t", "4", "-n", "6000",
                "--json"]
        assert main([*base, "-j", "1"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main([*base, "-j", "2", "--chunk", "2"]) == 0
        chunked = json.loads(capsys.readouterr().out)
        for key in ("trials", "detected", "masked", "missed", "by_kind"):
            assert chunked[key] == serial[key]

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert main(["cache", "info"]) == 2
        assert "REPRO_TRACE_CACHE" in capsys.readouterr().err

    def test_cache_info_purge(self, capsys, tmp_path, monkeypatch):
        from repro.cpu.tracecache import TraceCache
        from repro.harness.runner import WorkloadCache

        tc = TraceCache(tmp_path)
        cache = WorkloadCache(max_instructions=4000, seed=7,
                              trace_cache=tc)
        cache.get("exchange2")  # populates one entry
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:           1" in out
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        assert main(["cache", "purge"]) == 0
        assert "purged entries:    1" in capsys.readouterr().out
        assert tc.info()["entries"] == 0

    def test_fleet_prints_cell_table(self, capsys):
        code = main(["fleet", "--policies", "shortest", "--modes", "full",
                     "--loads", "0.7", "--duration", "0.2", "-j", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shortest_full_load0.7" in out
        assert "p99" in out and "cover" in out

    def test_fleet_json_rows(self, capsys):
        import json
        code = main(["fleet", "--policies", "rr", "--modes",
                     "opportunistic", "--loads", "0.9", "--duration",
                     "0.2", "-j", "1", "--json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["label"] == "rr_opportunistic_load0.9"
        assert 0.0 < row["coverage"] <= 1.0

    def test_fleet_stats_json(self, capsys, tmp_path):
        import json
        stats_path = tmp_path / "fleet.json"
        code = main(["fleet", "--policies", "shortest", "--modes", "full",
                     "--loads", "0.7", "--duration", "0.2", "-j", "1",
                     "--stats-json", str(stats_path)])
        assert code == 0
        tree = json.loads(stats_path.read_text())
        cell = tree["fleet"]["shortest_full_load0.7"]
        assert cell["coverage"] == 1.0
        assert cell["latency_ms"]["p99"] > 0

    def test_fleet_bad_numeric_flag_one_liner(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["fleet", "--servers", "four"])
        assert "--servers" in line and "'four'" in line

    def test_fleet_bad_float_flag_one_liner(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["fleet", "--duration", "2s"])
        assert "--duration" in line and "'2s'" in line

    def test_fleet_unknown_policy_rejected(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["fleet", "--policies", "power-of-two",
                             "--duration", "0.2"])
        assert "--policies" in line
        assert "unknown dispatch policy 'power-of-two'" in line

    def test_fleet_unknown_mode_rejected(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["fleet", "--modes", "sometimes",
                             "--duration", "0.2"])
        assert "--modes" in line and "unknown mode 'sometimes'" in line

    def test_control_prints_frontier_table(self, capsys):
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--epoch-s", "0.1", "--reps", "1", "-j", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "always_full" in out
        assert "always_opportunistic" in out
        assert "controlled" in out
        assert "frontier: p99 vs always-full" in out

    def test_control_json_reports_dominance(self, capsys):
        import json
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--epoch-s", "0.1", "--reps", "1", "-j", "1",
                     "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["arms"]) == {"always_full",
                                    "always_opportunistic", "controlled"}
        assert set(out["dominates"]) == {"p99_vs_full",
                                         "coverage_vs_opportunistic"}

    def test_control_stats_and_telemetry_outputs(self, capsys, tmp_path):
        import json
        stats_path = tmp_path / "control.json"
        jsonl_path = tmp_path / "epochs.jsonl"
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--epoch-s", "0.1", "--reps", "1", "-j", "1",
                     "--stats-json", str(stats_path),
                     "--telemetry-jsonl", str(jsonl_path)])
        assert code == 0
        capsys.readouterr()
        tree = json.loads(stats_path.read_text())
        cell = tree["control"]["shortest_threshold_load0.7"]
        assert cell["epochs"] == 5
        assert "power" in tree
        assert "shortest_full_load0.7" in tree["fleet"]
        lines = jsonl_path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["label"] \
            == "control.shortest_threshold_load0.7"

    def test_control_bad_flags_one_liner(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["control", "--epoch-s", "fast"])
        assert "--epoch-s" in line and "'fast'" in line
        line = _usage_error(capsys, monkeypatch,
                            ["control", "--policy", "pid"])
        assert "--policy" in line and "'pid'" in line
        assert "threshold" in line

    def test_control_env_knobs_apply(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CONTROL_EPOCH_S", "0.25")
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--reps", "1", "-j", "1"])
        assert code == 0
        assert "epoch 0.25s" in capsys.readouterr().out

    def test_control_bad_env_knob_one_liner(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTROL_EPOCH_S", "fast")
        with pytest.raises(SystemExit) as excinfo:
            main(["control", "--servers", "4", "--duration", "0.5"])
        assert "REPRO_CONTROL_EPOCH_S" in str(excinfo.value)

    def test_control_rejects_degenerate_scale(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["control", "--servers", "0",
                             "--duration", "0.5"])
        assert "--servers" in line and "'0'" in line

    def test_control_bad_env_epoch_rejected_before_work(self, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_CONTROL_EPOCH_S", "0")
        assert main(["control", "--servers", "4", "--duration", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "REPRO_CONTROL_EPOCH_S" in err

    def test_control_ed2p_needs_single_group_pool(self, capsys):
        code = main(["control", "--policy", "ed2p_budget",
                     "--checkers", "2xA510@2.0,1xX2@3.0",
                     "--duration", "0.5"])
        assert code == 2
        assert "single-group pool" in capsys.readouterr().err

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "-w", "doom", "-n", "1000"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestRouteCli:
    """`paraverser route` flag validation: one-line errors, no spawns."""

    def test_bad_replicas_one_liner(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--replicas", "many"])
        assert "--replicas" in line and "'many'" in line

    def test_bad_shards_one_liner(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch, ["route", "--shards", "3.5"])
        assert "--shards" in line and "'3.5'" in line

    def test_bad_health_interval_one_liner(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--health-interval", "soon"])
        assert "--health-interval" in line and "'soon'" in line

    def test_bad_workers_one_liner(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--workers", "a few"])
        assert "--workers" in line and "'a few'" in line

    def test_shards_and_backends_conflict(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--shards", "2",
                             "--backends", "127.0.0.1:1"])
        assert "--shards" in line and "--backends" in line

    def test_out_of_range_values_rejected(self, capsys, monkeypatch):
        for argv, flag, value in ((["--shards", "0"], "--shards", "'0'"),
                                  (["--replicas", "-3"], "--replicas",
                                   "'-3'"),
                                  (["--health-interval", "-1",
                                    "--shards", "1"],
                                   "--health-interval", "'-1'")):
            line = _usage_error(capsys, monkeypatch, ["route", *argv])
            assert "route:" in line and flag in line and value in line

    def test_backends_entry_without_port(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--backends", "localhost"])
        assert "--backends" in line and "host:port" in line

    def test_backends_entry_bad_port(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--backends", "127.0.0.1:http"])
        assert "--backends" in line and "'http' is not an integer" in line

    def test_backends_entry_port_out_of_range(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--backends", "127.0.0.1:99999"])
        assert "'99999'" in line and "in [1, 65535]" in line

    def test_backends_empty_list_rejected(self, capsys, monkeypatch):
        line = _usage_error(capsys, monkeypatch,
                            ["route", "--backends", " , "])
        assert "--backends" in line and "at least one" in line


#: (argv, flag, value): every numeric or enumerated flag of every
#: subcommand with a value of the wrong type and, where the flag has a
#: range, one outside it.  The cases with a named test above are not
#: repeated here.
FLAG_CASES = [
    (["run", "-w", "mcf", "-c", "bogus"], "--checkers", "bogus"),
    (["run", "-w", "mcf", "-c", "1xM1@3.0"], "--checkers", "M1"),
    (["run", "-w", "mcf", "-c", "1xA510@9.9"], "--checkers", "9.9"),
    (["run", "-w", "mcf", "-m", "sometimes"], "--mode", "sometimes"),
    (["run", "-w", "mcf", "-n", "many"], "--instructions", "many"),
    (["run", "-w", "mcf", "-n", "0"], "--instructions", "0"),
    (["run", "-w", "mcf", "--sampling-rate", "half"], "--sampling-rate",
     "half"),
    (["run", "-w", "mcf", "--sampling-rate", "1.5"], "--sampling-rate",
     "1.5"),
    (["run", "-w", "mcf", "--stage-jobs", "two"], "--stage-jobs", "two"),
    (["run", "-w", "mcf", "--seed", "x"], "--seed", "x"),
    (["run", "-w", "mcf", "--backend", "tmr"], "--backend", "tmr"),
    (["campaign", "-w", "mcf", "-c", "bogus"], "--checkers", "bogus"),
    (["campaign", "-w", "mcf", "-c", "1xA510@9.9"], "--checkers", "9.9"),
    (["campaign", "-w", "mcf", "-m", "sometimes"], "--mode", "sometimes"),
    (["campaign", "-w", "mcf", "-t", "ten"], "--trials", "ten"),
    (["campaign", "-w", "mcf", "-t", "0"], "--trials", "0"),
    (["campaign", "-w", "mcf", "-n", "many"], "--instructions", "many"),
    (["campaign", "-w", "mcf", "-n", "-5"], "--instructions", "-5"),
    (["campaign", "-w", "mcf", "--seed", "x"], "--seed", "x"),
    (["campaign", "-w", "mcf", "-j", "all"], "--jobs", "all"),
    (["campaign", "-w", "mcf", "--chunk", "big"], "--chunk", "big"),
    (["campaign", "-w", "mcf", "--chunk", "0"], "--chunk", "0"),
    (["campaign", "-w", "mcf", "--backend", "tmr"], "--backend", "tmr"),
    (["campaign", "-w", "mcf", "--fault-kinds", ","], "--fault-kinds",
     ","),
    (["campaign", "-w", "mcf", "--port", "http"], "--port", "http"),
    (["campaign", "-w", "mcf", "--port", "70000"], "--port", "70000"),
    (["campaign", "-w", "mcf", "--timeout", "soon"], "--timeout", "soon"),
    (["campaign", "-w", "mcf", "--timeout", "0"], "--timeout", "0"),
    (["scenarios", "-c", "bogus"], "--checkers", "bogus"),
    (["scenarios", "-m", "sometimes"], "--mode", "sometimes"),
    (["scenarios", "-t", "ten"], "--trials", "ten"),
    (["scenarios", "-t", "0"], "--trials", "0"),
    (["scenarios", "-n", "many"], "--instructions", "many"),
    (["scenarios", "-n", "0"], "--instructions", "0"),
    (["scenarios", "--seed", "x"], "--seed", "x"),
    (["scenarios", "-j", "all"], "--jobs", "all"),
    (["scenarios", "--schemes", "tmr"], "--schemes", "tmr"),
    (["scenarios", "--schemes", ","], "--schemes", ","),
    (["fleet", "--servers", "0"], "--servers", "0"),
    (["fleet", "--duration", "0"], "--duration", "0"),
    (["fleet", "--loads", "high"], "--loads", "high"),
    (["fleet", "--loads", "0.7,0"], "--loads", "0"),
    (["fleet", "--reps", "x"], "--reps", "x"),
    (["fleet", "--reps", "0"], "--reps", "0"),
    (["fleet", "-j", "all"], "--jobs", "all"),
    (["fleet", "--seed", "x"], "--seed", "x"),
    (["fleet", "--checkers", "bogus"], "--checkers", "bogus"),
    (["fleet", "--checkers", "0xA510@2.0"], "--checkers", "0xA510@2.0"),
    (["fleet", "--lag-bound-ms", "x"], "--lag-bound-ms", "x"),
    (["fleet", "--lag-bound-ms", "-1"], "--lag-bound-ms", "-1"),
    (["fleet", "--mean-service-ms", "x"], "--mean-service-ms", "x"),
    (["fleet", "--mean-service-ms", "0"], "--mean-service-ms", "0"),
    (["fleet", "--clients", "x"], "--clients", "x"),
    (["fleet", "--clients", "0"], "--clients", "0"),
    (["fleet", "--think-ms", "x"], "--think-ms", "x"),
    (["fleet", "--think-ms", "0"], "--think-ms", "0"),
    (["fleet", "--keys", "x"], "--keys", "x"),
    (["fleet", "--keys", "0"], "--keys", "0"),
    (["fleet", "--zipf", "x"], "--zipf", "x"),
    (["fleet", "--zipf", "-1"], "--zipf", "-1"),
    (["fleet", "--epoch-s", "x"], "--epoch-s", "x"),
    (["fleet", "--epoch-s", "-1"], "--epoch-s", "-1"),
    (["control", "--servers", "x"], "--servers", "x"),
    (["control", "--load", "x"], "--load", "x"),
    (["control", "--load", "0"], "--load", "0"),
    (["control", "--duration", "x"], "--duration", "x"),
    (["control", "--duration", "0"], "--duration", "0"),
    (["control", "--epoch-s", "0"], "--epoch-s", "0"),
    (["control", "--budget", "x"], "--budget", "x"),
    (["control", "--budget", "0"], "--budget", "0"),
    (["control", "--dwell", "x"], "--dwell", "x"),
    (["control", "--dwell", "0"], "--dwell", "0"),
    (["control", "--stall-high", "x"], "--stall-high", "x"),
    (["control", "--stall-high", "1.5"], "--stall-high", "1.5"),
    (["control", "--stall-low", "x"], "--stall-low", "x"),
    (["control", "--stall-low", "-0.1"], "--stall-low", "-0.1"),
    (["control", "--checkers", "bogus"], "--checkers", "bogus"),
    (["control", "--reps", "x"], "--reps", "x"),
    (["control", "--reps", "0"], "--reps", "0"),
    (["control", "-j", "all"], "--jobs", "all"),
    (["control", "--seed", "x"], "--seed", "x"),
    (["workloads", "--suite", "cpu2006"], "--suite", "cpu2006"),
    (["figures", "fig99"], "names", "fig99"),
    (["figures", "fig6", "-j", "all"], "--jobs", "all"),
    (["figures", "fig6", "--stage-jobs", "two"], "--stage-jobs", "two"),
    (["serve", "--port", "http"], "--port", "http"),
    (["serve", "--port", "70000"], "--port", "70000"),
    (["serve", "--workers", "x"], "--workers", "x"),
    (["serve", "--workers", "-1"], "--workers", "-1"),
    (["serve", "--queue-depth", "x"], "--queue-depth", "x"),
    (["serve", "--queue-depth", "0"], "--queue-depth", "0"),
    (["serve", "--batch-window-ms", "x"], "--batch-window-ms", "x"),
    (["serve", "--batch-window-ms", "-1"], "--batch-window-ms", "-1"),
    (["serve", "--timeout", "x"], "--timeout", "x"),
    (["serve", "--timeout", "0"], "--timeout", "0"),
    (["serve", "-n", "x"], "--instructions", "x"),
    (["serve", "-n", "0"], "--instructions", "0"),
    (["serve", "--seed", "x"], "--seed", "x"),
    (["serve", "--epoch-s", "x"], "--epoch-s", "x"),
    (["serve", "--epoch-s", "-1"], "--epoch-s", "-1"),
    (["serve", "--prime", "mcf,doom"], "--prime", "doom"),
    (["route", "--port", "http"], "--port", "http"),
    (["route", "--port", "-1"], "--port", "-1"),
    (["route", "--workers", "0"], "--workers", "0"),
    (["route", "--batch-window-ms", "x"], "--batch-window-ms", "x"),
    (["route", "--batch-window-ms", "-1"], "--batch-window-ms", "-1"),
    (["eval", "-w", "mcf", "-c", "bogus"], "--checkers", "bogus"),
    (["eval", "-w", "mcf", "--backend", "tmr"], "--backend", "tmr"),
    (["eval", "-w", "mcf", "-m", "sometimes"], "--mode", "sometimes"),
    (["eval", "-w", "mcf", "-n", "x"], "--instructions", "x"),
    (["eval", "-w", "mcf", "-n", "0"], "--instructions", "0"),
    (["eval", "-w", "mcf", "--seed", "x"], "--seed", "x"),
    (["eval", "-w", "mcf", "--fault-trials", "x"], "--fault-trials", "x"),
    (["eval", "-w", "mcf", "--fault-trials", "-1"], "--fault-trials",
     "-1"),
    (["eval", "-w", "mcf", "--port", "http"], "--port", "http"),
    (["eval", "-w", "mcf", "--port", "70000"], "--port", "70000"),
    (["eval", "-w", "mcf", "--timeout", "x"], "--timeout", "x"),
    (["eval", "-w", "mcf", "--timeout", "0"], "--timeout", "0"),
    (["cache", "wipe"], "action", "wipe"),
    (["stats-diff", "a.json", "b.json", "--threshold", "x"], "--threshold",
     "x"),
    (["stats-diff", "a.json", "b.json", "--threshold", "-1"],
     "--threshold", "-1"),
]


@pytest.mark.parametrize("argv,flag,value", FLAG_CASES,
                         ids=[" ".join(case[0]) for case in FLAG_CASES])
def test_bad_flag_value_is_a_one_line_usage_error(capsys, monkeypatch,
                                                  argv, flag, value):
    line = _usage_error(capsys, monkeypatch, argv)
    assert line.startswith(f"paraverser {argv[0]}: error: ")
    assert flag in line and value in line


def test_jobs_rule(monkeypatch):
    """-j: an omitted flag reads REPRO_JOBS; a value <= 0 is all CPUs."""
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS",
                        {"fleet": lambda args: seen.append(args.jobs)})
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    monkeypatch.setenv("REPRO_JOBS", "3")
    main(["fleet"])
    main(["fleet", "-j", "2"])
    main(["fleet", "-j", "0"])
    monkeypatch.setenv("REPRO_JOBS", "-1")
    main(["fleet"])
    assert seen == [3, 2, 5, 5]


def test_no_library_module_imports_the_cli():
    """Only the CLI itself may import repro.cli: library code gets the
    pool-spec grammar from repro.cpu.presets."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "repro":
                    names += [f"repro.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "repro.cli" or name.startswith("repro.cli.")
                   for name in names):
                offenders.append(str(path.relative_to(root)))
    assert offenders == []
