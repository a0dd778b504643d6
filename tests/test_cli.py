"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

#: A two-domain WRF namelist: a 100x100 parent and one 60x60 nest.
NAMELIST = """
&domains
 max_dom = 2,
 e_we = 100, 60,
 e_sn = 100, 60,
 dx = 24000,
 parent_id = 0, 1,
 i_parent_start = 1, 10,
 j_parent_start = 1, 10,
 parent_grid_ratio = 1, 3,
/
"""


class TestSimulate:
    def test_default_run(self, capsys):
        assert main(["simulate", "--ranks", "256"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "parallel" in out
        assert "improvement" in out

    def test_mapping_choice(self, capsys):
        assert main(["simulate", "--ranks", "256", "--mapping", "multilevel"]) == 0
        assert "multilevel" in capsys.readouterr().out

    def test_io_enabled(self, capsys):
        assert main(["simulate", "--ranks", "256", "--io", "pnetcdf"]) == 0
        out = capsys.readouterr().out
        assert "I/O 0.0" in out or "I/O" in out

    def test_timeline_flag(self, capsys):
        assert main(["simulate", "--ranks", "256", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "# compute" in out  # Gantt legend

    def test_builtin_configs(self, capsys):
        for config in ("fig2", "fig15"):
            assert main(["simulate", "--config", config, "--ranks", "256"]) == 0

    def test_namelist_source(self, tmp_path, capsys):
        nl = tmp_path / "namelist.input"
        nl.write_text(NAMELIST)
        assert main(["simulate", "--namelist", str(nl), "--ranks", "64"]) == 0

    def test_missing_namelist_errors(self, capsys):
        assert main(["simulate", "--namelist", "/nonexistent", "--ranks", "64"]) == 2
        assert "error" in capsys.readouterr().err

    def test_namelist_without_nests_errors(self, tmp_path, capsys):
        nl = tmp_path / "namelist.input"
        nl.write_text("&domains\n max_dom = 1,\n e_we = 100,\n e_sn = 100,\n/\n")
        assert main(["simulate", "--namelist", str(nl), "--ranks", "64"]) == 2


class TestPlan:
    def test_prints_plan(self, capsys):
        assert main(["plan", "--config", "table2", "--ranks", "1024"]) == 0
        out = capsys.readouterr().out
        assert "plan[parallel]" in out
        assert "d02" in out


class TestProfile:
    def test_breakdown(self, capsys):
        assert main(["profile", "--nx", "200", "--ny", "220", "--ranks", "256"]) == 0
        out = capsys.readouterr().out
        assert "compute" in out
        assert "total step" in out

    def test_bgp_machine(self, capsys):
        assert main(["profile", "--nx", "200", "--ny", "220",
                     "--ranks", "256", "--machine", "bgp"]) == 0
        assert "BlueGene/P" in capsys.readouterr().out


class TestExperiment:
    def test_cheap_experiment(self, capsys):
        assert main(["experiment", "fig3b"]) == 0
        assert "Fig 3(b)" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        assert "hops" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_lists_commands(self):
        help_text = build_parser().format_help()
        for cmd in ("simulate", "plan", "profile", "experiment", "trace"):
            assert cmd in help_text


class TestTrace:
    def test_default_scenario_traces_and_reconciles(self, tmp_path, capsys):
        out = tmp_path / "trace-out"
        assert main(["trace", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "model time per iteration" in text
        assert "reconcile" in text
        records = [
            json.loads(l)
            for l in (out / "trace.jsonl").read_text().splitlines()
            if l
        ]
        assert any(r["type"] == "phase" for r in records)
        chrome = json.loads((out / "trace.chrome.json").read_text())
        assert chrome["traceEvents"]
        profile = json.loads((out / "profile.json").read_text())
        assert [it["strategy"] for it in profile["iterations"]] == [
            "sequential", "parallel",
        ]

    def test_seeded_scenario(self, tmp_path, capsys):
        out = tmp_path / "seeded"
        assert main(["trace", "--seed", "7", "--out", str(out)]) == 0
        assert "scenario:" in capsys.readouterr().out
        assert (out / "profile.json").exists()

    def test_params_file_round_trip(self, tmp_path, capsys):
        from repro.verify.scenarios import Scenario

        params = tmp_path / "params.json"
        params.write_text(json.dumps(Scenario(num_siblings=1).params()))
        out = tmp_path / "from-params"
        assert main(["trace", "--params", str(params), "--out", str(out)]) == 0
        assert "'num_siblings': 1" in capsys.readouterr().out

    def test_trace_flag_on_simulate(self, tmp_path, capsys):
        trace = tmp_path / "sim.jsonl"
        assert main(["simulate", "--ranks", "256", "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "records" in err
        assert trace.exists()
        assert (tmp_path / "sim.chrome.json").exists()

    def test_trace_flag_on_verify(self, tmp_path, capsys):
        trace = tmp_path / "verify.jsonl"
        assert main(["verify", "--budget", "2", "--seed", "1",
                     "--trace", str(trace)]) == 0
        records = [
            json.loads(l) for l in trace.read_text().splitlines() if l
        ]
        assert any(
            r["type"] == "span" and r["name"] == "verify.fuzz" for r in records
        )

    def test_tracer_left_disabled_after_cli_run(self, tmp_path):
        from repro.obs.trace import tracer

        assert main(["trace", "--out", str(tmp_path / "t")]) == 0
        assert not tracer().enabled


class TestRecommend:
    def test_namelist_plan_is_titled_namelist(self, tmp_path, capsys):
        nl = tmp_path / "namelist.input"
        nl.write_text(NAMELIST)
        assert main(["recommend", "--namelist", str(nl), "--max-ranks", "128"]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert title == "Capacity plan for namelist on BlueGene/L"

    @pytest.mark.parametrize("argv", [[], ["--config", "table2"]],
                             ids=["default", "explicit"])
    def test_config_plan_is_titled_by_config(self, argv, capsys):
        assert main(["recommend", *argv, "--max-ranks", "128"]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert title == "Capacity plan for table2 on BlueGene/L"

    def test_prints_recommendation(self, capsys):
        assert main(["recommend", "--config", "fig15",
                     "--min-ranks", "128", "--max-ranks", "256"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out
        assert "fastest" in out

    def test_efficiency_floor_flag(self, capsys):
        assert main(["recommend", "--config", "fig15", "--min-ranks", "128",
                     "--max-ranks", "256", "--efficiency-floor", "0.9"]) == 0
        assert "efficiency" in capsys.readouterr().out


class TestReport:
    def test_stdout_report(self, capsys):
        assert main(["report", "fig3b"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "fig3b" in out

    def test_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["report", "fig3b", "fig4", "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "## fig3b" in text
        assert "## fig4" in text

    def test_rejects_unknown_name(self):
        import pytest as _pytest
        with _pytest.raises(SystemExit):
            main(["report", "fig99"])


class TestJobsValidation:
    """Every subcommand that accepts --jobs rejects 0/negative uniformly."""

    @pytest.mark.parametrize("bad", ["0", "-1", "-8"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "fig3b"],
            ["recommend", "--config", "table2", "--max-ranks", "128"],
            ["verify", "--skip-fuzz"],
        ],
        ids=["experiment", "recommend", "verify"],
    )
    def test_nonpositive_jobs_rejected(self, argv, bad, capsys):
        assert main(argv + ["--jobs", bad]) == 2
        err = capsys.readouterr().err
        assert "--jobs must be >= 1" in err
        assert f"got {bad}" in err
        assert "Traceback" not in err

    def test_jobs_one_still_accepted(self, capsys):
        assert main(["verify", "--skip-fuzz", "--jobs", "1"]) == 0

    def test_error_fires_before_any_work(self, capsys, monkeypatch):
        # The validation runs centrally in main(), before dispatch.
        import repro.cli as cli

        def forbidden(args):  # pragma: no cover - must not be reached
            raise AssertionError("dispatched despite invalid --jobs")

        monkeypatch.setattr(cli, "_cmd_recommend", forbidden)
        parser = cli.build_parser()
        args = parser.parse_args(
            ["recommend", "--config", "table2", "--jobs", "0"]
        )
        args.func = forbidden
        with pytest.raises(Exception, match="--jobs must be >= 1"):
            cli._validate_jobs(args)


class TestServe:
    def test_serve_smoke_start_healthz_shutdown(self):
        """Start `repro serve` in a subprocess, hit /healthz, SIGINT it."""
        import json as _json
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import main; raise SystemExit("
             "main(['serve', '--port', '0', '--no-warm']))"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            url = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if line.startswith("listening on "):
                    url = line.split("listening on ", 1)[1].strip()
                    break
            assert url, "server never printed its listening line"
            with urllib.request.urlopen(url + "/healthz", timeout=30) as resp:
                body = _json.loads(resp.read())
            assert body["status"] == "ok"
            assert body["warmed"] is False
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
            assert "shutting down" in proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestEnsemble:
    ARGS = ["ensemble", "--members", "4", "--families", "2", "--ticks", "2",
            "--ranks", "1024", "--parent-nx", "32", "--parent-ny", "24",
            "--nest-px", "8"]

    def test_summary_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "4 members" in out
        assert "member-ticks/s" in out
        assert "dedup:" in out

    def test_events_reported(self, capsys):
        assert main(self.ARGS + ["--event", "branch:0:0",
                                 "--event", "kill:1:1",
                                 "--event", "spawn:1:99"]) == 0
        out = capsys.readouterr().out
        assert "+1 spawned" in out
        assert "+1 branched" in out
        assert "-1 killed" in out

    def test_dashboard_frames(self, capsys):
        assert main(self.ARGS + ["--dashboard"]) == 0
        out = capsys.readouterr().out
        assert "ensemble tick 1/2" in out
        assert "ensemble tick 2/2" in out
        assert "progress" in out

    def test_json_stream_and_summary(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3  # one per tick + final
        assert lines[0]["tick"] == 0
        assert lines[-1]["final"] is True
        assert lines[-1]["member_ticks"] == 8
        assert "dedup_hit_rate" in lines[-1]

    def test_no_memo_baseline(self, capsys):
        assert main(self.ARGS + ["--no-memo", "--json"]) == 0
        final = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert final["memo"]["local_hits"] == 0
        assert final["memo"]["shared_hits"] == 0

    def test_rejects_bad_event(self, capsys):
        assert main(self.ARGS + ["--event", "warp:1"]) == 2
        assert "unknown ensemble event action" in capsys.readouterr().err

    def test_rejects_bad_members(self, capsys):
        assert main(["ensemble", "--members", "0"]) == 2
        assert "--members" in capsys.readouterr().err

    def test_jobs_validated(self, capsys):
        assert main(self.ARGS + ["--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
