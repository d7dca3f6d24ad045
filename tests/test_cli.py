"""Tests for the command-line interface."""


import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.workflows.generators import montage_like, uniform_random_chain
from repro.workflows.serialization import save_chain, save_workflow


@pytest.fixture
def chain_file(tmp_path):
    chain = uniform_random_chain(6, seed=130)
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    return path


@pytest.fixture
def workflow_file(tmp_path):
    wf = montage_like(4, checkpoint_cost=0.5)
    path = tmp_path / "workflow.json"
    save_workflow(wf, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_chain_requires_rate(self, chain_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve-chain", str(chain_file)])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "E3"])
        assert args.id == "E3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve-chain", "{chain}", "--rate", "0"], "--rate"),
            (["solve-chain", "{chain}", "--rate", "0.02", "--downtime", "-1"], "--downtime"),
            (["solve-chain", "{chain}", "--rate", "0.02", "--max-checkpoints", "-1"],
             "--max-checkpoints"),
            (["solve-dag", "{workflow}", "--rate", "inf"], "--rate"),
            (["simulate", "{chain}", "--rate", "0.02", "--runs", "0"], "--runs"),
            (["simulate", "{chain}", "--rate", "0.02", "--checkpoint-after", "1,x"],
             "--checkpoint-after"),
            (["serve", "--port", "70000"], "--port"),
            (["serve", "--port", "-1"], "--port"),
        ],
        ids=["solve-chain-rate", "solve-chain-downtime", "solve-chain-max-checkpoints",
             "solve-dag-rate", "simulate-runs", "simulate-checkpoint-after",
             "serve-port-high", "serve-port-negative"],
    )
    def test_bad_numeric_flags_are_usage_errors(
        self, argv, flag, chain_file, workflow_file, capsys
    ):
        argv = [arg.format(chain=chain_file, workflow=workflow_file) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert f"error: argument {flag}" in err
        assert "Traceback" not in err

    def test_documented_flags_exist(self):
        """Every ``repro <command> ... --flag`` in README.md and docs/*.md parses."""
        root = Path(__file__).resolve().parent.parent
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        # A command runs to the end of its code span, line or shell statement;
        # a trailing backslash continues it on the next line.
        invocation = re.compile(r"\brepro(?:\.cli)?\s+([a-z][a-z-]*)([^`|#;&\n]*)")
        documented, unknown = 0, []
        for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
            text = path.read_text(encoding="utf-8").replace("\\\n", " ")
            for match in invocation.finditer(text):
                command = match.group(1)
                if command not in commands:
                    continue  # "repro" the package, not the CLI
                for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", match.group(2)):
                    documented += 1
                    if flag not in commands[command]._option_string_actions:
                        unknown.append(f"{path.name}: repro {command} {flag}")
        assert documented > 20  # the scan finds the documented commands
        assert unknown == []


class TestUnreadableInput:
    """A bad input file is one ``error: cannot read`` line and exit 1, the way
    ``repro submit`` reports an unreadable spec -- never a traceback."""

    @pytest.mark.parametrize(
        "command, kind, content",
        [
            ("solve-chain", "chain", None),
            ("simulate", "chain", "not json"),
            ("solve-chain", "chain", '{"format": "repro-workflow", "version": 1}'),
            ("solve-dag", "workflow", None),
            ("solve-dag", "workflow",
             '{"format": "repro-workflow", "version": 1, "name": "w", '
             '"tasks": [{"name": "a", "work": 1.0}], "dependences": [["a", "b"]]}'),
            ("solve-dag", "workflow",
             '{"format": "repro-workflow", "version": 1, "name": "w", '
             '"tasks": [{"name": "a", "work": 1.0}], "dependences": [["a", ["b"]]]}'),
        ],
        ids=["solve-chain-missing", "simulate-not-json", "solve-chain-wrong-format",
             "solve-dag-missing", "solve-dag-unknown-task", "solve-dag-unhashable-task"],
    )
    def test_one_error_line_and_exit_1(self, command, kind, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        assert main([command, str(path), "--rate", "0.02"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot read {kind} {str(path)!r}: ")


class TestInfeasibleInstance:
    """An instance the solvers reject is one ``error:`` line carrying the
    library's message and exit 1, not a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        chain = uniform_random_chain(4, seed=1)
        save_chain(chain, tmp_path / "chain.json")
        save_workflow(chain.to_workflow(), tmp_path / "w.json")
        (tmp_path / "empty.json").write_text(json.dumps(
            {"format": "repro-workflow", "version": 1, "name": "empty", "tasks": []}
        ))
        return tmp_path

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve-chain", "chain.json", "--rate", "1e6"],
             "the optimal expected makespan overflows float"),
            (["solve-chain", "chain.json", "--rate", "30", "--compare"],
             "is too large: the expected time would exceed 1e260"),
            (["simulate", "chain.json", "--rate", "1e6", "--runs", "10"],
             "the optimal expected makespan overflows float"),
            (["simulate", "chain.json", "--rate", "1e6", "--runs", "10",
              "--checkpoint-after", "0,1,2,3"],
             "is too large: the expected time would exceed 1e260"),
            (["solve-dag", "w.json", "--rate", "1e6"],
             "expected time that overflows float"),
            (["solve-dag", "empty.json", "--rate", "0.02"],
             "cannot schedule an empty workflow"),
        ],
        ids=["solve-chain-overflow", "solve-chain-compare-overflow", "simulate-overflow",
             "simulate-positions-overflow", "solve-dag-overflow", "solve-dag-empty"],
    )
    def test_one_error_line_and_exit_1(self, files, argv, message, capsys):
        argv = [str(files / arg) if arg.endswith(".json") else arg for arg in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "expected makespan" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]


class TestSolveChain:
    def test_basic_output(self, chain_file, capsys):
        exit_code = main(["solve-chain", str(chain_file), "--rate", "0.02", "--downtime", "0.5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "expected makespan" in out
        assert "checkpoint after" in out

    def test_compare_flag_lists_baselines(self, chain_file, capsys):
        main(["solve-chain", str(chain_file), "--rate", "0.02", "--compare"])
        out = capsys.readouterr().out
        assert "checkpoint_all" in out
        assert "optimal_dp" in out

    def test_budget_option(self, chain_file, capsys):
        main(["solve-chain", str(chain_file), "--rate", "0.05", "--max-checkpoints", "2"])
        out = capsys.readouterr().out
        assert "checkpoints        : 2" in out or "checkpoints        : 1" in out

    def test_no_final_checkpoint_flag(self, chain_file, capsys):
        exit_code = main([
            "solve-chain", str(chain_file), "--rate", "1e-6", "--no-final-checkpoint",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "checkpoints        : 0" in out


class TestSolveDag:
    def test_basic_output(self, workflow_file, capsys):
        exit_code = main(["solve-dag", str(workflow_file), "--rate", "0.02", "--seed", "1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "linearisation" in out
        assert "expected makespan" in out

    def test_dot_flag(self, workflow_file, capsys):
        main(["solve-dag", str(workflow_file), "--rate", "0.02", "--dot"])
        out = capsys.readouterr().out
        assert "digraph" in out
        assert "doubleoctagon" in out


class TestSimulate:
    def test_with_explicit_positions(self, chain_file, capsys):
        exit_code = main([
            "simulate", str(chain_file), "--rate", "0.02", "--checkpoint-after", "2,5",
            "--runs", "300", "--seed", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "analytic expectation" in out
        assert "simulated mean" in out

    def test_default_uses_optimal_placement(self, chain_file, capsys):
        main(["simulate", str(chain_file), "--rate", "0.02", "--runs", "200"])
        out = capsys.readouterr().out
        assert "using optimal placement" in out

    def test_rejects_out_of_range_position(self, chain_file):
        with pytest.raises(SystemExit, match="out of range"):
            main(["simulate", str(chain_file), "--rate", "0.02", "--checkpoint-after", "99"])

    def test_engine_flag_selects_vectorized_sampler(self, chain_file, capsys):
        exit_code = main([
            "simulate", str(chain_file), "--rate", "0.02", "--checkpoint-after", "2,5",
            "--runs", "200", "--seed", "1", "--engine", "vectorized",
        ])
        assert exit_code == 0
        vectorized_out = capsys.readouterr().out
        assert "simulated mean" in vectorized_out
        # Memoryless model: the scalar engine prints the exact same numbers.
        main([
            "simulate", str(chain_file), "--rate", "0.02", "--checkpoint-after", "2,5",
            "--runs", "200", "--seed", "1", "--engine", "scalar",
        ])
        assert capsys.readouterr().out == vectorized_out

    def test_invalid_engine_exits_cleanly(self, chain_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(chain_file), "--rate", "0.02", "--engine", "gpu"])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        assert "invalid choice" in capsys.readouterr().err

    def test_invalid_parallel_exits_cleanly(self, chain_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(chain_file), "--rate", "0.02", "--parallel", "-3"])
        assert excinfo.value.code == 2
        assert "worker count" in capsys.readouterr().err

    def test_parallel_flag_does_not_change_the_answer(self, chain_file, capsys):
        argv = ["simulate", str(chain_file), "--rate", "0.02", "--runs", "600", "--seed", "1"]
        assert main(argv) == 0
        flagless = capsys.readouterr().out
        assert main(argv + ["--parallel", "2"]) == 0
        assert capsys.readouterr().out == flagless


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Either the installed distribution version or the source-tree tag.
        assert any(ch.isdigit() for ch in out)


class TestExperimentCommand:
    def test_prints_table(self, capsys):
        exit_code = main(["experiment", "E2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "E2" in out
        assert "rate" in out

    def test_csv_output(self, capsys):
        main(["experiment", "E2", "--csv"])
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("rate,")


class TestServiceCommands:
    """The serve/submit/jobs sub-commands (full HTTP round-trips live in
    tests/test_service.py; here: argument handling and end-to-end output)."""

    def test_submit_requires_spec_xor_experiment(self, tmp_path):
        with pytest.raises(SystemExit, match="either"):
            main(["submit", "--url", "http://127.0.0.1:1"])
        with pytest.raises(SystemExit, match="either"):
            main(["submit", str(tmp_path / "spec.json"), "--experiment", "E1"])

    def test_submit_unreachable_service_fails_cleanly(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec

        spec = ScenarioSpec(
            name="cli", chain=ChainSpec(n=4, seed=1),
            failure=FailureSpec(kind="exponential", mtbf=30.0), num_runs=50,
        )
        spec_path.write_text(spec.to_json())
        # Nothing listens on port 9: the client must fail with a message,
        # not a traceback.
        exit_code = main(["submit", str(spec_path), "--url", "http://127.0.0.1:9"])
        assert exit_code == 1
        assert "cannot reach the scenario service" in capsys.readouterr().err

    def test_jobs_against_live_service_and_submit_wait(self, tmp_path, capsys):
        from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
        from repro.service.gateway import GatewayServer
        from repro.service.jobs import JobStore
        from repro.service.queue import JobScheduler

        spec = ScenarioSpec(
            name="cli-e2e", chain=ChainSpec(n=4, seed=1),
            failure=FailureSpec(kind="exponential", mtbf=30.0),
            strategies=("optimal_dp", "checkpoint_none"), num_runs=80, seed=5,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        store = JobStore()
        server = GatewayServer(JobScheduler(store), port=0)
        server.start()
        try:
            exit_code = main([
                "submit", str(spec_path), "--url", server.url, "--wait",
                "--timeout", "60",
            ])
            assert exit_code == 0
            captured = capsys.readouterr()
            assert "Simulation campaign" in captured.out and "optimal_dp" in captured.out
            # --wait surfaces the streamed job's live progress (line-per-change
            # on a non-tty stderr); the final observation is the done state.
            progress_lines = [
                line for line in captured.err.splitlines() if line.startswith("job ")
            ]
            assert progress_lines and "done" in progress_lines[-1]

            assert main(["jobs", "--url", server.url]) == 0
            listing = capsys.readouterr().out
            assert "campaign" in listing and "done" in listing

            job_id = store.list_jobs()[0].id
            assert main(["jobs", job_id, "--url", server.url]) == 0
            detail = capsys.readouterr().out
            assert '"state": "done"' in detail
        finally:
            server.shutdown()
            store.close()

    def test_serve_port_zero_banner_shows_bound_port(self, tmp_path):
        # The banner is printed once the socket is bound, so with --port 0
        # its first line names the ephemeral port the server really uses.
        import os
        import select
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        with open(tmp_path / "serve.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--db", str(tmp_path / "jobs.sqlite")],
                stdout=subprocess.PIPE, stderr=log, text=True, env=env,
            )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            assert ready, "serve printed no banner within 60 s"
            first = proc.stdout.readline()
            assert first.startswith("scenario service listening on http://")
            url = first.split()[-1]
            assert not url.endswith(":0")
            with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as response:
                assert response.status == 200
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_serve_rejects_engine_flag(self):
        # A scenario's samples are defined by its spec; the server must not
        # offer a flag that would silently (not) override job engines.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "vectorized"])

    def test_submit_missing_spec_file_fails_cleanly(self, capsys):
        exit_code = main(["submit", "/nonexistent/spec.json", "--url", "http://127.0.0.1:1"])
        assert exit_code == 1
        assert "cannot read spec" in capsys.readouterr().err

    def test_serve_rejects_oversized_chunk_size_at_startup(self, capsys):
        import logging

        from repro.service.queue import JobScheduler

        too_big = JobScheduler.MAX_CHUNK_SIZE + 1
        try:
            with pytest.raises(SystemExit, match="error: chunk_size"):
                main(["serve", "--port", "0", "--chunk-size", str(too_big)])
        finally:
            # _cmd_serve configures the structured log stream before the
            # validation fires; undo it so later tests keep a quiet stderr.
            root = logging.getLogger("repro")
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs_handler", False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    def test_metrics_and_job_stats_against_live_service(self, tmp_path, capsys):
        from repro.runtime.cache import ResultCache
        from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
        from repro.service.gateway import GatewayServer
        from repro.service.jobs import JobStore
        from repro.service.queue import JobScheduler

        spec = ScenarioSpec(
            name="cli-metrics", chain=ChainSpec(n=4, seed=1),
            failure=FailureSpec(kind="exponential", mtbf=30.0),
            strategies=("optimal_dp", "checkpoint_none"), num_runs=80, seed=5,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        store = JobStore()
        scheduler = JobScheduler(store, cache=ResultCache(tmp_path / "cache"))
        server = GatewayServer(scheduler, port=0)
        server.start()
        try:
            assert main([
                "submit", str(spec_path), "--url", server.url, "--wait",
                "--timeout", "60",
            ]) == 0
            capsys.readouterr()
            job_id = store.list_jobs()[0].id

            # Prometheus text over the wire.
            assert main(["metrics", "--url", server.url]) == 0
            text = capsys.readouterr().out
            assert "# TYPE repro_jobs_submitted_total counter" in text
            assert "repro_cache_requests_total" in text
            assert "repro_http_requests_total" in text

            # JSON snapshot form.
            assert main(["metrics", "--url", server.url, "--json"]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert snapshot["repro_jobs_submitted_total"]["kind"] == "counter"

            # Listing with the timing columns.
            assert main(["jobs", "--url", server.url, "--stats"]) == 0
            listing = capsys.readouterr().out
            assert "queue_s" in listing and "compute_s" in listing and "cache_s" in listing

            # Single-job breakdown with percentage shares.
            assert main(["jobs", job_id, "--url", server.url, "--stats"]) == 0
            detail = capsys.readouterr().out
            assert f"job {job_id}: done" in detail
            for phase in ("queue_wait_s", "compute_s", "cache_s"):
                assert phase in detail
            assert "%" in detail
        finally:
            server.shutdown()
            store.close()

    def test_metrics_unreachable_service_fails_cleanly(self, capsys):
        exit_code = main(["metrics", "--url", "http://127.0.0.1:9"])
        assert exit_code == 1
        assert "cannot reach the scenario service" in capsys.readouterr().err

    def test_jobs_stats_before_execution_reports_no_breakdown(self, capsys):
        from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
        from repro.service.gateway import GatewayServer
        from repro.service.jobs import JobStore
        from repro.service.queue import JobScheduler

        store = JobStore()
        scheduler = JobScheduler(store)
        server = GatewayServer(scheduler, port=0)
        server.start()
        try:
            scheduler.stop()  # keep HTTP alive, never execute the job
            spec = ScenarioSpec(
                name="queued-only", chain=ChainSpec(n=3, seed=2),
                failure=FailureSpec(kind="exponential", mtbf=25.0), num_runs=50,
            )
            record, _ = scheduler.submit_campaign(spec.to_dict())
            assert main(["jobs", record.id, "--url", server.url, "--stats"]) == 0
            out = capsys.readouterr().out
            assert f"job {record.id}: queued" in out
            assert "no timing breakdown yet" in out
        finally:
            server.shutdown()
            store.close()
