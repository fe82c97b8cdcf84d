"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_point_defaults(self):
        args = build_parser().parse_args(
            ["point", "--model", "m", "--hardware", "h", "--framework", "f"]
        )
        assert args.batch_size == 1
        assert args.input_tokens == 1024


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "LLaMA-3-8B" in out
        assert "SN40L" in out
        assert "vLLM" in out
        assert "fig1a" in out

    def test_point(self, capsys):
        code = main(
            [
                "point",
                "--model", "LLaMA-3-8B",
                "--hardware", "A100",
                "--framework", "vLLM",
                "--batch-size", "4",
                "--input-tokens", "128",
                "--output-tokens", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "TTFT" in out

    def test_point_oom_exit_code(self, capsys):
        code = main(
            [
                "point",
                "--model", "LLaMA-2-70B",
                "--hardware", "A100",
                "--framework", "llama.cpp",
            ]
        )
        assert code == 1
        assert "OOM" in capsys.readouterr().out

    def test_run_experiment(self, capsys):
        assert main(["run", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "config_mismatches" in out

    def test_run_with_table(self, capsys):
        assert main(["run", "tab2", "--table"]) == 0
        out = capsys.readouterr().out
        assert "memory_gb" in out

    def test_dashboard(self, tmp_path, capsys):
        target = tmp_path / "dash.html"
        assert main(["dashboard", "--output", str(target)]) == 0
        assert target.exists()

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(target)]) == 0
        content = target.read_text(encoding="utf-8")
        assert content.startswith("# EXPERIMENTS")
        assert "fig1a" in content


class TestAnalyzeCommand:
    def test_analyze_prints_bottleneck(self, capsys):
        code = main(
            [
                "analyze",
                "--model", "LLaMA-2-7B",
                "--hardware", "A100",
                "--framework", "vLLM",
                "--batch-size", "32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "decode" in out

    def test_analyze_oom_exit_code(self, capsys):
        # llama.cpp's runtime buffers push 70B past the A100 node (Fig. 32).
        code = main(
            [
                "analyze",
                "--model", "LLaMA-2-70B",
                "--hardware", "A100",
                "--framework", "llama.cpp",
            ]
        )
        assert code == 1
        assert "cannot analyze" in capsys.readouterr().out


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code = main(["validate", "--points", "4", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "validated 4 points" in out


class TestProfileCommand:
    _ARGS = [
        "profile",
        "--model", "LLaMA-3-8B",
        "--hardware", "A100",
        "--framework", "vLLM",
        "--batch-size", "4",
        "--input-tokens", "128",
        "--output-tokens", "32",
    ]

    def test_profile_writes_deterministic_json(self, capsys, tmp_path):
        import json

        payloads = []
        for run in range(2):
            path = tmp_path / f"profile{run}.json"
            code = main([*self._ARGS, "--output", str(path)])
            assert code == 0
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]
        profile = json.loads(payloads[0])
        assert profile["model"] == "LLaMA-3-8B"
        assert profile["dominant"] is not None
        assert [p["phase"] for p in profile["phases"]] == ["prefill", "decode"]
        assert len(profile["requests"]) == 4
        out = capsys.readouterr().out
        assert "cost profile" in out
        assert "MFU" in out and "MBU" in out

    def test_profile_counter_tracks_in_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "profile_trace.json"
        code = main([
            *self._ARGS,
            "--output", str(tmp_path / "profile.json"),
            "--trace-output", str(trace_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        counters = {
            e["name"] for e in trace["traceEvents"]
            if e.get("ph") == "C" and e.get("cat") == "profile"
        }
        # Profile counters export namespaced so multi-replica traces keep
        # one utilization lane per replica pid.
        assert counters >= {
            "profile/mfu", "profile/mbu", "profile/tokens_per_s",
            "profile/watts", "profile/joules_per_token",
        }

    def test_profile_oom_exit_code(self, capsys):
        code = main([
            "profile",
            "--model", "LLaMA-2-70B",
            "--hardware", "A100",
            "--framework", "llama.cpp",
        ])
        assert code == 1
        assert "OOM" in capsys.readouterr().out


class TestRunExportFlags:
    def test_metrics_and_profile_outputs_are_deterministic(
        self, capsys, tmp_path
    ):
        import json

        payloads = []
        for run in range(2):
            metrics_path = tmp_path / f"metrics{run}.json"
            profile_path = tmp_path / f"profile{run}.json"
            code = main([
                "run", "fig7",
                "--metrics-output", str(metrics_path),
                "--profile-output", str(profile_path),
            ])
            assert code == 0
            payloads.append(
                (metrics_path.read_bytes(), profile_path.read_bytes())
            )
        assert payloads[0] == payloads[1]
        metrics = json.loads(payloads[0][0])
        assert "fig7" in metrics
        assert metrics["fig7"]["rows"]
        profiles = json.loads(payloads[0][1])
        # Every profiled row names a mechanism from the shared taxonomy.
        assert profiles["fig7"]
        for row in profiles["fig7"]:
            assert row["prefill"]["dominant"]
            assert row["decode"]["dominant"]
            assert row["end_to_end_bottleneck"]


class TestClusterExportFlags:
    _ARGS = [
        "cluster",
        "--model", "Mistral-7B",
        "--hardware", "A100",
        "--framework", "vLLM",
        "--replicas", "2",
        "--rate", "6",
        "--num-requests", "16",
        "--seed", "5",
        "--max-concurrency", "8",
    ]

    def test_cluster_export_flags_are_deterministic(self, capsys, tmp_path):
        import json

        payloads = []
        for run in range(2):
            metrics_path = tmp_path / f"metrics{run}.json"
            profile_path = tmp_path / f"profile{run}.json"
            code = main([
                *self._ARGS,
                "--metrics-output", str(metrics_path),
                "--profile-output", str(profile_path),
            ])
            assert code == 0
            payloads.append(
                (metrics_path.read_bytes(), profile_path.read_bytes())
            )
        assert payloads[0] == payloads[1]
        metrics = json.loads(payloads[0][0])
        assert "histograms" in metrics and "gauges" in metrics
        profile = json.loads(payloads[0][1])
        assert profile["name"] == "cluster"
        assert len(profile["requests"]) == 16
        out = capsys.readouterr().out
        assert "cost profile: cluster" in out

    def test_profile_flag_does_not_change_result_json(self, capsys, tmp_path):
        plain = tmp_path / "plain.json"
        profiled = tmp_path / "profiled.json"
        code = main([*self._ARGS, "--result-output", str(plain)])
        assert code == 0
        code = main([
            *self._ARGS,
            "--result-output", str(profiled),
            "--profile-output", str(tmp_path / "p.json"),
        ])
        assert code == 0
        # Profiling must not perturb the chaos job's diffed artifact.
        assert plain.read_bytes() == profiled.read_bytes()


class TestExperimentCommand:
    def _spec_path(self, tmp_path, name="cli-exp", **overrides):
        import json

        spec = {
            "name": name,
            "model": "llama-2-7b",
            "hardware": "h100",
            "framework": "vllm",
            "mode": "engine",
            "profiled": True,
            "seeds": [0, 1],
            "workload": {
                "kind": "open_loop",
                "num_requests": 6,
                "input_tokens": 128,
                "output_tokens": 32,
                "rate_rps": 4.0,
            },
        }
        spec.update(overrides)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_run_writes_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        code = main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(bundle),
        ])
        assert code == 0
        assert bundle.exists()
        out = capsys.readouterr().out
        assert "95% CI" in out

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(bundle),
        ])
        capsys.readouterr()
        replayed = tmp_path / "replayed.json"
        code = main([
            "experiment", "replay",
            "--bundle", str(bundle),
            "--output", str(replayed),
        ])
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out
        assert replayed.read_bytes() == bundle.read_bytes()

    def test_replay_detects_tampering(self, tmp_path, capsys):
        import json

        bundle = tmp_path / "bundle.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(bundle),
        ])
        capsys.readouterr()
        doc = json.loads(bundle.read_text(encoding="utf-8"))
        doc["seed_results"][0]["metrics"]["makespan_s"] = 123456.0
        bundle.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["experiment", "replay", "--bundle", str(bundle)])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_compare_flags_quantization(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path, name="fp16")),
            "--output", str(a),
        ])
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path, name="fp8", quant="fp8")),
            "--output", str(b),
        ])
        capsys.readouterr()
        code = main([
            "experiment", "compare", "--a", str(a), "--b", str(b),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fp16" in out and "fp8" in out

    def test_diff_on_bundles(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(a),
        ])
        capsys.readouterr()
        out_json = tmp_path / "diff.json"
        code = main([
            "experiment", "diff",
            "--a", str(a), "--b", str(a),
            "--output", str(out_json),
        ])
        assert code == 0
        assert "joules_per_token" in capsys.readouterr().out
        assert out_json.exists()


class TestUnknownNames:
    """An unknown registry name is a usage error: one argparse-style line
    on stderr and exit 2, never a traceback or the OOM exit code 1."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["point", "--model", "LLaMA-9B", "--hardware", "A100",
              "--framework", "vLLM"], "unknown model 'LLaMA-9B'"),
            (["point", "--model", "LLaMA-2-7B", "--hardware", "A100",
              "--framework", "nope"], "unknown framework 'nope'"),
            (["cluster", "--model", "Mistral-7B", "--hardware", "nope",
              "--framework", "vLLM"], "unknown hardware 'nope'"),
            (["optimize", "--models", "nope"], "unknown model 'nope'"),
            (["run", "fig999"], "unknown experiment 'fig999'"),
            (["scenario", "run", "nope"], "unknown scenario 'nope'"),
        ],
        ids=["point-model", "point-framework", "cluster-hardware",
             "optimize", "run", "scenario"],
    )
    def test_exit_2_with_one_stderr_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"llm-inference-bench {argv[0]}: error: {message}"
        )
        assert captured.err.count("\n") == 1


class TestWroteLines:
    def test_each_artifact_announced_once(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        result = tmp_path / "result.json"
        telemetry = tmp_path / "telemetry.json"
        assert main([
            "scenario", "describe", "chat-sharegpt",
            "--trace-output", str(trace),
        ]) == 0
        assert main([
            "scenario", "run", "multi-tenant-prod",
            "--replicas", "2", "--sessions", "6",
            "--result-output", str(result),
            "--telemetry-output", str(telemetry),
        ]) == 0
        out = capsys.readouterr().out
        for path in (trace, result, telemetry):
            assert out.count(f"wrote {path}\n") == 1
