"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import REGISTRY


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.seed == 2005
        assert not args.fast

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "fig8", "--fast", "--seed", "7", "--precision", "2"])
        assert args.fast and args.seed == 7 and args.precision == 2

    def test_run_shards_flag(self):
        args = build_parser().parse_args(
            ["run", "cluster_cap", "--shards", "4"])
        assert args.shards == 4
        assert build_parser().parse_args(["run", "cluster_cap"]).shards \
            is None

    def test_faults_help_lists_scenario_descriptions(self):
        from repro.cluster.faults import FAULT_SCENARIOS
        parser = build_parser()
        text = parser.format_help()
        for sub in parser._subparsers._group_actions[0].choices.values():
            text += sub.format_help()
        flat = " ".join(text.split())   # undo argparse line wrapping
        for description in FAULT_SCENARIOS.values():
            assert description.split(",")[0] in flat


class TestCommands:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(REGISTRY)

    def test_run_table1_prints_the_table(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "1000" in out and "140" in out

    def test_run_worked_example(self, capsys):
        assert main(["run", "worked_example"]) == 0
        out = capsys.readouterr().out
        assert "289" in out and "282" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "tableX"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_fault_scenario_lists_descriptions(self, capsys):
        from repro.cluster.faults import FAULT_SCENARIOS
        assert main(["run", "cluster_cap", "--faults", "bogus"]) == 1
        err = capsys.readouterr().err
        for name, description in FAULT_SCENARIOS.items():
            assert name in err and description in err

    def test_shards_rejected_for_non_cluster_experiment(self, capsys):
        assert main(["run", "worked_example", "--shards", "2"]) == 1
        assert "--shards" in capsys.readouterr().err

    def test_fast_run_of_a_simulated_experiment(self, capsys):
        assert main(["run", "fig5", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_jobs_does_not_leak_into_later_runs(self, capsys):
        from repro.exec import configured_jobs
        jobs = configured_jobs()
        assert main(["run", "table1", "--fast", "--jobs", "2"]) == 0
        assert configured_jobs() == jobs
        assert main(["run", "tableX", "--jobs", "2"]) == 1
        assert configured_jobs() == jobs
        capsys.readouterr()


class TestShowAndOutput:
    def test_output_writes_artifacts(self, tmp_path, capsys):
        assert main(["run", "worked_example",
                     "--output", str(tmp_path)]) == 0
        assert (tmp_path / "worked_example.json").exists()
        csvs = list(tmp_path.glob("worked_example_*.csv"))
        assert len(csvs) >= 2

    def test_show_rerenders_saved_result(self, tmp_path, capsys):
        main(["run", "worked_example", "--output", str(tmp_path)])
        capsys.readouterr()
        assert main(["show", str(tmp_path / "worked_example.json")]) == 0
        out = capsys.readouterr().out
        assert "289" in out and "282" in out

    def test_show_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["show", str(tmp_path / "nope.json")]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_negative_precision_rejected_before_running(self, monkeypatch,
                                                        capsys):
        import repro.experiments
        ran = []
        monkeypatch.setattr(repro.experiments, "run_experiment",
                            lambda *args, **kwargs: ran.append(args))
        assert main(["run", "fig1", "--fast", "--precision", "-1"]) == 1
        assert "--precision" in capsys.readouterr().err
        assert ran == []

    def test_show_rejects_negative_precision(self, tmp_path, capsys):
        main(["run", "worked_example", "--output", str(tmp_path)])
        capsys.readouterr()
        path = str(tmp_path / "worked_example.json")
        assert main(["show", path, "--precision", "-1"]) == 1
        assert "--precision" in capsys.readouterr().err
        assert main(["show", path, "--precision", "0"]) == 0
        assert "289" in capsys.readouterr().out

    def test_chart_flag_renders_series(self, capsys):
        assert main(["run", "fig1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "o=cpu=100%" in out

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestDigest:
    def test_digest_subset_writes_markdown(self, tmp_path, capsys):
        from repro.digest import write_digest
        path = write_digest(tmp_path / "d.md",
                            experiment_ids=("table1", "worked_example"))
        text = path.read_text()
        assert "# fvsst reproduction digest" in text
        assert "ALL CHECKS PASS" in text
        assert "## table1" in text and "## worked_example" in text

    def test_digest_unknown_experiment_rejected(self, tmp_path):
        from repro.digest import build_digest
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            build_digest(experiment_ids=("tableX",))

    def test_digest_cli(self, tmp_path, capsys):
        out = tmp_path / "digest.md"
        assert main(["digest", "--output", str(out)]) == 0
        assert out.exists()
        assert "digest written" in capsys.readouterr().out
