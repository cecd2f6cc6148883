"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_topology, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.model == "15B"
        assert args.topology == "2+2"

    def test_topology_parsing(self):
        assert _parse_topology("2+2", "RTX 3090-Ti").groups == (2, 2)
        assert _parse_topology("4", "RTX 3090-Ti").groups == (4,)
        assert _parse_topology("dc", "RTX 3090-Ti").has_p2p

    def test_bad_topology_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_topology("two plus two", "RTX 3090-Ti")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_topology("2+0", "RTX 3090-Ti")

    @pytest.mark.parametrize("command", ["compare", "advise"])
    def test_time_limit_is_a_plan_option_only(self, command):
        assert build_parser().parse_args(["plan", "--time-limit", "1"]).time_limit == 1.0
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--time-limit", "1"])


class TestCommands:
    def test_plan_command(self, capsys):
        code = main(
            ["plan", "--model", "GPT2", "--topology", "2+2", "--time-limit", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stages" in out and "estimated step time" in out
        assert "nodes (gap " in out and "schemes" in out and "(simulated)" in out
        assert "planned in " in out

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--model", "GPT2", "--topology", "2+2", "--microbatch", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for system in ("gpipe", "deepspeed", "mobius"):
            assert system in out

    def test_figures_prefix_match(self, capsys):
        code = main(["figures", "table1"])
        assert code == 0
        assert "3090-Ti" in capsys.readouterr().out

    def test_figures_unknown_name(self, capsys):
        code = main(["figures", "fig99"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no experiments match fig99; known: table1_gpus")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_failed_cell_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        from repro.serve import supervisor as supervisor_mod

        class Crashing(supervisor_mod.Supervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.sabotage_hook = lambda key, attempt: "crash"

        # Inline workers keep the test in-process; every cell crashes its
        # worker until the supervisor quarantines it.
        monkeypatch.setattr(supervisor_mod, "Supervisor", Crashing)
        monkeypatch.setattr(supervisor_mod, "ProcessWorker", supervisor_mod.InlineWorker)
        monkeypatch.chdir(tmp_path)
        code = main(["figures", "sec23", "--jobs", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1 cell(s) failed: sec23_deepspeed_profile cell ")
        assert "quarantined" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["plan", "compare", "advise"])
    def test_bad_topology_is_one_error_line(self, command, capsys):
        code = main([command, "--topology", "2+x"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: topology must look like")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["plan", "compare", "advise"])
    def test_unknown_model_is_one_error_line(self, command, capsys):
        code = main([command, "--model", "99B"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown model '99B'; available:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_malformed_repro_jobs_fails_fast(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        code = main(["figures", "table1"])
        assert code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_suite_rejects_malformed_repro_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "-3")
        code = main(["figures", "table1"])
        assert code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err


class TestNumericArguments:
    """Counts are checked at the boundary: one error line, exit 2, no work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "table1", "--jobs", "0"],
            ["figures", "table1", "--jobs", "-5"],
            ["bench", "suite", "--jobs", "0"],
            ["serve", "--workers", "0"],
            ["serve", "--rounds", "0"],
            ["serve", "--deadline-nodes", "0"],
            ["plan", "--microbatch", "-1"],
            ["plan", "--microbatch", "0"],
            ["compare", "--microbatch", "two"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_positive_count_is_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        option = next(arg for arg in argv if arg.startswith("--"))
        assert captured.err.startswith(
            f"error: argument {option}: must be a positive integer"
        )
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "soon"])
    def test_non_positive_time_limit_is_one_error_line(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--time-limit", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: argument --time-limit: must be a positive number"
        )
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""


class TestModelHelp:
    def test_help_lists_every_accepted_model(self):
        from repro.models.zoo import _FACTORIES, model_by_name

        subparsers = next(
            action
            for action in build_parser()._actions
            if action.dest == "command"
        )
        for command in ("plan", "compare", "advise"):
            help_text = subparsers.choices[command].format_help()
            for name in _FACTORIES:
                assert model_by_name(name).name  # accepted by --model
                assert name in help_text, (command, name)
