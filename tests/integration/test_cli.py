"""Tests for the ``approxit`` CLI plumbing (cheap artifacts only)."""

import pytest

from repro.experiments.cli import _build_parser, main


class TestParser:
    def test_artifact_choices(self):
        parser = _build_parser()
        args = parser.parse_args(["suite"])
        assert args.artifact == "suite"
        assert args.dataset == "3cluster"

    def test_rejects_unknown_artifact(self):
        parser = _build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table99"])

    def test_out_flag(self):
        args = _build_parser().parse_args(["suite", "--out", "x.txt"])
        assert args.out == "x.txt"

    def test_trace_flag(self):
        args = _build_parser().parse_args(["run", "--trace", "traces"])
        assert args.trace == "traces"
        assert _build_parser().parse_args(["run"]).trace is None

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["table3", "--no-cache", "--trace", "DIR"], "--trace"),
            (["suite", "--parallel", "2", "--batch-size", "8"], "--parallel"),
            (["figure2", "--batch-size", "8"], "--batch-size"),
            (["run", "--parallel", "2"], "--parallel"),
            (["table3", "--parallel", "-1"], "--parallel"),
            (["table3", "--parallel", "2", "--batch-size", "0"], "--batch-size"),
        ],
        ids=[
            "trace-without-prewarm",
            "parallel-on-suite",
            "batch-size-without-parallel",
            "parallel-on-run",
            "negative-parallel",
            "zero-batch-size",
        ],
    )
    def test_rejects_flags_the_artifact_ignores(self, argv, flag, tmp_path, capsys):
        argv = [str(tmp_path / "DIR") if arg == "DIR" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out.txt")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()
        assert not (tmp_path / "DIR").exists()


class TestMain:
    def test_suite_to_stdout(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_figure2_to_file(self, tmp_path):
        target = tmp_path / "fig2.txt"
        assert main(["figure2", "--out", str(target)]) == 0
        assert "Figure 2" in target.read_text()

    def test_run_with_trace_exports_jsonl(self, tmp_path, capsys):
        from repro.obs import load_trace, summarize_trace

        trace_dir = tmp_path / "traces"
        assert (
            main(
                [
                    "run",
                    "--dataset",
                    "3cluster",
                    "--strategy",
                    "incremental",
                    "--trace",
                    str(trace_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Mode timeline" in out
        assert "trace written to" in out
        trace = load_trace(trace_dir / "3cluster_incremental.jsonl")
        assert trace.meta["dataset"] == "3cluster"
        assert summarize_trace(trace).iterations > 0

