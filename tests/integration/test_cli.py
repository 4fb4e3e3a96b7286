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

