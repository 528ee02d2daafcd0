"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.harness.report import REPORT_SECTIONS

from helpers import requires_numpy


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == "tiny"

    def test_increments_arguments(self):
        args = build_parser().parse_args(
            ["increments", "--vertices", "100", "--edges", "800", "--sampling", "snowball"]
        )
        assert args.vertices == 100 and args.sampling == "snowball"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "galactic"])

    @pytest.mark.parametrize("section", list(REPORT_SECTIONS))
    @pytest.mark.parametrize("command", [
        ["suite", "show", "--preset", "ablations"],
        ["suite", "run", "--preset", "ablations"],
        ["report"],
    ], ids=["suite-show", "suite-run", "report"])
    def test_every_report_section_parses(self, command, section):
        args = build_parser().parse_args(command + ["--tables", section])
        assert args.tables == [section]

    def test_unknown_report_section_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--tables", "nope"])


class TestAlgosList:
    def test_lists_every_registered_algorithm(self, capsys):
        from repro.algorithms.registry import algorithm_names

        assert main(["algos", "list"]) == 0
        out = capsys.readouterr().out
        for name in algorithm_names():
            assert name in out
        assert "symmetric-only" in out and "needs-root" in out

    def test_json_output_round_trips(self, capsys):
        import json

        from repro.algorithms.registry import algorithm_names

        assert main(["algos", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == list(algorithm_names())
        kcore = next(e for e in entries if e["name"] == "kcore")
        assert kcore["query"] and kcore["symmetric_only"]
        assert not kcore["supports_truncation"]
        assert kcore["class"] == "KCoreDecomposition"
        ingest = next(e for e in entries if e["name"] == "ingest")
        assert ingest["class"] is None


class TestCommands:
    @requires_numpy
    def test_table1(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Sampling Type" in out and "Final Edges" in out

    @requires_numpy
    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "BFS reached" in out

    @requires_numpy
    def test_increments_small(self, capsys):
        code = main([
            "increments", "--vertices", "80", "--edges", "500",
            "--chip", "8", "--increments", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Streaming Edges with BFS" in out

    @requires_numpy
    def test_increments_prints_record_cycles(self, capsys):
        # The verb is a view over the harness records of the same specs.
        from repro.cli import VERB_GRAPH_SEED
        from repro.harness import ChipSpec, DatasetSpec, RunOptions, Scenario, run_scenario

        assert main(["increments", "--vertices", "80", "--edges", "500",
                     "--chip", "8", "--increments", "3"]) == 0
        printed = [
            [int(cell.replace(",", "")) for cell in line.split("|")]
            for line in capsys.readouterr().out.strip().splitlines()[-3:]
        ]
        dataset = DatasetSpec(vertices=80, edges=500, num_increments=3)
        ingest, bfs = (
            run_scenario(Scenario(name=algorithm, dataset=dataset, chip=ChipSpec(side=8),
                                  algorithm=algorithm,
                                  options=RunOptions(graph_seed=VERB_GRAPH_SEED)))
            for algorithm in ("ingest", "bfs"))
        assert printed == [
            [i, a, b] for i, (a, b) in enumerate(
                zip(ingest["increment_cycles"], bfs["increment_cycles"]), start=1)
        ]

    @requires_numpy
    def test_activation_small(self, capsys):
        code = main([
            "activation", "--vertices", "80", "--edges", "500",
            "--chip", "8", "--increments", "3", "--with-bfs",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "peak activation" in out

    @requires_numpy
    def test_table2_tiny(self, capsys):
        code = main(["table2", "--scale", "tiny", "--chip", "8", "--fidelity", "latency"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ingestion & BFS Energy (uJ)" in out
