"""Tests for the record views, figure data and table rendering."""

import pytest

from repro.analysis.figures import FigureData, downsample_series, render_ascii_plot
from repro.analysis.tables import render_table, table1_rows
from repro.datasets.streaming import paper_dataset_configs
from repro.harness import (
    ChipSpec,
    DatasetSpec,
    activation_rows_from_records,
    increment_figures_from_records,
    materialize_dataset,
    table2_rows_from_records,
)

from helpers import run_paper_pair

np = pytest.importorskip("numpy")  # these tests exercise numpy-backed features


@pytest.fixture(scope="module")
def small_pair():
    """One paired (ingestion / ingestion+BFS) run reused by several tests.

    Returns ``(dataset, records, activation)``; the runs are named
    ``my-dataset-ingest`` and ``my-dataset-bfs``.
    """
    chip = ChipSpec(side=8, edge_list_capacity=8)
    spec = DatasetSpec(vertices=150, edges=1200, sampling="edge", num_increments=5, seed=4)
    return (materialize_dataset(spec), *run_paper_pair("my-dataset", spec, chip))


class TestExperimentDriver:
    """The paired harness runs, read off their records."""

    def test_increment_cycles_recorded(self, small_pair):
        dataset, pair, _ = small_pair
        for record in pair.values():
            assert len(record["increment_cycles"]) == dataset.num_increments
            assert all(c > 0 for c in record["increment_cycles"])

    def test_bfs_run_does_at_least_as_much_work(self, small_pair):
        _, pair, _ = small_pair
        assert pair["bfs"]["total_cycles"] >= pair["ingest"]["total_cycles"]
        assert (
            pair["bfs"]["stats"]["messages_injected"]
            > pair["ingest"]["stats"]["messages_injected"]
        )

    def test_all_edges_stored_in_both_runs(self, small_pair):
        dataset, pair, _ = small_pair
        for record in pair.values():
            assert record["edges_stored"] == dataset.total_edges

    def test_bfs_reached_only_in_bfs_run(self, small_pair):
        _, pair, _ = small_pair
        assert pair["ingest"]["algo_metrics"].get("reached", 0) == 0
        assert pair["bfs"]["algo_metrics"]["reached"] > 1

    def test_active_series_length_matches_cycles(self, small_pair):
        _, pair, activation = small_pair
        series = activation["bfs"]
        assert len(series) == pair["bfs"]["stats"]["cycles"]
        assert series.max() <= 100.0

    def test_energy_positive_and_bfs_costs_more(self, small_pair):
        _, pair, _ = small_pair
        assert pair["ingest"]["energy"]["total_uj"] > 0
        assert pair["bfs"]["energy"]["total_uj"] > pair["ingest"]["energy"]["total_uj"]


class TestFigures:
    def test_increment_figure_series(self, small_pair):
        _, pair, _ = small_pair
        (fig,) = increment_figures_from_records(list(pair.values()))
        assert set(fig.series) == {"Streaming Edges", "Streaming Edges with BFS"}
        assert len(fig.series["Streaming Edges"]) == 5

    def test_activation_figure(self, small_pair):
        _, pair, _ = small_pair
        rows = activation_rows_from_records(list(pair.values()))
        assert [row["Scenario"] for row in rows] == ["my-dataset-ingest", "my-dataset-bfs"]
        assert all(0 < row["Mean Active %"] <= row["Peak Active %"] for row in rows)

    def test_downsample_preserves_short_series(self):
        data = np.arange(10.0)
        assert np.array_equal(downsample_series(data, 20), data)

    def test_downsample_reduces_long_series(self):
        data = np.arange(1000.0)
        out = downsample_series(data, 100)
        assert len(out) <= 100 + 1
        assert out[0] < out[-1]

    def test_render_ascii_plot_contains_title_and_legend(self, small_pair):
        _, pair, _ = small_pair
        (fig,) = increment_figures_from_records(list(pair.values()))
        fig.title = "My Figure"
        text = render_ascii_plot(fig)
        assert "My Figure" in text
        assert "Streaming Edges with BFS" in text

    def test_render_ascii_plot_empty(self):
        fig = FigureData(title="empty", x_label="x", y_label="y")
        assert "no data" in render_ascii_plot(fig)


class TestTables:
    def test_table1_rows_shape(self):
        datasets = paper_dataset_configs(scale="tiny", seed=2)
        rows = table1_rows(datasets)
        assert len(rows) == 4
        for row in rows:
            assert row["Final Edges"] == sum(row[f"Inc {i}"] for i in range(1, 11))

    def test_table2_rows(self, small_pair):
        _, pair, _ = small_pair
        rows = table2_rows_from_records(list(pair.values()))
        row = rows[0]
        assert row["Dataset"] == "my-dataset"
        assert row["Ingestion & BFS Energy (uJ)"] >= row["Ingestion Energy (uJ)"]
        assert row["Ingestion & BFS Time (us)"] >= row["Ingestion Time (us)"]

    def test_render_table_alignment(self):
        rows = [{"A": 1, "B": "x"}, {"A": 22, "B": "yy"}]
        text = render_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_table_empty(self):
        assert render_table([]) == "(empty table)"

    def test_render_table_truncates_long_values(self):
        text = render_table([{"A": "x" * 50}], max_width=10)
        assert "…" in text
