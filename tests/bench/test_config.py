"""Tests for matrix-file parsing, interpolation and cell expansion."""

from pathlib import Path

import pytest

from repro.bench import (
    BenchConfigError,
    expand_cells,
    interpolate,
    load_config,
    parse_config,
)

MATRICES = Path(__file__).parents[2] / "benchmarks" / "matrices"

TOML = """
label = "demo"
repetitions = 2
warmup = 0

[factors]
graph = ["A", "B"]
ranks = [1, 2]

[cell]
variant = "parallel"
ranks = "{ranks}"
tag = "g={graph}/r={ranks}"

[graphs.A]
family = "lfr"
num_vertices = 100

[graphs.B]
family = "lfr"
num_vertices = 200
"""


class TestLoadConfig:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text(TOML)
        config = load_config(str(path))
        assert config.label == "demo"
        assert config.repetitions == 2 and config.warmup == 0
        assert list(config.factors) == ["graph", "ranks"]
        assert set(config.graphs) == {"A", "B"}

    def test_json_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"label": "j", "factors": {"ranks": [1, 2]},'
            ' "cell": {"ranks": "{ranks}", "graph": "g"},'
            ' "graphs": {"g": {"family": "lfr"}}}'
        )
        config = load_config(str(path))
        cells = expand_cells(config)
        assert [c.params["ranks"] for c in cells] == [1, 2]

    def test_missing_label_rejected(self):
        with pytest.raises(BenchConfigError, match="label"):
            parse_config({"factors": {}})

    def test_bad_repetitions_rejected(self):
        with pytest.raises(BenchConfigError, match="repetitions"):
            parse_config({"label": "x", "repetitions": 0})

    def test_empty_factor_list_rejected(self):
        with pytest.raises(BenchConfigError, match="factors"):
            parse_config({"label": "x", "factors": {"ranks": []}})

    def test_unknown_graph_reference(self):
        config = parse_config({"label": "x", "graphs": {"a": {}}})
        with pytest.raises(BenchConfigError, match="unknown graph"):
            config.resolve_graph("nope", {})


class TestInterpolate:
    def test_exact_reference_keeps_type(self):
        assert interpolate("{ranks}", {"ranks": 8}) == 8

    def test_format_string_stringifies(self):
        assert interpolate("r={ranks}", {"ranks": 8}) == "r=8"

    def test_containers_recurse(self):
        out = interpolate({"a": ["{x}", "y={x}"]}, {"x": 3})
        assert out == {"a": [3, "y=3"]}

    def test_unknown_reference_raises(self):
        with pytest.raises(BenchConfigError, match="unknown reference"):
            interpolate("{nope}", {"x": 1})
        with pytest.raises(BenchConfigError, match="unknown reference"):
            interpolate("v={nope}", {"x": 1})

    def test_non_strings_pass_through(self):
        assert interpolate(3.5, {}) == 3.5


class TestExpandCells:
    def test_cross_product_and_ids(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text(TOML)
        cells = expand_cells(load_config(str(path)))
        assert len(cells) == 4
        assert cells[0].cell_id == "graph=A,ranks=1"
        # Exact reference stays an int; format string renders.
        assert cells[0].params["ranks"] == 1
        assert cells[0].params["tag"] == "g=A/r=1"

    def test_no_factors_single_cell(self):
        config = parse_config(
            {"label": "solo", "cell": {"variant": "parallel", "graph": "g"}}
        )
        cells = expand_cells(config)
        assert len(cells) == 1
        assert cells[0].cell_id == "solo"

    def test_dict_valued_factor_merges_fields(self):
        config = parse_config({
            "label": "paired",
            "factors": {
                "point": [
                    {"_name": "small", "graph": "g", "nodes": 2},
                    {"_name": "big", "graph": "g", "nodes": 4},
                ],
            },
            "cell": {"ranks": "{nodes}"},
        })
        cells = expand_cells(config)
        assert [c.cell_id for c in cells] == ["point=small", "point=big"]
        assert [c.params["ranks"] for c in cells] == [2, 4]
        # The _name display key never leaks into the run parameters.
        assert all("_name" not in c.params for c in cells)

    def test_exclude_matches_raw_values(self):
        config = parse_config({
            "label": "x",
            "factors": {"ranks": [1, 2, 4]},
            "exclude": [{"ranks": 4}],
        })
        assert [c.factors["ranks"] for c in expand_cells(config)] == ["1", "2"]

    def test_exclude_matches_display_of_dict_factor(self):
        # `workload = "big"` must prune the dict-valued factor whose _name
        # is "big", and an int pattern must match the stringified display.
        config = parse_config({
            "label": "x",
            "factors": {
                "workload": [{"_name": "small"}, {"_name": "big"}],
                "nodes": [32, 64],
            },
            "exclude": [{"workload": "big", "nodes": 64}],
        })
        ids = [c.cell_id for c in expand_cells(config)]
        assert "workload=big,nodes=64" not in ids
        assert len(ids) == 3

    def test_all_excluded_raises(self):
        config = parse_config({
            "label": "x",
            "factors": {"ranks": [1]},
            "exclude": [{"ranks": 1}],
        })
        with pytest.raises(BenchConfigError, match="zero cells"):
            expand_cells(config)


class TestCheckedInMatrices:
    """Every matrix under benchmarks/matrices/ must load and expand."""

    @pytest.mark.parametrize(
        "path", sorted(MATRICES.glob("*.toml")), ids=lambda p: p.stem
    )
    def test_loads_and_expands(self, path):
        cells = expand_cells(load_config(str(path)))
        assert cells
        for cell in cells:
            assert "graph" in cell.params

    def test_fig9bc_exclude_prunes_rmat_64(self):
        cells = expand_cells(load_config(str(MATRICES / "fig9bc_strong.toml")))
        ids = [c.cell_id for c in cells]
        assert "workload=rmat15,nodes=64" not in ids
        assert "workload=uk2007,nodes=64" in ids
        assert len(ids) == 9
