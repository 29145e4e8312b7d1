"""Config parsing: defaults, the model shape, round trips, grid and spec
files. Every rule that rejects an input is a row of `OUTCOMES` in
test_cli.py, checked on the code-built path there too."""

import json
from dataclasses import replace

import pytest

from fedsparse.config import (SyntheticDataConfig, cell_policy, emit_config, parse_config,
                              parse_config_dict, parse_data_spec, parse_grid)
from fedsparse.model import ModelSpec
from fedsparse.sparsify import POLICY_KINDS, POLICY_PARAM, SparsityPolicy

MINIMAL = {
    "seed": 7,
    "dataset": {"kind": "synthetic"},
    "policy": {"kind": "top_k", "rate": 0.2},
}


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config_dict(dict(MINIMAL))
        assert cfg.learning_rate == 0.01
        assert cfg.local_epochs == 5
        assert cfg.clients == 3
        assert cfg.participation == 1.0
        assert cfg.rounds == 200
        assert cfg.sparsify_site == "uploaded_delta"
        assert isinstance(cfg.dataset, SyntheticDataConfig)
        assert cfg.model.hidden == (16,)


def test_model_spec_is_the_run_shape():
    cfg = parse_config_dict(dict(MINIMAL, seed=5, model={"hidden": [6, 2], "activation": "tanh"},
                                 dataset={"kind": "synthetic", "classes": 4, "input_dim": 9}))
    assert cfg.model_spec == ModelSpec((9, 6, 2, 4), "tanh", 5)
    assert replace(cfg, seed=8).model_spec.seed == 8


class TestRoundTrip:
    @pytest.mark.parametrize("policy", [
        {"kind": "top_k", "rate": 0.2},
        {"kind": "threshold", "tau": 0.15},
        {"kind": "random", "rate": 0.4},
        {"kind": "dense"},
    ])
    def test_emit_parse_round_trip(self, policy, tmp_path):
        doc = dict(MINIMAL, policy=policy,
                   dataset={"kind": "synthetic", "classes": 4, "per_class": 50,
                            "input_dim": 6, "separation": 1.5},
                   model={"hidden": [8, 4], "activation": "tanh"},
                   alpha=0.6, rounds=10)
        cfg = parse_config_dict(doc)
        emitted = emit_config(cfg)
        again = parse_config_dict(emitted)
        assert again == cfg
        # and through an actual file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(emitted))
        assert parse_config(path) == cfg

    def test_csv_round_trip(self):
        doc = dict(MINIMAL, dataset={"kind": "csv", "path": "x.csv",
                                     "input_dim": 3, "classes": 2,
                                     "normalize": True})
        cfg = parse_config_dict(doc)
        assert parse_config_dict(emit_config(cfg)) == cfg


class TestInputFiles:
    """The sweep grid and gen-data spec files are parsed here too."""

    def test_grid_cells_in_alpha_policy_rate_order(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"alpha": [0.3, 1], "rate": [0.1, 0.2],
                                    "policy": ["top_k", "dense"]}))
        assert parse_grid(path) == [
            (0.3, "top_k", 0.1), (0.3, "top_k", 0.2), (0.3, "dense", 1.0),
            (1.0, "top_k", 0.1), (1.0, "top_k", 0.2), (1.0, "dense", 1.0)]
        path.write_text(json.dumps({"alpha": [0.3], "rate": [0.1]}))
        assert parse_grid(path) == [(0.3, "top_k", 0.1)]

    def test_grid_keeps_the_first_appearance_of_each_cell(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"alpha": [0.6, 0.3, 0.6], "rate": [0.2, 0.1, 0.2],
                                    "policy": ["dense", "threshold", "dense"]}))
        assert parse_grid(path) == [
            (0.6, "dense", 1.0), (0.6, "threshold", 0.2), (0.6, "threshold", 0.1),
            (0.3, "dense", 1.0), (0.3, "threshold", 0.2), (0.3, "threshold", 0.1)]

    def test_cell_policy_gives_the_rate_to_the_kind_parameter(self):
        assert POLICY_KINDS == tuple(POLICY_PARAM)
        assert cell_policy("top_k", 0.2) == SparsityPolicy("top_k", rate=0.2)
        assert cell_policy("random", 0.2) == SparsityPolicy("random", rate=0.2)
        assert cell_policy("threshold", 0.2) == SparsityPolicy("threshold", tau=0.2)
        assert cell_policy("dense", 0.2) == SparsityPolicy("dense")

    def test_data_spec_defaults_seed_to_zero(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"classes": 4, "per_class": 5}))
        assert parse_data_spec(path) == (SyntheticDataConfig(classes=4, per_class=5), 0)
        path.write_text(json.dumps({"input_dim": 2, "seed": 9}))
        assert parse_data_spec(path) == (SyntheticDataConfig(input_dim=2), 9)
