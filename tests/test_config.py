"""Config parsing: defaults, named diagnostics, round trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fedsparse.config import (ConfigError, CsvDataConfig, ExperimentConfig, ModelConfig,
                              SyntheticDataConfig, cell_policy, emit_config, parse_config,
                              parse_config_dict, parse_data_spec, parse_grid)
from fedsparse.data import gen_synthetic
from fedsparse.model import ModelSpec
from fedsparse.partition import MIN_ALPHA, partition_dataset
from fedsparse.sparsify import POLICY_KINDS, POLICY_PARAM, SparsityPolicy, retained_count

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

    def test_required_fields(self):
        for missing in ("seed", "dataset", "policy"):
            doc = dict(MINIMAL)
            del doc[missing]
            with pytest.raises(ConfigError, match=missing):
                parse_config_dict(doc)


class TestDiagnostics:
    def test_unknown_top_level_key_named(self):
        doc = dict(MINIMAL, lerning_rate=0.1)
        with pytest.raises(ConfigError, match="unknown key 'lerning_rate'"):
            parse_config_dict(doc)

    def test_unknown_nested_key_named_with_section(self):
        doc = dict(MINIMAL, dataset={"kind": "synthetic", "classez": 4})
        with pytest.raises(ConfigError, match="unknown key 'classez' in dataset"):
            parse_config_dict(doc)

    def test_rate_out_of_range_cites_constraint(self):
        doc = dict(MINIMAL, policy={"kind": "top_k", "rate": 1.5})
        with pytest.raises(ConfigError, match=r"policy\.rate: must be in \(0, 1\]"):
            parse_config_dict(doc)

    def test_field_paths_in_messages(self):
        cases = [
            ({"clients": 0}, r"clients: must be >= 1"),
            ({"alpha": -1.0}, r"alpha: must be > 0"),
            ({"learning_rate": 0}, r"learning_rate: must be > 0"),
            ({"participation": 0.0}, r"participation: must be in \(0, 1\]"),
            ({"test_fraction": 1.0}, r"test_fraction: must be in \(0, 1\)"),
            ({"sparsify_site": "midway"}, r"sparsify_site"),
            ({"rounds": 0}, r"rounds: must be >= 1"),
        ]
        for override, pattern in cases:
            with pytest.raises(ConfigError, match=pattern):
                parse_config_dict(dict(MINIMAL, **override))

    def test_wire_limits_checked_at_config_time(self):
        # FSU1 carries the client id as a u16 and the round as a u32; 3 x 30,000
        # samples leave 72,000 training rows, one for each of 65,536 clients
        large = dict(MINIMAL, dataset={"kind": "synthetic", "per_class": 30_000})
        assert parse_config_dict(dict(large, clients=65535)).clients == 65535
        assert parse_config_dict(dict(MINIMAL, rounds=2 ** 32 - 1)).rounds == 2 ** 32 - 1
        with pytest.raises(ConfigError, match=r"^clients: must be <= 65535"):
            parse_config_dict(dict(large, clients=65536))
        with pytest.raises(ConfigError, match=r"^rounds: must be <= 4294967295"):
            parse_config_dict(dict(MINIMAL, rounds=2 ** 32))

    def test_split_rules_checked_at_config_time(self):
        """A synthetic set's split is known from the config: 3 classes of 100
        rows give round(100 * test_fraction) test rows per class."""
        assert parse_config_dict(dict(MINIMAL, test_fraction=0.005)).test_fraction == 0.005
        with pytest.raises(ConfigError, match=r"^test_fraction: must be large enough to "
                                              r"leave a test row, but 0\.004 of every "
                                              r"class rounds to none$"):
            parse_config_dict(dict(MINIMAL, test_fraction=0.004))
        # 240 training rows: one per client at most
        assert parse_config_dict(dict(MINIMAL, clients=240)).clients == 240
        with pytest.raises(ConfigError, match=r"^clients: must be <= 240, the training "
                                              r"rows the split leaves$"):
            parse_config_dict(dict(MINIMAL, clients=241))
        with pytest.raises(ConfigError, match=r"^clients: must be <= 3,"):
            parse_config_dict(dict(MINIMAL, clients=4, test_fraction=0.999,
                                   dataset={"kind": "synthetic", "per_class": 2}))
        # a loaded CSV set whose every class is one row: no test_fraction helps
        cfg = parse_config_dict(dict(MINIMAL, test_fraction=0.999))
        with pytest.raises(ConfigError, match=r"^dataset: every class has a single row"):
            cfg.check_split([1, 1, 1])
        cfg.check_split([1, 1, 2])

    def test_normalize_needs_two_training_rows(self):
        """A normalized CSV set is scaled by its training rows' spread, so a
        split that leaves one training row is a config error naming the key;
        the same split unnormalized runs."""
        csv = {"kind": "csv", "path": "x.csv", "input_dim": 2, "classes": 2}
        cfg = parse_config_dict(dict(MINIMAL, clients=1, test_fraction=0.5,
                                     dataset=dict(csv, normalize=True)))
        with pytest.raises(ConfigError, match=r"^dataset\.normalize: needs at least two "
                                              r"training rows, the split leaves 1$"):
            cfg.check_split([2])
        cfg.check_split([4])
        replace(cfg, dataset=replace(cfg.dataset, normalize=False)).check_split([2])

    def test_model_spec_is_the_run_shape(self):
        cfg = parse_config_dict(dict(MINIMAL, seed=5, model={"hidden": [6, 2],
                                                             "activation": "tanh"},
                                     dataset={"kind": "synthetic", "classes": 4,
                                              "input_dim": 9}))
        assert cfg.model_spec == ModelSpec((9, 6, 2, 4), "tanh", 5)
        assert replace(cfg, seed=8).model_spec.seed == 8

    def test_model_size_limit_checked_at_config_time(self):
        # FSU1 indices are u32: 2**32 params (largest index 2**32 - 1) fit.
        # input_dim d, one hidden layer h, c classes: h*(d + 1 + c) + c params.
        def cfg(input_dim, classes):
            return dict(MINIMAL, model={"hidden": [4]},
                        dataset={"kind": "synthetic", "input_dim": input_dim,
                                 "classes": classes})
        assert 4 * ((2 ** 30 - 6) + 1 + 4) + 4 == 2 ** 32
        assert 4 * ((2 ** 30 - 7) + 1 + 5) + 5 == 2 ** 32 + 1
        assert parse_config_dict(cfg(2 ** 30 - 6, 4)).model.hidden == (4,)
        with pytest.raises(ConfigError, match=r"^model\.hidden: gives 4294967297 params"):
            parse_config_dict(cfg(2 ** 30 - 7, 5))

    def test_alpha_floor_checked_at_config_time(self):
        # below MIN_ALPHA a partition can underflow every Dirichlet draw
        assert parse_config_dict(dict(MINIMAL, alpha=MIN_ALPHA)).alpha == MIN_ALPHA
        for alpha in (1e-7, 1e-300, 0.999 * MIN_ALPHA):
            with pytest.raises(ConfigError, match=r"^alpha: must be >= 1e-05 "):
                parse_config_dict(dict(MINIMAL, alpha=alpha))
        with pytest.raises(ConfigError, match=r"^alpha: must be > 0$"):
            parse_config_dict(dict(MINIMAL, alpha=0.0))

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigError, match="seed: must be an integer"):
            parse_config_dict(dict(MINIMAL, seed="banana"))
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config_dict(dict(MINIMAL, alpha="big"))
        with pytest.raises(ConfigError, match=r"model\.hidden"):
            parse_config_dict(dict(MINIMAL, model={"hidden": [8.5]}))

    def test_policy_parameter_requirements(self):
        with pytest.raises(ConfigError, match=r"policy\.rate: is required"):
            parse_config_dict(dict(MINIMAL, policy={"kind": "top_k"}))
        with pytest.raises(ConfigError, match=r"policy\.tau: is required"):
            parse_config_dict(dict(MINIMAL, policy={"kind": "threshold"}))
        with pytest.raises(ConfigError, match="dense takes no parameters"):
            parse_config_dict(dict(MINIMAL, policy={"kind": "dense", "rate": 0.5}))

    def test_csv_dataset_requirements(self):
        with pytest.raises(ConfigError, match=r"dataset\.path: is required"):
            parse_config_dict(dict(MINIMAL, dataset={"kind": "csv"}))

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(bad)


def _error(build) -> str:
    with pytest.raises(ConfigError) as info:
        build()
    return str(info.value)


class TestOneOwner:
    """ExperimentConfig checks its own ranges, however it is built."""

    @pytest.mark.parametrize("override", [
        {"seed": -1}, {"clients": 0}, {"clients": 65536}, {"alpha": 0.0},
        {"alpha": -1.0}, {"sparsify_site": "midway"}, {"rounds": 0},
        {"rounds": 2 ** 32}, {"local_epochs": 0}, {"batch_size": 0},
        {"participation": 0.0}, {"participation": 1.5}, {"test_fraction": 0.0},
        {"test_fraction": 1.0}, {"alpha": 1e-7}, {"test_fraction": 1e-3},
        {"clients": 241},
    ])
    def test_replace_raises_the_parse_message(self, override):
        base = parse_config_dict(dict(MINIMAL))
        parsed = _error(lambda: parse_config_dict(dict(MINIMAL, **override)))
        assert _error(lambda: replace(base, **override)) == parsed
        assert parsed.startswith(f"{next(iter(override))}: must be")

    @pytest.mark.parametrize("section,fields,build", [
        ("dataset", {"classes": 1}, lambda: SyntheticDataConfig(classes=1)),
        ("dataset", {"per_class": 0}, lambda: SyntheticDataConfig(per_class=0)),
        ("dataset", {"input_dim": 0}, lambda: SyntheticDataConfig(input_dim=0)),
        ("dataset", {"separation": -0.5}, lambda: SyntheticDataConfig(separation=-0.5)),
        ("dataset", {"kind": "csv", "path": "x.csv", "input_dim": 0, "classes": 2},
         lambda: CsvDataConfig("x.csv", 0, 2)),
        ("dataset", {"kind": "csv", "path": "x.csv", "input_dim": 3, "classes": 1},
         lambda: CsvDataConfig("x.csv", 3, 1)),
        ("model", {"hidden": [4, 0]}, lambda: ModelConfig(hidden=(4, 0))),
        ("model", {"activation": "sigmoid"}, lambda: ModelConfig(activation="sigmoid")),
        ("policy", {"kind": "top_k", "rate": 1.5}, lambda: SparsityPolicy("top_k", 1.5)),
        ("policy", {"kind": "random", "rate": 0.0}, lambda: SparsityPolicy("random", 0.0)),
        ("policy", {"kind": "threshold", "tau": -1.0},
         lambda: SparsityPolicy("threshold", tau=-1.0)),
        ("policy", {"kind": "top_k"}, lambda: SparsityPolicy("top_k")),
        ("policy", {"kind": "banana"}, lambda: SparsityPolicy("banana")),
        ("policy", {"kind": "top_k", "rate": 0.2, "tau": -5.0},
         lambda: SparsityPolicy("top_k", 0.2, -5.0)),
        ("policy", {"kind": "threshold", "tau": 0.1, "rate": 0.2},
         lambda: SparsityPolicy("threshold", rate=0.2, tau=0.1)),
        ("policy", {"kind": "dense", "tau": 0.1}, lambda: SparsityPolicy("dense", tau=0.1)),
    ], ids=["classes", "per_class", "input_dim", "separation", "csv.input_dim",
            "csv.classes", "hidden", "activation", "top_k.rate", "random.rate", "tau",
            "rate_missing", "kind", "top_k.tau", "threshold.rate", "dense.tau"])
    def test_nested_types_raise_the_parse_message(self, section, fields, build):
        parsed = _error(lambda: parse_config_dict(dict(MINIMAL, **{section: fields})))
        with pytest.raises(ValueError) as info:
            build()
        assert parsed == f"{section}.{info.value}"

    def test_runtime_checks_share_the_owners(self):
        with pytest.raises(ValueError, match=r"^classes: must be >= 2$"):
            gen_synthetic(1, 10, 4, 1.0, rng_seed=0)
        with pytest.raises(ValueError, match=r"^separation: must be >= 0$"):
            gen_synthetic(2, 10, 4, -1.0, rng_seed=0)
        with pytest.raises(ValueError, match=r"^rate: must be in \(0, 1\]$"):
            retained_count(1.5, 10)

    def test_model_size_limit_on_replace(self):
        base = parse_config_dict(dict(MINIMAL))
        parsed = _error(lambda: parse_config_dict(dict(
            MINIMAL, model={"hidden": [4]},
            dataset={"kind": "synthetic", "input_dim": 2 ** 30 - 7, "classes": 5})))
        assert _error(lambda: replace(
            base, model=ModelConfig(hidden=(4,)),
            dataset=SyntheticDataConfig(input_dim=2 ** 30 - 7, classes=5))) == parsed

    def test_direct_construction_is_checked(self):
        with pytest.raises(ConfigError, match=r"^batch_size: must be >= 1$"):
            ExperimentConfig(seed=0, dataset=SyntheticDataConfig(),
                             policy=SparsityPolicy("dense"), batch_size=0)

    @pytest.mark.parametrize("value", [0.0, -0.5], ids=str)
    def test_learning_rate_must_be_positive_on_every_path(self, value):
        expected = r"^learning_rate: must be > 0$"
        with pytest.raises(ConfigError, match=expected):
            ExperimentConfig(seed=0, dataset=SyntheticDataConfig(),
                             policy=SparsityPolicy("dense"), learning_rate=value)
        with pytest.raises(ConfigError, match=expected):
            replace(parse_config_dict(dict(MINIMAL)), learning_rate=value)
        with pytest.raises(ConfigError, match=expected):
            parse_config_dict(dict(MINIMAL, learning_rate=value))


NON_FINITE = [math.inf, -math.inf, math.nan]


class TestNonFinite:
    """json reads Infinity and NaN as floats. The type that owns each float
    key rejects them by name, in a parsed file and in code alike."""

    @staticmethod
    def parsed(tmp_path, doc) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))  # json writes inf as Infinity, nan as NaN
        return _error(lambda: parse_config(path))

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_alpha(self, tmp_path, value):
        assert self.parsed(tmp_path, dict(MINIMAL, alpha=value)) == "alpha: must be finite"
        base = parse_config_dict(dict(MINIMAL))
        assert _error(lambda: replace(base, alpha=value)) == "alpha: must be finite"
        with pytest.raises(ValueError, match=r"^alpha must be finite and > 0$"):
            partition_dataset(np.array([0, 0, 1, 1]), 2, value, rng_seed=0)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_learning_rate(self, tmp_path, value):
        assert (self.parsed(tmp_path, dict(MINIMAL, learning_rate=value))
                == "learning_rate: must be finite")
        base = parse_config_dict(dict(MINIMAL))
        assert (_error(lambda: replace(base, learning_rate=value))
                == "learning_rate: must be finite")
        assert _error(lambda: ExperimentConfig(
            seed=0, dataset=SyntheticDataConfig(), policy=SparsityPolicy("dense"),
            learning_rate=value)) == "learning_rate: must be finite"

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_separation(self, tmp_path, value):
        dataset = {"kind": "synthetic", "separation": value}
        assert (self.parsed(tmp_path, dict(MINIMAL, dataset=dataset))
                == "dataset.separation: must be finite")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"separation": value}))
        assert _error(lambda: parse_data_spec(spec)) == "spec.separation: must be finite"
        with pytest.raises(ValueError, match=r"^separation: must be finite$"):
            gen_synthetic(2, 10, 4, value, rng_seed=0)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_tau(self, tmp_path, value):
        policy = {"kind": "threshold", "tau": value}
        assert (self.parsed(tmp_path, dict(MINIMAL, policy=policy))
                == "policy.tau: must be finite")
        assert _error(lambda: cell_policy("threshold", value)) == "policy.tau: must be finite"
        with pytest.raises(ValueError, match=r"^tau: must be finite$"):
            SparsityPolicy("threshold", tau=value)


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
        with pytest.raises(ConfigError, match=r"^policy\.rate: must be in \(0, 1\]$"):
            cell_policy("top_k", 1.5)

    def test_data_spec_defaults_seed_to_zero(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"classes": 4, "per_class": 5}))
        assert parse_data_spec(path) == (SyntheticDataConfig(classes=4, per_class=5), 0)
        path.write_text(json.dumps({"input_dim": 2, "seed": 9}))
        assert parse_data_spec(path) == (SyntheticDataConfig(input_dim=2), 9)
