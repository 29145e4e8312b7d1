"""Experiment configuration: JSON schema, validation, defaults.

A config file is a single JSON object. Only "seed", "dataset" and
"policy" are required; everything else has a default. Unknown keys are
rejected by name, invalid values are rejected with the field path and
the violated constraint.

Schema (defaults in parentheses):

    seed            integer
    dataset         {"kind": "synthetic", "classes" (3), "per_class" (100),
                     "input_dim" (8), "separation" (3.0)}
                  | {"kind": "csv", "path", "input_dim", "classes",
                     "normalize" (false), "skip_header" (false)}
    model           {"hidden" ([16]), "activation" ("relu")}
    policy          {"kind": "top_k"|"random", "rate"}
                  | {"kind": "threshold", "tau"}
                  | {"kind": "dense"}
    clients         (3)      sparsify_site   ("uploaded_delta" | "local_gradient")
    alpha           (0.3)    rounds          (200)
    local_epochs    (5)      learning_rate   (0.01)
    batch_size      (32)     participation   (1.0)
    test_fraction   (0.2)    output_dir      ("out")
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import ModelSpec, param_count
from .sparsify import MAX_CLIENT_ID, MAX_INDEX, MAX_ROUND, SparsityPolicy


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class SyntheticDataConfig:
    classes: int = 3
    per_class: int = 100
    input_dim: int = 8
    separation: float = 3.0

    kind = "synthetic"


@dataclass(frozen=True)
class CsvDataConfig:
    path: str
    input_dim: int
    classes: int
    normalize: bool = False
    skip_header: bool = False

    kind = "csv"


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (16,)
    activation: str = "relu"


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: SyntheticDataConfig | CsvDataConfig
    policy: SparsityPolicy
    model: ModelConfig = field(default_factory=ModelConfig)
    clients: int = 3
    alpha: float = 0.3
    sparsify_site: str = "uploaded_delta"
    rounds: int = 200
    local_epochs: int = 5
    learning_rate: float = 0.01
    batch_size: int = 32
    participation: float = 1.0
    test_fraction: float = 0.2
    output_dir: str = "out"

    def __post_init__(self):
        # The one owner of the top-level range rules: parsed configs, sweep
        # cells made with dataclasses.replace and configs built in code all
        # pass through here. learning_rate 0 is accepted (the conservation
        # tests rely on it); parse_config_dict alone requires it to be > 0.
        _require(self.seed >= 0, "seed", "must be >= 0")
        _require(self.clients >= 1, "clients", "must be >= 1")
        _require(self.clients <= MAX_CLIENT_ID, "clients",
                 f"must be <= {MAX_CLIENT_ID} (the FSU1 client id is a u16)")
        _require(self.alpha > 0, "alpha", "must be > 0")
        _require(self.sparsify_site in ("uploaded_delta", "local_gradient"),
                 "sparsify_site", "must be 'uploaded_delta' or 'local_gradient'")
        _require(self.rounds >= 1, "rounds", "must be >= 1")
        _require(self.rounds <= MAX_ROUND, "rounds",
                 f"must be <= {MAX_ROUND} (the FSU1 round is a u32)")
        _require(self.local_epochs >= 1, "local_epochs", "must be >= 1")
        _require(self.learning_rate >= 0, "learning_rate", "must be >= 0")
        _require(self.batch_size >= 1, "batch_size", "must be >= 1")
        _require(0.0 < self.participation <= 1.0, "participation", "must be in (0, 1]")
        _require(0.0 < self.test_fraction < 1.0, "test_fraction", "must be in (0, 1)")
        params = param_count(ModelSpec(
            (self.dataset.input_dim, *self.model.hidden, self.dataset.classes)))
        _require(params <= MAX_INDEX + 1, "model.hidden",
                 f"gives {params} params, more than {MAX_INDEX + 1} "
                 f"(the FSU1 index is a u32)")


def _require(cond: bool, path: str, constraint: str):
    if not cond:
        raise ConfigError(f"{path}: {constraint}")


def _check_keys(obj: dict, allowed: set[str], section: str):
    for key in obj:
        if key not in allowed:
            where = f" in {section}" if section else ""
            raise ConfigError(f"unknown key {key!r}{where}")


_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), bool: ("true or false", None)}


def _is(value, types) -> bool:
    if isinstance(value, bool):  # a bool is an int to isinstance, never here
        return types is bool
    return isinstance(value, (int, float) if types is float else types)


def _get(obj: dict, key: str, default, types, path: str):
    if key not in obj:
        return default
    value = obj[key]
    _require(_is(value, types), path, f"must be {_TYPE_NAMES[types][0]}")
    return float(value) if types is float else value


def _get_list(obj: dict, key: str, default: list, types, path: str) -> list:
    values = obj.get(key, default)
    _require(isinstance(values, list) and all(_is(v, types) for v in values),
             path, f"must be a list of {_TYPE_NAMES[types][1]}")
    return [float(v) for v in values] if types is float else values


def _parse_synthetic(obj: dict, section: str) -> SyntheticDataConfig:
    """Typed, range-checked synthetic-dataset fields; paths are section.key."""
    cfg = SyntheticDataConfig(
        classes=_get(obj, "classes", 3, int, f"{section}.classes"),
        per_class=_get(obj, "per_class", 100, int, f"{section}.per_class"),
        input_dim=_get(obj, "input_dim", 8, int, f"{section}.input_dim"),
        separation=_get(obj, "separation", 3.0, float, f"{section}.separation"),
    )
    _require(cfg.classes >= 2, f"{section}.classes", "must be >= 2")
    _require(cfg.per_class >= 1, f"{section}.per_class", "must be >= 1")
    _require(cfg.input_dim >= 1, f"{section}.input_dim", "must be >= 1")
    _require(cfg.separation >= 0, f"{section}.separation", "must be >= 0")
    return cfg


def _parse_dataset(obj) -> SyntheticDataConfig | CsvDataConfig:
    _require(isinstance(obj, dict), "dataset", "must be an object")
    kind = obj.get("kind", "synthetic")
    if kind == "synthetic":
        _check_keys(obj, {"kind", "classes", "per_class", "input_dim", "separation"},
                    "dataset")
        return _parse_synthetic(obj, "dataset")
    if kind == "csv":
        _check_keys(obj, {"kind", "path", "input_dim", "classes", "normalize",
                          "skip_header"}, "dataset")
        _require("path" in obj, "dataset.path", "is required for csv datasets")
        _require("input_dim" in obj, "dataset.input_dim", "is required for csv datasets")
        _require("classes" in obj, "dataset.classes", "is required for csv datasets")
        cfg = CsvDataConfig(
            path=_get(obj, "path", None, str, "dataset.path"),
            input_dim=_get(obj, "input_dim", None, int, "dataset.input_dim"),
            classes=_get(obj, "classes", None, int, "dataset.classes"),
            normalize=_get(obj, "normalize", False, bool, "dataset.normalize"),
            skip_header=_get(obj, "skip_header", False, bool, "dataset.skip_header"),
        )
        _require(cfg.classes >= 2, "dataset.classes", "must be >= 2")
        _require(cfg.input_dim >= 1, "dataset.input_dim", "must be >= 1")
        return cfg
    raise ConfigError(f"dataset.kind: must be 'synthetic' or 'csv', got {kind!r}")


def _parse_model(obj) -> ModelConfig:
    _require(isinstance(obj, dict), "model", "must be an object")
    _check_keys(obj, {"hidden", "activation"}, "model")
    hidden = _get_list(obj, "hidden", [16], int, "model.hidden")
    _require(all(h >= 1 for h in hidden), "model.hidden", "every width must be >= 1")
    activation = _get(obj, "activation", "relu", str, "model.activation")
    _require(activation in ("relu", "tanh"), "model.activation",
             "must be 'relu' or 'tanh'")
    return ModelConfig(hidden=tuple(hidden), activation=activation)


def _parse_policy(obj) -> SparsityPolicy:
    _require(isinstance(obj, dict), "policy", "must be an object")
    _check_keys(obj, {"kind", "rate", "tau"}, "policy")
    kind = obj.get("kind")
    _require(kind in ("top_k", "threshold", "random", "dense"), "policy.kind",
             "must be one of 'top_k', 'threshold', 'random', 'dense'")
    if kind in ("top_k", "random"):
        _require("rate" in obj, "policy.rate", f"is required for {kind}")
        rate = _get(obj, "rate", None, float, "policy.rate")
        _require(0.0 < rate <= 1.0, "policy.rate", "must be in (0, 1]")
        return SparsityPolicy(kind=kind, rate=rate)
    if kind == "threshold":
        _require("tau" in obj, "policy.tau", "is required for threshold")
        tau = _get(obj, "tau", None, float, "policy.tau")
        _require(tau >= 0.0, "policy.tau", "must be >= 0")
        return SparsityPolicy(kind=kind, tau=tau)
    _require(not obj.keys() - {"kind"}, "policy", "dense takes no parameters")
    return SparsityPolicy(kind="dense")


_TOP_KEYS = {
    "seed", "dataset", "model", "policy", "clients", "alpha", "sparsify_site",
    "rounds", "local_epochs", "learning_rate", "batch_size", "participation",
    "test_fraction", "output_dir",
}


def parse_config_dict(obj: dict) -> ExperimentConfig:
    _require(isinstance(obj, dict), "config", "must be a JSON object")
    _check_keys(obj, _TOP_KEYS, "")
    for required in ("seed", "dataset", "policy"):
        _require(required in obj, required, "is required")
    fields = dict(
        seed=_get(obj, "seed", None, int, "seed"),
        dataset=_parse_dataset(obj["dataset"]),
        policy=_parse_policy(obj["policy"]),
        model=_parse_model(obj.get("model", {})),
        clients=_get(obj, "clients", 3, int, "clients"),
        alpha=_get(obj, "alpha", 0.3, float, "alpha"),
        sparsify_site=_get(obj, "sparsify_site", "uploaded_delta", str, "sparsify_site"),
        rounds=_get(obj, "rounds", 200, int, "rounds"),
        local_epochs=_get(obj, "local_epochs", 5, int, "local_epochs"),
        learning_rate=_get(obj, "learning_rate", 0.01, float, "learning_rate"),
        batch_size=_get(obj, "batch_size", 32, int, "batch_size"),
        participation=_get(obj, "participation", 1.0, float, "participation"),
        test_fraction=_get(obj, "test_fraction", 0.2, float, "test_fraction"),
        output_dir=_get(obj, "output_dir", "out", str, "output_dir"),
    )
    # a run needs lr > 0; ExperimentConfig itself also accepts 0
    _require(fields["learning_rate"] > 0, "learning_rate", "must be > 0")
    return ExperimentConfig(**fields)


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config_dict(obj)


def emit_config(cfg: ExperimentConfig) -> dict:
    """Round-trippable plain-dict form: parse_config_dict(emit_config(c)) == c."""
    if isinstance(cfg.dataset, SyntheticDataConfig):
        dataset = {
            "kind": "synthetic",
            "classes": cfg.dataset.classes,
            "per_class": cfg.dataset.per_class,
            "input_dim": cfg.dataset.input_dim,
            "separation": cfg.dataset.separation,
        }
    else:
        dataset = {
            "kind": "csv",
            "path": cfg.dataset.path,
            "input_dim": cfg.dataset.input_dim,
            "classes": cfg.dataset.classes,
            "normalize": cfg.dataset.normalize,
            "skip_header": cfg.dataset.skip_header,
        }
    policy: dict = {"kind": cfg.policy.kind}
    if cfg.policy.kind in ("top_k", "random"):
        policy["rate"] = cfg.policy.rate
    elif cfg.policy.kind == "threshold":
        policy["tau"] = cfg.policy.tau
    return {
        "seed": cfg.seed,
        "dataset": dataset,
        "model": {"hidden": list(cfg.model.hidden), "activation": cfg.model.activation},
        "policy": policy,
        "clients": cfg.clients,
        "alpha": cfg.alpha,
        "sparsify_site": cfg.sparsify_site,
        "rounds": cfg.rounds,
        "local_epochs": cfg.local_epochs,
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "participation": cfg.participation,
        "test_fraction": cfg.test_fraction,
        "output_dir": cfg.output_dir,
    }
