"""Experiment configuration: JSON schema, validation, defaults.

A config file is a single JSON object. Only "seed", "dataset" and
"policy" are required; everything else has a default. Unknown keys are
rejected by name, invalid values are rejected with the field path and
the violated constraint.

The config types own the schema: their fields are the keys, their field
defaults the defaults and their __post_init__ the range rules, so a
config built in code is checked like a parsed one. The parser checks only
the JSON shape (types, presence, unknown keys), builds each type from the
keys present, and prefixes a nested type's errors with its section.

Schemas (the type or function that owns each part in parentheses):

    seed, clients, alpha, sparsify_site, rounds, local_epochs,
    learning_rate, batch_size, participation, test_fraction, output_dir
                    (ExperimentConfig)
    dataset         {"kind": "synthetic", "classes", "per_class", "input_dim",
                     "separation"}                    (SyntheticDataConfig)
                  | {"kind": "csv", "path", "input_dim", "classes",
                     "normalize", "skip_header"}      (CsvDataConfig)
    model           {"hidden", "activation"}          (ModelConfig)
    policy          {"kind": "top_k"|"random", "rate"}
                  | {"kind": "threshold", "tau"}
                  | {"kind": "dense"}                 (sparsify.SparsityPolicy)

    sweep grid      {"alpha": [numbers], "rate": [numbers],
                     "policy": [kinds], default ["top_k"]}          (parse_grid)
    gen-data spec   the synthetic dataset keys, "seed" (default 0)
                                                               (parse_data_spec)
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .model import ACTIVATIONS, ModelSpec, param_count
from .partition import MIN_ALPHA
from .sparsify import MAX_CLIENT_ID, MAX_INDEX, MAX_ROUND, POLICY_PARAM, SparsityPolicy


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _require(cond: bool, path: str, constraint: str):
    if not cond:
        raise ConfigError(f"{path}: {constraint}")


def _check_task(classes: int, input_dim: int):
    _require(classes >= 2, "classes", "must be >= 2")
    _require(input_dim >= 1, "input_dim", "must be >= 1")


@dataclass(frozen=True)
class SyntheticDataConfig:
    classes: int = 3
    per_class: int = 100
    input_dim: int = 8
    separation: float = 3.0

    kind = "synthetic"

    def __post_init__(self):
        _check_task(self.classes, self.input_dim)
        # one sample per class stays in train, so the test split would be empty
        _require(self.per_class >= 2, "per_class", "must be >= 2")
        _require(math.isfinite(self.separation), "separation", "must be finite")
        _require(self.separation >= 0, "separation", "must be >= 0")


@dataclass(frozen=True)
class CsvDataConfig:
    path: str
    input_dim: int
    classes: int
    normalize: bool = False
    skip_header: bool = False

    kind = "csv"

    def __post_init__(self):
        _check_task(self.classes, self.input_dim)


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (16,)
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        _require(all(h >= 1 for h in self.hidden), "hidden", "every width must be >= 1")
        _require(self.activation in ACTIVATIONS, "activation",
                 "must be " + " or ".join(map(repr, ACTIVATIONS)))


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
        # pass through here.
        _require(self.seed >= 0, "seed", "must be >= 0")
        _require(self.clients >= 1, "clients", "must be >= 1")
        _require(self.clients <= MAX_CLIENT_ID, "clients",
                 f"must be <= {MAX_CLIENT_ID} (the FSU1 client id is a u16)")
        _require(math.isfinite(self.alpha), "alpha", "must be finite")
        _require(self.alpha > 0, "alpha", "must be > 0")
        _require(self.alpha >= MIN_ALPHA, "alpha",
                 f"must be >= {MIN_ALPHA:g} (smaller can underflow every Dirichlet draw)")
        _require(self.sparsify_site in ("uploaded_delta", "local_gradient"),
                 "sparsify_site", "must be 'uploaded_delta' or 'local_gradient'")
        _require(self.rounds >= 1, "rounds", "must be >= 1")
        _require(self.rounds <= MAX_ROUND, "rounds",
                 f"must be <= {MAX_ROUND} (the FSU1 round is a u32)")
        _require(self.local_epochs >= 1, "local_epochs", "must be >= 1")
        _require(math.isfinite(self.learning_rate), "learning_rate", "must be finite")
        _require(self.learning_rate > 0, "learning_rate", "must be > 0")
        _require(self.batch_size >= 1, "batch_size", "must be >= 1")
        _require(0.0 < self.participation <= 1.0, "participation", "must be in (0, 1]")
        _require(0.0 < self.test_fraction < 1.0, "test_fraction", "must be in (0, 1)")
        params = param_count(self.model_spec)
        _require(params <= MAX_INDEX + 1, "model.hidden",
                 f"gives {params} params, more than {MAX_INDEX + 1} "
                 f"(the FSU1 index is a u32)")
        if isinstance(self.dataset, SyntheticDataConfig):
            self.check_split([self.dataset.per_class] * self.dataset.classes)

    @property
    def model_spec(self) -> ModelSpec:
        """The run's model: the dataset's input width, the hidden widths and
        the dataset's class count, initialized from the run's seed."""
        data = self.dataset
        return ModelSpec((data.input_dim, *self.model.hidden, data.classes),
                         self.model.activation, self.seed)

    def check_split(self, class_sizes) -> None:
        """The rules on the sizes of a dataset's nonempty classes that only the
        config can fix: the stratified split leaves a test row, and a
        training row for every client. A synthetic dataset's sizes are known
        here; a CSV dataset is checked once loaded."""
        _require(max(class_sizes) >= 2, "dataset",
                 "every class has a single row, which stays in train, so no "
                 "test_fraction leaves a test row")
        test_rows = sum(class_test_count(n, self.test_fraction) for n in class_sizes)
        _require(test_rows >= 1, "test_fraction",
                 f"must be large enough to leave a test row, but "
                 f"{self.test_fraction!r} of every class rounds to none")
        train_rows = sum(class_sizes) - test_rows
        _require(train_rows >= self.clients, "clients",
                 f"must be <= {train_rows}, the training rows the split leaves")


def class_test_count(class_size: int, test_fraction: float) -> int:
    """Test rows of one class of class_size >= 1 rows in the stratified
    split: round(test_fraction * class_size), at most class_size - 1 so the
    class stays in train."""
    return min(math.floor(test_fraction * class_size + 0.5), class_size - 1)


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


def _typed(value, types, path: str):
    _require(_is(value, types), path, f"must be {_TYPE_NAMES[types][0]}")
    return float(value) if types is float else value


def _typed_list(values, types, path: str) -> list:
    _require(isinstance(values, list) and all(_is(v, types) for v in values),
             path, f"must be a list of {_TYPE_NAMES[types][1]}")
    return [float(v) for v in values] if types is float else values


# JSON type of each scalar field annotation the config types use
_SCALARS = {"int": int, "float": float, "float | None": float, "str": str, "bool": bool}


def _present_fields(cls, obj: dict, section: str, extra=(), nested=None) -> dict:
    """Type-checked values of the fields of cls whose keys obj has; a
    missing key without a dataclass default is an error. nested[key]
    parses a field that is itself a config type."""
    _check_keys(obj, {f.name for f in fields(cls)} | set(extra), section)
    values = {}
    for f in fields(cls):
        path = f"{section}.{f.name}" if section else f.name
        if f.name not in obj:
            _require(f.default is not MISSING or f.default_factory is not MISSING,
                     path, "is required")
        elif nested and f.name in nested:
            values[f.name] = nested[f.name](obj[f.name])
        elif f.type == "tuple[int, ...]":
            values[f.name] = _typed_list(obj[f.name], int, path)
        else:
            values[f.name] = _typed(obj[f.name], _SCALARS[f.type], path)
    return values


def _build(cls, obj, section: str, extra=()):
    """cls from the keys present in the JSON object obj; its own range
    errors come back as section.field: constraint."""
    _require(isinstance(obj, dict), section, "must be an object")
    values = _present_fields(cls, obj, section, extra)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def _parse_dataset(obj) -> SyntheticDataConfig | CsvDataConfig:
    _require(isinstance(obj, dict), "dataset", "must be an object")
    kind = obj.get("kind", SyntheticDataConfig.kind)
    for cls in (SyntheticDataConfig, CsvDataConfig):
        if kind == cls.kind:
            return _build(cls, obj, "dataset", extra={"kind"})
    raise ConfigError(f"dataset.kind: must be 'synthetic' or 'csv', got {kind!r}")


def parse_config_dict(obj: dict) -> ExperimentConfig:
    _require(isinstance(obj, dict), "config", "must be a JSON object")
    values = _present_fields(ExperimentConfig, obj, "", nested={
        "dataset": _parse_dataset,
        "policy": lambda policy: _build(SparsityPolicy, policy, "policy"),
        "model": lambda model: _build(ModelConfig, model, "model"),
    })
    return ExperimentConfig(**values)


def _read_json(path, what: str):
    """The JSON document in the file at path; `what` names the file
    ("config", "grid", "spec") when it is missing."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    return parse_config_dict(_read_json(path, "config"))


def parse_grid(path) -> list[tuple[float, str, float]]:
    """The distinct (alpha, policy kind, rate) cells of a sweep grid file in
    alpha x policy x rate order, first appearance kept; dense has rate 1.0."""
    obj = _read_json(path, "grid")
    _require(isinstance(obj, dict), "grid", "must be a JSON object")
    _check_keys(obj, {"alpha", "policy", "rate"}, "grid")
    alphas = _typed_list(obj.get("alpha", []), float, "grid.alpha")
    policies = _typed_list(obj.get("policy", ["top_k"]), str, "grid.policy")
    rates = _typed_list(obj.get("rate", []), float, "grid.rate")
    if not alphas or not rates or not policies:
        raise ConfigError("grid: alpha, policy and rate lists must be nonempty")
    for kind in policies:
        _require(kind in POLICY_PARAM, "grid.policy", f"unknown kind {kind!r}")
    return list(dict.fromkeys(
        (alpha, kind, rate if POLICY_PARAM[kind] else 1.0)
        for alpha, kind, rate in itertools.product(alphas, policies, rates)))


def cell_policy(kind: str, rate: float) -> SparsityPolicy:
    """A sweep cell's policy, checked as a config's would be: the grid rate
    is the kind's parameter."""
    param = POLICY_PARAM.get(kind)
    obj = {"kind": kind, param: rate} if param else {"kind": kind}
    return _build(SparsityPolicy, obj, "policy")


def parse_data_spec(path) -> tuple[SyntheticDataConfig, int]:
    """The dataset and seed of a gen-data spec file."""
    obj = _read_json(path, "spec")
    data = _build(SyntheticDataConfig, obj, "spec", extra={"seed"})
    seed = _typed(obj.get("seed", 0), int, "spec.seed")
    _require(seed >= 0, "spec.seed", "must be >= 0")
    return data, seed


def emit_config(cfg: ExperimentConfig) -> dict:
    """Round-trippable plain-dict form: parse_config_dict(emit_config(c)) == c."""
    doc = asdict(cfg)
    doc["dataset"]["kind"] = cfg.dataset.kind
    doc["model"]["hidden"] = list(cfg.model.hidden)
    doc["policy"] = {key: value for key, value in doc["policy"].items()
                     if value is not None}
    return doc
