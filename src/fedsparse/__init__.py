"""Deterministic federated-learning simulator with sparsified client
updates, label-skew Dirichlet partitioning, and byte-accurate
communication accounting."""

__version__ = "0.1.0"

from .config import (ConfigError, CsvDataConfig, ExperimentConfig, ModelConfig,
                     SyntheticDataConfig, emit_config, parse_config,
                     parse_config_dict)
from .data import Dataset, NormStats, csv_text, gen_synthetic, load_csv, normalize, \
    train_test_split
from .federation import (ClientState, ClientUpdate, ExperimentResult, RoundMetrics,
                         ServerState, TrainingDiverged, aggregate, client_local_train,
                         global_loss, run_experiment, run_round)
from .model import ModelSpec, backward, evaluate, forward, init_params, param_count
from .partition import Partition, partition_dataset
# The `sparsify` function is not re-exported: it would hide the submodule
# of the same name (`from fedsparse import sparsify` is the module).
from .sparsify import (DecodeError, SparseUpdate, SparsityPolicy, decode, densify,
                       encode, encoded_size, retained_count)
