"""Synchronous federated training rounds with sparsified uploads.

One round: the server broadcasts the global parameters to the selected
clients, each client runs local SGD on its partition, uploads a
(possibly sparsified) update, and the server forms the data-weighted
average of the client models, each the broadcast model with the
uploaded values written over it. Communication is metered through the
wire codec: downlink as one dense encoding per selected client, uplink
as the actual encoded size of each upload.

Two sparsification sites are supported:

* "uploaded_delta" (default): clients run plain dense SGD locally and
  sparsify the total round delta (w_local - w_global) for upload. This
  is the site that actually saves uplink bytes.
* "local_gradient": every batch gradient is sparsified and the
  sparsified gradient is applied locally; the full local model is
  uploaded (dense cost).

Determinism: every stochastic choice draws from a generator seeded by
(config seed, stream tag, ...) so results do not depend on client
scheduling; aggregation always combines updates in ascending client_id
order. RNG stream tags: 1 client selection, 2 client batch order, 3
sparsify policy (plus epoch and batch on local_gradient), 10 data
generation, 11 train/test split, 12 partitioning. A policy never moves
a batch, so every policy trains on the same batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import model as model_ops
from .config import CsvDataConfig, ExperimentConfig, SyntheticDataConfig
from .data import Dataset, gen_synthetic, load_csv, normalize, train_test_split
from .model import ModelSpec
from .partition import Partition, partition_dataset
# densify is unused here; perfbench/run.py TRACED looks it up on this module
from .sparsify import SparseUpdate, densify, encode, encoded_size, retained_count, sparsify

_SELECT_TAG = 1
_CLIENT_TAG = 2
_POLICY_TAG = 3
_DATA_TAG = 10
_SPLIT_TAG = 11
_PARTITION_TAG = 12


class TrainingDiverged(RuntimeError):
    """A client produced non-finite parameters during local training."""


@dataclass
class ClientState:
    """A client of the run: the partition it trains on, which carries its id."""

    partition: Partition


@dataclass
class ClientUpdate:
    """One client's upload: the server's copy of the client model is the
    broadcast model with `values` written at `indices`.

    uploaded_delta: `indices` is the set the policy keeps of the round
    delta and `values` the client's exact parameters there. The wire
    carries the delta at those indices; writing the exact parameters
    instead of adding the delta keeps the dense-policy case bit-identical
    to uncompressed training.

    local_gradient: `indices` is every coordinate and `values` the whole
    local model (dense uplink cost).
    """

    client_id: int
    sample_count: int
    indices: np.ndarray
    values: np.ndarray
    uplink_bytes: int


@dataclass
class RoundMetrics:
    round: int
    global_loss: float
    top1_accuracy: float
    uplink_bytes: int
    downlink_bytes: int
    elapsed_s: float

    CSV_FIELDS = ("round", "global_loss", "top1_accuracy",
                  "uplink_bytes", "downlink_bytes")

    def csv_row(self) -> str:
        """Deterministic row for metrics.csv (wall time deliberately excluded)."""
        return ",".join(repr(getattr(self, name)) for name in self.CSV_FIELDS)


@dataclass
class ServerState:
    """The global model and its round history; run_experiment sets the rest."""

    global_params: np.ndarray
    history: list[RoundMetrics] = field(default_factory=list)
    partitions: list[Partition] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def final_accuracy(self) -> float:
        return self.history[-1].top1_accuracy

    @property
    def final_global_loss(self) -> float:
        return self.history[-1].global_loss

    @property
    def total_uplink_bytes(self) -> int:
        return sum(m.uplink_bytes for m in self.history)

    @property
    def total_downlink_bytes(self) -> int:
        return sum(m.downlink_bytes for m in self.history)


def client_local_train(client: ClientState, global_params: np.ndarray,
                       cfg: ExperimentConfig, model_spec: ModelSpec,
                       dataset: Dataset, round_index: int = 0) -> ClientUpdate:
    """Run local SGD from the broadcast parameters and build the upload.

    uploaded_delta: plain SGD on the local copy; alongside it the round
    delta is accumulated directly from the applied steps, so a single
    step's delta is exactly -lr * gradient. The delta is sparsified with
    cfg.policy at the end.

    local_gradient: each batch gradient is sparsified first and only the
    retained coordinates are stepped; the dense local model is uploaded.

    model.check_fit runs once per call (a Dataset's labels already lie in
    range); each batch then runs the unchecked model.backward kernel into
    the layer views of one gradient buffer, which no upload shares.

    Divergence has one exit at both sites: a non-finite gradient (checked
    before sparsify on local_gradient) or non-finite parameters after a
    step raise TrainingDiverged naming client, round, epoch and batch.
    The parameters are checked once, after the last step: a non-finite
    value stays non-finite under a subtracted step. A failing call is
    replayed from global_params on the same generators, checking after
    every step, to name the first failing batch. The steps run with
    numpy's overflow and invalid-value warnings off, so no warning filter
    turns a diverging step into another error first.
    """
    client_id = client.partition.client_id
    idx = client.partition.sample_indices
    n = idx.shape[0]
    if n == 0:
        raise ValueError(f"client {client_id} has an empty partition")
    model_ops.check_fit(model_spec, dataset)
    labels = dataset.labels[idx]
    one_hot = np.eye(model_spec.class_count)
    policy_key = [cfg.seed, _POLICY_TAG, client_id, round_index]
    local_gradient = cfg.sparsify_site == "local_gradient"
    policy, lr, batch_size = cfg.policy, cfg.learning_rate, cfg.batch_size
    # read per call, not at import: the benchmark's tracer rebinds it
    backward = model_ops.backward

    def diverged(what, epoch, batch_no):
        return TrainingDiverged(f"client {client_id}: non-finite {what} in round "
                                f"{round_index}, epoch {epoch}, batch {batch_no}")

    def train(checked):
        """Local SGD from global_params: the local model and the round
        delta (None on local_gradient). Unchecked, a non-finite gradient
        returns None; checked, the first failing step raises."""
        rng = np.random.default_rng([cfg.seed, _CLIENT_TAG, client_id, round_index])
        w = np.array(global_params, dtype=np.float64, copy=True)
        # Every step updates w in place, so these views stay current; backward
        # overwrites grad whole on every batch.
        layers = model_ops.unpack_params(model_spec, w)
        grad = np.empty_like(w)
        grads = model_ops.unpack_params(model_spec, grad)
        delta = None if local_gradient else np.zeros_like(w)
        for epoch in range(cfg.local_epochs):
            perm = rng.permutation(n)
            inputs = dataset.inputs[idx[perm]]
            targets = one_hot[labels[perm]]
            for batch_no, start in enumerate(range(0, n, batch_size)):
                stop = start + batch_size
                backward(model_spec, layers, inputs[start:stop], targets[start:stop], grads)
                if local_gradient:
                    if not np.isfinite(grad).all():
                        if checked:
                            raise diverged("gradient", epoch, batch_no)
                        return None
                    keep = sparsify(grad, policy, [*policy_key, epoch, batch_no])
                    # unretained coordinates would get w - 0.0, the same bits as w
                    w[keep] -= lr * grad[keep]
                else:
                    grad *= lr
                    w -= grad
                    delta -= grad
                if checked and not np.isfinite(w).all():
                    raise diverged("parameters", epoch, batch_no)
        return w, delta

    with np.errstate(over="ignore", invalid="ignore"):
        trained = train(checked=False)
        if trained is None or not np.isfinite(trained[0]).all():
            trained = train(checked=True)
    w, delta = trained

    if local_gradient:
        keep, values = np.arange(w.shape[0]), w
        uplink_bytes = encoded_size(w.shape[0])
    else:
        keep = sparsify(delta, policy, policy_key)
        values = w[keep]
        uplink_bytes = len(encode(SparseUpdate(w.shape[0], keep, delta[keep],
                                               round=round_index,
                                               client_id=client_id)))
    return ClientUpdate(
        client_id=client_id,
        sample_count=n,
        indices=keep,
        values=values,
        uplink_bytes=uplink_bytes,
    )


def aggregate(updates: list[ClientUpdate], prev: np.ndarray) -> np.ndarray:
    """Data-weighted model average sum_i (n_i / n) * w_i, summed in ascending
    client_id order regardless of the list order: the sum starts from the
    first client's term and adds each later term to it. Each client model
    w_i is `prev` with the upload's values written at its indices. A zero
    sample count is rejected rather than ignored.
    """
    if not updates:
        raise ValueError("aggregate needs at least one update")
    for u in updates:
        if u.sample_count <= 0:
            raise ValueError(f"client {u.client_id} has sample_count {u.sample_count}")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.sample_count for u in ordered)
    acc = None
    for u in ordered:
        k = u.indices
        if len(k) != len(u.values) or (len(k) and (k.min() < 0 or k.max() >= len(prev))):
            raise ValueError(f"client {u.client_id} upload does not fit a model of "
                             f"dim {len(prev)}")
        # one client model alive at a time, not one per client
        m = prev.copy()
        m[k] = u.values
        m *= u.sample_count / total
        if acc is None:
            acc = m
        else:
            acc += m
    return acc


def global_loss(model_spec: ModelSpec, params: np.ndarray, dataset: Dataset,
                partitions: list[Partition]) -> float:
    """Weighted sum of per-client mean cross-entropy, weights |D_i| / |D|.

    Each partition's indices name its rows, so the dataset is read in place;
    each client's mean loss has the bits of a loss call on its rows alone.
    """
    if not partitions:
        raise ValueError("global_loss needs at least one partition")
    sizes = [len(p) for p in partitions]
    total = sum(sizes)
    means = model_ops.group_losses(model_spec, params, dataset,
                                   [p.sample_indices for p in partitions])
    value = 0.0
    for size, mean in zip(sizes, means):
        value += (size / total) * mean
    return value


def run_round(server: ServerState, clients: list[ClientState], cfg: ExperimentConfig,
              model_spec: ModelSpec, train_ds: Dataset, test_ds: Dataset) -> RoundMetrics:
    """Execute one communication round and append its metrics.

    Selects ceil(participation * N) clients uniformly (seeded by round),
    meters the dense broadcast per selected client as downlink, trains
    each selected client serially, aggregates, then evaluates: loss over
    the client training partitions, top-1 accuracy on the test set.
    """
    t0 = time.perf_counter()
    t = len(server.history)
    n = len(clients)
    k = retained_count(cfg.participation, n)
    select_rng = np.random.default_rng([cfg.seed, _SELECT_TAG, t])
    selected = sorted(int(i) for i in select_rng.choice(n, size=k, replace=False))

    dim = server.global_params.shape[0]
    downlink = k * encoded_size(dim)
    updates = [client_local_train(clients[cid], server.global_params, cfg, model_spec,
                                  train_ds, round_index=t)
               for cid in selected]
    uplink = sum(u.uplink_bytes for u in updates)

    partitions = [c.partition for c in clients]
    # A finite model near the float64 limit can overflow here; that reads as
    # a non-finite loss, and the next round's per-step check stops the run.
    with np.errstate(over="ignore", invalid="ignore"):
        aggregated = aggregate(updates, server.global_params)
        if not np.isfinite(aggregated).all():
            raise TrainingDiverged(f"aggregated parameters non-finite in round {t}")
        loss_value = global_loss(model_spec, aggregated, train_ds, partitions)
        accuracy = model_ops.evaluate(model_spec, aggregated, test_ds)

    metrics = RoundMetrics(
        round=t,
        global_loss=loss_value,
        top1_accuracy=accuracy,
        uplink_bytes=uplink,
        downlink_bytes=downlink,
        elapsed_s=time.perf_counter() - t0,
    )
    server.global_params = aggregated
    server.history.append(metrics)
    return metrics


def build_dataset(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize the configured dataset and its train/test split; a CSV
    dataset with `normalize` set is scaled by the train statistics. A CSV
    dataset's class sizes meet ExperimentConfig.check_split, which raises
    ConfigError, before it is split."""
    data = config.dataset
    if isinstance(data, SyntheticDataConfig):
        ds = gen_synthetic(data.classes, data.per_class, data.input_dim,
                           data.separation, [config.seed, _DATA_TAG])
    else:
        ds = load_csv(data.path, data.input_dim, data.classes,
                      skip_header=data.skip_header)
        config.check_split([n for n in np.bincount(ds.labels).tolist() if n])
    train, test = train_test_split(ds, config.test_fraction, [config.seed, _SPLIT_TAG])
    if isinstance(data, CsvDataConfig) and data.normalize:
        train, test = normalize(train, test)
    return train, test


def run_experiment(config: ExperimentConfig, train_ds: Dataset, test_ds: Dataset,
                   on_round=None) -> ServerState:
    """Partition and T rounds on build_dataset(config)'s split; wall_time_s
    times this call. Deterministic given config.seed (serial clients)."""
    start = time.perf_counter()
    partitions = partition_dataset(train_ds.labels, config.clients, config.alpha,
                                   [config.seed, _PARTITION_TAG])
    spec = config.model_spec
    server = ServerState(global_params=model_ops.init_params(spec), partitions=partitions)
    clients = [ClientState(p) for p in partitions]
    for _ in range(config.rounds):
        metrics = run_round(server, clients, config, spec, train_ds, test_ds)
        if on_round is not None:
            on_round(metrics)
    server.wall_time_s = time.perf_counter() - start
    return server
