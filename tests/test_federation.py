"""Federated round mechanics: local training, aggregation, metering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsparse import federation
from fedsparse.config import ExperimentConfig, SyntheticDataConfig, parse_config_dict
from fedsparse.data import Dataset, gen_synthetic
from fedsparse.federation import (ClientState, ClientUpdate, ServerState,
                                  TrainingDiverged, aggregate, client_local_train,
                                  global_loss, run_experiment, run_round)
from fedsparse.model import (ModelSpec, backward, group_losses, init_params, param_count,
                             unpack_params)
from fedsparse.model import loss as model_loss
from fedsparse.partition import Partition, partition_dataset
from fedsparse.sparsify import SparsityPolicy, decode, encode, encoded_size


def make_setup(n=30, input_dim=4, classes=3, seed=0):
    ds = gen_synthetic(classes, n // classes, input_dim, 2.0, rng_seed=seed)
    spec = ModelSpec((input_dim, 6, classes), seed=seed)
    return ds, spec


def single_client(ds):
    part = Partition(0, np.arange(len(ds)))
    return ClientState(0, part)


def cfg_with(policy, site="uploaded_delta", lr=0.05, epochs=1, batch=8, rounds=1,
             participation=1.0, seed=0):
    """A config built directly: the dataset and model fields are unused here."""
    return ExperimentConfig(seed=seed, dataset=SyntheticDataConfig(), policy=policy,
                            rounds=rounds, local_epochs=epochs, learning_rate=lr,
                            batch_size=batch, participation=participation,
                            sparsify_site=site)


@pytest.fixture
def wire(monkeypatch):
    """Every SparseUpdate client_local_train hands to the codec, in call order."""
    sent = []

    def capture(update):
        sent.append(update)
        return encode(update)

    monkeypatch.setattr(federation, "encode", capture)
    return sent


class TestClientLocalTrain:
    def test_single_step_delta_is_minus_lr_grad_exactly(self, wire):
        ds, spec = make_setup(n=6)
        cfg = cfg_with(SparsityPolicy("top_k", rate=1.0), batch=6)
        client = single_client(ds)
        w0 = init_params(spec)
        rng = np.random.default_rng([1, 2, 0, 0])
        update = client_local_train(client, w0, cfg, spec, ds, rng)
        # replay the single batch
        rng2 = np.random.default_rng([1, 2, 0, 0])
        order = rng2.permutation(6)
        g = backward(spec, w0, ds.inputs[order], ds.labels[order])
        expected = -(cfg.learning_rate * g)
        [sent] = wire
        assert np.array_equal(sent.values, expected)
        assert update.sample_count == 6

    def test_zero_lr_uploads_zero_delta(self, wire):
        ds, spec = make_setup()
        policy = SparsityPolicy("top_k", rate=0.2)
        cfg = cfg_with(policy, lr=0.0, epochs=2)
        update = client_local_train(single_client(ds), init_params(spec), cfg, spec,
                                    ds, np.random.default_rng(0))
        [sent] = wire
        assert np.all(sent.values == 0.0)
        m = max(1, math.ceil(0.2 * init_params(spec).shape[0] - 1e-9))
        assert update.uplink_bytes == encoded_size(m)

    def test_local_gradient_trace_matches_reference(self):
        """Step-by-step reimplementation: sparsify, scatter, subtract."""
        ds, spec = make_setup(n=24, seed=3)
        cfg = cfg_with(SparsityPolicy("top_k", rate=0.2), site="local_gradient",
                       epochs=2, batch=8, lr=0.05)
        client = single_client(ds)
        w0 = init_params(spec)
        update = client_local_train(client, w0, cfg, spec, ds,
                                    np.random.default_rng(42), round_index=0)

        w = w0.copy()
        rng = np.random.default_rng(42)
        d = w.shape[0]
        m = max(1, math.ceil(0.2 * d - 1e-9))
        for _ in range(2):
            order = rng.permutation(24)
            for start in range(0, 24, 8):
                batch = order[start:start + 8]
                g = backward(spec, w, ds.inputs[batch], ds.labels[batch])
                keep = np.sort(np.argsort(-np.abs(g), kind="stable")[:m])
                dense = np.zeros(d)
                dense[keep] = g[keep]
                w = w - cfg.learning_rate * dense
        assert np.array_equal(update.indices, np.arange(d))
        assert np.array_equal(update.values, w)
        assert update.uplink_bytes == encoded_size(d)

    @pytest.mark.parametrize("policy", [
        SparsityPolicy("top_k", rate=0.2), SparsityPolicy("threshold", tau=1e-3),
        SparsityPolicy("random", rate=0.3), SparsityPolicy("dense"),
    ], ids=lambda p: p.kind)
    def test_wire_update_matches_the_upload(self, wire, policy):
        """The wire carries the delta at the uploaded indices: decoded, it is
        the uploaded parameters minus the broadcast ones, up to float32
        round-off."""
        ds, spec = make_setup(n=24, seed=4)
        cfg = cfg_with(policy, epochs=2)
        w0 = init_params(spec)
        update = client_local_train(single_client(ds), w0, cfg, spec, ds,
                                    np.random.default_rng(7), round_index=4)
        [sent] = wire
        assert update.indices.size > 0
        assert np.array_equal(sent.indices, update.indices)
        assert (sent.client_id, sent.round) == (update.client_id, 4)
        assert update.uplink_bytes == len(encode(sent))
        np.testing.assert_allclose(decode(encode(sent)).values,
                                   update.values - w0[update.indices],
                                   rtol=2 ** -23, atol=0)

    def test_divergence_guard_names_client_and_batch(self):
        ds, spec = make_setup()
        cfg = cfg_with(SparsityPolicy("dense"), lr=1e150, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match=r"client 0.*batch"):
                client_local_train(single_client(ds), init_params(spec), cfg, spec,
                                   ds, np.random.default_rng(0))

    def test_empty_partition_rejected(self):
        ds, spec = make_setup()
        client = ClientState(0, Partition(0, np.empty(0, dtype=np.int64)))
        cfg = cfg_with(SparsityPolicy("dense"))
        with pytest.raises(ValueError, match="empty partition"):
            client_local_train(client, init_params(spec), cfg, spec, ds,
                               np.random.default_rng(0))


def params_update(client_id, count, params, indices=None):
    """An upload of `params`, at `indices` (default: every coordinate)."""
    values = np.asarray(params, dtype=np.float64)
    indices = np.arange(values.shape[0]) if indices is None else np.asarray(indices)
    return ClientUpdate(client_id, count, indices, values, encoded_size(len(indices)))


class TestAggregate:
    def test_equal_counts_unweighted_mean(self):
        prev = np.zeros(2)
        out = aggregate([params_update(0, 10, [1.0, 3.0]),
                         params_update(1, 10, [3.0, 5.0])], prev)
        assert np.array_equal(out, [2.0, 4.0])

    def test_single_client_bitwise(self):
        prev = np.array([0.25, -0.5])
        target = np.array([0.1, 0.7])
        out = aggregate([params_update(0, 5, target)], prev)
        assert np.array_equal(out, target)

    def test_values_written_over_prev(self):
        prev = np.array([1.0, 2.0, 3.0, 4.0])
        out = aggregate([params_update(0, 1, [0.5, -0.25], indices=[0, 2]),
                         params_update(1, 3, [8.0], indices=[3])], prev)
        assert np.array_equal(out, 0.25 * np.array([0.5, 2.0, -0.25, 4.0])
                              + 0.75 * np.array([1.0, 2.0, 3.0, 8.0]))

    def test_weighted_sum_matches_hand_computation(self):
        rng = np.random.default_rng(1)
        prev = rng.standard_normal(6)
        vecs = [rng.standard_normal(6) for _ in range(3)]
        counts = [100, 200, 700]
        out = aggregate([params_update(i, c, v)
                         for i, (c, v) in enumerate(zip(counts, vecs))], prev)
        expected = 0.1 * vecs[0] + 0.2 * vecs[1] + 0.7 * vecs[2]
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        prev = rng.standard_normal(4)
        ups = [params_update(i, c, rng.standard_normal(4))
               for i, c in enumerate([5, 9, 2])]
        a = aggregate(ups, prev)
        b = aggregate(ups[::-1], prev)
        assert np.array_equal(a, b)

    def test_zero_sample_count_rejected(self):
        prev = np.zeros(2)
        with pytest.raises(ValueError, match="sample_count 0"):
            aggregate([params_update(0, 0, [1.0, 2.0])], prev)

    def test_dim_mismatch_rejected(self):
        fits = "client 0 upload does not fit a model of dim 2"
        with pytest.raises(ValueError, match=fits):
            aggregate([params_update(0, 3, [1.0, 2.0, 3.0])], np.zeros(2))
        with pytest.raises(ValueError, match=fits):
            aggregate([params_update(0, 3, np.ones(3))], np.zeros(2))
        with pytest.raises(ValueError, match=fits):
            aggregate([params_update(0, 3, [1.0], indices=[-1])], np.zeros(2))
        with pytest.raises(ValueError, match=fits):
            aggregate([params_update(0, 3, [1.0, 2.0], indices=[0])], np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], np.zeros(2))


def reference_logits(spec, params, inputs):
    """The forward pass as it stood before pooled evaluation: one `@`
    product chain over exactly these rows."""
    a = inputs
    layers = unpack_params(spec, params)
    for i, (w, b) in enumerate(layers):
        a = a @ w + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0) if spec.activation == "relu" else np.tanh(a)
    return a


def reference_mean_loss(logits, labels):
    """Max-subtracted log-sum-exp cross-entropy, summed left to right."""
    m = logits.max(axis=1)
    per_sample = (m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
                  - logits[np.arange(len(labels)), labels])
    total = 0.0
    for v in per_sample.tolist():
        total += v
    return total / len(labels)


def reference_global_loss(spec, params, ds, parts):
    """sum_i (n_i / n) * loss(partition_i), one loss call per partition in order."""
    n = sum(len(p) for p in parts)
    value = 0.0
    for p in parts:
        idx = p.sample_indices
        logits = reference_logits(spec, params, ds.inputs[idx])
        value += (len(p) / n) * reference_mean_loss(logits, ds.labels[idx])
    return value


def consecutive_partitions(sizes, seed):
    """Disjoint partitions of the given sizes over a shuffled index range."""
    order = np.random.default_rng(seed).permutation(sum(sizes))
    bounds = np.cumsum([0, *sizes])
    return [Partition(i, order[lo:hi]) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


class TestGlobalLoss:
    @given(st.sampled_from(["relu", "tanh"]),
           st.lists(st.integers(1, 9), min_size=1, max_size=3),
           st.integers(1, 12), st.integers(2, 5),
           st.lists(st.sampled_from([1, 1, 2, 3, 8, 17]), min_size=1, max_size=8),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_partition_loss(self, activation, hidden, d, c,
                                                 sizes, seed):
        spec = ModelSpec((d, *hidden, c), activation=activation, seed=seed)
        rng = np.random.default_rng(seed)
        params = init_params(spec) + 0.1 * rng.standard_normal(param_count(spec))
        n = sum(sizes)
        ds = Dataset(rng.standard_normal((n, d)), rng.integers(0, c, size=n), c)
        parts = consecutive_partitions(sizes, seed)
        assert global_loss(spec, params, ds, parts) == \
            reference_global_loss(spec, params, ds, parts)

    def test_per_partition_products_matter_at_width_256(self):
        """At input_dim 256 one product over every partition's rows rounds
        differently from one product per partition, and several partitions'
        mean losses change with it; global_loss keeps the per-partition bits."""
        rng = np.random.default_rng(3)
        spec = ModelSpec((256, 256, 10), seed=3)
        params = init_params(spec)
        sizes = [1, 7, 25, 1, 2, 40, 1, 23, 1, 1]
        n = sum(sizes)
        ds = Dataset(rng.standard_normal((n, 256)), rng.integers(0, 10, size=n), 10)
        parts = consecutive_partitions(sizes, 3)
        assert global_loss(spec, params, ds, parts) == \
            reference_global_loss(spec, params, ds, parts)

        idx = np.concatenate([p.sample_indices for p in parts])
        inputs, labels = ds.inputs[idx], ds.labels[idx]
        bounds = np.cumsum([0, *sizes]).tolist()
        groups = list(zip(bounds, bounds[1:]))
        own = [reference_mean_loss(reference_logits(spec, params, inputs[lo:hi]),
                                   labels[lo:hi]) for lo, hi in groups]
        assert group_losses(spec, params, inputs, labels, sizes) == own
        pooled_logits = reference_logits(spec, params, inputs)  # one product chain
        pooled = [reference_mean_loss(pooled_logits[lo:hi], labels[lo:hi])
                  for lo, hi in groups]
        assert pooled != own

    def test_identical_partitions_equal_single_loss(self):
        ds, spec = make_setup(n=30)
        params = init_params(spec)
        full = np.arange(len(ds))
        parts = [Partition(i, full) for i in range(3)]
        got = global_loss(spec, params, ds, parts)
        single = model_loss(spec, params, ds.inputs, ds.labels)
        assert got == pytest.approx(single, rel=1e-12)

    def test_weighted_mean_arithmetic(self):
        ds, spec = make_setup(n=40, seed=5)
        n = len(ds)
        params = init_params(spec)
        parts = [Partition(0, np.arange(10)), Partition(1, np.arange(10, n))]
        l0 = model_loss(spec, params, ds.inputs[:10], ds.labels[:10])
        l1 = model_loss(spec, params, ds.inputs[10:], ds.labels[10:])
        expected = (10 / n) * l0 + ((n - 10) / n) * l1
        assert global_loss(spec, params, ds, parts) == pytest.approx(expected, rel=1e-12)

    def test_equals_pooled_loss(self):
        ds, spec = make_setup(n=48, seed=6)
        params = init_params(spec)
        parts = partition_dataset(ds.labels, 3, 0.5, rng_seed=1)
        pooled = model_loss(spec, params, ds.inputs, ds.labels)
        assert global_loss(spec, params, ds, parts) == pytest.approx(pooled, rel=1e-12)

    def test_empty_partition_rejected(self):
        ds, spec = make_setup()
        parts = [Partition(0, np.empty(0, dtype=np.int64))]
        with pytest.raises(ValueError):
            global_loss(spec, init_params(spec), ds, parts)


def run_setup(policy, site="uploaded_delta", seed=11, n_clients=3, lr=0.05,
              epochs=1, batch=8, spec_sizes=(4, 6, 3), run_seed=0):
    """Data, model and clients seeded by `seed`; the config's own seed,
    which keys client selection and training, is `run_seed`."""
    ds = gen_synthetic(3, 20, spec_sizes[0], 2.0, rng_seed=seed)
    test = gen_synthetic(3, 5, spec_sizes[0], 2.0, rng_seed=seed + 1)
    spec = ModelSpec(spec_sizes, seed=seed)
    parts = partition_dataset(ds.labels, n_clients, 0.5, rng_seed=seed)
    clients = [ClientState(p.client_id, p) for p in parts]
    server = ServerState(global_params=init_params(spec))
    cfg = cfg_with(policy, site=site, lr=lr, epochs=epochs, batch=batch, seed=run_seed)
    return ds, test, spec, clients, server, cfg


class TestRunRound:
    def test_full_participation_aggregates_all_clients(self):
        ds, test, spec, clients, server, cfg = run_setup(SparsityPolicy("top_k", rate=0.5),
                                                         run_seed=1)
        metrics = run_round(server, clients, cfg, spec, ds, test)
        d = server.global_params.shape[0]
        m = max(1, math.ceil(0.5 * d - 1e-9))
        assert metrics.uplink_bytes == 3 * encoded_size(m)
        assert metrics.downlink_bytes == 3 * encoded_size(d)
        assert server.round == 1
        assert len(server.history) == 1

    def test_fractional_participation_count(self):
        ds, test, spec, clients, server, cfg = run_setup(SparsityPolicy("dense"))
        cfg = cfg_with(SparsityPolicy("dense"), participation=0.34, seed=1)
        metrics = run_round(server, clients, cfg, spec, ds, test)
        d = server.global_params.shape[0]
        assert metrics.downlink_bytes == 2 * encoded_size(d)  # ceil(0.34 * 3)

    def test_dense_round_matches_fedavg_reference(self):
        """Textbook FedAvg (local SGD then data-weighted model average)
        reimplemented inline must agree bit for bit at rate 1.0."""
        policy = SparsityPolicy("top_k", rate=1.0)
        ds, test, spec, clients, server, cfg = run_setup(policy, epochs=2, run_seed=7)
        w0 = server.global_params.copy()
        run_round(server, clients, cfg, spec, ds, test)

        locals_ = []
        counts = []
        for c in clients:
            rng = np.random.default_rng([cfg.seed, 2, c.client_id, 0])
            w = w0.copy()
            idx = c.partition.sample_indices
            for _ in range(2):
                order = rng.permutation(idx.shape[0])
                for start in range(0, idx.shape[0], 8):
                    b = idx[order[start:start + 8]]
                    w = w - cfg.learning_rate * backward(spec, w, ds.inputs[b],
                                                         ds.labels[b])
            locals_.append(w)
            counts.append(idx.shape[0])
        total = sum(counts)
        expected = np.zeros_like(w0)
        for w, n in zip(locals_, counts):
            expected += (n / total) * w
        assert np.array_equal(server.global_params, expected)

    @pytest.mark.parametrize("site", ["uploaded_delta", "local_gradient"])
    @pytest.mark.parametrize("kind,param", [("top_k", 0.3), ("threshold", 0.1),
                                            ("random", 0.3), ("dense", None)])
    def test_zero_lr_conserves_parameters(self, site, kind, param):
        if kind == "top_k" or kind == "random":
            policy = SparsityPolicy(kind, rate=param)
        elif kind == "threshold":
            policy = SparsityPolicy(kind, tau=param)
        else:
            policy = SparsityPolicy("dense")
        ds, test, spec, clients, server, cfg = run_setup(policy, site=site, lr=0.0)
        cfg = cfg_with(policy, site=site, lr=0.0, epochs=2, seed=3)
        w0 = server.global_params.copy()
        run_round(server, clients, cfg, spec, ds, test)
        assert np.array_equal(server.global_params, w0)

    def test_uplink_monotone_in_rate(self):
        previous = -1
        for rate in (0.1, 0.2, 0.5, 0.8, 1.0):
            ds, test, spec, clients, server, cfg = run_setup(
                SparsityPolicy("top_k", rate=rate), run_seed=5)
            metrics = run_round(server, clients, cfg, spec, ds, test)
            assert metrics.uplink_bytes >= previous
            previous = metrics.uplink_bytes

    def test_uplink_ratio_tracks_rate_on_large_model(self):
        results = {}
        for rate in (0.1, 1.0):
            ds, test, spec, clients, server, cfg = run_setup(
                SparsityPolicy("top_k", rate=rate), spec_sizes=(4, 512, 96, 3), run_seed=9)
            metrics = run_round(server, clients, cfg, spec, ds, test)
            results[rate] = metrics.uplink_bytes
        ratio = results[0.1] / results[1.0]
        assert 0.09 < ratio < 0.11


class TestRunExperiment:
    def base_config(self, **overrides):
        doc = {
            "seed": 5,
            "dataset": {"kind": "synthetic", "classes": 3, "per_class": 30,
                        "input_dim": 4, "separation": 2.0},
            "policy": {"kind": "top_k", "rate": 0.3},
            "rounds": 3, "local_epochs": 1, "batch_size": 8,
            "learning_rate": 0.05, "alpha": 0.5,
        }
        doc.update(overrides)
        return parse_config_dict(doc)

    def test_smoke_single_round(self):
        result = run_experiment(self.base_config(rounds=1))
        assert len(result.history) == 1
        m = result.history[0]
        assert m.round == 0
        assert 0.0 <= m.top1_accuracy <= 1.0
        assert m.global_loss >= 0.0
        assert m.uplink_bytes > 0 and m.downlink_bytes > 0
        assert np.isfinite(result.final_params).all()

    def test_deterministic_history(self):
        a = run_experiment(self.base_config())
        b = run_experiment(self.base_config())
        for ma, mb in zip(a.history, b.history):
            assert ma.global_loss == mb.global_loss
            assert ma.top1_accuracy == mb.top1_accuracy
            assert ma.uplink_bytes == mb.uplink_bytes
            assert ma.downlink_bytes == mb.downlink_bytes
        assert np.array_equal(a.final_params, b.final_params)

    def test_totals_match_history(self):
        result = run_experiment(self.base_config())
        assert result.total_uplink_bytes == sum(m.uplink_bytes for m in result.history)
        assert result.total_downlink_bytes == sum(m.downlink_bytes
                                                  for m in result.history)

    def test_single_client_dense_is_centralized_sgd(self):
        """N=1, rate 1.0, uploaded_delta: the server trajectory equals a
        plain SGD loop (same per-round batch schedule) bit for bit."""
        config = self.base_config(clients=1, rounds=3,
                                  policy={"kind": "top_k", "rate": 1.0})
        result = run_experiment(config)

        from fedsparse.federation import build_dataset
        train, _ = build_dataset(config)
        spec = result.model_spec
        w = init_params(spec)
        for t in range(3):
            rng = np.random.default_rng([config.seed, 2, 0, t])
            order = rng.permutation(len(train))
            for start in range(0, len(train), config.batch_size):
                b = order[start:start + config.batch_size]
                w = w - config.learning_rate * backward(spec, w, train.inputs[b],
                                                        train.labels[b])
        assert np.array_equal(result.final_params, w)

    @pytest.mark.parametrize("site,policy", [
        ("local_gradient", {"kind": "dense"}),
        ("uploaded_delta", {"kind": "top_k", "rate": 1.0}),
        ("local_gradient", {"kind": "top_k", "rate": 1.0}),
        ("uploaded_delta", {"kind": "threshold", "tau": 0.0}),
        ("local_gradient", {"kind": "threshold", "tau": 0.0}),
    ])
    def test_lossless_policies_equal_dense_uploaded_delta(self, site, policy):
        """Every policy that keeps all coordinates, at either site, trains
        the same model bit for bit as dense uploaded_delta."""
        common = {"seed": 3, "rounds": 5, "local_epochs": 5}
        dense = run_experiment(self.base_config(policy={"kind": "dense"}, **common))
        other = run_experiment(self.base_config(sparsify_site=site, policy=policy,
                                                **common))
        assert np.array_equal(other.final_params, dense.final_params)
        assert ([m.csv_row() for m in other.history]
                == [m.csv_row() for m in dense.history])
