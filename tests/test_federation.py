"""Federated round mechanics: local training, aggregation, metering."""

import math
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsparse import federation
from fedsparse.cli import _metrics_csv
from fedsparse.config import ExperimentConfig, SyntheticDataConfig, parse_config_dict
from fedsparse.data import Dataset, csv_text, gen_synthetic
from fedsparse.federation import (ClientState, ClientUpdate, ServerState,
                                  TrainingDiverged, aggregate, client_local_train,
                                  build_dataset, global_loss, run_experiment, run_round)
from fedsparse.model import (ModelSpec, backward, evaluate, group_losses, init_params,
                             param_count, unpack_params)
from fedsparse.model import loss as model_loss
from fedsparse.partition import MIN_ALPHA, Partition, partition_dataset
from fedsparse.sparsify import SparsityPolicy, encode, encoded_size, retained_count
from oracles import decode, gradient, oracle_run
from test_bench_surface import load_harness


def make_setup(n=30, input_dim=4, classes=3, seed=0):
    ds = gen_synthetic(classes, n // classes, input_dim, 2.0, rng_seed=seed)
    spec = ModelSpec((input_dim, 6, classes), seed=seed)
    return ds, spec


def single_client(ds):
    return ClientState(Partition(0, np.arange(len(ds))))


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
        update = client_local_train(client, w0, cfg, spec, ds)
        # replay the single batch from the training stream (seed, 2, client, round)
        order = np.random.default_rng([cfg.seed, 2, 0, 0]).permutation(6)
        g = gradient(spec, w0, ds.inputs[order], ds.labels[order])
        expected = -(cfg.learning_rate * g)
        [sent] = wire
        assert np.array_equal(sent.values, expected)
        assert update.sample_count == 6

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
        update = client_local_train(single_client(ds), w0, cfg, spec, ds, round_index=4)
        [sent] = wire
        assert update.indices.size > 0
        assert np.array_equal(sent.indices, update.indices)
        assert (sent.client_id, sent.round) == (update.client_id, 4)
        assert update.uplink_bytes == len(encode(sent))
        np.testing.assert_allclose(decode(encode(sent)).values,
                                   update.values - w0[update.indices],
                                   rtol=2 ** -23, atol=0)

    @pytest.mark.parametrize("site", ["uploaded_delta", "local_gradient"])
    def test_random_policy_is_keyed_by_seed_client_and_round(self, site):
        """A random policy draws from its own stream (seed, 3, client, round),
        plus (epoch, batch) per local_gradient step: a rerun gives the same
        upload, another round another one."""
        ds, spec = make_setup(n=24, seed=4)
        cfg = cfg_with(SparsityPolicy("random", rate=0.3), site=site, epochs=2, seed=6)
        client = ClientState(Partition(2, np.arange(len(ds))))
        w0 = init_params(spec)
        first, again, later = (client_local_train(client, w0, cfg, spec, ds, round_index=r)
                               for r in (5, 5, 6))
        assert np.array_equal(first.indices, again.indices)
        assert np.array_equal(first.values, again.values)
        assert not np.array_equal(first.values, later.values)
        if site == "uploaded_delta":
            d = w0.shape[0]
            expected = np.random.default_rng([6, 3, 2, 5]).choice(
                d, size=retained_count(0.3, d), replace=False)
            assert np.array_equal(first.indices, np.sort(expected))

    @pytest.mark.parametrize("site", ["uploaded_delta", "local_gradient"])
    def test_divergence_guard_names_client_and_batch(self, site):
        """Both sites stop with the same error, under pytest's warnings-as-errors
        rule: no numpy warning and no NaN check in sparsify comes first."""
        ds, spec = make_setup()
        cfg = cfg_with(SparsityPolicy("top_k", rate=0.5), site=site, lr=1e150, epochs=3)
        with pytest.raises(TrainingDiverged,
                           match=r"^client 0: non-finite \w+ in round 0, epoch 0, batch \d+$"):
            client_local_train(single_client(ds), init_params(spec), cfg, spec, ds)

    def test_client_id_comes_from_the_partition(self, wire):
        ds, spec = make_setup()
        client = ClientState(Partition(5, np.arange(len(ds))))
        update = client_local_train(client, init_params(spec),
                                    cfg_with(SparsityPolicy("top_k", rate=0.5)), spec, ds)
        [sent] = wire
        assert update.client_id == sent.client_id == decode(encode(sent)).client_id == 5

    def test_empty_partition_rejected(self):
        ds, spec = make_setup()
        client = ClientState(Partition(0, np.empty(0, dtype=np.int64)))
        cfg = cfg_with(SparsityPolicy("dense"))
        with pytest.raises(ValueError, match="empty partition"):
            client_local_train(client, init_params(spec), cfg, spec, ds)

    @pytest.mark.parametrize("call", [
        lambda spec, w, ds: client_local_train(single_client(ds), w,
                                               cfg_with(SparsityPolicy("dense")), spec, ds),
        lambda spec, w, ds: group_losses(spec, w, ds, [np.arange(len(ds))]),
        model_loss,
        evaluate,
    ], ids=["client_local_train", "group_losses", "loss", "evaluate"])
    @pytest.mark.parametrize("sizes,message", [
        ((5, 6, 3), "dataset has input_dim 4 and 3 classes, model expects "
                    "input_dim 5 and 3 classes"),
        ((4, 6, 2), "dataset has input_dim 4 and 3 classes, model expects "
                    "input_dim 4 and 2 classes"),
    ], ids=["input_dim", "class_count"])
    def test_dataset_that_does_not_fit_the_model_rejected(self, sizes, message, call):
        """model.check_fit is the one owner of the fit rule: the client loop
        checks it once per call, before any batch, and the loss and accuracy
        calls once each. The error names both sides."""
        ds, _ = make_setup()
        spec = ModelSpec(sizes)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(spec, init_params(spec), ds)

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
        """1.0 * m keeps every bit of the written model, -0.0 included."""
        prev = np.array([0.25, 1.5, -0.5])
        target = np.array([-0.0, 0.1, 0.7])
        out = aggregate([params_update(0, 5, target)], prev)
        assert np.array_equal(out.view(np.uint64), target.view(np.uint64))
        out = aggregate([params_update(0, 5, [-0.0, 0.7], indices=[0, 2])], prev)
        written = np.array([-0.0, 1.5, 0.7])
        assert np.array_equal(out.view(np.uint64), written.view(np.uint64))

    def test_identical_uploads_are_summed_not_returned(self):
        """Two equal client models still go through the weighted sum, in
        client order; at these values it differs from the model itself."""
        m = np.array([2.9, 5.7, 0.1])
        out = aggregate([params_update(1, 2, m), params_update(0, 1, m)], np.zeros(3))
        expected = (1 / 3) * m
        expected += (2 / 3) * m
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert not np.array_equal(expected, m)

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


def consecutive_partitions(sizes, seed, rows=None):
    """Disjoint partitions of the given sizes over a shuffled index range of
    `rows` (default: the sizes' sum) rows."""
    order = np.random.default_rng(seed).permutation(sum(sizes) if rows is None else rows)
    bounds = np.cumsum([0, *sizes])
    return [Partition(i, order[lo:hi]) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


class TestGlobalLoss:
    @given(st.sampled_from(["relu", "tanh"]),
           st.lists(st.integers(1, 9), min_size=1, max_size=3),
           st.integers(1, 12), st.integers(2, 5),
           st.lists(st.sampled_from([1, 1, 2, 3, 8, 17]), min_size=1, max_size=8),
           st.integers(0, 6), st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_partition_loss(self, activation, hidden, d, c,
                                                 sizes, unread, overlap, seed):
        """Shuffled, non-contiguous and single-row index groups, which may
        share rows and leave `unread` rows out: each group's mean has the
        bits of a loss call on that group's rows alone."""
        spec = ModelSpec((d, *hidden, c), activation=activation, seed=seed)
        rng = np.random.default_rng(seed)
        params = init_params(spec) + 0.1 * rng.standard_normal(param_count(spec))
        n = sum(sizes) + unread
        ds = Dataset(rng.standard_normal((n, d)), rng.integers(0, c, size=n), c)
        if overlap:
            parts = [Partition(i, rng.choice(n, size=s, replace=False))
                     for i, s in enumerate(sizes)]
        else:
            parts = consecutive_partitions(sizes, seed, rows=n)
        groups = [p.sample_indices for p in parts]
        assert group_losses(spec, params, ds, groups) == \
            [model_loss(spec, params, ds.subset(g)) for g in groups]
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
        assert group_losses(spec, params, ds, [p.sample_indices for p in parts]) == own
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
        single = model_loss(spec, params, ds)
        assert got == pytest.approx(single, rel=1e-12)

    def test_weighted_mean_arithmetic(self):
        ds, spec = make_setup(n=40, seed=5)
        n = len(ds)
        params = init_params(spec)
        parts = [Partition(0, np.arange(10)), Partition(1, np.arange(10, n))]
        l0 = model_loss(spec, params, ds.subset(np.arange(10)))
        l1 = model_loss(spec, params, ds.subset(np.arange(10, n)))
        expected = (10 / n) * l0 + ((n - 10) / n) * l1
        assert global_loss(spec, params, ds, parts) == pytest.approx(expected, rel=1e-12)

    def test_equals_pooled_loss(self):
        ds, spec = make_setup(n=48, seed=6)
        params = init_params(spec)
        parts = partition_dataset(ds.labels, 3, 0.5, rng_seed=1)
        pooled = model_loss(spec, params, ds)
        assert global_loss(spec, params, ds, parts) == pytest.approx(pooled, rel=1e-12)

    def test_reads_the_training_set_in_place(self):
        """Each partition's rows are gathered for its own pass only, so the
        peak allocation stays below one copy of the inputs."""
        rng = np.random.default_rng(8)
        ds = Dataset(rng.standard_normal((2000, 256)), rng.integers(0, 10, size=2000), 10)
        spec = ModelSpec((256, 16, 10), seed=8)
        params = init_params(spec)
        parts = [Partition(i, idx)
                 for i, idx in enumerate(np.array_split(rng.permutation(2000), 10))]
        tracemalloc.start()
        try:
            global_loss(spec, params, ds, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.inputs.nbytes

    def test_empty_partition_rejected(self):
        """group_losses owns the one-row-per-group rule."""
        ds, spec = make_setup()
        parts = [Partition(0, np.arange(5)), Partition(1, np.empty(0, dtype=np.int64))]
        with pytest.raises(ValueError, match="one row per group"):
            global_loss(spec, init_params(spec), ds, parts)


def run_setup(policy, site="uploaded_delta", seed=11, n_clients=3, epochs=1,
              batch=8, spec_sizes=(4, 6, 3), run_seed=0):
    """Data, model and clients seeded by `seed`; the config's own seed,
    which keys client selection and training, is `run_seed`."""
    ds = gen_synthetic(3, 20, spec_sizes[0], 2.0, rng_seed=seed)
    test = gen_synthetic(3, 5, spec_sizes[0], 2.0, rng_seed=seed + 1)
    spec = ModelSpec(spec_sizes, seed=seed)
    parts = partition_dataset(ds.labels, n_clients, 0.5, rng_seed=seed)
    clients = [ClientState(p) for p in parts]
    server = ServerState(global_params=init_params(spec))
    cfg = cfg_with(policy, site=site, epochs=epochs, batch=batch, seed=run_seed)
    return ds, test, spec, clients, server, cfg


class TestRunRound:
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


with pytest.MonkeyPatch.context() as patch:
    WORKLOADS = load_harness(patch).WORKLOADS  # the benchmark's configs, seed excluded

# Small runs near the edges of the round loop: 1-5 clients, partial
# participation, batches that leave a short last batch, and learning rates
# up to 1e300 that may diverge in a client step, the average or the loss.
SMALL_RUNS = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "dataset": st.fixed_dictionaries({"kind": st.just("synthetic"),
                                      "classes": st.integers(2, 4),
                                      "per_class": st.integers(4, 12),
                                      "input_dim": st.integers(1, 4)}),
    "model": st.fixed_dictionaries({"hidden": st.lists(st.integers(1, 6), max_size=2),
                                    "activation": st.sampled_from(["relu", "tanh"])}),
    "sparsify_site": st.sampled_from(["uploaded_delta", "local_gradient"]),
    "policy": st.sampled_from([{"kind": "top_k", "rate": 0.2}, {"kind": "random", "rate": 0.3},
                               {"kind": "threshold", "tau": 1e-3}, {"kind": "dense"}]),
    "clients": st.integers(1, 5),
    "alpha": st.sampled_from([0.3, 1.0, 100.0]),
    "participation": st.sampled_from([0.34, 0.5, 1.0]),
    "batch_size": st.integers(1, 19),
    "local_epochs": st.integers(1, 2),
    "rounds": st.just(3),
    "learning_rate": st.one_of(st.floats(0.01, 0.5),
                               st.integers(2, 300).map(lambda e: 10.0 ** e)),
})

DIVERGING = {"seed": 0, "dataset": {"kind": "synthetic", "classes": 3, "per_class": 6,
                                    "input_dim": 3},
             "model": {"hidden": [4]}, "policy": {"kind": "top_k", "rate": 0.2}, "clients": 2,
             "alpha": 1.0, "batch_size": 5, "local_epochs": 2, "rounds": 3}


def package_run(config, train_ds, test_ds):
    server = run_experiment(config, train_ds, test_ds)
    return _metrics_csv(server), server.global_params


def run_outcome(run, config, split):
    """The metrics.csv text and final parameter bits of a run, or the
    message of the TrainingDiverged it raises."""
    try:
        text, params = run(config, *split)
    except TrainingDiverged as err:
        return str(err)
    return text, params.tobytes()


def assert_run_equals_the_oracle(doc):
    """Run doc through run_experiment under the default filter and under
    warnings-as-errors, assert each outcome equals oracle_run's, return it."""
    config = parse_config_dict(doc)
    split = build_dataset(config)
    expected = run_outcome(oracle_run, config, split)
    for action in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert run_outcome(package_run, config, split) == expected, action
    return expected


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

    def run(self, **overrides):
        config = self.base_config(**overrides)
        return run_experiment(config, *build_dataset(config))

    def test_smoke_single_round(self):
        result = self.run(rounds=1)
        assert len(result.history) == 1
        m = result.history[0]
        assert m.round == 0
        assert 0.0 <= m.top1_accuracy <= 1.0
        assert m.global_loss >= 0.0
        assert m.uplink_bytes > 0 and m.downlink_bytes > 0
        assert np.isfinite(result.global_params).all()

    def test_totals_match_history(self):
        result = self.run()
        assert result.total_uplink_bytes == sum(m.uplink_bytes for m in result.history)
        assert result.total_downlink_bytes == sum(m.downlink_bytes
                                                  for m in result.history)

    @given(doc=SMALL_RUNS)
    @settings(max_examples=50, deadline=None)
    def test_run_equals_the_serial_oracle(self, doc):
        """Under either warning filter, run_experiment writes the metrics.csv
        text and ends on the parameters of oracles.oracle_run bit for bit, or
        raises its TrainingDiverged message."""
        assert_run_equals_the_oracle(doc)

    @pytest.mark.parametrize("doc,stop", [
        ({**WORKLOADS["paper"], "seed": 0}, None),
        ({**WORKLOADS["local_grad"], "seed": 0}, None),
        ({**WORKLOADS["wide"], "seed": 0, "rounds": 5}, None),
        ({**DIVERGING, "learning_rate": 1e20},
         "client 0: non-finite parameters in round 2, epoch 1, batch 0"),
        ({**DIVERGING, "sparsify_site": "local_gradient", "learning_rate": 1e27},
         "client 1: non-finite gradient in round 1, epoch 1, batch 1"),
        ({**DIVERGING, "sparsify_site": "local_gradient", "learning_rate": 1e223,
          "model": {"hidden": [4], "activation": "tanh"}},
         "client 0: non-finite parameters in round 0, epoch 0, batch 1"),
        ({**DIVERGING, "learning_rate": 1e17}, "global loss non-finite in round 2"),
        ({**DIVERGING, "sparsify_site": "local_gradient", "learning_rate": 1e25},
         "global loss non-finite in round 1"),
    ], ids=["paper", "local_grad", "wide_5_rounds", "client_params", "client_gradient",
            "client_params_after_finite_gradient", "loss_uploaded_delta",
            "loss_local_gradient"])
    def test_pinned_run_equals_the_serial_oracle(self, doc, stop):
        """The whole-run check on the benchmark workloads (wide cut to 5
        rounds), which end normally, and on one small run per way a run
        stops: a client's parameters, its gradient, its parameters after a
        finite gradient (local_gradient), and the loss at each site."""
        outcome = assert_run_equals_the_oracle(doc)
        if stop is None:
            assert isinstance(outcome, tuple), outcome
        else:
            assert outcome == stop

    def test_oracle_calls_no_round_code(self, monkeypatch):
        """oracle_run is a reference only while it shares no round code with
        the package: it runs with the four round functions made to raise."""
        config = self.base_config(clients=4, participation=0.5)
        split = build_dataset(config)
        expected = run_outcome(package_run, config, split)

        def refuse(*args, **kwargs):
            raise AssertionError("oracle_run called the package's round code")

        for name in ("aggregate", "global_loss", "run_round", "client_local_train"):
            monkeypatch.setattr(federation, name, refuse)
        assert run_outcome(oracle_run, config, split) == expected

    def test_every_policy_trains_on_top_k_batches(self, monkeypatch):
        """The batch order comes from the training stream alone, so every
        policy at either site hands backward the rows top-k does."""
        batches = []

        def record(spec, layers, inputs, targets, grads):
            batches.append((inputs.copy(), targets.copy()))
            backward(spec, layers, inputs, targets, grads)

        monkeypatch.setattr(federation.model_ops, "backward", record)

        def rows(site, policy):
            batches.clear()
            server = self.run(sparsify_site=site, policy=policy, rounds=2, local_epochs=3,
                              batch_size=4)
            return list(batches), [len(p) for p in server.partitions]

        reference, sizes = rows("uploaded_delta", {"kind": "top_k", "rate": 0.2})
        assert len(reference) == 2 * 3 * sum(math.ceil(n / 4) for n in sizes)
        for site in ("uploaded_delta", "local_gradient"):
            for policy in ({"kind": "top_k", "rate": 0.2}, {"kind": "random", "rate": 0.2},
                           {"kind": "threshold", "tau": 0.01}, {"kind": "dense"}):
                got, _ = rows(site, policy)
                assert len(got) == len(reference), (site, policy)
                for (x, y), (x_ref, y_ref) in zip(got, reference):
                    assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref), \
                        (site, policy)

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
        dense = self.run(policy={"kind": "dense"}, **common)
        other = self.run(sparsify_site=site, policy=policy, **common)
        assert np.array_equal(other.global_params, dense.global_params)
        assert ([m.csv_row() for m in other.history]
                == [m.csv_row() for m in dense.history])


class TestBuildDataset:
    # Small synthetic and CSV tasks, and the keys a sweep cell changes.
    TASKS = st.fixed_dictionaries({
        "kind": st.sampled_from(["synthetic", "csv"]),
        "classes": st.integers(2, 4),
        "per_class": st.integers(2, 8),
        "input_dim": st.integers(1, 4),
        "normalize": st.booleans(),
        "seed": st.integers(0, 3),
        "test_fraction": st.sampled_from([0.3, 0.5, 0.9]),
    })
    CELLS = st.fixed_dictionaries({
        "alpha": st.sampled_from([MIN_ALPHA, 0.3, 1e3]),
        "policy": st.sampled_from([SparsityPolicy("top_k", rate=1e-9),
                                   SparsityPolicy("random", rate=0.5),
                                   SparsityPolicy("threshold", tau=1e9),
                                   SparsityPolicy("dense")]),
        "output_dir": st.text(min_size=1, max_size=8),
    })

    @given(task=TASKS, cell=CELLS)
    @settings(max_examples=40, deadline=None)
    def test_sweep_cell_keys_do_not_reach_the_build(self, task, cell):
        """A sweep builds its split once from the base config and runs every
        cell on it, which holds only while the build reads no key a cell
        changes: each cell's own build is bit-identical to the base's."""
        with tempfile.TemporaryDirectory() as tmp:
            dataset = {"kind": "synthetic", "classes": task["classes"],
                       "per_class": task["per_class"], "input_dim": task["input_dim"]}
            if task["kind"] == "csv":
                path = Path(tmp, "data.csv")
                path.write_text(csv_text(gen_synthetic(task["classes"], task["per_class"],
                                                       task["input_dim"], 2.0,
                                                       rng_seed=task["seed"])))
                dataset = {"kind": "csv", "path": str(path), "input_dim": task["input_dim"],
                           "classes": task["classes"], "normalize": task["normalize"]}
            base = parse_config_dict({"seed": task["seed"], "dataset": dataset,
                                      "policy": {"kind": "top_k", "rate": 0.3}, "clients": 1,
                                      "test_fraction": task["test_fraction"]})
            built = build_dataset(base)
            for ds, other in zip(built, build_dataset(replace(base, **cell))):
                assert ds.class_count == other.class_count
                for a, b in ((ds.inputs, other.inputs), (ds.labels, other.labels)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
