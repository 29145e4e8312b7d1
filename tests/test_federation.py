"""Federated round mechanics: local training, aggregation, metering."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsparse import federation
from fedsparse.config import ExperimentConfig, SyntheticDataConfig, parse_config_dict
from fedsparse.data import Dataset, gen_synthetic
from fedsparse.federation import (ClientState, ClientUpdate, ServerState,
                                  TrainingDiverged, aggregate, client_local_train,
                                  global_loss, run_experiment, run_round)
from fedsparse.model import (ModelSpec, backward, evaluate, group_losses, init_params,
                             param_count, unpack_params)
from fedsparse.model import loss as model_loss
from fedsparse.partition import Partition, partition_dataset
from fedsparse.sparsify import SparsityPolicy, encode, encoded_size, retained_count
from oracles import decode, gradient, local_train


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

    def test_local_gradient_trace_matches_reference(self):
        """Step-by-step reimplementation: sparsify, scatter, subtract."""
        ds, spec = make_setup(n=24, seed=3)
        cfg = cfg_with(SparsityPolicy("top_k", rate=0.2), site="local_gradient",
                       epochs=2, batch=8, lr=0.05)
        client = single_client(ds)
        w0 = init_params(spec)
        update = client_local_train(client, w0, cfg, spec, ds, round_index=2)

        w = w0.copy()
        rng = np.random.default_rng([cfg.seed, 2, 0, 2])
        d = w.shape[0]
        m = max(1, math.ceil(0.2 * d - 1e-9))
        for _ in range(2):
            order = rng.permutation(24)
            for start in range(0, 24, 8):
                batch = order[start:start + 8]
                g = gradient(spec, w, ds.inputs[batch], ds.labels[batch])
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

    @given(st.sampled_from(["uploaded_delta", "local_gradient"]),
           st.sampled_from([SparsityPolicy("top_k", rate=0.2),
                            SparsityPolicy("threshold", tau=1e-3),
                            SparsityPolicy("random", rate=0.3), SparsityPolicy("dense")]),
           st.floats(2.0, 300.0), st.integers(1, 3), st.integers(1, 16),
           st.integers(0, 3), st.integers(0, 2 ** 16))
    # a local_gradient step whose finite gradient overflows the parameters
    @example("local_gradient", SparsityPolicy("top_k", rate=0.2), 260.6, 2, 5, 1, 5819)
    @settings(max_examples=200, deadline=None)
    def test_replay_names_the_step_a_checked_loop_stops_at(self, site, policy, lr_exponent,
                                                            epochs, batch, round_index,
                                                            seed):
        """The parameters are checked once per call and a failure is replayed:
        under either warning filter the call raises the message of a loop
        that checks after every step, at the same epoch and batch, or, when
        nothing diverges, uploads the same bits."""
        ds, spec = make_setup(n=15, seed=seed % 7)
        cfg = cfg_with(policy, site=site, lr=10.0 ** lr_exponent, epochs=epochs,
                       batch=batch, seed=seed)
        partition = Partition(2, np.arange(len(ds)))
        w0 = init_params(spec)

        def outcome(reference):
            try:
                if reference:
                    indices, values = local_train(partition, w0, cfg, spec, ds, round_index)
                else:
                    update = client_local_train(ClientState(partition), w0, cfg, spec, ds,
                                                round_index)
                    indices, values = update.indices, update.values
            except TrainingDiverged as err:
                return str(err)
            return indices.tobytes(), values.tobytes()

        expected = outcome(reference=True)
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert outcome(reference=False) == expected, action

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

    @pytest.mark.parametrize("site", ["uploaded_delta", "local_gradient"])
    def test_back_to_back_clients_share_no_buffer(self, site):
        """Two clients of one round, trained one after the other on partitions
        of 13 and 17 rows in batches of 4: the second call leaves the first
        upload's bits alone, and each upload is a plain loop over the oracle
        gradient with a top-k (stable argsort) selection."""
        ds, spec = make_setup(n=30, seed=5)
        cfg = cfg_with(SparsityPolicy("top_k", rate=0.3), site=site, epochs=2, batch=4)
        clients = [ClientState(Partition(0, np.arange(13))),
                   ClientState(Partition(1, np.arange(13, 30)))]
        w0 = init_params(spec)
        d = w0.shape[0]
        m = max(1, math.ceil(0.3 * d - 1e-9))

        def top_k(v):
            return np.sort(np.argsort(-np.abs(v), kind="stable")[:m])

        first = client_local_train(clients[0], w0, cfg, spec, ds, round_index=3)
        kept = (first.indices.tobytes(), first.values.tobytes())
        second = client_local_train(clients[1], w0, cfg, spec, ds, round_index=3)
        assert (first.indices.tobytes(), first.values.tobytes()) == kept

        for client, update in zip(clients, (first, second)):
            idx = client.partition.sample_indices
            rng = np.random.default_rng([cfg.seed, 2, client.partition.client_id, 3])
            w = w0.copy()
            delta = np.zeros(d)
            for _ in range(2):
                order = idx[rng.permutation(idx.shape[0])]
                for start in range(0, idx.shape[0], 4):
                    b = order[start:start + 4]
                    g = gradient(spec, w, ds.inputs[b], ds.labels[b])
                    if site == "local_gradient":
                        keep = top_k(g)
                        w[keep] = w[keep] - cfg.learning_rate * g[keep]
                    else:
                        step = cfg.learning_rate * g
                        w = w - step
                        delta = delta - step
            if site == "local_gradient":
                assert np.array_equal(update.indices, np.arange(d))
                assert np.array_equal(update.values, w)
            else:
                assert np.array_equal(update.indices, top_k(delta))
                assert np.array_equal(update.values, w[update.indices])


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
    def test_full_participation_aggregates_all_clients(self):
        ds, test, spec, clients, server, cfg = run_setup(SparsityPolicy("top_k", rate=0.5),
                                                         run_seed=1)
        metrics = run_round(server, clients, cfg, spec, ds, test)
        d = server.global_params.shape[0]
        m = max(1, math.ceil(0.5 * d - 1e-9))
        assert metrics.uplink_bytes == 3 * encoded_size(m)
        assert metrics.downlink_bytes == 3 * encoded_size(d)
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
            rng = np.random.default_rng([cfg.seed, 2, c.partition.client_id, 0])
            w = w0.copy()
            idx = c.partition.sample_indices
            for _ in range(2):
                order = rng.permutation(idx.shape[0])
                for start in range(0, idx.shape[0], 8):
                    b = idx[order[start:start + 8]]
                    w = w - cfg.learning_rate * gradient(spec, w, ds.inputs[b],
                                                         ds.labels[b])
            locals_.append(w)
            counts.append(idx.shape[0])
        total = sum(counts)
        expected = np.zeros_like(w0)
        for w, n in zip(locals_, counts):
            expected += (n / total) * w
        assert np.array_equal(server.global_params, expected)

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
        assert np.isfinite(result.global_params).all()

    def test_deterministic_history(self):
        a = run_experiment(self.base_config())
        b = run_experiment(self.base_config())
        for ma, mb in zip(a.history, b.history):
            assert ma.global_loss == mb.global_loss
            assert ma.top1_accuracy == mb.top1_accuracy
            assert ma.uplink_bytes == mb.uplink_bytes
            assert ma.downlink_bytes == mb.downlink_bytes
        assert np.array_equal(a.global_params, b.global_params)

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
        spec = config.model_spec
        w = init_params(spec)
        for t in range(3):
            rng = np.random.default_rng([config.seed, 2, 0, t])
            order = rng.permutation(len(train))
            for start in range(0, len(train), config.batch_size):
                b = order[start:start + config.batch_size]
                w = w - config.learning_rate * gradient(spec, w, train.inputs[b],
                                                        train.labels[b])
        assert np.array_equal(result.global_params, w)

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
            server = run_experiment(self.base_config(sparsify_site=site, policy=policy,
                                                     rounds=2, local_epochs=3, batch_size=4))
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
        dense = run_experiment(self.base_config(policy={"kind": "dense"}, **common))
        other = run_experiment(self.base_config(sparsify_site=site, policy=policy,
                                                **common))
        assert np.array_equal(other.global_params, dense.global_params)
        assert ([m.csv_row() for m in other.history]
                == [m.csv_row() for m in dense.history])
