"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).
Criteria 6-8 share one frozen synthetic task: 3 classes x 150 samples,
input_dim 10, separation 1.5, hidden [16] relu, batch 8, T=50, E=5,
lr=0.01, N=3, test fraction 0.4, seeds 0..9.
"""

import functools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fedsparse.cli import EXIT_OK, main
from fedsparse.config import parse_config_dict
from fedsparse.federation import (ClientState, ServerState, build_dataset,
                                  run_experiment, run_round)
from fedsparse.model import ModelSpec, init_params
from fedsparse.partition import _sample_proportions
from fedsparse.sparsify import HEADER_BYTES, SparseUpdate, SparsityPolicy, encode, sparsify
from oracles import (DirichletParams, decode, dirichlet_log_pdf, finite_diff_grad, gradient,
                     update_fields)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {label}")


def task_config(seed, alpha, policy):
    """The frozen synthetic task shared by criteria 6-8."""
    return parse_config_dict({
        "seed": seed,
        "dataset": {"kind": "synthetic", "classes": 3, "per_class": 150,
                    "input_dim": 10, "separation": 1.5},
        "model": {"hidden": [16], "activation": "relu"},
        "policy": policy,
        "clients": 3, "alpha": alpha, "rounds": 50, "local_epochs": 5,
        "learning_rate": 0.01, "batch_size": 8, "test_fraction": 0.4,
    })


def final_accuracy(seed, alpha, policy):
    """Memoized by (seed, alpha, policy): criterion 7's sparse runs and
    criterion 8's top_k runs are criterion 6's runs, made once. A rerun
    would be byte-identical, which criterion 10 pins."""
    return _final_accuracy(seed, alpha, tuple(sorted(policy.items())))


@functools.lru_cache(maxsize=None)
def _final_accuracy(seed, alpha, policy_items):
    return run_experiment(task_config(seed, alpha, dict(policy_items))).final_accuracy


def test_criterion_1_gradient_correctness():
    """backward vs central finite differences on 20 random instances."""
    with criterion(1, "gradient correctness < 1e-4 on 20 instances, < 30 s"):
        start = time.perf_counter()
        shapes = [(3, 4, 2), (4, 8, 3), (5, 7, 6, 4), (2, 3), (6, 10, 5, 3)]
        worst = 0.0
        for i in range(20):
            sizes = shapes[i % len(shapes)]
            activation = "relu" if i % 2 == 0 else "tanh"
            spec = ModelSpec(sizes, activation=activation, seed=1000 + i)
            params = init_params(spec)
            rng = np.random.default_rng(2000 + i)
            n = int(rng.integers(1, 8))
            inputs = rng.standard_normal((n, spec.input_dim))
            labels = rng.integers(0, spec.class_count, size=n)
            grad = gradient(spec, params, inputs, labels)
            fd = finite_diff_grad(spec, params, inputs, labels, step=1e-6)
            rel = np.abs(grad - fd) / np.maximum(
                np.maximum(np.abs(grad), np.abs(fd)), 1e-3)
            worst = max(worst, float(rel.max()))
        elapsed = time.perf_counter() - start
        assert worst < 1e-4, f"worst relative error {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_2_sparsifier_oracles():
    """Retained sets equal brute-force oracles; random sparsifier uniform."""
    with criterion(2, "sparsifier oracle equivalence + uniformity, < 60 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 10001))
            v = rng.standard_normal(d)
            rate = float(rng.uniform(0.01, 1.0))
            m = max(1, math.ceil(rate * d - 1e-9))
            got = sparsify(v, SparsityPolicy("top_k", rate=rate))
            # stable magnitude-descending sort with explicit index tie-break
            oracle = np.sort(np.lexsort((np.arange(d), -np.abs(v)))[:m])
            assert np.array_equal(got, oracle)

            tau = float(rng.uniform(0.0, 2.0))
            got_t = sparsify(v, SparsityPolicy("threshold", tau=tau))
            scan = np.array([j for j in range(d) if abs(v[j]) >= tau], dtype=np.int64)
            assert np.array_equal(got_t, scan)

        d, draws = 100, 10000
        v = rng.standard_normal(d)
        counts = np.zeros(d)
        random_policy = SparsityPolicy("random", rate=0.2)
        for s in range(draws):
            keep = sparsify(v, random_policy, rng_seed=[99, s])
            assert len(keep) == 20  # cardinality exact
            counts[keep] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.2) < 0.02), \
            f"frequency range [{freq.min():.3f}, {freq.max():.3f}]"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_3_codec_identity():
    """The oracle decodes encode(u) to u's fields on 10^4 updates; length
    exactly 27 + 8m."""
    with criterion(3, "codec identity on 10^4 updates, length 27 + 8m"):
        rng = np.random.default_rng(11)
        checked_empty = checked_full = False
        for i in range(10000):
            if i == 0:
                dim, count = 10, 0
            elif i == 1:
                dim, count = 64, 64
            else:
                dim = int(rng.integers(1, 400))
                count = int(rng.integers(0, dim + 1))
            indices = np.sort(rng.choice(dim, size=count, replace=False))
            values = rng.standard_normal(count).astype(np.float32).astype(np.float64)
            u = SparseUpdate(dim, indices, values,
                             round=int(rng.integers(0, 2 ** 32)),
                             client_id=int(rng.integers(0, 2 ** 16)))
            data = encode(u)
            assert len(data) == 27 + 8 * count
            assert update_fields(decode(data)) == update_fields(u)
            checked_empty |= count == 0
            checked_full |= count == dim
        assert checked_empty and checked_full


def test_criterion_4_communication_cost_ratio():
    """Uplink payload ratio versus dense equals the retained fraction."""
    with criterion(4, "payload ratio == K +/- 0.01 at d = 10^5"):
        d = 100000
        v = np.random.default_rng(13).standard_normal(d)

        def payload(rate):
            keep = sparsify(v, SparsityPolicy("top_k", rate=rate))
            return len(encode(SparseUpdate(d, keep, v[keep]))) - HEADER_BYTES
        dense_payload = payload(1.0)
        for rate in (0.1, 0.2, 0.3, 0.4):
            payload_bytes = payload(rate)
            ratio = payload_bytes / dense_payload
            assert abs(ratio - rate) <= 0.01, f"K={rate}: ratio {ratio}"


def test_criterion_5_dirichlet_correctness():
    """Closed forms, sampler moments, and chi-square sampling consistency."""
    with criterion(5, "dirichlet: closed forms 1e-9, moments 0.01, chi-square 0.01"):
        # closed forms
        assert dirichlet_log_pdf(DirichletParams((1.0, 1.0, 1.0)),
                                 [0.2, 0.5, 0.3]) == pytest.approx(math.log(2), abs=1e-9)
        assert dirichlet_log_pdf(DirichletParams((2.0, 2.0)),
                                 [0.5, 0.5]) == pytest.approx(math.log(6 * 0.25), abs=1e-9)

        # sampler moments over 1e5 draws
        alpha = (2.0, 3.0, 5.0)
        rng = np.random.default_rng(17)
        draws = np.array([_sample_proportions(alpha, rng) for _ in range(100000)])
        expected = np.array(alpha) / sum(alpha)
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 0.01)

        # chi-square: histogram of x1 vs quadrature of exp(log_pdf).
        # alpha = (2, 3, 4) vanishes on the simplex boundary, so midpoint
        # quadrature over the (x1, x2) triangle has negligible edge error.
        params = DirichletParams((2.0, 3.0, 4.0))
        rng = np.random.default_rng(19)
        n = 20000
        samples = np.array([_sample_proportions(params.alpha, rng) for _ in range(n)])
        bins = 10
        observed = np.histogram(samples[:, 0], bins=bins, range=(0.0, 1.0))[0]

        h = 1.0 / 400
        mass = np.zeros(bins)
        for i in range(400):
            x1 = (i + 0.5) * h
            cell = int(x1 * bins)
            for j in range(400):
                x2 = (j + 0.5) * h
                x3 = 1.0 - x1 - x2
                if x3 <= 0.0:
                    break
                mass[cell] += math.exp(
                    dirichlet_log_pdf(params, np.array([x1, x2, x3]))) * h * h
        assert mass.sum() == pytest.approx(1.0, abs=1e-3)
        expected_counts = n * mass
        stat = float(np.sum((observed - expected_counts) ** 2 / expected_counts))
        # chi-square critical value, df = 9, significance 0.01
        assert stat < 21.666, f"chi-square statistic {stat:.2f}"


def test_criterion_6_heterogeneity_ordering():
    """Mean final accuracy at alpha 0.6 >= alpha 0.3 (10 paired seeds)."""
    with criterion(6, "alpha 0.6 >= alpha 0.3 at K=0.2, 10 seeds, < 10 min"):
        start = time.perf_counter()
        policy = {"kind": "top_k", "rate": 0.2}
        seeds = range(10)
        low = [final_accuracy(s, 0.3, policy) for s in seeds]
        high = [final_accuracy(s, 0.6, policy) for s in seeds]
        mean_low, mean_high = float(np.mean(low)), float(np.mean(high))
        print(f"\n    alpha=0.3: {mean_low:.4f}  alpha=0.6: {mean_high:.4f}  "
              f"paired diff: {mean_high - mean_low:+.4f}")
        assert mean_high >= mean_low - 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.0f} s"


def test_criterion_7_sparsification_tolerance():
    """K=0.2 within 5 accuracy points of dense on identical seeds (5 seeds)."""
    with criterion(7, "K=0.2 within 5 points of dense at alpha 0.6, 5 seeds"):
        seeds = range(5)
        sparse = [final_accuracy(s, 0.6, {"kind": "top_k", "rate": 0.2})
                  for s in seeds]
        dense = [final_accuracy(s, 0.6, {"kind": "top_k", "rate": 1.0})
                 for s in seeds]
        gap = abs(float(np.mean(sparse)) - float(np.mean(dense)))
        print(f"\n    sparse: {np.mean(sparse):.4f}  dense: {np.mean(dense):.4f}  "
              f"|gap|: {gap:.4f}")
        assert gap <= 0.05


def test_criterion_8_method_ordering():
    """top_k non-inferior to random (within 1 point) at alpha 0.3, K=0.2;
    all three strategies reported."""
    with criterion(8, "top_k >= random - 1 point at alpha 0.3, 10 seeds"):
        seeds = range(10)
        results = {
            "top_k": np.mean([final_accuracy(s, 0.3, {"kind": "top_k", "rate": 0.2})
                              for s in seeds]),
            "random": np.mean([final_accuracy(s, 0.3, {"kind": "random", "rate": 0.2})
                               for s in seeds]),
            "threshold": np.mean([final_accuracy(s, 0.3,
                                                 {"kind": "threshold", "tau": 0.2})
                                  for s in seeds]),
        }
        print("\n    strategy comparison at alpha=0.3, rate/tau=0.2, 10 seeds:")
        for name, acc in results.items():
            print(f"      {name:<10s} {acc:.4f}")
        assert results["top_k"] >= results["random"] - 0.01


def test_criterion_9_fedavg_degeneration():
    """N=1, dense rate, uploaded_delta: bitwise equal to plain SGD, 10 rounds."""
    with criterion(9, "single-client dense run == centralized SGD bitwise"):
        config = parse_config_dict({
            "seed": 21,
            "dataset": {"kind": "synthetic", "classes": 3, "per_class": 30,
                        "input_dim": 5, "separation": 2.0},
            "model": {"hidden": [8], "activation": "relu"},
            "policy": {"kind": "top_k", "rate": 1.0},
            "clients": 1, "alpha": 0.5, "rounds": 10, "local_epochs": 2,
            "learning_rate": 0.01, "batch_size": 8, "test_fraction": 0.2,
        })
        train, test = build_dataset(config)
        from fedsparse.partition import partition_dataset
        parts = partition_dataset(train.labels, 1, config.alpha, [config.seed, 12])
        spec = config.model_spec
        server = ServerState(global_params=init_params(spec))
        clients = [ClientState(parts[0])]

        reference = init_params(spec)
        idx = parts[0].sample_indices
        for t in range(10):
            run_round(server, clients, config, spec, train, test)
            rng = np.random.default_rng([config.seed, 2, 0, t])
            for _ in range(2):
                order = rng.permutation(idx.shape[0])
                for s in range(0, idx.shape[0], 8):
                    b = idx[order[s:s + 8]]
                    reference = reference - 0.01 * gradient(
                        spec, reference, train.inputs[b], train.labels[b])
            assert np.array_equal(server.global_params, reference), \
                f"diverged from plain SGD at round {t}"


def test_criterion_10_run_determinism(tmp_path):
    """Two identical CLI runs produce byte-identical metrics.csv."""
    with criterion(10, "repeat run is byte-identical (serialized mode)"):
        import json
        doc = {
            "seed": 23,
            "dataset": {"kind": "synthetic", "classes": 3, "per_class": 25,
                        "input_dim": 4, "separation": 2.0},
            "policy": {"kind": "top_k", "rate": 0.3},
            "rounds": 3, "local_epochs": 2, "batch_size": 8,
            "learning_rate": 0.05, "alpha": 0.5,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out_a), "--quiet"]) == EXIT_OK
        assert main(["run", str(cfg_path), "--out", str(out_b), "--quiet"]) == EXIT_OK
        bytes_a = (out_a / "metrics.csv").read_bytes()
        bytes_b = (out_b / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b
        assert len(bytes_a.splitlines()) == 4  # header + 3 rounds
