"""Model-core tests: forward/loss/backprop against independent oracles."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsparse.model import (ModelSpec, _per_sample_losses, _row_max, backward,
                             evaluate, group_losses, init_params, loss,
                             param_count, unpack_params)
from oracles import finite_diff_grad, forward, gradient


def rel_err(a, b, guard=1e-3):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), guard)


def reference_backward(spec, params, inputs, labels):
    """backward as it stood before the per-call cleanups (cached layout,
    in-place softmax, bool ReLU mask): same BLAS calls, so equal bits."""
    layers = []
    pos = 0
    for n_in, n_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        w = params[pos:pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        b = params[pos:pos + n_out]
        pos += n_out
        layers.append((w, b))
    acts = [inputs]
    zs = []
    a = inputs
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        zs.append(z)
        if i < len(layers) - 1:
            a = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
        else:
            a = z
        acts.append(a)
    n = inputs.shape[0]

    logits = acts[-1]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    probs = e / e.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grad_chunks = []
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = acts[i].T @ delta
        gb = delta.sum(axis=0)
        grad_chunks.append(gb)
        grad_chunks.append(gw.ravel())
        if i > 0:
            z = zs[i - 1]
            if spec.activation == "relu":
                grad = (z > 0.0).astype(np.float64)
            else:
                t = np.tanh(z)
                grad = 1.0 - t * t
            delta = (delta @ w.T) * grad
    return np.concatenate(grad_chunks[::-1])


def nan_grads(spec):
    """A NaN-filled gradient buffer with a guard cell at each end, and the
    unpack_params views of the cells between the guards."""
    buffer = np.full(param_count(spec) + 2, np.nan)
    return buffer, unpack_params(spec, buffer[1:-1])


def written(buffer):
    """The gradient between the guard cells of a nan_grads buffer, once
    backward has written every coordinate of it and neither guard."""
    assert np.isnan(buffer[[0, -1]]).all()
    assert not np.isnan(buffer[1:-1]).any()
    return buffer[1:-1]


def random_batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, spec.input_dim)),
            rng.integers(0, spec.class_count, size=n))


class TestSpecAndInit:
    def test_param_count_hand_checked(self):
        assert param_count(ModelSpec((2, 3))) == 9
        assert param_count(ModelSpec((4, 8, 3))) == 67

    def test_init_length_and_bias_zero(self):
        spec = ModelSpec((4, 8, 3), seed=11)
        p = init_params(spec)
        assert p.shape == (67,)
        layers = unpack_params(spec, p)
        for _, b in layers:
            assert np.all(b == 0.0)

    def test_init_deterministic_bit_identical(self):
        spec = ModelSpec((2, 3), seed=7)
        a = init_params(spec)
        b = init_params(spec)
        assert np.array_equal(a, b)

    def test_init_respects_uniform_bounds(self):
        spec = ModelSpec((30, 20), seed=3)
        w, _ = unpack_params(spec, init_params(spec))[0]
        limit = math.sqrt(6.0 / 50)
        assert np.all(np.abs(w) <= limit)
        assert np.isfinite(init_params(spec)).all()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec((5,))
        with pytest.raises(ValueError):
            ModelSpec((4, 0, 2))
        with pytest.raises(ValueError):
            ModelSpec((4, 2), activation="sigmoid")


class TestForward:
    def test_zero_params_give_zero_logits(self):
        spec = ModelSpec((3, 4, 2))
        logits = forward(spec, np.zeros(param_count(spec)), np.ones((5, 3)))
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_single_identity_layer(self):
        spec = ModelSpec((1, 1))
        logits = forward(spec, np.array([1.0, 0.0]), np.array([[2.5]]))
        assert logits[0, 0] == 2.5

    def test_matches_explicit_matrix_arithmetic(self):
        """Oracle: re-derive the logits with plain per-sample loops."""
        spec = ModelSpec((4, 6, 3), activation="tanh", seed=5)
        params = init_params(spec)
        X, _ = random_batch(spec, 7, seed=2)
        layers = unpack_params(spec, params)
        expected = np.empty((7, 3))
        for i in range(7):
            a = X[i]
            for j, (w, b) in enumerate(layers):
                z = np.array([a @ w[:, k] + b[k] for k in range(w.shape[1])])
                a = np.tanh(z) if j < len(layers) - 1 else z
            expected[i] = a
        got = forward(spec, params, X)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_shape_errors(self):
        spec = ModelSpec((3, 2))
        with pytest.raises(ValueError):
            forward(spec, np.zeros(7), np.ones((2, 3)))
        with pytest.raises(ValueError):
            forward(spec, np.zeros(param_count(spec)), np.ones((2, 4)))


def logit_loss(logits, labels):
    """loss of a model whose logits are its inputs: ModelSpec((C, C)) with
    identity weights and zero bias (x @ I + 0 gives x exactly)."""
    logits = np.asarray(logits, dtype=np.float64)
    c = logits.shape[1]
    params = np.concatenate([np.eye(c).ravel(), np.zeros(c)])
    return loss(ModelSpec((c, c)), params, logits, labels)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((6, 4))
        assert logit_loss(logits, np.array([0, 1, 2, 3, 0, 1])) == pytest.approx(
            math.log(4), abs=1e-12)

    def test_large_logit_is_stable(self):
        value = logit_loss(np.array([[1000.0, 0.0]]), np.array([0]))
        assert 0.0 <= value < 1e-6
        assert math.isfinite(value)

    def test_matches_extended_precision_oracle(self):
        """Oracle: softmax cross-entropy in 50-digit decimal arithmetic."""
        getcontext().prec = 50
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((5, 3)) * 4.0
        labels = rng.integers(0, 3, size=5)
        total = Decimal(0)
        for row, label in zip(logits, labels):
            exps = [Decimal(float(v)).exp() for v in row]
            total += -(exps[label] / sum(exps)).ln()
        expected = float(total / 5)
        assert logit_loss(logits, labels) == pytest.approx(expected, rel=1e-13)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            logit_loss(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_confident_correct_margin(self):
        # margin-50 logits: loss positive but below 1e-6
        logits = np.array([[50.0, 0.0, 0.0]])
        value = logit_loss(logits, np.array([0]))
        assert 0.0 <= value < 1e-6

    @given(st.integers(1, 8), st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_loss_nonnegative(self, n, c, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, c)) * 10
        labels = rng.integers(0, c, size=n)
        assert logit_loss(logits, labels) >= 0.0


class TestBackward:
    def test_minimal_model_analytic_gradient(self):
        """Scalar input, two logits: chain rule by hand."""
        spec = ModelSpec((1, 2))
        params = np.array([0.7, -0.4, 0.1, 0.2])  # w (1x2) then b (2)
        x = np.array([[1.3]])
        y = np.array([0])
        z = np.array([1.3 * 0.7 + 0.1, 1.3 * -0.4 + 0.2])
        p = np.exp(z - z.max())
        p /= p.sum()
        expected = np.array([(p[0] - 1) * 1.3, p[1] * 1.3, p[0] - 1, p[1]])
        got = gradient(spec, params, x, y)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)
        fd = finite_diff_grad(spec, params, x, y)
        assert rel_err(got, fd).max() < 1e-6

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_full_model_against_finite_differences(self, activation):
        spec = ModelSpec((4, 8, 3), activation=activation, seed=13)
        params = init_params(spec)
        X, y = random_batch(spec, 5, seed=4)
        grad = gradient(spec, params, X, y)
        fd = finite_diff_grad(spec, params, X, y, step=1e-6)
        assert rel_err(grad, fd).max() < 1e-4

    def test_duplicated_batch_leaves_gradient_unchanged(self):
        spec = ModelSpec((3, 5, 2), seed=8)
        params = init_params(spec)
        X, y = random_batch(spec, 4, seed=6)
        g1 = gradient(spec, params, X, y)
        g2 = gradient(spec, params, np.vstack([X, X]), np.concatenate([y, y]))
        assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)

    def test_permutation_invariance(self):
        spec = ModelSpec((4, 6, 3), seed=3)
        params = init_params(spec)
        X, y = random_batch(spec, 9, seed=7)
        perm = np.random.default_rng(1).permutation(9)
        l1 = loss(spec, params, X, y)
        l2 = loss(spec, params, X[perm], y[perm])
        assert l2 == pytest.approx(l1, rel=1e-12)
        g1 = gradient(spec, params, X, y)
        g2 = gradient(spec, params, X[perm], y[perm])
        assert rel_err(g1, g2, guard=1e-9).max() < 1e-12

    def test_loss_bit_identical_on_fixed_order(self):
        spec = ModelSpec((4, 6, 3), seed=3)
        params = init_params(spec)
        X, y = random_batch(spec, 9, seed=7)
        assert loss(spec, params, X, y) == loss(spec, params, X, y)

    def test_loss_sums_left_to_right(self):
        # One loss near 3, then 16 of about 2**-52, the smallest positive
        # per-sample loss (the log of the float after 1.0). Each small one
        # is at most half an ulp of the running total and vanishes when
        # added in order; a pairwise np.sum keeps them.
        n = 17
        logits = np.zeros((n, 2))
        logits[0, 1] = 3.0
        logits[1:, 1] = -36.7
        labels = np.zeros(n, dtype=np.int64)
        per_sample = [logit_loss(logits[i:i + 1], labels[i:i + 1]) for i in range(n)]
        assert all(0.0 < value <= 2.0 ** -52 for value in per_sample[1:])
        sequential = 0.0
        for value in per_sample:
            sequential += value
        assert float(np.sum(per_sample)) != sequential
        assert logit_loss(logits, labels) == sequential / n

    @given(st.sampled_from(["relu", "tanh"]),
           st.lists(st.integers(1, 9), min_size=0, max_size=3),
           st.integers(1, 6), st.integers(2, 5), st.integers(1, 33),
           st.integers(1, 2), st.sampled_from([0, 1, 3]),
           st.sampled_from([0.0, 0.1]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_reference_backward(self, activation, hidden, d, c, batch,
                                                 full, tail, noise, seed):
        """The kernel as the client loop calls it: over the unpacked layers
        and one-hot rows of a partition of full batches and a tail of 0, 1
        or 3 rows, writing every batch into the views of one reused buffer,
        refilled with NaN before each call. Every call size from 1 to 33
        rows is drawn, the default batch size 32 among them."""
        spec = ModelSpec((d, *hidden, c), activation=activation, seed=seed)
        rng = np.random.default_rng(seed)
        params = init_params(spec) + noise * rng.standard_normal(param_count(spec))
        n = full * batch + tail
        X, y = random_batch(spec, n, seed)
        # zero rows with the zero initial biases give pre-activations of
        # exactly 0.0, where the ReLU mask's strict inequality matters
        X[rng.random(n) < 0.3] = 0.0
        layers = unpack_params(spec, params)
        targets = np.eye(c)[y]
        buffer, grads = nan_grads(spec)
        for start in range(0, n, batch):
            rows = slice(start, start + batch)
            buffer.fill(np.nan)
            backward(spec, layers, X[rows], targets[rows], grads)
            assert np.array_equal(written(buffer),
                                  reference_backward(spec, params, X[rows], y[rows]))

    # a relu case is named by its row count alone, a tanh case "<n>-tanh"
    @pytest.mark.parametrize("n,activation", [
        pytest.param(n, activation, id=str(n) if activation == "relu" else f"{n}-tanh")
        for activation in ("relu", "tanh") for n in (32, 25, 7, 1)])
    def test_bit_identical_to_reference_backward_at_wide_shape(self, n, activation):
        """Widths the hypothesis test above never reaches, where OpenBLAS
        leaves its small-matrix path."""
        spec = ModelSpec((256, 256, 64, 10), activation=activation, seed=n)
        params = init_params(spec)
        X, y = random_batch(spec, n, seed=n)
        X[::3] = 0.0  # zero rows: pre-activations of exactly 0.0
        buffer, grads = nan_grads(spec)
        backward(spec, unpack_params(spec, params), X, np.eye(10)[y], grads)
        assert np.array_equal(written(buffer), reference_backward(spec, params, X, y))


class TestCallerDataUntouched:
    """The activation pass writes into its own buffers only, and backward
    only into the gradient views."""

    @pytest.mark.parametrize("n", [6, 1])
    @pytest.mark.parametrize("sizes,activation", [
        ((3, 5, 4, 2), "relu"), ((3, 5, 4, 2), "tanh"),
        ((3, 2), "relu"),  # no hidden layer: the logits are the first product
    ])
    def test_params_inputs_and_labels_keep_their_bits(self, sizes, activation, n):
        spec = ModelSpec(sizes, activation=activation, seed=4)
        params = init_params(spec) + 0.1
        X, y = random_batch(spec, n, seed=n)
        targets = np.eye(spec.class_count)[y]
        buffer, grads = nan_grads(spec)
        before = [params.copy(), X.copy(), y.copy(), targets.copy()]
        backward(spec, unpack_params(spec, params), X, targets, grads)
        loss(spec, params, X, y)
        group_losses(spec, params, X, y, [[0], np.arange(1, n)] if n > 1 else [[0]])
        evaluate(spec, params, X, y)
        for old, new in zip(before, [params, X, y, targets]):
            assert old.tobytes() == new.tobytes()
        written(buffer)


class TestGroupLosses:
    @pytest.mark.parametrize("sizes", [[], [4, 0, 6]])
    def test_bad_group_sizes_rejected(self, sizes):
        """No group, or an empty one: consecutive index groups of these sizes."""
        spec = ModelSpec((4, 3))
        X, y = random_batch(spec, 10, seed=1)
        bounds = np.cumsum([0, *sizes])
        groups = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        with pytest.raises(ValueError, match="one row per group"):
            group_losses(spec, init_params(spec), X, y, groups)

    def test_empty_batch_loss_rejected(self):
        spec = ModelSpec((2, 2))
        with pytest.raises(ValueError):
            loss(spec, init_params(spec), np.zeros((0, 2)), np.zeros(0, dtype=int))


def reduce_per_sample_losses(logits, labels):
    """_per_sample_losses as it stood with numpy's per-row reduce."""
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return lse - logits[np.arange(logits.shape[0]), labels]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestRowMax:
    SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 800.0, -800.0]

    @given(st.integers(1, 40), st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_reduce_bit_for_bit(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        logits = rng.choice(self.SPECIALS, size=(rows, cols))
        labels = rng.integers(0, cols, size=rows)
        # Past 8 columns numpy's reduce may pick the other zero as the
        # maximum; adding +0.0 maps -0.0 to 0.0 and leaves every other bit.
        assert np.array_equal(bits(_row_max(logits) + 0.0),
                              bits(logits.max(axis=1) + 0.0))
        with np.errstate(all="ignore"):
            assert np.array_equal(bits(_per_sample_losses(logits, labels)),
                                  bits(reduce_per_sample_losses(logits, labels)))

    def test_zero_sign_of_the_max_changes_no_loss(self):
        # numpy 2.4 reduces this 9-wide row to +0.0, the fold to -0.0
        logits = np.array([[-1.0, -1.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, -1.0]])
        labels = np.array([3])
        assert _row_max(logits)[0] == 0.0
        assert np.array_equal(bits(_per_sample_losses(logits, labels)),
                              bits(reduce_per_sample_losses(logits, labels)))


class TestFiniteDiff:
    def test_requires_positive_step(self):
        spec = ModelSpec((1, 2))
        with pytest.raises(ValueError):
            finite_diff_grad(spec, np.zeros(4), np.ones((1, 1)), np.array([0]), step=0.0)

    def test_halving_step_quarters_error(self):
        """Central differences are second order on a smooth instance."""
        spec = ModelSpec((1, 2), activation="tanh")
        params = np.array([0.9, -0.2, 0.05, -0.3])
        x = np.array([[0.8]])
        y = np.array([1])
        exact = gradient(spec, params, x, y)
        err = []
        for step in (1e-2, 5e-3):
            fd = finite_diff_grad(spec, params, x, y, step=step)
            err.append(np.abs(fd - exact).max())
        ratio = err[0] / err[1]
        assert 3.0 < ratio < 5.0

    def test_agrees_with_backward_on_random_instances(self):
        for seed in range(3):
            spec = ModelSpec((3, 4, 2), seed=seed)
            params = init_params(spec)
            X, y = random_batch(spec, 3, seed=seed + 20)
            assert rel_err(gradient(spec, params, X, y),
                           finite_diff_grad(spec, params, X, y)).max() < 1e-4


class TestEvaluate:
    def test_constant_predictor_on_matching_labels(self):
        spec = ModelSpec((2, 3))
        params = np.zeros(param_count(spec))
        layers = unpack_params(spec, params)
        layers[0][1][0] = 5.0  # bias favors class 0
        X = np.random.default_rng(0).standard_normal((40, 2))
        assert evaluate(spec, params, X, np.zeros(40, dtype=int)) == 1.0

    def test_untrained_model_near_chance(self):
        spec = ModelSpec((4, 3), seed=99)
        params = init_params(spec)
        rng = np.random.default_rng(123)
        X = rng.standard_normal((10000, 4))
        y = rng.integers(0, 3, size=10000)
        assert abs(evaluate(spec, params, X, y) - 1 / 3) < 0.05

    def test_perfect_logits(self):
        spec = ModelSpec((3, 3))
        # identity weights, zero bias: logits == inputs
        params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
        y = np.array([0, 1, 2, 1])
        X = np.eye(3)[y] * 10
        assert evaluate(spec, params, X, y) == 1.0

    def test_argmax_tie_breaks_low_index(self):
        spec = ModelSpec((2, 2))
        params = np.zeros(param_count(spec))  # all logits equal
        X = np.ones((4, 2))
        assert evaluate(spec, params, X, np.zeros(4, dtype=int)) == 1.0
        assert evaluate(spec, params, X, np.ones(4, dtype=int)) == 0.0

    def test_empty_dataset_rejected(self):
        spec = ModelSpec((2, 2))
        with pytest.raises(ValueError):
            evaluate(spec, np.zeros(param_count(spec)),
                     np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_gradient_check_matrix():
    """Gradient invariant across a spread of architectures and activations."""
    cases = [
        ((2, 3), "relu"), ((5, 4), "tanh"), ((3, 6, 2), "relu"),
        ((4, 8, 3), "tanh"), ((5, 7, 6, 4), "relu"), ((2, 5, 5, 2), "tanh"),
    ]
    for i, (sizes, act) in enumerate(cases):
        spec = ModelSpec(sizes, activation=act, seed=100 + i)
        params = init_params(spec)
        X, y = random_batch(spec, 4, seed=200 + i)
        worst = rel_err(gradient(spec, params, X, y),
                        finite_diff_grad(spec, params, X, y, step=1e-6)).max()
        assert worst < 1e-4, f"{sizes}/{act}: {worst}"
