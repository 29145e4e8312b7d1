"""Small dense classifier with a hand-rolled forward pass and backprop.

The network is a plain MLP: linear layers with relu or tanh hidden
activations and a linear output layer that emits one logit per class.
All parameters live in one flat float64 vector, laid out layer by layer
as the row-major weight matrix followed by the bias vector; that flat
vector is what the sparsifiers and the aggregation code operate on.

Loss is the batch mean of cross-entropy, computed with max-subtracted
log-sum-exp. Per-sample losses are accumulated left to right over the
batch, so a fixed sample order gives a bit-identical loss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description.

    layer_sizes[0] is the input dimension, layer_sizes[-1] the class
    count; anything in between is a hidden width. seed drives the
    deterministic initialization.
    """

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output size")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError("every layer size must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def class_count(self) -> int:
        return self.layer_sizes[-1]


def _layout(layer_sizes: tuple[int, ...]):
    """Per-layer (weight start, bias start, bias end, n_in, n_out) offsets
    into the flat vector, and the total parameter count."""
    slices = []
    pos = 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bias = pos + n_in * n_out
        slices.append((pos, bias, bias + n_out, n_in, n_out))
        pos = bias + n_out
    return tuple(slices), pos


def param_count(spec: ModelSpec) -> int:
    """Total number of parameters: sum of n_in*n_out + n_out per layer."""
    return _layout(spec.layer_sizes)[1]


def init_params(spec: ModelSpec) -> np.ndarray:
    """Deterministic init: per layer, weights uniform on
    +/- sqrt(6 / (n_in + n_out)), biases zero."""
    rng = np.random.default_rng(spec.seed)
    chunks = []
    for n_in, n_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        chunks.append(rng.uniform(-limit, limit, size=n_in * n_out))
        chunks.append(np.zeros(n_out))
    return np.concatenate(chunks)


def unpack_params(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Slice the flat vector into per-layer (weights, bias) views."""
    params = np.asarray(params, dtype=np.float64)
    slices, total = _layout(spec.layer_sizes)
    if params.ndim != 1 or params.shape[0] != total:
        raise ValueError(
            f"parameter vector has length {params.shape}, model needs {total}"
        )
    return [(params[w:b].reshape(n_in, n_out), params[b:end])
            for w, b, end, n_in, n_out in slices]


def _check_inputs(spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.input_dim:
        raise ValueError(
            f"inputs have shape {inputs.shape}, model expects (*, {spec.input_dim})"
        )
    return inputs


def _activations(spec, layers, inputs):
    """Layer outputs of one forward pass over unpacked layers, inputs first
    and logits last. Each hidden activation overwrites its own product, so
    every entry after the inputs is a fresh array the caller owns."""
    acts = [inputs]
    for i, (w, b) in enumerate(layers):
        z = np.dot(acts[-1], w)
        z += b
        if i < len(layers) - 1:
            if spec.activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.tanh(z, out=z)
        acts.append(z)
    return acts


def _sum_left_to_right(values: list[float]) -> float:
    # Fixed left-to-right accumulation: the documented summation order.
    total = 0.0
    for v in values:
        total += v
    return total


def _check_labels(labels: np.ndarray, class_count: int, batch: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != batch:
        raise ValueError(f"labels have shape {labels.shape}, expected ({batch},)")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError(f"labels must lie in [0, {class_count})")
    return labels.astype(np.int64, copy=False)


def _row_max(logits: np.ndarray) -> np.ndarray:
    """The max of each row, as a left-to-right np.maximum fold over the
    columns: one call per column, where logits.max(axis=1) runs numpy's
    reduce loop once per row. Same values; only the sign of a zero maximum
    may differ, and x - 0.0 and x - -0.0 have the same exp."""
    m = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(m, logits[:, j], out=m)
    return m


def _per_sample_losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log softmax(logits)[label] of each row, max-subtracted for stability."""
    m = _row_max(logits)
    # sum includes exp(0) = 1 for the max term, so log(...) >= 0 and the
    # per-sample loss is nonnegative in floating point as well.
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return lse - logits[np.arange(logits.shape[0]), labels]


def group_losses(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                 labels: np.ndarray, groups) -> list[float]:
    """Mean cross-entropy of each row group; groups[j] lists the indices of
    group j's rows in inputs and labels, in summation order.

    Equal, bit for bit, to calling loss on each group's rows alone: inputs
    and labels are checked and the parameters unpacked once, each group's
    rows are gathered for its own forward pass, and the per-sample losses of
    all groups are computed at once, then summed left to right per group.
    """
    inputs = _check_inputs(spec, inputs)
    labels = _check_labels(labels, spec.class_count, inputs.shape[0])
    if not groups or min(len(g) for g in groups) < 1:
        raise ValueError("loss needs at least one group and one row per group")
    layers = unpack_params(spec, params)
    # One forward pass per group: BLAS may round a product over another row
    # count differently in the last bit. The loss itself is row-wise.
    logits = np.concatenate([_activations(spec, layers, inputs[g])[-1] for g in groups])
    labels = np.concatenate([labels[g] for g in groups])
    per_sample = _per_sample_losses(logits, labels).tolist()
    bounds = [0, *itertools.accumulate(len(g) for g in groups)]
    return [_sum_left_to_right(per_sample[lo:hi]) / (hi - lo)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def loss(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Batch mean cross-entropy: group_losses with every row, in order, as one group."""
    inputs = _check_inputs(spec, inputs)
    return group_losses(spec, params, inputs, labels, [np.arange(inputs.shape[0])])[0]


def backward(spec: ModelSpec, layers, inputs: np.ndarray, targets: np.ndarray,
             grads) -> None:
    """Gradient of the batch-mean cross-entropy w.r.t. every layer, written
    into `grads`, the unpack_params views of one gradient buffer.

    A per-batch kernel with no checks: `layers` are the unpack_params views
    of the parameters, `inputs` a non-empty float64 (n, input_dim) matrix
    and `targets` its one-hot (n, class_count) label rows. Only `grads` is
    written, every coordinate of it.
    """
    acts = _activations(spec, layers, inputs)

    # the softmax gradient is formed in the logits buffer, which no one else
    # holds; subtracting the one-hot rows gives the bits of subtracting 1.0
    # at each label, since x - 0.0 is x
    delta = acts[-1]
    delta -= np.maximum.reduce(delta, axis=1, keepdims=True)
    np.exp(delta, out=delta)
    delta /= np.add.reduce(delta, axis=1, keepdims=True)
    delta -= targets
    delta /= inputs.shape[0]

    # np.dot issues the same BLAS call as @, with less per-call work
    for i in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[i]
        np.dot(acts[i].T, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if i > 0:
            delta = np.dot(delta, layers[i][0].T)
            # each derivative is read off the activation h: relu's h > 0.0 is
            # the mask z > 0.0 (a bool factor gives the bits of 0.0/1.0), and
            # tanh's is 1 - h*h
            h = acts[i]
            delta *= h > 0.0 if spec.activation == "relu" else 1.0 - h * h


def evaluate(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
             labels: np.ndarray) -> float:
    """Top-1 accuracy; argmax ties break toward the lowest class index."""
    inputs = _check_inputs(spec, inputs)
    if inputs.shape[0] == 0:
        raise ValueError("evaluate over an empty dataset")
    labels = _check_labels(labels, spec.class_count, inputs.shape[0])
    pred = np.argmax(_activations(spec, unpack_params(spec, params), inputs)[-1], axis=1)
    return float(np.mean(pred == labels))
