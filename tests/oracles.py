"""Test oracles: independent references the tests check the package against.

forward is not independent: it returns the logits of the activation pass
that model.loss, model.evaluate and model.backward share, so the tests can
check that pass directly. Nor is gradient: it is model.backward behind the
Dataset rules and the fit and parameter-length checks that the client loop
runs once per call, so a test can take one batch's gradient from a flat
vector and labels. fitted builds the Dataset both run behind. local_train
is federation.client_local_train's upload as a plain loop over gradient
and sparsify, checked after every step, so it fails at the batch the
package's replay names. oracle_run is federation.run_experiment as one
serial loop over local_train, with none of federation's round code: the
reference the tests hold the whole run to. oracle_sweep is `fedsparse
sweep` built from `fedsparse run` calls, with none of the sweep code; the
tests compare its files to a sweep's through output_files. finite_diff_grad checks
model.backward; log_gamma, DirichletParams, sample_dirichlet and
dirichlet_log_pdf check the Dirichlet sampler that
partition.partition_dataset draws client proportions from. Log-Gamma
uses the 9-coefficient Lanczos approximation with reflection for
x < 0.5. decode reads the FSU1 layout the README
documents, spelled out here rather than taken from sparsify, so the tests
check sparsify.encode against the documented table; update_fields
compares two updates field by field.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedsparse.cli import main
from fedsparse.data import Dataset
from fedsparse.federation import TrainingDiverged
from fedsparse.model import (ModelSpec, _activations, backward, check_fit, init_params, loss,
                             param_count, unpack_params)
from fedsparse.partition import Partition, _sample_proportions, partition_dataset
from fedsparse.sparsify import SparseUpdate, sparsify


def fitted(spec: ModelSpec, inputs, labels) -> Dataset:
    """inputs and labels as a Dataset of the model's class count, behind the
    package's fit check."""
    dataset = Dataset(inputs, labels, spec.class_count)
    check_fit(spec, dataset)
    return dataset


def forward(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Logits matrix, shape (batch, class_count), behind the package's own
    shape, fit and parameter-length checks."""
    inputs = np.asarray(inputs, dtype=np.float64)
    dataset = fitted(spec, inputs, np.zeros(inputs.shape[:1], dtype=np.int64))
    return _activations(spec, unpack_params(spec, params), dataset.inputs)[-1]


def gradient(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
             labels: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean cross-entropy w.r.t. the flat parameter
    vector, in a fresh array: model.backward on a fitted batch."""
    batch = fitted(spec, inputs, labels)
    grad = np.empty(param_count(spec))
    backward(spec, unpack_params(spec, params), batch.inputs,
             np.eye(spec.class_count)[batch.labels], unpack_params(spec, grad))
    return grad


def local_train(partition: Partition, global_params: np.ndarray, cfg, spec: ModelSpec,
                dataset, round_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The (indices, values) upload of federation.client_local_train, as a
    plain SGD loop over gradient and sparsify that checks the gradient
    (local_gradient) and the parameters after every step and raises
    TrainingDiverged, with the package's message, at the first failure.
    Batch order and policy draw from the streams the federation module
    documents: tag 2, and tag 3 plus (epoch, batch) on local_gradient."""
    client_id, idx = partition.client_id, partition.sample_indices
    local_gradient = cfg.sparsify_site == "local_gradient"
    rng = np.random.default_rng([cfg.seed, 2, client_id, round_index])
    key = [cfg.seed, 3, client_id, round_index]
    w = np.array(global_params, dtype=np.float64)
    delta = np.zeros_like(w)

    def diverged(what, epoch, batch_no):
        return TrainingDiverged(f"client {client_id}: non-finite {what} in round "
                                f"{round_index}, epoch {epoch}, batch {batch_no}")

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.local_epochs):
            order = idx[rng.permutation(len(idx))]
            for batch_no, start in enumerate(range(0, len(idx), cfg.batch_size)):
                rows = order[start:start + cfg.batch_size]
                g = gradient(spec, w, dataset.inputs[rows], dataset.labels[rows])
                if local_gradient:
                    if not np.isfinite(g).all():
                        raise diverged("gradient", epoch, batch_no)
                    keep = sparsify(g, cfg.policy, [*key, epoch, batch_no])
                    w[keep] = w[keep] - cfg.learning_rate * g[keep]
                else:
                    step = cfg.learning_rate * g
                    w = w - step
                    delta = delta - step
                if not np.isfinite(w).all():
                    raise diverged("parameters", epoch, batch_no)
        if local_gradient:
            return np.arange(w.shape[0]), w
        keep = sparsify(delta, cfg.policy, key)
        return keep, w[keep]


def oracle_run(cfg, train_ds: Dataset, test_ds: Dataset) -> tuple[str, np.ndarray]:
    """The metrics.csv text and final parameters of federation.run_experiment
    on this split, as one plain serial loop, or the TrainingDiverged it
    raises. Each round draws ceil(participation * N) clients (less a 1e-9
    slack, as for retained counts) from stream tag 1, trains each selected
    client with local_train, writes the aggregate out in client-id order
    (copy, write the upload, scale by n_i over the selected clients' rows,
    add), checks it and the loss, and meters 27 + 8m bytes per upload of m
    entries and one dense broadcast per selected client. The loss is the
    n_i / n-weighted sum, left to right, of one loss call per partition; the
    accuracy an argmax over forward. Calls nothing of federation but
    TrainingDiverged."""
    spec = cfg.model_spec
    parts = partition_dataset(train_ds.labels, cfg.clients, cfg.alpha, [cfg.seed, 12])
    n = sum(len(p) for p in parts)
    w = init_params(spec)
    rows = ["round,global_loss,top1_accuracy,uplink_bytes,downlink_bytes"]
    for t in range(cfg.rounds):
        k = max(1, math.ceil(cfg.participation * len(parts) - 1e-9))
        rng = np.random.default_rng([cfg.seed, 1, t])
        selected = sorted(int(i) for i in rng.choice(len(parts), size=k, replace=False))
        uploads = [(parts[c], local_train(parts[c], w, cfg, spec, train_ds, t))
                   for c in selected]
        picked = sum(len(p) for p, _ in uploads)
        uplink = sum(27 + 8 * len(keep) for _, (keep, _) in uploads)
        aggregated = None
        with np.errstate(over="ignore", invalid="ignore"):
            for p, (keep, values) in uploads:
                model = w.copy()
                model[keep] = values
                model *= len(p) / picked
                aggregated = model if aggregated is None else aggregated + model
            if not np.isfinite(aggregated).all():
                raise TrainingDiverged(f"aggregated parameters non-finite in round {t}")
            w = aggregated
            value = 0.0
            for p in parts:
                value += (len(p) / n) * loss(spec, w, train_ds.subset(p.sample_indices))
            if not math.isfinite(value):
                raise TrainingDiverged(f"global loss non-finite in round {t}")
            hits = np.argmax(forward(spec, w, test_ds.inputs), axis=1) == test_ds.labels
        rows.append(f"{t},{value!r},{int(hits.sum()) / len(test_ds)!r},"
                    f"{uplink},{k * (27 + 8 * w.shape[0])}")
    return "\n".join(rows) + "\n", w


def output_files(directory) -> dict[str, bytes]:
    """{path relative to directory: bytes} of every file under it, with the
    wall_time_s line of each summary.json left out: the one output a rerun
    does not repeat."""
    directory = Path(directory)
    files = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "summary.json":
                data = re.sub(rb'\n *"wall_time_s": [^\n]*', b"", data)
            files[path.relative_to(directory).as_posix()] = data
    return files


def _run(doc: dict, config: Path, out: Path) -> tuple[int, list[str]]:
    """`fedsparse run` on doc, written to config, into out: its exit code
    and stderr lines."""
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", str(config), "--out", str(out), "--quiet"])
    return code, err.getvalue().splitlines()


# The config key a sweep grid's rate fills for each policy kind; dense takes
# none and runs once per alpha at rate 1.0 (README, "Running experiments").
_RATE_KEY = {"top_k": "rate", "random": "rate", "threshold": "tau", "dense": None}


def _pivot_text(accuracies: dict) -> str:
    """sweep.txt from {(kind, rate, alpha): accuracy or None}: one block per
    kind in sorted order, a row per rate and a column per alpha, both sorted
    and labelled by repr, 4-decimal accuracies and - for a failed cell; a
    column is padded to 10 (rates) or 18 wide, or to its longest entry plus
    one, and each line is stripped on the right."""
    alphas = sorted({alpha for _, _, alpha in accuracies})
    blocks = []
    for kind in sorted({k for k, _, _ in accuracies}):
        rows = [["rate", *(f"alpha={alpha!r}" for alpha in alphas)]]
        for rate in sorted({r for k, r, _ in accuracies if k == kind}):
            values = [accuracies.get((kind, rate, alpha)) for alpha in alphas]
            rows.append([repr(rate), *("-" if v is None else f"{v:.4f}" for v in values)])
        blocks.append((kind, rows))
    table = [row for _, rows in blocks for row in rows]
    widths = [max(18 if column else 10, *(len(row[column]) + 1 for row in table))
              for column in range(len(alphas) + 1)]
    lines = []
    for kind, rows in blocks:
        lines.append(f"policy: {kind}")
        lines.extend("".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                     for row in rows)
        lines.append("")
    return "\n".join(lines)


def oracle_sweep(config, grid: dict) -> tuple[int, list[str], dict[str, bytes]]:
    """The exit code, stderr lines and output_files of `fedsparse sweep
    config --grid <grid> --quiet`, for a well-formed grid over a config
    whose input loads, built from `fedsparse run` calls only.

    If `run` on the config exits 1, the sweep gives its exit code and stderr
    and writes nothing. Otherwise the cells are the distinct (alpha, kind,
    rate) of the grid in alpha x policy x rate order, first appearance
    kept, a dense cell at rate 1.0; cell i is `run` on the config document
    with the cell's alpha and policy (the rate as a threshold's tau), and
    its three files go under cells/cell_{i:03d}. An ok cell is a sweep.csv
    row of reprs ending in ok; a failed cell a row ending ,,,failed and the
    stderr line `cell alpha=... policy=... rate=... failed: ` with the
    run's message after its `fedsparse: ...error: ` prefix. The exit code is
    0 with no cell failed, 2 with all failed and 3 otherwise."""
    doc = json.loads(Path(config).read_text())
    cells = []
    for alpha in grid["alpha"]:
        for kind in grid.get("policy", ["top_k"]):
            for rate in grid["rate"]:
                cell = (float(alpha), kind, float(rate) if _RATE_KEY[kind] else 1.0)
                if cell not in cells:
                    cells.append(cell)
    with tempfile.TemporaryDirectory() as tmp:
        code, stderr = _run(doc, Path(tmp, "base.json"), Path(tmp, "base"))
        if code == 1:
            return code, stderr, {}
        out = Path(tmp, "out")
        rows = ["alpha,policy,rate,final_accuracy,uplink_bytes,status"]
        accuracies = {}
        failed = []
        for i, (alpha, kind, rate) in enumerate(cells):
            key = _RATE_KEY[kind]
            policy = {"kind": kind, key: rate} if key else {"kind": kind}
            cell_out = out / "cells" / f"cell_{i:03d}"
            code, stderr = _run({**doc, "alpha": alpha, "policy": policy},
                                Path(tmp, f"cell_{i:03d}.json"), cell_out)
            if code == 0:
                summary = json.loads((cell_out / "summary.json").read_text())
                accuracy = summary["final_accuracy"]
                rows.append(f"{alpha!r},{kind},{rate!r},{accuracy!r},"
                            f"{summary['total_uplink_bytes']},ok")
            else:
                [line] = stderr
                message = re.fullmatch(r"fedsparse: (?:config )?error: (.*)", line)[1]
                failed.append(f"cell alpha={alpha} policy={kind} rate={rate} "
                              f"failed: {message}")
                accuracy = None
                rows.append(f"{alpha!r},{kind},{rate!r},,,failed")
            accuracies[kind, rate, alpha] = accuracy
        files = output_files(out)
    files["sweep.csv"] = ("\n".join(rows) + "\n").encode()
    files["sweep.txt"] = _pivot_text(accuracies).encode()
    code = 0 if not failed else 2 if len(failed) == len(cells) else 3
    return code, failed, files


def finite_diff_grad(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                     labels: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, (L(w + s*e_j) - L(w - s*e_j)) / 2s per coordinate.

    Test oracle; O(d) loss evaluations, use on small models only.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    params = np.asarray(params, dtype=np.float64)
    batch = Dataset(inputs, labels, spec.class_count)
    grad = np.zeros_like(params)
    work = params.copy()
    for j in range(params.shape[0]):
        orig = work[j]
        work[j] = orig + step
        up = loss(spec, work, batch)
        work[j] = orig - step
        down = loss(spec, work, batch)
        work[j] = orig
        grad[j] = (up - down) / (2.0 * step)
    return grad


# Lanczos g=7, n=9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.9189385332046727


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, Lanczos approximation."""
    if x <= 0:
        raise ValueError(f"log_gamma needs x > 0, got {x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    x -= 1.0
    series = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        series += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (x + 0.5) * math.log(t) - t + math.log(series)


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector; every entry strictly positive, length >= 2."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) < 2:
            raise ValueError("need at least two components")
        if any(a <= 0 for a in self.alpha):
            raise ValueError("every concentration must be > 0")

    @classmethod
    def symmetric(cls, alpha: float, k: int) -> "DirichletParams":
        return cls((float(alpha),) * k)


def sample_dirichlet(params: DirichletParams, rng_seed) -> np.ndarray:
    """Gamma-normalization draw: G_i ~ Gamma(alpha_i, 1), return G / sum(G)."""
    return _sample_proportions(params.alpha, np.random.default_rng(rng_seed))


def dirichlet_log_pdf(params: DirichletParams, x) -> float:
    """Log-density sum((alpha_i - 1) ln x_i) - ln B(alpha), with
    ln B(alpha) = sum(ln Gamma(alpha_i)) - ln Gamma(sum(alpha))."""
    alpha = np.asarray(params.alpha)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != alpha.shape:
        raise ValueError(f"x has shape {x.shape}, alpha has shape {alpha.shape}")
    if np.any(x < 0):
        raise ValueError("proportions must be nonnegative")
    if abs(x.sum() - 1.0) > 1e-9:
        raise ValueError(f"proportions sum to {x.sum()!r}, not 1 within 1e-9")
    if np.any((x == 0) & (alpha < 1)):
        raise ValueError("zero proportion with concentration < 1 has unbounded density")
    log_beta = sum(log_gamma(a) for a in alpha) - log_gamma(float(alpha.sum()))
    total = -log_beta
    for a, xi in zip(alpha, x):
        if a != 1.0:  # skip exponent-zero terms so x_i = 0 stays well-defined
            total += (a - 1.0) * math.log(xi) if xi > 0 else -math.inf
    return total


# README "Wire format (FSU1)": magic, version, dim, entry count, round,
# client id, little-endian; then m u32 indices and m f32 values.
_FSU1_HEADER = struct.Struct("<4sBQQIH")
_FSU1_HEADER_BYTES = 27


def decode(data: bytes) -> SparseUpdate:
    """Parse FSU1 bytes: the inverse of encode at float32 value precision.

    Raises ValueError naming the byte offset of the first problem: a
    truncated header, a bad magic, a version other than 1, a length other
    than 27 + 8m, an index >= dim or an index not above its predecessor.
    """
    if len(data) < _FSU1_HEADER_BYTES:
        raise ValueError(f"truncated header at offset {len(data)}: need "
                         f"{_FSU1_HEADER_BYTES} bytes, got {len(data)}")
    magic, version, dim, m, rnd, client_id = _FSU1_HEADER.unpack_from(data, 0)
    if magic != b"FSU1":
        raise ValueError(f"bad magic {magic!r} at offset 0, expected b'FSU1'")
    if version != 1:
        raise ValueError(f"unsupported version {version} at offset 4")
    expected = _FSU1_HEADER_BYTES + 8 * m
    if len(data) != expected:
        raise ValueError(f"payload length mismatch at offset {min(len(data), expected)}: "
                         f"expected {expected} bytes for {m} entries, got {len(data)}")
    indices = np.frombuffer(data, dtype="<u4", count=m,
                            offset=_FSU1_HEADER_BYTES).astype(np.int64)
    values = np.frombuffer(data, dtype="<f4", count=m,
                           offset=_FSU1_HEADER_BYTES + 4 * m).astype(np.float64)
    if m:
        if indices.max() >= dim:
            bad = int(np.argmax(indices >= dim))
            raise ValueError(f"index {indices[bad]} >= dim {dim} "
                             f"at offset {_FSU1_HEADER_BYTES + 4 * bad}")
        steps = np.diff(indices)
        if np.any(steps <= 0):
            bad = int(np.argmax(steps <= 0)) + 1
            raise ValueError(f"non-increasing index at offset {_FSU1_HEADER_BYTES + 4 * bad}")
    return SparseUpdate(dim, indices, values, round=rnd, client_id=client_id)


def update_fields(u: SparseUpdate) -> tuple:
    """(dim, round, client_id, indices, values) as plain Python values, so
    two updates compare field by field with == and a mismatch prints."""
    return u.dim, u.round, u.client_id, u.indices.tolist(), u.values.tolist()
