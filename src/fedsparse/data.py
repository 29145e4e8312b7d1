"""Desk-scale data sources: synthetic Gaussian blobs, CSV in/out,
feature normalization, and stratified train/test splitting.

CSV interchange format: UTF-8, comma-separated, no header by default,
input_dim finite float feature columns followed by one integer label column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SyntheticDataConfig


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-d matrix")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} input rows but {self.labels.shape[0]} labels"
            )
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError(f"labels must lie in [0, {self.class_count})")

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.inputs.shape[1])

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.inputs[indices], self.labels[indices], self.class_count)


def gen_synthetic(classes: int, per_class: int, input_dim: int,
                  separation: float, rng_seed) -> Dataset:
    """Isotropic unit-variance Gaussian blobs.

    Class c is centered at separation * u_c. The directions u_c are
    orthonormal when input_dim >= classes (QR of a seeded Gaussian
    matrix), otherwise plain normalized Gaussian directions.
    """
    SyntheticDataConfig(classes, per_class, input_dim, separation)  # range checks
    rng = np.random.default_rng(rng_seed)
    raw = rng.standard_normal((input_dim, classes)) if input_dim >= classes else None
    if raw is not None:
        q, _ = np.linalg.qr(raw)
        directions = q.T[:classes]
    else:
        directions = rng.standard_normal((classes, input_dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    inputs = np.empty((classes * per_class, input_dim))
    labels = np.empty(classes * per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * per_class, (c + 1) * per_class)
        inputs[block] = separation * directions[c] + rng.standard_normal((per_class, input_dim))
        labels[block] = c
    order = rng.permutation(classes * per_class)
    return Dataset(inputs[order], labels[order], classes)


def load_csv(path, input_dim: int, class_count: int, skip_header: bool = False) -> Dataset:
    """Parse a feature/label CSV; errors carry the 1-based line number."""
    inputs = []
    labels = []
    # non-UTF-8 bytes pass as surrogates here; the strict re-decode below names their line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != input_dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {input_dim + 1} columns, got {len(cells)}"
                )
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
                row = [float(c) for c in cells[:-1]]
                label = int(cells[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(x) for x in row):
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            if not (0 <= label < class_count):
                raise ValueError(
                    f"{path}:{lineno}: label {label} outside [0, {class_count})"
                )
            inputs.append(row)
            labels.append(label)
    if not inputs:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(inputs), np.array(labels), class_count)


def csv_text(ds: Dataset) -> str:
    """The dataset in the CSV interchange format that load_csv reads."""
    return "".join(",".join(repr(float(x)) for x in row) + f",{int(label)}\n"
                   for row, label in zip(ds.inputs, ds.labels))


def normalize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Both sets scaled to the zero-mean unit-variance features of train;
    a feature constant in train goes to zero."""
    if len(train) < 2:
        raise ValueError("normalize needs at least two samples")
    mean = train.inputs.mean(axis=0)
    std = train.inputs.std(axis=0)
    scale = np.where(std == 0.0, 1.0, std)
    return tuple(Dataset((ds.inputs - mean) / scale, ds.labels, ds.class_count)
                 for ds in (train, test))


def train_test_split(ds: Dataset, test_fraction: float,
                     rng_seed) -> tuple[Dataset, Dataset]:
    """Stratified split: each class contributes round(fraction * count)
    test samples (at least one stays in train, so a class with a single
    sample is kept in train, silently). Deterministic given seed."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(rng_seed)
    test_idx = []
    train_idx = []
    # sorted(set(...)) rather than np.unique, whose first call imports
    # numpy.ma (about 1.2 MiB resident) for one is_masked check
    for cls in sorted(set(ds.labels.tolist())):
        cls_idx = rng.permutation(np.flatnonzero(ds.labels == cls))
        n_cls = cls_idx.shape[0]
        n_test = int(np.floor(test_fraction * n_cls + 0.5))
        n_test = min(n_test, n_cls - 1)  # keep the class represented in train
        test_idx.append(cls_idx[:n_test])
        train_idx.append(cls_idx[n_test:])
    train = np.sort(np.concatenate(train_idx))
    if not test_idx or sum(t.shape[0] for t in test_idx) == 0:
        raise ValueError("test_fraction too small: empty test split")
    test = np.sort(np.concatenate(test_idx))
    return ds.subset(train), ds.subset(test)
