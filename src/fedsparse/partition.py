"""Dirichlet sampling and label-skew dataset partitioning.

Client heterogeneity is simulated the usual way: for every class, a
proportion vector over the clients is drawn from a symmetric Dirichlet
with concentration alpha, and that class's samples are dealt out
accordingly. Small alpha concentrates each class on few clients; large
alpha approaches a balanced split.

The Gamma/Dirichlet sampler is implemented here rather than taken from a
library: Gamma variates via the Marsaglia-Tsang squeeze method (with the
u^(1/a) boost for shape < 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _gamma_draw(shape: float, rng: np.random.Generator) -> float:
    """One Gamma(shape, 1) variate, Marsaglia-Tsang."""
    if shape < 1.0:
        # boost: G(a) = G(a+1) * U^(1/a)
        g = _gamma_draw(shape + 1.0, rng)
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return g * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.random()
        if u < 1.0 - 0.0331 * x ** 4:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


# A draw whose Gammas all underflow to 0 is redrawn. Each try costs one
# variate per client, so the cap is on variates: the chance that a tiny
# alpha gives up then depends on alpha alone, not on the client count.
_MAX_VARIATES = 30_000

# The smallest alpha a config accepts. A Gamma(alpha) variate underflows to
# 0 when it falls below the least subnormal double, about e^-744; for small
# alpha that happens with probability about e^(-744 * alpha). The cap above
# allows 30,000 variates per class, so a class gives up with probability
# about exp(-744 * alpha * 30,000): 0.1 at alpha 1e-7, 1e-97 at 1e-5.
MIN_ALPHA = 1e-5


def _sample_proportions(alpha, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet(alpha) draw by Gamma normalization: G_i ~ Gamma(alpha_i, 1),
    returned as G / sum(G)."""
    tries = max(1, _MAX_VARIATES // len(alpha))
    for _ in range(tries):
        gammas = np.array([_gamma_draw(a, rng) for a in alpha])
        total = gammas.sum()
        if total != 0.0:
            return gammas / total
    raise ValueError(f"alpha: {min(alpha)!r} is too small, every Gamma draw "
                     f"underflowed to 0 in {tries} tries")


@dataclass
class Partition:
    """One client's slice of a dataset: indices into it."""

    client_id: int
    sample_indices: np.ndarray

    def __post_init__(self):
        self.sample_indices = np.asarray(self.sample_indices, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.sample_indices.shape[0])


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total`, proportional to quotas.

    Floor first, then hand the leftovers to the largest remainders
    (ties toward the lower client index).
    """
    base = np.floor(quotas).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = quotas - base
        order = np.lexsort((np.arange(len(quotas)), -remainders))
        base[order[:leftover]] += 1
    return base


def partition_dataset(labels, n_clients: int, alpha: float, rng_seed) -> list[Partition]:
    """Label-skew split of a dataset (given by its label array) across clients.

    Per class, draw client proportions from Dir(alpha * ones(n_clients)),
    shuffle that class's sample positions, and deal them out with
    largest-remainder rounding. Clients that end up empty are repaired by
    moving one sample at a time from the currently largest client.
    Deterministic given rng_seed.
    """
    labels = np.asarray(labels)
    if n_clients < 1:
        raise ValueError("need at least one client")
    if labels.shape[0] < n_clients:
        raise ValueError(
            f"dataset has {labels.shape[0]} samples, fewer than {n_clients} clients"
        )
    if not (0 < alpha < math.inf):
        raise ValueError("alpha must be finite and > 0")
    rng = np.random.default_rng(rng_seed)
    per_client: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for cls in sorted(set(labels.tolist())):  # not np.unique: see data.train_test_split
        cls_idx = np.flatnonzero(labels == cls)
        props = _sample_proportions((alpha,) * n_clients, rng)
        shuffled = rng.permutation(cls_idx)
        counts = _largest_remainder(props * cls_idx.shape[0], cls_idx.shape[0])
        start = 0
        for cid in range(n_clients):
            per_client[cid].append(shuffled[start:start + counts[cid]])
            start += counts[cid]
    assignments = [
        np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
        for chunks in per_client
    ]
    _repair_empty(assignments)
    return [Partition(cid, idx) for cid, idx in enumerate(assignments)]


def _repair_empty(assignments: list[np.ndarray]) -> None:
    """Move single samples from the largest client until none is empty."""
    while True:
        sizes = np.array([a.shape[0] for a in assignments])
        empty = np.flatnonzero(sizes == 0)
        if empty.size == 0:
            return
        donor = int(np.argmax(sizes))
        taker = int(empty[0])
        assignments[taker] = assignments[donor][-1:]
        assignments[donor] = assignments[donor][:-1]
