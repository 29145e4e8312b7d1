"""Update sparsification, the sparse-update container, and its wire encoder.

`sparsify` returns the indices a policy keeps; the caller builds the
SparseUpdate that goes on the wire from them. Three ways to shrink a
dense update vector before upload:

* top_k      -- keep the max(1, ceil(K*d)) coordinates of largest magnitude
* threshold  -- keep every coordinate with |v| >= tau (may keep none)
* random     -- keep a uniformly chosen subset of max(1, ceil(K*d)) coordinates

plus a pass-through "dense" policy. top_k selects without sorting:
np.partition finds the m-th largest magnitude, every entry strictly
above it is kept, and entries equal to it fill the remaining slots in
ascending index order. The retained set is therefore exactly the first
m positions of a stable magnitude-descending sort, so results are
reproducible.

The binary wire format ("FSU1") is the byte-accounting contract: header of
27 bytes (magic, version, dim, entry count, round, client id, all
little-endian) followed by 4-byte unsigned indices and 4-byte IEEE-754
single-precision values, 8 bytes per retained entry. Values are stored at
32-bit precision on the wire; in-memory updates keep float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"FSU1"
WIRE_VERSION = 1
HEADER_BYTES = 27  # 4 magic + 1 version + 8 dim + 8 count + 4 round + 2 client_id
BYTES_PER_ENTRY = 8  # 4-byte index + 4-byte float32 value
MAX_INDEX = 2 ** 32 - 1  # u32 index field: a model has at most MAX_INDEX + 1 params
MAX_ROUND = 2 ** 32 - 1  # u32 round field
MAX_CLIENT_ID = 2 ** 16 - 1  # u16 client id field

_HEADER = struct.Struct("<4sBQQIH")


@dataclass(eq=False)
class SparseUpdate:
    """Index/value pairs of a sparsified length-`dim` vector.

    Indices are strictly increasing and < dim. `round` and `client_id`
    tag the update's origin and travel on the wire. Equality is identity:
    the tests compare fields.
    """

    dim: int
    indices: np.ndarray
    values: np.ndarray
    round: int = 0
    client_id: int = 0

    def __post_init__(self):
        self.dim = int(self.dim)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        if self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValueError("indices and values must be 1-d")
        if self.indices.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"{self.indices.shape[0]} indices but {self.values.shape[0]} values"
            )
        i = self.indices
        if i.size:
            if i.min() < 0 or i.max() >= self.dim:
                raise ValueError("indices must lie in [0, dim)")
            if not (i[1:] > i[:-1]).all():
                raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.indices.shape[0])


# The parameter each policy kind takes; dense takes none.
POLICY_PARAM = {"top_k": "rate", "threshold": "tau", "random": "rate", "dense": None}
POLICY_KINDS = tuple(POLICY_PARAM)


@dataclass(frozen=True)
class SparsityPolicy:
    """Which sparsifier to run and with what parameter.

    kind "top_k" and "random" take `rate` (the retained fraction K in
    (0, 1]); kind "threshold" takes `tau` (>= 0); kind "dense" keeps
    everything and takes neither. Errors read "field: constraint".
    """

    kind: str
    rate: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError("kind: must be one of " + ", ".join(map(repr, POLICY_KINDS)))
        takes = POLICY_PARAM[self.kind]
        for name in ("rate", "tau"):
            given = getattr(self, name) is not None
            if name == takes and not given:
                raise ValueError(f"{name}: is required for {self.kind}")
            if name != takes and given:
                raise ValueError(f"{name}: {self.kind} takes "
                                 + (f"only {takes}" if takes else "no parameters"))
        if self.rate is not None:
            _check_rate(self.rate)
        if self.tau is not None and not math.isfinite(self.tau):
            raise ValueError("tau: must be finite")
        if self.tau is not None and not self.tau >= 0.0:
            raise ValueError("tau: must be >= 0")


def _check_rate(rate: float) -> None:
    if not (0.0 < rate <= 1.0):
        raise ValueError("rate: must be in (0, 1]")


def retained_count(rate: float, dim: int) -> int:
    """max(1, ceil(rate*dim)), with a small slack so that e.g. 0.1 * 1000
    (which rounds up to 100.00000000000001 in binary) still yields 100."""
    _check_rate(rate)
    return max(1, math.ceil(rate * dim - 1e-9))


def sparsify(v, policy: SparsityPolicy, rng_seed=None) -> np.ndarray:
    """Ascending int64 indices of the entries of v that `policy` keeps,
    by the rules in the module docstring; only "random" reads `rng_seed`.

    Top-k: without a tie at the cut, |v| >= kth already holds for exactly
    m entries; otherwise the lowest-index ties fill the remaining slots.
    """
    if policy.kind == "random" and rng_seed is None:
        raise ValueError("random policy needs an rng_seed")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if np.isnan(v).any():
        raise ValueError("vector contains NaN")
    d = v.shape[0]
    if policy.kind == "threshold":
        return np.flatnonzero(np.abs(v) >= policy.tau)
    m = d if policy.kind == "dense" else retained_count(policy.rate, d)
    if m == d:
        return np.arange(d)
    if policy.kind == "random":
        return np.sort(np.random.default_rng(rng_seed).choice(d, size=m, replace=False))
    mag = np.abs(v)
    kth = np.partition(mag, d - m)[d - m]
    keep = np.flatnonzero(mag >= kth)
    if keep.shape[0] > m:
        mask = mag > kth
        ties = np.flatnonzero(mag == kth)
        mask[ties[:m - np.count_nonzero(mask)]] = True
        keep = np.flatnonzero(mask)
    return keep


def densify(u: SparseUpdate) -> np.ndarray:
    """Length-dim vector with u.values scattered at u.indices, zeros elsewhere."""
    out = np.zeros(u.dim)
    out[u.indices] = u.values
    return out


def encoded_size(entry_count: int) -> int:
    return HEADER_BYTES + BYTES_PER_ENTRY * entry_count


def encode(u: SparseUpdate) -> bytes:
    """Serialize to the FSU1 wire format. Values are rounded to float32."""
    m = len(u)
    if u.dim >= 2 ** 64:
        raise ValueError("dim does not fit the 8-byte wire field")
    if m and int(u.indices[-1]) > MAX_INDEX:
        raise ValueError("index does not fit the 4-byte wire field")
    if not (0 <= u.round <= MAX_ROUND):
        raise ValueError("round does not fit the 4-byte wire field")
    if not (0 <= u.client_id <= MAX_CLIENT_ID):
        raise ValueError("client_id does not fit the 2-byte wire field")
    header = _HEADER.pack(MAGIC, WIRE_VERSION, u.dim, m, u.round, u.client_id)
    # a finite value beyond float32 range goes on the wire as +-inf, unwarned
    with np.errstate(over="ignore"):
        values = u.values.astype("<f4")
    return header + u.indices.astype("<u4").tobytes() + values.tobytes()
