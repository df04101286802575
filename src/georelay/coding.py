"""Regenerating-code parameterization, encoding and reconstructability checks.

A code instance distributes M source files over N nodes, each storing
``per_node_files`` (alpha) linear combinations over a finite field. The
encoder is one (N alpha) x M Vandermonde matrix on the distinct field
points 0 .. N alpha - 1: row r is (1, r, r^2, ..., r^(M-1)), and node n
stores rows n alpha .. (n+1) alpha - 1. Any M of these rows form a square
Vandermonde matrix whose determinant, the product of the differences of its
points, is nonzero, so any M stored symbols are independent. Any K nodes,
and any download that takes a prefix of each node's symbols and M of them
in all, therefore recover the source by construction; this needs a field of
at least N alpha elements. Regenerating a failed node takes
``per_helper_files`` (beta) from each of ``repair_d`` (D) helpers, which
:func:`validate_params` checks against the cut-set bound (Dimakis et al.,
IEEE T-IT 2010); :func:`code_point` gives the closed-form alpha and beta at
either end of that bound. No function here executes a repair.

The generator depends only on N alpha, M and the field, so it is built once
per code and process (:func:`_generator`, a least-recently-used cache of
``GENERATOR_CACHE_SIZE`` codes) and marked read-only: every store of a code
shares it, and its ``encoders`` are read-only views of it. ``encode`` refuses
a generator of more than ``MAX_GENERATOR_ENTRIES`` entries, so the cache
holds at most ``GENERATOR_CACHE_SIZE`` x 2^20 int64 entries, 64 MiB, beyond
the stores that still use them; the N = 40, GF(761) code's takes 2.3 MB.

Every symbol position of a file set is decoded over the same download
pattern, so :func:`reconstruct` keeps a decoder per pattern. It is keyed by
the field order and the full content of the stacked r x M system A (its
shape and bytes), so the stores of one code share it, and a hand-built
store gets one only for its own rows. A pattern's first decode runs
``GaloisField.solve`` and records its elimination: the row operations of
its M pivots, which depend on A alone. That record is the decoder, built at
no extra elimination. Every later decode replays it on the downloaded
symbols b (``GaloisField.replay``): M scaled vector updates, with no pivot
search, that leave x over r - M entries which are all zero exactly when b
is consistent. ``solve`` refuses a rank-deficient A, so such a pattern is
never cached and every decode of it raises what ``solve`` raises. The cache
is least-recently-used and holds at most ``DECODER_CACHE_ENTRIES`` int64
entries, 2 r M per pattern for its key and its factors, 16 MiB; a larger
pattern is decoded by ``solve`` each time, unrecorded. The N = 40 code's
K-node pattern takes 288,800 entries, 2.3 MB.
"""

from __future__ import annotations

import enum
import functools
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalError, SingularSystemError
from .gf import GaloisField, galois_field

# entries of the N alpha x M generator a code may need: near 2^20, a cold code-check takes
# about 1.6 s at 67 MB on a 2-vCPU host, and its time grows about as the entries^1.5
MAX_GENERATOR_ENTRIES = 2**20
# distinct codes whose generators stay cached; the benchmark's coding mix uses three
GENERATOR_CACHE_SIZE = 8
# int64 entries of decoded patterns' keys and recorded factors that stay cached: the
# N = 40 code's K-node pattern takes 288,800, the benchmark's coding mix 27,472 in all
DECODER_CACHE_ENTRIES = 2**21


class OperatingPoint(enum.Enum):
    MSR = "msr"
    MBR = "mbr"


@dataclass(frozen=True)
class RegenParams:
    n_files: int
    n_nodes: int
    reconstruct_k: int
    repair_d: int
    per_node_files: int
    per_helper_files: int
    file_bits: float = 1.6e8

    def __post_init__(self):
        counts = (
            self.n_files,
            self.n_nodes,
            self.reconstruct_k,
            self.repair_d,
            self.per_node_files,
            self.per_helper_files,
        )
        if any(int(c) != c or c < 1 for c in counts):
            raise ValueError("all code counts must be integers >= 1")
        if self.file_bits <= 0:
            raise ValueError("file size must be positive")


@dataclass(frozen=True)
class ParamReport:
    ok: bool
    violations: tuple[str, ...]
    capacity_sum: int


def validate_params(p: RegenParams) -> ParamReport:
    """Check, report-style, that D helpers sending beta files each can regenerate a node.

    That needs K <= D <= N - 1, and M at most the cut-set capacity
    sum_{i<K} min(alpha, (D - i) beta).
    """
    violations = []
    if not p.reconstruct_k <= p.repair_d <= p.n_nodes - 1:
        violations.append(
            f"need K <= D <= N-1, got K={p.reconstruct_k}, D={p.repair_d}, N={p.n_nodes}"
        )
    cap = sum(
        min(p.per_node_files, (p.repair_d - i) * p.per_helper_files)
        for i in range(p.reconstruct_k)
    )
    if p.n_files > cap:
        violations.append(f"M={p.n_files} exceeds the cut-set capacity {cap}")
    return ParamReport(not violations, tuple(violations), cap)


@dataclass(frozen=True)
class CodePoint:
    per_node_files: Fraction
    per_helper_files: Fraction
    repair_bandwidth: Fraction


def code_point(point: OperatingPoint | str, n_files: int, k: int, d: int) -> CodePoint:
    """The minimum-storage or minimum-repair-bandwidth operating point for (M, K, D), in exact rationals.

    At either point, integral alpha and beta meet the cut-set bound of
    :func:`validate_params` with equality: its capacity sum is M.
    """
    if k > d:
        raise ValueError("need K <= D")
    if OperatingPoint(point) is OperatingPoint.MSR:
        gamma = Fraction(n_files * d, (d - k + 1) * k)
        return CodePoint(Fraction(n_files, k), gamma / d, gamma)
    gamma = Fraction(2 * n_files * d, 2 * k * d - k * k + k)
    return CodePoint(gamma, gamma / d, gamma)


@dataclass(frozen=True)
class CodedStore:
    """Encoded state: per-node encoding matrices and stored payloads.

    ``attempts`` is always 1: the construction needs no redraw.
    """

    field: GaloisField
    params: RegenParams
    source: np.ndarray
    encoders: tuple[np.ndarray, ...]
    payloads: tuple[np.ndarray, ...]
    attempts: int = 1


def _integers(values, high: int, what: str) -> np.ndarray:
    """``values`` as int64, refused unless every one is an integer in [0, high]."""
    raw = np.asarray(values)
    # a NaN fails both comparisons, and nothing out of range reaches the cast
    if not ((raw >= 0) & (raw <= high)).all():
        raise ValueError(f"{what} must lie in [0, {high}]")
    out = raw.astype(np.int64)
    if (out != raw).any():
        raise ValueError(f"{what} must be integers")
    return out


@functools.lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _generator(rows: int, m: int, field_order: int) -> np.ndarray:
    """The read-only ``rows`` x M Vandermonde matrix on the field points 0 .. rows - 1."""
    field = galois_field(field_order)
    # columns [k, 2k) are columns [0, k) times points^k: ceil(log2 M) block products
    power = np.arange(rows, dtype=np.int64)[:, None]
    vandermonde = np.ones((rows, m), dtype=np.int64)
    k = 1
    while k < m:
        width = min(k, m - k)
        vandermonde[:, k : k + width] = field.mul(vandermonde[:, :width], power)
        power = field.mul(power, power)
        k *= 2
    vandermonde.setflags(write=False)
    return vandermonde


def encode(params: RegenParams, field_order: int = 256, seed: int = 0, source=None) -> CodedStore:
    """Store ``source`` (M field elements; drawn from ``seed`` when None) under the Vandermonde code."""
    m, n, alpha = params.n_files, params.n_nodes, params.per_node_files
    if alpha * n < m:
        raise ValueError("total stored files cannot cover the source")
    if alpha * n > field_order:
        raise ValueError(f"{alpha * n} stored symbols need a field of order >= {alpha * n}, got {field_order}")
    if alpha * n * m > MAX_GENERATOR_ENTRIES:
        raise ValueError(f"a {alpha * n} x {m} generator exceeds the bound of {MAX_GENERATOR_ENTRIES} entries")
    field = galois_field(field_order)
    if source is None:
        source = np.random.default_rng(seed).integers(0, field_order, size=m, dtype=np.int64)
    else:
        if np.shape(source) != (m,):
            raise ValueError("source must be M field elements")
        source = _integers(source, field_order - 1, f"source symbols over GF({field_order})")
    vandermonde = _generator(alpha * n, m, field_order)
    stored = field.matmul(vandermonde, source.reshape(-1, 1)).reshape(-1)
    encoders = tuple(vandermonde[i * alpha : (i + 1) * alpha].T for i in range(n))
    payloads = tuple(stored[i * alpha : (i + 1) * alpha] for i in range(n))
    return CodedStore(field, params, source, encoders, payloads)


def _download_counts(store: CodedStore, mu) -> np.ndarray:
    """``mu`` as per-node integer download counts, one per node, each in [0, per_node_files]."""
    mu = np.asarray(mu)
    if mu.shape != (store.params.n_nodes,):
        raise ValueError(f"expected {store.params.n_nodes} download counts")
    return _integers(mu, store.params.per_node_files, "download counts")


def check_mu_reconstructable(store: CodedStore, mu) -> bool:
    """True iff the per-node download counts allow exact source recovery."""
    mu = _download_counts(store, mu)
    if int(mu.sum()) < store.params.n_files:
        return False
    stacked = np.hstack([h[:, :c] for h, c in zip(store.encoders, mu) if c])
    return store.field.rank(stacked) == store.params.n_files


def downloads_for(store: CodedStore, mu) -> list[np.ndarray]:
    """Symbols each node transmits for the given download counts: its first ``mu[n]``."""
    mu = _download_counts(store, mu)
    return [payload[:c].copy() for payload, c in zip(store.payloads, mu)]


class _DecoderCache:
    """Least-recently-used map from a download pattern's key to the elimination ``solve`` recorded for it.

    A key is ``(field order, A's shape, A's bytes)``, and a pattern of r x M
    holds 2 r M int64 entries: its key and M factor columns of r. ``entries``
    counts them and never exceeds ``max_entries``. It takes no lock: nothing
    in the package decodes from more than one thread.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self.entries = 0
        self._items: OrderedDict[tuple, tuple] = OrderedDict()

    @staticmethod
    def size(key: tuple) -> int:
        rows, cols = key[1]
        return 2 * rows * cols

    def get(self, key: tuple) -> tuple | None:
        steps = self._items.get(key)
        if steps is not None:
            self._items.move_to_end(key)
        return steps

    def put(self, key: tuple, steps: tuple) -> None:
        """Keep ``steps`` for ``key``, a new key no larger than the bound, evicting the least recent."""
        self.entries += self.size(key)
        while self.entries > self.max_entries:
            old_key, _ = self._items.popitem(last=False)
            self.entries -= self.size(old_key)
        self._items[key] = steps

    def clear(self) -> None:
        self._items.clear()
        self.entries = 0


_DECODERS = _DecoderCache(DECODER_CACHE_ENTRIES)


def reconstruct(store: CodedStore, downloads) -> np.ndarray:
    """Recover the source symbols from per-node downloaded symbol vectors.

    Node n's download is its first ``len(downloads[n])`` stored symbols.
    Raises ``ValueError`` unless there is one download per node, each of at
    most ``per_node_files`` symbols, every one a field element in [0, q).
    Raises :class:`SingularSystemError` when the downloads do not determine
    the source uniquely. A download of r < M symbols is refused by its size,
    before any elimination, with the message ``GaloisField.solve`` gives:
    ``rank r < M unknowns; solution not unique``. For a store that
    :func:`encode` built, r is that rank: the downloaded rows are r distinct
    rows of one Vandermonde matrix, and any r <= M of those are independent.
    A download of M or more symbols fills its system A in one pass over the
    nodes, and the solution is checked against that system.

    The system is decoded through the module's decoder cache, keyed by the
    field order and A's shape and bytes. A pattern's first decode runs
    ``GaloisField.solve``, which records its row operations; one that
    succeeds keeps that record as the pattern's decoder, and every later
    decode replays it on the downloaded symbols, with no elimination. A tall
    download whose symbols the replay finds inconsistent raises ``solve``'s
    ``inconsistent linear system``. A rank-deficient A always goes to
    ``solve``. The exceptions are those ``solve`` raises, and a nonzero
    residual raises :class:`InternalError` on every path.
    """
    counts = _download_counts(store, [len(d) for d in downloads])
    m, q = store.params.n_files, store.field.order
    b = _integers(np.concatenate(downloads), q - 1, f"symbols downloaded over GF({q})")
    if b.size < m:
        raise SingularSystemError(f"rank {b.size} < {m} unknowns; solution not unique")
    a = np.empty((b.size, m), dtype=np.int64)
    r = 0
    for h, c in zip(store.encoders, counts):
        a[r : r + c] = h[:, :c].T
        r += c
    key = (q, a.shape, a.tobytes())
    steps = _DECODERS.get(key)
    if steps is None:
        steps = [] if _DECODERS.size(key) <= _DECODERS.max_entries else None
        solution = store.field.solve(a, b, steps)
        if steps is not None:
            _DECODERS.put(key, tuple(steps))
    else:
        reduced = store.field.replay(steps, b)
        if reduced[m:].any():
            raise SingularSystemError("inconsistent linear system")
        solution = reduced[:m]
    if not np.array_equal(
        store.field.matmul(a, solution.reshape(-1, 1)).reshape(-1), b
    ):
        raise InternalError("reconstruction residual nonzero")
    return solution
