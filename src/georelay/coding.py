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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalError, SingularSystemError
from .gf import GaloisField, galois_field


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


def encode(params: RegenParams, field_order: int = 256, seed: int = 0, source=None) -> CodedStore:
    """Store ``source`` (M field elements; drawn from ``seed`` when None) under the Vandermonde code."""
    m, n, alpha = params.n_files, params.n_nodes, params.per_node_files
    if alpha * n < m:
        raise ValueError("total stored files cannot cover the source")
    if alpha * n > field_order:
        raise ValueError(f"{alpha * n} stored symbols need a field of order >= {alpha * n}, got {field_order}")
    field = galois_field(field_order)
    if source is None:
        source = np.random.default_rng(seed).integers(0, field_order, size=m, dtype=np.int64)
    else:
        source = np.asarray(source, dtype=np.int64)
        if source.shape != (m,) or np.any(source < 0) or np.any(source >= field_order):
            raise ValueError("source must be M field elements")
    # columns [k, 2k) are columns [0, k) times points^k: ceil(log2 M) block products
    power = np.arange(alpha * n, dtype=np.int64)[:, None]
    vandermonde = np.ones((alpha * n, m), dtype=np.int64)
    k = 1
    while k < m:
        width = min(k, m - k)
        vandermonde[:, k : k + width] = field.mul(vandermonde[:, :width], power)
        power = field.mul(power, power)
        k *= 2
    stored = field.matmul(vandermonde, source.reshape(-1, 1)).reshape(-1)
    encoders = tuple(vandermonde[i * alpha : (i + 1) * alpha].T for i in range(n))
    payloads = tuple(stored[i * alpha : (i + 1) * alpha] for i in range(n))
    return CodedStore(field, params, source, encoders, payloads)


def _selected_columns(store: CodedStore, mu):
    """Per-node encoding columns of the first ``mu[n]`` stored symbols of node n."""
    mu = np.asarray(mu, dtype=int)
    p = store.params
    if mu.shape != (p.n_nodes,):
        raise ValueError(f"expected {p.n_nodes} download counts")
    if np.any(mu < 0) or np.any(mu > p.per_node_files):
        raise ValueError("download counts must lie in [0, per_node_files]")
    return mu, [h[:, : mu[i]] for i, h in enumerate(store.encoders)]


def check_mu_reconstructable(store: CodedStore, mu) -> bool:
    """True iff the per-node download counts allow exact source recovery."""
    mu, blocks = _selected_columns(store, mu)
    if int(mu.sum()) < store.params.n_files:
        return False
    stacked = np.hstack([b for b in blocks if b.shape[1]])
    return store.field.rank(stacked) == store.params.n_files


def downloads_for(store: CodedStore, mu) -> list[np.ndarray]:
    """Symbols each node transmits for the given download counts: its first ``mu[n]``."""
    mu, _ = _selected_columns(store, mu)
    return [payload[: mu[i]].copy() for i, payload in enumerate(store.payloads)]


def reconstruct(store: CodedStore, downloads) -> np.ndarray:
    """Recover the source symbols from per-node downloaded symbol vectors.

    Raises :class:`SingularSystemError` when the downloads do not determine
    the source uniquely.
    """
    mu = np.array([len(d) for d in downloads], dtype=int)
    mu, blocks = _selected_columns(store, mu)
    rows = [b.T for b in blocks if b.shape[1]]
    if not rows:
        raise SingularSystemError("no symbols downloaded")
    a = np.vstack(rows)
    b = np.concatenate([np.asarray(d, dtype=np.int64) for d in downloads if len(d)])
    solution = store.field.solve(a, b)
    if not np.array_equal(
        store.field.matmul(a, solution.reshape(-1, 1)).reshape(-1), b
    ):
        raise InternalError("reconstruction residual nonzero")
    return solution

