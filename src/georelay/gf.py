"""Finite-field arithmetic on numpy integer arrays.

Two field families are supported: GF(2^8) under the AES reduction polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B, log tables built on the primitive element
0x03), and prime fields GF(p) under modular arithmetic. Elements are stored
as int64 arrays; all operations are elementwise unless noted. GF(2^8)
multiplies by one fancy index into a 256 x 256 uint8 product table (64 KiB)
built from the exp/log tables, and its matrix product xor-reduces the table
entries of every (a_ik, b_kj) pair over k. A prime field's matrix product is
``(a @ b) % p``, exact in int64 while the inner dimension times (p - 1)^2
stays below 2^63: at least 2^23 terms for p <= 2^20, where a code needs
N alpha <= p.

Elimination brings a copy to row echelon form, one routine for both
families. Per pivot it scales the pivot row by the pivot's inverse, a
scalar, and clears only the trailing block below and right of the pivot
with one fused in-place update: GF(2^8) xors in the products read off its
product table (the rows of the column's factors, then their entries at the
pivot row's values), and GF(p) subtracts the outer product, then reduces
once. Before that reduction an entry lies in [-(p - 1)^2, p - 1], a span of
(p - 1)^2 + (p - 1) < 2^63 for p <= 2^20, so the update is exact in int64.
``solve`` back-substitutes on the unit upper-triangular block of the
echelon form, with one such update per unknown.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError

AES_POLY = 0x11B
AES_GENERATOR = 0x03
# largest prime-field order whose products stay exact in int64
MAX_PRIME_ORDER = 2**20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class GaloisField:
    """Order-q field; use :func:`galois_field` to construct."""

    def __init__(self, order: int):
        self.order = order

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def matmul(self, a, b):
        """Matrix product over the field."""
        raise NotImplementedError

    def _normalize(self, row: np.ndarray) -> None:
        """Scale ``row`` in place by the scalar inverse of its nonzero first entry."""
        raise NotImplementedError

    def _sub_outer(self, block: np.ndarray, col: np.ndarray, row: np.ndarray) -> None:
        """``block -= col row^T`` over the field, in place and in one fused step."""
        raise NotImplementedError

    def _eliminate(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Row echelon form of a copy, and its pivot columns.

        Each pivot is 1 and has zeros below it; entries above pivots are not
        cleared. A pivot scales its row from the pivot on and clears only the
        trailing block below and right of it, in one :meth:`_sub_outer`.
        """
        m = np.array(m, dtype=np.int64)
        rows, cols = m.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            hits = m[r:, c].nonzero()[0]
            if hits.size == 0:
                continue
            p = int(hits[0]) + r
            if p != r:
                m[[r, p], c:] = m[[p, r], c:]
            self._normalize(m[r, c:])
            self._sub_outer(m[r + 1 :, c + 1 :], m[r + 1 :, c], m[r, c + 1 :])
            m[r + 1 :, c] = 0
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self, m) -> int:
        m = np.asarray(m, dtype=np.int64)
        if m.size == 0:
            return 0
        _, pivots = self._eliminate(m)
        return len(pivots)

    def solve(self, a, b):
        """Solve a x = b exactly for a (possibly tall) consistent full-rank system.

        Once both checks pass, the echelon form of ``[a | b]`` holds a unit
        upper-triangular block on the unknowns. Back substitution runs from
        the last unknown up, each taking its value out of the rows above it
        with one :meth:`_sub_outer`.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
        if a.shape[0] != b.shape[0]:
            raise ValueError("row counts disagree")
        n_unknowns = a.shape[1]
        aug, pivots = self._eliminate(np.hstack([a, b]))
        if any(p == n_unknowns for p in pivots):
            raise SingularSystemError("inconsistent linear system")
        if len(pivots) < n_unknowns:
            raise SingularSystemError(
                f"rank {len(pivots)} < {n_unknowns} unknowns; solution not unique"
            )
        x = aug[:n_unknowns, n_unknowns:].copy()
        for r in range(n_unknowns - 1, 0, -1):
            self._sub_outer(x[:r], aug[:r, r], x[r])
        return x.reshape(-1)


class PrimeField(GaloisField):
    def __init__(self, order: int):
        if order > MAX_PRIME_ORDER:
            raise ValueError("prime field order too large for int64 arithmetic")
        if not is_prime(order):
            raise ValueError(f"{order} is not prime")
        super().__init__(order)

    def add(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.order

    def sub(self, a, b):
        return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.order

    def mul(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.order

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a % self.order == 0):
            raise ZeroDivisionError("zero has no inverse")
        flat = a.reshape(-1)
        out = np.array([pow(int(v), self.order - 2, self.order) for v in flat], dtype=np.int64)
        return out.reshape(a.shape) if a.shape else np.int64(out[0])

    def _normalize(self, row):
        row *= pow(int(row[0]), self.order - 2, self.order)
        row %= self.order

    def _sub_outer(self, block, col, row):
        # entries lie in [-(p - 1)^2, p - 1] before the one reduction
        block -= col[:, None] * row[None, :]
        block %= self.order

    def matmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[1] > (2**63 - 1) // (self.order - 1) ** 2:
            raise ValueError(f"inner dimension {a.shape[1]} would overflow int64 sums mod {self.order}")
        return (a @ b) % self.order


class GF256(GaloisField):
    def __init__(self):
        super().__init__(256)
        exp = np.zeros(510, dtype=np.int64)
        log = np.zeros(256, dtype=np.int64)
        x = 1
        for i in range(255):
            exp[i] = x
            log[x] = i
            x = self._scalar_mul(x, AES_GENERATOR)
        exp[255:510] = exp[0:255]
        self._exp = exp
        self._log = log
        # table[a, b] = a * b; log sums stay below 510, so int16 indexes hold them
        log16 = log.astype(np.int16)
        table = exp.astype(np.uint8)[log16[:, None] + log16[None, :]]
        table[0, :] = 0
        table[:, 0] = 0
        self._table = table

    @staticmethod
    def _scalar_mul(a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            if a & 0x100:
                a ^= AES_POLY
            b >>= 1
        return acc

    def add(self, a, b):
        return np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)

    def sub(self, a, b):
        return self.add(a, b)

    def mul(self, a, b):
        return self._table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)].astype(np.int64)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[255 - self._log[a]]

    def _normalize(self, row):
        row[:] = self._table[self._exp[255 - self._log[row[0]]]].take(row)

    def _sub_outer(self, block, col, row):
        # the product table's rows for col, then their columns for row
        block ^= self._table.take(col, axis=0).take(row, axis=1)

    def matmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[1] != b.shape[0]:
            raise ValueError("inner dimensions disagree")
        return np.bitwise_xor.reduce(self._table[a[:, :, None], b[None]], axis=1).astype(np.int64)


_GF256_SINGLETON: GF256 | None = None


def galois_field(order: int) -> GaloisField:
    """Field of the given order: 256 (AES polynomial) or a prime."""
    global _GF256_SINGLETON
    if order == 256:
        if _GF256_SINGLETON is None:
            _GF256_SINGLETON = GF256()
        return _GF256_SINGLETON
    return PrimeField(order)
