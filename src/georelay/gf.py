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

Elimination brings a copy to row echelon form, or to reduced row echelon
form for ``solve``, one routine for both families. Per pivot it scales the
pivot row by the pivot's inverse, a scalar (GF(2^8) reads the whole scaled
row off one row of a table of inverse-scaled product rows), and clears the
pivot's column with one fused in-place update from that column on: below
the pivot for the echelon form, above and below it for the reduced form.
GF(2^8) xors in the products read off its product table (the rows of the
column's factors, then their entries at the pivot row's values). GF(p)
reduces only the pivot column and the pivot row at each pivot, subtracts
their outer product from the block with no reduction, and reduces the
whole matrix once at the end (delayed reduction: Dumas, Giorgi & Pernet,
ACM TOMS 35(3), 2008). Each pivot moves an entry by at most (p - 1)^2, so
after k pivots every entry lies in [-k (p - 1)^2, p - 1], exact in int64
while k (p - 1)^2 + p < 2^63: every k < 2^23 for p <= 2^20. A longer
elimination raises ``ValueError``, as ``matmul`` does for a longer inner
dimension. ``solve`` reads x off the last column of the reduced form of
``[a | b]``, with no back substitution.
"""

from __future__ import annotations

import functools

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

    def mul(self, a, b):
        raise NotImplementedError

    def matmul(self, a, b):
        """Matrix product over the field."""
        raise NotImplementedError

    def _factors(self, col: np.ndarray) -> np.ndarray:
        """A pivot column's entries as a reduced copy: the factors of its update."""
        raise NotImplementedError

    def _normalize(self, row: np.ndarray) -> None:
        """Scale ``row`` in place by the scalar inverse of its nonzero first entry."""
        raise NotImplementedError

    def _sub_outer(self, block: np.ndarray, col: np.ndarray, row: np.ndarray) -> None:
        """``block -= col row^T`` over the field, in place and in one fused step."""
        raise NotImplementedError

    def _eliminate(self, m, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
        """Row echelon form of a copy of ``m``, and its pivot columns.

        Each pivot is 1 and has zeros below it. With ``reduced`` it also has
        zeros above it: the reduced row echelon form. A pivot takes its
        column's factors (:meth:`_factors`), tests the diagonal entry first
        and searches the rows below only when that entry is 0. It scales its
        row from the pivot on, then one :meth:`_sub_outer` spans the rows
        below it (with ``reduced``, every row) from the pivot's column on,
        with the pivot row's own factor set to 0, so the column is cleared in
        the same update. ``m`` holds field elements; GF(p) leaves the other
        entries unreduced until the end, within the int64 bound of the module
        docstring.
        """
        m = np.array(m, dtype=np.int64)
        rows, cols = m.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            top = 0 if reduced else r
            col = self._factors(m[top:, c])
            p = r
            if col[r - top] == 0:
                hits = col[r - top :].nonzero()[0]
                if hits.size == 0:
                    continue
                p += int(hits[0])
                m[[r, p], c:] = m[[p, r], c:]
            self._normalize(m[r, c:])
            # after a swap, row p holds the old row r, whose factor is the 0 just tested
            col[p - top] = 0
            self._sub_outer(m[top:, c:], col, m[r, c:])
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

        Once both checks pass, the reduced row echelon form of ``[a | b]``
        holds the identity on the unknowns, and x is its last column: no
        back substitution. With fewer equations than unknowns the system is
        refused whatever its form, so its pivots come from the cheaper row
        echelon form.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
        if a.shape[0] != b.shape[0]:
            raise ValueError("row counts disagree")
        n_unknowns = a.shape[1]
        aug, pivots = self._eliminate(np.hstack([a, b]), reduced=a.shape[0] >= n_unknowns)
        if any(p == n_unknowns for p in pivots):
            raise SingularSystemError("inconsistent linear system")
        if len(pivots) < n_unknowns:
            raise SingularSystemError(
                f"rank {len(pivots)} < {n_unknowns} unknowns; solution not unique"
            )
        return aug[:n_unknowns, n_unknowns].copy()


class PrimeField(GaloisField):
    def __init__(self, order: int):
        if order > MAX_PRIME_ORDER:
            raise ValueError("prime field order too large for int64 arithmetic")
        if not is_prime(order):
            raise ValueError(f"{order} is not prime")
        super().__init__(order)

    def mul(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.order

    def _eliminate(self, m, reduced=False):
        # k pivots move an entry by at most k (p - 1)^2 before the one reduction
        k = min(np.shape(m))
        if k > (2**63 - 1 - self.order) // (self.order - 1) ** 2:
            raise ValueError(f"{k} pivots would overflow int64 elimination mod {self.order}")
        m, pivots = super()._eliminate(m, reduced)
        m %= self.order
        return m, pivots

    def _factors(self, col):
        return col % self.order

    def _normalize(self, row):
        row %= self.order
        row *= pow(int(row[0]), self.order - 2, self.order)
        row %= self.order

    def _sub_outer(self, block, col, row):
        # col and row are reduced, so each update moves an entry by at most (p - 1)^2
        block -= col[:, None] * row[None, :]

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
        # table[a, b] = a * b; log sums stay below 510, so int16 indexes hold them
        log16 = log.astype(np.int16)
        table = exp.astype(np.uint8)[log16[:, None] + log16[None, :]]
        table[0, :] = 0
        table[:, 0] = 0
        self._table = table
        # inv_rows[a] = table[a^-1], the row that scales by 1/a (row 0 is unused)
        self._inv_rows = table[exp[255 - log]]

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

    def mul(self, a, b):
        return self._table[np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)].astype(np.int64)

    # entries never leave [0, 256), so the factors are a plain copy, and no Python call
    _factors = staticmethod(np.ndarray.copy)

    def _normalize(self, row):
        row[:] = self._inv_rows[row[0]].take(row)

    def _sub_outer(self, block, col, row):
        # the product table's rows for col, then their columns for row
        block ^= self._table.take(col, axis=0).take(row, axis=1)

    def matmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[1] != b.shape[0]:
            raise ValueError("inner dimensions disagree")
        return np.bitwise_xor.reduce(self._table[a[:, :, None], b[None]], axis=1).astype(np.int64)


@functools.cache
def galois_field(order: int) -> GaloisField:
    """Field of the given order: 256 (AES polynomial) or a prime; one object per order per process."""
    return GF256() if order == 256 else PrimeField(order)
