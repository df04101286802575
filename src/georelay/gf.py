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
form for ``solve``, one routine for both families; ``solve`` hands it the
fresh ``[a | b]`` to reduce in place instead. Per pivot it scales the pivot
row by the pivot's inverse, a scalar (GF(2^8) reads the whole scaled row
off one row of a table of inverse-scaled product rows), and clears the
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

``solve`` can record its elimination: per pivot of A's columns, the row it
swapped in, the scale of the pivot row and the read-only factors that
cleared the column. The pivots depend on A alone, so :meth:`GaloisField.replay` puts
another right-hand side through the same row operations, one scaled vector
update per pivot and no search, and reads off what ``solve`` would return.
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

    def _normalize(self, row: np.ndarray) -> int:
        """Scale ``row`` in place by the scalar inverse of its nonzero first entry.

        Returns what :meth:`replay` takes to scale another vector's entry in
        the same row alike: that inverse over GF(p); over GF(2^8) the first
        entry itself, which indexes the table row that scales by its inverse.
        """
        raise NotImplementedError

    def _sub_outer(self, block: np.ndarray, col: np.ndarray, row: np.ndarray) -> None:
        """``block -= col row^T`` over the field, in place and in one fused step."""
        raise NotImplementedError

    def replay(self, steps, b) -> np.ndarray:
        """The vector ``b`` put through the row operations :meth:`solve` recorded in ``steps``, reduced.

        For the full-rank r x M system a whose solve recorded the steps, the
        first M entries are the x that ``solve(a, b)`` returns, and the other
        r - M are all zero exactly when ``solve`` finds the system consistent.
        """
        raise NotImplementedError

    def _eliminate(
        self, m, reduced: bool = False, overwrite: bool = False, steps: list | None = None
    ) -> tuple[np.ndarray, list[int]]:
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
        docstring. With ``overwrite``, an int64 ``m`` is reduced in place and
        returned: the caller's fresh array, whose old content it no longer needs.
        With ``steps``, a list, the reduced form appends ``(row, swapped row,
        scale, factors)`` per pivot, the scale from :meth:`_normalize` and the
        factors read-only and 0 at the pivot row: all that :meth:`replay`
        needs to repeat the pivot.
        """
        m = np.asarray(m, dtype=np.int64) if overwrite else np.array(m, dtype=np.int64)
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
            scale = self._normalize(m[r, c:])
            # after a swap, row p holds the old row r, whose factor is the 0 just tested
            col[p - top] = 0
            self._sub_outer(m[top:, c:], col, m[r, c:])
            if steps is not None:
                col.setflags(write=False)
                steps.append((r, p, scale, col))
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self, m) -> int:
        m = np.asarray(m, dtype=np.int64)
        if m.size == 0:
            return 0
        _, pivots = self._eliminate(m)
        return len(pivots)

    def solve(self, a, b, steps: list | None = None):
        """Solve a x = b exactly for a (possibly tall) consistent full-rank system.

        Once both checks pass, the reduced row echelon form of ``[a | b]``
        holds the identity on the unknowns, and x is its last column: no
        back substitution. With ``steps``, a list, a solve that returns has
        appended the row operations of its M pivots, for :meth:`replay`.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
        if a.shape[0] != b.shape[0]:
            raise ValueError("row counts disagree")
        n_unknowns = a.shape[1]
        aug, pivots = self._eliminate(np.hstack([a, b]), reduced=True, overwrite=True, steps=steps)
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

    def _eliminate(self, m, reduced=False, overwrite=False, steps=None):
        # k pivots move an entry by at most k (p - 1)^2 before the one reduction
        k = min(np.shape(m))
        if k > (2**63 - 1 - self.order) // (self.order - 1) ** 2:
            raise ValueError(f"{k} pivots would overflow int64 elimination mod {self.order}")
        m, pivots = super()._eliminate(m, reduced, overwrite, steps)
        m %= self.order
        return m, pivots

    def replay(self, steps, b):
        # as in the elimination, each step moves an entry by at most (p - 1)^2 before the one reduction
        b = np.array(b, dtype=np.int64)
        for r, p, inverse, col in steps:
            if p != r:
                b[r], b[p] = b[p], b[r]
            b[r] = scaled = int(b[r]) * inverse % self.order
            b -= col * scaled
        b %= self.order
        return b

    def _factors(self, col):
        return col % self.order

    def _normalize(self, row):
        row %= self.order
        inverse = pow(int(row[0]), self.order - 2, self.order)
        row *= inverse
        row %= self.order
        return inverse

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
        pivot = row[0]
        row[:] = self._inv_rows[pivot].take(row)
        return pivot

    def _sub_outer(self, block, col, row):
        # the product table's rows for col, then their columns for row
        block ^= self._table.take(col, axis=0).take(row, axis=1)

    def replay(self, steps, b):
        # entries never leave [0, 256): the steps run on bytes, xored with the table's bytes
        table, inv_rows = self._table, self._inv_rows
        b = np.array(b, dtype=np.uint8)
        for r, p, pivot, col in steps:
            if p != r:
                b[r], b[p] = b[p], b[r]
            scaled = inv_rows[pivot, b[r]]
            b[r] = scaled
            np.bitwise_xor(b, table[scaled][col], out=b)
        return b.astype(np.int64)

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
