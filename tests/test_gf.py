import numpy as np
import pytest

from georelay.errors import SingularSystemError
from georelay.gf import GF256, PrimeField, galois_field
from oracles import gauss_jordan, scalar_field, scalar_matmul, solve_oracle

# the largest prime below MAX_PRIME_ORDER = 2^20
LARGEST_PRIME = 1048573


def test_aes_pinned_products():
    # classic multiplication vectors for the AES reduction polynomial
    f = galois_field(256)
    assert int(f.mul(0x57, 0x83)) == 0xC1
    assert int(f.mul(0x57, 0x13)) == 0xFE
    assert int(f.mul(0x02, 0x87)) == 0x15
    assert int(f.mul(0x53, 0xCA)) == 0x01


def test_aes_inverse_pinned():
    # eliminating [a | 1] scales the row by 1/a: 0x53^-1 = 0xCA under the AES polynomial
    f = galois_field(256)
    assert f._eliminate([[0x53, 0x01]])[0].tolist() == [[1, 0xCA]]
    assert f._eliminate([[0x01, 0x01]])[0].tolist() == [[1, 0x01]]
    assert f._eliminate([[0x00, 0x01]])[0].tolist() == [[0, 1]]


def test_aes_generator_covers_field():
    f = GF256()
    seen = sorted(int(f._exp[i]) for i in range(255))
    assert seen == sorted(set(seen))
    assert len(seen) == 255


def test_gf256_all_inverses():
    f = galois_field(256)
    a = np.arange(1, 256)
    _, _, _, inv = scalar_field(256)
    # a diagonal system's solution is the row scaling: x_i = 1 / a_i
    x = f.solve(np.diag(a), np.ones_like(a))
    assert x.tolist() == [inv(int(v)) for v in a]
    assert np.all(f.mul(a, x) == 1)


def test_prime_field_ops():
    add, sub, mul, inv = scalar_field(257)
    f = galois_field(257)
    a = np.array([0, 1, 5, 256])
    b = np.array([3, 256, 100, 256])
    assert [add(x, y) for x, y in zip(a.tolist(), b.tolist())] == ((a + b) % 257).tolist()
    assert [sub(x, y) for x, y in zip(a.tolist(), b.tolist())] == ((a - b) % 257).tolist()
    assert f.mul(a, b).tolist() == [mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    for v in (1, 5, 250):
        assert mul(v, inv(v)) == 1
        assert f._eliminate([[v, 1]])[0].tolist() == [[1, inv(v)]]
    with pytest.raises(ValueError):
        galois_field(100)  # not prime, not 256


def test_rank_and_solve_round_trip():
    rng = np.random.default_rng(3)
    for order in (256, 257, 1009):
        f = galois_field(order)
        a = rng.integers(0, order, size=(12, 8))
        x = rng.integers(0, order, size=8)
        b = f.matmul(a, x.reshape(-1, 1)).reshape(-1)
        if f.rank(a) == 8:
            got = f.solve(a, b)
            assert np.all(got == x)


def test_rank_detects_dependence():
    f = galois_field(256)
    a = np.array([[1, 2, 3], [4, 5, 6]])
    stacked = np.vstack([a, (a[0] ^ a[1]).reshape(1, -1)])  # the sum of the rows in GF(2^8)
    assert f.rank(stacked) == f.rank(a)


def test_solve_raises_on_deficient_system():
    f = galois_field(256)
    row = np.array([1, 2])
    a = np.vstack([row, f.mul(row, 3)])  # rank 1
    b = np.array([5, 1])  # 1 != 5 * 3 over the field, so inconsistent
    assert int(f.mul(5, 3)) != 1
    with pytest.raises(SingularSystemError):
        f.solve(a, b)
    with pytest.raises(SingularSystemError):
        f.solve(np.array([[1, 2]]), np.array([5]))  # underdetermined


def test_matmul_matches_scalar_reference():
    f = galois_field(256)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=(4, 3))
    b = rng.integers(0, 256, size=(3, 2))
    got = f.matmul(a, b)
    for i in range(4):
        for j in range(2):
            acc = 0
            for k in range(3):
                acc ^= int(f.mul(a[i, k], b[k, j]))
            assert acc == got[i, j]


def test_prime_field_order_guard():
    with pytest.raises(ValueError):
        PrimeField(1048583)  # prime, but beyond the int64-safe limit


def test_product_table_equals_scalar_mul_on_all_pairs():
    f = GF256()
    assert f._table.dtype == np.uint8 and f._table.shape == (256, 256)
    want = np.array([[GF256._scalar_mul(a, b) for b in range(256)] for a in range(256)])
    assert np.array_equal(f._table, want)
    a = np.arange(256)
    got = f.mul(a[:, None], a[None, :])
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("order", [256, 257, LARGEST_PRIME])
def test_matmul_matches_triple_loop(order):
    f = galois_field(order)
    rng = np.random.default_rng(order)
    shapes = [(1, 1, 1), (4, 3, 2), (7, 9, 1), (30, 15, 1), (5, 12, 6), (3, 0, 2)]
    for rows, inner, cols in shapes:
        a = rng.integers(0, order, size=(rows, inner))
        b = rng.integers(0, order, size=(inner, cols))
        got = f.matmul(a, b)
        assert got.dtype == np.int64 and got.shape == (rows, cols)
        assert got.tolist() == scalar_matmul(order, a, b)
    # the largest element over a long inner dimension: (p-1)^2 sums stay exact
    top = np.full((2, 3000), order - 1)
    got = f.matmul(top, top.T)
    assert got.tolist() == scalar_matmul(order, top, top.T)


def test_prime_matmul_is_exact_up_to_the_int64_bound():
    p = LARGEST_PRIME
    f = galois_field(p)
    inner = (2**63 - 1) // (p - 1) ** 2
    assert inner >= 2**23
    # zero-stride views: no memory for the long inner dimension
    a = np.broadcast_to(np.int64(p - 1), (1, inner))
    b = np.broadcast_to(np.int64(p - 1), (inner, 1))
    assert int(f.matmul(a, b)[0, 0]) == inner * (p - 1) ** 2 % p
    a = np.broadcast_to(np.int64(p - 1), (1, inner + 1))
    b = np.broadcast_to(np.int64(p - 1), (inner + 1, 1))
    with pytest.raises(ValueError, match="overflow"):
        f.matmul(a, b)


def _systems(order, seed, count):
    """Random, rank-deficient and inconsistent systems (a, b)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        a = rng.integers(0, order, size=(rows, cols))
        if i % 3 == 1:
            # rank at most r: a product through an r-wide middle
            r = int(rng.integers(0, min(rows, cols)))
            a = np.array(scalar_matmul(order, rng.integers(0, order, size=(rows, r)), rng.integers(0, order, size=(r, cols))))
        if i % 2:
            b = rng.integers(0, order, size=rows)
        else:
            x = rng.integers(0, order, size=(cols, 1))
            b = np.array(scalar_matmul(order, a, x)).reshape(-1)
        yield a, b


@pytest.mark.parametrize("order", [256, 257, 761, LARGEST_PRIME])
def test_rank_and_solve_match_gauss_jordan_oracle(order):
    f = galois_field(order)
    outcomes = set()
    for a, b in _systems(order, 11 + order, 300):
        rref, pivots = gauss_jordan(order, a.tolist())
        assert f.rank(a) == len(pivots)
        echelon, got_pivots = f._eliminate(a)
        assert got_pivots == pivots
        # echelon shape: unit pivots, zeros below and left of each, zero rows under the last
        for r, c in enumerate(pivots):
            assert echelon[r, c] == 1 and not echelon[r + 1 :, c].any() and not echelon[r, :c].any()
        assert not echelon[len(pivots) :].any()
        # row equivalence: the same reduced row echelon form
        assert gauss_jordan(order, echelon.tolist()) == (rref, pivots)
        reduced, got_pivots = f._eliminate(a, reduced=True)
        assert (reduced.tolist(), got_pivots) == (rref, pivots)
        status, x = solve_oracle(order, a.tolist(), b.tolist())
        outcomes.add(status)
        if status == "unique":
            assert f.solve(a, b).tolist() == x
        else:
            with pytest.raises(SingularSystemError, match=status):
                f.solve(a, b)
    assert outcomes == {"unique", "inconsistent", "not unique"}


def test_n40_size_product_rank_is_its_inner_dimension():
    # a 380 x k by k x 760 product over GF(761) has rank at most k; these random factors reach it
    f = galois_field(761)
    rng = np.random.default_rng(761)
    for k in (1, 190, 379):
        product = f.matmul(rng.integers(0, 761, size=(380, k)), rng.integers(0, 761, size=(k, 760)))
        assert f.rank(product) == k


def test_single_prime_reduction_is_exact_at_scale():
    # entries in [p - 64, p): the first updates add close to the (p - 1)^2 maximum, and 400 pivots
    # accumulate before the one reduction
    p = LARGEST_PRIME
    f = galois_field(p)
    rng = np.random.default_rng(p)
    a = rng.integers(p - 64, p, size=(400, 400))
    x = rng.integers(0, p, size=400)
    assert f.solve(a, f.matmul(a, x.reshape(-1, 1))).tolist() == x.tolist()
    for k in (1, 200, 399):
        product = f.matmul(rng.integers(p - 64, p, size=(400, k)), rng.integers(p - 64, p, size=(k, 400)))
        assert f.rank(product) == k


def test_prime_elimination_refuses_past_the_int64_bound():
    p = LARGEST_PRIME
    f = galois_field(p)
    k = (2**63 - 1 - p) // (p - 1) ** 2
    assert k >= 2**23
    # a zero-stride view: the bound is checked before the elimination's copy
    with pytest.raises(ValueError, match="overflow"):
        f.rank(np.broadcast_to(np.int64(1), (k + 1, k + 1)))


@pytest.mark.parametrize("order", [256, 761])
def test_solve_makes_one_update_per_unknown(order, monkeypatch):
    # Gauss-Jordan: n pivots, one fused update each, and no back substitution
    # a fresh instance, so the shared GF(2^8) one keeps no patched attribute
    f = GF256() if order == 256 else galois_field(order)
    calls = []
    sub_outer = f._sub_outer
    monkeypatch.setattr(f, "_sub_outer", lambda *args: (calls.append(1), sub_outer(*args)))
    rng = np.random.default_rng(order)
    for n in (1, 7, 30):
        a = rng.integers(0, order, size=(n, n))
        while f.rank(a) < n:
            a = rng.integers(0, order, size=(n, n))
        x = rng.integers(0, order, size=n)
        calls.clear()
        assert f.solve(a, f.matmul(a, x.reshape(-1, 1))).tolist() == x.tolist()
        assert len(calls) == n
