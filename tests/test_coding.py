import itertools
from fractions import Fraction

import numpy as np
import pytest

from georelay.coding import (
    CodePoint,
    OperatingPoint,
    RegenParams,
    check_mu_reconstructable,
    code_point,
    downloads_for,
    encode,
    reconstruct,
    validate_params,
)
from georelay.errors import SingularSystemError

REFERENCE = RegenParams(30, 5, 3, 4, 10, 5)
MSR, MBR = OperatingPoint.MSR, OperatingPoint.MBR


def test_validate_reference_params_tight():
    report = validate_params(REFERENCE)
    assert report.ok
    # cut-set sum: min(10,20) + min(10,15) + min(10,10)
    assert report.capacity_sum == 30


def test_validate_rejects_k_equal_n():
    bad = RegenParams(30, 5, 5, 4, 10, 5)
    report = validate_params(bad)
    assert not report.ok
    assert any("K <= D <= N-1" in v for v in report.violations)


def test_validate_rejects_oversized_source():
    bad = RegenParams(31, 5, 3, 4, 10, 5)
    report = validate_params(bad)
    assert not report.ok
    assert any("capacity" in v for v in report.violations)
    assert report.capacity_sum == 30


def test_msr_point_reference():
    pt = code_point(MSR, 30, 3, 4)
    assert pt == CodePoint(Fraction(10), Fraction(5), Fraction(20))


def test_msr_point_collapses_at_k1():
    pt = code_point(MSR, 12, 1, 4)
    assert pt.per_node_files == 12
    assert pt.repair_bandwidth == 12


def test_msr_point_d_equals_k():
    pt = code_point(MSR, 30, 3, 3)
    assert pt.per_node_files == 10
    assert pt.repair_bandwidth == 30
    assert pt.per_helper_files == 10


def test_mbr_point_values():
    pt = code_point(MBR, 30, 3, 4)
    assert pt.per_node_files == Fraction(240, 18)
    assert pt.repair_bandwidth == pt.per_node_files
    assert code_point(MBR, 12, 1, 4).per_node_files == 12
    # storage at the bandwidth-optimal point is never below the storage-optimal point
    assert code_point(MBR, 30, 3, 4).per_node_files > code_point(MSR, 30, 3, 4).per_node_files


def test_eq3_holds_with_equality_for_msr():
    for m, k, d in ((30, 3, 4), (24, 2, 3), (60, 4, 5)):
        pt = code_point(MSR, m, k, d)
        if pt.per_node_files.denominator != 1 or pt.per_helper_files.denominator != 1:
            continue
        total = sum(
            min(int(pt.per_node_files), (d - i) * int(pt.per_helper_files)) for i in range(k)
        )
        assert total == m


def test_repair_requirement_reference():
    """At the MSR point of (M, K, D) = (30, 3, 4), D = 4 helpers send beta = 5 files each: 20 in all."""
    pt = code_point(MSR, 30, 3, 4)
    assert (REFERENCE.per_node_files, REFERENCE.per_helper_files) == (pt.per_node_files, pt.per_helper_files)
    assert (REFERENCE.repair_d, REFERENCE.per_helper_files) == (4, 5)
    assert REFERENCE.repair_d * REFERENCE.per_helper_files == pt.repair_bandwidth == 20
    assert REFERENCE.n_files == 30  # MDS re-download size


def test_repair_requirement_rejects_off_point():
    """beta = 3 is not the MSR point's 5, and four helpers sending 3 files each cannot regenerate a node."""
    off = RegenParams(30, 5, 3, 4, 10, 3)
    assert code_point(MSR, 30, 3, 4).per_helper_files != off.per_helper_files
    report = validate_params(off)
    assert not report.ok and report.capacity_sum == 25


def test_integral_code_points_meet_the_cut_set_bound_with_equality():
    """At either point, an integral alpha and beta give a cut-set capacity of exactly M."""
    met = dict.fromkeys(OperatingPoint, 0)
    for point, m, k, d in itertools.product(OperatingPoint, range(1, 61), range(1, 6), range(1, 8)):
        pt = code_point(point, m, k, d) if k <= d else None
        if pt and pt.per_node_files.denominator == pt.per_helper_files.denominator == 1:
            report = validate_params(RegenParams(m, d + 1, k, d, int(pt.per_node_files), int(pt.per_helper_files)))
            assert report.ok and report.capacity_sum == m, (point, m, k, d)
            met[point] += 1
    assert min(met.values()) > 10


def test_encode_reference_all_subsets_full_rank():
    store = encode(REFERENCE, 256, seed=42)
    m = REFERENCE.n_files
    for subset in itertools.combinations(range(5), 3):
        stacked = np.hstack([store.encoders[i] for i in subset])
        assert store.field.rank(stacked) == m


def test_encode_scalar_case():
    params = RegenParams(1, 2, 1, 1, 1, 1)
    store = encode(params, 256, seed=1, source=[7])
    for h, payload in zip(store.encoders, store.payloads):
        assert int(payload[0]) == int(store.field.mul(h[0, 0], 7))


def test_encode_zero_source():
    store = encode(REFERENCE, 256, seed=3, source=np.zeros(30, dtype=int))
    assert all(np.all(p == 0) for p in store.payloads)


def test_encode_field_floor():
    # N * alpha = 50 stored symbols need 50 distinct field points
    with pytest.raises(ValueError):
        encode(REFERENCE, 47, seed=0)
    for order in (101, 257):
        store = encode(REFERENCE, order, seed=0)
        assert store.field.order == order
        assert store.attempts == 1
        mu = np.array([10, 0, 10, 0, 10])
        assert np.all(reconstruct(store, downloads_for(store, mu)) == store.source)


def test_every_prefix_download_of_m_symbols_reconstructs():
    params = RegenParams(6, 4, 2, 3, 3, 1)  # M=6, N=4, alpha=3
    store = encode(params, 256, seed=5)
    m, alpha = params.n_files, params.per_node_files
    sizes = {m: 0, m - 1: 0}
    for mu in itertools.product(range(alpha + 1), repeat=params.n_nodes):
        total = sum(mu)
        if total == m:
            assert check_mu_reconstructable(store, mu), mu
            assert np.all(reconstruct(store, downloads_for(store, mu)) == store.source), mu
        elif total == m - 1:
            assert not check_mu_reconstructable(store, mu), mu
            with pytest.raises(SingularSystemError):
                reconstruct(store, downloads_for(store, mu))
        else:
            continue
        sizes[total] += 1
    assert sizes == {m: 44, m - 1: 40}


def test_fourteen_node_code_reconstructs_from_any_seven():
    params = RegenParams(56, 14, 7, 8, 8, 4)  # the coding benchmark's (14,7) code
    store = encode(params, 256, seed=9)
    assert store.attempts == 1
    rng = np.random.default_rng(14)
    for _ in range(20):
        mu = np.zeros(14, dtype=int)
        mu[rng.choice(14, size=7, replace=False)] = 8
        assert np.all(reconstruct(store, downloads_for(store, mu)) == store.source)
    short = np.zeros(14, dtype=int)
    short[rng.choice(14, size=6, replace=False)] = 8
    with pytest.raises(SingularSystemError):
        reconstruct(store, downloads_for(store, short))


def test_mu_reconstructable_cases():
    store = encode(REFERENCE, 256, seed=7)
    assert check_mu_reconstructable(store, [10, 10, 10, 10, 10])
    assert not check_mu_reconstructable(store, [0, 0, 0, 0, 0])
    assert not check_mu_reconstructable(store, [10, 10, 9, 0, 0])  # sum 29 < 30
    with pytest.raises(ValueError):
        check_mu_reconstructable(store, [10, 10, 10])
    with pytest.raises(ValueError):
        check_mu_reconstructable(store, [11, 10, 10, 10, 10])


def test_reference_mu_vector_reconstructs_overwhelmingly():
    mu = [0, 5, 10, 10, 5]
    good = sum(
        check_mu_reconstructable(encode(REFERENCE, 256, seed=s), mu) for s in range(100)
    )
    assert good >= 99


def test_mu_monotonicity():
    rng = np.random.default_rng(0)
    store = encode(REFERENCE, 256, seed=11)
    for _ in range(20):
        mu = rng.integers(0, 11, size=5)
        if not check_mu_reconstructable(store, mu):
            continue
        bigger = np.minimum(mu + rng.integers(0, 3, size=5), 10)
        assert check_mu_reconstructable(store, bigger)


def test_reconstruct_round_trip_full_nodes():
    store = encode(REFERENCE, 256, seed=19)
    mu = np.array([10, 10, 10, 0, 0])
    downloads = downloads_for(store, mu)
    assert np.all(reconstruct(store, downloads) == store.source)


def test_reconstruct_round_trip_partial_mu():
    store = encode(REFERENCE, 256, seed=23)
    mu = np.array([0, 5, 10, 10, 5])
    assert check_mu_reconstructable(store, mu)
    downloads = downloads_for(store, mu)
    assert np.all(reconstruct(store, downloads) == store.source)


def test_reconstruct_fails_below_k_nodes():
    store = encode(REFERENCE, 256, seed=29)
    downloads = downloads_for(store, [10, 10, 0, 0, 0])
    with pytest.raises(SingularSystemError):
        reconstruct(store, downloads)


def test_params_validation_rejects_nonpositive():
    with pytest.raises(ValueError):
        RegenParams(0, 5, 3, 4, 10, 5)
    with pytest.raises(ValueError):
        RegenParams(30, 5, 3, 4, 10, 5, file_bits=0)


@pytest.fixture(scope="module")
def n40_store():
    # the d = 2k - 2 MSR code at N = 40: N alpha = 760 stored symbols need GF(761)
    return encode(RegenParams(380, 40, 20, 38, 19, 1), 761, seed=4)


def test_n40_vandermonde_stack_has_full_rank(n40_store):
    stacked = np.hstack(n40_store.encoders)
    assert stacked.shape == (380, 760)
    assert n40_store.field.rank(stacked) == 380


def test_n40_reconstruct_from_k_full_nodes(n40_store):
    mu = np.zeros(40, dtype=int)
    mu[np.random.default_rng(40).permutation(40)[:20]] = 19
    assert np.array_equal(reconstruct(n40_store, downloads_for(n40_store, mu)), n40_store.source)


def test_n40_download_one_symbol_short_is_refused(n40_store):
    mu = np.zeros(40, dtype=int)
    mu[20:] = 19
    mu[20] = 18  # 379 symbols for 380 unknowns
    with pytest.raises(SingularSystemError, match=r"^rank 379 < 380 unknowns; solution not unique$"):
        reconstruct(n40_store, downloads_for(n40_store, mu))
