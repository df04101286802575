import itertools
from fractions import Fraction

import numpy as np
import pytest

from georelay import coding
from georelay.coding import (
    DECODER_CACHE_ENTRIES,
    GENERATOR_CACHE_SIZE,
    MAX_GENERATOR_ENTRIES,
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
from georelay.errors import InternalError, SingularSystemError
from georelay.gf import GaloisField, galois_field

from oracles import scalar_field, scalar_matmul

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


# the benchmark's three codes and the N = 40 one, with the fields that hold their N alpha points
GENERATOR_CASES = [
    (RegenParams(30, 5, 3, 4, 10, 5), 256),
    (RegenParams(30, 5, 3, 4, 10, 5), 761),
    (RegenParams(20, 10, 5, 8, 4, 1), 256),
    (RegenParams(20, 10, 5, 8, 4, 1), 761),
    (RegenParams(56, 14, 7, 8, 8, 4), 256),
    (RegenParams(56, 14, 7, 8, 8, 4), 761),
    (RegenParams(380, 40, 20, 38, 19, 1), 761),
]


@pytest.mark.parametrize("params, order", GENERATOR_CASES)
def test_cached_generator_equals_the_scalar_power_oracle(params, order):
    _, _, mul, _ = scalar_field(order)
    want = []
    for point in range(params.n_nodes * params.per_node_files):
        row, power = [], 1
        for _ in range(params.n_files):
            row.append(power)
            power = mul(power, point)
        want.append(row)
    store = encode(params, order, seed=8)
    assert np.hstack(store.encoders).T.tolist() == want
    stored = scalar_matmul(order, want, store.source.reshape(-1, 1))
    assert np.concatenate(store.payloads).tolist() == [v for (v,) in stored]


def test_encode_shares_one_read_only_generator():
    first, second = encode(REFERENCE, 256, seed=1), encode(REFERENCE, 256, seed=2)
    generator = coding._generator(50, 30, 256)
    for a, b in zip(first.encoders, second.encoders):
        assert a.base is generator and b.base is generator
        assert not a.flags.writeable
    assert not np.array_equal(first.source, second.source)
    with pytest.raises(ValueError, match="read-only"):
        first.encoders[0][0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        generator[1, 1] = 5


def test_generator_cache_stays_within_its_bound():
    assert coding._generator.cache_info().maxsize == GENERATOR_CACHE_SIZE
    for n in range(2, GENERATOR_CACHE_SIZE + 6):
        store = encode(RegenParams(n, n, 1, 1, 1, 1), 257, seed=n)
        assert store.encoders[0].base is coding._generator(n, n, 257)
        assert coding._generator.cache_info().currsize <= GENERATOR_CACHE_SIZE
    # every cached generator is within the entry bound encode enforces
    with pytest.raises(ValueError, match=f"1025 x 1025 generator exceeds the bound of {MAX_GENERATOR_ENTRIES}"):
        encode(RegenParams(1025, 1025, 1, 1, 1, 1), 1031, seed=0)


def _prefix_system(store, mu):
    """The rows and symbols of the download that takes each node's first ``mu[n]`` symbols."""
    a = np.vstack([h[:, :c].T for h, c in zip(store.encoders, mu)])
    return a, np.concatenate(downloads_for(store, mu))


@pytest.mark.parametrize("order", [256, 257])
def test_short_download_is_refused_with_the_solve_message(order):
    params = RegenParams(6, 4, 2, 3, 3, 1)
    store = encode(params, order, seed=5)
    short = [mu for mu in itertools.product(range(4), repeat=4) if sum(mu) == params.n_files - 1]
    assert len(short) == 40
    for mu in short:
        with pytest.raises(SingularSystemError) as want:
            store.field.solve(*_prefix_system(store, mu))
        with pytest.raises(SingularSystemError) as got:
            reconstruct(store, downloads_for(store, mu))
        assert str(got.value) == str(want.value) == "rank 5 < 6 unknowns; solution not unique", mu


@pytest.mark.parametrize("order", [256, 257])
def test_short_download_refusal_runs_no_elimination(order, monkeypatch):
    store = encode(REFERENCE, order, seed=31)

    def eliminate(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(GaloisField, "_eliminate", eliminate)
    for mu, total in (([10, 10, 9, 0, 0], 29), ([0, 0, 0, 0, 0], 0), ([1, 2, 3, 4, 5], 15)):
        with pytest.raises(SingularSystemError, match=rf"^rank {total} < 30 unknowns; solution not unique$"):
            reconstruct(store, downloads_for(store, mu))
    # an earlier test may have left this pattern's decoder cached; a cold decode must eliminate
    coding._DECODERS.clear()
    with pytest.raises(AssertionError, match="eliminated"):
        reconstruct(store, downloads_for(store, [10, 10, 10, 0, 0]))


@pytest.mark.parametrize("order, bad", [(256, 300), (256, 256), (256, -1), (257, 257 + 7), (257, -1), (257, 3.5)])
def test_out_of_field_symbols_are_refused_before_elimination(order, bad, monkeypatch):
    store = encode(REFERENCE, order, seed=37)
    monkeypatch.setattr(GaloisField, "_eliminate", lambda *args, **kwargs: pytest.fail("eliminated"))
    for mu in ([10, 10, 10, 0, 0], [10, 0, 0, 0, 5]):
        downloads = [d.tolist() for d in downloads_for(store, mu)]
        downloads[0][3] = bad
        with pytest.raises(ValueError, match=rf"symbols downloaded over GF\({order}\) must"):
            reconstruct(store, downloads)


def test_fractional_download_counts_are_refused():
    store = encode(REFERENCE, 256, seed=41)
    for mu in ([9.9, 10, 10, 0, 0.5], [10, 10, 10, 0, np.nan], [10, 10, 10, 0, np.inf]):
        with pytest.raises(ValueError, match="download counts must"):
            downloads_for(store, mu)
        with pytest.raises(ValueError, match="download counts must"):
            check_mu_reconstructable(store, mu)
    # integral floats are counts
    got = downloads_for(store, [10.0, 10, 10, 0, 0])
    assert [d.tolist() for d in got] == [d.tolist() for d in downloads_for(store, [10, 10, 10, 0, 0])]
    assert check_mu_reconstructable(store, [10.0, 10, 10, 0, 0])


@pytest.fixture()
def decoders(monkeypatch):
    """A fresh, empty decoder cache of the default bound for one test."""
    cache = coding._DecoderCache(DECODER_CACHE_ENTRIES)
    monkeypatch.setattr(coding, "_DECODERS", cache)
    return cache


@pytest.fixture()
def eliminations(monkeypatch):
    """A list that grows by one per ``GaloisField._eliminate`` call."""
    calls = []
    eliminate = GaloisField._eliminate
    monkeypatch.setattr(GaloisField, "_eliminate", lambda *args, **kwargs: calls.append(1) or eliminate(*args, **kwargs))
    return calls


def _hand_built_store(params, order, rng, encoders=None):
    """A store of random (or the given) encoders over GF(order), with payloads that encode a random source."""
    field = galois_field(order)
    if encoders is None:
        encoders = [rng.integers(0, order, size=(params.n_files, params.per_node_files)) for _ in range(params.n_nodes)]
    source = rng.integers(0, order, size=params.n_files)
    payloads = tuple(field.matmul(h.T, source.reshape(-1, 1)).reshape(-1) for h in encoders)
    return coding.CodedStore(field, params, source, tuple(encoders), payloads)


def _solve_outcome(store, mu, downloads=None):
    """``GaloisField.solve``'s solution, or its exception's message, on the download ``mu``."""
    a, b = _prefix_system(store, mu)
    if downloads is not None:
        b = np.concatenate(downloads)
    try:
        return store.field.solve(a, b).tolist()
    except SingularSystemError as exc:
        return str(exc)


def _pattern_key(store, mu):
    """The decoder cache's key for the download ``mu``."""
    a, _ = _prefix_system(store, mu)
    return (store.field.order, a.shape, a.tobytes())


def _reconstruct_outcome(store, downloads):
    try:
        return reconstruct(store, downloads).tolist()
    except SingularSystemError as exc:
        return str(exc)


# a code per field whose N alpha points the field holds
DECODER_CASES = [
    (RegenParams(30, 5, 3, 4, 10, 5), 256),
    (RegenParams(6, 4, 2, 3, 3, 1), 257),
    (RegenParams(20, 10, 5, 8, 4, 1), 761),
]


@pytest.mark.parametrize("params, order", DECODER_CASES)
@pytest.mark.parametrize("hand_built", [False, True])
def test_every_decode_equals_solve(params, order, hand_built, decoders):
    """First, second and later decodes of square and tall patterns equal ``solve``, over stores sharing each pattern."""
    rng = np.random.default_rng([order, hand_built])
    n, alpha, m = params.n_nodes, params.per_node_files, params.n_files
    if hand_built:
        shared = [rng.integers(0, order, size=(m, alpha)) for _ in range(n)]
        stores = [_hand_built_store(params, order, rng, shared) for _ in range(5)]
    else:
        stores = [encode(params, order, seed=s) for s in range(5)]
    # three square and three tall patterns: each symbol goes to a random node with room for it
    patterns = []
    for total in (m, m, m, m + 1, m + 2, min(m + alpha, n * alpha)):
        mu = np.zeros(n, dtype=int)
        for _ in range(total):
            mu[rng.choice(np.flatnonzero(mu < alpha))] += 1
        patterns.append(mu.tolist())
    for mu in patterns:
        for store in stores:
            downloads = downloads_for(store, mu)
            assert _reconstruct_outcome(store, downloads) == _solve_outcome(store, mu), mu
        steps = decoders.get(_pattern_key(stores[0], mu))
        # a pattern that solve decodes keeps its first decode's elimination; one it refuses is never cached
        assert (steps is not None) == isinstance(_solve_outcome(stores[0], mu), list)
        if steps is not None:
            assert len(steps) == m
            for _, _, _, factors in steps:
                with pytest.raises(ValueError, match="read-only"):
                    factors[0] = 1


@pytest.mark.parametrize("order", [256, 257, 761])
def test_replay_equals_solve_through_row_swaps(order):
    """Systems whose pivots need row swaps: a replayed right-hand side gives what ``solve`` gives."""
    field = galois_field(order)
    rng = np.random.default_rng(order + 1)
    swaps = 0
    for rows in (6, 6, 7, 9, 9):
        a = rng.integers(0, order, size=(rows, 6))
        # zeros where the first pivots would sit, so the elimination must search below them
        a[0, 0] = a[1, 1] = a[:3, 2] = 0
        assert field.rank(a) == 6
        steps = []
        x = rng.integers(0, order, size=6)
        b = field.matmul(a, x.reshape(-1, 1)).reshape(-1)
        assert field.solve(a, b, steps).tolist() == x.tolist()
        swaps += sum(r != p for r, p, _, _ in steps)
        for _ in range(4):
            other = field.matmul(a, rng.integers(0, order, size=(6, 1))).reshape(-1)
            if rows > 6 and rng.random() < 0.5:
                i = rng.integers(rows)
                other[i] = (other[i] + 1) % order
            replayed = field.replay(steps, other)
            try:
                want = field.solve(a, other).tolist()
            except SingularSystemError as exc:
                assert str(exc) == "inconsistent linear system" and replayed[6:].any()
            else:
                assert replayed[:6].tolist() == want and not replayed[6:].any()
    assert swaps >= 5


@pytest.mark.parametrize("order", [256, 257, 761])
def test_corrupted_symbol_on_a_cached_tall_pattern_raises_the_solve_message(order, decoders, eliminations):
    params = RegenParams(30, 5, 3, 4, 10, 5)
    store = encode(params, order, seed=43)
    mu = [10, 10, 10, 1, 0]
    for _ in range(3):
        assert np.array_equal(reconstruct(store, downloads_for(store, mu)), store.source)
    assert decoders.get(_pattern_key(store, mu)) is not None and len(eliminations) == 1
    for node, at in ((0, 0), (2, 9), (3, 0)):
        bad = downloads_for(store, mu)
        bad[node][at] = (bad[node][at] + 1) % order
        want = _solve_outcome(store, mu, bad)
        assert want == "inconsistent linear system"
        before = len(eliminations)
        with pytest.raises(SingularSystemError, match=f"^{want}$"):
            reconstruct(store, bad)
        # the cached decoder found it: no elimination
        assert len(eliminations) == before


@pytest.mark.parametrize("order", [256, 257, 761])
def test_rank_deficient_store_is_never_cached(order, decoders, eliminations):
    params = RegenParams(6, 4, 2, 3, 3, 1)
    rng = np.random.default_rng(order)
    node = rng.integers(0, order, size=(6, 3))
    # nodes 0 and 1 store the same rows, so any download from both has rank below M
    store = _hand_built_store(params, order, rng, [node, node.copy(), *rng.integers(0, order, size=(2, 6, 3))])
    messages = set()
    for mu in ([3, 3, 0, 0], [3, 3, 1, 0], [2, 2, 2, 0]):
        for corrupt in (False, True, False):
            downloads = downloads_for(store, mu)
            if corrupt:
                downloads[2 if mu[2] else 0][0] ^= 1
            want = _solve_outcome(store, mu, downloads)
            assert isinstance(want, str)
            messages.add(want.split()[0])
            before = len(eliminations)
            with pytest.raises(SingularSystemError, match=f"^{want}$"):
                reconstruct(store, downloads)
            assert len(eliminations) == before + 1
    assert decoders.entries == 0 and decoders.get(_pattern_key(store, [3, 3, 0, 0])) is None
    assert messages == {"rank", "inconsistent"}


@pytest.mark.parametrize("order", [256, 761])
def test_cached_decoder_corrupted_in_place_raises_internal_error(order, decoders):
    store = encode(REFERENCE, order, seed=47)
    mu = [10, 0, 10, 0, 10]
    reconstruct(store, downloads_for(store, mu))
    r, _, _, factors = decoders.get(_pattern_key(store, mu))[-1]
    # the last pivot scales the last unknown into place and adds its multiples to every other row
    assert r == REFERENCE.n_files - 1 and store.source[-1] != 0
    # the factors are read-only: unlock them to corrupt them in place
    factors.setflags(write=True)
    factors[0] = (factors[0] + 1) % order
    with pytest.raises(InternalError, match="reconstruction residual nonzero"):
        reconstruct(store, downloads_for(store, mu))


@pytest.mark.parametrize("order", [256, 257])
def test_each_pattern_is_eliminated_once(order, decoders, eliminations):
    patterns = [[10, 10, 10, 0, 0], [0, 10, 10, 0, 10], [10, 5, 5, 5, 5], [10, 10, 10, 10, 10]]
    for seed in range(6):
        store = encode(REFERENCE, order, seed=seed)
        for mu in patterns:
            assert np.array_equal(reconstruct(store, downloads_for(store, mu)), store.source)
        assert len(eliminations) == len(patterns)


def test_decoder_cache_stays_within_its_bound(monkeypatch, eliminations):
    params = RegenParams(6, 4, 2, 3, 3, 1)
    # a square pattern takes 36 key and 36 factor entries: a bound of 200 holds two
    cache = coding._DecoderCache(200)
    monkeypatch.setattr(coding, "_DECODERS", cache)
    store = encode(params, 257, seed=53)
    square = [mu for mu in itertools.product(range(4), repeat=4) if sum(mu) == 6]
    for mu in square[:12]:
        for _ in range(3):
            assert np.array_equal(reconstruct(store, downloads_for(store, mu)), store.source)
            assert cache.entries <= 200
        assert cache.get(_pattern_key(store, mu)) is not None
    assert cache.entries == 144 and len(eliminations) == 12
    # the least recently used pattern went first
    assert cache.get(_pattern_key(store, square[9])) is None
    # a tall pattern of 12 x 6 takes 144 entries: kept, it evicts both squares
    for _ in range(3):
        assert np.array_equal(reconstruct(store, downloads_for(store, [3, 3, 3, 3])), store.source)
    assert cache.entries == 144 and len(eliminations) == 13
    # the reference code's full download, 50 x 30, takes 3,000: decoded by one elimination each time, never kept
    big = encode(REFERENCE, 257, seed=53)
    for i in range(3):
        assert np.array_equal(reconstruct(big, downloads_for(big, [10] * 5)), big.source)
        assert len(eliminations) == 14 + i
        assert cache.entries == 144 and cache.get(_pattern_key(big, [10] * 5)) is None


def test_one_system_over_two_fields_gets_a_decoder_each(decoders, eliminations):
    """The key holds the field order: the same rows over GF(256) and GF(257) are two patterns."""
    params = RegenParams(6, 4, 2, 3, 3, 1)
    rng = np.random.default_rng(59)
    encoders = [rng.integers(0, 256, size=(6, 3)) for _ in range(4)]
    stores = [_hand_built_store(params, order, rng, encoders) for order in (256, 257)]
    mu = [3, 0, 3, 1]
    for _ in range(3):
        for store in stores:
            assert _reconstruct_outcome(store, downloads_for(store, mu)) == store.source.tolist()
    keys = [_pattern_key(store, mu) for store in stores]
    assert keys[0][1:] == keys[1][1:]
    assert decoders.get(keys[0]) is not None and decoders.get(keys[1]) is not None
    assert len(eliminations) == 2
