import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tml.cli as cli
import tml.ensemble as ensemble
from tml import dyck, spectral
from tml.ensemble import (
    DistributionError,
    make_distribution,
    moment,
    parse_distribution,
    rademacher,
    sample_symmetric_matrix,
    map_to_support,
    skew12,
)

NUMPY_PIN = "2.4.6"  # the numpy whose SeedSequence hash _seed_words mirrors


def test_rademacher_moments():
    d = rademacher()
    assert d.sigma == 1.0
    assert moment(d, 3) == 0.0
    assert d.bound_K == 1.0
    for k in range(0, 20):
        assert moment(d, k) == (1.0 if k % 2 == 0 else 0.0)


def test_skew12_moments():
    d = skew12()
    assert d.sigma == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert moment(d, 3) == pytest.approx(2.0, abs=1e-12)
    assert d.bound_K == 2.0
    # E[x^k] = (2/3)(-1)^k + (1/3)2^k
    for k in range(0, 12):
        direct = (2.0 / 3.0) * (-1.0) ** k + (1.0 / 3.0) * 2.0**k
        assert moment(d, k) == pytest.approx(direct, rel=1e-13)
    assert moment(d, 2) == pytest.approx(2.0, abs=1e-12)
    assert moment(d, 4) == pytest.approx(6.0, rel=1e-13)


def test_high_order_moment_and_negative_order():
    d = skew12()
    # past every order an exact route tabulates, the sum stays the direct one
    k = 67
    direct = sum(p * x**k for p, x in zip(d.probabilities, d.support))
    assert moment(d, k) == pytest.approx(direct, rel=1e-13)
    with pytest.raises(ValueError):
        moment(d, -1)


@pytest.mark.parametrize(
    "support,probs",
    [
        ([-1.0, 1.0], [0.5]),                 # length mismatch
        ([], []),                              # empty
        ([1.0, 1.0], [0.5, 0.5]),              # duplicate support
        ([-1.0, 1.0], [0.0, 1.0]),             # zero probability
        ([-1.0, 1.0], [0.6, 0.6]),             # mass != 1
        ([0.0, 2.0], [0.5, 0.5]),              # nonzero mean
        ([0.0], [1.0]),                        # zero variance
        ([math.nan, 1.0], [0.5, 0.5]),         # non-finite support point
        ([-math.inf, math.inf], [0.5, 0.5]),   # non-finite support points
        ([-1e200, 1e200], [0.5, 0.5]),         # variance past the float range
    ],
)
def test_make_distribution_rejects(support, probs):
    with pytest.raises(DistributionError):
        make_distribution(support, probs)


def test_law_whose_third_power_overflows_is_accepted(tmp_path):
    # x^3 leaves the float range, x^2 does not: the moment cache stops at order 2
    token = "support=-1e120,1e120;probs=0.5,0.5"
    d = parse_distribution(token)
    assert d.sigma == 1e120
    assert moment(d, 2) == 1e240
    with pytest.raises(DistributionError):
        moment(d, 3)
    argv = ["trace-exact", "--dist", token, "--n", "2", "--s", "1", "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 0


@given(
    a=st.integers(min_value=1, max_value=100),
    b=st.integers(min_value=1, max_value=100),
    exponent=st.integers(min_value=-9, max_value=9),
)
def test_scaled_centered_laws_are_accepted(a, b, exponent):
    # support {-a, b} * 10^exponent with the probabilities that center it
    scale = 10.0**exponent
    d = make_distribution([-a * scale, b * scale], [b / (a + b), a / (a + b)])
    assert d.bound_K == max(a, b) * scale


def test_scaled_laws_keep_the_mean_check():
    d = parse_distribution(
        "support=-1000000,2000000;probs=0.6666666666666666,0.3333333333333334"
    )
    assert d.bound_K == 2e6
    assert moment(d, 2) == pytest.approx(2e12, rel=1e-12)
    with pytest.raises(DistributionError):
        moment(d, 60)  # 2e6^60 overflows a float
    with pytest.raises(DistributionError):
        make_distribution([-1e6, 2e6], [0.6, 0.4])  # mean 2e5
    with pytest.raises(DistributionError):
        make_distribution([-1e-6, 2e-6], [0.6, 0.4])  # mean 2e-7


def test_parse_distribution_presets_and_inline():
    assert parse_distribution("rademacher").name == "rademacher"
    assert parse_distribution(" skew12 ").name == "skew12"
    d = parse_distribution("support=-1,2;probs=0.666666666666666666,0.333333333333333333")
    assert d.support == (-1.0, 2.0)
    with pytest.raises(DistributionError):
        parse_distribution("gaussian")
    with pytest.raises(DistributionError):
        parse_distribution("support=-1,2;probs=a,b")


def test_sample_symmetric_matrix_shape_and_symmetry():
    d = skew12()
    sample = sample_symmetric_matrix(d, 7, seed=123)
    a = sample.entries
    assert a.shape == (7, 7)
    assert np.array_equal(a, a.T)
    assert set(np.unique(a)) <= set(d.support)
    assert np.array_equal(sample.normalized_view, a / math.sqrt(7))


def test_sample_symmetric_matrix_deterministic():
    d = rademacher()
    a = sample_symmetric_matrix(d, 12, seed=9).entries
    b = sample_symmetric_matrix(d, 12, seed=9).entries
    c = sample_symmetric_matrix(d, 12, seed=10).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        sample_symmetric_matrix(d, 0, seed=0)


def test_sample_frequencies_match_law():
    d = skew12()
    a = sample_symmetric_matrix(d, 300, seed=4).entries
    iu = np.triu_indices(300)
    vals = a[iu]
    frac_two = float(np.mean(vals == 2.0))
    # 45150 draws; 4 sigma of a Bernoulli(1/3) mean is about 0.0089
    assert abs(frac_two - 1.0 / 3.0) < 0.01


two_point_laws = st.floats(min_value=0.1, max_value=10.0).map(
    # centered two-point law: support {-a, b} with p(-a) = b/(a+b)
    lambda a: make_distribution([-a, 1.0], [1.0 / (a + 1.0), a / (a + 1.0)])
)


@given(two_point_laws, st.integers(min_value=0, max_value=16))
def test_moment_bounded_by_support_bound(dist, k):
    assert abs(moment(dist, k)) <= dist.bound_K**k + 1e-9


@given(two_point_laws)
def test_two_point_law_variance_matches_sigma(dist):
    var = sum(p * x * x for p, x in zip(dist.probabilities, dist.support))
    assert dist.sigma == pytest.approx(math.sqrt(var), rel=1e-12)
    assert moment(dist, 1) == pytest.approx(0.0, abs=1e-9)


def searchsorted_oracle(dist, u):
    cum = np.cumsum(np.asarray(dist.probabilities))
    cum[-1] = 1.0
    return np.asarray(dist.support)[np.searchsorted(cum, u, side="right")]


def test_sampling_stream_definition():
    # trial seeds index PCG64 streams exactly as np.random.default_rng does
    n, seed = 7, 123
    u = np.random.default_rng(seed).random(n * (n + 1) // 2)
    d = make_distribution([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    edges = np.array([[0.0, 0.2499], [0.25, 0.7499], [0.75, 0.9999]])
    map_to_support(d, edges)
    assert edges.tolist() == [[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]]
    sample = sample_symmetric_matrix(d, n, seed)
    upper = sample.entries[np.triu_indices(n)]
    assert np.array_equal(upper, searchsorted_oracle(d, u))


THREE_POINT = make_distribution([-1.0, 0.0, 1.0], [0.0001, 0.9998, 0.0001])


@pytest.mark.parametrize("dist", [skew12(), rademacher(), THREE_POINT],
                         ids=["skew12", "rademacher", "three-point"])
def test_map_to_support_matches_searchsorted_bit_for_bit(dist, monkeypatch):
    # the in-place mapper against the gather it replaced, at every bin edge
    cum0 = float(np.cumsum(dist.probabilities)[0])
    edges = [0.0, cum0, np.nextafter(cum0, 0.0), np.nextafter(1.0, 0.0)]
    u = np.concatenate([edges, np.random.default_rng(5).random(1000)])
    expected = searchsorted_oracle(dist, u)
    monkeypatch.setattr(ensemble, "_MAP_BLOCK", 64)  # many blocks
    got = u.copy()
    map_to_support(dist, got)
    assert np.array_equal(got, expected)
    # a strided view, with a scaled support as the trial kernel passes it
    grid = np.zeros((len(u), 3))
    grid[:, 1] = u
    map_to_support(dist, grid[:, 1], np.asarray(dist.support) / np.sqrt(7))
    assert np.array_equal(grid[:, 1], expected / np.sqrt(7))
    assert not grid[:, [0, 2]].any()


# ---------- one seeding pass per call, against default_rng(seed + j) ----------


@pytest.mark.parametrize("seed", [0, 1, 42, 123456789, 2**32 - 1])
def test_seed_words_match_seed_sequence(seed):
    pin = (
        f"ensemble._seed_words mirrors only the SeedSequence hash of numpy "
        f"{NUMPY_PIN} and does not match the installed numpy {np.__version__}"
    )
    words = ensemble._seed_words(np.array([seed], dtype=np.uint32))[0]
    assert np.array_equal(words, np.random.SeedSequence(seed).generate_state(4, np.uint64)), pin
    rng = next(ensemble._trial_streams(seed, 1))
    assert rng.bit_generator.state == np.random.PCG64(seed).state, pin


# 2**32 - 2 crosses into the per-trial fallback, 2**64 + 5 lies past it
@pytest.mark.parametrize("seed,count", [(256, 12), (2**32 - 2, 4), (2**64 + 5, 3)])
def test_trial_streams_follow_default_rng(monkeypatch, seed, count):
    monkeypatch.setattr(ensemble, "_SEED_BLOCK", 5)  # several hashing passes
    uniforms = [rng.random(6).tolist() for rng in ensemble._trial_streams(seed, count)]
    assert uniforms == [np.random.default_rng(seed + j).random(6).tolist() for j in range(count)]

    def shuffled(rng):
        row = np.arange(9, dtype=np.int8)
        rng.shuffle(row)
        return row.tolist()

    shuffles = [shuffled(rng) for rng in ensemble._trial_streams(seed, count)]
    assert shuffles == [shuffled(np.random.default_rng(seed + j)) for j in range(count)]


# seven items span two hashing passes of five; 2**32 - 2 crosses into the
# per-trial fallback
@pytest.mark.parametrize("seed", [3, 2**32 - 2])
def test_trial_streams_items_held_at_once_stay_independent(monkeypatch, seed):
    monkeypatch.setattr(ensemble, "_SEED_BLOCK", 5)
    held = list(ensemble._trial_streams(seed, 7))
    oracles = [np.random.default_rng(seed + j) for j in range(7)]
    for _ in range(3):
        for rng, oracle in zip(held, oracles):
            assert rng.random(2).tolist() == oracle.random(2).tolist()


@pytest.mark.parametrize("seed", [256, 2**32 - 2, 2**64 + 5])
def test_trial_values_chunk_edge_follows_default_rng(monkeypatch, seed):
    # chunks of three matrices: four trials cross a chunk edge
    n, d = 3, skew12()
    monkeypatch.setattr(spectral, "BATCH_BYTES", 3 * 8 * n * n)
    got = spectral.trial_values(d, n, 4, seed, "lambda_max")
    oracle = [
        spectral.largest_eigenvalue(sample_symmetric_matrix(d, n, seed + j).normalized_view)
        for j in range(4)
    ]
    assert got.tolist() == oracle


@pytest.mark.parametrize("seed", [256, 2**32 - 2, 2**64 + 5])
def test_dyck_chunk_edge_follows_default_rng(monkeypatch, seed):
    monkeypatch.setattr(dyck, "_BATCH_BYTES", 3000)
    assert dyck._chunk_rows(7) == 3
    chunks, count = dyck._level_chunks(7, "mc", 4, seed)
    levels = np.concatenate(list(chunks)).tolist()
    assert levels == [dyck.sample_dyck(7, seed + j).levels() for j in range(count)]


def test_negative_seed_is_refused_before_any_draw():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        next(ensemble._trial_streams(-2, 4))


@pytest.mark.parametrize("argv", [
    ["trace-mc", "--dist", "skew12", "--n", "3", "--s", "2", "--trials", "4"],
    ["dyck-stats", "--s", "7", "--mode", "mc", "--trials", "4"],
    ["spectrum", "--dist", "skew12", "--n", "3"],
    ["edge-exceed", "--dist", "skew12", "--n", "3", "--trials", "2", "--epsilon", "0.05"],
    ["concentration", "--dist", "skew12", "--n", "3", "--trials", "2"],
    ["verify-gluing", "--n", "3", "--s", "2", "--random", "4"],
])
def test_negative_seed_exits_1_in_one_line(tmp_path, capsys, argv):
    assert cli.main([*argv, "--seed", "-2", "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"tml {argv[0]}: seed must be at least 0, got -2"]
    assert list(tmp_path.iterdir()) == []
