import math
from unittest import mock

import pytest
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import arrable_of
from oracles import cosine_oracle, euclidean_scores_oracle, euclidean_unit_oracle
from vaquery import operators, similarity
from vaquery.engine import StageStats
from vaquery.errors import DimensionMismatch, ZeroVector
from vaquery.operators import cjoin, nl_join
from vaquery.similarity import (MatchCondition, MatchPolarity, Metric, canonical_scores,
                                normalized_matrix, scores_against, smatch)


def fv(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def cosine(a, b) -> float:
    return smatch(MatchCondition(Metric.COSINE), a, b)[1]


def euclidean_unit(a, b) -> float:
    return smatch(MatchCondition(Metric.EUCLIDEAN), a, b)[1]


def test_cosine_identical_vectors():
    assert cosine(fv([3, 4]), fv([3, 4])) == pytest.approx(1.0)


def test_cosine_orthogonal_vectors():
    assert cosine(fv([1, 0]), fv([0, 1])) == 0.0


def test_cosine_45_degrees():
    # oracle: direct dot-product evaluation gives 1/sqrt(2) = 0.7071067811865475
    expected = cosine_oracle([1, 0], [1, 1])
    assert expected == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    got = cosine(fv([1, 0]), fv([1, 1]))
    assert got == pytest.approx(expected, abs=1e-9)
    assert round(got, 8) == 0.70710678


def test_cosine_clamps_negative_to_zero():
    assert cosine(fv([1, 0]), fv([-1, 0])) == 0.0


def test_euclidean_identical_vectors():
    assert euclidean_unit(fv([5, 5, 5]), fv([5, 5, 5])) == 0.0


def test_euclidean_orthogonal_unit_vectors():
    # oracle: sqrt(2)/2 = 0.7071067811865476 on unit vectors
    expected = euclidean_unit_oracle([1, 0], [0, 1])
    assert expected == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    got = euclidean_unit(fv([1, 0]), fv([0, 1]))
    assert got == pytest.approx(expected, abs=1e-9)
    assert round(got, 8) == 0.70710678


def test_euclidean_antipodal_is_max():
    assert euclidean_unit(fv([2, 0]), fv([-1, 0])) == pytest.approx(1.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine(fv([1, 2]), fv([1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        euclidean_unit(fv([1]), fv([1, 2]))


def test_zero_vector_is_an_error():
    with pytest.raises(ZeroVector):
        cosine(fv([0, 0]), fv([1, 0]))
    with pytest.raises(ZeroVector):
        euclidean_unit(fv([1, 0]), fv([0, 0]))


def test_smatch_self_match_cosine():
    cond = MatchCondition(Metric.COSINE, 0.85)
    assert smatch(cond, fv([1, 2, 3]), fv([1, 2, 3])) == (True, 1.0)


def test_smatch_orthogonal_no_match():
    cond = MatchCondition(Metric.COSINE, 0.85)
    assert smatch(cond, fv([1, 0]), fv([0, 1])) == (False, 0.0)


def test_smatch_euclidean_zero_distance():
    cond = MatchCondition(Metric.EUCLIDEAN, 0.008)
    matched, score = smatch(cond, fv([0.1, 0.9]), fv([0.1, 0.9]))
    assert matched and score == 0.0


def test_default_polarity_per_metric():
    assert MatchCondition(Metric.COSINE, 0.5).polarity is MatchPolarity.SIMILARITY_AT_LEAST
    assert MatchCondition(Metric.EUCLIDEAN, 0.5).polarity is MatchPolarity.DISTANCE_AT_MOST


def test_threshold_out_of_range_rejected():
    with pytest.raises(ValueError):
        MatchCondition(Metric.COSINE, 1.5)
    with pytest.raises(ValueError):
        MatchCondition(Metric.COSINE, -0.1)


nonzero_vec = st.integers(2, 6).flatmap(
    lambda d: st.lists(st.floats(-10, 10, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
                       min_size=d, max_size=d))


@given(nonzero_vec, st.sampled_from([Metric.COSINE, Metric.EUCLIDEAN]))
def test_reflexivity(vec, metric):
    cond = MatchCondition(metric, 1.0 if metric is Metric.COSINE else 0.0)
    matched, score = smatch(cond, fv(vec), fv(vec))
    assert matched
    assert score == pytest.approx(1.0 if metric is Metric.COSINE else 0.0, abs=1e-7)


@given(st.integers(2, 6).flatmap(lambda d: st.tuples(
    st.lists(st.floats(-5, 5, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
             min_size=d, max_size=d),
    st.lists(st.floats(-5, 5, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
             min_size=d, max_size=d))),
    st.sampled_from([Metric.COSINE, Metric.EUCLIDEAN]))
def test_symmetry_and_range(pair, metric):
    a, b = pair
    cond = MatchCondition(metric, 0.5)
    m1, s1 = smatch(cond, fv(a), fv(b))
    m2, s2 = smatch(cond, fv(b), fv(a))
    assert (m1, s1) == (m2, s2)
    assert 0.0 <= s1 <= 1.0


@given(nonzero_vec, st.floats(0.01, 100.0))
def test_scale_invariance(vec, factor):
    a = fv(vec)
    scaled = fv([factor * x for x in vec])
    assert cosine(a, scaled) == pytest.approx(1.0, abs=1e-9)
    # the shifted vector must itself be nonzero (all -1.0 shifts to zero)
    assume(any(x + 1.0 != 0 for x in vec))
    other = fv([x + 1.0 for x in vec])
    assert cosine(a, other) == pytest.approx(
        cosine(scaled, other), abs=1e-9)
    assert euclidean_unit(a, other) == pytest.approx(
        euclidean_unit(scaled, other), abs=1e-9)


@given(nonzero_vec, nonzero_vec.filter(lambda v: True),
       st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=60)
def test_threshold_monotonicity(a, b, th1, th2):
    if len(a) != len(b):
        b = (b * len(a))[:len(a)]
    lo, hi = min(th1, th2), max(th1, th2)
    m_lo, _ = smatch(MatchCondition(Metric.COSINE, lo), fv(a), fv(b))
    m_hi, _ = smatch(MatchCondition(Metric.COSINE, hi), fv(a), fv(b))
    # raising the similarity floor never turns a non-match into a match
    assert m_lo or not m_hi
    m_lo_d, _ = smatch(MatchCondition(Metric.EUCLIDEAN, lo), fv(a), fv(b))
    m_hi_d, _ = smatch(MatchCondition(Metric.EUCLIDEAN, hi), fv(a), fv(b))
    assert m_hi_d or not m_lo_d


def test_batched_scores_match_oracle():
    vectors = fv([[1, 0], [1, 1], [0.3, 0.7]])
    probes = fv([[0.5, 0.5], [2, -1], [0, 3]])
    mat = normalized_matrix(vectors)
    probe_mat = normalized_matrix(probes)
    for metric in Metric:
        cond = MatchCondition(metric, 0.5)
        decisions = scores_against(cond, probe_mat, mat)
        scores = canonical_scores(metric, probe_mat[:, None], mat[None])
        assert decisions.shape == scores.shape == (len(probes), len(vectors))
        for p, probe in enumerate(probes):
            for i, v in enumerate(vectors):
                expected = (cosine_oracle(probe.tolist(), v.tolist())
                            if metric is Metric.COSINE
                            else euclidean_unit_oracle(probe.tolist(), v.tolist()))
                assert scores[p, i] == pytest.approx(expected, abs=1e-9)
                assert abs(expected - cond.th) > 1e-9  # so the oracle decides it too
                assert decisions[p, i] == cond.matched(expected)


def test_batched_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        normalized_matrix(fv([[0.0, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40), st.integers(0, 40),
       st.sampled_from([1, 3, 16, 128, 2000]))
def test_euclidean_blocks_match_the_per_row_loop_bit_for_bit(seed, n, m, dim):
    rng = np.random.default_rng(seed)
    left, right = (normalized_matrix(rng.normal(size=(k, dim))) if k
                   else np.zeros((0, dim)) for k in (n, m))
    if n and m:
        right[m // 2] = left[n // 2]
    oracle = euclidean_scores_oracle(left, right)
    assert np.array_equal(canonical_scores(Metric.EUCLIDEAN, left[:, None], right), oracle)
    for th in (0.0, 0.5):
        cond = MatchCondition(Metric.EUCLIDEAN, th)
        got = scores_against(cond, left, right)
        assert got.shape == (n, m)
        assert np.array_equal(got, cond.matched(oracle))
    if n and m:
        assert oracle[n // 2, m // 2] == 0.0 and got[n // 2, m // 2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 5e-324])
def test_extreme_magnitudes_normalize_without_warnings(scale):
    unit = normalized_matrix(np.array([[scale, 0.0, 0.0, 0.0], [scale, scale, 0.0, 0.0],
                                       [3.0, 4.0, 0.0, 0.0], [1e-160, 1e-160, 0.0, 0.0]]))
    assert unit[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert unit[1] == pytest.approx([math.sqrt(0.5)] * 2 + [0.0] * 2)
    assert unit[2].tolist() == [0.6, 0.8, 0.0, 0.0]  # a finite positive norm: as before
    # squares below the smallest normal float lose bits unless the row is rescaled
    ones = normalized_matrix(np.array([[1.0, 1.0, 0.0, 0.0]]))
    assert unit[3].tolist() == ones[0].tolist()
    assert canonical_scores(Metric.EUCLIDEAN, unit[3], ones[0]) == 0.0
    assert scores_against(MatchCondition(Metric.EUCLIDEAN, 0.0), unit[3:], ones)[0, 0]
    probe = normalized_matrix(fv([[scale, 0.0, 0.0, 0.0]]))
    assert canonical_scores(Metric.COSINE, probe[0], unit[0]) == 1.0
    for th in (0.5, 1.0):
        assert scores_against(MatchCondition(th=th), probe, unit)[0, 0]


@pytest.mark.filterwarnings("error")
def test_only_an_all_zero_row_is_a_zero_vector():
    with pytest.raises(ZeroVector):
        normalized_matrix(np.array([[1e-200, 0.0], [0.0, 0.0]]))
    rows = np.random.default_rng(3).normal(size=(20, 8))
    assert np.array_equal(normalized_matrix(rows),
                          rows / np.sqrt((rows * rows).sum(axis=1))[:, None])


def _split(raw: np.ndarray, rng) -> dict:
    """Positions of the rows of ``raw`` cut into up to three non-empty groups, by key."""
    groups = np.split(np.arange(len(raw)), np.sort(rng.integers(0, len(raw) + 1, size=2)))
    return {key: rows for key, rows in enumerate(groups) if len(rows)}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 40),
       st.sampled_from([1, 3, 16, 128]), st.sampled_from(list(Metric)),
       st.sampled_from(list(MatchPolarity)), st.sampled_from(["gemm", "canonical", "0", "1"]),
       st.sampled_from([-1, 0, 1]))
# cosine scores below 0 clip to it, so sMatch(0) matches them all
@example(0, 6, 40, 128, Metric.COSINE, MatchPolarity.SIMILARITY_AT_LEAST, "0", 0)
def test_every_decision_and_reported_score_is_the_canonical_one(seed, n, m, dim, metric,
                                                                polarity, th_from, step):
    rng = np.random.default_rng(seed)
    raw_left, raw_right = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
    pi, pj = rng.integers(n), rng.integers(m)
    raw_right[pj] = raw_left[pi]  # a planted equal row
    if m > 1:  # and a near-equal one
        raw_right[(pj + 1) % m] = raw_left[pi] + 1e-9 * rng.normal(size=dim)
    left, right = normalized_matrix(raw_left), normalized_matrix(raw_right)
    canon = canonical_scores(metric, left[:, None], right[None])
    k = rng.integers(n), rng.integers(m)
    gemm = (left @ right.T)[k]
    # a GEMM score, as the threshold the kernel filters at: th itself for
    # cosine, 1 - 2 th^2 for euclidean
    th = {"gemm": gemm if metric is Metric.COSINE else math.sqrt(max(0.0, 1.0 - gemm) / 2),
          "canonical": canon[k], "0": 0.0, "1": 1.0}[th_from]
    th = np.clip(np.nextafter(th, step * np.inf) if step else th, 0.0, 1.0)
    cond = MatchCondition(metric, float(th), polarity)
    expected = cond.matched(canon)
    cut = rng.integers(n + 1)
    blocks = [scores_against(cond, left, right), scores_against(cond, right, left).T,
              np.vstack([scores_against(cond, left[:cut], right),
                         scores_against(cond, left[cut:], right)]),
              np.array([[scores_against(cond, a[None], b[None])[0, 0] for b in right]
                        for a in left])]
    for block in blocks:
        assert np.array_equal(block, expected)
    equal = 1.0 if metric is Metric.COSINE else 0.0
    assert smatch(cond, raw_left[pi], raw_right[pj])[1] == canon[pi, pj] == equal

    # a join's witness is the first canonical match of a group pair, in
    # (left element, right element) order, and its score is canonical
    lgroups, rgroups = _split(raw_left, rng), _split(raw_right, rng)
    want = []
    for lkey, lrows in lgroups.items():
        for rkey, rrows in rgroups.items():
            hits = np.argwhere(expected[np.ix_(lrows, rrows)])
            if len(hits):
                li, ri = hits[0].tolist()
                want.append((lkey, rkey, li, ri, canon[lrows[li], rrows[ri]]))
    sides = [arrable_of({key: {"fid": list(range(len(rows))), "fv": [tuple(v) for v in raw[rows]]}
                         for key, rows in groups.items()})
             for raw, groups in ((raw_left, lgroups), (raw_right, rgroups))]
    for join in (nl_join, cjoin):
        got = join(*sides, cond)
        assert list(zip(*(column.tolist() for column in got))) == want


def test_only_gemm_scores_near_the_threshold_are_rescored():
    # canonical_scores is wrapped where the kernel and the joins' witnesses
    # call it; each call scores its broadcast shape of pairs
    spy = mock.Mock(wraps=canonical_scores)

    def rescored() -> int:
        pairs = sum(math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
                    for (_, a, b), _ in spy.call_args_list)
        spy.reset_mock()
        return pairs

    rng = np.random.default_rng(7)
    row = tuple(rng.normal(size=16))
    side = arrable_of({0: {"fid": list(range(2000)), "fv": [row] * 2000}})
    left, right = normalized_matrix(rng.normal(size=(50, 16))), normalized_matrix(
        rng.normal(size=(60, 16)))
    far = [MatchCondition(Metric.COSINE, 0.999), MatchCondition(Metric.EUCLIDEAN, 1e-3)]
    # random 16-d rows lie far from these thresholds: no pair matches
    assert not any(cond.matched(canonical_scores(cond.metric, left[:, None], right)).any()
                   for cond in far)
    with mock.patch.object(similarity, "canonical_scores", spy), \
            mock.patch.object(operators, "canonical_scores", spy):
        for cond, equal in ((MatchCondition(Metric.COSINE, 0.9), 1.0),
                            (MatchCondition(Metric.EUCLIDEAN, 0.1), 0.0)):
            # a 2,000 x 2,000 pair of one repeated row scores only its witness
            counter = StageStats("join")
            got = nl_join(side, side, cond, counter=counter)
            assert [column.tolist() for column in got] == [[0], [0], [0], [0], [equal]]
            assert counter.smatch_comparisons == 2000 * 2000
            assert rescored() == 1
        for cond in far:  # and no GEMM score lies in the band, so none is re-decided
            assert not scores_against(cond, left, right).any()
            assert rescored() == 0
