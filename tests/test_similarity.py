import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import cosine_oracle, euclidean_unit_oracle
from vaquery.errors import DimensionMismatch, ZeroVector
from vaquery.model import FeatureVector
from vaquery.similarity import (MatchCondition, MatchPolarity, Metric,
                                cosine_similarity, euclidean_distance_unit,
                                normalized_matrix, scores_against, smatch)

fv = FeatureVector


def test_cosine_identical_vectors():
    assert cosine_similarity(fv([3, 4]), fv([3, 4])) == pytest.approx(1.0)


def test_cosine_orthogonal_vectors():
    assert cosine_similarity(fv([1, 0]), fv([0, 1])) == 0.0


def test_cosine_45_degrees():
    # oracle: direct dot-product evaluation gives 1/sqrt(2) = 0.7071067811865475
    expected = cosine_oracle([1, 0], [1, 1])
    assert expected == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    got = cosine_similarity(fv([1, 0]), fv([1, 1]))
    assert got == pytest.approx(expected, abs=1e-9)
    assert round(got, 8) == 0.70710678


def test_cosine_clamps_negative_to_zero():
    assert cosine_similarity(fv([1, 0]), fv([-1, 0])) == 0.0


def test_euclidean_identical_vectors():
    assert euclidean_distance_unit(fv([5, 5, 5]), fv([5, 5, 5])) == 0.0


def test_euclidean_orthogonal_unit_vectors():
    # oracle: sqrt(2)/2 = 0.7071067811865476 on unit vectors
    expected = euclidean_unit_oracle([1, 0], [0, 1])
    assert expected == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    got = euclidean_distance_unit(fv([1, 0]), fv([0, 1]))
    assert got == pytest.approx(expected, abs=1e-9)
    assert round(got, 8) == 0.70710678


def test_euclidean_antipodal_is_max():
    assert euclidean_distance_unit(fv([2, 0]), fv([-1, 0])) == pytest.approx(1.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(fv([1, 2]), fv([1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        euclidean_distance_unit(fv([1]), fv([1, 2]))


def test_zero_vector_is_an_error():
    with pytest.raises(ZeroVector):
        cosine_similarity(fv([0, 0]), fv([1, 0]))
    with pytest.raises(ZeroVector):
        euclidean_distance_unit(fv([1, 0]), fv([0, 0]))


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
    assert cosine_similarity(a, scaled) == pytest.approx(1.0, abs=1e-9)
    # the shifted vector must itself be nonzero (all -1.0 shifts to zero)
    assume(any(x + 1.0 != 0 for x in vec))
    other = fv([x + 1.0 for x in vec])
    assert cosine_similarity(a, other) == pytest.approx(
        cosine_similarity(scaled, other), abs=1e-9)
    assert euclidean_distance_unit(a, other) == pytest.approx(
        euclidean_distance_unit(scaled, other), abs=1e-9)


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
    vectors = [fv([1, 0]), fv([1, 1]), fv([0.3, 0.7])]
    probe = fv([0.5, 0.5])
    mat = normalized_matrix(vectors)
    probe_unit = normalized_matrix([probe])[0]
    for metric in Metric:
        cond = MatchCondition(metric, 0.5)
        scores = scores_against(cond, probe_unit, mat)
        for i, v in enumerate(vectors):
            expected = (cosine_oracle(probe.as_list(), v.as_list())
                        if metric is Metric.COSINE
                        else euclidean_unit_oracle(probe.as_list(), v.as_list()))
            assert scores[i] == pytest.approx(expected, abs=1e-9)


def test_batched_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        normalized_matrix([fv([0.0, 0.0])])
