"""Feature-vector similarity matching.

Two metrics are supported, both producing scores in [0, 1]:

* cosine similarity, ``max(0, a.b / (|a||b|))`` — 1 means identical
  direction, 0 means orthogonal (or opposed, after clamping);
* unit euclidean distance, ``|a/|a| - b/|b|| / 2`` — 0 means identical
  direction, 1 means opposed. Normalizing first keeps the raw (unbounded)
  euclidean distance inside the stated range.

A match condition pairs a metric with a threshold and a polarity: a
similarity metric matches when the score is at least the threshold, a
distance metric when the score is at most the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, ZeroVector
from .model import FeatureVector


class Metric(Enum):
    COSINE = "cosine"
    EUCLIDEAN = "euclidean"


class MatchPolarity(Enum):
    SIMILARITY_AT_LEAST = "similarity_at_least"
    DISTANCE_AT_MOST = "distance_at_most"


DEFAULT_POLARITY = {
    Metric.COSINE: MatchPolarity.SIMILARITY_AT_LEAST,
    Metric.EUCLIDEAN: MatchPolarity.DISTANCE_AT_MOST,
}


@dataclass(frozen=True)
class MatchCondition:
    """Similarity-match parameters: metric, threshold in [0, 1], polarity."""

    metric: Metric = Metric.COSINE
    th: float = 0.5
    polarity: MatchPolarity | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.th <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.th}")
        if self.polarity is None:
            object.__setattr__(self, "polarity", DEFAULT_POLARITY[self.metric])

    def matched(self, score: float | np.ndarray) -> bool | np.ndarray:
        """Match test for one score, or elementwise over an array of scores."""
        if self.polarity is MatchPolarity.SIMILARITY_AT_LEAST:
            return score >= self.th
        return score <= self.th


def cosine_similarity(a: FeatureVector, b: FeatureVector) -> float:
    """Cosine of the angle between ``a`` and ``b``, clamped to [0, 1]."""
    return smatch(MatchCondition(Metric.COSINE), a, b)[1]


def euclidean_distance_unit(a: FeatureVector, b: FeatureVector) -> float:
    """Euclidean distance between the L2-normalized inputs, scaled to [0, 1]."""
    return smatch(MatchCondition(Metric.EUCLIDEAN), a, b)[1]


def smatch(cond: MatchCondition, a: FeatureVector, b: FeatureVector) -> tuple[bool, float]:
    """Evaluate the match condition; returns (matched, score)."""
    score = float(scores_against(cond, normalized_matrix([a]), normalized_matrix([b]))[0, 0])
    return cond.matched(score), score


# The one similarity kernel: SELECT probes and all three joins score through
# scores_against, so every caller sees the same arithmetic and exactness rule.

#: Equal unit rows are looked for only once a cosine score passes 1 - gate;
#: a d-dimensional dot product is off by about d * 1e-16, far less than this.
_EQUAL_GATE = 1e-6
#: Elements of one block of euclidean differences: a slice of left rows is
#: differenced against all of ``right`` at once, in blocks of at most this size.
_DIFF_ELEMENTS = 1 << 16


def normalized_matrix(vectors: np.ndarray | list[FeatureVector]) -> np.ndarray:
    """Row-normalized copy of an (n, d) block, or of a list of vectors stacked;
    only an all-zero row is a :class:`ZeroVector`."""
    if not isinstance(vectors, np.ndarray):
        if not vectors:
            return np.zeros((0, 0))
        dims = {v.dim for v in vectors}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed feature vector dimensions in one group: {sorted(dims)}")
        vectors = np.array([v.values for v in vectors])
    with np.errstate(over="ignore"):  # an infinite norm is rescaled below
        norms = np.sqrt((vectors * vectors).sum(axis=1))  # np.linalg.norm's arithmetic, less overhead
    odd = ~((norms > 0) & (norms < np.inf))  # squares over- or underflowed, or all zero
    if odd.any():  # so divide those rows by their largest magnitude first
        peak = np.abs(vectors[odd]).max(axis=1, initial=0.0)
        if not peak.all():
            raise ZeroVector("similarity is undefined for an all-zero vector")
        vectors = vectors.astype(float)  # a copy
        vectors[odd] /= peak[:, None]
        norms[odd] = np.sqrt((vectors[odd] * vectors[odd]).sum(axis=1))
    return vectors / norms[:, None]


def scores_against(cond: MatchCondition, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(n, m) scores of every row of unit matrix ``left`` against every row of ``right``.

    Exactness rule: equal unit rows score exactly 1.0 under cosine and
    exactly 0.0 under euclidean, whatever the roundoff of the arithmetic.
    """
    if left.shape[1] != right.shape[1]:
        raise DimensionMismatch(
            f"feature vectors differ in dimension: {left.shape[1]} vs {right.shape[1]}")
    if cond.metric is Metric.EUCLIDEAN:
        # direct differences, summed as np.linalg.norm sums them: an equal
        # row subtracts to exactly zero
        dist = np.empty((len(left), len(right)))
        step = max(1, _DIFF_ELEMENTS // max(1, right.size))
        for lo in range(0, len(left), step):
            diff = right[None] - left[lo:lo + step, None]
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=2, out=dist[lo:lo + step])
        return np.clip(np.sqrt(dist) / 2.0, 0.0, 1.0)
    scores = np.clip(left @ right.T, 0.0, 1.0)
    if scores.size and scores.max() > 1.0 - _EQUAL_GATE:
        ids = np.unique(np.concatenate([left, right]), axis=0, return_inverse=True)[1].reshape(-1)
        scores[ids[:len(left), None] == ids[None, len(left):]] = 1.0
    return scores
