"""Feature-vector similarity matching.

Two metrics are supported, both producing scores in [0, 1]:

* cosine similarity, ``max(0, a.b / (|a||b|))`` — 1 means identical
  direction, 0 means orthogonal (or opposed, after clamping);
* unit euclidean distance, ``|a/|a| - b/|b|| / 2`` — 0 means identical
  direction, 1 means opposed. Normalizing first keeps the raw (unbounded)
  euclidean distance inside the stated range.

A match condition pairs a metric with a threshold and a polarity: a
similarity metric matches when the score is at least the threshold, a
distance metric when the score is at most the threshold. SELECT probes and
all three joins decide through :func:`scores_against`, which decides every
pair as its :func:`canonical_scores` score does, and report canonical scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, ZeroVector


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


def smatch(cond: MatchCondition, a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    """Evaluate the match condition on two 1-d vectors; returns (matched, score)."""
    a, b = (normalized_matrix(np.asarray(v, dtype=np.float64).reshape(1, -1)) for v in (a, b))
    score = float(canonical_scores(cond.metric, a, b)[0])
    return cond.matched(score), score


#: Score elements that one tile of a join, or one cosine re-score, holds at most.
TILE_ELEMENTS = 1 << 16


def tile_rows(metric: Metric, m: int, d: int) -> int:
    """Left rows of one tile against ``m`` right rows of dimension ``d``: a
    euclidean pair is differenced, d elements wide, a cosine GEMM score is one."""
    return max(1, TILE_ELEMENTS // (m * (d if metric is Metric.EUCLIDEAN else 1)))


def normalized_matrix(vectors: np.ndarray) -> np.ndarray:
    """Row-normalized copy of an (n, d) block; only an all-zero row is a
    :class:`ZeroVector`."""
    with np.errstate(over="ignore"):  # an infinite sum is rescaled below
        squares = (vectors * vectors).sum(axis=1)  # np.linalg.norm's arithmetic, less overhead
    norms = np.sqrt(squares)
    # a sum of squares that overflowed, or that fell below the normal floats and
    # so lost bits, or an all-zero row
    odd = ~((squares >= np.finfo(float).tiny) & (squares < np.inf))
    if odd.any():  # so divide those rows by their largest magnitude first
        peak = np.abs(vectors[odd]).max(axis=1, initial=0.0)
        if not peak.all():
            raise ZeroVector("similarity is undefined for an all-zero vector")
        vectors = vectors.astype(float)  # a copy
        vectors[odd] /= peak[:, None]
        norms[odd] = np.sqrt((vectors[odd] * vectors[odd]).sum(axis=1))
    return vectors / norms[:, None]


def canonical_scores(metric: Metric, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Scores of unit rows paired by broadcasting: with s the fixed-order sum of
    a pair's d squared differences, euclidean is ``sqrt(s) / 2`` and cosine
    ``1 - s / 2`` (a.b for unit rows), clipped to [0, 1]; an equal pair has s = 0."""
    if left.shape[-1] != right.shape[-1]:
        raise DimensionMismatch(
            f"feature vectors differ in dimension: {left.shape[-1]} vs {right.shape[-1]}")
    diff = left - right
    np.multiply(diff, diff, out=diff)
    s = np.add.reduce(diff, axis=-1)
    return np.clip(np.sqrt(s) / 2.0 if metric is Metric.EUCLIDEAN else 1.0 - s / 2.0, 0.0, 1.0)


def scores_against(cond: MatchCondition, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(n, m) scores of every row of unit matrix ``left`` against every row of ``right``.

    Every score decides as its canonical score does, whatever the block:
    euclidean scores are canonical, and cosine takes one GEMM whose scores
    within beta(d) of the threshold, or of 1, are replaced by canonical ones.
    Memory is O(n · m · width), the width as in :func:`tile_rows`.
    """
    if left.shape[1] != right.shape[1]:
        raise DimensionMismatch(
            f"feature vectors differ in dimension: {left.shape[1]} vs {right.shape[1]}")
    if cond.metric is Metric.EUCLIDEAN:
        return canonical_scores(cond.metric, left[:, None], right)
    scores = left @ right.T
    # beta(d) bounds |GEMM - canonical|. With u = eps / 2, a unit row has |a|^2 =
    # 1 + da, |da| <= (d + 6)u (d squares summed, a root, a division, one more
    # for a rescaled row). The GEMM is off from a.b by gamma_d sum|a_i b_i| <= d u
    # (Higham, 2nd ed., section 3.1), 1 - s/2 from 1 - S/2 = a.b - (da + db)/2,
    # S = |a - b|^2 <= 4, by (d + 2)u S/2 + u. In all, to first order, that is
    # (4d + 11)u <= 7.5 d eps, and a score outside the band decides canonically.
    beta = 8 * left.shape[1] * np.finfo(float).eps
    high = scores.max(initial=-np.inf)  # a block that misses the band skips its test
    if high >= cond.th - beta and (high >= 1.0 - beta or scores.min() <= cond.th + beta):
        i, j = np.nonzero((np.abs(scores - cond.th) <= beta) | (scores >= 1.0 - beta))
        step = max(1, TILE_ELEMENTS // max(1, left.shape[1]))
        for lo in range(0, len(i), step):
            pick = slice(lo, lo + step)
            scores[i[pick], j[pick]] = canonical_scores(cond.metric, left[i[pick]], right[j[pick]])
    return np.clip(scores, 0.0, 1.0)
