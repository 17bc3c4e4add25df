"""Feature-vector similarity matching.

Two metrics are supported, both producing scores in [0, 1]:

* cosine similarity, ``max(0, a.b / (|a||b|))`` — 1 means identical
  direction, 0 means orthogonal (or opposed, after clamping);
* unit euclidean distance, ``|a/|a| - b/|b|| / 2`` — 0 means identical
  direction, 1 means opposed. Normalizing first keeps the raw (unbounded)
  euclidean distance inside the stated range.

A match condition pairs a metric with a threshold and a polarity: a
similarity metric matches when the score is at least the threshold, a
distance metric when the score is at most the threshold. Every decision is
made by :func:`scores_against` (a GEMM filters, canonical scores refine) and
every reported score by :func:`canonical_scores`, so both are canonical.
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
    matched = bool(scores_against(cond, a, b)[0, 0])
    return matched, float(canonical_scores(cond.metric, a, b)[0])


#: GEMM scores that one tile of a join holds at most; also the element
#: budget of one chunk of canonical re-decisions.
TILE_ELEMENTS = 1 << 16


def tile_rows(m: int) -> int:
    """Left rows of one tile against ``m`` right rows: each pair is one GEMM score."""
    return max(1, TILE_ELEMENTS // m)


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
    ``1 - s / 2`` (a.b for unit rows), clipped to [0, 1]; an equal pair has s = 0.
    Callers pass rows of one dimension, as :func:`scores_against` checks."""
    diff = left - right
    np.multiply(diff, diff, out=diff)
    s = np.add.reduce(diff, axis=-1)
    return np.clip(np.sqrt(s) / 2.0 if metric is Metric.EUCLIDEAN else 1.0 - s / 2.0, 0.0, 1.0)


def scores_against(cond: MatchCondition, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(n, m) decisions of every row of unit matrix ``left`` against every row of ``right``.

    Every decision is the one its canonical score makes, whatever the block:
    one GEMM decides at ``th``, or at ``1 - 2 th^2`` for a euclidean
    ``sqrt(s) / 2 <= th``, and only GEMM scores within a band of that
    threshold are re-decided by their canonical scores. Memory is O(n · m).
    """
    if left.shape[1] != right.shape[1]:
        raise DimensionMismatch(
            f"feature vectors differ in dimension: {left.shape[1]} vs {right.shape[1]}")
    if cond.matched(0.0) and cond.matched(1.0):  # both ends of [0, 1] match
        return np.ones((len(left), len(right)), dtype=bool)
    euclidean = cond.metric is Metric.EUCLIDEAN
    t = 1.0 - 2.0 * (cond.th * cond.th) if euclidean else cond.th
    scores = left @ right.T
    # the GEMM score rises with cosine and falls with euclidean distance
    above = (cond.polarity is MatchPolarity.SIMILARITY_AT_LEAST) != euclidean
    mask = scores >= t if above else scores <= t
    # beta(d) bounds |GEMM - canonical|. With u = eps / 2, a unit row has |a|^2 =
    # 1 + da, |da| <= (d + 6)u (d squares summed, a root, a division, one more
    # for a rescaled row). The GEMM is off from a.b by gamma_d sum|a_i b_i| <= d u
    # (Higham, 2nd ed., section 3.1), 1 - s/2 from 1 - S/2 = a.b - (da + db)/2,
    # S = |a - b|^2 <= 4, by (d + 2)u S/2 + u. In all, to first order, that is
    # (4d + 11)u <= 7.5 d eps, and a score outside the band decides canonically.
    # Euclidean decides fl(sqrt(s)) <= 2 th. sqrt is correctly rounded and
    # monotone, so that holds for s <= 4 th^2 and fails for s > 4 th^2 (1 + 2u):
    # on the unrounded 1 - s/2, which the GEMM lies within (4d + 10)u of, the
    # threshold 1 - 2 th^2 moves by at most 4u, and t = fl(1 - 2 fl(th th)) lies
    # within 3u of it. In all that is (4d + 17)u < beta(d) + 4 eps.
    band = (8 * left.shape[1] + (4 if euclidean else 0)) * np.finfo(float).eps
    # a block that misses the band skips its test
    if scores.max(initial=-np.inf) >= t - band and scores.min() <= t + band:
        i, j = np.nonzero(np.abs(scores - t) <= band)
        step = max(1, TILE_ELEMENTS // max(1, left.shape[1]))
        for lo in range(0, len(i), step):
            li, rj = i[lo:lo + step], j[lo:lo + step]
            mask[li, rj] = cond.matched(canonical_scores(cond.metric, left[li], right[rj]))
    return mask
