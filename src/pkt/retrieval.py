"""Content-based retrieval evaluation: cosine ranking, 11-point
interpolated average precision, and top-k precision.

Relevance is exact label equality.  Queries with no relevant database
item have undefined AP; they are excluded from every mean and counted
in the result.

``evaluate`` normalizes the database and the queries once and ranks
``QUERY_BLOCK`` queries per matrix product, so it needs
O(QUERY_BLOCK * N) memory for N database rows, never a queries x N
matrix.  ``rank`` and ``average_precision_11pt`` are the one-query case
of the same code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kernels import _safe_norms

log = logging.getLogger(__name__)

# Queries ranked per matrix product: each holds QUERY_BLOCK x N entries.
QUERY_BLOCK = 64


@dataclass
class RetrievalIndex:
    db_feats: np.ndarray
    db_labels: np.ndarray

    def __post_init__(self):
        self.db_feats = np.asarray(self.db_feats, dtype=float)
        self.db_labels = np.asarray(self.db_labels)
        if self.db_feats.ndim != 2:
            raise ValueError("database features must be an N x D matrix")
        if self.db_labels.shape[0] != self.db_feats.shape[0]:
            raise ValueError("database label count does not match the features")


@dataclass
class RetrievalResult:
    map: float
    top_k: dict[int, float]
    per_query_ap: list[float]
    n_skipped: int


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / _safe_norms(x)[:, None]


def _rank_rows(db_unit: np.ndarray, queries_unit: np.ndarray) -> np.ndarray:
    """Per query row, database indices by descending cosine; ties broken by ascending index.

    The fast unstable sort decides every row whose sorted keys strictly
    increase, since that order is the only one.  A row with a tie, a
    signed zero pair or a NaN is sorted again stably.
    """
    keys = queries_unit @ db_unit.T
    np.negative(keys, out=keys)
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    unsure = ~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1)
    if unsure.any():
        order[unsure] = np.argsort(keys[unsure], axis=1, kind="stable")
    return order


def rank(index: RetrievalIndex, query: np.ndarray) -> np.ndarray:
    """Database indices by descending cosine similarity; ties broken by ascending index."""
    query = np.asarray(query, dtype=float)
    if query.shape != (index.db_feats.shape[1],):
        raise ValueError(f"query dim {query.shape} does not match database dim {index.db_feats.shape[1]}")
    return _rank_rows(_unit_rows(index.db_feats), _unit_rows(query[None, :]))[0]


def _ap_11pt_rows(rel: np.ndarray, n_rel: np.ndarray) -> np.ndarray:
    """:func:`average_precision_11pt` of each row of a ranked relevance matrix.

    Only the hits matter.  The cutoffs reaching a recall level are those
    from the k-th hit on, for the least k with ``10 * k >= level * n_rel``,
    and between hits precision only falls, so the best precision over
    them is the suffix maximum of ``k / rank of the k-th hit`` taken
    from that k; a level whose k exceeds the row's hit count is never
    reached and adds 0.
    """
    rows, cols = np.nonzero(rel)
    n_hits = np.bincount(rows, minlength=rel.shape[0])
    width = int(n_hits.max(initial=0))
    total = np.zeros(rel.shape[0])
    if width == 0:
        return total
    nth_hit = np.arange(1, rows.size + 1) - (np.cumsum(n_hits) - n_hits)[rows]
    best = np.zeros((rel.shape[0], width))
    best[rows, nth_hit - 1] = nth_hit / (cols + 1)
    best = np.maximum.accumulate(best[:, ::-1], axis=1)[:, ::-1]
    first = np.searchsorted(10 * np.arange(1, width + 1), np.arange(11) * n_rel[:, None])
    at_first = np.take_along_axis(best, np.minimum(first, width - 1), axis=1)
    at_first[first >= n_hits[:, None]] = 0.0  # levels never reached
    for level in range(11):  # sequential, in level order
        total += at_first[:, level]
    return total / 11.0


def average_precision_11pt(ranked_relevance, n_relevant_total: int) -> float:
    """Interpolated AP: mean over recall levels 0.0, 0.1, ..., 1.0 of the
    maximum precision at any cutoff reaching that recall.

    Levels never reached contribute 0.  Recall comparisons are done in
    integer arithmetic (10 * hits >= level * total), so no level is lost
    to rounding.
    """
    rel = np.asarray(ranked_relevance, dtype=bool)
    if n_relevant_total < 1:
        raise ValueError("n_relevant_total must be at least 1")
    if np.count_nonzero(rel) > n_relevant_total:
        raise ValueError("relevance list contains more hits than n_relevant_total")
    return float(_ap_11pt_rows(rel[None, :], np.array([n_relevant_total]))[0])


def top_k_precision(ranked_relevance, k: int) -> float:
    """Fraction of relevant items among the first k ranked results."""
    rel = np.asarray(ranked_relevance, dtype=bool)
    if k < 1 or k > rel.size:
        raise ValueError(f"k={k} out of range for a list of {rel.size}")
    return float(rel[:k].sum()) / k


def evaluate(
    index: RetrievalIndex,
    queries: np.ndarray,
    query_labels,
    ks: list[int] | None = None,
) -> RetrievalResult:
    """Rank every query against the database and aggregate mAP and top-k precision.

    ``top_k`` holds each distinct k of ``ks`` once, in first-seen order.
    """
    queries = np.asarray(queries, dtype=float)
    query_labels = np.asarray(query_labels)
    ks = list(dict.fromkeys(ks)) if ks else []
    if queries.ndim != 2 or queries.shape[0] == 0:
        raise ValueError("query set is empty")
    if query_labels.shape[0] != queries.shape[0]:
        raise ValueError("query label count does not match the queries")
    if queries.shape[1] != index.db_feats.shape[1]:
        raise ValueError(f"query dim {queries.shape[1]} does not match database dim {index.db_feats.shape[1]}")
    for k in ks:
        if k < 1 or k > index.db_feats.shape[0]:
            raise ValueError(f"top-k value {k} out of range for database of {index.db_feats.shape[0]}")

    db_unit = _unit_rows(index.db_feats)
    queries_unit = _unit_rows(queries)
    aps: list[float] = []
    topk_sums = {k: 0.0 for k in ks}
    n_skipped = 0
    for lo in range(0, queries.shape[0], QUERY_BLOCK):
        labels = query_labels[lo : lo + QUERY_BLOCK, None]
        relevant = index.db_labels == labels
        n_rel = np.count_nonzero(relevant, axis=1)
        kept = n_rel > 0
        n_skipped += int(np.count_nonzero(~kept))
        if not kept.any():
            continue
        order = _rank_rows(db_unit, queries_unit[lo : lo + QUERY_BLOCK][kept])
        rel = np.take_along_axis(relevant[kept], order, axis=1)
        aps.extend(_ap_11pt_rows(rel, n_rel[kept]).tolist())
        for k in ks:
            for precision in (np.count_nonzero(rel[:, :k], axis=1) / k).tolist():  # query order
                topk_sums[k] += precision

    if not aps:
        log.error("every query was skipped: no query label occurs in the database")
        return RetrievalResult(map=float("nan"), top_k={k: float("nan") for k in ks},
                               per_query_ap=[], n_skipped=n_skipped)
    return RetrievalResult(
        map=float(np.mean(aps)),
        top_k={k: topk_sums[k] / len(aps) for k in ks},
        per_query_ap=aps,
        n_skipped=n_skipped,
    )
