"""Content-based retrieval evaluation: cosine ranking, 11-point
interpolated average precision, and top-k precision.

Relevance is exact label equality.  Queries with no relevant database
item have undefined AP; they are excluded from every mean and counted
in the result.

``evaluate`` normalizes the database and the queries once and scores
``QUERY_BLOCK`` queries per matrix product, so it needs
O(QUERY_BLOCK * N) memory for N database rows, never a queries x N
matrix.  AP and top-k need only the rank of each relevant item, so
``evaluate`` gathers a block's hit keys, sorts its keys in place and
finds each hit's rank by binary search; only a row with a tie or a
signed-zero pair is arg-sorted, stably, from its recomputed keys.
``average_precision_11pt`` scores one ranked list, with the same AP code
as ``evaluate``.  Features must be finite.
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
        if self.db_labels.ndim != 1:
            raise ValueError("database labels must be a 1-D array")
        if self.db_labels.shape[0] != self.db_feats.shape[0]:
            raise ValueError("database label count does not match the features")
        if not np.all(np.isfinite(self.db_feats)):
            raise ValueError("database features contain non-finite entries")


@dataclass
class RetrievalResult:
    map: float
    top_k: dict[int, float]
    per_query_ap: list[float]
    n_skipped: int


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / _safe_norms(x)[:, None]


def _strictly_increasing(sorted_keys: np.ndarray) -> np.ndarray:
    """Per row of ascending keys, whether no two are equal and none is NaN: the order is then the only one."""
    return np.all(sorted_keys[:, 1:] > sorted_keys[:, :-1], axis=1)


def _hit_ranks(queries: np.ndarray, db: np.ndarray, relevant: np.ndarray, n_rel: np.ndarray,
               keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0-based rank of each relevant item in the stable ascending order of its row of ``queries @ db.T``.

    The keys go into ``keys``, sorted there row by row once the hit keys
    are gathered.  A row of strictly increasing sorted keys has one order,
    so a hit's rank is the position of its key there; any other row is
    arg-sorted stably from its keys recomputed by the same product on the
    same operands, bit for bit.  The ranks fill the flat ``out`` row after
    row, ascending within a row; the filled prefix is returned.
    """
    hit_keys = np.matmul(queries, db.T, out=keys)[relevant]  # row after row
    keys.sort(axis=1)
    sure = _strictly_increasing(keys)
    ends = np.cumsum(n_rel)  # every relevant item is a hit
    spans = [slice(end - count, end) for end, count in zip(ends.tolist(), n_rel.tolist())]
    for i in np.flatnonzero(sure).tolist():
        out[spans[i]] = np.searchsorted(keys[i], np.sort(hit_keys[spans[i]]))
    if not sure.all():
        np.matmul(queries, db.T, out=keys)
        for i in np.flatnonzero(~sure).tolist():
            out[spans[i]] = np.flatnonzero(relevant[i][np.argsort(keys[i], kind="stable")])
    return out[: ends[-1]]


def _ap_11pt_rows(rows: np.ndarray, ranks: np.ndarray, n_rel: np.ndarray) -> np.ndarray:
    """:func:`average_precision_11pt` of each ranked list, from its hits alone.

    Hit h lies in list ``rows[h]`` at 0-based rank ``ranks[h]``; rows
    ascend, and ranks ascend within a row.  ``n_rel`` holds each list's
    relevant total.  The cutoffs reaching a recall level are those from
    the k-th hit on, for the least k with ``10 * k >= level * n_rel``,
    and between hits precision only falls, so the best precision over
    them is the suffix maximum of ``k / rank of the k-th hit`` taken
    from that k; a level whose k exceeds the row's hit count is never
    reached and adds 0.
    """
    n_hits = np.bincount(rows, minlength=n_rel.size)
    width = int(n_hits.max(initial=0))
    total = np.zeros(n_rel.size)
    if width == 0:
        return total
    nth_hit = np.arange(1, rows.size + 1) - (np.cumsum(n_hits) - n_hits)[rows]
    best = np.zeros((n_rel.size, width))
    best[rows, nth_hit - 1] = nth_hit / (ranks + 1)
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
    ranks = np.flatnonzero(rel)
    if ranks.size > n_relevant_total:
        raise ValueError("relevance list contains more hits than n_relevant_total")
    return float(_ap_11pt_rows(np.zeros_like(ranks), ranks, np.array([n_relevant_total]))[0])


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
    if query_labels.ndim != 1 or query_labels.shape[0] != queries.shape[0]:
        raise ValueError("query labels must be a 1-D array with one label per query")
    if queries.shape[1] != index.db_feats.shape[1]:
        raise ValueError(f"query dim {queries.shape[1]} does not match database dim {index.db_feats.shape[1]}")
    if not np.all(np.isfinite(queries)):
        raise ValueError("query features contain non-finite entries")
    for k in ks:
        if not isinstance(k, (int, np.integer)) or k < 1 or k > index.db_feats.shape[0]:
            raise ValueError(f"top-k value {k!r} is not an integer in 1..{index.db_feats.shape[0]}")

    db_unit = _unit_rows(index.db_feats)
    neg_queries = -_unit_rows(queries)  # negation is exact, so the keys are the negated cosines bit for bit
    size = min(QUERY_BLOCK, queries.shape[0]) * db_unit.shape[0]
    keys_buf, ranks_buf = np.empty(size), np.empty(size, dtype=np.intp)
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
        relevant, n_rel = relevant[kept], n_rel[kept]
        ranks = _hit_ranks(neg_queries[lo : lo + QUERY_BLOCK][kept], db_unit, relevant, n_rel,
                           keys_buf[: relevant.size].reshape(relevant.shape), ranks_buf)
        rows = np.repeat(np.arange(n_rel.size), n_rel)  # every relevant item is a hit
        aps.extend(_ap_11pt_rows(rows, ranks, n_rel).tolist())
        for k in ks:
            for precision in (np.bincount(rows[ranks < k], minlength=n_rel.size) / k).tolist():  # query order
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
