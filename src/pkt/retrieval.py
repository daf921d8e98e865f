"""Content-based retrieval evaluation: cosine ranking, 11-point
interpolated average precision, and top-k precision.

Relevance is exact label equality.  Queries with no relevant database
item have undefined AP; they are excluded from every mean and counted
in the result.

``evaluate`` normalizes the database and the queries once and scores
``QUERY_BLOCK`` queries per matrix product.  AP and top-k need only the
rank of each relevant item, so each row's hit keys are gathered, the
row is sorted in place and each hit's rank found by binary search; only
a row with a tie or a signed-zero pair is arg-sorted, stably, from its
recomputed keys.  So for N database rows ``evaluate`` holds the unit
rows, one QUERY_BLOCK x N block of keys and one of hit ranks, whatever
the hit count, never a queries x N matrix.  ``average_precision_11pt``
scores one ranked list, with the same AP code as ``evaluate``.  Features
must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _checked_labels, _checked_rows, _prepared_rows, cosine_kernel

# Queries ranked per matrix product: each holds QUERY_BLOCK x N entries.
QUERY_BLOCK = 64


@dataclass
class RetrievalIndex:
    db_feats: np.ndarray
    db_labels: np.ndarray

    def __post_init__(self):
        self.db_feats = _checked_rows(self.db_feats, "database features", 0, True)
        self.db_labels = _checked_labels(self.db_labels, self.db_feats.shape[0], "database labels")


@dataclass
class RetrievalResult:
    map: float
    top_k: dict[int, float]
    per_query_ap: list[float]
    n_skipped: int


def _hit_ranks(queries: np.ndarray, db: np.ndarray, relevant: np.ndarray, n_rel: np.ndarray,
               keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0-based rank of each relevant item in the stable ascending order of its row of ``queries @ db.T``.

    The keys go into ``keys``, and each row is sorted there once its hit
    keys are gathered.  A row of strictly increasing sorted keys has one
    order, so a hit's rank is the position of its key there; any other row
    is arg-sorted stably from its keys recomputed by the same product on
    the same operands, bit for bit.  The ranks fill the flat ``out`` row
    after row, ascending within a row; the filled prefix is returned.
    """
    np.matmul(queries, db.T, out=keys)
    ends = np.cumsum(n_rel)  # every relevant item is a hit
    ranks = out[: ends[-1]]
    unsure = []
    for i, (row, end, count) in enumerate(zip(keys, ends.tolist(), n_rel.tolist())):
        hit_keys = np.sort(row[relevant[i]])
        row.sort()
        if (row[1:] > row[:-1]).all():  # no tie and no NaN
            ranks[end - count : end] = row.searchsorted(hit_keys)
        else:
            unsure.append((i, slice(end - count, end)))
    if unsure:
        np.matmul(queries, db.T, out=keys)
        for i, span in unsure:
            ranks[span] = np.flatnonzero(relevant[i][np.argsort(keys[i], kind="stable")])
    return ranks


def _ap_11pt_rows(ranks: np.ndarray, n_hits: np.ndarray, n_rel: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """:func:`average_precision_11pt` of each ranked list, from its hits alone.

    List i's ``n_hits[i] >= 1`` hits are the next entries of ``ranks``, in
    ascending 0-based rank, of ``n_rel[i]`` relevant items; the k-th hit's
    precision ``k / (rank + 1)`` goes into the float array ``precision``,
    as long as ``ranks``.  A recall level is reached from the k-th hit on,
    for the least k >= 1 with ``10 * k >= level * n_rel``, and precision
    only falls between hits, so the level's best precision is the maximum
    over the hits from the k-th on; a level whose k exceeds the hit count
    adds 0.
    """
    starts = np.cumsum(n_hits) - n_hits
    for start, count in zip(starts.tolist(), n_hits.tolist()):
        np.divide(np.arange(1, count + 1), ranks[start : start + count] + 1, out=precision[start : start + count])
    nth = np.maximum((np.arange(11) * n_rel[:, None] + 9) // 10, 1)  # the k of each level
    cuts = starts[:, None] + np.minimum(nth, n_hits[:, None]) - 1
    best = np.maximum.reduceat(precision, cuts.ravel()).reshape(cuts.shape)  # from each cut to the next
    best = np.maximum.accumulate(best[:, ::-1], axis=1)[:, ::-1]
    best[nth > n_hits[:, None]] = 0.0  # levels never reached
    return np.cumsum(best, axis=1)[:, -1] / 11.0  # summed in level order


def average_precision_11pt(ranked_relevance, n_relevant_total: int) -> float:
    """Interpolated AP: mean over recall levels 0.0, 0.1, ..., 1.0 of the
    maximum precision at any cutoff reaching that recall.

    Levels never reached contribute 0.  Recall comparisons are done in
    integer arithmetic (10 * hits >= level * total), so no level is lost
    to rounding.  The relevance list must be 1-D and the total an integer.
    """
    rel = np.asarray(ranked_relevance, dtype=bool)
    if rel.ndim != 1:
        raise ValueError("relevance list must be 1-D")
    if not isinstance(n_relevant_total, (int, np.integer)) or type(n_relevant_total) is bool or n_relevant_total < 1:
        raise ValueError(f"n_relevant_total {n_relevant_total!r} is not an integer of at least 1")
    ranks = np.flatnonzero(rel)
    if ranks.size > n_relevant_total:
        raise ValueError("relevance list contains more hits than n_relevant_total")
    if ranks.size == 0:
        return 0.0
    n_rel = np.array([n_relevant_total], dtype=np.intp)
    return float(_ap_11pt_rows(ranks, np.array([ranks.size]), n_rel, np.empty(ranks.size))[0])


def evaluate(
    index: RetrievalIndex,
    queries: np.ndarray,
    query_labels,
    ks: list[int] | None = None,
) -> RetrievalResult:
    """Rank every query against the database and aggregate mAP and top-k precision.

    ``top_k`` holds each distinct k of ``ks`` once, in first-seen order.
    """
    queries = _checked_rows(queries, "query features", 1, True)
    query_labels = _checked_labels(query_labels, queries.shape[0], "query labels")
    ks = list(ks) if ks else []
    if queries.shape[1] != index.db_feats.shape[1]:
        raise ValueError(f"query dim {queries.shape[1]} does not match database dim {index.db_feats.shape[1]}")
    for k in ks:
        if not isinstance(k, (int, np.integer)) or type(k) is bool or k < 1 or k > index.db_feats.shape[0]:
            raise ValueError(f"top-k value {k!r} is not an integer in 1..{index.db_feats.shape[0]}")
    ks = list(dict.fromkeys(ks))  # after the check: a bool would fold into an equal int

    db_unit = _prepared_rows(index.db_feats, cosine_kernel())[0]
    neg_queries = -_prepared_rows(queries, cosine_kernel())[0]  # negation is exact, so the keys are the negated cosines bit for bit
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
        aps.extend(_ap_11pt_rows(ranks, n_rel, n_rel, keys_buf[: ranks.size]).tolist())  # the keys are spent
        ends = np.cumsum(n_rel).tolist()
        for start, end in zip([0, *ends[:-1]], ends):  # query order
            for k, count in zip(ks, ranks[start:end].searchsorted(ks).tolist()):
                topk_sums[k] += count / k

    if not aps:
        return RetrievalResult(map=float("nan"), top_k={k: float("nan") for k in ks},
                               per_query_ap=[], n_skipped=n_skipped)
    return RetrievalResult(
        map=float(np.mean(aps)),
        top_k={k: topk_sums[k] / len(aps) for k in ks},
        per_query_ap=aps,
        n_skipped=n_skipped,
    )
