import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pkt.retrieval
from pkt import (
    RetrievalIndex,
    average_precision_11pt,
    evaluate,
)
from pkt.retrieval import QUERY_BLOCK


def _unit_rows(x):
    """Rows over their norms, guarded at 1e-8 as the cosine kernel guards them."""
    return x / np.maximum(np.linalg.norm(x, axis=1), 1e-8)[:, None]


def rank(index, query):
    """Database indices by descending cosine to one query, ties broken by ascending index, from a 1 x D product.

    One stable sort of the negated cosines, which ``_hit_ranks`` must
    reproduce without sorting every row's indices.  BLAS may round its
    last bits differently from the block product ``evaluate`` scores a
    query with, so this is an exact oracle for ``evaluate`` only where
    the cosines are exact.
    """
    keys = _unit_rows(np.asarray(query, dtype=float)[None, :]) @ _unit_rows(index.db_feats).T
    return np.argsort(-keys[0], kind="stable")


def naive_ap(rel, n_rel):
    """Independent 11-point AP: for each recall tenth, scan every cutoff.

    The levels are summed in order, as the package sums them, so the
    result is exact: the same bits, not only the same value to rounding.
    """
    rel = [bool(r) for r in rel]
    total = 0.0
    for level in range(11):
        needed = level * n_rel  # compare 10 * hits >= level * n_rel
        best = 0.0
        hits = 0
        for t, r in enumerate(rel, start=1):
            hits += int(r)
            if 10 * hits >= needed:
                best = max(best, hits / t)
        total += best
    return total / 11.0


def test_ap_hand_cases():
    assert average_precision_11pt([1, 1], 2) == pytest.approx(1.0, abs=1e-12)
    assert average_precision_11pt([0, 1], 1) == pytest.approx(0.5, abs=1e-12)
    # hit at rank 1 and rank 3: 6 levels at precision 1, 5 at 2/3
    assert average_precision_11pt([1, 0, 1, 0], 2) == pytest.approx(28.0 / 33.0, abs=1e-12)


def test_ap_degenerate_cases():
    assert average_precision_11pt([0, 0], 3) == 0.0
    assert average_precision_11pt([1, 1, 1, 0, 0], 3) == pytest.approx(1.0, abs=1e-12)
    assert average_precision_11pt([], 2) == 0.0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 400), share=st.floats(0.0, 1.0),
       missing=st.integers(0, 50))
def test_ap_matches_naive_scan(seed, size, share, missing):
    # bit for bit; ``missing`` relevant items lie beyond the list, so high
    # recall levels may never be reached
    rel = np.random.default_rng(seed).random(size) < share
    n_rel = int(rel.sum()) + missing
    if n_rel == 0:
        return
    assert average_precision_11pt(rel, n_rel) == naive_ap(rel, n_rel)
    assert average_precision_11pt(rel.tolist(), np.int64(n_rel)) == naive_ap(rel, n_rel)


def test_ap_validation():
    with pytest.raises(ValueError):
        average_precision_11pt([1, 0], 0)
    with pytest.raises(ValueError):
        average_precision_11pt([1, 1, 1], 2)


def test_ap_rejects_a_relevance_list_that_is_not_1d():
    for bad in ([[1, 0], [0, 1]], 1, np.ones((3, 1))):
        with pytest.raises(ValueError, match="relevance list must be 1-D"):
            average_precision_11pt(bad, 2)


@pytest.mark.parametrize("total", [2.5, 2.0, "2", None])
def test_ap_rejects_a_relevant_total_that_is_not_an_integer(total):
    with pytest.raises(ValueError, match="n_relevant_total"):
        average_precision_11pt([1, 0, 1], total)


def test_rank_uses_cosine_not_magnitude():
    index = RetrievalIndex(np.array([[5.0, 5.0], [0.2, 0.0], [0.0, 10.0]]),
                           np.array([0, 1, 2]))
    order = rank(index, np.array([1.0, 0.0]))
    assert order.tolist() == [1, 0, 2]


def test_rank_breaks_ties_by_index():
    index = RetrievalIndex(np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0]]),
                           np.array([0, 1, 2]))
    # items 1 and 2 are both exactly aligned with the query
    order = rank(index, np.array([3.0, 0.0]))
    assert order.tolist() == [1, 2, 0]


def test_rank_dimension_mismatch():
    index = RetrievalIndex(np.zeros((3, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        rank(index, np.zeros(3))


def test_evaluate_on_separable_classes():
    db = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    labels = np.array([0, 0, 1, 1])
    index = RetrievalIndex(db, labels)
    result = evaluate(index, np.array([[1.0, 0.05], [0.05, 1.0]]), np.array([0, 1]),
                      ks=[2])
    assert result.map == pytest.approx(1.0, abs=1e-12)
    assert result.top_k[2] == 1.0
    assert result.n_skipped == 0
    assert len(result.per_query_ap) == 2


def test_evaluate_skips_unmatched_labels():
    index = RetrievalIndex(np.eye(3), np.array([0, 0, 1]))
    result = evaluate(index, np.eye(3), np.array([0, 5, 1]))
    assert result.n_skipped == 1
    assert len(result.per_query_ap) == 2
    all_missing = evaluate(index, np.eye(3)[:1], np.array([9]))
    assert math.isnan(all_missing.map)
    assert all_missing.n_skipped == 1


def test_evaluate_reports_a_repeated_k_once():
    rng = np.random.default_rng(12)
    index = RetrievalIndex(rng.normal(size=(40, 3)), rng.integers(0, 3, size=40))
    queries, q_labels = rng.normal(size=(7, 3)), rng.integers(0, 3, size=7)
    single = evaluate(index, queries, q_labels, ks=[10]).top_k[10]
    assert 0.0 < single < 1.0
    assert evaluate(index, queries, q_labels, ks=[10, 10]).top_k == {10: single}
    both = evaluate(index, queries, q_labels, ks=[5, 10, 5, 10])
    assert list(both.top_k.items()) == [(5, evaluate(index, queries, q_labels, ks=[5]).top_k[5]), (10, single)]


def test_evaluate_chance_level_on_random_embeddings():
    # needs a deep database: the interpolated AP's max over cutoffs sits
    # visibly above the relevant fraction when the ranking list is short
    rng = np.random.default_rng(71)
    db = rng.normal(size=(3000, 8))
    db_labels = np.repeat([0, 1], 1500)
    queries = rng.normal(size=(60, 8))
    q_labels = np.tile([0, 1], 30)
    result = evaluate(RetrievalIndex(db, db_labels), queries, q_labels)
    assert abs(result.map - 0.5) < 0.05


def test_evaluate_validation():
    index = RetrievalIndex(np.eye(3), np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        evaluate(index, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        evaluate(index, np.eye(3), np.array([0, 1]))
    with pytest.raises(ValueError):
        evaluate(index, np.eye(3), np.array([0, 1, 0]), ks=[4])
    with pytest.raises(ValueError, match="query dim"):
        evaluate(index, np.ones((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError):
        RetrievalIndex(np.eye(3), np.array([0, 1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_features(bad):
    rng = np.random.default_rng(5)
    db, labels = rng.normal(size=(10, 3)), np.arange(10) % 2
    queries, q_labels = rng.normal(size=(4, 3)), np.arange(4) % 2
    broken = db.copy()
    broken[6, 1] = bad
    with pytest.raises(ValueError, match="^database features"):
        evaluate(RetrievalIndex(broken, labels), queries, q_labels)
    broken = queries.copy()
    broken[2, 0] = bad
    with pytest.raises(ValueError, match="^query features"):
        evaluate(RetrievalIndex(db, labels), broken, q_labels)


def test_evaluate_rejects_labels_that_are_not_1d_and_a_k_that_is_not_an_integer():
    db, labels = np.eye(3), np.array([0, 1, 0])
    with pytest.raises(ValueError, match=r"^database labels of shape \(3, 1\) are not one label per row of 3$"):
        RetrievalIndex(db, labels[:, None])
    index = RetrievalIndex(db, labels)
    with pytest.raises(ValueError, match=r"^query labels of shape \(3, 1\) are not one label per row of 3$"):
        evaluate(index, np.eye(3), labels[:, None])
    for k in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="top-k value"):
            evaluate(index, np.eye(3), labels, ks=[k])
    assert list(evaluate(index, np.eye(3), labels, ks=[np.int64(2)]).top_k) == [2]


def test_a_bool_is_neither_a_top_k_value_nor_a_relevant_total():
    # bool is a subclass of int, and True == 1 would merge with a k of 1
    index = RetrievalIndex(np.eye(3), np.array([0, 1, 0]))
    for ks in ([True, 1], [1, True], [True]):
        with pytest.raises(ValueError, match="top-k value True is not an integer"):
            evaluate(index, np.eye(3), np.array([0, 1, 0]), ks=ks)
    with pytest.raises(ValueError, match="n_relevant_total True"):
        average_precision_11pt([1, 0], True)


def test_a_block_with_one_tied_row_ranks_as_the_stable_argsort_of_its_product():
    # a zero query, whose keys are all +-0, among queries whose keys are
    # distinct: the sure rows take the binary search and the tied row the
    # stable arg-sort of its recomputed keys.  The oracle sorts the keys of
    # the same block product, so it is exact.
    rng = np.random.default_rng(17)
    db, db_labels = rng.normal(size=(200, 5)), np.arange(200) % 3
    queries, q_labels = rng.normal(size=(20, 5)), rng.integers(0, 3, size=20)
    queries[7] = 0.0
    keys = -(_unit_rows(queries) @ _unit_rows(db).T)
    sure = np.all(np.diff(np.sort(keys, axis=1), axis=1) > 0, axis=1)
    assert np.flatnonzero(~sure).tolist() == [7]
    orders = np.argsort(keys, axis=1, kind="stable")
    assert orders[7].tolist() == list(range(200))
    kept = [db_labels[order] == lab for order, lab in zip(orders, q_labels)]
    result = evaluate(RetrievalIndex(db, db_labels), queries, q_labels, [1, 10])
    assert result.per_query_ap == [average_precision_11pt(rel, int(rel.sum())) for rel in kept]
    for k in (1, 10):
        total = 0.0
        for rel in kept:  # in query order
            total += float(rel[:k].sum()) / k
        assert result.top_k[k] == total / len(kept)


def oracle_evaluate(db, db_labels, queries, query_labels):
    """Per query: stable argsort of the negated cosine to every database row, then the AP scan."""
    db_unit = db / np.maximum(np.linalg.norm(db, axis=1), 1e-8)[:, None]
    orders, aps = [], []
    for q, lab in zip(queries, query_labels):
        order = np.argsort(-(db_unit @ (q / max(np.linalg.norm(q), 1e-8))), kind="stable")
        orders.append(order)
        n_rel = int(np.sum(db_labels == lab))
        if n_rel:
            aps.append(naive_ap(db_labels[order] == lab, n_rel))
    return orders, aps


def tie_cases():
    # Every database row points along a coordinate axis, so its unit row is
    # exactly +-e_k and every cosine is exactly a query coordinate, whatever
    # the summation order: duplicated directions tie exactly, and a zero
    # coordinate or a zero row gives +0 and -0 keys.
    rng = np.random.default_rng(83)
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]])
    duplicated = axes[rng.integers(0, 4, size=150)] * rng.uniform(0.5, 3.0, size=(150, 1))
    all_equal = np.tile([[2.0, 0.0, 0.0]], (150, 1))
    zero_rows = duplicated.copy()
    zero_rows[[3, 70, 149]] = [-0.0, 0.0, -0.0]
    return {"duplicated": duplicated, "all_equal": all_equal, "zero_rows": zero_rows}


@pytest.mark.parametrize("case", ["duplicated", "all_equal", "zero_rows"])
def test_exact_ties_follow_the_stable_order(case):
    rng = np.random.default_rng(89)
    db = tie_cases()[case]
    db_labels = rng.integers(0, 3, size=db.shape[0])
    queries = np.vstack([[[1.0, 0, 0], [0, 1.0, -1.0], [0.5, 0.5, 0], [0, 0, 0], [-1.0, 0, 0]],
                         rng.normal(size=(75, 3))])
    q_labels = rng.integers(0, 4, size=queries.shape[0])
    index = RetrievalIndex(db, db_labels)
    orders, aps = oracle_evaluate(db, db_labels, queries, q_labels)
    for q, order in zip(queries, orders):
        assert rank(index, q).tolist() == order.tolist()
    ks = [1, 10, db.shape[0]]
    result = evaluate(index, queries, q_labels, ks)
    assert result.per_query_ap == pytest.approx(aps, abs=1e-12)
    assert result.n_skipped == int(np.sum(q_labels == 3))
    kept = [db_labels[order] == lab for order, lab in zip(orders, q_labels) if np.any(db_labels == lab)]
    for k in ks:
        total = 0.0
        for rel in kept:  # in query order, across both query blocks
            total += float(rel[:k].sum()) / k
        assert result.top_k[k] == total / len(kept)


def exact_cosine_case(seed, dim, n_db, distinct, n_q, classes):
    """Database, queries, labels and ks whose every cosine is exact.

    Each database row is a scaled +-e_k or a zero row, with +-0.0 in its
    other entries, so every cosine is exactly a query coordinate or a
    zero, whatever the product's summation order.  Directions drawn
    without repeats and queries without zero coordinates give rows of
    distinct keys; a repeated direction, a zeroed query coordinate or a
    zero query gives tied ones, so sure and unsure rows share a block.
    Query label ``classes`` occurs in no database row.
    """
    rng = np.random.default_rng(seed)
    if distinct:
        n_db = min(n_db, 2 * dim + 1)
    direction = rng.choice(2 * dim + 1, size=n_db, replace=not distinct)  # 2 * dim: the zero row
    db = rng.choice([-0.0, 0.0], size=(n_db, dim))
    axis_rows = np.flatnonzero(direction < 2 * dim)
    signs = np.where(direction[axis_rows] % 2 == 0, 1.0, -1.0)
    db[axis_rows, direction[axis_rows] // 2] = signs * rng.uniform(0.5, 3.0, size=axis_rows.size)
    queries = rng.normal(size=(n_q, dim))
    zeroed = rng.random((n_q, dim)) < 0.15
    queries[zeroed] = rng.choice([-0.0, 0.0], size=int(zeroed.sum()))
    queries[rng.random(n_q) < 0.05] = 0.0
    db_labels, q_labels = rng.integers(0, classes, size=n_db), rng.integers(0, classes + 1, size=n_q)
    ks = [*rng.integers(1, n_db + 1, size=2).tolist(), n_db]
    return RetrievalIndex(db, db_labels), queries, q_labels, ks


def assert_equals_the_ranked_oracle(result, index, queries, q_labels, ks):
    """``result`` is, bit for bit, the naive AP and top-k of each query's ``rank`` order, in query order."""
    aps, kept = [], []
    for q, lab in zip(queries, q_labels):
        n_rel = int(np.count_nonzero(index.db_labels == lab))
        if n_rel:
            rel = index.db_labels[rank(index, q)] == lab
            aps.append(naive_ap(rel, n_rel))
            kept.append(rel)
    assert result.per_query_ap == aps
    assert result.n_skipped == len(queries) - len(aps)
    if not aps:
        assert math.isnan(result.map)
        return
    assert result.map == float(np.mean(aps))
    assert list(result.top_k) == list(dict.fromkeys(ks))
    for k in result.top_k:
        total = 0.0
        for rel in kept:  # in query order
            total += float(rel[:k].sum()) / k
        assert result.top_k[k] == total / len(aps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), n_db=st.integers(1, 11),
       distinct=st.booleans(), n_q=st.integers(QUERY_BLOCK + 1, 2 * QUERY_BLOCK + 20), classes=st.integers(1, 3))
def test_evaluate_equals_the_ranked_oracle_exactly(seed, dim, n_db, distinct, n_q, classes):
    index, queries, q_labels, ks = exact_cosine_case(seed, dim, n_db, distinct, n_q, classes)
    assert_equals_the_ranked_oracle(evaluate(index, queries, q_labels, ks), index, queries, q_labels, ks)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), n_db=st.integers(1, 11),
       distinct=st.booleans(), block=st.integers(1, 7), n_q=st.integers(1, 40), classes=st.integers(1, 3))
def test_evaluate_in_small_query_blocks_equals_the_ranked_oracle_exactly(seed, dim, n_db, distinct, block,
                                                                         n_q, classes):
    # With one class every database row is a hit of every kept query; the
    # first block's queries carry a label of no database row, so it is
    # skipped whole.
    index, queries, q_labels, ks = exact_cosine_case(seed, dim, n_db, distinct, n_q, classes)
    q_labels[:block] = classes
    with mock.patch.object(pkt.retrieval, "QUERY_BLOCK", block):
        result = evaluate(index, queries, q_labels, ks)
    assert_equals_the_ranked_oracle(result, index, queries, q_labels, ks)


def test_rank_is_stable_among_tied_rows():
    index = RetrievalIndex(np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 3), np.zeros(7, dtype=int))
    assert rank(index, np.array([0.0, 2.0])).tolist() == [4, 5, 6, 0, 1, 2, 3]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_db=st.integers(1, 300), n_q=st.integers(1, 150),
       dim=st.integers(2, 6), classes=st.integers(1, 5))
def test_evaluate_invariant_under_database_permutation(seed, n_db, n_q, dim, classes):
    # continuous features in two or more dimensions: ties have probability zero
    rng = np.random.default_rng(seed)
    db, queries = rng.normal(size=(n_db, dim)), rng.normal(size=(n_q, dim))
    db_labels, q_labels = rng.integers(0, classes, size=n_db), rng.integers(0, classes + 1, size=n_q)
    perm = rng.permutation(n_db)
    ks = [1, n_db]
    a = evaluate(RetrievalIndex(db, db_labels), queries, q_labels, ks)
    b = evaluate(RetrievalIndex(db[perm], db_labels[perm]), queries, q_labels, ks)
    assert a.per_query_ap == pytest.approx(b.per_query_ap, abs=1e-12)
    assert a.n_skipped == b.n_skipped
    if a.per_query_ap:
        assert a.map == pytest.approx(b.map, abs=1e-12)
        assert a.top_k == pytest.approx(b.top_k, abs=1e-12)
